"""Test-side diagnostics of sampled fields, and reference implementations."""

import struct

import numpy as np

from nsfarfield import kernels as kn
from nsfarfield import solver as sv
from nsfarfield.forcing import AssumptionReport, ForceModel
from nsfarfield.grid import leray_apply


def divergence_defect(v) -> float:
    """max_k |k . u_hat(k)| / max_k |u_hat(k)| of a ``VectorFieldGrid``, zero
    mode excluded."""
    spec = np.fft.fftn(v.components, axes=tuple(range(1, v.grid.d + 1)))
    dot = np.zeros(v.grid.shape, dtype=complex)
    for ax, k in enumerate(v.grid.wavenumbers):
        dot += k * spec[ax]
    denom = np.abs(spec).max()
    if denom == 0.0:
        return 0.0
    return float(np.abs(dot).max() / denom)


def rewrite_snapshot_header(path, **fields) -> None:
    """Overwrite header fields (d, n, length, time, ncomp) of a little-endian
    snapshot file in place; the data section stays as it is."""
    raw = bytearray(path.read_bytes())
    names = ("d", "n", "length", "time", "ncomp")
    header = dict(zip(names, struct.unpack_from("<IIddI", raw, 6)))
    header.update(fields)
    struct.pack_into("<IIddI", raw, 6, *(header[k] for k in names))
    path.write_bytes(bytes(raw))


# ---------------------------------------------------------------------------
# The rank-3 gradient tensors, the references of the radial contractions
# ``oseen_grad_contract`` and ``grad_leading_contract``.
# ---------------------------------------------------------------------------


def oseen_grad_kernel(x, t: float, d: int):
    """Gradient kernel F(x,t), F[j,k,l] = d/dx_l K[j,k](x,t).  Shape (..., d, d, d).

    Contracting F[j,k,l] with the (k,l) entries of u (x) u yields component j of
    the projected divergence of the momentum flux.  Satisfies
    F(x,t) = t^(-(d+1)/2) F(x/sqrt(t), 1) and sum_j F[j,k,j] = 0.
    """
    d = kn._check_dim(d)
    t = kn._check_time(t)
    x = kn._as_points(x, d)
    p, w = kn._grad_pw(x, t, d)
    r2 = np.sum(x * x, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_r2 = np.where(r2 > 0.0, 1.0 / r2, 0.0)
    eye = np.eye(d)
    out = np.zeros(x.shape[:-1] + (d, d, d))
    # -(P+W) delta_jk x_l
    out -= (p + w)[..., None, None, None] * eye[:, :, None] * x[..., None, None, :]
    # -W (delta_jl x_k + delta_kl x_j)
    out -= w[..., None, None, None] * (
        eye[:, None, :] * x[..., None, :, None]
        + eye[None, :, :] * x[..., :, None, None]
    )
    # +(P + (d+2) W) x_j x_k x_l / r^2
    cubic = (
        x[..., :, None, None] * x[..., None, :, None] * x[..., None, None, :]
    )
    out += ((p + (d + 2.0) * w) * inv_r2)[..., None, None, None] * cubic
    return out


def grad_leading_tensor(x, d: int):
    """Analytic gradient G[j,k,h] = d/dx_h of leading_tensor[j,k]; degree -(d+1)."""
    d = kn._check_dim(d)
    x = kn._as_points(x, d)
    r2 = np.sum(x * x, axis=-1)
    if np.any(r2 == 0.0):
        raise ValueError("gradient of the leading tensor is singular at x = 0")
    coeff = d / (kn.SPHERE_AREA[d] * r2 ** (d / 2.0 + 1.0))
    eye = np.eye(d)
    out = np.zeros(x.shape[:-1] + (d, d, d))
    out += eye[:, :, None] * x[..., None, None, :]
    out += eye[:, None, :] * x[..., None, :, None]
    out += eye[None, :, :] * x[..., :, None, None]
    cubic = x[..., :, None, None] * x[..., None, :, None] * x[..., None, None, :]
    out -= (d + 2.0) * cubic / r2[..., None, None, None]
    return coeff[..., None, None, None] * out


def validate_assumptions_reference(f: ForceModel, epsilon: float,
                                   points_per_axis: int = 128,
                                   time_samples: int = 129) -> AssumptionReport:
    """``forcing.validate_assumptions`` as one lattice pass per time sample:
    the force is summed term by term at each midpoint time and its norm
    taken there, with no separation of the time factor.  The defaults are
    the production lattice: ``points_per_axis`` midpoints per axis in d = 2,
    max(48, points_per_axis // 3) in d = 3, over the support square."""
    if not f.terms:
        return AssumptionReport(0.0, 0.0, 0.0, target=epsilon)

    r = max(f.support_radius(), 1.0)
    n = points_per_axis if f.d == 2 else max(48, points_per_axis // 3)
    ax = np.linspace(-r, r, n, endpoint=False) + r / n
    pts = np.stack(np.meshgrid(*([ax] * f.d), indexing="ij"), axis=-1)
    cell = (2.0 * r / n) ** f.d
    radii = np.linalg.norm(pts, axis=-1)
    t_end = max(f.support_end(), 1e-6)
    dt = t_end / time_samples
    times = (np.arange(time_samples) + 0.5) * dt

    space_weight = (1.0 + radii) ** (f.d + 2)
    profiles = [term.profile.value(pts) for term in f.terms]
    eps_f1 = 0.0
    l1 = 0.0
    f3 = 0.0
    for t in times:
        force = np.zeros(pts.shape)
        for term, rho in zip(f.terms, profiles):
            tau = float(term.time_profile.value(t))
            force += (rho * tau)[..., None] * np.asarray(term.amplitude)
        mag = np.linalg.norm(force, axis=-1)
        ratio = mag * np.maximum(space_weight, (1.0 + t) ** ((f.d + 2) / 2.0))
        eps_f1 = max(eps_f1, float(ratio.max(initial=0.0)))
        l1 += float(mag.sum()) * cell * dt
        f3 = max(f3, (1.0 + t) ** 0.5 * float((radii * mag).sum()) * cell)
    return AssumptionReport(eps_f1, l1, f3, target=epsilon)


# ---------------------------------------------------------------------------
# The Picard recursion on the whole half spectrum, the oracle for the solver's
# dealiased-block recursion: B's source, its lift, the stencil fields and the
# accumulator span every mode, zeros outside the block included.
# ---------------------------------------------------------------------------


def embed_block(ops, block):
    """A block array (``_SpectralOps.block`` layout) on the whole half
    spectrum, zero outside the block."""
    spec = np.zeros(block.shape[:block.ndim - ops.grid.d] + ops.shape, dtype=complex)
    for full, part in ops._slabs:
        spec[(Ellipsis,) + full] = block[(Ellipsis,) + part]
    return spec


def flux_source_full(ops, u_phys, drift):
    """``_SpectralOps.flux_source`` on the whole half spectrum: the dealias
    mask times one ``rfftn`` of every product."""
    grid = ops.grid
    d = grid.d
    mask = grid.dealias_mask[..., :grid.n // 2 + 1]
    full = u_phys + drift.reshape((d,) + (1,) * d)
    if d == 2:
        k0, k1 = ops.k
        scale = mask * ops.inv_k2
        f0, f1 = full
        a_hat, b_hat = ops.fft(np.stack([0.5 * (f0 * f0 - f1 * f1), f0 * f1]))
        return -2.0 * k0 * k1 * scale * a_hat + (k0 * k0 - k1 * k1) * scale * b_hat
    div = np.zeros((d,) + ops.shape, dtype=complex)
    for kk in range(d):
        for ll in range(kk, d):
            w_hat = np.fft.rfftn(full[kk] * full[ll])
            w_hat *= mask
            div[kk] += 1j * ops.k[ll] * w_hat
            if ll != kk:
                div[ll] += 1j * ops.k[kk] * w_hat
    return leray_apply(div, ops.k, ops.inv_k2)


def lift_full(ops, source):
    """``_SpectralOps.lift`` on the whole half spectrum."""
    if ops.grid.d == 3:
        return source
    k0, k1 = ops.k
    return np.stack([-1j * k1 * source, 1j * k0 * source])


def mild_series_full(ops, times, opts, a=None, f=None, history=None):
    """``solver._mild_series`` with B on the whole half spectrum; with a
    ``history``, each slice comes as the pair (slice, snapshots[m])."""
    d = ops.grid.d
    rule = sv._slice_rule(ops, times, opts)
    acc = np.zeros((d,) + ops.shape, dtype=complex)
    if a is not None:
        acc += ops.project(ops.fft(a.to_field(ops.grid).components))
        acc[(slice(None),) + (0,) * d] = 0.0
    specs = [] if f is None else sv._force_spectra(ops, f)
    sources = {}
    patterns = {}
    if history is not None:
        snapshots, drift = history
        bil = np.zeros(ops.shape if d == 2 else (d,) + ops.shape, dtype=complex)

    def stencil_fields(offset, size):
        if (offset, size) not in patterns:
            lw = np.stack([sv._lagrange_weights(np.arange(size) * rule.dt,
                                                (offset - 1) * rule.dt + s)
                           for s in rule.offsets])
            patterns[offset, size] = [rule.fold(lw[:, j]) for j in range(size)]
        return patterns[offset, size]

    def out(m, spec):
        return ops.ifft(spec) if history is None else (ops.ifft(spec), snapshots[m])

    yield out(0, acc)
    for m in range(1, times.size):
        acc *= rule.decay
        tv = f.time_profile.value(times[m - 1] + rule.offsets) if specs else 0.0
        if np.any(tv):
            fold = rule.fold(tv)
            for spec in specs:
                acc += fold * spec
        total = acc
        if history is not None:
            idx = sv._stencil(m, times.size - 1)
            for i in [i for i in sources if i < idx[0]]:
                del sources[i]
            bil *= rule.decay
            for i, weight in zip(idx, stencil_fields(m - idx[0], len(idx))):
                if i not in sources:
                    sources[i] = flux_source_full(ops, snapshots[i], drift[i])
                bil += weight * sources[i]
            total = acc - lift_full(ops, bil)
        yield out(m, total)


def sweep_full(ops, a, f, snapshots, drift, times, opts):
    """``solver._sweep`` on ``mild_series_full``, with a new array for every
    difference and square; its peak is the same per-component bound and its
    decay constant the same sup.  A first sweep (empty ``snapshots``) starts
    from the whole list u^(0) = heat a + L(f) and appends every slice."""
    first = not snapshots
    history = list(mild_series_full(ops, times, opts, a, f)) if first else snapshots
    update = peak = decay = 0.0
    weight = (1.0 + ops.grid.radius) ** ops.grid.d
    for m, (new, old) in enumerate(mild_series_full(ops, times, opts, a, f,
                                                     (history, drift))):
        update = max(update, sv.grid_l2(new - old, ops.grid))
        ext = np.maximum(np.abs(new.max(axis=tuple(range(1, new.ndim))) + drift[m]),
                         np.abs(new.min(axis=tuple(range(1, new.ndim))) + drift[m]))
        peak = max(peak, float(np.sqrt(np.sum(ext * ext))))
        decay = max(decay, float((np.sqrt(np.sum(new * new, axis=0)) * weight).max()))
        if m > 0:
            history[m] = new
        if first:
            snapshots.append(new)
    return update, peak, decay
