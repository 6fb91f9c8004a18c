"""Mild-solution construction on the periodic box and far-field evaluation.

The velocity solves the integral formulation

    u(t) = heat(t) a  -  B(u, u)(t)  +  L(f)(t),

where B is the bilinear Duhamel term (projected divergence of the momentum
flux propagated by the heat flow) and L(f) the linear force response.  The
solver iterates the whole time horizon at once:

    u^(0)    = heat a + L(f)
    u^(k+1)  = heat a - B(u^(k), u^(k)) + L(f)

with every Duhamel integral evaluated by per-slice Gauss-Legendre panels,
geometrically graded toward the singular end s = t, and accumulated by the
exponential-integrator recursion

    I(t_m) = exp(-dt |k|^2) I(t_{m-1}) + (panel over [t_{m-1}, t_m]).

The slices are uniform, so each panel sum is a fixed real weight field per
stencil slice (the node propagators folded with the Lagrange weights, or with
tau(s) for the force), built once per series.  Fields are real, so the
spectral work runs on the real-FFT half spectrum.

The box zero mode cannot represent decay at infinity, so it is split off
analytically: snapshots are stored mean-free and the uniform drift
force_integral(t) / (2L)^d is tracked separately and re-injected into the
momentum flux, which keeps the grid solution box-exact while the snapshots
approximate the free-space solution.

Far-field evaluation assembles the same three Duhamel terms at arbitrary
points from the closed-form kernels, with per-term error estimates.  The
bilinear term has one evaluator for every point, inside |x| < L/2 as well as
beyond it: a kernel sum of the stored momentum flux over the central
|y| <= L/2 sub-box.  With the gradient kernel split as
F(z, tau) = G(z) + D(z, tau), G = grad L the leading part and D the
gradient of |z|^-d Psi(z / sqrt(tau)):

* every source pair contracts G(x - y) with one flux field per evaluation
  time, Q(y) = sum over nodes of weight * flux(y, s): one spatial sum;
* D is Gaussian-local, so it is added only for the (pair, node) entries
  inside the node's reach, |x - y| < c sqrt(t - s);
* pairs with |x - y| < 2 sqrt(t - s) at the earliest node s take the full
  F at every node instead: G is singular at x = y, and where |G| far
  exceeds |F| the sum G + D cancels.

The cutoff c = FAR_CUTOFF puts each dropped entry at a Gaussian tail of about
1e-12; the ``psi_cutoff`` budget entry bounds their sum analytically, next to
the time and space quadrature estimates and the |y| > L/2 truncation bound.
In d = 2 the kernels annihilate the trace of the flux, so the history keeps
only its traceless part as one complex number per source point, and each pair
is one complex product (see ``kernels``).
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import kernels
from .forcing import ForceModel, InitialData, force_integral, validate_assumptions
from .grid import BoxGrid, VectorFieldGrid, leray_apply, read_snapshot

__all__ = [
    "SolverOptions",
    "Trajectory",
    "SolverError",
    "AdmissionError",
    "ContractionError",
    "ConvergenceError",
    "picard_solve",
    "linear_response",
    "bilinear_term",
    "farfield_velocity",
    "integral_residual",
    "load_trajectory",
]

# admission guard: measured force + data constants must stay below this
ADMISSION_LIMIT = 5e-2

# geometric grading of the last panel of every time quadrature toward its
# singular end
_GRADING_LEVELS = 6

# Reach c of the Gaussian part: a (source pair, time node) entry with
# |x - y| >= c sqrt(tau), tau = t - s, drops the Psi part of the kernel.  Psi
# decays like exp(-|z|^2 / (4 tau)), so a tail target exp(-c^2/4) <= 1e-12
# needs c >= 2 sqrt(12 ln 10) = 10.51; rounded up.
FAR_CUTOFF = 10.6
# Core of the split: a pair with |x - y| < _CORE sqrt(tau) at the earliest
# node takes the full kernel F at every node.  Outside it every entry has
# |z|^2 >= 4 tau, where |G| <= 4.5 |F| in d <= 3, so G + D loses under one
# digit to cancellation; nearer the source the loss grows like
# (sqrt(tau) / |z|)^(d+1).
_CORE = 2.0

# _bilinear_point: slices per history panel, points per pair block (memory
# only: each point's source sum is its own row sum, so a point's value does
# not depend on its batch), and points per batch that carry the quadrature
# error estimate
_COARSEN = 8
_CHUNK = 8
_PROBE = 16

# _linear_point: floats per block of quadrature nodes (about 1 MB)
_NODE_BLOCK = 1 << 17


class SolverError(RuntimeError):
    pass


class AdmissionError(SolverError):
    """Force/data constants too large for the contraction regime."""


class ContractionError(SolverError):
    def __init__(self, message, log):
        super().__init__(message)
        self.iteration_log = log


class ConvergenceError(SolverError):
    def __init__(self, message, log):
        super().__init__(message)
        self.iteration_log = log


@dataclass(frozen=True)
class SolverOptions:
    slices: int = 64          # time slices over the whole horizon
    tol: float = 1e-10
    max_sweeps: int = 12
    refine: int = 1           # split every quadrature panel this many times


def _graded_panels(a: float, b: float, levels: int, refine: int):
    """Panels covering [a, b], geometrically graded toward b, each split `refine` times.

    ``levels = 0`` gives ``refine`` equal panels.
    """
    width = b - a
    edges = [a] + [b - width * 0.5**j for j in range(1, levels + 1)] + [b]
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        for i in range(refine):
            out.append((lo + (hi - lo) * i / refine, lo + (hi - lo) * (i + 1) / refine))
    return out


def _time_panels(edges, refine: int):
    """(lo, hi) arrays of the panels over ``edges``: one per interval, split
    ``refine`` times, the last interval graded toward its end."""
    levels = [0] * (len(edges) - 2) + [_GRADING_LEVELS]
    panels = [p for lo, hi, lv in zip(edges[:-1], edges[1:], levels)
              for p in _graded_panels(lo, hi, lv, refine)]
    return tuple(np.array(panels).T)


def _lagrange_weights(ts: np.ndarray, s: float) -> np.ndarray:
    """Barycentric-free Lagrange weights for the stencil times ts at point s."""
    n = ts.size
    w = np.ones(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                w[i] *= (s - ts[j]) / (ts[i] - ts[j])
    return w


def _stencil(m_panel: int, n_slices: int) -> list:
    """Slice indices for cubic interpolation on panel [t_{m-1}, t_m]."""
    lo = max(0, min(m_panel - 2, n_slices - 3))
    return list(range(lo, min(lo + 4, n_slices + 1)))


@functools.lru_cache(maxsize=None)
def _unit_gradient_l1(d: int) -> float:
    """L1 norm of the gradient kernel at t = 1, computed on first use."""
    return kernels.oseen_l1_gradient_norm(1.0, d)


def grid_l2(components: np.ndarray, grid: BoxGrid) -> float:
    return float(np.sqrt(np.sum(components * components) * grid.spacing**grid.d))


class _SpectralOps:
    """Shared spectral machinery bound to one grid, on the real-FFT half spectrum.

    Fields are real, so only the last axis' modes 0..N/2 are kept
    (``rfftn``/``irfftn``); every multiplier is sliced to match.  A real field
    has no odd part at the Nyquist wavenumber, so ``k`` (first derivatives)
    is zero there and the Nyquist entries live in ``k_nyquist``; ``k2`` keeps
    the full |k|^2.
    """

    def __init__(self, grid: BoxGrid):
        self.grid = grid
        half = (Ellipsis, slice(0, grid.n // 2 + 1))
        self.axes = tuple(range(1, grid.d + 1))
        nyquist = [k == k.min() for k in grid.wavenumbers]   # fftfreq's -N/2 entry
        self.k = [np.where(nq, 0.0, k)[half] for k, nq in zip(grid.wavenumbers, nyquist)]
        self.k_nyquist = [np.where(nq, k, 0.0)[half]
                          for k, nq in zip(grid.wavenumbers, nyquist)]
        self.k2 = grid.k_squared[half]
        self.mask = grid.dealias_mask[half]
        self.inv_k2 = grid.inverse_k_squared[half]
        self.shape = self.k2.shape

    def fft(self, comps):
        return np.fft.rfftn(comps, axes=self.axes)

    def ifft(self, spec):
        return np.fft.irfftn(spec, s=self.grid.shape, axes=self.axes)

    def project(self, spec):
        """Leray projection of a real field's half spectrum.

        At a mode with some axes at the Nyquist index, the projector of a real
        field is the mean of k k^T / |k|^2 over the mode and its mirror image;
        that drops the cross terms between Nyquist and other axes and leaves
        two rank-one parts, (k k^T + k_nyquist k_nyquist^T) / |k|^2.  They
        act on orthogonal vectors, so they are applied one after the other.
        """
        return leray_apply(leray_apply(spec, self.k, self.inv_k2), self.k_nyquist,
                           self.inv_k2)

    def momentum_flux_divergence(self, u_phys: np.ndarray, drift: np.ndarray):
        """Q = P[-i k . W] for W the dealiased product (u + drift) (x) (u + drift).

        The projected divergence of the momentum flux: the spectral integrand
        of the bilinear Duhamel term.  Mean mode vanishes identically.
        """
        d = self.grid.d
        full = u_phys + drift.reshape((d,) + (1,) * d)
        div = np.zeros((d,) + self.shape, dtype=complex)
        for kk in range(d):
            for ll in range(kk, d):
                w_hat = np.fft.rfftn(full[kk] * full[ll])
                w_hat *= self.mask
                div[kk] += 1j * self.k[ll] * w_hat
                if ll != kk:
                    div[ll] += 1j * self.k[kk] * w_hat
        # the mask clears every Nyquist mode: the rank-one Nyquist part is idle
        return leray_apply(div, self.k, self.inv_k2)


class Trajectory:
    """Solved trajectory: mean-free snapshots plus analytic drift bookkeeping."""

    def __init__(self, grid: BoxGrid, times: np.ndarray, snapshots: list,
                 drift: np.ndarray, iteration_log: list, scenario_hash: str = ""):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.snapshots = snapshots          # list of (d, N..N) mean-free arrays
        self.drift = np.asarray(drift)      # (M+1, d) uniform box drift
        self.iteration_log = list(iteration_log)
        self.scenario_hash = scenario_hash
        self._cache = {}                    # derived data built on first use

    def _cached(self, key, build):
        """The cache entry under ``key``, built by ``build()`` on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def contractive(self) -> bool:
        log = self.iteration_log
        return all(log[i] < log[i - 1] for i in range(2, len(log)))

    def slice_index(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(f"time {t} is not a sample time of this trajectory")
        return i

    def nearest_time(self, t: float) -> float:
        """Snap to the closest sample time."""
        return float(self.times[int(np.argmin(np.abs(self.times - t)))])

    def field_at(self, t: float) -> VectorFieldGrid:
        i = self.slice_index(t)
        return VectorFieldGrid(self.grid, self.snapshots[i].copy(), time=float(self.times[i]))

    def decay_constant(self) -> float:
        """Measured sup over slices of (1+|x|)^d |u| on the grid snapshots."""
        def build():
            w = (1.0 + self.grid.radius) ** self.grid.d
            best = 0.0
            for comps in self.snapshots:
                mag = np.sqrt(np.sum(comps * comps, axis=0))
                best = max(best, float((w * mag).max()))
            return best

        return self._cached("decay_constant", build)

    # -- bilinear history on the central |y| <= L/2 sub-box ------------------

    def _central_slices(self):
        n = self.grid.n
        sl = slice(n // 4, 3 * n // 4)
        return (sl,) * self.grid.d

    def flux_history(self):
        """Per-slice momentum flux of u + D, D the drift, on |y| <= L/2.

        Returns (points (n_y, d), fluxes): one array per slice.  In d = 2 a
        flux is its traceless part sigma = (Q_11 - Q_22)/2 + i Q_12 of
        Q = (u+D)(x)(u+D), that is ((u_0+D_0) + i (u_1+D_1))^2 / 2, complex
        of shape (n_y,): every far-field kernel annihilates the identity, so
        the trace drops out (see ``kernels``).  In d = 3 it is Q itself, real
        of shape (n_y, d, d).
        """
        def build():
            d = self.grid.d
            region = self._central_slices()
            pts = self.grid.points[region].reshape(-1, d)
            fluxes = []
            for i, comps in enumerate(self.snapshots):
                u = comps[(slice(None),) + region].reshape(d, -1)
                u = u + self.drift[i][:, None]
                if d == 2:
                    w = u[0] + 1j * u[1]
                    fluxes.append(0.5 * (w * w))
                else:
                    fluxes.append(np.einsum("ky,ly->ykl", u, u))
            return pts, fluxes

        return self._cached("flux", build)

    # -- persistence ---------------------------------------------------------

    def save(self, directory) -> None:
        os.makedirs(directory, exist_ok=True)
        lines = [f"scenario_hash {self.scenario_hash}",
                 f"slices {len(self.snapshots) - 1}",
                 "iteration_log " + " ".join(repr(float(v)) for v in self.iteration_log)]
        for i, t in enumerate(self.times):
            name = f"u{i:05d}.nsvf"
            VectorFieldGrid(self.grid, self.snapshots[i], time=float(t)).save(
                os.path.join(directory, name))
            drift = " ".join(repr(float(v)) for v in self.drift[i])
            lines.append(f"snapshot {i} {float(t)!r} {name} {drift}")
        with open(os.path.join(directory, "manifest.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")


def load_trajectory(directory) -> Trajectory:
    """Read a ``Trajectory.save`` directory; ValueError if its manifest is incomplete."""
    with open(os.path.join(directory, "manifest.txt")) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    scenario_hash = ""
    slices = None
    entries = []
    log = []
    for ln in lines:
        parts = ln.split()
        if parts[0] == "scenario_hash" and len(parts) > 1:
            scenario_hash = parts[1]
        elif parts[0] == "slices" and len(parts) > 1:
            slices = int(parts[1])
        elif parts[0] == "iteration_log":
            log = [float(v) for v in parts[1:]]
        elif parts[0] == "snapshot":
            entries.append(parts)
    if not entries:
        raise ValueError(f"{directory}: the manifest lists no snapshot")
    if slices != len(entries) - 1:
        raise ValueError(f"{directory}: the manifest lists {len(entries)} snapshots "
                         f"for {slices} slices")
    entries.sort(key=lambda p: int(p[1]))
    times, snaps, drifts = [], [], []
    grid = None
    for parts in entries:
        times.append(float(parts[2]))
        fld = read_snapshot(os.path.join(directory, parts[3]))
        grid = fld.grid
        snaps.append(fld.components)
        drifts.append([float(v) for v in parts[4:]])
    return Trajectory(grid, np.array(times), snaps, np.array(drifts), log, scenario_hash)


# ---------------------------------------------------------------------------
# grid-mode Duhamel terms
# ---------------------------------------------------------------------------


def _uniform_step(times: np.ndarray) -> float:
    """Width of the slices between ``times``; they must be uniform."""
    if times.size < 2:
        return 0.0
    dt = float(times[-1] - times[0]) / (times.size - 1)
    if np.abs(np.diff(times) - dt).max() > 1e-9 * dt:
        raise ValueError("slice times must be uniformly spaced (to 1e-9 relative)")
    return dt


@dataclass(frozen=True)
class _SliceRule:
    """The graded GL4 rule of one slice, folded with the heat flow.

    Slices are uniform, so a node's offset inside its slice, and with it the
    propagator exp(-(t1 - s)|k|^2) to the slice end, is the same in every
    slice.  ``offsets``/``weights`` are the nodes' s - t0 and half * wgt;
    ``factors`` stacks one propagator per node; ``decay`` is exp(-dt |k|^2).
    """

    dt: float
    offsets: np.ndarray
    weights: np.ndarray
    factors: np.ndarray
    decay: np.ndarray

    def fold(self, node_weights: np.ndarray) -> np.ndarray:
        """sum over nodes of weights * node_weights * propagator: one field."""
        return np.tensordot(self.weights * node_weights, self.factors, axes=1)


def _slice_rule(ops: _SpectralOps, times: np.ndarray, opts: SolverOptions) -> _SliceRule:
    dt = _uniform_step(times)
    offsets, weights = (a.ravel() for a in kernels.gauss_panels(
        *_time_panels([0.0, dt], opts.refine), 4))
    factors = np.exp(-(dt - offsets).reshape((-1,) + (1,) * ops.grid.d) * ops.k2)
    return _SliceRule(dt, offsets, weights, factors, np.exp(-dt * ops.k2))


def _force_spectra(ops: _SpectralOps, f: ForceModel):
    """Projected, mean-free spectra of the separable force terms."""
    out = []
    for term in f.terms:
        rho_hat = np.fft.rfftn(term.profile.value(ops.grid.points))
        spec = np.stack([rho_hat * amp for amp in term.amplitude])
        spec[(slice(None),) + (0,) * ops.grid.d] = 0.0  # mean handled as drift
        out.append((term.time_profile, ops.project(spec)))
    return out


def _linear_series(ops: _SpectralOps, f: ForceModel, times: np.ndarray,
                   opts: SolverOptions):
    """L(f) at every slice time by the exponential recursion; mean-free.

    Each slice adds, per force term, one field (the node propagators folded
    with tau(s)) times the term's spectrum.
    """
    d = ops.grid.d
    rule = _slice_rule(ops, times, opts)
    terms = _force_spectra(ops, f)
    acc = np.zeros((d,) + ops.shape, dtype=complex)
    out = [np.zeros((d,) + ops.grid.shape)]
    for m in range(1, times.size):
        acc *= rule.decay
        for tau, spec in terms:
            tv = tau.value(times[m - 1] + rule.offsets)
            if np.any(tv):
                acc += rule.fold(tv) * spec
        out.append(ops.ifft(acc))
    return out


def _bilinear_series(ops: _SpectralOps, snapshots: list, drift: np.ndarray,
                     times: np.ndarray, opts: SolverOptions):
    """B(u, u) at every slice time from the momentum-flux history; mean-free.

    Slice m adds sum_j E_j Q(t_{idx_j}) over its cubic stencil idx, where
    E_j folds the Lagrange weight of stencil slice j into the node
    propagators.  E_j depends only on the stencil's position relative to the
    slice, (m - idx[0], len(idx)), so each pattern is built once per call.
    """
    d = ops.grid.d
    n_t = times.size
    rule = _slice_rule(ops, times, opts)
    cache: dict = {}
    patterns: dict = {}

    def flux_div(i: int):
        if i not in cache:
            cache[i] = ops.momentum_flux_divergence(snapshots[i], drift[i])
            for key in [k for k in cache if k < i - 2]:
                del cache[key]
        return cache[i]

    def stencil_fields(offset: int, size: int):
        if (offset, size) not in patterns:
            lw = np.stack([_lagrange_weights(np.arange(size) * rule.dt,
                                             (offset - 1) * rule.dt + s)
                           for s in rule.offsets])
            patterns[offset, size] = [rule.fold(lw[:, j]) for j in range(size)]
        return patterns[offset, size]

    acc = np.zeros((d,) + ops.shape, dtype=complex)
    out = [np.zeros((d,) + ops.grid.shape)]
    for m in range(1, n_t):
        idx = _stencil(m, n_t - 1)
        acc *= rule.decay
        for i, weight in zip(idx, stencil_fields(m - idx[0], len(idx))):
            acc += weight * flux_div(i)
        out.append(ops.ifft(acc))
    return out


def _heat_series(ops: _SpectralOps, a: InitialData, times: np.ndarray):
    d = ops.grid.d
    spec = ops.project(ops.fft(a.to_field(ops.grid).components))
    spec[(slice(None),) + (0,) * d] = 0.0
    decay = np.exp(-_uniform_step(times) * ops.k2)
    out = [ops.ifft(spec)]
    for _ in range(1, times.size):
        spec = spec * decay
        out.append(ops.ifft(spec))
    return out


def picard_solve(a: InitialData, f: ForceModel, grid: BoxGrid, horizon: float,
                 opts: SolverOptions = SolverOptions(),
                 scenario_hash: str = "", assumptions=None) -> Trajectory:
    """Iterate the integral formulation to its discrete fixed point.

    Stops when the sup-over-times L2 update norm drops below opts.tol.
    Raises AdmissionError when the measured smallness constants exceed the
    empirical contraction guard, ContractionError when update norms fail to
    decrease, ConvergenceError when max_sweeps is exhausted.  A caller that
    has already measured the force constants (``validate_assumptions`` at
    ADMISSION_LIMIT, 128 points per axis, 129 time samples) passes the report
    as ``assumptions``.
    """
    if math.sqrt(horizon) > grid.length / 8.0 + 1e-12:
        raise ValueError(
            f"sqrt(horizon) = {math.sqrt(horizon):.3g} exceeds L/8 = {grid.length / 8:.3g}; "
            "periodic truncation would contaminate the far field")
    rep = assumptions
    if rep is None:
        rep = validate_assumptions(f, ADMISSION_LIMIT, points_per_axis=128,
                                   time_samples=129)
    combined = rep.combined() + a.l1_norm + a.sup_weighted
    if combined > ADMISSION_LIMIT:
        raise AdmissionError(
            f"combined force/data constants {combined:.3g} exceed the "
            f"admission threshold {ADMISSION_LIMIT:g}")

    ops = _SpectralOps(grid)
    times = np.linspace(0.0, horizon, opts.slices + 1)
    vol = (2.0 * grid.length) ** grid.d
    drift = np.stack([force_integral(f, float(t)) / vol for t in times])

    # heat + L(f), summed into the heat series so neither list outlives it
    fixed = _heat_series(ops, a, times)
    for fixed_m, lin_m in zip(fixed, _linear_series(ops, f, times, opts)):
        fixed_m += lin_m

    snapshots = fixed   # read, never written, by the first sweep
    log = []
    for sweep in range(1, opts.max_sweeps + 1):
        nxt = _bilinear_series(ops, snapshots, drift, times, opts)
        update = 0.0
        for m in range(times.size):
            np.subtract(fixed[m], nxt[m], out=nxt[m])
            update = max(update, grid_l2(nxt[m] - snapshots[m], grid))
        snapshots = nxt
        log.append(update)
        if update < opts.tol:
            break
        if len(log) >= 2 and log[-1] >= log[-2] and update > opts.tol * 10:
            raise ContractionError(
                f"update norms stopped decreasing at sweep {sweep}: {log}", log)
    else:
        raise ConvergenceError(
            f"no convergence to tol={opts.tol:g} in {opts.max_sweeps} sweeps: {log}", log)

    return Trajectory(grid, times, snapshots, drift, log, scenario_hash)


def integral_residual(traj: Trajectory, a: InitialData, f: ForceModel,
                      opts: SolverOptions = SolverOptions()) -> float:
    """Max over sample times of the L2 defect of the integral equation."""
    ops = _SpectralOps(traj.grid)
    heat = _heat_series(ops, a, traj.times)
    lin = _linear_series(ops, f, traj.times, opts)
    bil = _bilinear_series(ops, traj.snapshots, traj.drift, traj.times, opts)
    worst = 0.0
    for m in range(traj.times.size):
        defect = traj.snapshots[m] - (heat[m] + lin[m] - bil[m])
        worst = max(worst, grid_l2(defect, traj.grid))
    return worst


# ---------------------------------------------------------------------------
# point-mode Duhamel terms
# ---------------------------------------------------------------------------


def _require_points(x, d: int) -> tuple:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x.reshape(1, -1) if single else x.reshape(-1, d)
    return pts, single, x.shape[:-1]


def _linear_point(f: ForceModel, x: np.ndarray, t: float, opts: SolverOptions,
                  slices_hint: int = 64):
    """L(f)(x, t) by closed-form time quadrature; returns (values, error_estimate).

    Each Gaussian force term contributes tau(s) * P[c rho_{t-s}](x - center)
    with rho_{t-s} the heat-fattened bump; the projection of a radial Gaussian
    is evaluated in closed form, so only the s-integral is numerical.  The
    (node, term) entries with tau(s) != 0 go through ``projected_gaussian``
    in blocks of about ``_NODE_BLOCK`` floats, one call per block, and are
    summed in node order.
    """
    d = f.d
    if t == 0.0 or not f.terms:
        return np.zeros_like(x), 0.0
    n_panels = max(8, min(slices_hint, 64))
    panels = _time_panels(np.linspace(0.0, t, n_panels + 1), opts.refine)
    centers = np.array([term.profile.center for term in f.terms])
    amplitudes = np.array([term.amplitude for term in f.terms])
    block = max(1, _NODE_BLOCK // x.size)
    sums = []
    for order in (4, 2):
        s, w = (a.ravel() for a in kernels.gauss_panels(*panels, order))
        tv = np.stack([term.time_profile.value(s) for term in f.terms], axis=-1)
        ii, jj = np.nonzero(tv)          # node-major, as the quadrature sum runs
        coef = w[ii] * tv[ii, jj]
        evolved = np.array([f.terms[j].profile.heat_evolved(t - s[i])
                            for i, j in zip(ii, jj)]).reshape(-1, 2)
        acc = np.zeros_like(x)
        for b0 in range(0, ii.size, block):
            e = slice(b0, b0 + block)
            vals = kernels.projected_gaussian(x - centers[jj[e], None], evolved[e, :1],
                                              evolved[e, 1:], amplitudes[jj[e], None], d)
            vals *= coef[e, None, None]
            vals[0] += acc
            acc = vals.sum(axis=0)
        sums.append(acc)
    out, coarse = sums
    err = float(np.max(np.linalg.norm(out - coarse, axis=-1), initial=0.0))
    return out, err


def _history_rules(times: np.ndarray, m_t: int, opts: SolverOptions):
    """GL4 and embedded GL2 nodes of the history integral over [0, times[m_t]].

    Panels group `_COARSEN` slices and are graded toward s = t; each node
    carries (s, weight, stencil slice indices, Lagrange weights).
    """
    panels = _time_panels(times[list(range(0, m_t, _COARSEN)) + [m_t]], opts.refine)
    n_slices = times.size - 1
    rules = []
    for order in (4, 2):
        nodes = []
        for s, weight in zip(*(a.ravel() for a in kernels.gauss_panels(*panels, order))):
            idx = _stencil(int(np.searchsorted(times, s, side="right")), n_slices)
            nodes.append((s, weight, idx, _lagrange_weights(times[idx], s)))
        rules.append(nodes)
    return rules


@dataclass(frozen=True)
class _CollapsedHistory:
    """The history integral at one evaluation time, for the leading-part sum.

    ``q4``/``q2`` are the fluxes collapsed by the GL4/GL2 rules,
    sum over nodes of weight * interpolated flux(s), in the form of
    ``Trajectory.flux_history``; ``flux_mass`` is sum over GL4 nodes of
    weight * sum_j |lw_j| |Q_j|_F, which bounds the node sum of |Q(s)|_F at
    each source point.  Q = (u+D)(x)(u+D) has rank one, so
    |Q|_F = |u+D|^2 = 2 |sigma| in d = 2.
    """

    nodes4: list
    nodes2: list
    q4: np.ndarray
    q2: np.ndarray
    flux_mass: np.ndarray


def _collapsed_history(traj: Trajectory, m_t: int, opts: SolverOptions) -> _CollapsedHistory:
    def build():
        _, fluxes = traj.flux_history()
        nodes4, nodes2 = _history_rules(traj.times, m_t, opts)
        # per-slice weights of the two rules
        w4, w2, w_abs = (np.zeros(len(fluxes)) for _ in range(3))
        for _, weight, idx, lw in nodes4:
            w4[idx] += weight * lw
            w_abs[idx] += weight * np.abs(lw)
        for _, weight, idx, lw in nodes2:
            w2[idx] += weight * lw
        q4 = sum(w4[i] * fluxes[i] for i in np.flatnonzero(w4))
        q2 = sum(w2[i] * fluxes[i] for i in np.flatnonzero(w2))
        mass = sum(w_abs[i] * _flux_norm(fluxes[i]) for i in np.flatnonzero(w_abs))
        return _CollapsedHistory(nodes4, nodes2, q4, q2, mass)

    return traj._cached(("collapsed", m_t, opts.refine), build)


def _flux_norm(flux) -> np.ndarray:
    """|Q|_F at each source point of one ``flux_history`` slice."""
    if np.iscomplexobj(flux):
        return 2.0 * np.abs(flux)
    return np.sqrt(np.sum(flux**2, axis=(-2, -1)))


def _flux_at(fluxes, idx, lw, ys) -> np.ndarray:
    """The flux at one time node, interpolated on its stencil, at rows ``ys``
    of the per-slice flux arrays ``fluxes[i]``."""
    flux = lw[0] * fluxes[idx[0]][ys]
    for j in range(1, len(idx)):
        flux = flux + lw[j] * fluxes[idx[j]][ys]
    return flux


def _pair_values(z, r2, t: float, q, nodes, fluxes):
    """Every (x, y) pair's share of B(x, t) per unit cell, shape (n_x, c, n_y),
    and the (n_x, n_y) mask of the core pairs, which drop no entry.

    A share is the complex o_0 + i o_1 in d = 2 (c = 1, the flux is sigma)
    and the d real components in d = 3 (c = d).  ``z`` holds x - y, shape
    (n_x, n_y, d), and ``r2`` its squared length.  The gradient kernel splits
    as F(z, tau) = G(z) + D(z, tau), G = grad L and D the Gaussian-local
    rest.  Every pair contracts G with the collapsed flux ``q``; D is added
    at each time node (s, tau = t - s) whose reach |z|^2 < c^2 tau covers the
    pair, with the flux interpolated at the node.  Sorted by |z|^2, a node's
    covered pairs are a prefix.  A core pair, |z| < _CORE sqrt(tau) at the
    earliest node or inside every node's reach, takes the full F at every
    node instead: no pair next to a source point evaluates the singular G,
    and none sums a G + D that cancels.  The full F of all (core pair, node)
    entries is one kernel call, and each core pair's node sum runs in node
    order.
    """
    n_x, n_y, d = z.shape
    tau = t - np.array([s for s, *_ in nodes])
    reach = FAR_CUTOFF**2 * tau
    core = r2 < max(reach.min(), _CORE**2 * tau.max())
    # core pairs get a placeholder z here; their values are replaced below
    lead_z = np.where(core[..., None], 1.0, z) if core.any() else z
    # (n_x, c, n_y): each point's sum over sources runs along a contiguous row
    lead = kernels.grad_leading_contract(lead_z, d, q).reshape(n_x, n_y, -1)
    vals = np.ascontiguousarray(np.moveaxis(lead, -1, 1))
    n_c = vals.shape[1]

    pairs = np.flatnonzero((r2 < reach.max()) & ~core)
    if pairs.size:
        pairs = pairs[np.argsort(r2.ravel()[pairs], kind="stable")]
        cx, cy = np.divmod(pairs, n_y)
        zc = z[cx, cy]
        ks = np.searchsorted(r2[cx, cy], reach)
        # each slice's flux gathered once, for the longest prefix a node needs
        rows = {}
        for (_, _, idx, _), k in zip(nodes, ks):
            for i in idx:
                rows[i] = max(rows.get(i, 0), k)
        near_flux = {i: fluxes[i][cy[:k]] for i, k in rows.items()}
        acc = np.zeros((pairs.size, n_c), dtype=vals.dtype)
        for (s, weight, idx, lw), k in zip(nodes, ks):
            if k:
                acc[:k] += weight * kernels.psi_grad_contract(
                    zc[:k], t - s, d, _flux_at(near_flux, idx, lw, slice(0, k))
                ).reshape(k, n_c)
        vals[cx, :, cy] += acc

    if core.any():
        ix, iy = np.nonzero(core)
        # (node, core pair) entries, node-major
        zi = np.broadcast_to(z[ix, iy], (tau.size, ix.size, d)).reshape(-1, d)
        flux = np.concatenate([_flux_at(fluxes, idx, lw, iy) for _, _, idx, lw in nodes])
        full = kernels.oseen_grad_contract(zi, np.repeat(tau, ix.size), d, flux)
        acc = np.zeros((ix.size, n_c), dtype=vals.dtype)
        for (_, weight, _, _), f in zip(nodes, full.reshape(tau.size, ix.size, n_c)):
            acc += weight * f
        vals[ix, :, iy] = acc
    return vals, core


def _components(v) -> np.ndarray:
    """Per-point sums (n, c) of ``_pair_values`` shares as real (n, d) vectors:
    o_0 + i o_1 becomes (o_0, o_1), and real components stay as they are."""
    return np.ascontiguousarray(v).view(float)


def _bilinear_point(traj: Trajectory, x: np.ndarray, t: float, opts: SolverOptions):
    """B(u,u)(x, t) by kernel quadrature over the |y| <= L/2 history.

    Every source pair contracts grad L(x - y) with the collapsed flux, one
    spatial sum; the Gaussian-local rest of the kernel is added only at the
    time nodes whose reach FAR_CUTOFF sqrt(t - s) covers the pair (see
    ``_pair_values``).  In d = 2 each point's row sum o_0 + i o_1 becomes
    the vector (o_0, o_1).  Returns (values, error_budget dict).  Quadrature
    error is estimated on a probe subset of the batch (embedded lower-order
    rule in s, stride-2 subsample in y; both doubled as a safety margin); the
    dropped Psi part and the |y| > L/2 truncation are bounded analytically.
    """
    d = traj.grid.d
    m_t = traj.slice_index(t)
    out = np.zeros_like(x)
    budget = dict.fromkeys(("time_quadrature", "space_quadrature", "truncation",
                            "psi_cutoff"), 0.0)
    if m_t == 0:
        return out, budget
    pts_y, fluxes = traj.flux_history()
    hist = _collapsed_history(traj, m_t, opts)
    cell = traj.grid.spacing**d

    n_probe = min(_PROBE, x.shape[0])
    coarse_s = np.zeros((n_probe, d))
    sub = np.zeros((n_probe, d))
    stride_mask = np.zeros(pts_y.shape[0], dtype=bool)
    side = round(pts_y.shape[0] ** (1.0 / d))
    stride_idx = np.arange(pts_y.shape[0]).reshape((side,) * d)
    stride_mask[stride_idx[(slice(None, None, 2),) * d].ravel()] = True
    psi_mass = 0.0

    for c0 in range(0, x.shape[0], _CHUNK):
        xs = x[c0:c0 + _CHUNK]
        z = xs[:, None, :] - pts_y[None, :, :]
        r2 = np.sum(z * z, axis=-1)
        pairs, core = _pair_values(z, r2, t, hist.q4, hist.nodes4, fluxes)
        out[c0:c0 + xs.shape[0]] = _components(cell * pairs.sum(axis=-1))
        # a dropped (pair, node) entry has tau <= |z|^2 / c^2: its Psi part is
        # at most psi_gradient_bound(1, 1/c^2) |z|^-(d+1) times the node flux
        psi_mass = max(psi_mass, float(
            (np.where(core, np.inf, r2) ** (-(d + 1) / 2.0) @ hist.flux_mass).max()))
        n_p = max(0, min(n_probe - c0, xs.shape[0]))
        if n_p:
            coarse, _ = _pair_values(z[:n_p], r2[:n_p], t, hist.q2, hist.nodes2, fluxes)
            coarse_s[c0:c0 + n_p] = _components(cell * coarse.sum(axis=-1))
            sub[c0:c0 + n_p] = _components(
                (cell * 2**d) * pairs[:n_p][..., stride_mask].sum(axis=-1))

    c_dec = traj.decay_constant()
    tail = (c_dec**2 * (1.0 + traj.grid.length / 2.0) ** (-2 * d) * 2.0
            * _unit_gradient_l1(d) * math.sqrt(t))
    budget.update({
        "time_quadrature": 2.0 * float(
            np.max(np.linalg.norm(out[:n_probe] - coarse_s, axis=-1), initial=0.0)),
        "space_quadrature": 2.0 * float(
            np.max(np.linalg.norm(out[:n_probe] - sub, axis=-1), initial=0.0)),
        "truncation": float(tail),
        "psi_cutoff": (kernels.psi_gradient_bound(1.0, FAR_CUTOFF**-2, d)
                       * cell * psi_mass if psi_mass else 0.0),
    })
    return out, budget


def farfield_velocity(traj: Trajectory, a: InitialData, f: ForceModel, x, t: float,
                      opts: SolverOptions = SolverOptions()):
    """Velocity at arbitrary points from the closed-form Duhamel terms.

    Returns (values (..., d), error_budget).  The bilinear term of every
    point, inside |x| < L/2 as well, is the gradient-kernel quadrature of
    ``_bilinear_point``; its four budget entries carry the ``bilinear_``
    prefix.
    """
    d = traj.grid.d
    pts, single, lead = _require_points(x, d)
    t = float(t)
    lin_vals, lin_err = _linear_point(f, pts, t, opts, slices_hint=traj.times.size - 1)
    bil, b_budget = _bilinear_point(traj, pts, t, opts)
    budget = {"heat": 0.0, "linear_quadrature": lin_err}   # the heat term is exact
    budget.update({f"bilinear_{k}": v for k, v in b_budget.items()})
    total = a.value(pts, t) + lin_vals - bil
    out = total.reshape(lead + (d,)) if not single else total[0]
    return out, budget


# ---------------------------------------------------------------------------
# public op wrappers (grid | point mode)
# ---------------------------------------------------------------------------


def linear_response(f: ForceModel, t: float, *, grid: BoxGrid | None = None,
                    x=None, slices: int = 64,
                    opts: SolverOptions = SolverOptions()):
    """L(f) at time t: on a grid (mean-free VectorFieldGrid) or at points x."""
    if (grid is None) == (x is None):
        raise ValueError("pass exactly one of grid= or x=")
    if t < 0:
        raise ValueError("time must be >= 0")
    if grid is not None:
        ops = _SpectralOps(grid)
        times = np.linspace(0.0, t, slices + 1) if t > 0 else np.array([0.0])
        series = _linear_series(ops, f, times, opts)
        return VectorFieldGrid(grid, series[-1], time=t)
    pts, single, lead = _require_points(x, f.d)
    vals, err = _linear_point(f, pts, t, opts, slices_hint=slices)
    out = vals.reshape(lead + (f.d,)) if not single else vals[0]
    return out, err


def bilinear_term(traj: Trajectory, t: float, *, x=None,
                  opts: SolverOptions = SolverOptions()):
    """B(u,u)(t) from the trajectory history: the grid field, or (values,
    error_budget) at points x."""
    if t > traj.horizon + 1e-12:
        raise ValueError("time beyond the trajectory horizon")
    if x is None:
        ops = _SpectralOps(traj.grid)
        m_t = traj.slice_index(t)
        series = _bilinear_series(ops, traj.snapshots, traj.drift,
                                  traj.times[: m_t + 1], opts)
        return VectorFieldGrid(traj.grid, series[-1], time=t)
    pts, single, lead = _require_points(x, traj.grid.d)
    vals, budget = _bilinear_point(traj, pts, t, opts)
    out = vals.reshape(lead + (traj.grid.d,)) if not single else vals[0]
    return out, budget


def scenario_digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:16]
