"""Free-space convolution kernels of the heat-Stokes semigroup.

Everything here is exact (closed form) and dimension-generic for d in {2, 3}:

* ``heat_kernel``        -- the Gaussian g_t(x) = (4*pi*t)^(-d/2) exp(-|x|^2/(4t)).
* ``oseen_kernel``       -- K(x,t), the matrix kernel of heat flow composed with
                            the Leray projection onto divergence-free fields.
* ``oseen_grad_contract`` -- F(x,t) : s with F[j,k,l] = d/dx_l K[j,k], the
                            kernel that contracts against u (x) u in the bilinear
                            Duhamel term, without building F.
* ``leading_tensor``     -- the Hessian of the fundamental solution of the
                            Laplacian, homogeneous of degree -d; the t-independent
                            far-field limit of K.
* ``psi_residual``       -- the Gaussian-decaying self-similar correction Psi with
                            K(x,t) = leading_tensor(x) + |x|^(-d) Psi(x/sqrt(t)).

The radial structure used throughout: for a radial density q(r) = A exp(-r^2/a^2)
with cumulative mass M(r), the divergence-free projection of the constant-vector
field c*q is

    P(c q)(x) = (q(r) - H(r)) c + (d H(r) - q(r)) (xh.c) xh,

where xh = x/r and H(r) = M(r) / (sigma_{d-1} r^d) is the mean density inside
radius r divided by d.  The Oseen kernel is the special case q = g_t (columns
c = e_k).  Both H and d*H - q have removable singularities at r = 0, handled by
series expansion below ``_SERIES_CUT``.

In d = 2 the three gradient contractions (``oseen_grad_contract``,
``psi_grad_contract``, ``grad_leading_contract``) also take the flux in
complex form.  Every gradient kernel here annihilates the identity, since
grad L : I = F : I = 0 (K is divergence-free), so only the traceless part of a
symmetric flux Q counts; it is the complex number

    sigma = (Q_11 - Q_22)/2 + i Q_12,    Q = [[Re s, Im s], [Im s, -Re s]] + tr(Q)/2 I,

and for u (x) u it is (u_0 + i u_1)^2 / 2.  With w = z_0 + i z_1 each pair is
one complex product, returned as o_0 + i o_1: the leading part is
-(2/pi) conj(sigma / w^3), the Cauchy-type form of Greengard & Rokhlin,
J. Comput. Phys. 73 (1987), and a radial form with coefficients P, W is
-(P/2) sigma conj(w) + ((P + 4W)/2) conj(sigma) w^3 / r^2.

``scipy.special`` is imported only by the d = 3 branches: no d = 2 path
calls erfc, gamma or gammainc.

The checks' constants come from the same radial coefficients, with no
sampled direction and no rank-3 tensor.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "SPHERE_AREA",
    "heat_kernel",
    "oseen_kernel",
    "oseen_grad_contract",
    "leading_tensor",
    "grad_leading_contract",
    "psi_grad_contract",
    "psi_gradient_bound",
    "psi_residual",
    "profile_field",
    "next_order_profile",
    "sphere_min",
    "sphere_points",
    "projected_gaussian",
    "oseen_frobenius_radial",
    "oseen_l1_gradient_norm",
    "envelope_constant",
    "grad_envelope_constant",
    "gauss_panels",
]

# Surface area of the unit sphere S^{d-1}; index by dimension d.
SPHERE_AREA = {2: 2.0 * math.pi, 3: 4.0 * math.pi}

# Switch to series evaluation of the radial profiles when u = (r/a)^2 < 1e-3.
# Above the cut H (expm1 in d = 2, incomplete gamma in d = 3) and d*H - q in
# d = 3 (incomplete gamma) are free of cancellation, good to ~2e-15 relative;
# d*H - q = 2H - exp(-u) in d = 2 loses ~|log10 u| digits as u -> 0, ~1e-13
# relative just above the cut.
_SERIES_CUT = 1.0e-3
_SERIES_TERMS = 10
# Log-spaced radial panels of the L1 gradient-norm quadrature.
_L1_PANELS = 240


def _check_dim(d: int) -> int:
    if d not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {d!r}")
    return d


def _check_time(t):
    """``t`` as a float, or as a float array when it is one; every entry > 0."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError(f"time must be > 0, got {t.min()!r}")
    return float(t) if t.ndim == 0 else t


def _as_points(x, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != d:
        raise ValueError(f"points must have last axis of size {d}, got shape {x.shape}")
    return x


def heat_kernel(x, t: float, d: int):
    """Gaussian heat kernel (4*pi*t)^(-d/2) exp(-|x|^2 / (4t)).

    ``x`` may be a single point or an array of points with last axis d.
    Raises ValueError for t <= 0.
    """
    d = _check_dim(d)
    t = _check_time(t)
    x = _as_points(x, d)
    r2 = np.sum(x * x, axis=-1)
    return (4.0 * math.pi * t) ** (-d / 2.0) * np.exp(-r2 / (4.0 * t))


def _by_series(u, series, closed) -> np.ndarray:
    """``series(u)`` on the entries of ``u`` below ``_SERIES_CUT``, where the
    closed forms cancel, and ``closed(u)`` on the rest."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    small = u < _SERIES_CUT
    if np.any(small):
        out[small] = series(u[small])
    big = ~small
    if np.any(big):
        out[big] = closed(u[big])
    return out


def _mass_fraction_series(us: np.ndarray, d: int) -> np.ndarray:
    """H(r)/A by its Taylor series in u, for u below _SERIES_CUT."""
    acc = np.zeros_like(us)
    for m in range(_SERIES_TERMS - 1, -1, -1):
        if d == 2:
            b_m = 0.5 / math.factorial(m + 1)
        else:
            b_m = 1.0 / (math.factorial(m) * (2 * m + 3))
        acc = acc * (-us) + b_m
    return acc


def _mass_fraction_closed(ub: np.ndarray, d: int) -> np.ndarray:
    """H(r)/A in closed form, for u at or above _SERIES_CUT."""
    if d == 2:
        return -np.expm1(-ub) / (2.0 * ub)
    from scipy.special import gamma, gammainc

    # H/A = lower_gamma(3/2, u) / (2 u^(3/2)), with no cancellation
    return gamma(1.5) * gammainc(1.5, ub) / (2.0 * ub**1.5)


def _mass_fraction_over_u(u: np.ndarray, d: int) -> np.ndarray:
    """H(r)/A for the unit-amplitude Gaussian exp(-r^2/a^2), as a function of u=(r/a)^2.

    H(r) = M(r)/(sigma_{d-1} r^d) where M is the mass inside radius r.
    Smooth at u = 0 with value 1/d; series branch below _SERIES_CUT.
    """
    return _by_series(u, lambda us: _mass_fraction_series(us, d),
                      lambda ub: _mass_fraction_closed(ub, d))


def _defect_series_over_u(us: np.ndarray, d: int) -> np.ndarray:
    """(d*H(r) - q(r))/(A u) by its Taylor series in u, for u below _SERIES_CUT."""
    acc = np.zeros_like(us)
    for m in range(_SERIES_TERMS, 0, -1):
        if d == 2:
            a_m = m / math.factorial(m + 1)
        else:
            a_m = 2.0 * m / (math.factorial(m) * (2 * m + 3))
        acc = acc * (-us) + a_m
    return acc


def _defect_closed(ub: np.ndarray, d: int) -> np.ndarray:
    """(d*H(r) - q(r))/A in closed form, for u at or above _SERIES_CUT."""
    if d == 2:
        return d * _mass_fraction_closed(ub, d) - np.exp(-ub)
    from scipy.special import gamma, gammainc

    # incomplete-gamma recurrence: d*H - q = lower_gamma(d/2+1, u) / u^(d/2)
    return gamma(d / 2 + 1) * gammainc(d / 2 + 1, ub) / ub ** (d / 2)


def _defect_over_u(u: np.ndarray, d: int) -> np.ndarray:
    """(d*H(r) - q(r))/A as a function of u = (r/a)^2; vanishes linearly at u=0."""
    return _by_series(u, lambda us: us * _defect_series_over_u(us, d),
                      lambda ub: _defect_closed(ub, d))


def _radial_profiles(x, amplitude, width, d: int):
    """r^2, q = A exp(-u), H and d*H - q at points ``x``, with u = r^2 / w^2."""
    r2 = np.sum(x * x, axis=-1)
    u = r2 / (width * width)
    return (r2, amplitude * np.exp(-u), amplitude * _mass_fraction_over_u(u, d),
            amplitude * _defect_over_u(u, d))


def projected_gaussian(x, amplitude: float, width: float, c, d: int):
    """Divergence-free projection of the vector field c * A exp(-|x|^2/w^2).

    Returns the field value at ``x`` (shape (..., d)).  This is the closed-form
    action of the Leray projector on a radial Gaussian times a constant vector;
    the Oseen kernel columns are the special case A = (4 pi t)^(-d/2), w = 2 sqrt(t).
    ``amplitude`` and ``width`` may be arrays that broadcast against the point
    shape ``x.shape[:-1]``, and ``c`` against ``x``: shape (k, 1) with points
    (n, d) or (k, n, d) gives (k, n, d).
    """
    d = _check_dim(d)
    x = _as_points(x, d)
    c = np.asarray(c, dtype=float)
    r2, q, h, defect = _radial_profiles(x, amplitude, width, d)
    # value = (q - H) c + defect * (xh.c) xh ; xh.c xh = (x.c) x / r^2
    xc = np.einsum("...j,...j->...", x, c)
    with np.errstate(invalid="ignore", divide="ignore"):
        radial = np.where(r2 > 0.0, xc / r2, 0.0)
    return (q - h)[..., None] * c + (defect * radial)[..., None] * x


def oseen_kernel(x, t: float, d: int):
    """Matrix kernel K(x,t) of the heat semigroup composed with the Leray projector.

    K[j,k](x,t) = (g - H) delta_jk + (d H - g) xh_j xh_k with g the heat kernel
    and H the mean of g inside radius |x| divided by d.  Shape (..., d, d).
    Symmetric, trace (d-1) g_t(x), and K(x,t) = t^(-d/2) K(x/sqrt(t), 1).
    """
    d = _check_dim(d)
    t = _check_time(t)
    x = _as_points(x, d)
    amplitude = (4.0 * math.pi * t) ** (-d / 2.0)
    r2, q, h, defect = _radial_profiles(x, amplitude, 2.0 * math.sqrt(t), d)
    eye = np.eye(d)
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_r2 = np.where(r2 > 0.0, 1.0 / r2, 0.0)
    xx = x[..., :, None] * x[..., None, :]
    return (q - h)[..., None, None] * eye + (defect * inv_r2)[..., None, None] * xx


def _grad_pw(x, t: float, d: int):
    """Radial coefficients P = g/(2t) and W = (g - d*H)/r^2 for the K gradient."""
    amplitude = (4.0 * math.pi * t) ** (-d / 2.0)
    width2 = 4.0 * t
    r2 = np.sum(x * x, axis=-1)
    u = np.asarray(r2 / width2)
    q = amplitude * np.exp(-u)
    p = q / (2.0 * t)
    # W = -(d*H - q)/r^2 = -A (defect(u)/u) / w^2, the ratio by its series below the cut
    ratio = _by_series(u, lambda us: _defect_series_over_u(us, d),
                       lambda ub: _defect_closed(ub, d) / ub)
    w = -amplitude * ratio / width2
    return p, w


def oseen_grad_contract(z, t, d: int, s):
    """Contract the gradient kernel with a symmetric matrix field:
    out_j = sum_{k,l} F[j,k,l](z, t) s[k,l], without materializing F.

    ``z`` has shape (..., d) and ``s`` (..., d, d) (matching leading axes or
    broadcastable).  Using the radial coefficients P, W of the gradient kernel,

        out = -(P + 2W) (s z) - W tr(s) z + (P + (d+2) W) (z.s z) z / r^2.

    In d = 2 ``s`` may instead be the complex traceless flux sigma, shape
    (...), and the value is o_0 + i o_1 (see the module docstring).  ``t`` is
    a time or an array of times that broadcasts against ``z.shape[:-1]``.
    The value at z = 0 is 0.
    """
    d = _check_dim(d)
    t = _check_time(t)
    z = _as_points(z, d)
    s = _as_flux(s)
    p, w = _grad_pw(z, t, d)
    r2 = np.sum(z * z, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_r2 = np.where(r2 > 0.0, 1.0 / np.where(r2 > 0, r2, 1.0), 0.0)
    return _radial_contract(z, s, p, w, inv_r2, d)


def _as_flux(s):
    """``s`` as a real (..., d, d) flux, or as the complex sigma of d = 2."""
    s = np.asarray(s)
    return s.astype(complex if np.iscomplexobj(s) else float, copy=False)


def _complex_points(z):
    """z_0 + i z_1 for points z of shape (..., 2): a view of a contiguous z."""
    return np.ascontiguousarray(z).view(complex)[..., 0]


def _radial_contract(z, s, p, w, inv_r2, d: int):
    """-(P + 2W) (s z) - W tr(s) z + (P + (d+2) W) (z.s z) z / r^2.

    For the complex sigma of d = 2: -(P/2) sigma conj(w) + ((P + 4W)/2)
    conj(sigma) w^3 / r^2 with w = z_0 + i z_1; the W tr(s) z term drops
    with the trace.
    """
    if np.iscomplexobj(s):
        zc = _complex_points(z)
        return 0.5 * ((p + 4.0 * w) * inv_r2 * np.conj(s) * (zc * zc * zc)
                      - p * s * np.conj(zc))
    sz = np.einsum("...kl,...l->...k", s, z)
    zsz = np.einsum("...k,...k->...", z, sz)
    tr = np.trace(s, axis1=-2, axis2=-1)
    out = -(p + 2.0 * w)[..., None] * sz
    out -= (w * tr)[..., None] * z
    out += ((p + (d + 2.0) * w) * zsz * inv_r2)[..., None] * z
    return out


def leading_tensor(x, d: int):
    """Hessian of the fundamental solution of the Laplacian, degree -d homogeneous.

    Entry (j,k) equals (-delta_jk |x|^2 + d x_j x_k) / (sigma_{d-1} |x|^{d+2}).
    Symmetric with exactly zero trace.  Raises ValueError at x = 0.
    """
    d = _check_dim(d)
    x = _as_points(x, d)
    r2 = np.sum(x * x, axis=-1)
    if np.any(r2 == 0.0):
        raise ValueError("leading tensor is singular at x = 0")
    coeff = 1.0 / (SPHERE_AREA[d] * r2 ** (d / 2.0 + 1.0))
    eye = np.eye(d)
    xx = x[..., :, None] * x[..., None, :]
    out = coeff[..., None, None] * (d * xx - r2[..., None, None] * eye)
    # close the diagonal so the trace is exactly zero in floating point
    idx = np.arange(d)
    diag = out[..., idx, idx]
    out[..., d - 1, d - 1] = -np.sum(diag[..., : d - 1], axis=-1)
    return out


def grad_leading_contract(z, d: int, s):
    """Contract the leading-tensor gradient with a symmetric matrix field:
    out_j = sum_{k,h} G[j,k,h](z) s[k,h] with G[j,k,h] = d/dz_h
    leading_tensor[j,k], without materializing G.

    The t -> 0 limit of ``oseen_grad_contract``, free of exp/erf:

        out = d / (sigma_{d-1} r^(d+2)) (2 s z + tr(s) z - (d+2) (z.s z) z / r^2).

    ``z`` has shape (..., d) and ``s`` (..., d, d).  In d = 2 ``s`` may be the
    complex sigma, shape (...); the value is then o_0 + i o_1 =
    -(2/pi) conj(sigma / w^3), w = z_0 + i z_1.  Raises ValueError at z = 0.
    """
    d = _check_dim(d)
    z = _as_points(z, d)
    s = _as_flux(s)
    if np.iscomplexobj(s):
        zc = _complex_points(z)
        if np.any(zc == 0.0):
            raise ValueError("gradient of the leading tensor is singular at z = 0")
        return (-2.0 / math.pi) * np.conj(s / (zc * zc * zc))
    r2 = np.sum(z * z, axis=-1)
    if np.any(r2 == 0.0):
        raise ValueError("gradient of the leading tensor is singular at z = 0")
    w = -d / (SPHERE_AREA[d] * r2 ** (d / 2.0 + 1.0))
    return _radial_contract(z, s, 0.0, w, 1.0 / r2, d)


def _psi_pw(r2, t: float, d: int):
    """Radial coefficients dP = g/(2t) and dW = (g + d T)/r^2 of F - G at |z|^2 = r2.

    F - G is the gradient of the dropped part |z|^-d Psi(z/sqrt(t)); g is the
    heat kernel and T the heat mass outside radius r over sigma_{d-1} r^d.
    Both coefficients are sums of positive terms: no cancellation, and in
    d = 2 a single exp.
    """
    u = r2 / (4.0 * t)
    e = np.exp(-u)
    g = (4.0 * math.pi * t) ** (-d / 2.0) * e
    if d == 2:
        tail = e
    else:
        from scipy.special import erfc

        tail = erfc(np.sqrt(u)) + 2.0 * np.sqrt(u / math.pi) * e
    return g / (2.0 * t), (g + d * tail / (SPHERE_AREA[d] * r2 ** (d / 2.0))) / r2


def psi_grad_contract(z, t: float, d: int, s):
    """Contract F - G with a symmetric matrix field: the value of
    ``oseen_grad_contract(z, t, d, s) - grad_leading_contract(z, d, s)``,
    computed without the cancellation of that difference.

    The Gaussian-local part of ``oseen_grad_contract``, in its radial form
    with the coefficients of ``_psi_pw``; it decays like exp(-|z|^2/(4t)).
    ``z`` has shape (..., d) and ``s`` (..., d, d), or in d = 2 the complex
    sigma, shape (...), for the value o_0 + i o_1.  Raises ValueError at
    z = 0.
    """
    d = _check_dim(d)
    t = _check_time(t)
    z = _as_points(z, d)
    s = _as_flux(s)
    r2 = np.sum(z * z, axis=-1)
    if np.any(r2 == 0.0):
        raise ValueError("gradient of the dropped part is singular at z = 0")
    dp, dw = _psi_pw(r2, t, d)
    return _radial_contract(z, s, dp, dw, 1.0 / r2, d)


def psi_gradient_bound(r: float, t: float, d: int) -> float:
    """Bound on |(F(z,tau) - G(z)) : s| / |s|_F over |z| >= r and 0 < tau <= t.

    In the radial form of ``psi_grad_contract`` both coefficients dP, dW are
    positive, so the contraction is at most r |s|_F (2 dP + (d + 4 + sqrt(d)) dW).
    Once r^2/(4t) >= d/2 + 1 this grows with tau and falls with r, so its
    value at (r, t) covers the whole range.  Raises ValueError below that
    radius.
    """
    d = _check_dim(d)
    t = _check_time(t)
    u = r * r / (4.0 * t)
    if u < d / 2.0 + 1.0:
        raise ValueError(f"bound needs r^2/(4t) >= {d / 2.0 + 1.0:g}, got {u:.3g}")
    dp, dw = _psi_pw(r * r, t, d)
    return float(r * (2.0 * dp + (d + 4.0 + math.sqrt(d)) * dw))


def psi_residual(xi, d: int):
    """Self-similar residual Psi(xi) = |xi|^d (K(xi, 1) - leading_tensor(xi)).

    For every t > 0, K(x,t) - leading_tensor(x) = |x|^(-d) Psi(x / sqrt(t)).
    Decays like exp(-|xi|^2/4) up to polynomial factors.
    """
    d = _check_dim(d)
    xi = _as_points(xi, d)
    r2 = np.sum(xi * xi, axis=-1)
    if np.any(r2 == 0.0):
        raise ValueError("psi residual is singular at xi = 0")
    diff = oseen_kernel(xi, 1.0, d) - leading_tensor(xi, d)
    return (r2 ** (d / 2.0))[..., None, None] * diff


def profile_field(x, c, d: int):
    """Homogeneous far-field profile m(x) = leading_tensor(x) @ c; degree -d."""
    m = leading_tensor(x, d)
    c = np.asarray(c, dtype=float)
    return np.einsum("...jk,k->...j", m, c)


def next_order_profile(x, m1, d: int):
    """Dipole-order profile with j-component sum_{h,k} d_h(leading_tensor)[j,k] m1[h,k].

    ``m1`` is a d x d matrix (in applications, the first space moment of the
    force integrated in time).  Homogeneous of degree -(d+1).  That gradient
    is fully symmetric (a third derivative of the fundamental solution), so
    this is ``grad_leading_contract`` of the symmetric part of ``m1``.
    """
    m1 = np.asarray(m1, dtype=float)
    if m1.shape != (d, d):
        raise ValueError(f"moment matrix must be {d}x{d}, got shape {m1.shape}")
    return grad_leading_contract(x, d, 0.5 * (m1 + m1.T))


def sphere_points(d: int, n: int) -> np.ndarray:
    """Quasi-uniform sample of ``n`` unit vectors: equispaced angles (d=2) or
    a Fibonacci lattice (d=3)."""
    d = _check_dim(d)
    n = int(n)
    if d == 2:
        theta = 2.0 * math.pi * np.arange(n) / n
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = 2.0 * math.pi * i / golden
    s = np.sqrt(1.0 - z * z)
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)


def sphere_min(c, d: int) -> float:
    """Minimum over unit vectors w of |leading_tensor(w) @ c|: |c| / sigma_{d-1}.

    (sigma_{d-1} |leading_tensor(w) c|)^2 = |c|^2 + d (d-2) (w.c)^2, so the minimum
    is attained at every w in d = 2 and on the great circle perpendicular to c
    in d = 3.  Zero iff c = 0.
    """
    d = _check_dim(d)
    return float(np.linalg.norm(np.asarray(c, dtype=float))) / SPHERE_AREA[d]


def oseen_frobenius_radial(r, t: float, d: int):
    """Frobenius norm of K(x,t) as a function of r = |x| (K is isotropic in law:
    eigenvalue (d-1)H along x, eigenvalue g-H with multiplicity d-1 across)."""
    d = _check_dim(d)
    t = _check_time(t)
    r = np.asarray(r, dtype=float)
    amplitude = (4.0 * math.pi * t) ** (-d / 2.0)
    u = r * r / (4.0 * t)
    q = amplitude * np.exp(-u)
    h = amplitude * _mass_fraction_over_u(u, d)
    return np.sqrt(((d - 1.0) * h) ** 2 + (d - 1.0) * (q - h) ** 2)


def _grad_frobenius_radial(r, t: float, d: int):
    """Frobenius norm of F(x,t) at |x| = r: r sqrt((d-1)((d+1) W^2 + (P+W)^2))
    with the radial coefficients P, W of ``_grad_pw`` (F is isotropic)."""
    p, w = _grad_pw(r[..., None], t, d)
    return r * np.sqrt((d - 1.0) * ((d + 1.0) * w * w + (p + w) ** 2))


def oseen_l1_gradient_norm(t: float, d: int) -> float:
    """L1 norm over space of the Frobenius norm of F(.,t); equals const/sqrt(t).

    Computed by log-graded Gauss-Legendre radial quadrature of
    sigma_{d-1} r^{d-1} |F(r,t)|_F between r = 1e-6 sqrt(t) and 40 sqrt(t).
    """
    d = _check_dim(d)
    t = _check_time(t)
    edges = np.sqrt(t) * np.logspace(-6, math.log10(40.0), _L1_PANELS + 1)
    r, weights = (a.ravel() for a in gauss_panels(edges[:-1], edges[1:], 8))
    vals = SPHERE_AREA[d] * r ** (d - 1) * _grad_frobenius_radial(r, t, d)
    return float(np.dot(weights, vals))


def gauss_panels(lo, hi, order: int):
    """Gauss-Legendre rule of ``order`` nodes mapped onto the panels [lo, hi].

    ``lo`` and ``hi`` are panel edges (scalars or arrays of one shape).
    Returns (nodes, weights), each of shape ``lo.shape + (order,)``: the
    nodes mid + half * xi and weights half * w of every panel, with
    mid = (hi + lo) / 2 and half = (hi - lo) / 2.  Exact for polynomials of
    degree 2 order - 1 on each panel.
    """
    xi, w = _legendre(order)
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * xi, half * w


@functools.lru_cache(maxsize=None)
def _legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: ``leggauss``
    costs about 0.2 ms, and the kernel-mass sweep maps one rule ~60 times."""
    xi, w = np.polynomial.legendre.leggauss(order)
    xi.flags.writeable = w.flags.writeable = False
    return xi, w


def _envelope(radial_norm, order: float, d: int, n_x: int, n_t: int) -> float:
    """Measured C with radial_norm(r, t, d) <= C min(r^-order, t^-order/2) on a
    log-spaced (r, t) grid; ``radial_norm`` is the Frobenius norm of an
    isotropic kernel at |x| = r."""
    d = _check_dim(d)
    radii = np.logspace(-2, 2, n_x)
    best = 0.0
    for t in np.logspace(-2, 2, n_t):
        bound = np.minimum(radii ** (-order), float(t) ** (-order / 2.0))
        best = max(best, float(np.max(radial_norm(radii, float(t), d) / bound)))
    return best


def envelope_constant(d: int, n_x: int = 10, n_t: int = 10) -> float:
    """Measured constant C with |K(x,t)|_F <= C min(|x|^-d, t^-d/2) on a log grid."""
    return _envelope(oseen_frobenius_radial, float(d), d, n_x, n_t)


def grad_envelope_constant(d: int, n_x: int = 10, n_t: int = 10) -> float:
    """Measured constant C with |F(x,t)|_F <= C min(|x|^-(d+1), t^-(d+1)/2)."""
    return _envelope(_grad_frobenius_radial, d + 1.0, d, n_x, n_t)
