"""External forces and initial data with closed-form integrals and moments.

A separable force is a sum of terms c * rho(x) * tau(t) with

* ``rho``  a radial Gaussian bump, possibly shifted off the origin,
* ``tau``  a compactly supported time profile (smooth quartic bump or an
           indicator window),
* ``c``    a constant amplitude vector.

Terms expose exact values of the space integral of rho, its first moment,
and the running time integral of tau, which drive the far-field profiles.
Assumption validation measures decay/integrability constants by lattice
quadrature over the support, one pass per direction of the vector of time
profile values (the time factors enter as scalars), and reports them next to
the target bound.

Initial data is either zero or a compactly supported divergence-free bump
built in curl form (perp-gradient of a Gaussian stream bump in d=2, curl of
a Gaussian vector potential in d=3), so its decay metadata is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import BoxGrid, VectorFieldGrid

__all__ = [
    "GaussianBump",
    "SmoothBump",
    "Indicator",
    "SeparableTerm",
    "ForceModel",
    "AssumptionReport",
    "InitialData",
    "validate_assumptions",
    "force_integral",
    "first_moment",
    "build_initial_data",
]

# radius (in widths) at which a unit Gaussian drops below 1e-12
_GAUSS_CUT = math.sqrt(math.log(1e12))
# the admission lattice of validate_assumptions: midpoints per axis (d = 2)
# and midpoint times over the force's support
_LATTICE_POINTS = 128
_TIME_SAMPLES = 129


@dataclass(frozen=True)
class GaussianBump:
    """rho(x) = exp(-|x - center|^2 / width^2)."""

    d: int
    width: float = 1.0
    center: tuple = None

    def __post_init__(self):
        if not (self.width > 0 and math.isfinite(self.width)):
            raise ValueError(f"bump width must be positive and finite, got {self.width}")
        c = np.zeros(self.d) if self.center is None else np.asarray(self.center, dtype=float)
        if c.shape != (self.d,):
            raise ValueError(f"center must be a {self.d}-vector")
        object.__setattr__(self, "center", tuple(float(v) for v in c))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        z = x - np.asarray(self.center)
        return np.exp(-np.sum(z * z, axis=-1) / self.width**2)

    def integral(self) -> float:
        return (self.width * math.sqrt(math.pi)) ** self.d

    def first_moment(self) -> np.ndarray:
        return np.asarray(self.center) * self.integral()

    def support_radius(self) -> float:
        return float(np.linalg.norm(self.center)) + _GAUSS_CUT * self.width

    def heat_evolved(self, s: float):
        """Amplitude and width of exp(s*Laplacian) rho, still a shifted Gaussian."""
        w2 = self.width**2 + 4.0 * s
        amp = (self.width**2 / w2) ** (self.d / 2.0)
        return amp, math.sqrt(w2)


@dataclass(frozen=True)
class SmoothBump:
    """Quartic bump on [t_on, t_off]: tau = 30 s^2 (1-s)^2 with s the local phase.

    Normalized so the full time integral equals t_off - t_on.
    """

    t_on: float = 0.0
    t_off: float = 1.0

    def __post_init__(self):
        if not (0 <= self.t_on < self.t_off):
            raise ValueError("need 0 <= t_on < t_off")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        s = (t - self.t_on) / (self.t_off - self.t_on)
        inside = (s >= 0) & (s <= 1)
        s = np.clip(s, 0.0, 1.0)
        return np.where(inside, 30.0 * s**2 * (1.0 - s) ** 2, 0.0)

    def integral_to(self, t) -> float:
        span = self.t_off - self.t_on
        s = np.clip((np.asarray(t, dtype=float) - self.t_on) / span, 0.0, 1.0)
        anti = 10.0 * s**3 - 15.0 * s**4 + 6.0 * s**5
        return float(span * anti) if np.ndim(t) == 0 else span * anti

    @property
    def support_end(self) -> float:
        return self.t_off


@dataclass(frozen=True)
class Indicator:
    """tau = 1 on [t_on, t_off), 0 elsewhere."""

    t_on: float = 0.0
    t_off: float = 1.0

    def __post_init__(self):
        if not (0 <= self.t_on < self.t_off):
            raise ValueError("need 0 <= t_on < t_off")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= self.t_on) & (t < self.t_off), 1.0, 0.0)

    def integral_to(self, t):
        t = np.asarray(t, dtype=float)
        out = np.clip(t, self.t_on, self.t_off) - self.t_on
        return float(out) if np.ndim(t) == 0 else out

    @property
    def support_end(self) -> float:
        return self.t_off


@dataclass(frozen=True)
class SeparableTerm:
    profile: object
    time_profile: object
    amplitude: tuple

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=float)
        if amp.shape != (self.profile.d,):
            raise ValueError("amplitude must be a d-vector")
        object.__setattr__(self, "amplitude", tuple(float(v) for v in amp))


class ForceModel:
    """External force: a sum of separable terms."""

    def __init__(self, d: int, terms: list):
        if d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {d!r}")
        for term in terms:
            if term.profile.d != d:
                raise ValueError("term dimension mismatch")
        self.d = d
        self.terms = list(terms)

    @classmethod
    def zero(cls, d: int) -> "ForceModel":
        return cls(d, terms=[])

    def support_radius(self) -> float:
        return max((t.profile.support_radius() for t in self.terms), default=0.0)

    def support_end(self) -> float:
        return max((t.time_profile.support_end for t in self.terms), default=0.0)


def force_integral(f: ForceModel, t: float) -> np.ndarray:
    """Running space-time integral of the force up to time t (a d-vector).

    Exact; zero at t = 0 and constant once every time profile has switched off.
    """
    if t < 0:
        raise ValueError("time must be >= 0")
    out = np.zeros(f.d)
    for term in f.terms:
        out += np.asarray(term.amplitude) * term.profile.integral() * term.time_profile.integral_to(t)
    return out


def first_moment(f: ForceModel, t: float) -> np.ndarray:
    """Running first space moment: the d x d matrix with entries
    integral of y_h f_k(y, s) over space and s in [0, t]."""
    if t < 0:
        raise ValueError("time must be >= 0")
    out = np.zeros((f.d, f.d))
    for term in f.terms:
        out += np.outer(term.profile.first_moment(), term.amplitude) * term.time_profile.integral_to(t)
    return out


@dataclass
class AssumptionReport:
    """Measured constants for the standing force assumptions.

    * epsilon_f1: sup |f| / min((1+|x|)^(-d-2), (1+t)^(-(d+2)/2))
    * l1_norm:    space-time L1 norm of |f|
    * c_f3:       sup over t of (1+t)^(1/2) * L1 norm of |x| f(., t)
    * target:     the bound the f1/f2 constants are compared against

    Vector amplitudes enter through the Euclidean norm of f(x, t).
    """

    epsilon_f1: float
    l1_norm: float
    c_f3: float
    target: float
    pass_f1: bool = field(init=False)
    pass_f2: bool = field(init=False)
    pass_f3: bool = field(init=False)

    def __post_init__(self):
        if min(self.epsilon_f1, self.l1_norm, self.c_f3) < 0:
            raise ValueError("measured constants must be nonnegative")
        self.pass_f1 = self.epsilon_f1 <= self.target
        self.pass_f2 = self.l1_norm <= self.target
        self.pass_f3 = math.isfinite(self.c_f3)

    @property
    def all_pass(self) -> bool:
        return self.pass_f1 and self.pass_f2 and self.pass_f3

    def combined(self) -> float:
        return self.epsilon_f1 + self.l1_norm


def validate_assumptions(f: ForceModel, epsilon: float) -> AssumptionReport:
    """Measure the force-assumption constants by quadrature over the support.

    Summing the terms that share a time profile into one lattice field F_g
    gives f(x, t) = sum_g tau_g(t) F_g(x).  With n = |tau(t)| and
    u = tau(t)/n, |f(x, t)| = n(t) |sum_g u_g F_g(x)|: the time samples with
    one direction u share one spatial magnitude, scaled by n.  So the lattice
    is passed once per distinct direction (at most twice when all terms share
    one profile), and each constant is that pass's maximum or sum times a
    scalar time factor, exactly up to the order of rounding.

    The lattice has ``_LATTICE_POINTS`` midpoints per axis over the support
    square in d = 2 (a third of that, at least 48, in d = 3), and the time
    rule ``_TIME_SAMPLES`` midpoints.  Passing means the measured f1/f2
    constants are at most ``epsilon`` and the f3 constant is finite.
    """
    if not f.terms:
        return AssumptionReport(0.0, 0.0, 0.0, target=epsilon)

    r = max(f.support_radius(), 1.0)
    n = _LATTICE_POINTS if f.d == 2 else max(48, _LATTICE_POINTS // 3)
    ax = np.linspace(-r, r, n, endpoint=False) + r / n
    pts = np.stack(np.meshgrid(*([ax] * f.d), indexing="ij"), axis=-1)
    cell = (2.0 * r / n) ** f.d
    radii = np.linalg.norm(pts, axis=-1)
    t_end = max(f.support_end(), 1e-6)
    # midpoint rule in time: robust to indicator-profile jumps at the window ends
    dt = t_end / _TIME_SAMPLES
    times = (np.arange(_TIME_SAMPLES) + 0.5) * dt

    # the spatial profiles do not depend on time: evaluate each once, into the
    # field of its term's time profile
    profiles = list(dict.fromkeys(term.time_profile for term in f.terms))
    fields = np.zeros((len(profiles),) + pts.shape)
    for term in f.terms:
        fields[profiles.index(term.time_profile)] += (
            term.profile.value(pts)[..., None] * np.asarray(term.amplitude))
    tau = np.stack([profile.value(times) for profile in profiles], axis=-1)
    scale = np.linalg.norm(tau, axis=-1)
    live = scale > 0
    times, scale = times[live], scale[live]
    directions, group = np.unique(tau[live] / scale[:, None], axis=0, return_inverse=True)
    group = group.reshape(-1)

    space_weight = (1.0 + radii) ** (f.d + 2)
    time_weight = (1.0 + times) ** ((f.d + 2) / 2.0)
    eps_f1 = 0.0
    l1 = 0.0
    f3 = 0.0
    for k, u in enumerate(directions):
        mag = np.linalg.norm(np.tensordot(u, fields, axes=1), axis=-1)
        at = group == k
        n = scale[at]
        # 1 / min((1+|x|)^{-d-2}, (1+t)^{-(d+2)/2}) = max of the two blow-ups
        blowup = np.maximum(float((mag * space_weight).max()),
                            time_weight[at] * float(mag.max()))
        eps_f1 = max(eps_f1, float((n * blowup).max()))
        l1 += float(mag.sum()) * cell * float(n.sum()) * dt
        f3 = max(f3, float(((1.0 + times[at]) ** 0.5 * n).max())
                 * float((radii * mag).sum()) * cell)
    return AssumptionReport(eps_f1, l1, f3, target=epsilon)


class InitialData:
    """Initial velocity: zero, or a compactly supported divergence-free bump.

    The curl-form bump is amplitude * perp-grad of exp(-|x|^2/w^2) in d=2 and
    amplitude * curl(psi e_3) in d=3; both are divergence-free with zero mean
    and Gaussian decay, and their heat evolution stays in closed form.
    """

    def __init__(self, d: int, kind: str = "zero", amplitude: float = 0.0,
                 width: float = 1.0):
        if d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {d!r}")
        if kind not in ("zero", "curl_bump"):
            raise ValueError(f"unknown initial data kind {kind!r}")
        if kind == "curl_bump":
            if not (width > 0 and math.isfinite(width)):
                raise ValueError("curl bump width must be positive and finite")
            if not math.isfinite(amplitude):
                raise ValueError("curl bump amplitude must be finite")
        self.d = d
        self.kind = kind
        self.amplitude = float(amplitude)
        self.width = float(width)
        if kind == "zero" or amplitude == 0.0:
            self.l1_norm = 0.0
            self.sup_weighted = 0.0
        else:
            self.l1_norm = self._exact_l1()
            self.sup_weighted = self._measure_sup_weighted()

    def _exact_l1(self) -> float:
        a, w = abs(self.amplitude), self.width
        if self.d == 2:
            return a * math.pi**1.5 * w
        return a * math.pi**2 * w**2

    def _measure_sup_weighted(self) -> float:
        # sup over r of (1 + |x|)^d |a(x)|; the bump is radial
        r = np.linspace(0.0, self.width * _GAUSS_CUT, 20001)
        mag = 2.0 * abs(self.amplitude) * r / self.width**2 * np.exp(-(r / self.width) ** 2)
        return float(((1.0 + r) ** self.d * mag).max())

    def value(self, x, t: float = 0.0):
        """The datum (t = 0) or its heat evolution at time t >= 0, in closed form."""
        x = np.asarray(x, dtype=float)
        if self.kind == "zero" or self.amplitude == 0.0:
            return np.zeros(x.shape)
        if t < 0:
            raise ValueError("time must be >= 0")
        w2 = self.width**2 + 4.0 * t
        amp = self.amplitude * (self.width**2 / w2) ** (self.d / 2.0)
        g = np.exp(-np.sum(x * x, axis=-1) / w2)
        out = np.zeros(x.shape)
        # perp-gradient / curl of the stream bump
        out[..., 0] = 2.0 * x[..., 1] / w2 * g * amp
        out[..., 1] = -2.0 * x[..., 0] / w2 * g * amp
        return out

    def to_field(self, grid: BoxGrid) -> VectorFieldGrid:
        return VectorFieldGrid.from_callable(grid, lambda x: self.value(x, 0.0))


def build_initial_data(d: int, kind: str = "zero", amplitude: float = 0.0,
                       width: float = 1.0) -> InitialData:
    """Construct initial data from a bump description (or zero)."""
    return InitialData(d, kind=kind, amplitude=amplitude, width=width)
