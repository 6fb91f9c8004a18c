"""Measured verdicts for the far-field asymptotics of the solved flow.

Every check follows the same pattern: sample a quantity whose theory
predicts a power law, fit the exponent by least squares in log-log, and
report a pass/fail verdict at a stated tolerance together with the measured
constants.  Pipeline checks run against a solved trajectory through
``FlowAdapter``; synthetic oracles (exact self-similar fields, pure
profiles) run through ``SyntheticFlow`` and must hit much tighter
tolerances, separating discretization error from method error.

Checks implemented here:

* ``remainder_extract``      -- velocity minus (heat + leading profile) decays
                                one power faster, |R| <~ sqrt(t) |x|^(-d-1).
* ``pointwise_window_check`` -- |u(x,t)| |x|^d is pinched between positive
                                constants when the force integral is nonzero.
* ``weighted_norm_sweep``    -- || (1+|x|)^a u(t) ||_p decays like
                                t^(-(d - a - d/p)/2) in the convergent regime.
* ``divergence_detect``      -- the same norms are infinite outside that
                                regime: truncated-norm octave increments fail
                                the Cauchy test.
* ``lemlog_check``           -- the space-time kernel mass over |y| <= |x|,
                                t G(|x|/sqrt(t)) by self-similarity, grows at
                                most like t log(|x|/sqrt(t)).
* ``next_order_check``       -- for mean-zero forces the leading profile
                                vanishes and the dipole-order profile with the
                                first force moment takes over at |x|^(-d-1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .config import norm_regime
from .forcing import ForceModel, InitialData, first_moment, force_integral
from .grid import VectorFieldGrid, restrict_annulus_norm
from .solver import SolverOptions, Trajectory, farfield_velocity

__all__ = [
    "FitReport",
    "ProfilePrediction",
    "FlowAdapter",
    "SyntheticFlow",
    "RegimeError",
    "HypothesisError",
    "ValidityRegionError",
    "SPHERE_DIRECTIONS",
    "fit_power_law",
    "profile_predict",
    "sphere_velocities",
    "remainder_extract",
    "pointwise_window_check",
    "weighted_norm_sweep",
    "divergence_detect",
    "kernel_spacetime_mass",
    "lemlog_check",
    "next_order_check",
    "write_csv",
    "write_json",
]

# Directions per sphere |x| = r: 16 for the remainder fit (which also gives
# the profile check's sup |u|), the window check's default and the divergence
# increments; 8 for the next-order fit; 12 for the far-field weighted-norm
# quadrature.
SPHERE_DIRECTIONS = 16
_FIT_DIRECTIONS = 8
_NORM_DIRECTIONS = 12
_SLOPE_SLACK = 0.25            # decay fits pass up to exponent -(d+1) + slack
_WINDOW_RATIO_LIMIT = 5.0      # window pinch: max/min of |u| |x|^d
_SHORT_TIME_RATIO_LIMIT = 2.0  # short-time pinch: max upper/t over min lower/t
_LEMLOG_VARIATION_LIMIT = 2.0  # spread of the kernel-mass ratio over a sweep
_MASS_R_LO, _MASS_R_MAX = 0.1, 40.0  # kernel mass: radial GL8 panels, geometric
_MASS_RATIO, _MASS_FINE_RATIO = 1.25, 1.1  # at this ratio; finer for refinement_shift
_RADIAL_R_MAX = 1e6            # RadialNorms: outer radius and log-spaced panels
_RADIAL_PANELS = 160


class RegimeError(ValueError):
    """The (alpha, p) pair belongs to the other decay/divergence regime."""


class HypothesisError(ValueError):
    """A hypothesis of the statement under test is violated by the scenario."""


class ValidityRegionError(ValueError):
    """Samples fall outside the validity region |x| >= e sqrt(t)."""


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@dataclass
class FitReport:
    """A fitted power-law exponent with its verdict against a prediction."""

    quantity: str
    abscissa: np.ndarray
    values: np.ndarray
    fitted_exponent: float
    predicted_exponent: float | None
    residual: float
    tolerance: float
    passed: bool
    spans_decade: bool
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.abscissa) < 5:
            raise ValueError("fit window must contain at least 5 points")
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")


def fit_power_law(abscissa, values, quantity: str = "",
                  predicted_exponent: float | None = None,
                  tolerance: float = 0.15) -> FitReport:
    """Least-squares power-law fit in log-log coordinates.

    The verdict compares the fitted exponent with the prediction at the given
    tolerance; without a prediction the verdict is just finiteness of the fit.
    """
    a = np.asarray(abscissa, dtype=float)
    v = np.asarray(values, dtype=float)
    if a.size < 5:
        raise ValueError("need at least 5 samples for a power-law fit")
    if np.any(v <= 0) or np.any(a <= 0):
        raise ValueError("power-law fit needs positive samples")
    la, lv = np.log(a), np.log(v)
    slope, intercept = np.polyfit(la, lv, 1)
    resid = np.max(np.abs(lv - (slope * la + intercept)))
    if predicted_exponent is None:
        passed = math.isfinite(slope)
    else:
        passed = abs(slope - predicted_exponent) <= tolerance
    return FitReport(
        quantity=quantity,
        abscissa=a,
        values=v,
        fitted_exponent=float(slope),
        predicted_exponent=predicted_exponent,
        residual=float(resid),
        tolerance=tolerance,
        passed=bool(passed),
        spans_decade=bool(a.max() / a.min() >= 10.0),
        extras={"intercept": float(intercept)},
    )


# ---------------------------------------------------------------------------
# flow sources
# ---------------------------------------------------------------------------


class FlowAdapter:
    """Far-field view of a solved trajectory plus its datum and force.

    ``velocity`` returns the values of ``farfield_velocity`` and drops its
    error budget unread, so the budget is never built on this path.
    """

    def __init__(self, traj: Trajectory, a: InitialData, f: ForceModel,
                 opts: SolverOptions = SolverOptions()):
        self.traj = traj
        self.a = a
        self.f = f
        self.opts = opts
        self.d = traj.grid.d
        self.grid = traj.grid

    def velocity(self, x, t: float):
        vals, _ = farfield_velocity(self.traj, self.a, self.f, x, t, self.opts)
        return vals

    def snapshot(self, t: float) -> VectorFieldGrid:
        return self.traj.field_at(t)

    def force_integral(self, t: float) -> np.ndarray:
        return force_integral(self.f, t)

    def first_moment(self, t: float) -> np.ndarray:
        return first_moment(self.f, t)

    def heat_term(self, x, t: float) -> np.ndarray:
        return self.a.value(x, t)


class SyntheticFlow:
    """A closed-form flow for oracle runs: a vectorized callable u(x, t) with
    no heat term."""

    def __init__(self, d: int, velocity_fn, m_of_t=None, m1_of_t=None):
        self.d = d
        self._fn = velocity_fn
        self._m = m_of_t
        self._m1 = m1_of_t

    def velocity(self, x, t: float):
        return self._fn(np.asarray(x, dtype=float), t)

    def force_integral(self, t: float) -> np.ndarray:
        return np.zeros(self.d) if self._m is None else np.asarray(self._m(t), dtype=float)

    def first_moment(self, t: float) -> np.ndarray:
        return np.zeros((self.d, self.d)) if self._m1 is None else np.asarray(self._m1(t), dtype=float)

    def heat_term(self, x, t: float) -> np.ndarray:
        return np.zeros(np.shape(x))


def _spheres(radii, d: int, n_dirs: int) -> np.ndarray:
    """Points r * w for each radius r and sphere direction w: (len(radii), n_dirs, d)."""
    return np.asarray(radii, dtype=float)[:, None, None] * kernels.sphere_points(d, n_dirs)


def sphere_velocities(flow, radii, t: float, n_dirs: int) -> np.ndarray:
    """u(r w, t) on the points of ``_spheres``, from one ``flow.velocity`` call.

    A point's far-field value is its own sum over sources, independent of the
    rest of the batch, so one batch per time gives the numbers of one batch
    per radius at a fraction of the per-call cost."""
    x = _spheres(radii, flow.d, n_dirs)
    return flow.velocity(x.reshape(-1, flow.d), t).reshape(x.shape)


# ---------------------------------------------------------------------------
# profile prediction and remainder
# ---------------------------------------------------------------------------


@dataclass
class ProfilePrediction:
    """Far-field prediction at a batch of points: heat term + leading profile,
    with the dipole-order correction alongside.

    ``next_order`` is the expansion term of the flow itself: Taylor-expanding
    the convolution kernel K(x-y) in y gives MINUS the contraction of
    grad(leading_tensor) with the first force moment.
    """

    heat: np.ndarray
    leading: np.ndarray
    next_order: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.heat + self.leading


def profile_predict(flow, x, t: float) -> ProfilePrediction:
    """Assemble the far-field prediction at the points ``x`` (shape (..., d))
    from the flow's heat term and force moments at time t."""
    x = np.asarray(x, dtype=float)
    if np.all(x == 0):
        raise ValueError("profile prediction is singular at x = 0")
    d = flow.d
    m = flow.force_integral(t)
    m1 = flow.first_moment(t)
    leading = kernels.profile_field(x, m, d) if np.any(m) else np.zeros(x.shape)
    nxt = -kernels.next_order_profile(x, m1, d) if np.any(m1) else np.zeros(x.shape)
    return ProfilePrediction(heat=flow.heat_term(x, t), leading=leading, next_order=nxt)


def _check_validity_region(radii, t: float):
    bound = math.e * math.sqrt(t)
    bad = [float(r) for r in np.atleast_1d(radii) if r < bound]
    if bad:
        raise ValidityRegionError(
            f"samples at |x| = {bad} violate |x| >= e sqrt(t) = {bound:.3g}")


def remainder_extract(flow, radii, t: float) -> FitReport:
    """Fit the decay of R = u - heat - leading profile against |x|.

    Pass requires the fitted exponent <= -(d+1) + _SLOPE_SLACK and the
    measured constant max_dirs |R| |x|^{d+1} / sqrt(t) to vary by < 2x across
    radii.  The extras report ``onset_radius``: the smallest sampled radius at
    which the remainder has dropped below a third of the leading term (the
    measured far-field onset; never assumed), and ``velocity_sup``: the
    per-radius max over directions of |u| itself, from the same samples.
    """
    radii = np.asarray(radii, dtype=float)
    _check_validity_region(radii, t)
    d = flow.d
    floor = kernels.sphere_min(flow.force_integral(t), d)
    pred = profile_predict(flow, _spheres(radii, d, SPHERE_DIRECTIONS), t).total
    u = sphere_velocities(flow, radii, t, SPHERE_DIRECTIONS)
    sup = np.linalg.norm(u, axis=-1).max(axis=1)
    worst = np.linalg.norm(u - pred, axis=-1).max(axis=1)
    settled = radii[worst < floor / radii**d / 3.0] if floor > 0 else radii[:0]
    onset = float(settled.min()) if settled.size else math.inf
    if np.all(worst < 1e-30):
        # trivially zero remainder: report a pass without fitting noise
        return FitReport("remainder_decay", radii, worst, float("-inf"), -(d + 1.0),
                         0.0, _SLOPE_SLACK, True, bool(radii.max() / radii.min() >= 10),
                         extras={"constant": 0.0, "constant_variation": 1.0,
                                 "trivially_zero": True, "velocity_sup": sup})
    rep = fit_power_law(radii, worst, "remainder_decay",
                        predicted_exponent=None, tolerance=_SLOPE_SLACK)
    consts = worst * radii ** (d + 1.0) / math.sqrt(t)
    variation = float(consts.max() / consts.min())
    slope_ok = rep.fitted_exponent <= -(d + 1.0) + _SLOPE_SLACK
    rep.predicted_exponent = -(d + 1.0)
    rep.passed = bool(slope_ok and variation < 2.0)
    rep.extras.update({"constant": float(consts.max()),
                       "constant_variation": variation,
                       "onset_radius": onset,
                       "velocity_sup": sup})
    return rep


# ---------------------------------------------------------------------------
# pointwise window
# ---------------------------------------------------------------------------


@dataclass
class WindowReport:
    t: float
    radii: np.ndarray
    radius_min: np.ndarray  # min over directions of |u| |x|^d, per radius
    radius_max: np.ndarray  # max over directions of |u| |x|^d, per radius
    lower: float
    upper: float
    ratio: float
    window_pass: bool
    fitted_slope: float
    sphere_floor: float
    remainder_fraction: float
    short_time: dict = field(default_factory=dict)
    short_time_pass: bool = True   # the short-time pinch; True with no short times


def pointwise_window_check(flow, t: float, radii, n_dirs: int = SPHERE_DIRECTIONS,
                           short_times=None, control: bool = False) -> WindowReport:
    """Check the two-sided pinch |u(x,t)| |x|^d between positive constants.

    With a vanishing force integral the pinch cannot hold; ``control=True``
    runs the sampling anyway and reports the faster decay slope instead of
    raising.  ``short_times`` additionally verifies the small-time form
    |u| ~ t |x|^{-d}: over all short times, the largest upper constant over t
    and the smallest lower constant over t must stay within
    _SHORT_TIME_RATIO_LIMIT of each other (``short_time_pass``).
    """
    radii = np.asarray(radii, dtype=float)
    _check_validity_region(radii, t)
    d = flow.d
    m = flow.force_integral(t)
    floor = kernels.sphere_min(m, d)
    if floor <= 1e-14 * (np.linalg.norm(m) + 1.0) and not control:
        raise HypothesisError(
            "force integral vanishes at this time; the |x|^-d window does not "
            "apply (run next_order_check instead)")
    u = sphere_velocities(flow, radii, t, n_dirs)
    mags = np.linalg.norm(u, axis=-1)
    radius_min, radius_max = mags.min(axis=1) * radii**d, mags.max(axis=1) * radii**d
    lower, upper = float(radius_min.min()), float(radius_max.max())
    fit = fit_power_law(radii, radius_max / radii**d, "window_decay")
    window_pass = lower > 0 and upper / max(lower, 1e-300) < _WINDOW_RATIO_LIMIT

    # remainder contamination at the largest radius, relative to the floor
    rem_frac = 0.0
    if floor > 0:
        i_big = int(np.argmax(radii))
        r_big = radii[i_big]
        pred = profile_predict(flow, r_big * kernels.sphere_points(d, n_dirs), t).total
        rem = np.max(np.linalg.norm(u[i_big] - pred, axis=-1)) * r_big**d
        rem_frac = float(rem / floor)

    short = {}
    for ts in short_times or ():
        _check_validity_region(radii, ts)
        mags = np.linalg.norm(sphere_velocities(flow, radii, ts, n_dirs), axis=-1)
        short[float(ts)] = {
            "lower_over_t": float((mags.min(axis=1) * radii**d).min() / ts),
            "upper_over_t": float((mags.max(axis=1) * radii**d).max() / ts),
            "force_integral_norm": float(np.linalg.norm(flow.force_integral(ts))),
        }
    short_pass = True
    if short:
        lo = min(v["lower_over_t"] for v in short.values())
        hi = max(v["upper_over_t"] for v in short.values())
        short_pass = lo > 0 and hi / lo < _SHORT_TIME_RATIO_LIMIT

    return WindowReport(
        t=t, radii=radii, radius_min=radius_min, radius_max=radius_max,
        lower=lower, upper=upper,
        ratio=float(upper / max(lower, 1e-300)),
        window_pass=bool(window_pass),
        fitted_slope=fit.fitted_exponent,
        sphere_floor=float(floor),
        remainder_fraction=rem_frac,
        short_time=short,
        short_time_pass=bool(short_pass),
    )


# ---------------------------------------------------------------------------
# weighted norms: decay sweep and divergence detection
# ---------------------------------------------------------------------------


class TrajectoryNorms:
    """Weighted norms of a solved flow: grid quadrature inside r_split = L/2,
    angular far-field quadrature out to r_far = 4L, power-law tail beyond."""

    def __init__(self, flow: FlowAdapter):
        self.flow = flow
        self.r_split = flow.grid.length / 2
        self.r_far = 4 * flow.grid.length
        self._cache = {}

    def snap_time(self, t: float) -> float:
        return self.flow.traj.nearest_time(t)

    def _far_samples(self, t: float):
        if t in self._cache:
            return self._cache[t]
        log_r, weights = kernels.gauss_panels(math.log(self.r_split), math.log(self.r_far), 8)
        radii = np.exp(log_r)
        mags = np.linalg.norm(sphere_velocities(self.flow, radii, t, _NORM_DIRECTIONS),
                              axis=-1)
        # isotropic power-law tail fitted on the angular p-means
        slope = np.polyfit(log_r, np.log(np.maximum(mags.mean(axis=1), 1e-300)), 1)[0]
        self._cache[t] = (radii, weights, mags, float(slope))
        return self._cache[t]

    def norm(self, alpha: float, p: float, t: float) -> float:
        flow = self.flow
        snap = flow.snapshot(t)
        if math.isinf(p):
            inner = restrict_annulus_norm(snap, 0.0, self.r_split, alpha, p)
            radii, _, mags, _ = self._far_samples(t)
            outer = float(((1 + radii[:, None]) ** alpha * mags).max())
            return max(inner, outer)
        inner = restrict_annulus_norm(snap, 0.0, self.r_split, alpha, p) ** p
        radii, wts, mags, slope = self._far_samples(t)
        outer = _shell_integral(radii, wts, mags, alpha, p, flow.d)
        # analytic extension past r_far assuming |u| ~ A r^slope
        a_amp = float(np.mean(mags[-1] * radii[-1] ** (-slope)))
        decay = alpha * p + slope * p + flow.d
        if decay < -1e-9:
            tail = (kernels.SPHERE_AREA[flow.d] * a_amp**p
                    * self.r_far**decay / (-decay))
        else:
            tail = math.inf
        return (inner + outer + tail) ** (1.0 / p)


def _shell_integral(radii, weights, mags, alpha: float, p: float, d: int) -> float:
    """Integral of (1+|x|)^(alpha p) |u|^p over the shells at ``radii``.

    ``radii``/``weights`` are a quadrature rule in log r, so each shell
    carries the measure sigma_{d-1} r^d; ``mags`` holds |u| on the sphere
    of each radius, shape (radii, directions), and enters by its mean.
    """
    shell = kernels.SPHERE_AREA[d] * radii**d
    angular = ((1 + radii[:, None]) ** (alpha * p) * mags**p).mean(axis=1)
    return float(np.dot(weights, shell * angular))


class RadialNorms:
    """Weighted norms of a synthetic flow with a radial modulus |u|(r, t)."""

    def __init__(self, d: int, radial_modulus):
        self.d = d
        self.modulus = radial_modulus

    def norm(self, alpha: float, p: float, t: float) -> float:
        if math.isinf(p):
            r = np.logspace(-6, math.log10(_RADIAL_R_MAX), 20001)
            return float(((1 + r) ** alpha * self.modulus(r, t)).max())
        edges = np.logspace(-8, math.log10(_RADIAL_R_MAX), _RADIAL_PANELS + 1)
        r, weights = (a.ravel() for a in kernels.gauss_panels(edges[:-1], edges[1:], 8))
        vals = ((1 + r) ** (alpha * p) * self.modulus(r, t) ** p
                * kernels.SPHERE_AREA[self.d] * r ** (self.d - 1))
        return float(np.dot(weights, vals)) ** (1.0 / p)


def weighted_norm_sweep(norms, d: int, alpha: float, p: float, times,
                        tolerance: float = 0.15) -> FitReport:
    """Fit the time exponent of || (1+|x|)^alpha u(t) ||_p against the
    predicted -(d - alpha - d/p)/2.

    The limit pair alpha + d/p = d with p = inf is admitted with predicted
    exponent 0 and a boundedness check instead of a slope verdict.
    """
    regime = norm_regime(d, alpha, p)
    if regime not in ("decay", "limit"):
        raise RegimeError(
            f"alpha + d/p = {alpha + (0 if math.isinf(p) else d / p):g} >= d = {d}; "
            "this pair is in the divergence regime (use divergence_detect)")
    times = np.asarray(times, dtype=float)
    if hasattr(norms, "snap_time"):
        times = np.array(sorted({norms.snap_time(float(t)) for t in times}))
    vals = np.array([norms.norm(alpha, p, float(t)) for t in times])
    predicted = -0.5 * (d - alpha - (0.0 if math.isinf(p) else d / p))
    rep = fit_power_law(times, vals, f"weighted_norm_a{alpha:g}_p{p:g}",
                        predicted_exponent=predicted, tolerance=tolerance)
    if regime == "limit":
        bounded = float(vals.max() / vals.min()) < 4.0
        rep.passed = bool(bounded)
        rep.extras["boundedness_ratio"] = float(vals.max() / vals.min())
    return rep


@dataclass
class DivergenceReport:
    alpha: float
    p: float
    t: float
    radii: np.ndarray
    increments: np.ndarray
    ratios: np.ndarray
    verdict: str  # "divergent-log" | "divergent" | "convergent"

    @property
    def divergent(self) -> bool:
        return self.verdict.startswith("divergent")


def divergence_detect(flow, alpha: float, p: float, t: float, radii) -> DivergenceReport:
    """Cauchy test on truncated weighted norms over increasing radii.

    Octave increments of the p-th power that fail to decay mean the full norm
    diverges: roughly constant increments indicate the logarithmic boundary
    case, growing increments the strict one.  Geometrically decaying
    increments mean this truncation converges (the contrast control).
    """
    if math.isinf(p):
        raise RegimeError("divergence detection needs p < inf")
    if norm_regime(flow.d, alpha, p) != "divergence":
        raise RegimeError(
            f"alpha + d/p < d: this pair is in the decay regime (use weighted_norm_sweep)")
    radii = np.asarray(radii, dtype=float)
    if radii.size < 3 or np.any(np.diff(radii) <= 0):
        raise ValueError("need at least 3 increasing truncation radii")
    # GL8 nodes and weights in log r on each octave, shape (octaves, 8)
    log_r, weights = kernels.gauss_panels(np.log(radii[:-1]), np.log(radii[1:]), 8)
    rr = np.exp(log_r)
    mags = np.linalg.norm(sphere_velocities(flow, rr.ravel(), t, SPHERE_DIRECTIONS),
                          axis=-1).reshape(rr.shape + (-1,))
    increments = np.array([_shell_integral(r, w, m, alpha, p, flow.d)
                           for r, w, m in zip(rr, weights, mags)])
    ratios = increments[1:] / increments[:-1]
    if np.all(np.abs(ratios - 1.0) < 0.25):
        verdict = "divergent-log"
    elif np.all(ratios > 0.9):
        verdict = "divergent"
    elif ratios[-1] < 0.75 and increments[-1] < increments[0]:
        verdict = "convergent"
    else:
        verdict = "inconclusive"
    return DivergenceReport(alpha=alpha, p=p, t=t, radii=radii,
                            increments=increments, ratios=ratios, verdict=verdict)


# ---------------------------------------------------------------------------
# kernel mass lemma
# ---------------------------------------------------------------------------


def _mass_profile(rho: float, d: int, ratio: float = _MASS_RATIO) -> float:
    """G(rho) = integral over r > 0 of m(r) min(1, (rho/r)^2), m = sigma r^(d-1) |K(r,1)|_F.

    GL8 on [0, _MASS_R_LO] and geometric panels up to _MASS_R_MAX, with rho as
    an edge (a kink).  Beyond _MASS_R_MAX the Gaussian part of m is below
    exp(-400), so m(r) = sqrt(d(d-1))/r and the tail is closed form.
    """
    n = math.ceil(math.log(_MASS_R_MAX / _MASS_R_LO) / math.log(ratio))
    edges = np.union1d(np.geomspace(_MASS_R_LO, _MASS_R_MAX, n + 1),
                       [0.0, min(rho, _MASS_R_MAX)])
    r, weights = kernels.gauss_panels(edges[:-1], edges[1:], 8)
    m = kernels.SPHERE_AREA[d] * r ** (d - 1) * kernels.oseen_frobenius_radial(r, 1.0, d)
    body = float(np.sum(weights * m * np.minimum(1.0, (rho / r) ** 2)))
    c, x = math.sqrt(d * (d - 1)), rho / _MASS_R_MAX
    return body + c * (x * x / 2.0 if x <= 1.0 else math.log(x) + 0.5)


def kernel_spacetime_mass(R: float, t: float, d: int) -> float:
    """Space-time kernel mass: integral over s in (0, t], |y| <= R of |K(y,s)|_F.

    K(y,s) = s^(-d/2) K(y/sqrt(s), 1), so the ball at time s holds the unit-time
    mass inside R/sqrt(s); integrating that over s gives t G(R/sqrt(t)) with
    G from ``_mass_profile``.  G grows like sqrt(d(d-1)) log(rho).
    """
    return t * _mass_profile(R / math.sqrt(t), d)


@dataclass
class LemlogReport:
    pairs: list           # (|x|, t) tuples
    ratios: np.ndarray    # LHS / (t log(|x|/sqrt(t)))
    predictions: np.ndarray  # the ratios' large-rho form, exact for rho >= _MASS_R_MAX
    sup_ratio: float
    variation: float
    passed: bool
    refinement_shift: float


def lemlog_check(x_values, t_values, d: int = 2) -> LemlogReport:
    """Measure sup of the space-time kernel mass against t log(|x|/sqrt(t)).

    Every (|x|, t) pair must satisfy |x| >= e sqrt(t).  Pass means the ratio
    stays finite with < _LEMLOG_VARIATION_LIMIT spread across the sweep and is
    stable under quadrature refinement.
    """
    pairs = [(float(r), float(t)) for r in np.atleast_1d(x_values)
             for t in np.atleast_1d(t_values)]
    for r, t in pairs:
        if r < math.e * math.sqrt(t) * (1 - 1e-12):
            raise ValidityRegionError(
                f"pair |x|={r}, t={t} violates |x| >= e sqrt(t)")
    logs = [math.log(r / math.sqrt(t)) for r, t in pairs]
    ratios = np.array([kernel_spacetime_mass(r, t, d) / (t * max(lg, 1.0))
                       for (r, t), lg in zip(pairs, logs)])
    # beyond _MASS_R_MAX, G(rho) = c log(rho) + c0 exactly (the closed-form tail)
    c = math.sqrt(d * (d - 1))
    c0 = _mass_profile(_MASS_R_MAX, d) - c * math.log(_MASS_R_MAX)
    predictions = np.array([(c * lg + c0) / max(lg, 1.0) for lg in logs])
    # quadrature refinement: the same rule on finer panels, at every distinct rho
    shift = max(abs(1.0 - _mass_profile(rho, d) / _mass_profile(rho, d, _MASS_FINE_RATIO))
                for rho in {r / math.sqrt(t) for r, t in pairs})
    variation = float(ratios.max() / ratios.min())
    return LemlogReport(
        pairs=pairs, ratios=ratios, predictions=predictions, sup_ratio=float(ratios.max()),
        variation=variation,
        passed=bool(variation < _LEMLOG_VARIATION_LIMIT and shift < 1e-3),
        refinement_shift=float(shift),
    )


# ---------------------------------------------------------------------------
# next-order (mean-zero force) check
# ---------------------------------------------------------------------------


@dataclass
class NextOrderReport:
    t: float
    radii: np.ndarray
    fit: FitReport | None
    agreement: np.ndarray | None  # relative deviation from the dipole profile
    degenerate: bool
    passed: bool
    note: str = ""


def next_order_check(flow, t: float, radii) -> NextOrderReport:
    """For a mean-zero force, fit |u| ~ |x|^{-d-1} and compare against the
    dipole-order profile built from the first force moment (minus the
    gradient-tensor contraction, from the kernel Taylor expansion).

    Raises HypothesisError when the force integral does not vanish; declines
    a verdict (degenerate=True) when the first moment vanishes as well.
    """
    radii = np.asarray(radii, dtype=float)
    _check_validity_region(radii, t)
    d = flow.d
    m_total = flow.force_integral(t)
    m1 = flow.first_moment(t)
    scale = np.abs(m1).max()
    if np.linalg.norm(m_total) > 1e-10 * max(1.0, scale):
        raise HypothesisError(
            "force integral does not vanish; the leading profile dominates "
            "(use remainder_extract / pointwise_window_check)")
    if scale < 1e-14:
        return NextOrderReport(t=t, radii=radii, fit=None, agreement=None,
                               degenerate=True, passed=False,
                               note="first moment also vanishes: next order is "
                                    "higher still; no verdict")
    prof = profile_predict(flow, _spheres(radii, d, _FIT_DIRECTIONS), t)
    pred = prof.total + prof.next_order
    u = sphere_velocities(flow, radii, t, _FIT_DIRECTIONS)
    sup = np.linalg.norm(u, axis=-1).max(axis=1)
    agree = np.linalg.norm(u - pred, axis=-1).max(axis=1) / sup
    fit = fit_power_law(radii, sup, "next_order_decay",
                        predicted_exponent=-(d + 1.0), tolerance=_SLOPE_SLACK)
    outer = agree[radii.size // 2:]
    improving = bool(np.all(np.diff(outer) <= 1e-12 + 0.05 * outer[:-1]))
    converged = outer[-1] < outer[0] or outer[-1] < 1e-9
    passed = bool(fit.passed and improving and converged)
    return NextOrderReport(t=t, radii=radii, fit=fit, agreement=agree,
                           degenerate=False, passed=passed)


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def write_csv(path, header: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def write_json(path, payload: dict) -> None:
    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        raise TypeError(f"not serializable: {type(obj)}")

    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=default)
        fh.write("\n")
