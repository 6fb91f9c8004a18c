"""Verification checks against synthetic closed-form flows."""

import math

import numpy as np
import pytest

from nsfarfield import kernels as kn
from nsfarfield import verify as vf


class CountingFlow:
    """Wraps a flow and records the time of every ``velocity`` call."""

    def __init__(self, flow):
        self._flow = flow
        self.calls = []

    def velocity(self, x, t):
        self.calls.append(t)
        return self._flow.velocity(x, t)

    def __getattr__(self, name):
        return getattr(self._flow, name)


@pytest.fixture
def profile_flow():
    c = np.array([1.0, 0.5])
    return vf.SyntheticFlow(2, lambda x, t: kn.profile_field(x, c, 2),
                            m_of_t=lambda t: c), c


class TestFitPowerLaw:
    def test_recovers_exact_exponent(self):
        r = np.logspace(0, 2, 12)
        rep = vf.fit_power_law(r, 3.7 * r ** (-2.31), "t",
                               predicted_exponent=-2.31, tolerance=1e-6)
        assert abs(rep.fitted_exponent + 2.31) < 1e-6
        assert rep.passed and rep.spans_decade and rep.residual < 1e-12

    def test_rejects_short_windows(self):
        with pytest.raises(ValueError):
            vf.fit_power_law([1, 2, 3], [1, 2, 3], "t")

    def test_flags_narrow_window(self):
        t = np.linspace(1, 2, 7)
        rep = vf.fit_power_law(t, t ** (-1.0), "t", predicted_exponent=-1.0)
        assert rep.passed and not rep.spans_decade


class TestProfilePredict:
    def test_zero_scenario(self):
        flow = vf.SyntheticFlow(2, lambda x, t: np.zeros_like(x))
        pred = vf.profile_predict(flow, np.array([4.0, 0.0]), 1.0)
        assert np.all(pred.total == 0.0) and np.all(pred.next_order == 0.0)

    def test_leading_term_from_moments(self):
        m = np.array([math.pi, 0.0])
        flow = vf.SyntheticFlow(2, lambda x, t: np.zeros_like(x), m_of_t=lambda t: m)
        x = np.array([8.0, 3.0])
        pred = vf.profile_predict(flow, x, 1.5)
        np.testing.assert_allclose(pred.leading, kn.profile_field(x, m, 2), rtol=1e-14)

    def test_leading_homogeneity(self):
        m = np.array([1.0, 2.0])
        flow = vf.SyntheticFlow(2, lambda x, t: np.zeros_like(x), m_of_t=lambda t: m)
        x = np.array([5.0, -2.0])
        p1 = vf.profile_predict(flow, x, 1.0)
        p2 = vf.profile_predict(flow, 2 * x, 1.0)
        np.testing.assert_allclose(p2.leading, 0.25 * p1.leading, rtol=1e-13)

    def test_batch_matches_rows(self):
        # every term is pointwise, so a sphere batch gives the rows' numbers
        class HeatFlow(vf.SyntheticFlow):
            def heat_term(self, x, t):
                return np.exp(-np.sum(x * x, axis=-1) / (4 * t))[..., None] * x

        m, m1 = np.array([1.0, -0.5]), np.array([[0.2, 1.0], [-0.3, 0.4]])
        flow = HeatFlow(2, lambda x, t: np.zeros_like(x), m_of_t=lambda t: m,
                        m1_of_t=lambda t: m1)
        x = np.array([3.0, 5.0])[:, None, None] * kn.sphere_points(2, 6)
        batch = vf.profile_predict(flow, x, 2.0)
        for part in ("heat", "leading", "next_order", "total"):
            rows = np.array([[getattr(vf.profile_predict(flow, xi, 2.0), part)
                              for xi in ring] for ring in x])
            assert np.any(rows) and np.array_equal(getattr(batch, part), rows)


class TestRemainderExtract:
    def test_zero_flow_trivial_pass(self):
        flow = vf.SyntheticFlow(2, lambda x, t: np.zeros_like(x))
        rep = vf.remainder_extract(flow, np.logspace(4, 7, 7, base=2), 1.0)
        assert rep.passed and rep.extras.get("trivially_zero")

    def test_exact_profile_gives_zero_remainder(self, profile_flow):
        flow, _ = profile_flow
        rep = vf.remainder_extract(flow, np.logspace(4, 7, 7, base=2), 1.0)
        assert rep.passed

    def test_synthetic_remainder_slope(self):
        # u = profile + known |x|^{-3} correction: remainder must recover -3,
        # and the onset radius (remainder below a third of the leading term)
        # must be the first sampled radius here
        c = np.array([1.0, 0.0])
        m1 = np.array([[0.0, 0.4], [0.1, 0.0]])

        def u(x, t):
            return kn.profile_field(x, c, 2) + kn.next_order_profile(x, m1, 2)

        flow = vf.SyntheticFlow(2, u, m_of_t=lambda t: c)
        rep = vf.remainder_extract(flow, np.logspace(4, 7, 8, base=2), 1.0)
        assert rep.passed
        assert rep.fitted_exponent == pytest.approx(-3.0, abs=1e-6)
        assert rep.extras["onset_radius"] == 16.0

    def test_validity_region_enforced(self, profile_flow):
        flow, _ = profile_flow
        with pytest.raises(vf.ValidityRegionError):
            vf.remainder_extract(flow, np.array([1.0, 2.0, 4.0, 8.0, 16.0]), 4.0)


class TestPointwiseWindow:
    def test_pure_profile_ratio_one_d2(self, profile_flow):
        flow, c = profile_flow
        rep = vf.pointwise_window_check(flow, 1.0, np.logspace(4, 8, 5, base=2))
        assert rep.window_pass
        assert rep.ratio == pytest.approx(1.0, rel=1e-10)
        assert rep.lower == pytest.approx(np.linalg.norm(c) / (2 * math.pi), rel=1e-10)

    def test_lower_bound_linked_to_sphere_floor(self, profile_flow):
        flow, c = profile_flow
        rep = vf.pointwise_window_check(flow, 1.0, np.logspace(4, 8, 5, base=2))
        assert rep.lower >= rep.sphere_floor * (1 - rep.remainder_fraction) - 1e-12

    def test_zero_mean_raises(self):
        flow = vf.SyntheticFlow(2, lambda x, t: np.zeros_like(x))
        with pytest.raises(vf.HypothesisError):
            vf.pointwise_window_check(flow, 1.0, np.logspace(4, 8, 5, base=2))

    def test_one_velocity_call_for_all_radii(self):
        # every radius is sampled in one batch, and the remainder at the
        # largest radius reuses the velocities sampled there
        c = np.array([1.0, 0.5])
        m1 = np.array([[0.0, 0.4], [0.1, 0.0]])

        def u(x, t):
            return kn.profile_field(x, c, 2) + kn.next_order_profile(x, m1, 2)

        flow = CountingFlow(vf.SyntheticFlow(2, u, m_of_t=lambda t: c))
        radii = np.array([32.0, 256.0, 64.0, 128.0, 16.0])
        rep = vf.pointwise_window_check(flow, 1.0, radii)
        assert flow.calls == [1.0]
        x = 256.0 * kn.sphere_points(2, 16)
        rem = np.linalg.norm(kn.next_order_profile(x, m1, 2), axis=-1).max() * 256.0**2
        assert rep.remainder_fraction == pytest.approx(rem / rep.sphere_floor, rel=1e-9)

    def test_control_mode_reports_fast_decay(self):
        # |u| ~ |x|^{-3}: the -d window fails, slope <= -(d+0.5)
        def u(x, t):
            r2 = np.sum(x * x, axis=-1, keepdims=True)
            return x / r2**2

        flow = vf.SyntheticFlow(2, u)
        rep = vf.pointwise_window_check(flow, 1.0, np.logspace(4, 8, 6, base=2),
                                        control=True)
        assert not rep.window_pass
        assert rep.fitted_slope <= -2.5

    @pytest.mark.parametrize("power, passed", [(1, True), (2, False)])
    def test_short_time_pinch_enters_the_verdict(self, power, passed):
        # u = t^power K(x) c holds the window at every time; only u ~ t keeps
        # the constants over t pinched across the short times, and t^2 puts
        # their spread at 4 over the quartering from 0.5 to 0.125
        from types import SimpleNamespace

        from nsfarfield import cli

        c = np.array([1.0, 0.5])
        flow = vf.SyntheticFlow(2, lambda x, t: t**power * kn.profile_field(x, c, 2),
                                m_of_t=lambda t: t * c)
        cfg = SimpleNamespace(window_time=1.0, window_radii=list(np.logspace(4, 8, 5, base=2)),
                              window_directions=16, short_times=[0.5, 0.25, 0.125])
        _, payload = cli._check_window(cfg, flow)
        lo = min(v["lower_over_t"] for v in payload["short_time"].values())
        hi = max(v["upper_over_t"] for v in payload["short_time"].values())
        assert payload["ratio"] == pytest.approx(1.0, rel=1e-10)
        assert hi / lo == pytest.approx(4.0 ** (power - 1), rel=1e-10)
        assert payload["passed"] is passed
        assert payload["short_time_pass"] is passed


class TestWeightedNormSweep:
    @pytest.mark.parametrize("alpha,p", [(0.0, math.inf), (1.0, math.inf),
                                         (0.0, 2.0), (0.5, 3.0)])
    def test_synthetic_scaling_oracle(self, alpha, p):
        # u(x,t) = t^{-1} phi(x/sqrt t) with |phi|(z) = (1+|z|^2)^{-1} in d=2
        def modulus(r, t):
            z = r / math.sqrt(t)
            return (1.0 / t) * (1.0 + z * z) ** (-1.0)

        norms = vf.RadialNorms(2, modulus)
        rep = vf.weighted_norm_sweep(norms, 2, alpha, p, np.logspace(3, 5, 9),
                                     tolerance=0.02)
        assert rep.passed, (alpha, p, rep.fitted_exponent, rep.predicted_exponent)

    def test_limit_case_boundedness(self):
        def modulus(r, t):
            z = r / math.sqrt(t)
            return (1.0 / t) * (1.0 + z * z) ** (-1.0)

        norms = vf.RadialNorms(2, modulus)
        rep = vf.weighted_norm_sweep(norms, 2, 2.0, math.inf, np.logspace(3, 5, 9))
        assert rep.passed and rep.extras["boundedness_ratio"] < 1.1

    def test_wrong_regime_rejected(self):
        norms = vf.RadialNorms(2, lambda r, t: np.exp(-r * r))
        with pytest.raises(vf.RegimeError):
            vf.weighted_norm_sweep(norms, 2, 1.0, 1.0, np.logspace(0, 2, 6))

    def test_boundary_trend(self):
        # as alpha + d/p approaches d the fitted exponent approaches 0
        def modulus(r, t):
            z = r / math.sqrt(t)
            return (1.0 / t) * (1.0 + z * z) ** (-1.0)

        norms = vf.RadialNorms(2, modulus)
        slopes = [vf.weighted_norm_sweep(norms, 2, a, math.inf,
                                         np.logspace(3, 5, 7)).fitted_exponent
                  for a in (1.0, 1.5, 1.9)]
        assert slopes[0] < slopes[1] < slopes[2] < 0.0


class TestDivergenceDetect:
    def test_profile_field_diverges_logarithmically(self, profile_flow):
        flow, _ = profile_flow
        radii = np.array([8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0])
        rep = vf.divergence_detect(flow, 0.0, 1.0, 1.0, radii)
        assert rep.verdict == "divergent-log"
        assert np.all(np.abs(rep.ratios - 1.0) < 0.05)

    def test_steeper_tail_converges(self):
        def u(x, t):
            r2 = np.sum(x * x, axis=-1, keepdims=True)
            return x / r2**2

        flow = vf.SyntheticFlow(2, u)
        radii = np.array([8.0, 16.0, 32.0, 64.0, 128.0])
        rep = vf.divergence_detect(flow, 0.0, 1.0, 1.0, radii)
        assert rep.verdict == "convergent"

    def test_strict_regime_grows(self, profile_flow):
        flow, _ = profile_flow
        radii = np.array([8.0, 16.0, 32.0, 64.0, 128.0])
        rep = vf.divergence_detect(flow, 1.0, 1.0, 1.0, radii)
        assert rep.verdict == "divergent"

    def test_wrong_regime_rejected(self, profile_flow):
        flow, _ = profile_flow
        with pytest.raises(vf.RegimeError):
            vf.divergence_detect(flow, 0.0, 3.0, 1.0, np.array([8.0, 16.0, 32.0]))

    def test_boundary_agreement_with_sweep(self):
        # at the regime boundary the sweep exponent tends to 0 while the
        # divergence increments tend to constancy: check both trends on the
        # same synthetic profile
        def modulus(r, t):
            z = r / math.sqrt(t)
            return (1.0 / t) * (1.0 + z * z) ** (-1.0)

        norms = vf.RadialNorms(2, modulus)
        slopes = [vf.weighted_norm_sweep(norms, 2, a, math.inf,
                                         np.logspace(3, 5, 7)).fitted_exponent
                  for a in (1.5, 1.75, 1.9)]
        assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))

        c = np.array([1.0, 0.0])
        flow = vf.SyntheticFlow(2, lambda x, t: kn.profile_field(x, c, 2),
                                m_of_t=lambda t: c)
        radii = np.array([16.0, 32.0, 64.0, 128.0, 256.0])
        boundary = vf.divergence_detect(flow, 0.0, 1.0, 1.0, radii)
        assert np.all(np.abs(boundary.ratios - 1.0) < 0.05)


class TestLemlog:
    def test_bounded_under_time_halving(self):
        rep = vf.lemlog_check([16.0], [1.0, 0.5, 0.25, 0.125, 0.0625], d=2)
        assert rep.passed
        assert rep.variation < 2.0

    def test_log_growth_in_radius(self):
        # LHS increments under x-doubling are nearly constant (log growth)
        t = 0.5
        masses = [vf.kernel_spacetime_mass(r, t, 2) for r in (8.0, 16.0, 32.0, 64.0)]
        diffs = np.diff(masses)
        assert np.all(diffs > 0)
        assert diffs.max() / diffs.min() < 1.25

    def test_boundary_of_validity_region(self):
        t = 1.0
        r = math.e * math.sqrt(t)
        rep = vf.lemlog_check([r], [t], d=2)
        assert math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0

    def test_region_enforced(self):
        with pytest.raises(vf.ValidityRegionError):
            vf.lemlog_check([1.0], [1.0], d=2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_exact_log_growth_constant(self, d):
        # far from the Gaussian core |K(y,s)|_F = sqrt(d(d-1)) / (sigma |y|^d),
        # so doubling R adds exactly sqrt(d(d-1)) t log 2 to the mass
        t = 0.5
        for rho in (16.0, 32.0, 64.0):
            r = rho * math.sqrt(t)
            step = (vf.kernel_spacetime_mass(2.0 * r, t, d)
                    - vf.kernel_spacetime_mass(r, t, d)) / (t * math.log(2.0))
            assert step == pytest.approx(math.sqrt(d * (d - 1)), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_prediction_is_the_large_rho_form(self, d):
        # beyond rho = 40 the mass profile is sqrt(d(d-1)) log(rho) + C0 exactly
        rep = vf.lemlog_check([8.0, 40.0, 64.0, 1000.0], [1.0], d)
        rel = np.abs(rep.ratios - rep.predictions) / rep.ratios
        assert np.all(rel[1:] < 1e-15)
        assert 0 < rel[0] < 1e-8

    @pytest.mark.parametrize("r,t,expected", [
        (8.0, 1.0, 2.793815080469858),
        (64.0, 0.125, 0.9006220895712324),
        (math.e, 1.0, 1.307146021443518),
    ])
    def test_matches_nested_space_time_quadrature(self, r, t, expected):
        # reference values: GL8 in sqrt(s) over 14 geometric panels, a radial
        # quadrature at every node and a bound for the skipped s < t 4^-14
        assert vf.kernel_spacetime_mass(r, t, 2) == pytest.approx(expected, rel=2e-8)


class TestNextOrder:
    def test_exact_dipole_profile(self):
        # the flow's own expansion term carries a minus relative to the raw
        # gradient-tensor contraction (kernel Taylor expansion)
        m1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        flow = vf.SyntheticFlow(2, lambda x, t: -kn.next_order_profile(x, m1, 2),
                                m1_of_t=lambda t: m1)
        rep = vf.next_order_check(flow, 1.0, np.logspace(4, 7, 7, base=2))
        assert rep.passed
        assert rep.fit.fitted_exponent == pytest.approx(-3.0, abs=1e-9)

    def test_nonzero_mean_rejected(self, profile_flow):
        flow, _ = profile_flow
        with pytest.raises(vf.HypothesisError):
            vf.next_order_check(flow, 1.0, np.logspace(4, 7, 7, base=2))

    def test_degenerate_moment_declines_verdict(self):
        flow = vf.SyntheticFlow(2, lambda x, t: np.zeros_like(x))
        rep = vf.next_order_check(flow, 1.0, np.logspace(4, 7, 7, base=2))
        assert rep.degenerate and not rep.passed


class TestOneBatchPerTime:
    """Each check samples its spheres in one velocity call per evaluation time."""

    def test_remainder_extract(self, profile_flow):
        flow = CountingFlow(profile_flow[0])
        vf.remainder_extract(flow, np.logspace(4, 7, 7, base=2), 1.0)
        assert flow.calls == [1.0]

    def test_profile_check(self, profile_flow):
        # the sup |u| of the profile check comes from the remainder's samples
        from types import SimpleNamespace

        from nsfarfield import cli

        radii = np.logspace(4, 7, 7, base=2)
        flow = CountingFlow(profile_flow[0])
        cfg = SimpleNamespace(profile_radii=list(radii), profile_time=1.0)
        _, payload = cli._check_profile(cfg, flow)
        assert flow.calls == [1.0] and payload["passed"]
        sup = np.linalg.norm(vf.sphere_velocities(profile_flow[0], radii, 1.0,
                                                  vf.SPHERE_DIRECTIONS), axis=-1).max(axis=1)
        fit = vf.fit_power_law(radii, sup, predicted_exponent=-2.0)
        assert payload["velocity_exponent"] == fit.fitted_exponent

    def test_next_order_check(self):
        m1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        flow = CountingFlow(vf.SyntheticFlow(
            2, lambda x, t: -kn.next_order_profile(x, m1, 2), m1_of_t=lambda t: m1))
        vf.next_order_check(flow, 1.0, np.logspace(4, 7, 7, base=2))
        assert flow.calls == [1.0]

    def test_divergence_detect(self, profile_flow):
        flow = CountingFlow(profile_flow[0])
        vf.divergence_detect(flow, 0.0, 1.0, 2.0, np.array([8.0, 16.0, 32.0, 64.0]))
        assert flow.calls == [2.0]

    def test_window_with_short_times(self, profile_flow):
        flow = CountingFlow(profile_flow[0])
        vf.pointwise_window_check(flow, 1.0, np.logspace(4, 8, 5, base=2),
                                  short_times=[0.5, 0.25, 0.125])
        assert flow.calls == [1.0, 0.5, 0.25, 0.125]

    def test_trajectory_norms_one_call_per_time_across_pairs(self):
        from types import SimpleNamespace

        from nsfarfield.grid import BoxGrid, VectorFieldGrid

        def u(x, t):
            r2 = np.sum(x * x, axis=-1, keepdims=True)
            return x / (t * (1.0 + r2) ** 1.5)

        # the parts of a FlowAdapter the norms read besides velocity: the box,
        # a snapshot at each time and the trajectory's time snapping
        grid = BoxGrid(2, 8.0, 16)
        flow = CountingFlow(vf.SyntheticFlow(2, u))
        flow.grid = grid
        flow.snapshot = lambda t: VectorFieldGrid.from_callable(grid, lambda x: u(x, t))
        flow.traj = SimpleNamespace(nearest_time=float)
        norms = vf.TrajectoryNorms(flow)
        times = [1.0, 1.25, 1.5, 1.75, 2.0]
        for alpha, p in ((0.0, math.inf), (1.0, math.inf), (0.0, 2.0)):
            vf.weighted_norm_sweep(norms, 2, alpha, p, np.array(times))
        assert sorted(flow.calls) == times


class TestReportFiles:
    def test_csv_and_json(self, tmp_path):
        rows = [(1.0, 2.0, 3.0, 0.1), (2.0, 1.0, 1.5, 0.2)]
        vf.write_csv(tmp_path / "out.csv", ["abscissa", "value", "prediction", "residual"], rows)
        text = (tmp_path / "out.csv").read_text().splitlines()
        assert text[0] == "abscissa,value,prediction,residual"
        assert len(text) == 3
        vf.write_json(tmp_path / "out.json", {"b": 1.5, "a": np.float64(2.0),
                                              "arr": np.arange(3)})
        body = (tmp_path / "out.json").read_text()
        assert body.index('"a"') < body.index('"arr"') < body.index('"b"')
