"""Force models: assumption constants, integrals, moments, initial data."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import divergence_defect, validate_assumptions_reference
from nsfarfield import cli
from nsfarfield.config import parse_config
from nsfarfield.forcing import (
    ForceModel,
    GaussianBump,
    Indicator,
    InitialData,
    SeparableTerm,
    SmoothBump,
    build_initial_data,
    first_moment,
    force_integral,
    validate_assumptions,
)
from nsfarfield.grid import BoxGrid


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def unit_bump_force(d=2, amplitude=(1.0, 0.0), t_off=1.0, center=None, width=1.0):
    term = SeparableTerm(
        GaussianBump(d, width=width, center=center),
        Indicator(0.0, t_off),
        amplitude,
    )
    return ForceModel(d, terms=[term])


def _config_force(name, **replace):
    text = (CONFIGS / name).read_text()
    for old, new in replace.items():
        text = text.replace(old, new)
    return cli.build_scenario(parse_config(text))[2]


# forces: every shipped force kind, two smooth profiles
# with different windows, two overlapping indicators (the profile vector
# takes the directions (1, 0), (1, 1)/sqrt(2) and (0, 1)), a narrow bump
# switched on late (zero samples first, then the (1+t)^2 blow-up of f1 wins)
# and a d = 3 term
PARITY_CASES = {
    "canonical": lambda: _config_force("canonical.cfg"),
    "dipole": lambda: _config_force("dipole.cfg"),
    "quadrupole": lambda: _config_force("dipole.cfg",
                                        **{"kind = dipole_pair": "kind = quadrupole"}),
    "two_smooth_bumps": lambda: ForceModel(2, terms=[
        SeparableTerm(GaussianBump(2, width=1.0, center=(0.5, -0.25)),
                      SmoothBump(0.0, 0.3), (0.002, 0.001)),
        SeparableTerm(GaussianBump(2, width=1.5), SmoothBump(0.1, 0.5), (-0.001, 0.0))]),
    "overlapping_indicators": lambda: ForceModel(2, terms=[
        SeparableTerm(GaussianBump(2, center=(1.0, 0.0)), Indicator(0.0, 0.6), (1e-3, 0.0)),
        SeparableTerm(GaussianBump(2, width=0.8, center=(-0.5, 0.5)), Indicator(0.3, 1.0),
                      (-5e-4, 2e-4))]),
    "late_narrow_bump": lambda: ForceModel(2, terms=[
        SeparableTerm(GaussianBump(2, width=0.3), Indicator(2.0, 20.0), (1e-3, 0.0))]),
    "d3": lambda: unit_bump_force(d=3, amplitude=(1e-3, 0.0, 5e-4), center=(0.5, 0.0, 0.0)),
}


class TestValidateAssumptions:
    def test_zero_force_passes(self):
        rep = validate_assumptions(ForceModel.zero(2), 1e-3)
        assert rep.epsilon_f1 == rep.l1_norm == rep.c_f3 == 0.0
        assert rep.all_pass

    def test_constants_scale_linearly_in_amplitude(self):
        rep1 = validate_assumptions(unit_bump_force(amplitude=(1.0, 0.0)), 10.0)
        rep2 = validate_assumptions(unit_bump_force(amplitude=(2.0, 0.0)), 10.0)
        assert rep2.epsilon_f1 == pytest.approx(2 * rep1.epsilon_f1, rel=1e-12)
        assert rep2.l1_norm == pytest.approx(2 * rep1.l1_norm, rel=1e-12)
        assert rep2.c_f3 == pytest.approx(2 * rep1.c_f3, rel=1e-12)

    def test_unit_bump_l1_is_pi(self):
        # integral of e^{-|x|^2} over R^2 times a unit time window
        rep = validate_assumptions(unit_bump_force(), 10.0)
        assert rep.l1_norm == pytest.approx(math.pi, rel=1e-3)

    def test_pass_flags(self):
        rep = validate_assumptions(unit_bump_force(amplitude=(1e-3, 0.0)), 5e-2)
        assert rep.all_pass
        rep_big = validate_assumptions(unit_bump_force(amplitude=(1.0, 0.0)), 5e-2)
        assert not rep_big.pass_f1


    def test_each_profile_evaluated_once(self, monkeypatch):
        # the spatial profiles do not depend on time: one lattice evaluation
        # per term, whatever the number of time samples
        calls = []
        value = GaussianBump.value

        def counting(self, x):
            calls.append(self)
            return value(self, x)

        monkeypatch.setattr(GaussianBump, "value", counting)
        terms = [SeparableTerm(GaussianBump(2, width=w), SmoothBump(0.0, 1.0), (1e-3, 0.0))
                 for w in (1.0, 1.5)]
        force = ForceModel(2, terms=terms)
        rep = validate_assumptions(force, 1.0)
        assert len(calls) == 2 and rep.l1_norm > 0

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_separated_constants_match_per_time_reference(self, case):
        # one lattice pass per profile direction gives the constants of one
        # pass per time sample, up to the order of rounding
        force = PARITY_CASES[case]()
        got = validate_assumptions(force, 1.0)
        ref = validate_assumptions_reference(force, 1.0)
        for name in ("epsilon_f1", "l1_norm", "c_f3"):
            assert getattr(ref, name) > 0
            assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=1e-14, abs=0), name


class TestForceIntegral:
    def test_zero_at_time_zero(self):
        f = unit_bump_force()
        np.testing.assert_array_equal(force_integral(f, 0.0), np.zeros(2))

    def test_unit_bump_saturates_at_pi(self):
        f = unit_bump_force()
        for t in (1.0, 1.5, 7.0):
            np.testing.assert_allclose(force_integral(f, t), [math.pi, 0.0], rtol=1e-14)
        np.testing.assert_allclose(force_integral(f, 0.5), [math.pi / 2, 0.0], rtol=1e-14)

    def test_constant_after_support_ends(self):
        term = SeparableTerm(GaussianBump(2), SmoothBump(0.0, 0.5), (2.0, -1.0))
        f = ForceModel(2, terms=[term])
        m_end = force_integral(f, 0.5)
        np.testing.assert_array_equal(force_integral(f, 3.0), m_end)
        m1_end = first_moment(f, 0.5)
        np.testing.assert_array_equal(first_moment(f, 3.0), m1_end)


class TestFirstMoment:
    def test_centered_even_profile_is_zero(self):
        f = unit_bump_force()
        np.testing.assert_array_equal(first_moment(f, 1.0), np.zeros((2, 2)))

    def test_shifted_profile_is_center_outer_integral(self):
        x0 = np.array([1.5, -0.5])
        f = unit_bump_force(center=tuple(x0))
        m = force_integral(f, 0.8)
        np.testing.assert_allclose(first_moment(f, 0.8), np.outer(x0, m), rtol=1e-13)


class TestInitialData:
    def test_zero_spec(self):
        a = build_initial_data(2, kind="zero")
        assert a.l1_norm == 0.0 and a.sup_weighted == 0.0
        grid = BoxGrid(2, 8.0, 32)
        np.testing.assert_array_equal(a.to_field(grid).components, 0.0)

    def test_curl_bump_divergence_free(self):
        a = build_initial_data(2, kind="curl_bump", amplitude=0.5, width=1.0)
        grid = BoxGrid(2, 16.0, 128)
        fld = a.to_field(grid)
        assert divergence_defect(fld) < 1e-12

    def test_curl_bump_zero_mean(self):
        a = build_initial_data(2, kind="curl_bump", amplitude=0.5)
        grid = BoxGrid(2, 16.0, 128)
        mean = np.abs(a.to_field(grid).components.mean(axis=(1, 2)))
        assert mean.max() < 1e-10

    def test_l1_norm_matches_radial_oracle(self):
        # |a| = 2 A r e^{-r^2}: L1 norm = A pi^{3/2} in d=2
        amp = 0.75
        a = build_initial_data(2, kind="curl_bump", amplitude=amp, width=1.0)
        oracle = quad(lambda r: 2 * amp * r * np.exp(-(r**2)) * 2 * math.pi * r, 0, 12)[0]
        assert a.l1_norm == pytest.approx(oracle, rel=1e-6)
        assert a.l1_norm == pytest.approx(amp * math.pi**1.5, rel=1e-12)

    def test_heat_evolution_closed_form(self):
        # compare the closed-form heat evolution with the solver's heat term
        from nsfarfield import solver as sv

        a = build_initial_data(2, kind="curl_bump", amplitude=0.3, width=1.2)
        grid = BoxGrid(2, 16.0, 128)
        t = 0.7
        *_, evolved = sv._mild_series(sv._SpectralOps(grid), np.array([0.0, t]),
                                      sv.SolverOptions(), a=a)
        closed = a.value(grid.points, t)
        err = np.abs(np.moveaxis(closed, -1, 0) - evolved).max()
        assert err < 1e-10

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            build_initial_data(2, kind="curl_bump", amplitude=1.0, width=-1.0)
        with pytest.raises(ValueError):
            build_initial_data(2, kind="vortex")
        with pytest.raises(ValueError):
            build_initial_data(2, kind="curl_bump", amplitude=math.inf)


class TestForceModelBasics:
    def test_value_superposes_terms(self):
        # the measured force is the vector sum of the terms: a doubled term
        # doubles every constant, and opposite amplitudes cancel where the
        # two bumps overlap
        t1 = SeparableTerm(GaussianBump(2, center=(1.0, 0.0)), Indicator(0.0, 1.0), (1.0, 0.0))
        t2 = SeparableTerm(GaussianBump(2, center=(-1.0, 0.0)), Indicator(0.0, 1.0), (-1.0, 0.0))
        f = ForceModel(2, terms=[t1, t2])
        one = validate_assumptions(ForceModel(2, terms=[t1]), 10.0)
        two = validate_assumptions(ForceModel(2, terms=[t1, t1]), 10.0)
        assert two.l1_norm == pytest.approx(2 * one.l1_norm, rel=1e-12)
        assert two.epsilon_f1 == pytest.approx(2 * one.epsilon_f1, rel=1e-12)
        assert validate_assumptions(f, 10.0).l1_norm < 2 * one.l1_norm
        # mean zero but first moment nonzero
        np.testing.assert_allclose(force_integral(f, 2.0), np.zeros(2), atol=1e-15)
        assert np.abs(first_moment(f, 2.0)).max() > 0

    def test_time_profiles(self):
        sb = SmoothBump(0.0, 1.0)
        assert sb.value(0.0) == sb.value(1.0) == 0.0
        assert sb.integral_to(1.0) == pytest.approx(1.0, rel=1e-14)
        assert sb.integral_to(2.0) == pytest.approx(1.0, rel=1e-14)
        ind = Indicator(0.25, 0.75)
        assert ind.value(0.5) == 1.0 and ind.value(0.1) == 0.0
        assert ind.integral_to(10.0) == pytest.approx(0.5)

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            ForceModel(4, terms=[])
        with pytest.raises(ValueError):
            SeparableTerm(GaussianBump(2), Indicator(0.0, 1.0), (1.0, 0.0, 0.0))
