"""Kernel closed forms: values, identities, decay envelopes."""

import math

import numpy as np
import pytest

from helpers import grad_leading_tensor, oseen_grad_kernel
from nsfarfield import kernels as kn


def frob(a):
    return np.sqrt(np.sum(a * a, axis=(-2, -1)))


class TestHeatKernel:
    def test_peak_value_d2(self):
        assert kn.heat_kernel(np.zeros(2), 1.0, 2) == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)

    def test_point_value_d2(self):
        val = kn.heat_kernel(np.array([2.0, 0.0]), 1.0, 2)
        assert val == pytest.approx(math.exp(-1.0) / (4 * math.pi), rel=1e-14)

    def test_unit_mass_quadrature(self):
        # midpoint quadrature over [-20, 20]^2
        n = 400
        h = 40.0 / n
        xs = -20.0 + (np.arange(n) + 0.5) * h
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([X, Y], axis=-1)
        mass = np.sum(kn.heat_kernel(pts, 1.0, 2)) * h * h
        assert mass == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_rejects_nonpositive_time(self, d):
        with pytest.raises(ValueError):
            kn.heat_kernel(np.zeros(d), 0.0, d)
        with pytest.raises(ValueError):
            kn.heat_kernel(np.zeros(d), -1.0, d)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            kn.heat_kernel(np.zeros(4), 1.0, 4)


class TestLeadingTensor:
    def test_d2_axis_value(self):
        m = kn.leading_tensor(np.array([1.0, 0.0]), 2)
        expected = np.array([[1.0, 0.0], [0.0, -1.0]]) / (2 * math.pi)
        np.testing.assert_allclose(m, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3])
    def test_trace_zero_exactly(self, d):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, d))
        m = kn.leading_tensor(x, d)
        assert np.abs(np.trace(m, axis1=-2, axis2=-1)).max() == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_homogeneous_degree_minus_d(self, d):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, d))
        np.testing.assert_allclose(
            kn.leading_tensor(2 * x, d), 2.0 ** (-d) * kn.leading_tensor(x, d), rtol=1e-13
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_symmetric(self, d):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, d))
        m = kn.leading_tensor(x, d)
        np.testing.assert_array_equal(m, np.swapaxes(m, -2, -1))

    def test_singular_at_origin(self):
        with pytest.raises(ValueError):
            kn.leading_tensor(np.zeros(2), 2)


class TestOseenKernel:
    @pytest.mark.parametrize("d", [2, 3])
    def test_scaling_relation(self, d):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, d)) * 3
        for t in (0.3, 1.0, 1.7):
            lhs = kn.oseen_kernel(x, t, d)
            rhs = t ** (-d / 2.0) * kn.oseen_kernel(x / math.sqrt(t), 1.0, d)
            assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()

    @pytest.mark.parametrize("d", [2, 3])
    def test_trace_identity(self, d):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(100, d)) * 2
        tr = np.trace(kn.oseen_kernel(x, 0.7, d), axis1=-2, axis2=-1)
        g = (d - 1) * kn.heat_kernel(x, 0.7, d)
        assert np.abs(tr - g).max() <= 1e-10 * np.abs(g).max()

    @pytest.mark.parametrize("d", [2, 3])
    def test_symmetry(self, d):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, d))
        m = kn.oseen_kernel(x, 0.5, d)
        assert np.abs(m - np.swapaxes(m, -2, -1)).max() == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_origin_is_removable(self, d):
        # K(0,t) = (d-1)/d * g_t(0) * I
        t = 0.8
        m = kn.oseen_kernel(np.zeros(d), t, d)
        expected = (d - 1) / d * kn.heat_kernel(np.zeros(d), t, d) * np.eye(d)
        np.testing.assert_allclose(m, expected, rtol=1e-13)

    @pytest.mark.parametrize("d", [2, 3])
    def test_series_branch_matches_direct_branch(self, d):
        # at the same u just above the switch, the series evaluation must agree
        # with the closed-form branch to near round-off
        u = np.array([1.05 * kn._SERIES_CUT])
        direct_mass = kn._mass_fraction_over_u(u, d)[0]
        direct_defect = kn._defect_over_u(u, d)[0]
        series_mass = sum(
            (-u[0]) ** m * (0.5 / math.factorial(m + 1) if d == 2 else 1.0 / (math.factorial(m) * (2 * m + 3)))
            for m in range(12)
        )
        series_defect = sum(
            (-1) ** (m + 1)
            * u[0] ** m
            * (m / math.factorial(m + 1) if d == 2 else 2.0 * m / (math.factorial(m) * (2 * m + 3)))
            for m in range(1, 13)
        )
        assert direct_mass == pytest.approx(series_mass, rel=1e-11)
        assert direct_defect == pytest.approx(series_defect, rel=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_mass_fraction_against_extended_precision(self, d):
        # H/A = lower_gamma(d/2, u) / (2 u^(d/2)) to 40 digits; just above the
        # series cut a closed form that cancels would lose digits here
        import mpmath

        us = [1.01e-3, 1.34e-3, 1.44e-3, 2e-3, 1e-2, 1.0, 10.0]
        got = kn._mass_fraction_over_u(np.array(us), d)
        with mpmath.workdps(40):
            half = mpmath.mpf(d) / 2
            for u, value in zip(us, got):
                exact = mpmath.gammainc(half, 0, u) / (2 * mpmath.mpf(u) ** half)
                assert value == pytest.approx(float(exact), rel=1e-14, abs=0), u

    @pytest.mark.parametrize("d", [2, 3])
    def test_decay_envelope_constant(self, d):
        c = kn.envelope_constant(d)
        assert 0 < c < 10.0

    def test_fourier_consistency_time_difference(self):
        # Inverse DFT of the symbol difference (delta - xi xi^T/|xi|^2)
        # (e^{-t|xi|^2} - e^{-t'|xi|^2}) must match the closed forms pointwise.
        # The difference has Gaussian tails in both spaces, so the periodic box
        # introduces no truncation error.
        d, L, N, t, t2 = 2, 16.0, 128, 0.25, 1.0
        k1 = 2 * np.pi * np.fft.fftfreq(N, d=2 * L / N)
        kx, ky = np.meshgrid(k1, k1, indexing="ij")
        k2 = kx * kx + ky * ky
        dec = np.exp(-t * k2) - np.exp(-t2 * k2)
        with np.errstate(invalid="ignore", divide="ignore"):
            proj = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
        kk = [kx, ky]
        xs = (np.arange(N) - N // 2) * (2 * L / N)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([X, Y], axis=-1)
        closed = kn.oseen_kernel(pts, t, d) - kn.oseen_kernel(pts, t2, d)
        mask = (np.abs(X) <= L / 2) & (np.abs(Y) <= L / 2)
        for j in range(d):
            for l in range(d):
                sym = ((j == l) - kk[j] * kk[l] * proj) * dec
                phys = np.real(np.fft.ifft2(sym)) * (N / (2 * L)) ** 2
                phys = np.fft.fftshift(phys)
                assert np.abs(phys - closed[..., j, l])[mask].max() < 1e-6


class TestPsiResidual:
    @pytest.mark.parametrize("d", [2, 3])
    def test_consistency_identity(self, d):
        # K(x,t) = leading(x) + |x|^{-d} Psi(x/sqrt(t)) at random points
        rng = np.random.default_rng(11)
        x = rng.normal(size=(100, d)) * 4
        t = np.exp(rng.uniform(-2, 1, size=100))
        for i in range(100):
            lhs = kn.oseen_kernel(x[i], t[i], d)
            r = np.linalg.norm(x[i])
            rhs = kn.leading_tensor(x[i], d) + r ** (-float(d)) * kn.psi_residual(
                x[i] / math.sqrt(t[i]), d
            )
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(lhs).max())

    def test_gaussian_decay_rate(self):
        # |Psi| ~ exp(-c |xi|^2) on |xi| in [1, 8]; fitted rate ends up near 1/4
        xi = np.linspace(1.0, 8.0, 40)
        pts = np.stack([xi, np.zeros_like(xi)], axis=-1)
        vals = frob(kn.psi_residual(pts, 2))
        slope = np.polyfit(xi**2, np.log(vals), 1)[0]
        assert -slope > 0.1

    def test_far_value_frozen(self):
        # |Psi(8 e1)|_F for d=2, computed from the closed forms: 5.9132e-7.
        # The e^{-16} Gaussian factor times |xi|^d sets the scale.
        val = frob(kn.psi_residual(np.array([8.0, 0.0]), 2))
        assert val == pytest.approx(5.9132e-7, rel=1e-3)
        assert val < 1e-6

    def test_singular_at_origin(self):
        with pytest.raises(ValueError):
            kn.psi_residual(np.zeros(3), 3)


class TestOseenGradKernel:
    @pytest.mark.parametrize("d", [2, 3])
    def test_scaling_relation(self, d):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(30, d)) * 2
        for t in (0.25, 2.0):
            lhs = oseen_grad_kernel(x, t, d)
            rhs = t ** (-(d + 1) / 2.0) * oseen_grad_kernel(x / math.sqrt(t), 1.0, d)
            assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_finite_differences(self, d):
        x0 = np.array([0.8, -0.4, 0.3][:d])
        t = 0.9
        f = oseen_grad_kernel(x0, t, d)
        h = 1e-6
        for l in range(d):
            e = np.zeros(d)
            e[l] = h
            fd = (kn.oseen_kernel(x0 + e, t, d) - kn.oseen_kernel(x0 - e, t, d)) / (2 * h)
            assert np.abs(f[:, :, l] - fd).max() < 1e-8

    @pytest.mark.parametrize("d", [2, 3])
    def test_solenoidal_finite_differences(self, d):
        # sum_j d_j K[j,k] = 0 for x != 0
        t, h = 0.9, 1e-5
        for x0 in (np.array([0.8, -0.4, 0.3][:d]), np.array([2.0, 1.0, -0.5][:d])):
            div = np.zeros(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                div += (kn.oseen_kernel(x0 + e, t, d) - kn.oseen_kernel(x0 - e, t, d))[j, :] / (2 * h)
            assert np.abs(div).max() < 1e-6

    @pytest.mark.parametrize("d", [2, 3])
    def test_small_u_series_branch(self, d):
        # W = (g - d H)/r^2 is summed as a series below u = r^2/(4t) = _SERIES_CUT
        t = 0.9
        rng = np.random.default_rng(29)
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        s = rng.normal(size=(d, d))
        s = s + s.T
        r_cut = math.sqrt(4.0 * t * kn._SERIES_CUT)
        below, above = (r_cut * f * direction for f in (1.0 - 1e-12, 1.0 + 1e-12))
        assert np.sum(below * below) / (4.0 * t) < kn._SERIES_CUT
        assert np.sum(above * above) / (4.0 * t) >= kn._SERIES_CUT
        lo = kn.oseen_grad_contract(below, t, d, s)
        hi = kn.oseen_grad_contract(above, t, d, s)
        assert np.abs(lo - hi).max() <= 1e-10 * np.abs(hi).max()
        # the series W against the direct defect/u form just above the cut
        u = 1.05 * kn._SERIES_CUT
        _, w_direct = kn._grad_pw(math.sqrt(4.0 * t * u) * direction, t, d)
        w_series = (-(4.0 * math.pi * t) ** (-d / 2.0)
                    * kn._defect_series_over_u(np.array([u]), d)[0] / (4.0 * t))
        assert w_series == pytest.approx(float(w_direct), rel=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_l1_norm_scales_as_inverse_sqrt_t(self, d):
        c1 = kn.oseen_l1_gradient_norm(1.0, d)
        for t in (0.25, 4.0):
            ct = kn.oseen_l1_gradient_norm(t, d)
            assert ct * math.sqrt(t) / c1 == pytest.approx(1.0, rel=1e-2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_decay_envelope_constant(self, d):
        c = kn.grad_envelope_constant(d)
        assert 0 < c < 10.0


class TestClosedFormConstants:
    """Kernel constants from the radial coefficients, with no direction
    sample and no rank-3 tensor."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_gradient_frobenius_norm_matches_tensor(self, d):
        rng = np.random.default_rng(59)
        r = np.logspace(-6, 2, 200)
        dirs = rng.normal(size=(r.size, d))
        x = r[:, None] * dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)
        for t in (0.04, 1.0, 6.0):
            f = oseen_grad_kernel(x, t, d)
            ref = np.sqrt(np.sum(f * f, axis=(-3, -2, -1)))
            np.testing.assert_allclose(kn._grad_frobenius_radial(r, t, d), ref, rtol=1e-14, atol=0)

    def test_constants_sample_no_direction(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a kernel constant sampled directions or built a tensor")

        for name in ("sphere_points", "oseen_kernel"):
            monkeypatch.setattr(kn, name, forbidden)
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        for d in (2, 3):
            assert kn.sphere_min(np.arange(1.0, d + 1.0), d) > 0.0
            assert kn.envelope_constant(d, 4, 4) > 0.0
            assert kn.grad_envelope_constant(d, 4, 4) > 0.0
            assert kn.oseen_l1_gradient_norm(1.0, d) > 0.0
            m1 = np.diag(np.arange(1.0, d + 1.0))
            assert np.any(kn.next_order_profile(np.ones((3, d)), m1, d) != 0.0)


class TestGradLeadingContract:
    @staticmethod
    def _symmetric(rng, n, d):
        a = rng.normal(size=(n, d, d))
        return a + np.swapaxes(a, -1, -2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_tensor_contraction(self, d):
        rng = np.random.default_rng(17)
        z = rng.normal(size=(40, d)) * 4
        s = self._symmetric(rng, 40, d)
        ref = np.einsum("...jkh,...kh->...j", grad_leading_tensor(z, d), s)
        got = kn.grad_leading_contract(z, d, s)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("d", [2, 3])
    def test_small_time_limit_of_oseen_contraction(self, d):
        rng = np.random.default_rng(19)
        z = rng.normal(size=(20, d)) * 3
        s = self._symmetric(rng, 20, d)
        r_min = float(np.linalg.norm(z, axis=-1).min())
        t = (r_min / 12.0) ** 2
        full = kn.oseen_grad_contract(z, t, d, s)
        lim = kn.grad_leading_contract(z, d, s)
        assert np.abs(full - lim).max() <= 1e-12 * np.abs(lim).max()

    def test_singular_at_origin(self):
        with pytest.raises(ValueError):
            kn.grad_leading_contract(np.zeros(2), 2, np.eye(2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_psi_bound_covers_dropped_part(self, d):
        # the bound at (r, t) covers every |z| >= r and tau <= t
        rng = np.random.default_rng(23)
        s = self._symmetric(rng, 1, d)[0]
        t = 0.7
        for c in (3.5, 5.0, 10.6):
            r = c * math.sqrt(t)
            bound = kn.psi_gradient_bound(r, t, d)
            worst = 0.0
            for tau in np.linspace(0.02, 1.0, 25) * t:
                z = rng.normal(size=(64, d))
                z *= (r * rng.uniform(1.0, 1.3, size=(64, 1))
                      / np.linalg.norm(z, axis=-1, keepdims=True))
                ss = np.broadcast_to(s, (64, d, d))
                diff = kn.oseen_grad_contract(z, tau, d, ss) - kn.grad_leading_contract(z, d, ss)
                worst = max(worst, float(np.linalg.norm(diff, axis=-1).max()))
            assert worst / np.linalg.norm(s) <= bound
        with pytest.raises(ValueError):
            kn.psi_gradient_bound(1.0, 1.0, d)


    @pytest.mark.parametrize("d", [2, 3])
    def test_psi_contract_is_oseen_minus_leading(self, d):
        # D = F - G in closed form; the direct difference is exact only up to
        # the rounding of F and G, so the scale is the larger of the two, and
        # where D is not small (u <= 3) also |F - G| itself
        rng = np.random.default_rng(31)
        t = 0.7
        u = np.logspace(-3, math.log10(50.0), 120)
        dirs = rng.normal(size=(u.size, d))
        z = (np.sqrt(4.0 * t * u) / np.linalg.norm(dirs, axis=-1))[:, None] * dirs
        s = self._symmetric(rng, u.size, d)
        full = kn.oseen_grad_contract(z, t, d, s)
        lead = kn.grad_leading_contract(z, d, s)
        got = kn.psi_grad_contract(z, t, d, s)
        err = np.linalg.norm(got - (full - lead), axis=-1)
        scale = np.maximum(np.linalg.norm(full, axis=-1), np.linalg.norm(lead, axis=-1))
        assert np.all(err <= 1e-13 * scale)
        near = u <= 3.0
        assert np.all(err[near] <= 1e-13 * np.linalg.norm(full - lead, axis=-1)[near])

    def test_psi_contract_singular_at_origin(self):
        with pytest.raises(ValueError):
            kn.psi_grad_contract(np.zeros(2), 1.0, 2, np.eye(2))


class TestComplexFlux:
    """The d = 2 complex forms against the real-tensor contractions of the
    traceless [[Re sigma, Im sigma], [Im sigma, -Re sigma]] and of a full
    symmetric tensor with that traceless part."""

    @staticmethod
    def _cases(seed, n=60):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, 2)) * 3
        z[0] = 0.0
        sigma = rng.normal(size=n) + 1j * rng.normal(size=n)
        tau = rng.uniform(0.05, 2.0, size=n)
        traceless = np.stack([np.stack([sigma.real, sigma.imag], axis=-1),
                              np.stack([sigma.imag, -sigma.real], axis=-1)], axis=-2)
        full = traceless + rng.normal(size=(n, 1, 1)) * np.eye(2)
        return z, sigma, tau, (traceless, full)

    @staticmethod
    def _assert_close(got, ref):
        ref = ref[..., 0] + 1j * ref[..., 1]
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_oseen_contract(self):
        z, sigma, tau, tensors = self._cases(41)
        got = kn.oseen_grad_contract(z, tau, 2, sigma)
        assert got[0] == 0.0
        for s in tensors:
            self._assert_close(got, kn.oseen_grad_contract(z, tau, 2, s))

    def test_psi_and_leading_contract(self):
        z, sigma, _, tensors = self._cases(43)
        z, sigma = z[1:], sigma[1:]
        for s in tensors:
            self._assert_close(kn.psi_grad_contract(z, 0.7, 2, sigma),
                               kn.psi_grad_contract(z, 0.7, 2, s[1:]))
            self._assert_close(kn.grad_leading_contract(z, 2, sigma),
                               kn.grad_leading_contract(z, 2, s[1:]))
        with pytest.raises(ValueError):
            kn.grad_leading_contract(np.zeros(2), 2, 1.0 + 0.5j)
        with pytest.raises(ValueError):
            kn.psi_grad_contract(np.zeros(2), 1.0, 2, 1.0 + 0.5j)

    def test_array_time_matches_one_call_per_time(self):
        z, sigma, _, _ = self._cases(47, n=4 * 30)
        taus = np.array([0.02, 0.3, 1.0, 2.5])
        blocks = [slice(30 * i, 30 * (i + 1)) for i in range(4)]
        ref = np.concatenate([kn.oseen_grad_contract(z[b], tau, 2, sigma[b])
                              for b, tau in zip(blocks, taus)])
        flat = kn.oseen_grad_contract(z, np.repeat(taus, 30), 2, sigma)
        broadcast = kn.oseen_grad_contract(z.reshape(4, 30, 2), taus[:, None], 2,
                                           sigma.reshape(4, 30))
        np.testing.assert_array_equal(flat, ref)
        np.testing.assert_array_equal(broadcast.ravel(), ref)

    def test_array_time_rejects_nonpositive(self):
        z, sigma, tau, _ = self._cases(53)
        for bad in (0.0, -0.5, math.nan):
            t = tau.copy()
            t[7] = bad
            with pytest.raises(ValueError):
                kn.oseen_grad_contract(z, t, 2, sigma)


class TestProfileField:
    def test_zero_amplitude(self):
        omega = kn.sphere_points(2, 16)
        np.testing.assert_array_equal(kn.profile_field(omega, np.zeros(2), 2), 0.0)

    def test_d2_constant_modulus(self):
        # |leading(omega) c| = |c| / (2 pi) for every unit direction in d=2
        omega = kn.sphere_points(2, 1000)
        vals = np.linalg.norm(kn.profile_field(omega, np.array([1.0, 0.0]), 2), axis=-1)
        np.testing.assert_allclose(vals, 1.0 / (2 * math.pi), rtol=1e-12)

    def test_d3_modulus_range(self):
        omega = kn.sphere_points(3, 8192)
        vals = np.linalg.norm(kn.profile_field(omega, np.array([1.0, 0.0, 0.0]), 3), axis=-1)
        assert vals.min() == pytest.approx(1.0 / (4 * math.pi), rel=1e-3)
        assert vals.max() == pytest.approx(1.0 / (2 * math.pi), rel=1e-3)


class TestSphereMin:
    def test_zero_iff_zero(self):
        assert kn.sphere_min(np.zeros(2), 2) == 0.0
        rng = np.random.default_rng(17)
        for d in (2, 3):
            for _ in range(5):
                c = rng.normal(size=d)
                assert kn.sphere_min(c, d) > 0.2 * np.linalg.norm(c) / kn.SPHERE_AREA[d]

    def test_d2_value(self):
        assert kn.sphere_min(np.array([3.0, 4.0]), 2) == pytest.approx(5.0 / (2 * math.pi), rel=1e-10)

    def test_d3_value(self):
        assert kn.sphere_min(np.array([0.0, 0.0, 2.0]), 3) == pytest.approx(
            1.0 / (2 * math.pi), rel=1e-4
        )


class TestNextOrderProfile:
    def test_zero_moment(self):
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(kn.next_order_profile(x, np.zeros((2, 2)), 2), 0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_homogeneous_degree(self, d):
        rng = np.random.default_rng(19)
        m1 = rng.normal(size=(d, d))
        x = rng.normal(size=(20, d))
        np.testing.assert_allclose(
            kn.next_order_profile(2 * x, m1, d),
            2.0 ** (-(d + 1)) * kn.next_order_profile(x, m1, d),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_tensor_contraction(self, d):
        # the full gradient tensor, any moment matrix (symmetric or not)
        rng = np.random.default_rng(61)
        m1 = rng.normal(size=(d, d))
        x = rng.normal(size=(40, d)) * 4
        ref = np.einsum("...jkh,hk->...j", grad_leading_tensor(x, d), m1)
        got = kn.next_order_profile(x, m1, d)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_matches_finite_difference_contraction(self):
        # j-component = sum_{h,k} d_h leading[j,k](x) M1[h,k], against central FD
        d = 2
        x0 = np.array([1.0, 0.0])
        m1 = np.eye(2)
        val = kn.next_order_profile(x0, m1, d)
        h = 1e-6
        fd = np.zeros(d)
        for hh in range(d):
            e = np.zeros(d)
            e[hh] = h
            dm = (kn.leading_tensor(x0 + e, d) - kn.leading_tensor(x0 - e, d)) / (2 * h)
            fd += np.einsum("jk,k->j", dm, m1[hh])
        assert np.abs(val - fd).max() <= 1e-6 * max(1.0, np.abs(val).max())

    def test_general_point_fd_oracle(self):
        rng = np.random.default_rng(23)
        for d in (2, 3):
            m1 = rng.normal(size=(d, d))
            x0 = np.array([0.7, -1.1, 0.4][:d])
            val = kn.next_order_profile(x0, m1, d)
            h = 1e-6
            fd = np.zeros(d)
            for hh in range(d):
                e = np.zeros(d)
                e[hh] = h
                dm = (kn.leading_tensor(x0 + e, d) - kn.leading_tensor(x0 - e, d)) / (2 * h)
                fd += np.einsum("jk,k->j", dm, m1[hh])
            np.testing.assert_allclose(val, fd, rtol=1e-6)


class TestGaussPanels:
    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_exact_to_degree_2n_minus_1(self, order):
        edges = np.array([-1.3, -0.2, 0.05, 1.7, 4.0])
        nodes, weights = kn.gauss_panels(edges[:-1], edges[1:], order)
        assert nodes.shape == weights.shape == (4, order)
        coef = np.random.default_rng(41).normal(size=2 * order)
        poly = np.polynomial.Polynomial(coef)
        exact = poly.integ()(edges[1:]) - poly.integ()(edges[:-1])
        np.testing.assert_allclose(np.sum(weights * poly(nodes), axis=-1), exact,
                                   rtol=1e-13, atol=1e-13)

    def test_nodes_are_mid_plus_half_xi(self):
        lo, hi = np.array([0.0, 0.3, 1.1]), np.array([0.3, 1.1, 2.9])
        xi, w = np.polynomial.legendre.leggauss(4)
        nodes, weights = kn.gauss_panels(lo, hi, 4)
        for i in range(lo.size):
            mid, half = 0.5 * (hi[i] + lo[i]), 0.5 * (hi[i] - lo[i])
            assert np.array_equal(nodes[i], mid + half * xi)
            assert np.array_equal(weights[i], half * w)
        scalar = kn.gauss_panels(0.3, 1.1, 4)
        assert np.array_equal(scalar[0], nodes[1]) and np.array_equal(scalar[1], weights[1])


class TestProjectedGaussian:
    @pytest.mark.parametrize("d", [2, 3])
    def test_oseen_columns_agree(self, d):
        # K(.,t) columns are projected Gaussians with A=(4 pi t)^{-d/2}, w=2 sqrt(t)
        rng = np.random.default_rng(29)
        x = rng.normal(size=(30, d)) * 2
        t = 0.6
        amp = (4 * math.pi * t) ** (-d / 2.0)
        width = 2 * math.sqrt(t)
        kern = kn.oseen_kernel(x, t, d)
        for k in range(d):
            e = np.zeros(d)
            e[k] = 1.0
            col = kn.projected_gaussian(x, amp, width, e, d)
            np.testing.assert_allclose(col, kern[..., :, k], rtol=1e-12, atol=1e-16)

    @pytest.mark.parametrize("d", [2, 3])
    def test_array_amplitude_and_width(self, d):
        # a (k, 1) amplitude/width stack gives the k scalar calls, bit for bit
        rng = np.random.default_rng(37)
        x = rng.normal(size=(25, d)) * 3
        c = rng.normal(size=d)
        amp = rng.uniform(0.1, 1.0, size=6)
        width = rng.uniform(0.5, 3.0, size=6)
        got = kn.projected_gaussian(x, amp[:, None], width[:, None], c, d)
        ref = np.stack([kn.projected_gaussian(x, float(a), float(w), c, d)
                        for a, w in zip(amp, width)])
        assert got.shape == (6, 25, d) and np.array_equal(got, ref)
