"""Mild solver: Picard contraction, Duhamel terms, far-field evaluation."""

import math

import numpy as np
import pytest

from nsfarfield import solver as sv
from nsfarfield.forcing import (
    ForceModel,
    GaussianBump,
    SeparableTerm,
    SmoothBump,
    build_initial_data,
    force_integral,
)
from nsfarfield.grid import BoxGrid, leray_apply
from nsfarfield.kernels import profile_field, sphere_points

L, N, T, M = 16.0, 128, 0.5, 32


@pytest.fixture(scope="module")
def box():
    return BoxGrid(2, L, N)


def bump_force(amp=0.002, width=1.0, t_off=0.5):
    term = SeparableTerm(GaussianBump(2, width=width), SmoothBump(0.0, t_off), (amp, 0.0))
    return ForceModel(2, terms=[term])


@pytest.fixture(scope="module")
def opts():
    return sv.SolverOptions(slices=M, tol=1e-12)


@pytest.fixture(scope="module")
def canonical(box, opts):
    a = build_initial_data(2, kind="zero")
    f = bump_force()
    traj = sv.picard_solve(a, f, box, T, opts)
    return a, f, traj


class TestLinearResponse:
    def test_zero_force(self, box, opts):
        f = ForceModel.zero(2)
        fld = sv.linear_response(f, 0.5, grid=box, slices=8, opts=opts)
        assert np.abs(fld.components).max() == 0.0
        vals, err = sv.linear_response(f, 0.5, x=np.array([1.0, 2.0]), opts=opts)
        assert np.abs(vals).max() == 0.0 and err == 0.0

    def test_grid_vs_point_mode(self, box, opts):
        # the box field is the periodization of the free-space response minus
        # its mean, so compare pairwise differences against the point mode
        # summed over the first ring of periodic images
        f = bump_force()
        t = 0.5
        fld = sv.linear_response(f, t, grid=box, slices=M, opts=opts)
        pts = np.array([[1.0, 0.0], [2.0, 1.0], [0.5, -1.5], [3.0, 0.25],
                        [-2.0, 2.0], [4.0, -3.0], [0.25, 3.0], [-1.0, -1.0],
                        [2.5, -0.5], [-3.5, 0.75], [1.75, 1.75], [0.0, -2.25],
                        [3.25, 2.0], [-0.5, 0.5], [1.0, -3.0], [-2.75, -1.25],
                        [0.75, 2.5], [2.0, -2.0], [-1.5, 2.75], [3.75, 0.0]])
        shifts = [np.array([i * 2 * L, j * 2 * L]) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        point = np.zeros_like(pts)
        for s in shifts:
            v, _ = sv.linear_response(f, t, x=pts + s, slices=M, opts=opts)
            point += v
        idx = np.rint((pts + L) / box.spacing).astype(int)
        grid_vals = np.stack([fld.components[:, i, j] for i, j in idx])
        dg = grid_vals - grid_vals[0]
        dp = point - point[0]
        scale = np.abs(point).max()
        assert np.abs(dg - dp).max() < 1e-4 * scale

    def test_decay_envelope_constant(self, box, opts):
        # |L(f)(x,t)| <= C eps min((1+|x|)^{-d}, (1+t)^{-d/2}) with moderate C
        f = bump_force()
        from nsfarfield.forcing import validate_assumptions

        eps = validate_assumptions(f, 1.0, points_per_axis=96, time_samples=65).epsilon_f1
        worst = 0.0
        for t in (0.25, 0.5):
            radii = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
            theta = np.linspace(0, 2 * math.pi, 6, endpoint=False)
            dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            x = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
            vals, _ = sv.linear_response(f, t, x=x, slices=M, opts=opts)
            mag = np.linalg.norm(vals, axis=-1)
            r = np.linalg.norm(x, axis=-1)
            bound = np.minimum((1 + r) ** (-2.0), (1 + t) ** (-1.0))
            worst = max(worst, float((mag / bound).max()) / eps)
        assert worst < 50.0


# ---------------------------------------------------------------------------
# Per-node reference loops, the oracle for the fused series: every node of
# every slice recomputes exp(-(t1 - s)|k|^2) and, for B, the Lagrange
# combination, where the solver folds both into per-slice weight fields.
# ---------------------------------------------------------------------------


def _slice_nodes(t0, t1, opts):
    """(s, half * wgt) for every GL4 node of the graded panels of [t0, t1]."""
    for lo, hi in sv._graded_panels(t0, t1, sv._GRADING_LEVELS, opts.refine):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        for node, wgt in zip(*np.polynomial.legendre.leggauss(4)):
            yield mid + half * node, half * wgt


def reference_linear_series(ops, f, times, opts):
    d = ops.grid.d
    terms = sv._force_spectra(ops, f)
    acc = np.zeros((d,) + ops.shape, dtype=complex)
    out = [np.zeros((d,) + ops.grid.shape)]
    for m in range(1, times.size):
        acc *= np.exp(-(times[m] - times[m - 1]) * ops.k2)
        for s, weight in _slice_nodes(times[m - 1], times[m], opts):
            for tau, spec in terms:
                tv = float(tau.value(s))
                if tv != 0.0:
                    acc += np.exp(-(times[m] - s) * ops.k2) * ((weight * tv) * spec)
        out.append(ops.ifft(acc))
    return out


def reference_bilinear_series(ops, snapshots, drift, times, opts):
    d = ops.grid.d
    acc = np.zeros((d,) + ops.shape, dtype=complex)
    out = [np.zeros((d,) + ops.grid.shape)]
    for m in range(1, times.size):
        acc *= np.exp(-(times[m] - times[m - 1]) * ops.k2)
        idx = sv._stencil(m, times.size - 1)
        stack = [ops.momentum_flux_divergence(snapshots[i], drift[i]) for i in idx]
        for s, weight in _slice_nodes(times[m - 1], times[m], opts):
            lw = sv._lagrange_weights(times[idx], s)
            q = sum(lw[j] * stack[j] for j in range(len(idx)))
            acc += weight * np.exp(-(times[m] - s) * ops.k2) * q
        out.append(ops.ifft(acc))
    return out


def reference_heat_series(ops, a, times):
    spec = ops.project(ops.fft(a.to_field(ops.grid).components))
    spec[(slice(None),) + (0,) * ops.grid.d] = 0.0
    out = [ops.ifft(spec)]
    for m in range(1, times.size):
        spec = spec * np.exp(-(times[m] - times[m - 1]) * ops.k2)
        out.append(ops.ifft(spec))
    return out


def _max_relative_gap(series, reference):
    scale = max(np.abs(r).max() for r in reference)
    assert scale > 0
    return max(np.abs(s - r).max() for s, r in zip(series, reference)) / scale


class TestFusedTimeQuadrature:
    # slices 1, 2, 3 give the short stencils (2 and 3 slices wide, every
    # offset); 8 gives the three 4-slice patterns of a long history
    GRID = BoxGrid(2, 8.0, 32)

    @pytest.fixture(scope="class")
    def history(self):
        rng = np.random.default_rng(11)
        snaps = [0.01 * rng.normal(size=(2, 32, 32)) for _ in range(9)]
        return snaps, 1e-3 * rng.normal(size=(9, 2))

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("slices", [1, 2, 3, 8])
    def test_matches_per_node_loop(self, history, slices, refine):
        ops = sv._SpectralOps(self.GRID)
        opts = sv.SolverOptions(slices=slices, refine=refine)
        times = np.linspace(0.0, 0.5, slices + 1)
        snaps, drift = history
        bil = sv._bilinear_series(ops, snaps, drift, times, opts)
        ref = reference_bilinear_series(ops, snaps, drift, times, opts)
        assert _max_relative_gap(bil, ref) <= 1e-13
        # the force switches off inside the horizon, so some nodes see tau = 0
        f = bump_force(t_off=0.3)
        lin = sv._linear_series(ops, f, times, opts)
        assert _max_relative_gap(lin, reference_linear_series(ops, f, times, opts)) <= 1e-13
        a = build_initial_data(2, kind="curl_bump", amplitude=0.01, width=1.0)
        heat = sv._heat_series(ops, a, times)
        assert _max_relative_gap(heat, reference_heat_series(ops, a, times)) <= 1e-13

    def test_non_uniform_times_rejected(self, history):
        ops = sv._SpectralOps(self.GRID)
        opts = sv.SolverOptions(slices=4)
        times = np.array([0.0, 0.1, 0.2, 0.35, 0.5])
        snaps, drift = history
        with pytest.raises(ValueError, match="uniform"):
            sv._bilinear_series(ops, snaps, drift, times, opts)
        with pytest.raises(ValueError, match="uniform"):
            sv._linear_series(ops, bump_force(), times, opts)
        with pytest.raises(ValueError, match="uniform"):
            sv._heat_series(ops, build_initial_data(2, kind="zero"), times)


class TestHalfSpectrum:
    # the full-spectrum reference: complex fftn over all modes, the real part
    # of every inverse transform
    @staticmethod
    def full_ifft(spec, d):
        return np.real(np.fft.ifftn(spec, axes=tuple(range(1, d + 1))))

    @pytest.fixture(params=[(2, 32), (3, 16)], ids=["d2", "d3"])
    def field(self, request):
        d, n = request.param
        grid = BoxGrid(d, 4.0, n)
        u = np.random.default_rng(5).normal(size=(d,) + grid.shape)
        return grid, sv._SpectralOps(grid), u

    def test_project_and_ifft(self, field):
        grid, ops, u = field
        full = np.fft.fftn(u, axes=tuple(range(1, grid.d + 1)))
        ref = self.full_ifft(leray_apply(full, grid.wavenumbers, grid.inverse_k_squared),
                             grid.d)
        assert np.abs(ops.ifft(ops.project(ops.fft(u))) - ref).max() <= 1e-14 * np.abs(ref).max()
        ref = self.full_ifft(full * np.exp(-0.1 * grid.k_squared), grid.d)
        out = ops.ifft(ops.fft(u) * np.exp(-0.1 * ops.k2))
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_momentum_flux_divergence(self, field):
        grid, ops, u = field
        d = grid.d
        drift = np.linspace(0.5, -0.5, d)
        full_u = u + drift.reshape((d,) + (1,) * d)
        div = np.zeros((d,) + grid.shape, dtype=complex)
        for kk in range(d):
            for ll in range(d):
                w_hat = np.fft.fftn(full_u[kk] * full_u[ll]) * grid.dealias_mask
                div[kk] += 1j * grid.wavenumbers[ll] * w_hat
        ref = self.full_ifft(leray_apply(div, grid.wavenumbers, grid.inverse_k_squared), d)
        out = ops.ifft(ops.momentum_flux_divergence(u, drift))
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


class TestPicard:
    def test_zero_everything_converges_immediately(self, box):
        a = build_initial_data(2, kind="zero")
        traj = sv.picard_solve(a, ForceModel.zero(2), box, 1.0,
                               sv.SolverOptions(slices=8, tol=1e-12))
        assert len(traj.iteration_log) == 1
        assert max(np.abs(s).max() for s in traj.snapshots) == 0.0

    def test_horizon_guard(self, box):
        a = build_initial_data(2, kind="zero")
        with pytest.raises(ValueError, match="L/8"):
            sv.picard_solve(a, ForceModel.zero(2), box, 10.0, sv.SolverOptions(slices=8))

    def test_admission_guard(self, box):
        a = build_initial_data(2, kind="zero")
        f = bump_force(amp=1.0)  # wildly too large
        with pytest.raises(sv.AdmissionError):
            sv.picard_solve(a, f, box, T, sv.SolverOptions(slices=8))

    def test_contraction_log_and_residual(self, canonical, opts):
        a, f, traj = canonical
        assert traj.contractive
        assert traj.iteration_log[0] > traj.iteration_log[-1]
        res = sv.integral_residual(traj, a, f, opts)
        assert res < 2 * opts.tol

    def test_snapshots_divergence_free(self, canonical):
        _, _, traj = canonical
        for i in (0, M // 2, M):
            assert traj.field_at(traj.times[i]).is_divergence_free(1e-10)

    def test_amplitude_halving_order(self, box, opts):
        # u - L(f) must scale like the amplitude squared
        a = build_initial_data(2, kind="zero")
        dev = {}
        for lam in (0.002, 0.001):
            f = bump_force(amp=lam)
            traj = sv.picard_solve(a, f, box, T, opts)
            ops = sv._SpectralOps(box)
            lin = sv._linear_series(ops, f, traj.times, opts)
            dev[lam] = max(
                sv.grid_l2(traj.snapshots[m] - lin[m], box) for m in range(M + 1)
            )
        ratio = dev[0.002] / dev[0.001]
        assert 3.5 <= ratio <= 4.5

    def test_drift_matches_force_integral(self, canonical, box):
        _, f, traj = canonical
        vol = (2 * L) ** 2
        for i in (0, M // 2, M):
            expected = force_integral(f, float(traj.times[i])) / vol
            np.testing.assert_allclose(traj.drift[i], expected, rtol=1e-12)


class TestBilinear:
    def test_zero_history(self, box, opts):
        a = build_initial_data(2, kind="zero")
        traj = sv.picard_solve(a, ForceModel.zero(2), box, 0.5,
                               sv.SolverOptions(slices=8, tol=1e-12))
        fld = sv.bilinear_term(traj, 0.5, opts=opts)
        assert np.abs(fld.components).max() == 0.0

    def test_quadratic_scaling_exact(self, canonical, box, opts):
        # scaling the history by lambda scales B by lambda^2 to round-off
        _, _, traj = canonical
        scaled = sv.Trajectory(box, traj.times, [2.0 * s for s in traj.snapshots],
                               2.0 * traj.drift, traj.iteration_log)
        b1 = sv.bilinear_term(traj, T, opts=opts).components
        b2 = sv.bilinear_term(scaled, T, opts=opts).components
        assert np.abs(b2 - 4.0 * b1).max() <= 1e-12 * np.abs(b2).max()

    def test_farfield_envelope_stable(self, canonical, opts):
        # |B(x,t)| <= C sqrt(t) |x|^{-d-1} with C stable across octaves
        _, _, traj = canonical
        t = T
        theta = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        consts = []
        for r in (L / 2, L, 2 * L, 4 * L):
            vals, _ = sv.bilinear_term(traj, t, x=r * dirs, opts=opts)
            consts.append(np.max(np.linalg.norm(vals, axis=-1)) * r**3 / math.sqrt(t))
        assert max(consts) / min(consts) < 2.0

    def test_missing_history_guard(self, canonical, opts):
        _, _, traj = canonical
        with pytest.raises(ValueError):
            sv.bilinear_term(traj, 2 * T, opts=opts)

    def test_collapsed_far_pairs_match_all_pairs_reference(self, canonical, opts,
                                                           monkeypatch):
        # the reference keeps every (pair, node) entry: the full kernel at
        # every time node, the evaluator as it stood before the split.  The
        # L/2 ring and the box corner pass next to source points, and
        # (-L/2, 0) is one
        _, _, traj = canonical
        dirs = sphere_points(2, 8)
        on_source = np.array([[-L / 2, 0.0]])
        assert np.any(np.all(traj.flux_history()[0] == on_source, axis=-1))
        cases = [(r * dirs, t) for r in (L / 2, L / 2 * math.sqrt(2), L, 2 * L, 4 * L)
                 for t in (T / 2, T)]
        cases += [(on_source, t) for t in (T / 2, T)]
        split = [sv._bilinear_point(traj, x, t, opts) for x, t in cases]
        monkeypatch.setattr(sv, "FAR_CUTOFF", math.inf)
        for (x, t), (vals, budget) in zip(cases, split):
            ref, ref_budget = sv._bilinear_point(traj, x, t, opts)
            gap = np.linalg.norm(vals - ref, axis=-1)
            assert gap.max() <= 1e-9 * np.linalg.norm(ref, axis=-1).min()
            assert budget["psi_cutoff"] >= gap.max()
            assert ref_budget["psi_cutoff"] == 0.0

    def test_complex_flux_history_matches_real_tensor(self, canonical):
        # sigma = (Q_11 - Q_22)/2 + i Q_12 of Q = (u + D)(x)(u + D), and
        # flux_mass sums |Q|_F = 2 |sigma|
        _, _, traj = canonical
        pts_y, fluxes = traj.flux_history()
        sl = slice(N // 4, 3 * N // 4)
        real = []
        for i, comps in enumerate(traj.snapshots):
            u = comps[:, sl, sl].reshape(2, -1) + traj.drift[i][:, None]
            q = np.einsum("ky,ly->ykl", u, u)
            sigma = 0.5 * (q[:, 0, 0] - q[:, 1, 1]) + 1j * q[:, 0, 1]
            frob = np.sqrt(np.sum(q**2, axis=(-2, -1)))
            assert fluxes[i].dtype == complex and fluxes[i].shape == (pts_y.shape[0],)
            assert np.all(np.abs(fluxes[i] - sigma) <= 1e-15 * frob)
            real.append(frob)
        hist = sv._collapsed_history(traj, traj.slice_index(T), sv.SolverOptions(slices=M))
        w_abs = np.zeros(len(fluxes))
        for _, weight, idx, lw in hist.nodes4:
            w_abs[idx] += weight * np.abs(lw)
        mass = sum(w_abs[i] * real[i] for i in np.flatnonzero(w_abs))
        np.testing.assert_allclose(hist.flux_mass, mass, rtol=1e-15, atol=0.0)

    def test_kernel_evaluations_match_node_reach(self, canonical, monkeypatch):
        # D is evaluated once per (pair, node) entry with |x - y|^2 < c^2 (t - s)
        # outside the core, F once per (core pair, node), and neither elsewhere
        from nsfarfield import kernels

        _, _, traj = canonical
        pts_y, fluxes = traj.flux_history()
        m_t = traj.slice_index(T)
        hist = sv._collapsed_history(traj, m_t, sv.SolverOptions(slices=M))
        x = np.concatenate([(L / 2) * sphere_points(2, 8), [[-L / 2, 0.0], [9.3, 2.1]]])
        z = x[:, None, :] - pts_y[None, :, :]
        r2 = np.sum(z * z, axis=-1)
        counted = {}
        for name in ("psi_grad_contract", "oseen_grad_contract"):
            def counting(zz, *args, _fn=getattr(kernels, name), _name=name):
                counted[_name] = counted.get(_name, 0) + len(zz)
                return _fn(zz, *args)
            monkeypatch.setattr(kernels, name, counting)
        _, core = sv._pair_values(z, r2, T, hist.q4, hist.nodes4, fluxes)
        taus = T - np.array([node[0] for node in hist.nodes4])
        reach = sv.FAR_CUTOFF**2 * taus
        assert np.array_equal(core, r2 < max(reach.min(), 4.0 * taus.max()))
        expected = sum(int(np.count_nonzero((r2 < c2) & ~core)) for c2 in reach)
        assert core.any() and 0 < counted["psi_grad_contract"] == expected
        assert counted["oseen_grad_contract"] == int(core.sum()) * taus.size
        assert expected < 0.1 * r2.size * taus.size

    def test_threaded_flow_is_one_serial_batch(self, canonical, opts, monkeypatch):
        # a thread count leaves the batch on the calling thread, as one
        # farfield_velocity call; the first 8 points are the L/2 ring
        import threading

        from nsfarfield import cli

        def refuse(self):
            raise RuntimeError("far-field batch started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        a, f, traj = canonical
        x = np.concatenate([(L / 2) * sphere_points(2, 8), [[12.0, 3.0], [-20.0, 5.5]]])
        got = cli._ThreadedFlow(traj, a, f, opts, threads=2).velocity(x, T)
        assert np.array_equal(got, sv.farfield_velocity(traj, a, f, x, T, opts)[0])


class TestFarField:
    def test_zero_scenario(self, box, opts):
        a = build_initial_data(2, kind="zero")
        f = ForceModel.zero(2)
        traj = sv.picard_solve(a, f, box, 0.5, sv.SolverOptions(slices=8, tol=1e-12))
        vel, _ = sv.farfield_velocity(traj, a, f, np.array([4.0, 3.0]), 0.5, opts)
        assert np.abs(vel).max() == 0.0

    def test_matches_leading_profile_far_out(self, canonical, opts):
        a, f, traj = canonical
        x = np.array([12.0, 5.0])
        vel, budget = sv.farfield_velocity(traj, a, f, x, T, opts)
        pred = profile_field(x, force_integral(f, T), 2)
        rel = np.linalg.norm(vel - pred) / np.linalg.norm(pred)
        assert rel < 1e-3
        assert budget and all(v >= 0 for v in budget.values())

    def test_kernel_route_values_independent_of_batch(self, canonical, opts):
        # each point's value is its own sum over sources, so the checks may
        # sample every sphere of one time in one batch: the batch, its
        # reversal and row-by-row evaluation agree bit for bit, inside L/2
        # as well as beyond it
        a, f, traj = canonical
        x = np.concatenate([r * sphere_points(2, 8)
                            for r in (1.0, 2.5, 6.0, L / 2, L, 3 * L)])
        batch, _ = sv.farfield_velocity(traj, a, f, x, T, opts)
        rows = np.array([sv.farfield_velocity(traj, a, f, xi, T, opts)[0] for xi in x])
        reverse, _ = sv.farfield_velocity(traj, a, f, x[::-1], T, opts)
        assert np.array_equal(batch, rows)
        assert np.array_equal(batch, reverse[::-1])

    def test_interior_bilinear_matches_grid_field(self, canonical, opts):
        # inside |x| < L/2 the far-field assembly takes the same kernel route:
        # at lattice points its B = heat + L - u is the grid field's B, within
        # the batch's bilinear budget, and the budget is reported
        a, f, traj = canonical
        pts = np.array([(0.5, 0.5), (1.0, 0.0), (3.5, 0.0), (2.75, -2.75),
                        (4.0, 4.0), (7.0, 0.0)])
        assert np.linalg.norm(pts, axis=-1).max() < L / 2
        u, budget = sv.farfield_velocity(traj, a, f, pts, T, opts)
        b = a.value(pts, T) + sv.linear_response(f, T, x=pts, slices=M, opts=opts)[0] - u
        field = sv.bilinear_term(traj, T, opts=opts).components
        idx = np.rint((pts + L) / traj.grid.spacing).astype(int)
        b_grid = np.stack([field[:, i, j] for i, j in idx])
        gap = np.linalg.norm(b - b_grid, axis=-1)
        keys = [f"bilinear_{k}" for k in ("time_quadrature", "space_quadrature",
                                          "truncation", "psi_cutoff")]
        assert all(k in budget for k in keys)
        assert np.all(gap <= 0.2 * np.linalg.norm(b_grid, axis=-1))
        assert gap.max() <= sum(budget[k] for k in keys)

    def test_linear_point_matches_per_node_sum(self, opts):
        # the blocked evaluation sums the same (node, term) values in the
        # same order as one projected Gaussian per node and term
        from nsfarfield import kernels

        terms = [SeparableTerm(GaussianBump(2, width=1.0, center=(0.5, -0.25)),
                               SmoothBump(0.0, 0.3), (0.002, 0.001)),
                 SeparableTerm(GaussianBump(2, width=1.5), SmoothBump(0.1, 0.5), (-0.001, 0.0))]
        f = ForceModel(2, terms=terms)
        x = np.concatenate([r * sphere_points(2, 6) for r in (3.0, 10.0, 40.0)])
        t = 0.4
        got, err = sv._linear_point(f, x, t, opts, slices_hint=16)
        edges = np.linspace(0.0, t, 17)
        panels = [p for i in range(15) for p in sv._graded_panels(edges[i], edges[i + 1], 0, 1)]
        panels += sv._graded_panels(edges[-2], edges[-1], sv._GRADING_LEVELS, 1)
        sums = []
        for order in (4, 2):
            rule = np.polynomial.legendre.leggauss(order)
            acc = np.zeros_like(x)
            for lo, hi in panels:
                mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
                for node, wgt in zip(*rule):
                    s = mid + half * node
                    for term in terms:
                        tv = float(term.time_profile.value(s))
                        if tv:
                            amp, width = term.profile.heat_evolved(t - s)
                            acc += (half * wgt * tv) * kernels.projected_gaussian(
                                x - np.asarray(term.profile.center), amp, width,
                                np.asarray(term.amplitude), 2)
            sums.append(acc)
        assert np.array_equal(got, sums[0])
        assert err == float(np.max(np.linalg.norm(sums[0] - sums[1], axis=-1)))

    def test_interior_cross_check(self, box, opts):
        # snapshot (mean-free box field) vs the point-mode assembly, compared
        # through pairwise differences with two rings of periodic images
        # (image copies only need the linear terms; their bilinear part is
        # smaller by the amplitude squared over the image distance cubed)
        w = 0.5
        a = build_initial_data(2, kind="curl_bump", amplitude=0.001, width=w)
        f = bump_force(amp=0.004, width=w)
        traj = sv.picard_solve(a, f, box, T, opts)
        t = T
        pts = np.array([(3.5, 0.0), (0.0, 4.0), (-3.75, 0.5), (2.75, -2.75),
                        (3.25, 2.0), (-2.5, -3.0), (4.0, 4.0)])
        assert np.linalg.norm(pts, axis=-1).min() > max(a.support_radius(), f.support_radius())
        point, _ = sv.farfield_velocity(traj, a, f, pts, t, opts)
        for i in range(-2, 3):
            for j in range(-2, 3):
                if i == j == 0:
                    continue
                shift = np.array([i * 2 * L, j * 2 * L])
                x = pts + shift
                point += a.value(x, t) + sv.linear_response(f, t, x=x, slices=M,
                                                            opts=opts)[0]
        idx = np.rint((pts + L) / box.spacing).astype(int)
        grid_vals = np.stack([traj.field_at(t).components[:, i, j] for i, j in idx])
        dg = grid_vals - grid_vals[-1]
        dp = point - point[-1]
        assert np.abs(dg - dp).max() < 1e-3 * np.abs(grid_vals).max()

    def test_stokes_check(self, box, opts):
        # the point assembly of heat + L alone, compared against the grid-mode
        # Stokes solution the same way
        w = 0.5
        a = build_initial_data(2, kind="curl_bump", amplitude=0.001, width=w)
        f = bump_force(amp=0.004, width=w)
        traj = sv.picard_solve(a, f, box, T, opts)
        t = T
        ops = sv._SpectralOps(box)
        stokes = sv._heat_series(ops, a, traj.times)[-1] + sv._linear_series(
            ops, f, traj.times, opts)[-1]
        pts = np.array([(3.5, 0.0), (0.0, 4.0), (2.75, -2.75), (4.0, 4.0)])
        shifts = [np.array([i * 2 * L, j * 2 * L])
                  for i in range(-2, 3) for j in range(-2, 3)]
        point = np.zeros_like(pts)
        for s in shifts:
            x = pts + s
            point += a.value(x, t) + sv.linear_response(f, t, x=x, slices=M, opts=opts)[0]
        idx = np.rint((pts + L) / box.spacing).astype(int)
        grid_vals = np.stack([stokes[:, i, j] for i, j in idx])
        dg = grid_vals - grid_vals[-1]
        dp = point - point[-1]
        assert np.abs(dg - dp).max() < 1e-4 * np.abs(grid_vals).max()


class TestPersistence:
    def test_round_trip(self, canonical, tmp_path):
        _, _, traj = canonical
        traj.save(tmp_path / "traj")
        back = sv.load_trajectory(tmp_path / "traj")
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.drift, traj.drift)
        assert back.iteration_log == traj.iteration_log
        for s1, s2 in zip(back.snapshots, traj.snapshots):
            np.testing.assert_array_equal(s1, s2)


class TestDimension3:
    def test_end_to_end_smoke(self):
        # the solver is dimension-generic; one resolved d=3 pass: solve,
        # residual, divergence flag, and the far field against the d=3 profile
        grid = BoxGrid(3, 8.0, 64)
        a = build_initial_data(3, kind="zero")
        f = ForceModel(3, terms=[SeparableTerm(
            GaussianBump(3, width=0.7), SmoothBump(0.0, 0.25), (0.004, 0.0, 0.0))])
        opts = sv.SolverOptions(slices=8, tol=1e-11)
        traj = sv.picard_solve(a, f, grid, 0.25, opts)
        assert traj.field_at(0.25).is_divergence_free(1e-10)
        assert sv.integral_residual(traj, a, f, opts) < 2e-11
        x = np.array([5.0, 1.0, -0.5])
        vel, _ = sv.farfield_velocity(traj, a, f, x, 0.25, opts)
        pred = profile_field(x, force_integral(f, 0.25), 3)
        rel = np.linalg.norm(vel - pred) / np.linalg.norm(pred)
        assert rel < 1e-3


class TestRefinement:
    def test_farfield_stable_under_refinement(self, box, opts):
        # doubled panel count and doubled N move the far-field values by less
        # than the reported error budget
        a = build_initial_data(2, kind="zero")
        f = bump_force()
        traj = sv.picard_solve(a, f, box, T, opts)
        x = np.array([10.0, 4.0])
        base, budget = sv.farfield_velocity(traj, a, f, x, T, opts)
        total = sum(budget.values())

        fine_opts = sv.SolverOptions(slices=M, tol=1e-12, refine=2)
        fine, _ = sv.farfield_velocity(traj, a, f, x, T, fine_opts)
        assert np.linalg.norm(fine - base) <= max(total, 1e-15)

        big = BoxGrid(2, L, 2 * N)
        traj2 = sv.picard_solve(a, f, big, T, opts)
        v2, _ = sv.farfield_velocity(traj2, a, f, x, T, opts)
        assert np.linalg.norm(v2 - base) <= max(total, 1e-15)
