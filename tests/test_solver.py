"""Mild solver: Picard contraction, Duhamel terms, far-field evaluation."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import helpers
from helpers import divergence_defect, embed_block
from nsfarfield import solver as sv
from nsfarfield.forcing import (
    ForceModel,
    GaussianBump,
    Indicator,
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


def bump_force(amp=0.002, width=1.0, t_off=0.5, d=2):
    term = SeparableTerm(GaussianBump(d, width=width), SmoothBump(0.0, t_off),
                         (amp,) + (0.0,) * (d - 1))
    return ForceModel(d, terms=[term])


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
        comps = sv._linear_series(sv._SpectralOps(box), f, np.linspace(0.0, 0.5, 9), opts)[-1]
        assert np.abs(comps).max() == 0.0
        x = np.array([[1.0, 2.0]])
        edges = np.linspace(0.0, 0.5, M + 1)
        vals = sv._linear_point(f, x, edges, opts)
        err = sv._linear_gap(vals, f, x, edges, opts)
        assert np.abs(vals).max() == 0.0 and err == 0.0

    def test_grid_vs_point_mode(self, box, opts):
        # the box field is the periodization of the free-space response minus
        # its mean, so compare pairwise differences against the point mode
        # summed over the first ring of periodic images
        f = bump_force()
        t = 0.5
        comps = sv._linear_series(sv._SpectralOps(box), f, np.linspace(0.0, t, M + 1),
                                  opts)[-1]
        pts = np.array([[1.0, 0.0], [2.0, 1.0], [0.5, -1.5], [3.0, 0.25],
                        [-2.0, 2.0], [4.0, -3.0], [0.25, 3.0], [-1.0, -1.0],
                        [2.5, -0.5], [-3.5, 0.75], [1.75, 1.75], [0.0, -2.25],
                        [3.25, 2.0], [-0.5, 0.5], [1.0, -3.0], [-2.75, -1.25],
                        [0.75, 2.5], [2.0, -2.0], [-1.5, 2.75], [3.75, 0.0]])
        shifts = [np.array([i * 2 * L, j * 2 * L]) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        point = np.zeros_like(pts)
        for s in shifts:
            v = sv._linear_point(f, pts + s, np.linspace(0.0, t, M + 1), opts)
            point += v
        idx = np.rint((pts + L) / box.spacing).astype(int)
        grid_vals = np.stack([comps[:, i, j] for i, j in idx])
        dg = grid_vals - grid_vals[0]
        dp = point - point[0]
        scale = np.abs(point).max()
        assert np.abs(dg - dp).max() < 1e-4 * scale

    @pytest.mark.parametrize("tau", [SmoothBump(0.0, 0.5), Indicator(0.0, 0.5),
                                     SmoothBump(0.25, 0.75), Indicator(0.125, 0.625)],
                             ids=["bump", "indicator", "bump-late", "indicator-late"])
    def test_linear_point_on_the_slices_matches_the_profile(self, opts, tau):
        # on canonical's slice times the force switches at panel edges, so at
        # r = 256, where the heat-fattened bump acts as a point mass, the
        # linear term is K(x) M(t) to round-off, and its budget covers the gap
        f = ForceModel(2, terms=[SeparableTerm(GaussianBump(2, width=1.2), tau,
                                               (0.0018, 0.0))])
        times = np.linspace(0.0, 2.0, 129)
        x = 256.0 * sphere_points(2, 16)
        for t in (1.25, 1.5, 1.75):
            edges = times[:int(t * 64) + 1]
            got = sv._linear_point(f, x, edges, opts)
            want = profile_field(x, force_integral(f, t), 2)
            scale = float(np.linalg.norm(want, axis=-1).max())
            err = float(np.linalg.norm(got - want, axis=-1).max())
            assert err <= 1e-12 * scale, t
            assert sv._linear_gap(got, f, x, edges, opts) + 1e-13 * scale >= err, t

    def test_decay_envelope_constant(self, box, opts):
        # |L(f)(x,t)| <= C eps min((1+|x|)^{-d}, (1+t)^{-d/2}) with moderate C
        f = bump_force()
        from nsfarfield.forcing import validate_assumptions

        eps = validate_assumptions(f, 1.0).epsilon_f1
        worst = 0.0
        for t in (0.25, 0.5):
            radii = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
            theta = np.linspace(0, 2 * math.pi, 6, endpoint=False)
            dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            x = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
            vals = sv._linear_point(f, x, np.linspace(0.0, t, M + 1), opts)
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
    specs = sv._force_spectra(ops, f)
    acc = np.zeros((d,) + ops.shape, dtype=complex)
    out = [np.zeros((d,) + ops.grid.shape)]
    for m in range(1, times.size):
        acc *= np.exp(-(times[m] - times[m - 1]) * ops.k2)
        for s, weight in _slice_nodes(times[m - 1], times[m], opts):
            tv = float(f.time_profile.value(s))
            if tv != 0.0:
                for spec in specs:
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
        stack = [embed_block(ops, ops.lift(ops.flux_source(snapshots[i], drift[i])))
                 for i in idx]
        for s, weight in _slice_nodes(times[m - 1], times[m], opts):
            lw = sv._lagrange_weights(times[idx], s)
            q = sum(lw[j] * stack[j] for j in range(len(idx)))
            acc += weight * np.exp(-(times[m] - s) * ops.k2) * q
        out.append(ops.ifft(acc))
    return out


def reference_flux_weight(ops, times, opts):
    """W_h = max_m sum_n sup_k |k| |c_{m,n}(k)| by brute force: every c_{m,n}
    on every mode of the dealiased block, built from the per-node weights of
    ``reference_bilinear_series``."""
    n_slices = times.size - 1
    k2 = ops.k2[ops.grid.dealias_mask[..., :ops.grid.n // 2 + 1]]
    c = {}
    best = 0.0
    for m in range(1, n_slices + 1):
        for n in c:
            c[n] = c[n] * np.exp(-(times[m] - times[m - 1]) * k2)
        idx = sv._stencil(m, n_slices)
        for s, weight in _slice_nodes(times[m - 1], times[m], opts):
            lw = sv._lagrange_weights(times[idx], s)
            prop = weight * np.exp(-(times[m] - s) * k2)
            for j, n in enumerate(idx):
                c[n] = c.get(n, 0.0) + lw[j] * prop
        best = max(best, sum(np.max(np.sqrt(k2) * np.abs(cn)) for cn in c.values()))
    return float(best)


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


def reference_picard(ops, a, f, times, drift, opts):
    """The Jacobi iteration on three lists (fixed part, iterate, next
    iterate) from the per-node oracles: (snapshots, update norms).  It stops
    on the update, or on the certified distance kappa / (1 - kappa) update
    with kappa = 2 W_h (sup|u + D| + h^(-d/2) update) <= 1/2, the sup taken
    over every grid point and W_h from ``reference_flux_weight``."""
    fixed = [h + lin for h, lin in zip(reference_heat_series(ops, a, times),
                                       reference_linear_series(ops, f, times, opts))]
    weight = reference_flux_weight(ops, times, opts)
    grid = ops.grid
    snapshots, log = fixed, []
    while True:
        bil = reference_bilinear_series(ops, snapshots, drift, times, opts)
        nxt = [u - b for u, b in zip(fixed, bil)]
        log.append(max(sv.grid_l2(n - s, grid) for n, s in zip(nxt, snapshots)))
        snapshots = nxt
        sup = max(np.linalg.norm(u + dv.reshape((-1,) + (1,) * grid.d), axis=0).max()
                  for u, dv in zip(snapshots, drift))
        kappa = 2.0 * weight * (sup + log[-1] / grid.spacing ** (grid.d / 2))
        certified = kappa <= 0.5 and kappa / (1.0 - kappa) * log[-1] < opts.tol
        if log[-1] < opts.tol or certified or len(log) == opts.max_sweeps:
            return snapshots, log


class TestFusedTimeQuadrature:
    # slices 1, 2, 3 give the short stencils (2 and 3 slices wide, every
    # offset); 8 gives the three 4-slice patterns of a long history.  d = 2
    # accumulates the scalar flux source; TestFusedTimeQuadratureD3 runs the
    # same cases on the d = 3 vector source.
    GRID = BoxGrid(2, 8.0, 32)

    @pytest.fixture(scope="class")
    def history(self):
        grid = self.GRID
        rng = np.random.default_rng(11)
        snaps = [0.01 * rng.normal(size=(grid.d,) + grid.shape) for _ in range(9)]
        return snaps, 1e-3 * rng.normal(size=(9, grid.d))

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("slices", [1, 2, 3, 8])
    def test_matches_per_node_loop(self, history, slices, refine):
        d = self.GRID.d
        ops = sv._SpectralOps(self.GRID)
        opts = sv.SolverOptions(slices=slices, refine=refine)
        times = np.linspace(0.0, 0.5, slices + 1)
        snaps, drift = history
        bil = [-b for b, _ in sv._mild_series(ops, times, opts, history=(snaps, drift))]
        ref = reference_bilinear_series(ops, snaps, drift, times, opts)
        assert _max_relative_gap(bil, ref) <= 1e-13
        # the force switches off inside the horizon, so some nodes see tau = 0
        f = bump_force(t_off=0.3, d=d)
        lin = sv._linear_series(ops, f, times, opts)
        assert _max_relative_gap(lin, reference_linear_series(ops, f, times, opts)) <= 1e-13
        a = build_initial_data(d, kind="curl_bump", amplitude=0.01, width=1.0)
        heat = list(sv._mild_series(ops, times, sv.SolverOptions(), a=a))
        assert _max_relative_gap(heat, reference_heat_series(ops, a, times)) <= 1e-13

    def test_non_uniform_times_rejected(self, history):
        d = self.GRID.d
        ops = sv._SpectralOps(self.GRID)
        opts = sv.SolverOptions(slices=4)
        times = np.array([0.0, 0.1, 0.2, 0.35, 0.5])
        snaps, drift = history
        with pytest.raises(ValueError, match="uniform"):
            list(sv._mild_series(ops, times, opts, history=(snaps, drift)))
        with pytest.raises(ValueError, match="uniform"):
            sv._linear_series(ops, bump_force(d=d), times, opts)
        with pytest.raises(ValueError, match="uniform"):
            list(sv._mild_series(ops, times, sv.SolverOptions(),
                                 a=build_initial_data(d, kind="zero")))


class TestFusedTimeQuadratureD3(TestFusedTimeQuadrature):
    GRID = BoxGrid(3, 8.0, 16)


class TestInPlaceSweeps:
    @pytest.mark.parametrize("d, n, slices", [(2, 32, 1), (2, 32, 2), (2, 32, 3),
                                              (2, 32, 8), (3, 16, 4)])
    def test_in_place_sweeps_match_three_list_jacobi(self, d, n, slices):
        # each sweep overwrites its input slice by slice; the oracle keeps
        # the old iterate whole until the new one is complete.  Any sweep
        # order reaches the same fixed point, so the second update norm, the
        # contraction of this iteration, is what tells Jacobi from another
        # order: it is 1e-5 of the first here, far above round-off.
        grid = BoxGrid(d, 8.0, n)
        a = build_initial_data(d, kind="curl_bump", amplitude=0.001, width=1.0)
        f = bump_force(amp=0.001, t_off=0.3, d=d)
        opts = sv.SolverOptions(slices=slices, tol=1e-13)
        traj = sv.picard_solve(a, f, grid, 0.5, opts)
        ref, log = reference_picard(sv._SpectralOps(grid), a, f, traj.times,
                                    traj.drift, opts)
        assert len(traj.iteration_log) == len(log) >= 2
        np.testing.assert_allclose(traj.iteration_log[:2], log[:2], rtol=1e-4)
        assert _max_relative_gap(traj.snapshots, ref) <= 1e-13

    def test_solve_keeps_one_snapshot_list(self, opts):
        # in-place sweeps: the traced peak of a warm solve (N = 64, 32
        # slices) stays under twice the bytes of the snapshots it returns
        grid = BoxGrid(2, L, 64)
        a, f = build_initial_data(2, kind="zero"), bump_force()
        sv.picard_solve(a, f, grid, T, opts)   # warm the grid's cached fields
        tracemalloc.start()
        try:
            traj = sv.picard_solve(a, f, grid, T, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * sum(s.nbytes for s in traj.snapshots)


class TestStreamedSolve:
    # the solve writes its slices to files (picard_solve's directory) and
    # reads them back for the next sweep: the same bits as a solve in memory
    @pytest.mark.parametrize("lane", [False, True])
    def test_streamed_sweeps_match_in_memory(self, monkeypatch, tmp_path, lane):
        monkeypatch.setattr(sv, "_LANE_POINTS", math.inf if not lane else 0)
        monkeypatch.setattr(sv, "_LANE_CPUS", 1)
        on_main, source = set(), sv._SpectralOps.flux_source

        def spy(self, *args):
            on_main.add(threading.current_thread() is threading.main_thread())
            return source(self, *args)

        monkeypatch.setattr(sv._SpectralOps, "flux_source", spy)
        grid = BoxGrid(2, 32.0, 256)
        a = build_initial_data(2, kind="curl_bump", amplitude=0.001, width=1.0)
        f = bump_force(amp=0.001, t_off=0.25)
        opts = sv.SolverOptions(slices=4, tol=1e-13)
        ops = sv._SpectralOps(grid)
        times = np.linspace(0.0, 0.5, 5)
        drift = np.stack([force_integral(f, float(t)) / (2 * 32.0) ** 2 for t in times])
        memory, files = [], sv.SnapshotFiles(tmp_path / "sweeps", grid, times)
        (tmp_path / "sweeps").mkdir()
        for _ in range(3):
            assert (sv._sweep(ops, a, f, files, drift, times, opts)
                    == sv._sweep(ops, a, f, memory, drift, times, opts))
            assert len(files) == len(memory) == 5
            assert all(np.array_equal(u, v) for u, v in zip(files, memory))
        streamed = sv.picard_solve(a, f, grid, 0.5, opts, directory=tmp_path / "traj")
        traj = sv.picard_solve(a, f, grid, 0.5, opts)
        assert isinstance(streamed.snapshots, sv.SnapshotFiles) and len(traj.iteration_log) == 2
        assert streamed.iteration_log == traj.iteration_log
        assert (streamed.kappa, streamed.bound) == (traj.kappa, traj.bound)
        assert all(np.array_equal(u, v) for u, v in zip(streamed.snapshots, traj.snapshots))
        # the save renames the solve's staging sibling into place; the decay
        # constant the solve measured is the one a pass over the files reads
        streamed.save(tmp_path / "traj")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweeps", "traj"]
        loaded = sv.load_trajectory(tmp_path / "traj")
        assert loaded.decay_constant() == streamed.decay_constant() == traj.decay_constant()
        assert on_main == {not lane}

    def test_memory_does_not_grow_with_the_slices(self, tmp_path):
        # a streamed solve holds a stencil of slices: 128 slices peak less
        # than 8 snapshots above 32 slices (N = 64)
        grid = BoxGrid(2, L, 64)
        a, f = build_initial_data(2, kind="zero"), bump_force()

        def peak(slices):
            tracemalloc.start()
            try:
                sv.picard_solve(a, f, grid, T, sv.SolverOptions(slices=slices),
                                directory=tmp_path / str(slices))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sv.picard_solve(a, f, grid, T, sv.SolverOptions(slices=8))   # warm the grid
        snapshot = 8 * grid.d * grid.n ** grid.d
        assert peak(128) - peak(32) < 8 * snapshot

    def test_residual_streams_a_loaded_trajectory(self, tmp_path):
        # one more sweep over the files, one stencil at a time: the residual
        # of the loaded trajectory is the in-memory one, and 128 slices peak
        # less than 8 snapshots above 32 slices (N = 64)
        grid = BoxGrid(2, L, 64)
        a, f = build_initial_data(2, kind="zero"), bump_force()

        def peak(slices):
            opts = sv.SolverOptions(slices=slices)
            traj = sv.picard_solve(a, f, grid, T, opts)
            traj.save(tmp_path / str(slices))
            loaded = sv.load_trajectory(tmp_path / str(slices))
            expected = sv.integral_residual(traj, a, f, opts)
            tracemalloc.start()
            try:
                assert sv.integral_residual(loaded, a, f, opts) == expected
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        snapshot = 8 * grid.d * grid.n ** grid.d
        assert peak(128) - peak(32) < 8 * snapshot


class TestCertifiedStop:
    # slices 1, 2, 3 are the short histories (stencils 2 and 3 slices wide);
    # 8 and 24 are long ones, where the interior sources share one response
    @pytest.mark.parametrize("d, n, slices, refine", [
        (2, 32, 1, 1), (2, 32, 2, 1), (2, 32, 3, 2), (2, 32, 8, 1), (2, 32, 24, 2),
        (3, 16, 1, 1), (3, 16, 2, 1), (3, 16, 3, 1), (3, 16, 8, 1)])
    def test_flux_weight_matches_brute_force(self, d, n, slices, refine):
        ops = sv._SpectralOps(BoxGrid(d, 8.0, n))
        opts = sv.SolverOptions(slices=slices, refine=refine)
        times = np.linspace(0.0, 0.5, slices + 1)
        fast = sv._flux_weight(ops, times, opts)
        assert fast == pytest.approx(reference_flux_weight(ops, times, opts), rel=1e-13)
        # the heat smoothing bound sqrt(2T/e) of the continuous weight
        assert 0.0 < fast <= math.sqrt(2 * 0.5 / math.e)

    @pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
    def test_certified_bound_holds(self, d, n):
        # one certified sweep at tol 1e-10, against a solve to tol 1e-15
        grid = BoxGrid(d, 8.0, n)
        a = build_initial_data(d, kind="curl_bump", amplitude=0.001, width=1.0)
        f = bump_force(amp=0.001, t_off=0.3, d=d)
        traj = sv.picard_solve(a, f, grid, 0.5, sv.SolverOptions(slices=8, tol=1e-10))
        assert len(traj.iteration_log) == 1 and traj.iteration_log[0] >= 1e-10
        assert traj.kappa <= 0.5 and traj.bound < 1e-10 and traj.contractive
        fine = sv.picard_solve(a, f, grid, 0.5, sv.SolverOptions(slices=8, tol=1e-15))
        assert len(fine.iteration_log) >= 2 and fine.bound < 1e-15
        distance = max(sv.grid_l2(u - v, grid) for u, v in zip(traj.snapshots, fine.snapshots))
        assert 0.0 < distance <= traj.bound + fine.bound

    def test_contractive_reads_kappa_when_certified(self, box):
        traj = sv.Trajectory(box, np.linspace(0.0, 1.0, 3), [], np.zeros((3, 2)),
                             [1e-9], kappa=0.25, bound=1e-9 / 3)
        assert traj.contractive
        # nothing certified: the update log must decrease from sweep 2 on
        for log, expected in (([1e-9, 1e-10, 1e-11], True), ([1e-9, 1e-10, 1e-10], False)):
            traj = sv.Trajectory(box, np.linspace(0.0, 1.0, 3), [], np.zeros((3, 2)),
                                 log, kappa=0.75, bound=None)
            assert traj.contractive is expected


class TestSourceLane:
    # the gate patched open or shut: the same small solves with the flux
    # sources on the lane and inline
    @staticmethod
    def solve(monkeypatch, lane, d, n, slices):
        monkeypatch.setattr(sv, "_LANE_POINTS", 0 if lane else math.inf)
        monkeypatch.setattr(sv, "_LANE_CPUS", 1)
        on_main = set()
        source = sv._SpectralOps.flux_source

        def spy(self, *args):
            on_main.add(threading.current_thread() is threading.main_thread())
            return source(self, *args)

        monkeypatch.setattr(sv._SpectralOps, "flux_source", spy)
        grid = BoxGrid(d, 8.0, n)
        a = build_initial_data(d, kind="curl_bump", amplitude=0.001, width=1.0)
        f = bump_force(amp=0.001, t_off=0.3, d=d)
        opts = sv.SolverOptions(slices=slices, tol=1e-13)
        traj = sv.picard_solve(a, f, grid, 0.5, opts)
        return traj, sv.integral_residual(traj, a, f, opts), on_main

    @pytest.mark.parametrize("d, n, slices", [(2, 32, 1), (2, 32, 8), (3, 16, 4)])
    def test_lane_matches_inline(self, monkeypatch, d, n, slices):
        traj, residual, on_main = self.solve(monkeypatch, False, d, n, slices)
        assert on_main == {True}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)       # switch threads as often as it can
        try:
            lane, lane_residual, on_main = self.solve(monkeypatch, True, d, n, slices)
        finally:
            sys.setswitchinterval(interval)
        assert on_main == {False}
        assert lane.iteration_log == traj.iteration_log
        assert lane_residual == residual
        assert all(np.array_equal(u, v) for u, v in zip(lane.snapshots, traj.snapshots))

    def test_lane_failure_surfaces_and_ends_the_thread(self, monkeypatch):
        class LaneFailure(RuntimeError):
            pass

        def fail(self, *args):
            raise LaneFailure("flux source")

        monkeypatch.setattr(sv, "_LANE_POINTS", 0)
        monkeypatch.setattr(sv, "_LANE_CPUS", 1)
        monkeypatch.setattr(sv._SpectralOps, "flux_source", fail)
        before = threading.active_count()
        with pytest.raises(LaneFailure):
            sv.picard_solve(build_initial_data(2, kind="zero"), bump_force(),
                            BoxGrid(2, 8.0, 32), 0.5, sv.SolverOptions(slices=8))
        assert threading.active_count() == before

    def test_gate(self, monkeypatch):
        # the lane serves the N = 256 plane, not the N = 128 one, and only
        # with enough CPUs
        monkeypatch.setattr(sv, "_LANE_CPUS", 1)
        assert sv._source_lane(BoxGrid(2, L, 128)) is None
        sv._source_lane(BoxGrid(2, L, 256)).shutdown()
        monkeypatch.setattr(sv, "_LANE_CPUS", 1 << 20)
        assert sv._source_lane(BoxGrid(2, L, 256)) is None


class TestSliceRule:
    # per distinct |k|^2, the fold is bitwise the one over per-mode
    # propagators; d = 3 stops at N = 64, where the per-mode reference
    # already holds 30 MB (1.9 GB at N = 256)
    @pytest.mark.parametrize("d, n", [(2, 16), (2, 64), (2, 256), (3, 16), (3, 64)])
    @pytest.mark.parametrize("refine", [1, 2])
    def test_fold_matches_per_mode_propagators(self, d, n, refine):
        ops = sv._SpectralOps(BoxGrid(d, 8.0, n))
        rule = sv._slice_rule(ops, np.linspace(0.0, 0.5, 9), sv.SolverOptions(refine=refine))
        dense = np.exp(np.multiply(-(rule.dt - rule.offsets).reshape((-1,) + (1,) * d),
                                   ops.k2))
        assert rule.factors.shape[1] < ops.k2.size
        assert np.array_equal(rule.decay, np.exp(-rule.dt * ops.k2))
        rng = np.random.default_rng(n + refine)
        for w in (np.ones(rule.offsets.size), rng.normal(size=rule.offsets.size)):
            assert np.array_equal(rule.fold(w), np.tensordot(rule.weights * w, dense, axes=1))


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
        out = ops.ifft(embed_block(ops, ops.lift(ops.flux_source(u, drift))))
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


class _AnyEvenGrid(BoxGrid):
    """A BoxGrid that skips the power-of-two rule: at N = 48 the two-thirds
    cut N/3 = 16 falls on a mode."""

    def __init__(self, d, length, n):
        self.d, self.length, self.n = d, float(length), n


class TestDealiasedBlock:
    # B lives on the block of modes the two-thirds rule keeps; the oracle is
    # the same recursion on the whole half spectrum (tests/helpers.py)
    @pytest.mark.parametrize("grid", [BoxGrid(2, 8.0, 32), BoxGrid(2, 8.0, 64),
                                      _AnyEvenGrid(2, 8.0, 48), BoxGrid(3, 8.0, 16)],
                             ids=["d2-N32", "d2-N64", "d2-N48", "d3-N16"])
    def test_source_vanishes_outside_block(self, grid):
        d = grid.d
        ops = sv._SpectralOps(grid)
        kept = grid.dealias_mask[..., :grid.n // 2 + 1]
        assert np.array_equal(embed_block(ops, np.ones(ops.block_shape)) != 0, kept)
        rng = np.random.default_rng(7)
        u = rng.normal(size=(d,) + grid.shape)
        drift = rng.normal(size=d)
        full = helpers.flux_source_full(ops, u, drift)
        block = ops.flux_source(u, drift)
        # every kept mode but the zero mode carries source
        mag = np.abs(block).reshape((-1,) + ops.block_shape).sum(axis=0)
        assert np.count_nonzero(mag) == mag.size - 1
        assert np.all(full[..., ~kept] == 0)
        assert np.array_equal(embed_block(ops, block), full)

    @pytest.mark.parametrize("d, n, slices", [(2, 32, 1), (2, 32, 2), (2, 32, 3),
                                              (2, 32, 8), (3, 16, 4)])
    def test_matches_full_spectrum_recursion(self, d, n, slices, monkeypatch):
        # bitwise: the block transform runs rfftn's passes in rfftn's order
        grid = BoxGrid(d, 8.0, n)
        a = build_initial_data(d, kind="curl_bump", amplitude=0.001, width=1.0)
        f = bump_force(amp=0.001, t_off=0.3, d=d)
        opts = sv.SolverOptions(slices=slices, tol=1e-13)
        traj = sv.picard_solve(a, f, grid, 0.5, opts)
        res = sv.integral_residual(traj, a, f, opts)
        monkeypatch.setattr(sv, "_mild_series", helpers.mild_series_full)
        monkeypatch.setattr(sv, "_sweep", helpers.sweep_full)
        ref = sv.picard_solve(a, f, grid, 0.5, opts)
        assert len(traj.snapshots) == len(ref.snapshots) == slices + 1
        assert all(np.array_equal(s, r) for s, r in zip(traj.snapshots, ref.snapshots))
        assert traj.iteration_log == ref.iteration_log
        assert res == sv.integral_residual(ref, a, f, opts)


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
            assert divergence_defect(traj.field_at(traj.times[i])) < 1e-10

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
    # the grid field B(t_m) is the negated last slice of the mild series over
    # times[:m + 1] with the history alone
    def test_zero_history(self, box, opts):
        a = build_initial_data(2, kind="zero")
        traj = sv.picard_solve(a, ForceModel.zero(2), box, 0.5,
                               sv.SolverOptions(slices=8, tol=1e-12))
        m = traj.slice_index(0.5)
        *_, (last, _) = sv._mild_series(sv._SpectralOps(box), traj.times[:m + 1], opts,
                                        history=(traj.snapshots, traj.drift))
        assert np.abs(last).max() == 0.0

    def test_quadratic_scaling_exact(self, canonical, box, opts):
        # scaling the history by lambda scales B by lambda^2 to round-off
        _, _, traj = canonical
        scaled = sv.Trajectory(box, traj.times, [2.0 * s for s in traj.snapshots],
                               2.0 * traj.drift, traj.iteration_log,
                               kappa=traj.kappa, bound=traj.bound)
        m = traj.slice_index(T)
        b1, b2 = (-list(sv._mild_series(sv._SpectralOps(box), tr.times[:m + 1], opts,
                                        history=(tr.snapshots, tr.drift)))[-1][0]
                  for tr in (traj, scaled))
        assert np.abs(b2 - 4.0 * b1).max() <= 1e-12 * np.abs(b2).max()

    def test_farfield_envelope_stable(self, canonical, opts):
        # |B(x,t)| <= C sqrt(t) |x|^{-d-1} with C stable across octaves
        _, _, traj = canonical
        t = T
        theta = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        consts = []
        for r in (L / 2, L, 2 * L, 4 * L):
            vals = sv._bilinear_point(traj, r * dirs, t, opts)
            consts.append(np.max(np.linalg.norm(vals, axis=-1)) * r**3 / math.sqrt(t))
        assert max(consts) / min(consts) < 2.0

    def test_missing_history_guard(self, canonical, opts):
        # 2T is not a sample time: neither the grid field nor the points
        # have a history slice to end on
        _, _, traj = canonical
        with pytest.raises(ValueError):
            traj.slice_index(2 * T)
        with pytest.raises(ValueError):
            sv._bilinear_point(traj, np.array([[L, 0.0]]), 2 * T, opts)

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

        # the values and the psi_cutoff entry under the current cutoff
        def split(x, t):
            vals = sv._bilinear_point(traj, x, t, opts)
            return vals, sv._bilinear_gap(vals, traj, x, t, opts)["psi_cutoff"]

        finite = [split(x, t) for x, t in cases]
        monkeypatch.setattr(sv, "FAR_CUTOFF", math.inf)
        for (x, t), (vals, psi_cutoff) in zip(cases, finite):
            ref, ref_psi_cutoff = split(x, t)
            gap = np.linalg.norm(vals - ref, axis=-1)
            assert gap.max() <= 1e-9 * np.linalg.norm(ref, axis=-1).min()
            assert psi_cutoff >= gap.max()
            assert ref_psi_cutoff == 0.0

    def test_budget_quadrature_entries_rerun_the_evaluator(self, canonical, opts):
        # the time and space entries are twice the largest distance to the
        # values of the GL2 rule and of the stride-2 sources
        _, _, traj = canonical
        x = np.concatenate([r * sphere_points(2, 8) for r in (1.0, L / 2, 3 * L)])
        for t in (T / 2, T):
            vals = sv._bilinear_point(traj, x, t, opts)
            budget = sv._bilinear_gap(vals, traj, x, t, opts)
            for key, rule in (("time_quadrature", {"order": 2}),
                              ("space_quadrature", {"stride": 2})):
                coarse = sv._bilinear_point(traj, x, t, opts, **rule)
                gap = np.linalg.norm(vals - coarse, axis=-1).max()
                assert 0.0 < budget[key] == 2.0 * gap, key

    @pytest.mark.parametrize("d", [2, 3])
    def test_strided_flux_history_is_every_other_row(self, canonical, d):
        # flux_history(2) holds, bit for bit, the rows of flux_history() at
        # every other source along each axis, and is cached per stride
        if d == 2:
            traj = canonical[2]
        else:
            rng = np.random.default_rng(3)
            grid = BoxGrid(3, L, 16)
            traj = sv.Trajectory(grid, np.linspace(0.0, T, 3),
                                 [rng.normal(size=(3,) + grid.shape) for _ in range(3)],
                                 rng.normal(size=(3, 3)), [], kappa=math.inf, bound=None)
        pts, fluxes = traj.flux_history()
        side = traj.grid.n // 2
        rows = np.arange(pts.shape[0]).reshape((side,) * d)[(slice(None, None, 2),) * d].ravel()
        sub_pts, sub_fluxes = traj.flux_history(2)
        assert np.array_equal(sub_pts, pts[rows]) and len(sub_fluxes) == len(fluxes)
        for sub, full in zip(sub_fluxes, fluxes):
            assert np.array_equal(sub, full[rows])
        assert traj.flux_history(2) is traj.flux_history(2)

    def test_complex_flux_history_matches_real_tensor(self, canonical):
        # sigma = (Q_11 - Q_22)/2 + i Q_12 of Q = (u + D)(x)(u + D), and
        # _flux_mass sums |Q|_F = 2 |sigma|
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
        m_t, hist_opts = traj.slice_index(T), sv.SolverOptions(slices=M)
        nodes4, _ = sv._collapsed_history(traj, m_t, hist_opts, 4)
        w_abs = np.zeros(len(fluxes))
        for _, weight, idx, lw in nodes4:
            w_abs[idx] += weight * np.abs(lw)
        mass = sum(w_abs[i] * real[i] for i in np.flatnonzero(w_abs))
        np.testing.assert_allclose(sv._flux_mass(fluxes, nodes4), mass,
                                   rtol=1e-15, atol=0.0)

    def test_kernel_evaluations_match_node_reach(self, canonical, opts, monkeypatch):
        # D is evaluated once per (pair, node) entry with |x - y|^2 < c^2 (t - s)
        # outside the core, F once per (core pair, node), and neither elsewhere;
        # a far-field call evaluates D in at most one kernel call per node
        from nsfarfield import kernels

        a, f, traj = canonical
        pts_y, fluxes = traj.flux_history()
        m_t = traj.slice_index(T)
        nodes4, q4 = sv._collapsed_history(traj, m_t, sv.SolverOptions(slices=M), 4)
        x = np.concatenate([(L / 2) * sphere_points(2, 8), [[-L / 2, 0.0], [9.3, 2.1]]])
        z = x[:, None, :] - pts_y[None, :, :]
        r2 = np.sum(z * z, axis=-1)
        counted, calls = {}, {}
        for name in ("psi_grad_contract", "oseen_grad_contract"):
            def counting(zz, *args, _fn=getattr(kernels, name), _name=name):
                counted[_name] = counted.get(_name, 0) + len(zz)
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(zz, *args)
            monkeypatch.setattr(kernels, name, counting)
        sv._local_shares(x, pts_y, T, nodes4, fluxes)
        taus = T - np.array([node[0] for node in nodes4])
        core = sv._core_pairs(r2, taus)
        reach = sv.FAR_CUTOFF**2 * taus
        assert np.array_equal(core, r2 < max(reach.min(), 4.0 * taus.max()))
        expected = sum(int(np.count_nonzero((r2 < c2) & ~core)) for c2 in reach)
        assert core.any() and 0 < counted["psi_grad_contract"] == expected
        assert counted["oseen_grad_contract"] == int(core.sum()) * taus.size
        assert expected < 0.1 * r2.size * taus.size

        # 48 points, with local pairs in every block of 8
        x = np.concatenate([r * sphere_points(2, 8) for r in (0.5, 1.0, 2.5, 4.0, 6.0, L / 2)])
        calls.clear()
        sv.farfield_velocity(traj, a, f, x, T, opts)
        assert 0 < calls["psi_grad_contract"] <= len(nodes4)
        assert calls["oseen_grad_contract"] == 1

    def test_local_pass_prefilter_boundary(self, canonical, opts):
        # points whose distance to the source square is just inside, at and
        # just outside the largest reach, mixed with interior and far points:
        # the local pass finds exactly the pairs of a brute-force scan, and
        # every value is the point's own row-by-row value, bit for bit
        _, _, traj = canonical
        pts_y, fluxes = traj.flux_history()
        nodes4, _ = sv._collapsed_history(traj, traj.slice_index(T), opts, 4)
        taus = T - np.array([node[0] for node in nodes4])
        lim = sv.FAR_CUTOFF**2 * taus.max()
        lo, hi = pts_y.min(axis=0), pts_y.max(axis=0)
        y0, reach = pts_y[pts_y.shape[0] // 3, 1], math.sqrt(lim)
        ring = []
        for rel in (1.0 - 1e-6, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-6):
            ring.append([hi[0] + rel * reach, y0])
            ring.append([lo[0] - rel * reach, y0])
            ring.append(hi + rel * reach / math.sqrt(2))
        x = np.concatenate([np.array(ring), [[0.3, -1.1], [-L / 2, 0.0], [40.0, -25.0]]])
        point, source, _, _ = sv._local_shares(x, pts_y, T, nodes4, fluxes)
        r2 = np.sum((x[:, None, :] - pts_y[None, :, :]) ** 2, axis=-1)
        ix, iy = np.nonzero(r2 < lim)
        assert np.array_equal(point, ix) and np.array_equal(source, iy)
        found = set(point.tolist())
        assert {0, 1, 2, 15, 16} <= found and not found & {12, 13, 14, 17}
        batch = sv._bilinear_point(traj, x, T, opts)
        rows = np.concatenate([sv._bilinear_point(traj, xi[None], T, opts) for xi in x])
        assert np.array_equal(batch, rows)

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

    def test_zero_points(self, canonical, opts):
        # an empty point set gives an empty (0, d) array and a readable budget
        a, f, traj = canonical
        vel, budget = sv.farfield_velocity(traj, a, f, np.zeros((0, 2)), T, opts)
        assert vel.shape == (0, 2)
        assert budget["linear_quadrature"] == 0.0
        assert budget["bilinear_time_quadrature"] == budget["bilinear_psi_cutoff"] == 0.0

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
        # as well as beyond it.  The budget is a maximum over the points, so
        # the reversal's equals the batch's, and the time and space entries,
        # distances between such values, are the largest single-point ones;
        # the Psi entry's mass product may follow the batch shape
        a, f, traj = canonical
        x = np.concatenate([r * sphere_points(2, 8)
                            for r in (1.0, 2.5, 6.0, L / 2, L, 3 * L)])
        batch, budget = sv.farfield_velocity(traj, a, f, x, T, opts)
        singles = [sv.farfield_velocity(traj, a, f, xi, T, opts) for xi in x]
        rows = np.array([vals for vals, _ in singles])
        reverse, reverse_budget = sv.farfield_velocity(traj, a, f, x[::-1], T, opts)
        assert np.array_equal(batch, rows)
        assert np.array_equal(batch, reverse[::-1])
        assert list(reverse_budget) == list(budget)
        for key in budget:
            assert reverse_budget[key] == budget[key], key
        largest = {key: max(b[key] for _, b in singles)
                   for key in ("bilinear_time_quadrature", "bilinear_space_quadrature",
                               "bilinear_psi_cutoff")}
        for key in ("bilinear_time_quadrature", "bilinear_space_quadrature"):
            assert budget[key] == largest[key], key
        key = "bilinear_psi_cutoff"
        assert abs(budget[key] - largest[key]) <= 1e-12 * largest[key]

    def test_check_path_builds_no_budget(self, canonical, opts, tmp_path, monkeypatch):
        # the checks read only values, so on a freshly loaded trajectory their
        # far-field calls run none of the budget's builders
        from nsfarfield import cli, kernels

        a, f, traj = canonical
        traj.save(tmp_path / "traj")
        fresh = sv.load_trajectory(tmp_path / "traj")

        def refuse(*args, **kwargs):
            raise AssertionError("the check path built an error budget")

        monkeypatch.setattr(sv.Trajectory, "decay_constant", refuse)
        monkeypatch.setattr(kernels, "psi_gradient_bound", refuse)
        monkeypatch.setattr(sv, "_flux_mass", refuse)
        value_history = sv._collapsed_history
        monkeypatch.setattr(sv, "_collapsed_history", lambda *args: (
            value_history(*args) if args[3:] == (4, 1) else refuse()))
        monkeypatch.setattr(sv, "_linear_gap", refuse)
        x = np.concatenate([r * sphere_points(2, 8) for r in (2.5, L / 2, 3 * L)])
        flow = cli._ThreadedFlow(fresh, a, f, opts, threads=2)
        for t in (T / 2, T):
            assert np.all(np.isfinite(flow.velocity(x, t)))

    def test_one_value_route_and_budget_independent_of_cache_order(self, canonical, opts,
                                                                     tmp_path):
        # the checks' values are farfield_velocity's, bit for bit, and a budget
        # read after check calls have filled the trajectory's caches equals
        # one read first on a fresh load
        from nsfarfield.verify import FlowAdapter

        a, f, traj = canonical
        traj.save(tmp_path / "traj")
        warm, cold = (sv.load_trajectory(tmp_path / "traj") for _ in range(2))
        x = np.concatenate([r * sphere_points(2, 8) for r in (1.0, 2.5, L / 2, 3 * L)])
        flow = FlowAdapter(warm, a, f, opts)
        for t in (T / 2, T):
            got = flow.velocity(x, t)
            assert np.array_equal(got, sv.farfield_velocity(warm, a, f, x, t, opts)[0])
        for t in (T / 2, T):
            _, first = sv.farfield_velocity(cold, a, f, x, t, opts)
            first = dict(first)
            later = sv.farfield_velocity(warm, a, f, x, t, opts)[1]
            assert list(later) == list(first)
            for key in first:
                assert later[key] == first[key], key

    def test_interior_bilinear_matches_grid_field(self, canonical, opts):
        # inside |x| < L/2 the far-field assembly takes the same kernel route:
        # at lattice points its B = heat + L - u is the grid field's B, within
        # the batch's bilinear budget, and the budget is reported
        a, f, traj = canonical
        pts = np.array([(0.5, 0.5), (1.0, 0.0), (3.5, 0.0), (2.75, -2.75),
                        (4.0, 4.0), (7.0, 0.0)])
        assert np.linalg.norm(pts, axis=-1).max() < L / 2
        u, budget = sv.farfield_velocity(traj, a, f, pts, T, opts)
        m = traj.slice_index(T)
        b = a.value(pts, T) + sv._linear_point(f, pts, traj.times[:m + 1], opts) - u
        *_, (last, _) = sv._mild_series(sv._SpectralOps(traj.grid), traj.times[:m + 1],
                                        opts, history=(traj.snapshots, traj.drift))
        field = -last
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

        tau = SmoothBump(0.0, 0.3)
        terms = [SeparableTerm(GaussianBump(2, width=1.0, center=(0.5, -0.25)), tau,
                               (0.002, 0.001)),
                 SeparableTerm(GaussianBump(2, width=1.5), tau, (-0.001, 0.0))]
        f = ForceModel(2, terms=terms)
        x = np.concatenate([r * sphere_points(2, 6) for r in (3.0, 10.0, 40.0)])
        t = 0.4
        edges = np.linspace(0.0, t, 17)
        got = sv._linear_point(f, x, edges, opts)
        err = sv._linear_gap(got, f, x, edges, opts)
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
        # outside the datum's support (its Gaussian below 1e-12, plus a width)
        a_support = (math.sqrt(math.log(1e12)) + 1.0) * w
        assert np.linalg.norm(pts, axis=-1).min() > max(a_support, f.support_radius())
        point, _ = sv.farfield_velocity(traj, a, f, pts, t, opts)
        for i in range(-2, 3):
            for j in range(-2, 3):
                if i == j == 0:
                    continue
                shift = np.array([i * 2 * L, j * 2 * L])
                x = pts + shift
                point += a.value(x, t) + sv._linear_point(f, x, traj.times, opts)
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
        *_, heat = sv._mild_series(ops, traj.times, sv.SolverOptions(), a=a)
        stokes = heat + sv._linear_series(ops, f, traj.times, opts)[-1]
        pts = np.array([(3.5, 0.0), (0.0, 4.0), (2.75, -2.75), (4.0, 4.0)])
        shifts = [np.array([i * 2 * L, j * 2 * L])
                  for i in range(-2, 3) for j in range(-2, 3)]
        point = np.zeros_like(pts)
        for s in shifts:
            x = pts + s
            point += a.value(x, t) + sv._linear_point(f, x, traj.times, opts)
        idx = np.rint((pts + L) / box.spacing).astype(int)
        grid_vals = np.stack([stokes[:, i, j] for i, j in idx])
        dg = grid_vals - grid_vals[-1]
        dp = point - point[-1]
        assert np.abs(dg - dp).max() < 1e-4 * np.abs(grid_vals).max()


# Per-slice grid_l2 norms and three lattice values of the last slice of the
# trajectory ``TestTrajectoryFormat`` solves, one entry per TRAJECTORY_FORMAT.
# Format 2 stops on a certified bound.  This solve still takes two sweeps,
# since the bound after the first, 1.8e-12, is above its tol of 1e-12, so
# its values are format 1's; at the default tol of 1e-10 the shipped
# scenarios stop one sweep earlier.
_TRAJECTORY_PINS = {
    1: ([0.0008862268357244301, 0.0007136514295137731, 0.0006107559675154546,
         0.0005528172955165173, 0.0005249868154621059, 0.0004714993799255574,
         0.0004288098962218993, 0.0003938999654172913, 0.00036478814511869343],
        [7.318827630590549e-05, -4.879417330854978e-05, -5.2437593419936995e-06]),
    2: ([0.0008862268357244301, 0.0007136514295137731, 0.0006107559675154546,
         0.0005528172955165173, 0.0005249868154621059, 0.0004714993799255574,
         0.0004288098962218993, 0.0003938999654172913, 0.00036478814511869343],
        [7.318827630590549e-05, -4.879417330854978e-05, -5.2437593419936995e-06]),
}

# The same solve at tol = 1e-10, where it stops on the certificate after one
# sweep (bound 1.8e-12 < tol < update 3.0e-9): norms, values, iteration log,
# kappa and bound, one entry per TRAJECTORY_FORMAT from 2 on.  Its norms lie
# 3.2e-11 relative from the two-sweep solve's, so a change to the stop rule,
# to ``_flux_weight`` or to ``_sweep``'s peak moves them past the pin.
_CERTIFIED_PINS = {
    2: ([0.0008862268357244301, 0.0007136514295138506, 0.000610755967516332,
         0.0005528172955189732, 0.0005249868154667352, 0.00047149937993287277,
         0.0004288098962312611, 0.00039389996542811394, 0.0003647881451305098],
        [7.318827630633204e-05, -4.879417331261615e-05, -5.243759341915435e-06],
        [2.965345713579259e-09], 0.0006204765719461059, 1.841069883726906e-12),
}


def _format_solve(tol):
    """The pinned scenario solved at ``tol``: (trajectory, norms, values).

    It has heat, force and bilinear parts, and the force switches off inside
    the finest graded panel of slice 4, so the slice quadrature shows in the
    values too."""
    grid = BoxGrid(2, 8.0, 32)
    a = build_initial_data(2, kind="curl_bump", amplitude=0.0005, width=1.0)
    f = ForceModel(2, terms=[SeparableTerm(GaussianBump(2, width=1.0),
                                           Indicator(0.0, 0.2487), (0.0015, 0.0005))])
    traj = sv.picard_solve(a, f, grid, 0.5, sv.SolverOptions(slices=8, tol=tol))
    last = traj.snapshots[-1]
    return (traj, [sv.grid_l2(s, grid) for s in traj.snapshots],
            [last[0, 16, 16], last[1, 18, 13], last[0, 20, 24]])


class TestTrajectoryFormat:
    # a reused trajectory is trusted by its manifest's format line, so a
    # change to what the solve computes must raise TRAJECTORY_FORMAT
    message = ("trajectory content changed: raise TRAJECTORY_FORMAT and pin the new "
               "values under it")

    def test_content_pinned_under_the_format(self):
        _, norms, values = _format_solve(1e-12)
        assert sv.TRAJECTORY_FORMAT in _TRAJECTORY_PINS, self.message
        pinned_norms, pinned_values = _TRAJECTORY_PINS[sv.TRAJECTORY_FORMAT]
        np.testing.assert_allclose(norms, pinned_norms, rtol=1e-12, atol=0,
                                   err_msg=self.message)
        np.testing.assert_allclose(values, pinned_values, rtol=1e-12, atol=0,
                                   err_msg=self.message)

    def test_certified_stop_pinned_under_the_format(self):
        traj, norms, values = _format_solve(1e-10)
        assert sv.TRAJECTORY_FORMAT in _CERTIFIED_PINS, self.message
        pinned_norms, pinned_values, log, kappa, bound = _CERTIFIED_PINS[sv.TRAJECTORY_FORMAT]
        np.testing.assert_allclose(norms, pinned_norms, rtol=1e-12, atol=0,
                                   err_msg=self.message)
        np.testing.assert_allclose(values, pinned_values, rtol=1e-12, atol=0,
                                   err_msg=self.message)
        # one sweep; the update and the bound built on it are differences of
        # iterates, so they carry the round-off of |u| / update ~ 1e5 ulps
        assert len(traj.iteration_log) == len(log) == 1, self.message
        np.testing.assert_allclose(traj.iteration_log, log, rtol=1e-9, err_msg=self.message)
        np.testing.assert_allclose(traj.kappa, kappa, rtol=1e-12, err_msg=self.message)
        np.testing.assert_allclose(traj.bound, bound, rtol=1e-9, err_msg=self.message)


class TestPersistence:
    def test_round_trip(self, canonical, tmp_path):
        _, _, traj = canonical
        traj.save(tmp_path / "traj")
        back = sv.load_trajectory(tmp_path / "traj")
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.drift, traj.drift)
        assert back.iteration_log == traj.iteration_log
        assert (back.kappa, back.bound) == (traj.kappa, traj.bound)
        assert back.bound is not None
        for s1, s2 in zip(back.snapshots, traj.snapshots):
            np.testing.assert_array_equal(s1, s2)

    def test_round_trip_without_certified_bound(self, canonical, tmp_path):
        _, _, traj = canonical
        uncertified = sv.Trajectory(traj.grid, traj.times, traj.snapshots, traj.drift,
                                    traj.iteration_log, kappa=0.75, bound=None)
        uncertified.save(tmp_path / "traj")
        back = sv.load_trajectory(tmp_path / "traj")
        assert (back.kappa, back.bound) == (0.75, None)

    @pytest.mark.parametrize("edit", [
        lambda lines: [ln for ln in lines if not ln.startswith("iteration_log")],
        lambda lines: lines + [ln for ln in lines if ln.startswith("iteration_log")],
        lambda lines: [ln for ln in lines if not ln.startswith("kappa")],
        lambda lines: lines + ["bound 0.0"],
        lambda lines: [ln for ln in lines if not ln.startswith("bound")],
        lambda lines: ["kappa nan" if ln.startswith("kappa") else ln for ln in lines],
        lambda lines: ["kappa" if ln.startswith("kappa") else ln for ln in lines],
        lambda lines: ["bound inf" if ln.startswith("bound") else ln for ln in lines],
        lambda lines: ["bound 1e-12 2e-12" if ln.startswith("bound") else ln for ln in lines],
        lambda lines: [ln.replace(ln.split()[1], "nan") if ln.startswith("iteration_log")
                       else ln for ln in lines],
        lambda lines: [ln for ln in lines if not ln.startswith("scenario_hash")],
        lambda lines: lines + ["scenario_hash 0123"],
        lambda lines: ["slices 7"] + lines,
    ], ids=["log_dropped", "log_duplicated", "kappa_dropped", "bound_duplicated",
            "bound_dropped", "kappa_nan", "kappa_cut", "bound_inf", "bound_two_values",
            "log_nan", "scenario_hash_dropped", "scenario_hash_repeated",
            "slices_repeated"])
    def test_manifest_certificate_lines_checked(self, canonical, tmp_path, edit):
        _, _, traj = canonical
        traj.save(tmp_path / "traj")
        manifest = tmp_path / "traj" / "manifest.txt"
        manifest.write_text("\n".join(edit(manifest.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match="manifest"):
            sv.load_trajectory(tmp_path / "traj")

    def test_snapshot_replaced_after_load_is_refused(self, canonical, tmp_path):
        # a snapshot file that no longer holds its slice's grid or time
        # raises when it is next read, naming the file
        from nsfarfield.grid import VectorFieldGrid

        _, _, traj = canonical
        traj.save(tmp_path / "traj")
        loaded = sv.load_trajectory(tmp_path / "traj")
        path = tmp_path / "traj" / "u00003.nsvf"
        coarse = BoxGrid(2, L, N // 2)
        for grid, comps, time in [(coarse, traj.snapshots[3][:, ::2, ::2], traj.times[3]),
                                  (traj.grid, traj.snapshots[3], traj.times[4])]:
            VectorFieldGrid(grid, comps, time=float(time)).save(path)
            with pytest.raises(ValueError, match="u00003.nsvf"):
                loaded.snapshots[3]

    def test_failed_resave_keeps_the_previous_trajectory(self, canonical, tmp_path,
                                                         monkeypatch):
        # the fifth snapshot write of a re-save fails: the saved trajectory
        # stays whole and nothing else is left next to it; a re-save that
        # completes replaces it and sweeps the staging directory of a save
        # that was killed outright
        from nsfarfield.grid import VectorFieldGrid

        _, _, traj = canonical
        target = tmp_path / "traj"
        traj.save(target)
        scaled = sv.Trajectory(traj.grid, traj.times, [2.0 * s for s in traj.snapshots],
                               2.0 * traj.drift, traj.iteration_log,
                               kappa=traj.kappa, bound=traj.bound)
        write, calls = VectorFieldGrid.save, []

        def failing(self, path):
            calls.append(path)
            if len(calls) == 5:
                raise OSError("disk full")
            write(self, path)

        monkeypatch.setattr(VectorFieldGrid, "save", failing)
        with pytest.raises(OSError, match="disk full"):
            scaled.save(target)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["traj"]
        back = sv.load_trajectory(target)
        for s1, s2 in zip(back.snapshots, traj.snapshots):
            np.testing.assert_array_equal(s1, s2)
        (tmp_path / ".traj.killed").mkdir()
        scaled.save(target)
        assert [p.name for p in tmp_path.iterdir()] == ["traj"]
        back = sv.load_trajectory(target)
        np.testing.assert_array_equal(back.drift, scaled.drift)
        for s1, s2 in zip(back.snapshots, scaled.snapshots):
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
        assert divergence_defect(traj.field_at(0.25)) < 1e-10
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
