"""Acceptance suite: every criterion at its stated tolerance, one line each.

Desk scale throughout: d = 2, canonical box L = 32 with N = 256 points per
axis, horizons T <= 2.  The canonical scenario (Gaussian force bump, zero
datum) is solved once and shared by the criteria that need a trajectory.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from nsfarfield import cli
from nsfarfield import kernels as kn
from nsfarfield import solver as sv
from nsfarfield import verify as vf
from nsfarfield.config import parse_config
from nsfarfield.forcing import (
    ForceModel,
    GaussianBump,
    Indicator,
    SeparableTerm,
    SmoothBump,
    build_initial_data,
)
from nsfarfield.grid import BoxGrid, VectorFieldGrid, read_snapshot

D = 2
L = 32.0
N = 256

CANONICAL = """\
[scenario]
name = canonical

[grid]
half_width = 32.0
points = 256

[time]
horizon = 2.0
slices = 128

[force]
kind = gaussian_bump
amplitude = 0.0018 0.0
width = 1.2
time_profile = smooth_bump
time_on = 0.0
time_off = 0.5

[checks]
run = profile window sweep divergence
profile_time = 1.0
profile_radii = 16 22.63 32 45.25 64 90.51 128
window_time = 1.0
window_radii = 32 48 64 96 128
sweep_times = 1.0 1.122 1.26 1.414 1.587 1.782 2.0
divergence_time = 2.0
divergence_radii = 32 64 128 256 512
"""


def report(name, passed, detail=""):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def canonical():
    cfg = parse_config(CANONICAL)
    grid, data, force, opts, digest = cli.build_scenario(cfg)
    traj = sv.picard_solve(data, force, grid, cfg.horizon, opts, scenario_hash=digest)
    flow = cli._ThreadedFlow(traj, data, force, opts, threads=2)
    return cfg, grid, data, force, opts, traj, flow


class TestCriterion1KernelExactness:
    def test_fourier_consistency(self):
        # inverse DFT of the symbol pair-difference matches the closed forms
        # pointwise; the difference form has Gaussian tails in both spaces so
        # the periodic box is exact for it
        t, t2 = 0.25, 1.0
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
        closed = kn.oseen_kernel(pts, t, D) - kn.oseen_kernel(pts, t2, D)
        mask = (np.abs(X) <= L / 2) & (np.abs(Y) <= L / 2)
        worst = 0.0
        for j in range(D):
            for l in range(D):
                sym = ((j == l) - kk[j] * kk[l] * proj) * dec
                phys = np.fft.fftshift(np.real(np.fft.ifft2(sym))) * (N / (2 * L)) ** 2
                worst = max(worst, float(np.abs(phys - closed[..., j, l])[mask].max()))
        report("criterion 1a (fourier consistency)", worst < 1e-6,
               f"max pointwise error {worst:.3e} < 1e-6")

    def test_trace_identities(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(500, D)) * 4
        k = kn.oseen_kernel(x, 0.7, D)
        tr_err = np.abs(np.trace(k, axis1=-2, axis2=-1)
                        - (D - 1) * kn.heat_kernel(x, 0.7, D)).max()
        rel = tr_err / np.abs(k).max()
        lead_tr = np.abs(np.trace(kn.leading_tensor(x, D), axis1=-2, axis2=-1)).max()
        report("criterion 1b (trace identities)",
               rel < 1e-10 and lead_tr == 0.0,
               f"oseen trace rel err {rel:.2e} < 1e-10, leading trace {lead_tr} == 0")

    def test_decay_envelopes(self):
        import time

        t0 = time.time()
        # 10^3-point log sample: 32 radii x 32 times (x directions)
        c_k = kn.envelope_constant(D, n_x=32, n_t=32)
        c_f = kn.grad_envelope_constant(D, n_x=32, n_t=32)
        elapsed = time.time() - t0
        report("criterion 1c (decay envelopes)",
               0 < c_k < 10 and 0 < c_f < 10 and elapsed < 30,
               f"constants {c_k:.3f}, {c_f:.3f} finite; {elapsed:.1f}s < 30s")


class TestCriterion2Decomposition:
    def test_residual_gaussian_decay(self):
        xi = np.linspace(1.0, 8.0, 40)
        pts = np.stack([xi, np.zeros_like(xi)], axis=-1)
        vals = np.sqrt(np.sum(kn.psi_residual(pts, D) ** 2, axis=(-2, -1)))
        rate = -np.polyfit(xi**2, np.log(vals), 1)[0]
        report("criterion 2a (residual gaussian rate)", rate > 0,
               f"fitted rate {rate:.3f} > 0")

    def test_consistency_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, D)) * 4
        ts = np.exp(rng.uniform(-2, 1, size=100))
        worst = 0.0
        for i in range(100):
            lhs = kn.oseen_kernel(x[i], ts[i], D)
            r = np.linalg.norm(x[i])
            rhs = kn.leading_tensor(x[i], D) + r ** (-D) * kn.psi_residual(
                x[i] / math.sqrt(ts[i]), D)
            worst = max(worst, np.abs(lhs - rhs).max() / max(1.0, np.abs(lhs).max()))
        report("criterion 2b (decomposition identity)", worst < 1e-10,
               f"max rel defect {worst:.2e} < 1e-10 on 100 random points")


class TestCriterion3KernelMassLemma:
    def test_ratio_bounded_over_sweeps(self):
        rep = vf.lemlog_check([8.0, 16.0, 32.0, 64.0],
                              [1.0, 0.5, 0.25, 0.125, 0.0625], d=D)
        report("criterion 3 (kernel mass lemma)",
               rep.passed and rep.variation < 2.0,
               f"ratio sup {rep.sup_ratio:.3f}, variation {rep.variation:.3f} < 2, "
               f"refinement shift {rep.refinement_shift:.1e}")


class TestCriterion4SolverContract:
    def test_residual_and_contraction(self, canonical):
        cfg, grid, data, force, opts, traj, flow = canonical
        res = sv.integral_residual(traj, data, force, opts)
        report("criterion 4a (integral residual)",
               res < 2 * opts.tol and traj.contractive,
               f"residual {res:.2e} < {2 * opts.tol:.0e}; "
               f"update log {['%.1e' % v for v in traj.iteration_log]} decreasing")

    def test_amplitude_halving_order(self):
        grid = BoxGrid(D, L, N)
        a = build_initial_data(D, kind="zero")
        opts = sv.SolverOptions(slices=32, tol=1e-12)
        dev = {}
        for lam in (0.0018, 0.0009):
            f = ForceModel(D, terms=[SeparableTerm(
                GaussianBump(D, width=1.2), SmoothBump(0.0, 0.5), (lam, 0.0))])
            traj = sv.picard_solve(a, f, grid, 0.5, opts)
            ops = sv._SpectralOps(grid)
            lin = sv._linear_series(ops, f, traj.times, opts)
            dev[lam] = max(sv.grid_l2(traj.snapshots[m] - lin[m], grid)
                           for m in range(len(traj.snapshots)))
        ratio = dev[0.0018] / dev[0.0009]
        report("criterion 4b (amplitude halving)", 3.5 <= ratio <= 4.5,
               f"quadratic-order ratio {ratio:.3f} in [3.5, 4.5]")

    def test_refinement_stability(self):
        grid = BoxGrid(D, L, N)
        a = build_initial_data(D, kind="zero")
        f = ForceModel(D, terms=[SeparableTerm(
            GaussianBump(D, width=1.2), SmoothBump(0.0, 0.5), (0.0018, 0.0))])
        opts = sv.SolverOptions(slices=32, tol=1e-12)
        traj = sv.picard_solve(a, f, grid, 0.5, opts)
        x = np.array([20.0, 8.0])
        base, budget = sv.farfield_velocity(traj, a, f, x, 0.5, opts)
        total = sum(budget.values())
        fine, _ = sv.farfield_velocity(traj, a, f, x, 0.5,
                                       sv.SolverOptions(slices=32, tol=1e-12, refine=2))
        shift_t = np.linalg.norm(fine - base)
        traj2 = sv.picard_solve(a, f, BoxGrid(D, L, 2 * N), 0.5, opts)
        v2, _ = sv.farfield_velocity(traj2, a, f, x, 0.5, opts)
        shift_n = np.linalg.norm(v2 - base)
        report("criterion 4c (refinement stability)",
               shift_t <= total and shift_n <= total,
               f"panel doubling shift {shift_t:.2e}, N doubling shift {shift_n:.2e} "
               f"<= budget {total:.2e}")


class TestCriterion5Profile:
    def test_velocity_and_remainder_decay(self, canonical):
        import time

        cfg, grid, data, force, opts, traj, flow = canonical
        t0 = time.time()
        radii = np.array(cfg.profile_radii)
        rep = vf.remainder_extract(flow, radii, cfg.profile_time)
        dirs = kn.sphere_points(D, 16)
        sup = np.array([np.linalg.norm(flow.velocity(r * dirs, cfg.profile_time),
                                       axis=-1).max() for r in radii])
        ufit = vf.fit_power_law(radii, sup, "velocity",
                                predicted_exponent=-float(D), tolerance=0.15)
        elapsed = time.time() - t0
        report("criterion 5 (asymptotic profile)",
               ufit.passed and rep.passed and elapsed < 600,
               f"|u| slope {ufit.fitted_exponent:.4f} = -2 +- 0.15; remainder slope "
               f"{rep.fitted_exponent:.3f} <= -2.75; constant variation "
               f"{rep.extras['constant_variation']:.3f} < 2; {elapsed:.0f}s < 600s")


class TestCriterion6PointwiseWindow:
    def test_window_and_short_time(self):
        # indicator force: switched on at t = 0 with nonzero instantaneous mean,
        # so the short-time form |u| ~ t |x|^{-d} applies
        grid = BoxGrid(D, L, N)
        a = build_initial_data(D, kind="zero")
        f = ForceModel(D, terms=[SeparableTerm(
            GaussianBump(D, width=1.0), Indicator(0.0, 0.5), (0.002, 0.0))])
        opts = sv.SolverOptions(slices=64, tol=1e-12)
        traj = sv.picard_solve(a, f, grid, 0.5, opts)
        flow = cli._ThreadedFlow(traj, a, f, opts, threads=2)
        radii = np.array([32.0, 48.0, 64.0, 96.0, 128.0])
        rep = vf.pointwise_window_check(flow, 0.5, radii,
                                        short_times=[0.125, 0.0625, 0.03125])
        ok_window = rep.window_pass and rep.ratio < 5.0
        lo = [v["lower_over_t"] for v in rep.short_time.values()]
        hi = [v["upper_over_t"] for v in rep.short_time.values()]
        ok_short = max(hi) / min(lo) < 2.0
        report("criterion 6a (pointwise window)", ok_window and ok_short,
               f"ratio {rep.ratio:.3f} < 5; short-time constants/t within "
               f"{max(hi) / min(lo):.3f}x < 2x over t-halving")

    def test_free_flow_control_fails_window(self):
        grid = BoxGrid(D, L, N)
        a = build_initial_data(D, kind="curl_bump", amplitude=0.002, width=1.0)
        f = ForceModel.zero(D)
        opts = sv.SolverOptions(slices=64, tol=1e-12)
        traj = sv.picard_solve(a, f, grid, 1.0, opts)
        flow = cli._ThreadedFlow(traj, a, f, opts, threads=2)
        radii = np.array([32.0, 48.0, 64.0, 96.0, 128.0])
        rep = vf.pointwise_window_check(flow, 1.0, radii, control=True)
        report("criterion 6b (zero-force control)",
               (not rep.window_pass) and rep.fitted_slope <= -(D + 0.5),
               f"window fails as it should; fitted slope {rep.fitted_slope:.3f} "
               f"<= -{D + 0.5}")


class TestCriterion7WeightedNormExponents:
    def test_pipeline_exponents(self, canonical):
        cfg, grid, data, force, opts, traj, flow = canonical
        norms = vf.TrajectoryNorms(flow)
        times = np.array(cfg.sweep_times)
        details = []
        ok = True
        for alpha, p in ((0.0, math.inf), (1.0, math.inf), (0.0, 2.0)):
            rep = vf.weighted_norm_sweep(norms, D, alpha, p, times, tolerance=0.15)
            p_str = "inf" if math.isinf(p) else f"{p:g}"
            details.append(f"({alpha:g},{p_str}): "
                           f"{rep.fitted_exponent:.3f} vs {rep.predicted_exponent:.2f}")
            ok = ok and rep.passed
        report("criterion 7a (weighted norm exponents)", ok, "; ".join(details))

    def test_synthetic_oracle_two_decades(self):
        def modulus(r, t):
            z = r / math.sqrt(t)
            return (1.0 / t) * (1.0 + z * z) ** (-1.0)

        norms = vf.RadialNorms(D, modulus)
        ok = True
        details = []
        for alpha, p in ((0.0, math.inf), (1.0, math.inf), (0.0, 2.0)):
            rep = vf.weighted_norm_sweep(norms, D, alpha, p,
                                         np.logspace(3, 5, 9), tolerance=0.02)
            p_str = "inf" if math.isinf(p) else f"{p:g}"
            details.append(f"({alpha:g},{p_str}): "
                           f"err {abs(rep.fitted_exponent - rep.predicted_exponent):.4f}")
            ok = ok and rep.passed
        report("criterion 7b (synthetic scaling oracle)", ok, "; ".join(details))


class TestCriterion8Divergence:
    def test_logarithmic_divergence(self, canonical):
        cfg, grid, data, force, opts, traj, flow = canonical
        rep = vf.divergence_detect(flow, 0.0, 1.0, cfg.divergence_time,
                                   np.array(cfg.divergence_radii))
        spread = float(np.abs(rep.ratios - 1.0).max())
        report("criterion 8a (logarithmic divergence)",
               rep.verdict == "divergent-log" and spread < 0.10,
               f"octave increments constant within {100 * spread:.2f}% out to "
               f"R = {cfg.divergence_radii[-1]:g}")

    def test_convergent_contrast(self):
        def u(x, t):
            r2 = np.sum(x * x, axis=-1, keepdims=True)
            return x / r2**2

        flow = vf.SyntheticFlow(D, u)
        rep = vf.divergence_detect(flow, 0.0, 1.0, 1.0,
                                   np.array([32.0, 64.0, 128.0, 256.0, 512.0]))
        report("criterion 8b (convergent contrast)", rep.verdict == "convergent",
               f"steeper tail increments decay geometrically "
               f"(ratios {np.round(rep.ratios, 3).tolist()})")


class TestCriterion9NextOrder:
    def test_dipole_scenario(self):
        grid = BoxGrid(D, L, N)
        a = build_initial_data(D, kind="zero")
        # per-bump amplitude sized so the off-center bumps stay inside the
        # admission guard: the (1+|x|)^{d+2} weight at centers |x0| = 1 costs
        # roughly a factor (2+r)^4 / (1+r)^4 over a centered bump
        sep = (1.0, 0.0)
        tau = SmoothBump(0.0, 0.5)
        f = ForceModel(D, terms=[
            SeparableTerm(GaussianBump(D, width=1.0, center=sep), tau, (0.0, 0.0007)),
            SeparableTerm(GaussianBump(D, width=1.0, center=(-1.0, 0.0)), tau,
                          (0.0, -0.0007)),
        ])
        opts = sv.SolverOptions(slices=64, tol=1e-12)
        traj = sv.picard_solve(a, f, grid, 1.0, opts)
        flow = cli._ThreadedFlow(traj, a, f, opts, threads=2)
        radii = np.array([16.0, 22.63, 32.0, 45.25, 64.0, 90.51, 128.0])
        rep = vf.next_order_check(flow, 1.0, radii)
        report("criterion 9 (next-order profile)", rep.passed,
               f"slope {rep.fit.fitted_exponent:.3f} = -3 +- 0.25; agreement over "
               f"outer half {np.round(rep.agreement[len(radii) // 2:], 4).tolist()} improving")


class TestCriterion10DeterminismAndFormats:
    def test_snapshot_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(10)
        grid = BoxGrid(D, 8.0, 32)
        v = VectorFieldGrid(grid, rng.normal(size=(D,) + grid.shape), time=0.375)
        v.save(tmp_path / "snap.nsvf")
        w = read_snapshot(tmp_path / "snap.nsvf")
        lossless = (np.array_equal(w.components, v.components)
                    and w.time == v.time and w.grid == grid)
        report("criterion 10a (snapshot round trip)", lossless, "bitwise equal")

    def test_byte_identical_reruns(self, tmp_path):
        text = """\
[scenario]
name = determinism
[grid]
half_width = 16.0
points = 128
[time]
horizon = 1.0
slices = 32
[force]
amplitude = 0.002 0.0
time_off = 0.5
[checks]
run = profile window lemlog
profile_time = 1.0
profile_radii = 8 11.3 16 22.6 32 45.25 64
window_time = 1.0
window_radii = 16 24 32 48 64
"""
        cfg_path = tmp_path / "det.cfg"
        cfg_path.write_text(text)

        def run(out):
            code = cli.main(["all", "--config", str(cfg_path), "--out", str(out)])
            assert code == cli.EXIT_PASS
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(Path(out).rglob("*"))
                    if p.is_file() and p.name != "run.log"}

        h1 = run(tmp_path / "r1")
        h2 = run(tmp_path / "r2")
        report("criterion 10b (deterministic reruns)", h1 == h2,
               f"{len(h1)} artifacts byte-identical across reruns")
