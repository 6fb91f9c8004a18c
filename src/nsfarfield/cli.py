"""Scenario runner: parse a config, solve, verify, and write reports.

Subcommands
-----------
kernel-check   run the kernel invariant suite, write envelope constants
simulate       solve the scenario and persist the trajectory
verify         run the configured checks against the trajectory
report         aggregate per-check results into a machine-readable verdict
all            simulate + verify + report

Exit codes: 0 pass, 1 check failure, 2 configuration error, 3 numerical
failure.  Outputs are deterministic for a fixed config: file names carry the
scenario hash, JSON is sorted, and wall-clock time goes only to
``run.log`` which is excluded from any determinism comparison.

Flags mirror the environment variables NSFF_CONFIG, NSFF_OUT, NSFF_ONLY
(explicit flags win).  ``--threads`` is accepted and has no effect: far-field
batches run serially.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import kernels, verify
from .config import CHECK_NAMES, ConfigError, ScenarioConfig, parse_config
from .forcing import (
    ForceModel,
    GaussianBump,
    Indicator,
    SeparableTerm,
    SmoothBump,
    build_initial_data,
    validate_assumptions,
)
from .grid import BoxGrid
from .solver import (
    SolverError,
    SolverOptions,
    Trajectory,
    load_trajectory,
    picard_solve,
    scenario_digest,
)

__all__ = ["main", "build_scenario", "run_scenario", "run_kernel_check"]

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


def build_scenario(cfg: ScenarioConfig):
    """Materialize (grid, initial data, force, options, hash) from a config."""
    grid = BoxGrid(cfg.dimension, cfg.half_width, cfg.points)
    data = build_initial_data(cfg.dimension, kind=cfg.data_kind,
                              amplitude=cfg.data_amplitude, width=cfg.data_width)
    if cfg.time_profile == "smooth_bump":
        tau = SmoothBump(cfg.time_on, cfg.time_off)
    else:
        tau = Indicator(cfg.time_on, cfg.time_off)
    amp = np.asarray(cfg.force_amplitude)
    sep = np.asarray(cfg.force_separation)
    d = cfg.dimension
    # (center, amplitude weight) of each bump; the quadrupole's mean and
    # first moment both vanish
    bumps = {"gaussian_bump": [(cfg.force_center, 1)],
             "dipole_pair": [(sep, 1), (-sep, -1)],
             "quadrupole": [(sep, 1), (-sep, 1), (np.zeros(d), -2)]}
    if cfg.force_kind == "zero" or not np.any(amp):
        force = ForceModel.zero(d)
    else:
        force = ForceModel(d, terms=[
            SeparableTerm(GaussianBump(d, width=cfg.force_width, center=center), tau,
                          tuple(weight * amp))
            for center, weight in bumps[cfg.force_kind]])
    opts = SolverOptions(slices=cfg.slices, tol=cfg.tolerance,
                         max_sweeps=cfg.max_sweeps, refine=cfg.refine)
    digest = scenario_digest(cfg.hash_source())
    return grid, data, force, opts, digest


class _ThreadedFlow(verify.FlowAdapter):
    """The checks' FlowAdapter: each far-field batch is one serial call.

    The name and the unused ``threads`` argument stay because the acceptance
    suite builds it with ``threads=2`` and the benchmark's far-field batch
    span wraps ``_ThreadedFlow.velocity``.
    """

    def __init__(self, traj, a, f, opts, threads: int = 1):
        super().__init__(traj, a, f, opts)


def run_kernel_check(out_dir: str, d: int = 2) -> int:
    """Kernel invariant suite; writes envelope constants and a verdict."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(20260808)
    x = rng.normal(size=(64, d)) * 3
    problems = []

    tr = kernels.leading_tensor(x, d)
    if float(np.abs(np.trace(tr, axis1=-2, axis2=-1)).max()) != 0.0:
        problems.append("leading tensor trace not exactly zero")
    for t in (0.25, 1.0, 4.0):
        k = kernels.oseen_kernel(x, t, d)
        scal = t ** (-d / 2.0) * kernels.oseen_kernel(x / math.sqrt(t), 1.0, d)
        if np.abs(k - scal).max() > 1e-12 * np.abs(k).max():
            problems.append(f"scaling relation fails at t={t}")
        trace_err = np.abs(np.trace(k, axis1=-2, axis2=-1)
                           - (d - 1) * kernels.heat_kernel(x, t, d)).max()
        if trace_err > 1e-10 * np.abs(k).max():
            problems.append(f"trace identity fails at t={t}")
    # residual consistency at random points
    for i in range(32):
        t = float(np.exp(rng.uniform(-2, 1)))
        xi = x[i]
        lhs = kernels.oseen_kernel(xi, t, d)
        rhs = kernels.leading_tensor(xi, d) + float(
            np.linalg.norm(xi)) ** (-d) * kernels.psi_residual(xi / math.sqrt(t), d)
        if np.abs(lhs - rhs).max() > 1e-10 * max(1.0, np.abs(lhs).max()):
            problems.append("self-similar decomposition identity fails")
            break

    c_k = kernels.envelope_constant(d)
    c_f = kernels.grad_envelope_constant(d)
    c_l1 = kernels.oseen_l1_gradient_norm(1.0, d)
    verify.write_csv(os.path.join(out_dir, f"kernel_envelopes_d{d}.csv"),
                     ["quantity", "dimension", "constant"],
                     [("oseen_envelope", d, c_k),
                      ("gradient_envelope", d, c_f),
                      ("gradient_l1_at_unit_time", d, c_l1)])
    verify.write_json(os.path.join(out_dir, f"kernel_check_d{d}.json"),
                      {"check": "kernel", "dimension": d, "passed": not problems,
                       "problems": problems,
                       "oseen_envelope_constant": c_k,
                       "gradient_envelope_constant": c_f,
                       "gradient_l1_constant": c_l1})
    for p in problems:
        print(f"kernel-check FAIL: {p}")
    print(f"kernel-check d={d}: {'pass' if not problems else 'FAIL'} "
          f"(envelope constants {c_k:.3g}, {c_f:.3g})")
    return EXIT_PASS if not problems else EXIT_CHECK_FAILURE


def _traj_dir(out_dir: str, digest: str) -> str:
    return os.path.join(out_dir, f"trajectory_{digest}")


def simulate(cfg: ScenarioConfig, out_dir: str, scenario=None) -> Trajectory:
    """Solve and persist; ``scenario`` is ``build_scenario(cfg)`` if already built."""
    from .solver import ADMISSION_LIMIT

    grid, data, force, opts, digest = scenario or build_scenario(cfg)
    rep = validate_assumptions(force, ADMISSION_LIMIT,
                               points_per_axis=128, time_samples=129)
    traj = picard_solve(data, force, grid, cfg.horizon, opts, scenario_hash=digest,
                        assumptions=rep)
    os.makedirs(out_dir, exist_ok=True)
    traj.save(_traj_dir(out_dir, digest))
    verify.write_json(os.path.join(out_dir, f"simulate_{digest}.json"), {
        "scenario": cfg.name, "hash": digest,
        "sweeps": len(traj.iteration_log),
        "iteration_log": traj.iteration_log,
        "contractive": traj.contractive,
        "decay_constant": traj.decay_constant(),
        "assumptions": {"epsilon_f1": rep.epsilon_f1, "l1_norm": rep.l1_norm,
                        "c_f3": rep.c_f3, "pass": rep.all_pass},
    })
    return traj


def _load_or_solve(cfg: ScenarioConfig, out_dir: str, scenario) -> Trajectory:
    *_, digest = scenario
    tdir = _traj_dir(out_dir, digest)
    if os.path.isdir(tdir):
        try:
            return load_trajectory(tdir)
        except (OSError, ValueError) as exc:
            print(f"cannot reuse {tdir} ({exc}); solving again")
    return simulate(cfg, out_dir, scenario)


def _check_profile(cfg, flow):
    rep = verify.remainder_extract(flow, np.array(cfg.profile_radii), cfg.profile_time)
    # decay of |u| itself: the -d law for a nonzero-mean force
    sup = rep.extras["velocity_sup"]
    if np.all(sup < 1e-30):
        u_fit = None  # zero flow: nothing to fit, trivially consistent
    else:
        u_fit = verify.fit_power_law(np.array(cfg.profile_radii), sup,
                                     "velocity_decay", predicted_exponent=-float(flow.d),
                                     tolerance=0.15)
    if "intercept" in rep.extras:
        log_pred = rep.extras["intercept"] + rep.fitted_exponent * np.log(rep.abscissa)
        residuals = np.abs(np.log(np.maximum(rep.values, 1e-300)) - log_pred)
    else:
        residuals = np.zeros_like(rep.values)
    rows = [(r, v, rep.extras["constant"] * r ** rep.predicted_exponent
             * math.sqrt(cfg.profile_time), res)
            for r, v, res in zip(rep.abscissa, rep.values, residuals)]
    payload = {
        "check": "profile",
        "passed": bool(rep.passed and (u_fit is None or u_fit.passed)),
        "remainder_exponent": rep.fitted_exponent if math.isfinite(rep.fitted_exponent) else None,
        "remainder_constant": rep.extras["constant"],
        "remainder_constant_variation": rep.extras["constant_variation"],
        "onset_radius": (rep.extras["onset_radius"]
                         if math.isfinite(rep.extras.get("onset_radius", math.inf))
                         else None),
        "velocity_exponent": None if u_fit is None else u_fit.fitted_exponent,
        "velocity_exponent_predicted": -float(flow.d),
    }
    return rows, payload


def _check_window(cfg, flow):
    control = not np.any(flow.force_integral(cfg.window_time))
    rep = verify.pointwise_window_check(
        flow, cfg.window_time, np.array(cfg.window_radii),
        n_dirs=cfg.window_directions,
        short_times=cfg.short_times or None, control=control)
    # per radius: min over directions of |u| r^d, the sphere floor, max/min
    rows = [(r, lo, rep.sphere_floor, hi / max(lo, 1e-300))
            for r, lo, hi in zip(rep.radii, rep.radius_min, rep.radius_max)]
    expected_fail = control
    payload = {
        "check": "window", "control_scenario": control,
        "passed": bool((not rep.window_pass and rep.fitted_slope <= -(flow.d + 0.5))
                       if expected_fail else rep.window_pass),
        "lower": rep.lower, "upper": rep.upper, "ratio": rep.ratio,
        "fitted_slope": rep.fitted_slope,
        "sphere_floor": rep.sphere_floor,
        "remainder_fraction": rep.remainder_fraction,
        "short_time": rep.short_time,
    }
    return rows, payload


def _check_sweep(cfg, flow):
    norms = verify.TrajectoryNorms(flow)
    results = {}
    ok = True
    rows = []
    for alpha, p in cfg.sweep_pairs:
        rep = verify.weighted_norm_sweep(norms, flow.d, alpha, p,
                                         np.array(cfg.sweep_times))
        key = f"alpha{alpha:g}_p{'inf' if math.isinf(p) else f'{p:g}'}"
        results[key] = {"fitted": rep.fitted_exponent,
                        "predicted": rep.predicted_exponent,
                        "passed": rep.passed}
        ok = ok and rep.passed
        for t, v in zip(rep.abscissa, rep.values):
            rows.append((t, v, math.exp(rep.extras["intercept"])
                         * t ** rep.predicted_exponent, rep.residual))
    payload = {"check": "sweep", "passed": bool(ok), "fits": results}
    return rows, payload


def _check_divergence(cfg, flow):
    results = {}
    ok = True
    rows = []
    for alpha, p in cfg.divergence_pairs:
        rep = verify.divergence_detect(flow, alpha, p, cfg.divergence_time,
                                       np.array(cfg.divergence_radii))
        key = f"alpha{alpha:g}_p{p:g}"
        results[key] = {"verdict": rep.verdict,
                        "increments": rep.increments.tolist(),
                        "ratios": rep.ratios.tolist()}
        ok = ok and rep.divergent
        for r, inc in zip(rep.radii[1:], rep.increments):
            rows.append((r, inc, rep.increments[0], 0.0))
    payload = {"check": "divergence", "passed": bool(ok), "results": results}
    return rows, payload


def _check_lemlog(cfg, flow):
    t0 = min(1.0, cfg.horizon / 2.0)
    ts = [t0 * 0.5**k for k in range(4)]
    xs = [8.0, 16.0, 32.0, 64.0]
    rep = verify.lemlog_check(xs, ts, d=cfg.dimension)
    rows = [(r / math.sqrt(t), ratio, pred, ratio - pred)
            for (r, t), ratio, pred in zip(rep.pairs, rep.ratios, rep.predictions)]
    payload = {"check": "lemlog", "passed": bool(rep.passed),
               "sup_ratio": rep.sup_ratio, "variation": rep.variation,
               "refinement_shift": rep.refinement_shift}
    return rows, payload


def _check_next_order(cfg, flow):
    rep = verify.next_order_check(flow, cfg.next_order_time,
                                  np.array(cfg.next_order_radii))
    rows = []
    if rep.fit is not None:
        for r, v, agr in zip(rep.radii, rep.fit.values, rep.agreement):
            rows.append((r, v, math.exp(rep.fit.extras["intercept"])
                         * r ** rep.fit.predicted_exponent, agr))
    payload = {"check": "next_order", "passed": bool(rep.passed),
               "degenerate": rep.degenerate, "note": rep.note,
               "fitted_exponent": None if rep.fit is None else rep.fit.fitted_exponent,
               "agreement": None if rep.agreement is None else rep.agreement.tolist()}
    return rows, payload


# check name -> runner(cfg, flow) returning (CSV rows, JSON payload)
_CHECK_RUNNERS = {
    "profile": _check_profile,
    "window": _check_window,
    "sweep": _check_sweep,
    "divergence": _check_divergence,
    "lemlog": _check_lemlog,
    "next_order": _check_next_order,
}


def run_verify(cfg: ScenarioConfig, out_dir: str, only=None, scenario=None) -> int:
    """Run the configured checks; ``scenario`` is ``build_scenario(cfg)`` if already built."""
    scenario = scenario or build_scenario(cfg)
    _, data, force, opts, digest = scenario
    traj = _load_or_solve(cfg, out_dir, scenario)
    flow = _ThreadedFlow(traj, data, force, opts)
    selected = [c for c in cfg.checks if only is None or c in only]
    summary = {"scenario": cfg.name, "hash": digest, "checks": {}}
    status = EXIT_PASS
    for check in selected:
        if check == "kernel":
            code = run_kernel_check(out_dir, cfg.dimension)
            summary["checks"]["kernel"] = {"passed": code == EXIT_PASS}
            if code != EXIT_PASS:
                status = max(status, EXIT_CHECK_FAILURE)
            continue
        runner = _CHECK_RUNNERS[check]
        try:
            rows, payload = runner(cfg, flow)
        except (SolverError, FloatingPointError) as exc:
            summary["checks"][check] = {"error": f"{type(exc).__name__}: {exc}"}
            print(f"check {check}: NUMERICAL FAILURE ({exc})")
            status = max(status, EXIT_NUMERICAL_FAILURE)
            continue
        except (verify.RegimeError, verify.HypothesisError,
                verify.ValidityRegionError, ValueError) as exc:
            summary["checks"][check] = {"error": f"{type(exc).__name__}: {exc}"}
            print(f"check {check}: ERROR ({exc})")
            status = max(status, EXIT_CHECK_FAILURE)
            continue
        verify.write_csv(os.path.join(out_dir, f"{check}_{digest}.csv"),
                         ["abscissa", "value", "prediction", "residual"], rows)
        verify.write_json(os.path.join(out_dir, f"{check}_{digest}.json"), payload)
        summary["checks"][check] = {"passed": payload.get("passed")}
        print(f"check {check}: {'pass' if payload.get('passed') else 'FAIL'}")
        if not payload.get("passed"):
            status = max(status, EXIT_CHECK_FAILURE)
    verify.write_json(os.path.join(out_dir, f"verify_{digest}.json"), summary)
    return status


def run_report(cfg: ScenarioConfig, out_dir: str) -> int:
    import json

    digest = scenario_digest(cfg.hash_source())
    path = os.path.join(out_dir, f"verify_{digest}.json")
    if not os.path.exists(path):
        print(f"no verify summary at {path}; run `verify` first")
        return EXIT_CONFIG_ERROR
    with open(path) as fh:
        summary = json.load(fh)
    all_pass = True
    for check, result in sorted(summary.get("checks", {}).items()):
        if "error" in result:
            print(f"{check}: ERROR {result['error']}")
            all_pass = False
        else:
            print(f"{check}: {'pass' if result.get('passed') else 'FAIL'}")
            all_pass = all_pass and bool(result.get("passed"))
    verdict = {"scenario": summary.get("scenario"), "hash": digest,
               "overall": "pass" if all_pass else "fail",
               "checks": summary.get("checks", {})}
    verify.write_json(os.path.join(out_dir, f"report_{digest}.json"), verdict)
    print(f"overall: {'pass' if all_pass else 'FAIL'}")
    return EXIT_PASS if all_pass else EXIT_CHECK_FAILURE


def run_scenario(cfg: ScenarioConfig, out_dir: str, only=None) -> int:
    """simulate + verify + report; partial results are preserved on failure."""
    t0 = time.time()
    scenario = build_scenario(cfg)
    try:
        simulate(cfg, out_dir, scenario)
    except SolverError as exc:
        print(f"simulate: NUMERICAL FAILURE ({exc})")
        return EXIT_NUMERICAL_FAILURE
    status = run_verify(cfg, out_dir, only=only, scenario=scenario)
    report_status = run_report(cfg, out_dir)
    with open(os.path.join(out_dir, "run.log"), "a") as fh:
        fh.write(f"run_scenario finished in {time.time() - t0:.1f}s\n")
    return max(status, report_status)


def _build_parser() -> argparse.ArgumentParser:
    env = os.environ
    parser = argparse.ArgumentParser(
        prog="nsfarfield",
        description="far-field asymptotics laboratory for forced Navier-Stokes flows")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", default=env.get("NSFF_CONFIG"),
                       required=needs_config and "NSFF_CONFIG" not in env,
                       help="scenario config file")
        p.add_argument("--out", default=env.get("NSFF_OUT"),
                       help="output directory (default: config output.directory)")
        p.add_argument("--threads", type=int, default=1,
                       help="ignored; far-field batches run serially")

    kc = sub.add_parser("kernel-check", help="kernel invariant suite")
    kc.add_argument("--out", default=env.get("NSFF_OUT", "out"))
    kc.add_argument("--dimension", type=int, default=2, choices=(2, 3))

    for name in ("simulate", "verify", "report", "all"):
        p = sub.add_parser(name)
        common(p)
        if name in ("verify", "all"):
            p.add_argument("--only", default=env.get("NSFF_ONLY"),
                           help="comma-separated subset of checks")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "kernel-check":
        return run_kernel_check(args.out, args.dimension)

    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        print(f"cannot read config: {exc}")
        return EXIT_CONFIG_ERROR
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}")
        return EXIT_CONFIG_ERROR

    out_dir = args.out or cfg.output_directory
    only = None
    if getattr(args, "only", None):
        only = [c.strip() for c in args.only.split(",") if c.strip()]
        unknown = [c for c in only if c not in CHECK_NAMES]
        if unknown:
            print(f"config error: unknown checks in --only: {', '.join(unknown)}")
            return EXIT_CONFIG_ERROR

    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.command == "simulate":
            simulate(cfg, out_dir)
            return EXIT_PASS
        if args.command == "verify":
            return run_verify(cfg, out_dir, only=only)
        if args.command == "report":
            return run_report(cfg, out_dir)
        return run_scenario(cfg, out_dir, only=only)
    except SolverError as exc:
        print(f"NUMERICAL FAILURE: {exc}")
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
