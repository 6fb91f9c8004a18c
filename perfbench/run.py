"""Benchmark of the nsfarfield `all` pipeline on three seeded scenarios.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each scenario run is one user's CLI
call: a fresh interpreter, with PYTHONPATH=src and BLAS pinned to one thread,
runs `nsfarfield all` through `cli.main` into a fresh output directory, on a
config generated from the seed (see workloads.py).  The loop is closed with one
client: one run at a time.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      interpreter start to scenario built (import, parse, build),
               median over the runs and SETUP_REPEATS set-up-only
               interpreters, half started before the runs and half after
  verdict_s    scenario built to the report verdict written, median over runs
  peak_rss_mb  peak resident memory of a run's process, median over runs
Runs repeat while the next one is expected to end within --seconds; there is
always at least one.

--trace 1 runs the scenario untraced at the workload's thread count, untraced
at the other thread count (1 <-> 2), and traced with spans around every layer
(spans.py), and reports the per-layer metrics.

Every run passes the correctness gate of workloads.gate; its artifacts
(all but run.log) must hash the same as every other run of the same source and
config, in this process and in earlier ones (ledger in perfbench/_work).  The
last line of stdout is the JSON result; the lines before it print each metric
with its unit, failed_fraction, and the environment.  A fuller record (every
operation, every sample) goes to perfbench/_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
SETUP_REPEATS = 8
DEADLINE_S = 170.0  # every process this run starts ends before then
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "config.parse_s": "s",
    "cli.build_scenario_s": "s",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "cli.thread_speedup": "x",
    "forcing.validate_assumptions_s": "s",
    "forcing.validate_assumptions_calls": "count",
    "kernels.oseen_grad_contract_s": "s",
    "kernels.oseen_grad_contract_busy_s": "s",
    "kernels.oseen_grad_contract_calls": "count",
    "kernels.grad_pairs": "count",
    "kernels.grad_pairs_per_s": "1/s",
    "kernels.grad_bytes_computed": "B",
    "kernels.projected_gaussian_s": "s",
    "kernels.projected_gaussian_calls": "count",
    "kernels.busy_s": "s",
    "kernels.self_s": "s",
    "solver.farfield_velocity_s": "s",
    "solver.farfield_velocity_busy_s": "s",
    "solver.farfield_velocity_calls": "count",
    "solver.farfield_velocity_share": "fraction",
    "solver.farfield_points": "count",
    "solver.farfield_points_per_s": "1/s",
    "solver.farfield_batches": "count",
    "solver.farfield_batch_s.p50": "s",
    "solver.farfield_batch_s.tail": "s",
    "solver.farfield_batch_s.tail_pct": "%",
    "solver.picard_solve_s": "s",
    "solver.picard_solve_share": "fraction",
    "solver.picard_sweeps": "count",
    "solver.trajectory_save_s": "s",
    "solver.trajectory_save_bytes_computed": "B",
    "solver.load_trajectory_s": "s",
    "solver.load_trajectory_bytes_computed": "B",
    "solver.busy_s": "s",
    "solver.self_s": "s",
    "grid.restrict_annulus_norm_s": "s",
    "grid.restrict_annulus_norm_calls": "count",
    "verify.remainder_extract_s": "s",
    "verify.pointwise_window_check_s": "s",
    "verify.weighted_norm_sweep_s": "s",
    "verify.divergence_detect_s": "s",
    "verify.lemlog_check_s": "s",
    "verify.busy_s": "s",
    "verify.self_s": "s",
    "trace.verdict_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """State of one benchmark invocation: its directory, deadline and gate."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.spec = workloads.WORKLOADS[workload]
        self.start = time.monotonic()
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_text = workloads.make_config(workload, seed)
        self.config = self.dir / "scenario.cfg"
        self.config.write_text(self.config_text)
        self.ops = []  # (name, ok)
        self.env = {}
        self.count = 0
        self.samples = {"setup_s": [], "runs": []}  # kept in the results file

    def check(self, name: str, ok: bool) -> bool:
        self.ops.append((name, bool(ok)))
        return bool(ok)

    def _spawn(self, args: list) -> dict | None:
        """Start child.py in a fresh interpreter; its result, or None."""
        self.count += 1
        result_path = self.dir / f"result{self.count}.json"
        env = {k: v for k, v in os.environ.items() if not k.startswith("NSFF_")}
        env.update(PINNED)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
        cmd = [sys.executable, str(BENCH / "child.py"), args[0], str(self.config),
               str(result_path)] + args[1:]
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            self.check(f"{args[0]} child ends before the deadline", False)
            return None
        if not self.check(f"{args[0]} child leaves a result", result_path.is_file()):
            sys.stderr.write(proc.stderr[-2000:])
            return None
        result = json.loads(result_path.read_text())
        result["spawned"] = spawned
        result["exit"] = proc.returncode
        expected = str(ROOT / "src" / "nsfarfield")
        self.check("nsfarfield imported from this checkout",
                   result["nsfarfield"].startswith(expected))
        self.env = {k: result[k] for k in ("numpy", "python")}
        return result

    def setup(self) -> None:
        """One set-up-only interpreter; its set-up time joins the samples."""
        res = self._spawn(["setup"])
        if res is not None and self.check("setup child exits 0", res["exit"] == 0):
            self.samples["setup_s"].append(res["built"] - res["spawned"])

    def scenario(self, threads: int, trace: bool) -> dict | None:
        """One `nsfarfield all` run, gated; returns its measurements."""
        out = self.dir / f"out{self.count + 1}"
        res = self._spawn(["run", str(out), str(threads), "1" if trace else "0"])
        if res is None:
            return None
        self.check("run child exits 0", res["exit"] == 0)
        artifacts = {}
        for path in sorted(out.glob("*.json")):
            payload = json.loads(path.read_text())
            if path.name.startswith("report_"):
                artifacts["report"] = payload
            elif "check" in payload:
                artifacts[payload["check"]] = payload
        for name, ok in workloads.gate(self.workload, res["rc"], artifacts):
            self.check(name, ok)
        res["digest"] = artifact_digest(out)
        shutil.rmtree(out, ignore_errors=True)
        if "built" not in res or "end" not in res:
            self.check("run reaches the scenario build", False)
            return None
        res["setup_s"] = res["built"] - res["spawned"]
        res["verdict_s"] = res["end"] - res["built"]
        res["threads"] = threads
        self.samples["runs"].append({k: res[k] for k in (
            "threads", "setup_s", "verdict_s", "cpu_s", "maxrss_kb", "digest")})
        return res

    def check_determinism(self, runs: list) -> None:
        if not runs:
            return
        digests = {r["digest"] for r in runs}
        if len(runs) > 1:
            self.check("artifacts identical across runs in this process", len(digests) == 1)
        ledger_path = WORK / "digests.json"
        key = hashlib.sha256((self.config_text + source_digest()).encode()).hexdigest()
        ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
        if key in ledger:
            self.check("artifacts identical to earlier runs of this source and config",
                       digests == {ledger[key]})
        elif len(digests) == 1:
            ledger[key] = digests.pop()
            tmp = ledger_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(ledger, sort_keys=True))
            os.replace(tmp, ledger_path)


def artifact_digest(out: Path) -> str:
    """Hash of every artifact of a run except run.log, by relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "run.log"):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def busy(spans) -> float:
    """Summed over threads of the union of each thread's intervals."""
    threads = {}
    for s in spans:
        threads.setdefault(s["thread"], []).append((s["start"], s["end"]))
    return sum((union_length(iv) for iv in threads.values()), 0.0)


def tail(samples: list) -> tuple:
    """(median, highest percentile with >= 10 samples beyond it, that percentile)."""
    if not samples:
        return 0.0, 0.0, 0.0
    xs = sorted(samples)
    n = len(xs)
    k = max(n - 11, 0)
    return statistics.median(xs), xs[k], 100.0 * (k + 1) / n


def layer_metrics(traced: dict, base: dict, other: dict) -> dict:
    keys = ("id", "parent", "name", "thread", "start", "end", "work")
    spans = [dict(zip(keys, s)) for s in traced["spans"]]
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def self_time(s):
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], [])]
        return (s["end"] - s["start"]) - union_length([k for k in kids if k[1] > k[0]])

    def named(name):
        return [s for s in spans if s["name"] == name]

    def wall(name):
        return union_length([(s["start"], s["end"]) for s in named(name)])

    def work(name, field):
        return sum((s["work"] or {}).get(field, 0) for s in named(name))

    verdict = traced["end"] - traced["built"]
    lo, hi = traced["built"], traced["end"]
    top = [(max(s["start"], lo), min(s["end"], hi)) for s in children.get(None, [])]
    m = {
        "config.parse_s": wall("config.parse"),
        "cli.build_scenario_s": wall("cli.build_scenario"),
        "cli.self_s": verdict - union_length([t for t in top if t[1] > t[0]]),
        "cli.cpu_s": base["cpu_s"],
        "forcing.validate_assumptions_s": wall("forcing.validate_assumptions"),
        "forcing.validate_assumptions_calls": len(named("forcing.validate_assumptions")),
    }
    one = base if base["threads"] == 1 else other
    two = other if one is base else base
    m["cli.thread_speedup"] = one["verdict_s"] / two["verdict_s"]

    grad = named("kernels.oseen_grad_contract")
    grad_busy = busy(grad)
    m.update({
        "kernels.oseen_grad_contract_s": wall("kernels.oseen_grad_contract"),
        "kernels.oseen_grad_contract_busy_s": grad_busy,
        "kernels.oseen_grad_contract_calls": len(grad),
        "kernels.grad_pairs": work("kernels.oseen_grad_contract", "pairs"),
        "kernels.grad_pairs_per_s": (work("kernels.oseen_grad_contract", "pairs") / grad_busy
                                     if grad_busy else 0.0),
        "kernels.grad_bytes_computed": work("kernels.oseen_grad_contract", "bytes"),
        "kernels.projected_gaussian_s": wall("kernels.projected_gaussian"),
        "kernels.projected_gaussian_calls": len(named("kernels.projected_gaussian")),
    })

    far = wall("solver.farfield_velocity")
    points = work("solver.farfield_velocity", "points")
    p50, p_tail, pct = tail([s["end"] - s["start"] for s in named("solver.farfield_batch")])
    m.update({
        "solver.farfield_velocity_s": far,
        "solver.farfield_velocity_busy_s": busy(named("solver.farfield_velocity")),
        "solver.farfield_velocity_calls": len(named("solver.farfield_velocity")),
        "solver.farfield_velocity_share": far / verdict,
        "solver.farfield_points": points,
        "solver.farfield_points_per_s": points / far if far else 0.0,
        "solver.farfield_batches": len(named("solver.farfield_batch")),
        "solver.farfield_batch_s.p50": p50,
        "solver.farfield_batch_s.tail": p_tail,
        "solver.farfield_batch_s.tail_pct": pct,
        "solver.picard_solve_s": wall("solver.picard_solve"),
        "solver.picard_solve_share": wall("solver.picard_solve") / verdict,
        "solver.picard_sweeps": work("solver.picard_solve", "sweeps"),
        "solver.trajectory_save_s": wall("solver.trajectory_save"),
        "solver.trajectory_save_bytes_computed": work("solver.trajectory_save", "bytes"),
        "solver.load_trajectory_s": wall("solver.load_trajectory"),
        "solver.load_trajectory_bytes_computed": work("solver.load_trajectory", "bytes"),
        "grid.restrict_annulus_norm_s": wall("grid.restrict_annulus_norm"),
        "grid.restrict_annulus_norm_calls": len(named("grid.restrict_annulus_norm")),
    })
    for fn in ("remainder_extract", "pointwise_window_check", "weighted_norm_sweep",
               "divergence_detect", "lemlog_check"):
        m[f"verify.{fn}_s"] = wall(f"verify.{fn}")
    for layer in ("kernels", "solver", "verify"):
        mine = [s for s in spans if s["name"].split(".")[0] == layer]
        # a batch span only waits for its far-field workers: not busy time
        m[f"{layer}.busy_s"] = busy([s for s in mine if s["name"] != "solver.farfield_batch"])
        m[f"{layer}.self_s"] = sum((self_time(s) for s in mine), 0.0)
    m["trace.verdict_s"] = verdict
    m["trace.overhead_s"] = verdict - base["verdict_s"]
    return m


# ---------------------------------------------------------------------------


def measure(run: Run, seconds: float) -> dict:
    """--trace 0: end-to-end metrics."""
    threads = run.spec["threads"]
    # set-up samples on both sides of the runs, as machine speed drifts
    before = SETUP_REPEATS // 2
    for _ in range(before):
        run.setup()
    runs = []
    while True:
        res = run.scenario(threads, trace=False)
        if res is None:
            break
        runs.append(res)
        elapsed = time.monotonic() - run.start
        if elapsed + res["end"] - res["spawned"] > seconds:
            break
    for _ in range(SETUP_REPEATS - before):
        run.setup()
    run.check_determinism(runs)
    if not runs:
        return {}
    return {
        "setup_s": statistics.median(run.samples["setup_s"] + [r["setup_s"] for r in runs]),
        "verdict_s": statistics.median(r["verdict_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for r in runs),
    }


def trace(run: Run) -> dict:
    """--trace 1: per-layer metrics from one traced run and two untraced ones."""
    threads = run.spec["threads"]
    base = run.scenario(threads, trace=False)
    other = run.scenario(3 - threads, trace=False)
    traced = run.scenario(threads, trace=True)
    done = [r for r in (base, other, traced) if r is not None]
    run.check_determinism(done)
    if len(done) < 3:
        return {}
    fired = {s[2] for s in traced["spans"]}
    for name in run.spec["spans"]:
        run.check(f"span {name} records a call", name in fired)
    return layer_metrics(traced, base, other)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nsfarfield" / "cli.py").is_file():
        print(f"no nsfarfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    values = trace(run) if args.trace else measure(run, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    if set(values) != set(units):
        run.check("every metric measured", False)
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}
    failed = sum(1 for _, ok in run.ops if not ok)
    attempted = max(len(run.ops), 1)
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "threads": run.spec["threads"] if not args.trace else "1 and 2",
           **run.env, **PINNED}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, operations=run.ops, samples=run.samples)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    shutil.rmtree(run.dir, ignore_errors=True)

    for name, ok in run.ops:
        if not ok:
            print(f"FAILED: {name}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_fraction':40s} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
