"""What the benchmark uses of the package must exist and accept its input.

``perfbench/spans.py`` replaces functions by name (``cli.build_scenario``,
``verify.farfield_velocity``, ...); a rename or deletion there, or a call
that no longer goes through the wrapped name, only shows up in a traced
benchmark run.  One test runs its ``instrument`` with a tracer that checks
each target without wrapping it.  Another wraps every target and runs a small
``all`` whose checks cover the three workloads, and asserts that every span a
workload expects fires.  A third builds the scenario of every benchmark
config, so a new config rule that rejects one fails here, not in a benchmark
run.
"""

import functools
import importlib.util
import json
from pathlib import Path

import pytest

from nsfarfield import cli
from nsfarfield.config import parse_config
from test_config_cli import QUICK

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _CheckingTracer:
    def __init__(self):
        self.names = []

    def wrap(self, owner, attr, name, work=None):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"
        self.names.append(name)


def test_every_span_target_exists():
    spans = _load(SPANS, "perfbench_spans")
    tracer = _CheckingTracer()
    spans.instrument(tracer)
    assert "solver.farfield_velocity" in tracer.names
    assert "verify.lemlog_check" in tracer.names


class _RecordingTracer:
    def __init__(self, monkeypatch):
        self.fired = set()
        self._monkeypatch = monkeypatch

    def wrap(self, owner, attr, name, work=None):
        fn, fired = getattr(owner, attr), self.fired

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            fired.add(name)
            return fn(*args, **kwargs)

        self._monkeypatch.setattr(owner, attr, traced)


def test_every_workload_span_fires(tmp_path, monkeypatch):
    # one run that reaches every check of the three workloads, on QUICK's grid
    spans = _load(SPANS, "perfbench_spans")
    workloads = _load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    tracer = _RecordingTracer(monkeypatch)
    spans.instrument(tracer)
    cfg = tmp_path / "all.cfg"
    cfg.write_text(QUICK.replace("run = lemlog",
                                 "run = kernel profile window sweep divergence lemlog")
                   + "\n[checks]\nprofile_time = 0.375\nwindow_time = 0.375\n"
                   "profile_radii = 8 11.3 16 22.6 32 45.25 64\n"
                   "sweep_times = 0.25 0.3125 0.375 0.4375 0.5\ndivergence_time = 0.5\n")
    # the sweep's fits may miss on this coarse grid; every check runs to a verdict
    out = tmp_path / "out"
    code = cli.main(["all", "--config", str(cfg), "--out", str(out)])
    assert code in (cli.EXIT_PASS, cli.EXIT_CHECK_FAILURE)
    report = json.loads(next(out.glob("report_*.json")).read_text())
    assert all("passed" in result for result in report["checks"].values())
    expected = {name for spec in workloads.WORKLOADS.values() for name in spec["spans"]}
    assert sorted(expected - tracer.fired) == []


def _benchmark_configs():
    workloads = _load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    for name in workloads.WORKLOADS:
        for seed in range(1, 11):
            yield pytest.param(workloads.make_config(name, seed), id=f"{name}-{seed}")
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        yield pytest.param(path.read_text(), id=path.name)


@pytest.mark.parametrize("text", list(_benchmark_configs()))
def test_benchmark_and_shipped_configs_build(text):
    # seeds 1-10 of every workload, and every shipped config
    cli.build_scenario(parse_config(text))
