"""What the benchmark uses of the package must exist and accept its input.

``perfbench/spans.py`` replaces functions by name (``cli.build_scenario``,
``verify.farfield_velocity``, ...); a rename or deletion there only shows up
in a traced benchmark run.  One test runs its ``instrument`` with a tracer
that checks each target without wrapping it.  Another builds the scenario of
every benchmark config, so a new config rule that rejects one fails here,
not in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from nsfarfield import cli
from nsfarfield.config import parse_config

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
