"""The names the benchmark's traced run wraps must exist in the package.

``perfbench/spans.py`` replaces functions by name (``cli.build_scenario``,
``verify.farfield_velocity``, ...); a rename or deletion there only shows up
in a traced benchmark run.  This test runs its ``instrument`` with a tracer
that checks each target without wrapping it.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


class _CheckingTracer:
    def __init__(self):
        self.names = []

    def wrap(self, owner, attr, name, work=None):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"
        self.names.append(name)


def test_every_span_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = _CheckingTracer()
    spans.instrument(tracer)
    assert "solver.farfield_velocity" in tracer.names
    assert "verify.lemlog_check" in tracer.names
