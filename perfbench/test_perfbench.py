"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The span test runs every workload once, traced (about a minute and a half on
two cores); the others take no time.
"""

import json
import math

import pytest

import run
import workloads


def test_benchmark_json_names_what_run_py_prints():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_seed_draws_only_direction_and_centre():
    for name in workloads.WORKLOADS:
        assert workloads.make_config(name, 7) == workloads.make_config(name, 7)
        a, b = workloads.make_config(name, 7), workloads.make_config(name, 8)
        differ = [(x, y) for x, y in zip(a.splitlines(), b.splitlines()) if x != y]
        assert [x.split("=")[0].strip() for x, _ in differ] == ["amplitude", "center"]
        for line, _ in differ:
            vals = [float(v) for v in line.split("=")[1].split()]
            if line.startswith("amplitude"):
                assert math.isclose(math.hypot(*vals), workloads.AMPLITUDE)
            else:
                assert math.hypot(*vals) <= workloads.MAX_CENTER_OFFSET


def test_span_arithmetic():
    assert run.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    spans = [{"thread": 1, "start": 0, "end": 2}, {"thread": 1, "start": 1, "end": 3},
             {"thread": 2, "start": 0, "end": 3}]
    assert run.busy(spans) == 6
    median, tail, pct = run.tail([float(i) for i in range(1, 21)])
    assert (median, tail, pct) == (10.5, 10.0, 50.0)
    assert run.tail([])[0] == 0.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_span_fires(name):
    bench = run.Run(name, seed=1)
    try:
        traced = bench.scenario(bench.spec["threads"], trace=True)
    finally:
        run.shutil.rmtree(bench.dir, ignore_errors=True)
    assert traced is not None
    assert [op for op, ok in bench.ops if not ok] == []
    # the workload lists exactly the spans it reaches
    assert {s[2] for s in traced["spans"]} == set(bench.spec["spans"])
