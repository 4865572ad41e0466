"""Tests of the benchmark itself: metric names, tiny runs of every workload,
repeatable call counts, and clean removal of the timing wrappers."""
import json
import os
import re
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run.import_mudal()

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_match_the_charset_and_the_spec():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(UNIT.match(u) for u in units)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_runs_at_a_tiny_size(workload, tmp_path):
    result = run.measure_end_to_end(workload, 0, 0, out_root=str(tmp_path), tiny=True,
                                    probes=1)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS * 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(result["digests"]) >= 3


def test_traced_call_counts_repeat_exactly(tmp_path):
    first = run.measure_per_layer("cal_bigbatch", 0, 0, out_root=str(tmp_path), tiny=True)
    second = run.measure_per_layer("cal_bigbatch", 0, 0, out_root=str(tmp_path), tiny=True)
    assert first["problems"] == [] and second["problems"] == []
    assert set(first["metrics"]) == set(run.PER_LAYER)
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["objective.compute_vd.calls"] > 0
    assert first["digests"] == second["digests"]


def test_wrappers_reach_every_importing_namespace_and_are_removed():
    import mudal.bounds
    import mudal.harness
    import mudal.objective
    import mudal.training

    original = mudal.objective.compute_vd
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        wrapped = mudal.objective.compute_vd
        assert wrapped is not original
        assert mudal.training.compute_vd is wrapped
        assert mudal.harness.estimate_h_distance is mudal.objective.estimate_h_distance
        assert mudal.bounds.estimate_h_distance is mudal.objective.estimate_h_distance
        assert tracing.leftover_wrappers()
    finally:
        tracing.uninstall(patches)
    assert tracing.leftover_wrappers() == []
    assert mudal.objective.compute_vd is original
    assert mudal.training.compute_vd is original


def test_self_time_excludes_wrapped_children():
    tracer = tracing.Tracer()

    def child():
        return sum(range(20000))

    wrapped_child = tracer.wrap(child, "x.child")

    def parent():
        return wrapped_child() + wrapped_child()

    tracer.wrap(parent, "x.parent")()
    assert tracer.calls("x.child") == 2
    assert tracer.edge("x.parent", "x.child")[0] == 2
    assert tracer.self_time("x.parent") == pytest.approx(
        tracer.total("x.parent") - tracer.total("x.child"))
    root_time = sum(e[1] for (p, _), e in tracer.edges.items() if p is None)
    assert root_time == pytest.approx(
        tracer.self_time("x.parent") + tracer.self_time("x.child"))
