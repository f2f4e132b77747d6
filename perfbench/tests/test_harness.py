"""Tests of the benchmark harness: seeded inputs, tail rule, self time, failures.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.inputs(workload, 7) == workloads.inputs(workload, 7)


def test_other_seed_changes_param_study_parameters():
    def draws(seed):
        return sorted(json.dumps(item, sort_keys=True)
                      for item in workloads.inputs("param-study", seed)[0])

    first, second = draws(1), draws(2)
    assert len(first) == len(second) == workloads.PARAM_PROBLEMS
    assert not set(first) & set(second)


def test_basis_reuse_shares_of_the_workloads():
    def new_frac(workload):
        # Each group runs in its own process, so reuse counts within a group.
        groups = workloads.inputs(workload, 3)
        distinct = sum(len({(i["alpha"], i["n"]) for i in group}) for group in groups)
        return distinct / sum(len(group) for group in groups)

    assert new_frac("sweep") == 1.0
    assert new_frac("param-study") == 3 / workloads.PARAM_PROBLEMS
    assert new_frac("large-n") == pytest.approx(0.2)


@pytest.mark.parametrize("count", [20, 45, 99, 100, 150, 600, 999, 1000, 20000])
def test_tail_percentile_keeps_ten_samples_beyond(count):
    values = [float(v) for v in range(count)]
    pct, value, beyond = run.tail_percentile(values[::-1])
    assert beyond >= run.TAIL_BEYOND
    assert sum(v > value for v in values) == beyond
    for higher in (p for p in run.TAIL_LADDER if p > pct):
        assert count - math.ceil(higher / 100.0 * count) < run.TAIL_BEYOND


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(run.BenchError):
        run.tail_percentile(range(19))


def test_self_time_subtracts_child_spans_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8].
    trace = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["b", 5.0, 9.0, 0, 0, None],
        ["c", 6.0, 8.0, 2, 0, None],
    ]
    assert spans.self_times(trace) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_tracer_links_nested_calls_to_their_parent():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x), tag=lambda x: x)
    tracer.solve_id = 5
    assert outer(2) == 9
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert {s[spans.SOLVE] for s in tracer.spans} == {5}
    summary = spans.summarize(tracer.spans)
    assert summary["inner"]["calls"] == 2 and summary["outer"]["tags"] == [2]
    assert summary["outer"]["self_ms"] <= summary["outer"]["ms"]


def test_raising_and_inaccurate_solves_count_as_failed():
    import laneps

    reference = worker.load_reference()
    item = workloads.inputs("sweep", 0)[0][0]
    good = worker.prepare(item, reference)
    inaccurate = dict(good, tol_mae=0.0)
    diverging = dict(good, spec=laneps.ProblemSpec(
        kind="nonlinear", alpha1=0.0, alpha2=1.0, beta=1.0, gamma=0.0, delta=0.0,
        f=lambda x, y: x * float("nan")))
    records = worker.run_inputs([good, inaccurate, diverging])
    assert [r["ok"] for r in records] == [True, False, False]
    assert records[2]["error"].startswith("NonlinearSolveError")

    passes = [{"traced": False, "workers": [
        {"records": records * 7, "setup_s": 0.1, "setup_scale": 1.0, "wall_s": 1.0,
         "wall_ref_s": 1.0, "peak_rss_mb": 30.0}]}]
    result = run.outcome(passes)
    assert (result["attempted"], result["failed"]) == (21, 14)
    assert result["correct"] is False and result["wrong"] == [item["id"]]
    values, basis = run.end_to_end(passes, item["n"])
    assert values["ok_frac"] == pytest.approx(1 / 3)
    assert basis["fail_frac"] == pytest.approx(2 / 3)


def test_speed_scale_uses_the_probes_around_each_solve():
    ref = worker.PROBE_REF_S
    scales = worker.speed_scales([ref, ref, 3 * ref, 2 * ref])
    assert scales == pytest.approx([1.0, 0.5, 0.4])


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
