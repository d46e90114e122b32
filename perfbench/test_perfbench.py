"""Tests of the benchmark itself: the self-time arithmetic, the span recorder,
the graph generator, and a tiny-graph pass over every workload's code path.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spantrace  # noqa: E402
import workloads  # noqa: E402
from graphgen import GraphSpec, rating_csv  # noqa: E402
from graphspring import graphs  # noqa: E402


def _self_by_name(spans, win):
    return {spans[i].name: value for i, value in win.self_s.items()}


def test_self_times_on_a_hand_built_tree():
    #   root [0,10]: a [1,4] (a1 [2,3]), b [5,9];  solo [11,12] at top level
    spans = [spantrace.Span("root", 0.0, 10.0, -1, "op-1"),
             spantrace.Span("a", 1.0, 4.0, 0, "op-1"),
             spantrace.Span("a1", 2.0, 3.0, 1, "op-1"),
             spantrace.Span("b", 5.0, 9.0, 0, "op-1"),
             spantrace.Span("solo", 11.0, 12.0, -1, "op-1")]
    whole = spantrace.window(spans, 0.0, 12.0)
    assert _self_by_name(spans, whole) == {"root": 3.0, "a": 2.0, "a1": 1.0, "b": 4.0,
                                           "solo": 1.0}
    assert whole.uncovered_ms == pytest.approx(1000.0)  # the gap from 10 to 11
    assert sum(whole.self_s.values()) * 1e3 + whole.uncovered_ms == pytest.approx(whole.ms)

    part = spantrace.window(spans, 2.0, 6.0)  # clips root, a and b
    assert _self_by_name(spans, part) == pytest.approx({"root": 1.0, "a": 1.0, "a1": 1.0,
                                                        "b": 1.0})
    assert part.uncovered_ms == 0.0
    assert {n: t.calls for n, t in part.by_name.items()} == {"root": 0, "a": 0, "a1": 1, "b": 1}
    assert part.by_name["a"].ms == pytest.approx(2000.0)
    assert spantrace.children(spans, 0, part) == [1, 3]
    assert spantrace.problems(spans, whole) == [] and spantrace.problems(spans, part) == []


def test_problems_catches_spans_that_do_not_nest():
    #   root [0,10]: a [1,6] and b [5,9] overlap; c [8,12] leaves a; d never closes
    spans = [spantrace.Span("root", 0.0, 10.0, -1, "op-1"),
             spantrace.Span("a", 1.0, 6.0, 0, "op-1"),
             spantrace.Span("b", 5.0, 9.0, 0, "op-1"),
             spantrace.Span("c", 8.0, 12.0, 1, "op-1"),
             spantrace.Span("d", 2.0, float("nan"), 1, "op-1")]
    found = spantrace.problems(spans, spantrace.window(spans, 0.0, 12.0))
    assert set(found) == {"c #3 is not inside its parent #1",
                          "d #4 is not closed or ends before it starts",
                          "b #2 overlaps its sibling #1"}
    # a child that outlasts its parent leaves the parent a negative self time
    tight = [spantrace.Span("p", 0.0, 1.0, -1, "op-1"), spantrace.Span("q", 0.0, 2.0, 0, "op-1")]
    assert set(spantrace.problems(tight, spantrace.window(tight, 0.0, 2.0))) == {
        "q #1 is not inside its parent #0", "p #0 has negative self time"}


def test_tracer_records_nested_calls_and_reports_absent_names():
    mod = types.SimpleNamespace()
    mod.inner = lambda rows: len(rows)
    mod.outer = lambda rows: mod.inner(rows) + 1
    original = mod.outer
    tracer = spantrace.Tracer({"m.outer": ([(mod, "outer")], None),
                               "m.inner": ([(mod, "inner")], 0),
                               "m.renamed": ([(mod, "renamed")], None)})
    tracer.op = "op-7"
    tracer.install()
    assert mod.outer([1, 2, 3]) == 4
    tracer.uninstall()
    assert mod.outer is original
    assert [(s.name, s.parent, s.op, s.rows) for s in tracer.spans] == [
        ("m.outer", -1, "op-7", 0), ("m.inner", 0, "op-7", 3)]
    assert tracer.absent == ["m.renamed"]


def test_intervals_scale_by_the_calibration_points_around_them():
    run = workloads.Run(workloads.WORKLOADS["embed-alpha-nn64"], 1, False, None, None)
    nominal = workloads.calibrate.NOMINAL_S
    # kernel passes at nominal speed, then twice as slow, then four times
    run.marks = [(0.0, 1.0, nominal), (3.0, 4.0, 2 * nominal), (6.0, 7.0, 4 * nominal)]
    assert workloads._at_nominal_speed(run, 1.0, 3.0) == pytest.approx(2.0 / 1.5)
    assert workloads._at_nominal_speed(run, 4.5, 5.5) == pytest.approx(1.0 / 3.0)
    assert workloads._at_nominal_speed(run, 7.0, 9.0) == pytest.approx(0.5)  # no point after


def test_calibration_kernel_is_fixed_and_finite():
    a, b = workloads.calibrate.Kernel(), workloads.calibrate.Kernel()
    assert (a.x0 == b.x0).all() and (a.diff != b.diff).nnz == 0
    assert a.seconds() > 0.0


def test_generator_is_seeded_and_exact():
    spec = GraphSpec(200, 900, 0.85)
    lines = rating_csv(spec, 5, "t")
    assert lines == rating_csv(spec, 5, "t")
    assert lines != rating_csv(spec, 6, "t")
    graph = graphs.to_undirected(graphs.load_edge_list(lines, "rating_csv"))
    assert (graph.n_nodes, graph.n_edges) == (200, 900)
    assert len(lines) > 900  # some pairs are rated in both directions


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_over_each_workload(name, trace, tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS[name], graph=GraphSpec(80, 300, 0.8),
                            k=4, n_steps=6, fd_steps=4)
    result, lines = workloads.run_workload(w, 3, 0.05, trace, ROOT, tmp_path)
    report = "\n".join(lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert (tmp_path / f"{name}-seed3-trace{int(trace)}.json").is_file()
    if trace:
        value = {k: v["value"] for k, v in result["metrics"].items()}
        assert value["forcefield.force_field.calls"] == w.n_steps
        assert value["forcefield.force_field_vjp.calls"] == (
            w.n_steps if w.kind == "train" else 0)
