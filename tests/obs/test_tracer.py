"""Span tracer: nesting, counters, serialization, and the no-op default.

The acceptance-critical properties live here too: with no tracer
installed nothing is recorded (no samples, no spans), and tracing never
changes what the optimizers compute -- plans and costs are bit-identical
with tracing on and off.
"""

import numpy as np
import pytest

from repro.core.bottom_up import BottomUpOptimizer
from repro.core.exhaustive import OptimalPlanner
from repro.core.top_down import TopDownOptimizer
from repro.hierarchy import build_hierarchy
from repro.network.topology import transit_stub_by_size
from repro.obs import Span, Tracer, tracing
from repro.obs.tracer import NULL_SPAN, current_tracer, incr, span, tag
from repro.workload.generator import WorkloadParams, generate_workload


class TestSpanBasics:
    def test_spans_nest_and_time(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        with tracing(tracer):
            with span("outer", algorithm="x") as outer:
                with span("inner") as inner:
                    inner.incr("work", 3)
                    inner.incr("work", 2)
            with span("after") as after:
                pass
        assert tracer.roots == [outer, after]  # the stack unwound
        assert outer.children == [inner]
        assert inner.counters["work"] == 5
        assert outer.duration == 3.0  # ticks 0..3
        assert inner.duration == 1.0  # ticks 1..2

    def test_siblings_attach_to_the_same_parent(self):
        tracer = Tracer()
        with tracing(tracer), span("root") as root:
            with span("a"):
                pass
            with span("b"):
                pass
        assert [c.name for c in root.children] == ["a", "b"]

    def test_current_incr_and_tag_hit_the_open_span(self):
        tracer = Tracer()
        with tracing(tracer):
            with span("root") as root:
                incr("hits")
                tag(mode="test")
            # with nothing open, both are silently dropped
            incr("hits")
            tag(mode="late")
        assert root.counters == {"hits": 1}
        assert root.tags == {"mode": "test"}

    def test_total_sums_over_the_subtree(self):
        tracer = Tracer()
        with tracing(tracer), span("root") as root:
            root.incr("n", 1)
            with span("kid") as kid:
                kid.incr("n", 2)
                with span("grandkid") as g:
                    g.incr("n", 4)
        assert root.total("n") == 7

    def test_exception_inside_a_span_still_closes_it(self):
        tracer = Tracer()
        with tracing(tracer):
            with pytest.raises(RuntimeError, match="boom"):
                with span("root"):
                    with span("inner"):
                        raise RuntimeError("boom")
            with span("after") as after:
                pass
        assert tracer.roots[-1] is after  # stack unwound cleanly
        assert tracer.roots[0].duration >= 0.0

    def test_round_trip_through_to_dict(self):
        tracer = Tracer()
        with tracing(tracer), span("root", algorithm="top-down") as root:
            root.incr("plans_examined", 42)
            with span("task", level=2):
                pass
        rebuilt = Span.from_dict(root.to_dict())
        assert rebuilt.name == "root"
        assert rebuilt.tags == {"algorithm": "top-down"}
        assert rebuilt.counters == {"plans_examined": 42}
        assert [c.name for c in rebuilt.children] == ["task"]
        assert rebuilt.duration == pytest.approx(root.duration)

    def test_render_contains_tags_counters_and_depth(self):
        tracer = Tracer()
        with tracing(tracer), span("optimize", algorithm="bu") as root:
            with span("climb", level=1) as climb:
                climb.incr("plans_examined", 9)
        text = root.render()
        assert "optimize algorithm=bu" in text
        assert "\n  climb level=1 plans_examined=9" in text

    def test_render_max_depth_marks_pruned_children(self):
        tracer = Tracer()
        with tracing(tracer), span("optimize") as root:
            with span("task"):
                with span("subtask"):
                    pass
            with span("task"):
                pass
        truncated = root.render(max_depth=0)
        assert truncated.splitlines()[0].startswith("optimize")
        assert "… (+3 pruned)" in truncated
        assert "task" not in truncated
        middle = root.render(max_depth=1)
        assert "task" in middle
        assert "subtask" not in middle
        assert "… (+1 pruned)" in middle
        # An unbounded render (or one deep enough) never shows a marker.
        assert "pruned" not in root.render()
        assert "pruned" not in root.render(max_depth=2)

    def test_render_leaf_at_max_depth_has_no_marker(self):
        tracer = Tracer()
        with tracing(tracer), span("only") as root:
            pass
        assert root.render(max_depth=0).count("\n") == 0


class TestReentrancy:
    def test_concurrent_threads_get_isolated_stacks(self):
        import threading

        tracer = Tracer()
        barrier = threading.Barrier(4)
        errors: list[Exception] = []

        def work(i: int) -> None:
            try:
                barrier.wait()
                with tracing(tracer):
                    for _ in range(50):
                        with span(f"outer{i}"):
                            with span(f"inner{i}") as inner:
                                inner.incr("ops")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Every outer span is a root (threads never parent under each
        # other), and each parents exactly its own inner span.
        assert len(tracer.roots) == 4 * 50
        for root in tracer.roots:
            assert root.name.startswith("outer")
            suffix = root.name[len("outer"):]
            assert [c.name for c in root.children] == [f"inner{suffix}"]

    def test_copied_context_cannot_pop_foreign_span(self):
        import contextvars

        tracer = Tracer()
        with tracing(tracer):
            outer = span("outer")
            outer.__enter__()

            def nested() -> None:
                # This context sees the open span as parent but exits only
                # its own; the outer stack is untouched afterwards.
                with span("child"), span("grandchild"):
                    pass

            contextvars.copy_context().run(nested)
            with span("sibling"):
                pass
            outer.__exit__(None, None, None)
            with span("after") as after:
                pass
        assert [c.name for c in outer.children] == ["child", "sibling"]
        assert [c.name for c in outer.children[0].children] == ["grandchild"]
        assert tracer.roots == [outer, after]


class TestNullTracer:
    """With no tracer installed the hooks allocate and record nothing."""

    def test_null_tracer_allocates_nothing(self):
        assert current_tracer() is None
        assert span("anything", x=1) is NULL_SPAN

    def test_null_span_is_inert(self):
        with span("work", q="q1") as work:
            work.incr("n", 5)
            work.tag(foo="bar")
        assert work is NULL_SPAN
        assert work.counters == {}
        assert work.tags == {}


@pytest.fixture(scope="module")
def traced_env():
    net = transit_stub_by_size(32, seed=3)
    workload = generate_workload(
        net,
        WorkloadParams(num_streams=6, num_queries=5, joins_per_query=(3, 4)),
        seed=8,
    )
    hierarchy = build_hierarchy(net, max_cs=8, seed=0)
    return net, hierarchy, workload


class TestOptimizerTracing:
    def test_top_down_task_spans_nest_under_recursion(self, traced_env):
        net, hierarchy, workload = traced_env
        rates = workload.rate_model()
        tracer = Tracer()
        optimizer = TopDownOptimizer(hierarchy, rates)
        with tracing(tracer):
            optimizer.plan(workload.queries[0], None)
        root = tracer.last_root
        assert root.name == "optimize"
        tasks = [s for s in root.walk() if s.name == "task"]
        assert tasks, "top-down planning must open task spans"
        # the first task is the root cluster's; fragment tasks for lower
        # levels nest *inside* it, mirroring the recursion
        top = tasks[0]
        assert top in root.children
        assert [s for s in top.walk() if s.name == "task"][1:], (
            "recursive fragments must nest in the parent task"
        )
        levels = [t.tags["level"] for t in top.walk() if t.name == "task"]
        assert levels[0] == max(levels)
        assert root.total("plans_examined") > 0

    def test_disabled_tracer_adds_no_spans(self, traced_env):
        net, hierarchy, workload = traced_env
        rates = workload.rate_model()
        optimizer = TopDownOptimizer(hierarchy, rates)  # no tracer installed
        deployment = optimizer.plan(workload.queries[0], None)
        assert current_tracer() is None
        assert "trace" not in deployment.stats

    @pytest.mark.parametrize("make", [
        lambda net, h, r: TopDownOptimizer(h, r),
        lambda net, h, r: BottomUpOptimizer(h, r),
        lambda net, h, r: OptimalPlanner(net, r),
    ], ids=["top-down", "bottom-up", "optimal"])
    def test_tracing_never_changes_plans_or_costs(self, traced_env, make):
        net, hierarchy, workload = traced_env
        rates = workload.rate_model()
        plain = make(net, hierarchy, rates)
        traced = make(net, hierarchy, rates)
        for query in workload:
            a = plain.plan(query, None)
            with tracing(Tracer()):
                b = traced.plan(query, None, explain=True)
            assert a.plan.pretty() == b.plan.pretty()
            assert {n.pretty(): p for n, p in a.placement.items()} == {
                n.pretty(): p for n, p in b.placement.items()
            }
            cost_a = a.stats.get("est_cost", a.stats.get("cost_estimate"))
            cost_b = b.stats.get("est_cost", b.stats.get("cost_estimate"))
            assert cost_a == cost_b or np.isclose(cost_a, cost_b, rtol=0, atol=0)

    def test_explain_true_uses_a_one_shot_tracer(self, traced_env):
        net, hierarchy, workload = traced_env
        rates = workload.rate_model()
        optimizer = BottomUpOptimizer(hierarchy, rates)
        deployment = optimizer.plan(workload.queries[1], None, explain=True)
        assert deployment.explanation is not None
        assert deployment.stats["trace"]["name"] == "optimize"
        # the one-shot tracer is uninstalled again
        assert current_tracer() is None
