"""Plan explanations: content, rendering, and JSON round-trips."""

import json

import pytest

from repro.core.exhaustive import OptimalPlanner
from repro.core.top_down import TopDownOptimizer
from repro.hierarchy import build_hierarchy
from repro.network.topology import transit_stub_by_size
from repro.obs import PlanExplanation, Tracer, build_explanation, tracing
from repro.query.deployment import DeploymentState
from repro.serialization import (
    explanation_from_json,
    explanation_to_json,
    trace_from_json,
    trace_to_json,
)
from repro.workload import build_world
from repro.workload.generator import WorkloadParams, generate_workload


@pytest.fixture(scope="module")
def env():
    net = transit_stub_by_size(32, seed=6)
    workload = generate_workload(
        net,
        WorkloadParams(num_streams=6, num_queries=4, joins_per_query=(3, 4)),
        seed=13,
    )
    hierarchy = build_hierarchy(net, max_cs=8, seed=0)
    return net, hierarchy, workload


class TestExplainFlag:
    def test_explain_attaches_an_explanation(self, env):
        net, hierarchy, workload = env
        rates = workload.rate_model()
        optimizer = TopDownOptimizer(hierarchy, rates)
        query = workload.queries[0]
        deployment = optimizer.plan(query, None, explain=True)
        exp = deployment.explanation
        assert isinstance(exp, PlanExplanation)
        assert exp.query == query.name
        assert exp.algorithm == "top-down"
        assert exp.plan == deployment.plan.pretty()
        assert exp.sink == query.sink
        assert len(exp.operators) == deployment.plan.num_joins
        assert exp.cost_estimate == pytest.approx(deployment.stats["est_cost"])
        assert exp.totals["plans_examined"] > 0
        assert all(step["step"] == "task" for step in exp.levels)

    def test_without_explain_no_explanation(self, env):
        net, hierarchy, workload = env
        rates = workload.rate_model()
        optimizer = TopDownOptimizer(hierarchy, rates)
        deployment = optimizer.plan(workload.queries[0], None)
        assert deployment.explanation is None

    def test_operator_inputs_carry_rates_and_ship_costs(self, env):
        net, hierarchy, workload = env
        rates = workload.rate_model()
        optimizer = OptimalPlanner(net, rates)
        deployment = optimizer.plan(workload.queries[1], None, explain=True)
        for op in deployment.explanation.operators:
            assert op["node"] in net.nodes()
            for inp in op["inputs"]:
                assert inp["kind"] in ("base stream", "reused view", "join output")
                assert inp["rate"] > 0
                assert inp["ship_cost"] >= 0

    def test_reused_views_are_reported(self, env):
        net, hierarchy, workload = env
        rates = workload.rate_model()
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        optimizer = OptimalPlanner(net, rates)
        query = workload.queries[0]
        state.apply(optimizer.plan(query, state))
        # identical sources resubmitted: the second plan can reuse views
        clone = query.rename(f"{query.name}.again") if hasattr(query, "rename") else None
        if clone is None:
            from repro.query.query import Query

            clone = Query(
                f"{query.name}.again",
                sources=query.sources,
                sink=query.sink,
                predicates=query.predicates,
                window=query.window,
            )
        deployment = optimizer.plan(clone, state, explain=True)
        reused_leaves = [l for l in deployment.plan.leaves() if not l.is_base_stream]
        assert len(deployment.explanation.reused_views) == len(reused_leaves)
        text = deployment.explanation.render()
        if reused_leaves:
            assert "reused (not recomputed):" in text
        else:
            assert "reused: nothing" in text

    def test_render_is_operator_readable(self, env):
        net, hierarchy, workload = env
        rates = workload.rate_model()
        optimizer = TopDownOptimizer(hierarchy, rates)
        deployment = optimizer.plan(workload.queries[2], None, explain=True)
        text = deployment.explanation.render()
        assert "plan explanation:" in text
        assert "join order:" in text
        assert "JOIN" in text
        assert "per planning step:" in text


class TestSerialization:
    def test_explanation_round_trips_through_json(self, env):
        net, hierarchy, workload = env
        rates = workload.rate_model()
        optimizer = TopDownOptimizer(hierarchy, rates)
        deployment = optimizer.plan(workload.queries[0], None, explain=True)
        exp = deployment.explanation
        doc = explanation_to_json(exp)
        json.loads(doc)  # valid JSON
        rebuilt = explanation_from_json(doc)
        assert rebuilt.to_dict() == exp.to_dict()
        assert rebuilt.render() == exp.render()

    def test_trace_round_trips_through_json(self, env):
        net, hierarchy, workload = env
        rates = workload.rate_model()
        tracer = Tracer()
        optimizer = TopDownOptimizer(hierarchy, rates)
        with tracing(tracer):
            optimizer.plan(workload.queries[0], None)
        root = tracer.last_root
        doc = trace_to_json(root)
        rebuilt = trace_from_json(doc)
        assert rebuilt.to_dict() == root.to_dict()

    def test_wrong_kind_is_rejected(self):
        with pytest.raises(ValueError, match="not a serialized trace"):
            trace_from_json('{"kind": "repro.query"}')
        with pytest.raises(ValueError, match="not a serialized explanation"):
            explanation_from_json('{"kind": "repro.trace"}')


def _without_durations(doc):
    if isinstance(doc, dict):
        return {k: _without_durations(v) for k, v in doc.items() if k != "duration"}
    if isinstance(doc, list):
        return [_without_durations(item) for item in doc]
    return doc


class TestOneShotExplain:
    @pytest.mark.parametrize("algorithm", ["top-down", "bottom-up"])
    def test_one_shot_and_installed_tracer_explain_alike(self, algorithm):
        """``explain=True`` reports the same totals and span tree whether
        or not the caller installed a tracer -- the ads index's
        ``ads_sync`` span and publish counters included."""
        world = build_world(
            48, WorkloadParams(num_streams=8, num_queries=12, joins_per_query=(2, 4)),
            network_seed=3, workload_seed=4, hierarchy_seeds={6: 0},
        )

        def explain_all(install: bool) -> list:
            optimizer, state, out = world.optimizer(algorithm), world.fresh_state(), []
            for query in world.workload:
                if install:
                    with tracing(Tracer()):
                        deployment = optimizer.plan(query, state, explain=True)
                else:
                    deployment = optimizer.plan(query, state, explain=True)
                state.apply(deployment)
                out.append((
                    deployment.explanation.totals,
                    _without_durations(deployment.stats["trace"]),
                ))
            return out

        one_shot, installed = explain_all(False), explain_all(True)
        assert one_shot == installed
        assert installed[-1][0]["ads_views_published"] > 0


class TestBuildExplanation:
    def test_build_without_trace_falls_back_to_stats(self, env):
        net, hierarchy, workload = env
        rates = workload.rate_model()
        optimizer = OptimalPlanner(net, rates)
        deployment = optimizer.plan(workload.queries[0], None)
        exp = build_explanation(deployment)
        assert exp.levels == []
        assert exp.totals["plans_examined"] == deployment.stats["plans_examined"]
        assert exp.operators  # plan-side content needs no trace
