"""Rebalancing with reuse dependencies: providers move, reusers follow."""

import numpy as np
import pytest

import repro
from repro.query.plan import Leaf


@pytest.fixture()
def provider_dependent_system():
    """q_provider deploys a tiny view; q_dep reuses it."""
    net = repro.transit_stub_by_size(24, seed=151)
    streams = {
        "A": repro.StreamSpec("A", 0, 100.0),
        "B": repro.StreamSpec("B", 3, 100.0),
    }
    rates = repro.RateModel(streams)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    pred = [repro.JoinPredicate("A", "B", 0.0005)]
    q_provider = repro.Query("q_provider", ["A", "B"], sink=10, predicates=pred)
    q_dep = repro.Query("q_dep", ["A", "B"], sink=12, predicates=pred)
    engine = repro.FlowEngine(net, rates)
    optimizer = repro.OptimalPlanner(net, rates, reuse=True)
    engine.deploy(optimizer.plan(q_provider, engine.state))
    dep_plan = optimizer.plan(q_dep, engine.state)
    engine.deploy(dep_plan)
    assert dep_plan.reused_leaves(), "setup must produce a reuse dependency"
    return net, rates, engine, optimizer, q_provider, q_dep


class TestRebalanceWithReuse:
    def test_provider_eviction_keeps_dependent_consistent(
        self, provider_dependent_system
    ):
        net, rates, engine, optimizer, q_provider, q_dep = provider_dependent_system
        # Make the provider's operator node overloaded.
        provider_dep = next(
            d for d in engine.state.deployments if d.query.name == "q_provider"
        )
        op_node = provider_dep.placement[provider_dep.plan]
        load = engine.node_loads()[op_node]
        mw = repro.AdaptiveMiddleware(engine, optimizer)
        report = mw.rebalance_load(capacity=load * 0.9)
        assert report.triggered
        # both queries still deployed, accounting consistent
        names = {d.query.name for d in engine.state.deployments}
        assert names == {"q_provider", "q_dep"}
        total = sum(engine.state.query_cost(n) for n in names)
        assert total == pytest.approx(engine.total_cost())
        # the provider's operator left the overloaded node
        provider_dep = next(
            d for d in engine.state.deployments if d.query.name == "q_provider"
        )
        assert provider_dep.placement[provider_dep.plan] != op_node

    def test_dependent_reuse_repinned_or_replanned(self, provider_dependent_system):
        net, rates, engine, optimizer, q_provider, q_dep = provider_dependent_system
        provider_dep = next(
            d for d in engine.state.deployments if d.query.name == "q_provider"
        )
        op_node = provider_dep.placement[provider_dep.plan]
        mw = repro.AdaptiveMiddleware(engine, optimizer)
        mw.rebalance_load(capacity=engine.node_loads()[op_node] * 0.9)
        dep = next(d for d in engine.state.deployments if d.query.name == "q_dep")
        for leaf in dep.plan.leaves():
            if isinstance(leaf, Leaf) and not leaf.is_base_stream:
                node = dep.placement[leaf]
                # the reused view must exist where the leaf points
                assert engine.state.find_reusable(dep.signature(leaf.view), node)
