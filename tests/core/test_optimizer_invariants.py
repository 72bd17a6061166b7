"""Structural invariants of every optimizer over random instances.

Hypothesis-driven: for any generated workload, every planner must emit a
deployment that (a) covers exactly the query's sources, (b) has one join
per non-reused merge, (c) places leaves at sources/advertised nodes and
joins on real network nodes, (d) reports sane stats, and (e) survives
application to a deployment state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.cost import RateModel
from repro.network.topology import random_geometric

from tests.conftest import make_catalog, make_query

PLANNERS = ["top-down", "bottom-up", "optimal", "plan-then-deploy", "relaxation", "in-network"]


def _env(seed):
    net = random_geometric(18, seed=seed % 6)
    names, streams, sel = make_catalog(net, 6, seed)
    rates = RateModel(streams)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=seed)
    return net, names, sel, rates, hierarchy


def _check_structure(net, rates, query, deployment, state):
    # (a) coverage
    assert deployment.plan.sources == frozenset(query.sources)
    # (b) joins consistent with leaves: K sources split across leaves,
    # one join per merge of the leaf set
    leaves = deployment.plan.leaves()
    assert deployment.plan.num_joins == len(leaves) - 1
    # (c) placements
    for leaf in leaves:
        if leaf.is_base_stream:
            assert deployment.placement[leaf] == rates.source(leaf.stream)
    for join, node in deployment.operator_nodes.items():
        assert net.has_node(node)
    # (d) stats
    assert deployment.stats.get("plans_examined", 0) >= 0
    # (e) state application (validates reuse references too)
    added = state.apply(deployment)
    assert added >= 0


class TestAllPlannersStructure:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_sequential_deployments_all_planners(self, seed):
        net, names, sel, rates, hierarchy = _env(seed)
        rng = np.random.default_rng(seed)
        queries = [make_query(f"q{i}", names, sel, net, rng, k=3) for i in range(3)]
        for name in PLANNERS:
            state = repro.DeploymentState(net.cost_matrix(), rates.rate, rates.source)
            optimizer = repro.make_optimizer(name, net, rates, hierarchy=hierarchy)
            for query in queries:
                deployment = optimizer.plan(query, state)
                _check_structure(net, rates, query, deployment, state)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_hierarchical_stats_traces(self, seed):
        """TD/BU must leave protocol-simulable traces with sane linkage."""
        net, names, sel, rates, hierarchy = _env(seed)
        rng = np.random.default_rng(seed + 1)
        query = make_query("q", names, sel, net, rng, k=4)
        for name in ("top-down", "bottom-up"):
            optimizer = repro.make_optimizer(name, net, rates, hierarchy=hierarchy)
            deployment = optimizer.plan(query)
            trace = deployment.stats["task_trace"]
            assert trace, "hierarchical planners must record a task trace"
            for idx, entry in enumerate(trace):
                assert entry["parent"] < idx  # parents precede children
                assert entry["plans"] >= 0
                assert net.has_node(entry["node"])
            assert trace[0]["parent"] == -1
            # deploy targets cover all operator nodes
            deploy_nodes = set().union(*(set(e["deploy_nodes"]) for e in trace))
            operator_nodes = set(deployment.operator_nodes.values())
            assert operator_nodes <= deploy_nodes

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_reuse_deployments_always_applicable(self, seed):
        """With heavy overlap, whatever the planners reuse must apply
        cleanly (no dangling reuse references)."""
        net, names, sel, rates, hierarchy = _env(seed)
        rng = np.random.default_rng(seed + 2)
        # force overlap: every query over the same 4 streams
        fixed = sorted(names[:4])
        queries = []
        for i in range(4):
            queries.append(
                make_query(f"q{i}", fixed, sel, net, rng, k=3)
            )
        for name in ("top-down", "bottom-up", "optimal"):
            state = repro.DeploymentState(net.cost_matrix(), rates.rate, rates.source)
            optimizer = repro.make_optimizer(name, net, rates, hierarchy=hierarchy, reuse=True)
            for query in queries:
                deployment = optimizer.plan(query, state)
                state.apply(deployment)
            assert state.total_cost() > 0
