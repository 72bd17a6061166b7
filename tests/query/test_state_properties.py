"""Property-based tests of DeploymentState under random apply/undeploy
sequences: the accounting invariants must hold at every step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import RateModel
from repro.core.exhaustive import OptimalPlanner
from repro.network.topology import random_geometric
from repro.query.deployment import DeploymentState

from tests.conftest import make_catalog, make_query


def _env(seed):
    net = random_geometric(14, seed=seed % 4)
    names, streams, sel = make_catalog(net, 5, seed)
    rates = RateModel(streams)
    rng = np.random.default_rng(seed)
    queries = [make_query(f"q{i}", names, sel, net, rng, k=3) for i in range(6)]
    return net, rates, queries


def _check_invariants(state, deployed_names):
    # per-query attribution sums to the total
    attributed = sum(state.query_cost(name) for name in deployed_names)
    assert attributed == pytest.approx(state.total_cost())
    # every live operator is referenced by at least one deployed query
    for sig, node in state.operators():
        users = state.queries_using(sig, node)
        assert users, f"orphan operator {sig.label()}@{node}"
        assert users <= deployed_names
    # flows belong to deployed queries and have non-negative rates
    for flow in state.flows():
        assert flow.query in deployed_names
        assert flow.rate >= 0
    # deployments list matches
    assert {d.query.name for d in state.deployments} == deployed_names


class TestStateOperationSequences:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 200),
        ops=st.lists(st.integers(0, 11), min_size=1, max_size=18),
    )
    def test_random_apply_undeploy_sequence(self, seed, ops):
        net, rates, queries = _env(seed)
        planner = OptimalPlanner(net, rates, reuse=True)
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        deployed: set[str] = set()
        for op in ops:
            q = queries[op % len(queries)]
            if q.name in deployed:
                reclaimed = state.undeploy(q.name)
                assert reclaimed >= -1e-9
                deployed.discard(q.name)
            else:
                # reusing a view another query owns may become invalid
                # after that query departs mid-sequence; replan fresh.
                deployment = planner.plan(q, state)
                added = state.apply(deployment)
                assert added >= -1e-9
                deployed.add(q.name)
            _check_invariants(state, deployed)
        # tear down whatever is left
        for name in sorted(deployed):
            state.undeploy(name)
        assert state.total_cost() == pytest.approx(0.0)
        assert state.num_operators == 0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_clone_equivalence_under_operations(self, seed):
        net, rates, queries = _env(seed)
        planner = OptimalPlanner(net, rates)
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        for q in queries[:3]:
            state.apply(planner.plan(q, state))
        clone = state.clone()
        assert clone.total_cost() == pytest.approx(state.total_cost())
        assert set(clone.operators()) == set(state.operators())
        # diverge: mutating the clone leaves the original untouched
        clone.undeploy(queries[0].name)
        assert queries[0].name in {d.query.name for d in state.deployments}

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_apply_order_independence_without_reuse(self, seed):
        """Without reuse, total cost is order-independent (flows are
        per-query additive)."""
        net, rates, queries = _env(seed)
        planner = OptimalPlanner(net, rates, reuse=False)
        costs = net.cost_matrix()
        totals = []
        for order in (queries[:4], list(reversed(queries[:4]))):
            state = DeploymentState(costs, rates.rate, rates.source)
            for q in order:
                state.apply(planner.plan(q, state))
            totals.append(state.total_cost())
        assert totals[0] == pytest.approx(totals[1])
