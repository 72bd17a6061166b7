"""The constrained placement DP against filtered brute force.

The DP's contract under a constraint: among assignments whose every
operator individually fits its node (the per-operator mask), it finds
the communication-cost optimum -- or raises when no candidate fits.
The joint per-plan check (:meth:`PlacementConstraint.validate`) is the
optimizers' responsibility and is tested at the service level.

The per-candidate mask and penalty are numpy expressions; the scalar
``_projected`` loop they replaced is kept here as their oracle, bit for
bit.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import RateModel
from repro.core.placement import optimal_tree_placement
from repro.errors import InfeasiblePlacementError
from repro.network.topology import random_geometric
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec
from repro.resources import (
    NodeCapacity,
    OperatorFootprint,
    PlacementConstraint,
    Load,
)


def _setup(seed, num_nodes=6):
    net = random_geometric(num_nodes, seed=seed)
    rng = np.random.default_rng(seed)
    names = ["A", "B", "C"]
    streams = {
        n: StreamSpec(n, int(rng.integers(0, num_nodes)), float(rng.uniform(10, 100)))
        for n in names
    }
    rates = RateModel(streams)
    query = Query(
        "q",
        names,
        sink=int(rng.integers(0, num_nodes)),
        predicates=[
            JoinPredicate("A", "B", float(rng.uniform(0.001, 0.05))),
            JoinPredicate("B", "C", float(rng.uniform(0.001, 0.05))),
        ],
    )
    a, b, c = Leaf.of("A"), Leaf.of("B"), Leaf.of("C")
    tree = Join(Join(a, b), c)
    leaf_positions = {leaf: [streams[leaf.label].source] for leaf in (a, b, c)}
    return net, rates, query, tree, leaf_positions


def _filtered_brute_force(
    tree, candidates, costs, leaf_positions, rates, sink, constraint
):
    """Enumerate assignments, rejecting per-operator infeasible nodes."""
    joins = tree.joins()
    best_cost = float("inf")
    best = None
    for join_assign in product(list(candidates), repeat=len(joins)):
        placement = dict(zip(joins, join_assign))
        ok = True
        for join, node in placement.items():
            load = constraint.footprint.join_load(
                constraint.query, join.left.sources, join.right.sources
            )
            if constraint._projected(node, load) > constraint.bound + 1e-9:
                ok = False
                break
        if not ok:
            continue
        for leaf in tree.leaves():
            placement[leaf] = leaf_positions[leaf][0]
        cost = 0.0
        for join in joins:
            node = placement[join]
            for child in (join.left, join.right):
                cost += rates[child] * float(costs[placement[child], node])
        if sink is not None:
            cost += rates[tree] * float(costs[placement[tree], sink])
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = placement
    return best, best_cost


def _constraint(net, rates, query, capacities, bound=1.0, load_weight=0.0,
                base_loads=None):
    return PlacementConstraint(
        query=query,
        footprint=OperatorFootprint(rates),
        capacities=capacities,
        base_loads=base_loads or {},
        bound=bound,
        load_weight=load_weight,
    )


class TestConstrainedDP:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_filtered_brute_force(self, seed):
        net, rates, query, tree, leaf_positions = _setup(seed)
        flow_rates = rates.flow_rates(query, tree)
        # Cap every node just above the heavier operator's cpu so some
        # candidates are infeasible but a placement usually exists.
        fp = OperatorFootprint(rates)
        loads = sorted(l.cpu for l in fp.plan_loads(query, tree).values())
        capacities = {
            node: NodeCapacity(cpu=loads[-1] * (0.6 + 0.15 * (node % 4)))
            for node in net.nodes()
        }
        constraint = _constraint(net, rates, query, capacities)
        args = (
            tree,
            net.nodes(),
            net.cost_matrix(),
            leaf_positions,
            flow_rates,
            query.sink,
        )
        expected, expected_cost = _filtered_brute_force(*args, constraint)
        if expected is None:
            with pytest.raises(InfeasiblePlacementError):
                optimal_tree_placement(*args, constraint=constraint)
            return
        result = optimal_tree_placement(*args, constraint=constraint)
        assert result.cost == pytest.approx(expected_cost)
        assert result.objective == pytest.approx(expected_cost)
        for join in tree.joins():
            load = fp.join_load(query, join.left.sources, join.right.sources)
            assert constraint._projected(result.placement[join], load) <= 1.0 + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_unbounded_constraint_is_identical_to_none(self, seed):
        net, rates, query, tree, leaf_positions = _setup(seed)
        flow_rates = rates.flow_rates(query, tree)
        args = (
            tree,
            net.nodes(),
            net.cost_matrix(),
            leaf_positions,
            flow_rates,
            query.sink,
        )
        plain = optimal_tree_placement(*args)
        constrained = optimal_tree_placement(
            *args, constraint=_constraint(net, rates, query, {})
        )
        assert constrained.placement == plain.placement
        assert constrained.cost == plain.cost
        assert plain.objective == plain.cost

    def test_all_nodes_saturated_raises(self):
        net, rates, query, tree, leaf_positions = _setup(0)
        capacities = {node: NodeCapacity(cpu=0.001) for node in net.nodes()}
        with pytest.raises(InfeasiblePlacementError):
            optimal_tree_placement(
                tree,
                net.nodes(),
                net.cost_matrix(),
                leaf_positions,
                rates.flow_rates(query, tree),
                query.sink,
                constraint=_constraint(net, rates, query, capacities),
            )

    def test_background_load_steers_placement(self):
        net, rates, query, tree, leaf_positions = _setup(3)
        flow_rates = rates.flow_rates(query, tree)
        args = (
            tree,
            net.nodes(),
            net.cost_matrix(),
            leaf_positions,
            flow_rates,
            query.sink,
        )
        plain = optimal_tree_placement(*args)
        # Saturate the node the unconstrained optimum uses for the root.
        busy = plain.placement[tree]
        fp = OperatorFootprint(rates)
        cap = max(l.cpu for l in fp.plan_loads(query, tree).values()) * 2.0
        capacities = {node: NodeCapacity(cpu=cap) for node in net.nodes()}
        base = {busy: Load(cpu=cap)}
        constrained = optimal_tree_placement(
            *args,
            constraint=_constraint(net, rates, query, capacities, base_loads=base),
        )
        assert all(node != busy for node in (
            constrained.placement[j] for j in tree.joins()
        ))
        assert constrained.cost >= plain.cost - 1e-9

    def test_bi_criteria_penalty_in_objective_not_cost(self):
        net, rates, query, tree, leaf_positions = _setup(5)
        flow_rates = rates.flow_rates(query, tree)
        fp = OperatorFootprint(rates)
        cap = max(l.cpu for l in fp.plan_loads(query, tree).values()) * 4.0
        capacities = {node: NodeCapacity(cpu=cap) for node in net.nodes()}
        result = optimal_tree_placement(
            tree,
            net.nodes(),
            net.cost_matrix(),
            leaf_positions,
            flow_rates,
            query.sink,
            constraint=_constraint(
                net, rates, query, capacities, load_weight=1000.0
            ),
        )
        # cost stays pure communication; the objective carries the
        # penalty on top.
        assert result.objective > result.cost
        comm = 0.0
        costs = net.cost_matrix()
        for join in tree.joins():
            node = result.placement[join]
            for child in (join.left, join.right):
                comm += flow_rates[child] * float(
                    costs[result.placement[child], node]
                )
        comm += flow_rates[tree] * float(costs[result.placement[tree], query.sink])
        assert result.cost == pytest.approx(comm)


# ----------------------------------------------------------------------
# Vectorized mask / penalty against the scalar loop
# ----------------------------------------------------------------------
NODES = 9
_dimension = st.one_of(st.just(math.inf), st.floats(0.5, 5e3))
_capacity = st.builds(
    NodeCapacity, cpu=_dimension, memory=_dimension, bandwidth=_dimension
)
#: Background load; negative parts are a shed trial's relief.
_part = st.one_of(st.just(0.0), st.floats(-300.0, 3e3))
_load = st.builds(Load, cpu=_part, memory=_part, bandwidth=_part)


def _scalar_mask(constraint, sub, candidates):
    load = constraint.join_load(sub)
    return np.fromiter(
        (
            constraint._projected(int(node), load) <= constraint.bound + 1e-9
            for node in candidates
        ),
        dtype=bool,
        count=candidates.size,
    )


def _scalar_penalty(constraint, sub, candidates):
    if constraint.load_weight == 0.0:
        return None
    load = constraint.join_load(sub)
    return np.fromiter(
        (
            constraint.load_weight * constraint._projected(int(node), load)
            for node in candidates
        ),
        dtype=float,
        count=candidates.size,
    )


class TestVectorizedMask:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 7),
        # Nodes may be missing from either mapping.
        capacities=st.dictionaries(st.integers(0, NODES - 1), _capacity),
        base_loads=st.dictionaries(st.integers(0, NODES - 1), _load),
        bound=st.sampled_from((0.25, 1.0, 1.5)),
        load_weight=st.sampled_from((0.0, 0.5, 1000.0)),
        candidates=st.lists(
            st.integers(0, NODES - 1), min_size=1, max_size=NODES, unique=True
        ),
        edge=st.dictionaries(
            st.integers(0, NODES - 1),
            st.tuples(
                st.sampled_from(("cpu", "memory", "bandwidth")),
                st.integers(-2, 2),
            ),
        ),
    )
    def test_equals_the_scalar_loop_bit_for_bit(
        self, seed, capacities, base_loads, bound, load_weight, candidates, edge
    ):
        net, rates, query, tree, _ = _setup(seed, num_nodes=NODES)
        joins = tree.joins()
        probe = OperatorFootprint(rates).join_load(
            query, joins[0].left.sources, joins[0].right.sources
        )
        # Put some nodes right at bound + 1e-9 for the first join, a few
        # ulps either side, in one dimension (the others unbounded).
        for node, (dim, ulps) in edge.items():
            total = getattr(base_loads.get(node, Load()), dim) + getattr(probe, dim)
            if total <= 0:
                continue
            cap = total / (bound + 1e-9)
            for _ in range(abs(ulps)):
                cap = math.nextafter(cap, math.inf if ulps > 0 else 0.0)
            capacities[node] = NodeCapacity(**{dim: cap})
        constraint = _constraint(
            net, rates, query, capacities, bound=bound, load_weight=load_weight,
            base_loads=base_loads,
        )
        cand = np.asarray(candidates, dtype=np.intp)
        for sub in joins + joins:  # the second round reads the memo
            mask = constraint.join_mask(sub, cand)
            want = _scalar_mask(constraint, sub, cand)
            assert mask.dtype == want.dtype and mask.tobytes() == want.tobytes()
            penalty = constraint.join_penalty(sub, cand)
            want = _scalar_penalty(constraint, sub, cand)
            if want is None:
                assert penalty is None
            else:
                assert penalty.dtype == want.dtype
                assert penalty.tobytes() == want.tobytes()
        # Another candidate array (another task's DP) gets its own rows.
        other = cand[::-1].copy()
        assert (
            constraint.join_mask(joins[0], other).tobytes()
            == _scalar_mask(constraint, joins[0], other).tobytes()
        )

    def test_relief_on_an_unbounded_node_reads_plus_zero(self):
        # -x / inf is -0.0; the scalar loop never divides by an unbounded
        # dimension and reads +0.0, and a penalty carries the sign bit.
        net, rates, query, tree, _ = _setup(1, num_nodes=NODES)
        relief = Load(cpu=-1e6, memory=-1e6, bandwidth=-1e6)
        constraint = _constraint(
            net, rates, query, {1: NodeCapacity(cpu=50.0)},
            load_weight=2.0, base_loads={0: relief, 1: relief},
        )
        cand = np.asarray([0, 1, 2], dtype=np.intp)
        for sub in tree.joins():
            penalty = constraint.join_penalty(sub, cand)
            assert penalty.tobytes() == _scalar_penalty(constraint, sub, cand).tobytes()
            assert not np.signbit(penalty).any()
