"""Executable documentation: the paper's narrative claims, one test each.

Every test cites the paper passage it validates.  These complement the
figure benchmarks: they are fast, deterministic distillations of the
claims, run on every ``pytest`` invocation.
"""

import numpy as np
import pytest

import repro
from repro.core.bounds import beta, exhaustive_space
from repro.core.cost import deployment_cost


class TestIntroductionClaims:
    def test_centralized_processing_is_expensive(self):
        """'It is often too expensive to stream all of the data to a
        centralized query processor' -- in-network placement beats
        shipping every base stream to the sink."""
        net = repro.transit_stub_by_size(64, seed=201)
        w = repro.generate_workload(
            net, repro.WorkloadParams(num_queries=5, joins_per_query=(2, 4)), seed=202
        )
        rates = w.rate_model()
        costs = net.cost_matrix()
        central_total = innet_total = 0.0
        planner = repro.OptimalPlanner(net, rates)
        for q in w:
            d = planner.plan(q)
            innet_total += deployment_cost(d, costs, rates)
            # centralized: every operator at the sink
            placement = dict(d.placement)
            for join in d.plan.joins():
                placement[join] = q.sink
            central = repro.Deployment(query=q, plan=d.plan, placement=placement)
            central_total += deployment_cost(central, costs, rates)
        assert innet_total < central_total

    def test_search_space_grows_exponentially(self):
        """'the number of possible plan and deployment combinations can
        grow exponentially' (Lemma 1)."""
        growth = [exhaustive_space(k, 64) for k in (2, 3, 4, 5)]
        ratios = [b / a for a, b in zip(growth, growth[1:])]
        assert all(r > 64 for r in ratios)

    def test_beta_orders_of_magnitude_below_one(self):
        """'When max_cs << N, beta is orders of magnitude less than 1.'"""
        assert beta(4, 1000, 10) < 1e-3


class TestSection11Examples:
    """The motivating OIS scenario, executed (see also examples/)."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return repro.airline_ois_scenario()

    def test_network_aware_join_ordering(self, scenario):
        """'the network conditions dictate that a more efficient join
        ordering is (FLIGHTS x CHECK-INS) x WEATHER'."""
        from repro.baselines.plan_then_deploy import best_static_tree

        static_tree, _ = best_static_tree(scenario.q1, scenario.rates)
        joint = repro.OptimalPlanner(scenario.network, scenario.rates).plan(scenario.q1)
        assert static_tree.joins()[0].sources == frozenset({"FLIGHTS", "WEATHER"})
        assert joint.plan.joins()[0].sources == frozenset({"FLIGHTS", "CHECK-INS"})

    def test_reuse_requires_alternate_ordering(self, scenario):
        """'in order to reuse the already deployed operator FLIGHTS x
        CHECK-INS, we must pick the alternate join ordering'."""
        rm = scenario.rates
        state = repro.DeploymentState(
            scenario.network.cost_matrix(), rm.rate, rm.source
        )
        planner = repro.OptimalPlanner(scenario.network, rm, reuse=True)
        state.apply(planner.plan(scenario.q2, state))
        d1 = planner.plan(scenario.q1, state)
        reused = d1.reused_leaves()
        assert reused and reused[0].view == frozenset({"FLIGHTS", "CHECK-INS"})

    def test_distant_sink_declines_reuse(self, scenario):
        """'if the sinks for the two queries are far apart ... we would
        duplicate the FLIGHTS x CHECK-INS operator'."""
        # Make the deployed view's output expensive to ship: huge join
        # selectivity (fat view) deployed, then a sink right next to the
        # sources prefers recomputation.
        net, ids = scenario.network, scenario.node_ids
        streams = scenario.streams
        rm = repro.RateModel(streams)
        fat = repro.Query(
            "fat", ["FLIGHTS", "CHECK-INS"], sink=ids["Sink1"],
            predicates=[repro.JoinPredicate("FLIGHTS", "CHECK-INS", 1.0)],
        )
        state = repro.DeploymentState(net.cost_matrix(), rm.rate, rm.source)
        planner = repro.OptimalPlanner(net, rm, reuse=True)
        state.apply(planner.plan(fat, state))
        same_fat_far = repro.Query(
            "fat2", ["FLIGHTS", "CHECK-INS"], sink=ids["Sink5"],
            predicates=[repro.JoinPredicate("FLIGHTS", "CHECK-INS", 1.0)],
        )
        d2 = planner.plan(same_fat_far, state)
        # whatever the planner chose must beat *forced* reuse of the fat
        # remote view (with a rate-10,000 view, duplication usually wins)
        leaf = repro.Leaf.of("CHECK-INS", "FLIGHTS")
        forced = repro.Deployment(
            query=same_fat_far, plan=leaf,
            placement={leaf: state.advertised_views()[fat.view_signature()].pop()},
        )
        assert state.cost_of(d2) <= state.cost_of(forced) + 1e-9


class TestSection2Claims:
    def test_higher_levels_approximate_more(self):
        """Theorem 1: 'the maximum approximation is incurred at the top
        most level of the hierarchy' -- slack grows with level."""
        net = repro.transit_stub_by_size(64, seed=205)
        h = repro.build_hierarchy(net, max_cs=4, seed=0)
        slacks = [h.estimate_slack(l) for l in range(1, h.height + 1)]
        assert slacks == sorted(slacks)
        assert slacks[0] == 0.0
        assert slacks[-1] > 0.0

    def test_top_down_considers_reuse_automatically(self):
        """'operator reuse is automatically considered in the planning
        process' -- no extra flag beyond the advertisements."""
        net = repro.transit_stub_by_size(32, seed=206)
        streams = {
            "A": repro.StreamSpec("A", 0, 100.0),
            "B": repro.StreamSpec("B", 1, 100.0),
        }
        rm = repro.RateModel(streams)
        h = repro.build_hierarchy(net, max_cs=4, seed=0)
        pred = [repro.JoinPredicate("A", "B", 0.0001)]
        td = repro.TopDownOptimizer(h, rm, reuse=True)
        state = repro.DeploymentState(net.cost_matrix(), rm.rate, rm.source)
        state.apply(td.plan(
            repro.Query("q1", ["A", "B"], sink=20, predicates=pred), state
        ))
        d2 = td.plan(repro.Query("q2", ["A", "B"], sink=21, predicates=pred), state)
        assert d2.reused_leaves()

    def test_bottom_up_stops_below_root_when_local(self):
        """'The climb stops as soon as every input is local' (the basis
        of the deployment-time advantage)."""
        net = repro.transit_stub_by_size(64, seed=207)
        h = repro.build_hierarchy(net, max_cs=8, seed=0)
        sink = 11
        cluster = h.leaf_cluster(sink)
        members = cluster.members
        streams = {
            "A": repro.StreamSpec("A", members[0], 10.0),
            "B": repro.StreamSpec("B", members[-1], 10.0),
        }
        rm = repro.RateModel(streams)
        bu = repro.BottomUpOptimizer(h, rm)
        d = bu.plan(repro.Query(
            "q", ["A", "B"], sink=sink,
            predicates=[repro.JoinPredicate("A", "B", 0.1)],
        ))
        assert d.stats["levels_climbed"] == 1


class TestSection3Claims:
    def test_exhaustive_on_128_nodes_is_infeasible(self):
        """'An exhaustive search on a 128 node network for the deployment
        of a single query took nearly 3 hours' -- Lemma 1 explains why:
        billions of combinations for K=5."""
        assert exhaustive_space(5, 128) > 5e9

    def test_hierarchical_algorithms_in_milliseconds(self):
        """The same planning task is milliseconds hierarchically."""
        import time

        net = repro.transit_stub_by_size(128, seed=208)
        w = repro.generate_workload(
            net, repro.WorkloadParams(num_queries=1, joins_per_query=(4, 4)), seed=209
        )
        rm = w.rate_model()
        h = repro.build_hierarchy(net, max_cs=32, seed=0)
        td = repro.TopDownOptimizer(h, rm)
        start = time.perf_counter()
        td.plan(w.queries[0])
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0  # generous CI bound; typically ~20 ms
