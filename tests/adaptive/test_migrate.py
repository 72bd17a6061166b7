"""Migrator: cutover protocol, atomic swap, rollback.

The acceptance property: a candidate that fails to install leaves the
query either fully on its old deployment or fully on its new one --
never split across both.
"""

import numpy as np
import pytest

import repro
from repro.adaptive import AdaptivityConfig
from repro.adaptive.diff import diff_deployments
from repro.adaptive import migrate
from repro.adaptive.migrate import Migrator
from repro.core.cost import RateModel
from repro.errors import DeploymentError
from repro.fleet import FleetController
from repro.network.topology import transit_stub_by_size
from repro.query.deployment import Deployment
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec
from repro.runtime.engine import FlowEngine
from repro.workload import drift_timeline


def make_world():
    net = transit_stub_by_size(16, seed=1)
    rates = RateModel(
        {
            "A": StreamSpec("A", 0, rate=100.0),
            "B": StreamSpec("B", 1, rate=40.0),
            "C": StreamSpec("C", 2, rate=10.0),
        }
    )
    query = Query(
        "q",
        ["A", "B", "C"],
        sink=3,
        predicates=[JoinPredicate("A", "B", 0.01), JoinPredicate("B", "C", 0.05)],
    )
    return net, rates, query


def left_deep(query, nodes):
    a, b, c = Leaf.of("A"), Leaf.of("B"), Leaf.of("C")
    ab = Join(a, b)
    abc = Join(ab, c)
    return Deployment(
        query=query, plan=abc, placement={a: 0, b: 1, c: 2, ab: nodes[0], abc: nodes[1]}
    )


def op_set(deployment):
    """The (operator signature, node) set a deployment pins down."""
    query = deployment.query
    return {
        (query.view_signature(subtree.sources), deployment.placement[subtree])
        for subtree in deployment.plan.subtrees()
        if isinstance(subtree, Join)
    }


def live_ops(engine, name):
    dep = next(d for d in engine.state.deployments if d.query.name == name)
    return op_set(dep)


class TestCutoverProtocol:
    def test_clean_cutover_walks_the_three_phases_in_order(self):
        net, rates, query = make_world()
        diff = diff_deployments(
            left_deep(query, (1, 2)), left_deep(query, (0, 3)), rates
        )
        assert len(diff.moved) == 2
        timeline = Migrator(net).simulate_cutover(diff, coordinator=query.sink)
        assert (
            timeline.started
            < timeline.pause_done
            < timeline.transfer_done
            < timeline.completed
        )
        assert timeline.operators_moved == 2
        assert timeline.bytes_moved == pytest.approx(diff.total_state_bytes)
        # pause + 2x(command, ack) per phase per operator, at minimum
        assert timeline.messages >= 12

    def test_noop_diff_commits_instantly(self):
        net, rates, query = make_world()
        same = left_deep(query, (1, 2))
        diff = diff_deployments(same, left_deep(query, (1, 2)), rates)
        timeline = Migrator(net).simulate_cutover(diff, coordinator=query.sink)
        assert timeline.duration == 0.0
        assert timeline.messages == 0

    def test_bigger_state_takes_longer_to_ship(self, monkeypatch):
        monkeypatch.setattr(migrate, "SECONDS_PER_BYTE", 1e-4)
        net, rates, query = make_world()
        old, new = left_deep(query, (1, 2)), left_deep(query, (0, 2))
        small = diff_deployments(old, new, rates, bytes_per_tuple=1.0)
        big = diff_deployments(old, new, rates, bytes_per_tuple=4096.0)
        migrator = Migrator(net)
        t_small = migrator.simulate_cutover(small, coordinator=query.sink)
        t_big = migrator.simulate_cutover(big, coordinator=query.sink)
        assert t_big.duration > t_small.duration


class TestAtomicSwap:
    def test_commit_swaps_the_engine_to_the_candidate(self):
        net, rates, query = make_world()
        old, candidate = left_deep(query, (1, 2)), left_deep(query, (0, 3))
        engine = FlowEngine(net, rates)
        engine.deploy(old)
        diff = diff_deployments(old, candidate, rates)
        outcome = Migrator(net).execute(engine, old, candidate, diff, now=5.0)
        assert outcome.committed
        assert outcome.operators_moved == 2
        assert live_ops(engine, "q") == op_set(candidate)
        assert outcome.new_cost == pytest.approx(engine.state.query_cost("q"))
        assert outcome.timeline is not None and outcome.timeline.started == 5.0

    def test_failed_candidate_install_rolls_back_to_old(self, monkeypatch):
        net, rates, query = make_world()
        old, candidate = left_deep(query, (1, 2)), left_deep(query, (0, 3))
        engine = FlowEngine(net, rates)
        engine.deploy(old)
        diff = diff_deployments(old, candidate, rates)
        real_deploy = engine.deploy

        def flaky_deploy(deployment, time=None):
            if deployment is candidate:
                raise DeploymentError("node lost between planning and install")
            return real_deploy(deployment, time)

        monkeypatch.setattr(engine, "deploy", flaky_deploy)
        outcome = Migrator(net).execute(engine, old, candidate, diff)
        assert not outcome.committed
        assert outcome.rolled_back
        assert "rolled back" in outcome.reason
        assert live_ops(engine, "q") == op_set(old)
        assert outcome.new_cost == pytest.approx(outcome.old_cost)


ADAPTIVITY = AdaptivityConfig(
    alpha=0.5,
    hysteresis_ticks=2,
    publish_cooldown=2.0,
    query_cooldown=2.0,
    max_migrations_per_tick=4,
)


class TestNeverSplit:
    @pytest.mark.parametrize("seed", range(8))
    def test_storm_leaves_query_fully_old_or_fully_new(self, seed, monkeypatch):
        """Property: under a storm of seeded candidate-install failures, after
        every tick each live query runs exactly its old or its new
        deployment, and the fleet's ownership invariants hold."""
        net = repro.transit_stub_by_size(24, seed=7)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=6, num_queries=4, joins_per_query=(1, 3)),
            seed=11,
        )
        rates = workload.rate_model()
        hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
        fleet = FleetController(
            1, net, rates, hierarchy, policy="hash",
            service_kwargs={"adaptivity": ADAPTIVITY},
        )
        (shard,) = fleet.shards
        for query in workload.queries:
            fleet.submit(query)

        rng = np.random.default_rng(seed)
        candidates, migrated = set(), {}
        real_deploy = shard.engine.deploy

        def flaky_deploy(deployment, time=None):
            if id(deployment) in candidates and rng.random() < 0.5:
                raise DeploymentError("node lost between planning and install")
            return real_deploy(deployment, time)

        monkeypatch.setattr(shard.engine, "deploy", flaky_deploy)
        migrator = shard.adaptivity.migrator
        execute = migrator.execute

        def watched(engine, old, candidate, diff, **kwargs):
            candidates.add(id(candidate))
            outcome = execute(engine, old, candidate, diff, **kwargs)
            migrated[old.query.name] = (op_set(old), op_set(candidate), outcome)
            return outcome

        monkeypatch.setattr(migrator, "execute", watched)
        timeline = drift_timeline(rates.streams, kind="step", at=3.0, factor=6.0)
        outcomes = []
        for tick in range(1, 21):
            before = {d.query.name: op_set(d) for d in shard.engine.state.deployments}
            migrated.clear()
            shard.adaptivity.observe_rates(timeline.rates_at(float(tick)))
            fleet.tick(float(tick))
            for deployment in shard.engine.state.deployments:
                name, final = deployment.query.name, op_set(deployment)
                if name not in migrated:
                    assert final == before[name]
                    continue
                old, new, outcome = migrated[name]
                assert final == (new if outcome.committed else old)  # never a mix
                outcomes.append(outcome)
            assert fleet.check_invariants() == []
        assert outcomes
