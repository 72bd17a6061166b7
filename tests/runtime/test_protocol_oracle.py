"""The arithmetic protocol timelines equal the event-driven oracle's
(``tests/runtime/oracle.py``): every timeline field, the ``messages`` op
count, and each hop's kind, endpoints, send and delivery times, link
cost and parent, with ``==``.
"""

import random

import pytest

import repro
from repro.adaptive.diff import MigrationDiff, OperatorMove
from repro.adaptive.migrate import Migrator
from repro.obs import CausalTracer, causal_tracing
from repro.perf import profiled
from tests.network.shapes import ring
from tests.runtime import oracle


def observe(run):
    """``(timeline, messages op count, hops)`` of one traced run."""
    tracer = CausalTracer()
    with profiled() as prof, causal_tracing(tracer):
        timeline = run()
    by_id = {h.span_id: h for h in tracer.hops}

    def hop(h):
        parent = by_id.get(h.parent_id)
        return (
            h.name, h.tags["src"], h.tags["dst"], h.start, h.end, h.tags.get("link_cost", 0.0),
            parent and (parent.name, parent.tags["src"], parent.tags["dst"]),
        )

    return timeline, prof.ops.get("messages"), [hop(h) for h in tracer.hops]


@pytest.fixture(scope="module", params=[32, 256])
def world(request):
    net = repro.transit_stub_by_size(request.param, seed=5)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net, repro.WorkloadParams(num_streams=8, num_queries=6, joins_per_query=(1, 4)), seed=7
    )
    return net, hierarchy, workload, workload.rate_model()


@pytest.mark.parametrize("planner", [repro.TopDownOptimizer, repro.BottomUpOptimizer])
def test_deployments_match_the_oracle(world, planner):
    net, hierarchy, workload, rates = world
    optimizer = planner(hierarchy, rates)
    for query in workload.queries:
        d = optimizer.plan(query)
        got = observe(lambda: repro.simulate_deployment(net, d, rates=rates))
        assert got == observe(lambda: oracle.simulate_deployment(net, d, rates=rates))


def random_cutovers(net, rng, count):
    """Seeded cutovers: coordinators that also host, moves sharing an
    old node, zero-byte state and nonzero start times among them."""
    nodes = list(net.nodes())
    for _ in range(count):
        coordinator = rng.choice(nodes)
        moves = []
        for _ in range(rng.randint(1, 5)):
            shared = moves and rng.random() < 0.3
            old = moves[-1].old_node if shared else rng.choice(nodes + [coordinator])
            new = rng.choice(nodes + [coordinator])
            size = rng.choice([0.0, rng.uniform(0.0, 5e4)])
            moves.append(OperatorMove(None, old, new, state_tuples=0.0, state_bytes=size))
        yield MigrationDiff("q", moves), coordinator, rng.choice([0.0, 0.0, rng.uniform(0.0, 50.0)])


@pytest.mark.parametrize("size", [8, 32, 256])
def test_cutovers_match_the_oracle(size):
    # a ring's equal link delays make barrier acks tie
    net = ring(size) if size == 8 else repro.transit_stub_by_size(size, seed=5)
    seen = set()
    for diff, coordinator, start in random_cutovers(net, random.Random(size), 100):
        got = observe(lambda: Migrator(net).simulate_cutover(diff, coordinator, start))
        assert got == observe(lambda: oracle.simulate_cutover(net, diff, coordinator, start))
        cases = {
            "coordinator hosts": any(coordinator in (m.old_node, m.new_node) for m in diff.moved),
            "shared old node": len({m.old_node for m in diff.moved}) < len(diff.moved),
            "zero bytes": any(m.state_bytes == 0.0 for m in diff.moved),
            "started late": start != 0.0,
        }
        seen |= {case for case, hit in cases.items() if hit}
    assert seen == {"coordinator hosts", "shared old node", "zero bytes", "started late"}
