"""Property-style tests of the deployment-protocol simulation."""

import numpy as np
import pytest

import repro
from repro.runtime.protocol import simulate_deployment


@pytest.fixture(scope="module")
def env():
    net = repro.transit_stub_by_size(32, seed=161)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=8, num_queries=10, joins_per_query=(1, 4)),
        seed=162,
    )
    rates = workload.rate_model()
    return net, hierarchy, workload, rates


class TestTimelineInvariants:
    def test_deterministic_replay(self, env):
        net, hierarchy, workload, rates = env
        optimizer = repro.TopDownOptimizer(hierarchy, rates)
        d = optimizer.plan(workload.queries[0])
        t1 = simulate_deployment(net, d)
        t2 = simulate_deployment(net, d)
        assert t1.duration == t2.duration
        assert t1.messages == t2.messages

    def test_duration_at_least_submit_chain_delay(self, env):
        net, hierarchy, workload, rates = env
        optimizer = repro.TopDownOptimizer(hierarchy, rates)
        for query in workload.queries[:5]:
            d = optimizer.plan(query)
            timeline = simulate_deployment(net, d, seconds_per_plan=0.0)
            chain = [query.sink] + list(d.stats["submit_chain"])
            chain_delay = sum(
                net.path_delay(a, b) for a, b in zip(chain[:-1], chain[1:]) if a != b
            )
            assert timeline.duration >= chain_delay - 1e-12

    def test_duration_at_least_total_compute_over_width(self, env):
        """Compute on the critical path lower-bounds the duration: at
        minimum the heaviest single task's compute must elapse."""
        net, hierarchy, workload, rates = env
        optimizer = repro.BottomUpOptimizer(hierarchy, rates)
        for query in workload.queries[:5]:
            d = optimizer.plan(query)
            spp = 1e-4
            timeline = simulate_deployment(net, d, seconds_per_plan=spp)
            heaviest = max(e["plans"] for e in d.stats["task_trace"])
            assert timeline.duration >= heaviest * spp - 1e-12

    def test_messages_scale_with_tasks(self, env):
        net, hierarchy, workload, rates = env
        optimizer = repro.TopDownOptimizer(hierarchy, rates)
        for query in workload.queries[:5]:
            d = optimizer.plan(query)
            timeline = simulate_deployment(net, d)
            # one hop per relay, then per task: a plan request to each
            # child, a command and an ack per deploy target, one done
            chain = [query.sink, *d.stats["submit_chain"]]
            relays = sum(a != b for a, b in zip(chain, chain[1:]))
            trace = d.stats["task_trace"]
            requests = sum(e["parent"] >= 0 for e in trace)  # one per child task
            per_task = sum(2 * len(e["deploy_nodes"]) + 1 for e in trace)
            assert timeline.messages == relays + requests + per_task

    def test_bu_visit_entries_carry_no_compute(self, env):
        """Bottom-Up climb entries delegate compute to planning; their
        recorded plan counts reflect only that visit's own search."""
        net, hierarchy, workload, rates = env
        optimizer = repro.BottomUpOptimizer(hierarchy, rates)
        d = optimizer.plan(workload.queries[2])
        total = sum(e["plans"] for e in d.stats["task_trace"])
        assert total == d.stats["plans_examined"]
