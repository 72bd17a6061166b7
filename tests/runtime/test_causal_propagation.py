"""Trace propagation across protocols, and the byte-identical-off contract.

Two acceptance properties from the causal-tracing design:

* a cutover stays in one deterministic causal tree rooted at
  ``migrate:<query>``;
* with tracing disabled (and the profiler uninstalled) the optimizer
  output and the protocol timelines are identical to a traced run.
"""

import pytest

from repro.adaptive.diff import diff_deployments
from repro.adaptive.migrate import Migrator
from repro.core import TopDownOptimizer
from repro.hierarchy import build_hierarchy
from repro.network.topology import transit_stub_by_size
from repro.obs import CausalTracer, causal_tracing
from repro.perf import profiled
from repro.runtime import simulate_deployment
from repro.workload import WorkloadParams, generate_workload
from tests.adaptive.test_migrate import left_deep, make_world


@pytest.fixture(scope="module")
def env():
    net = transit_stub_by_size(32, seed=2)
    workload = generate_workload(
        net,
        WorkloadParams(num_streams=8, num_queries=6, joins_per_query=(2, 4)),
        seed=3,
    )
    rates = workload.rate_model()
    hierarchy = build_hierarchy(net, max_cs=4, seed=0)
    deployment = TopDownOptimizer(hierarchy, rates).plan(workload.queries[0])
    return net, rates, hierarchy, workload, deployment


def make_migration_world():
    net, rates, query = make_world()
    return net, query, diff_deployments(left_deep(query, (1, 2)), left_deep(query, (0, 3)), rates)


class TestMigrationPropagation:
    def test_cutover_forms_one_migrate_tree(self):
        net, query, diff = make_migration_world()
        tracer = CausalTracer()
        with causal_tracing(tracer):
            timeline = Migrator(net).simulate_cutover(diff, coordinator=query.sink)
        assert timeline.completed > timeline.started
        (tree,) = tracer.roots
        assert tree.name == "migrate:q"
        assert tree.tags["operators"] == 2
        kinds = {h.name for h in tree.walk()}
        assert {"PauseCommand", "StateChunk", "ResumeCommand"} <= kinds

    def test_traced_cutover_timeline_matches_untraced(self):
        net, query, diff = make_migration_world()
        untraced = Migrator(net).simulate_cutover(diff, coordinator=query.sink)
        with causal_tracing(CausalTracer()):
            traced = Migrator(net).simulate_cutover(diff, coordinator=query.sink)
        assert traced == untraced


class TestByteIdenticalWhenDisabled:
    """Tracing off + profiler off must change nothing observable."""

    def test_timelines_identical_with_and_without_tracer(self, env):
        net, rates, _, _, deployment = env
        with causal_tracing(CausalTracer()):
            traced = simulate_deployment(net, deployment, rates=rates)
        assert simulate_deployment(net, deployment) == traced

    def test_optimizer_output_identical_with_and_without_profiler(self, env):
        net, rates, hierarchy, workload, _ = env
        query = workload.queries[1]
        plain = TopDownOptimizer(hierarchy, rates).plan(query)
        with profiled() as prof:
            profiled_run = TopDownOptimizer(hierarchy, rates).plan(query)
        assert prof.ops  # the profiler really was counting
        assert profiled_run.plan == plain.plan
        assert profiled_run.placement == plain.placement
        assert profiled_run.stats == plain.stats
