"""Shared fixtures: small deterministic networks, streams and queries."""

import numpy as np
import pytest

from repro.core.cost import RateModel
from repro.hierarchy import build_hierarchy
from repro.network.topology import random_geometric, transit_stub_by_size
from repro.query.deployment import DeploymentState
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec
from repro.workload import WorkloadParams, build_world


@pytest.fixture(scope="session")
def small_net():
    """8-node random geometric network used by exhaustive cross-checks."""
    return random_geometric(8, seed=5)


@pytest.fixture(scope="session")
def net64():
    """64-node transit-stub network (paper's Figure 2 scale)."""
    return transit_stub_by_size(64, seed=1)


@pytest.fixture(scope="session")
def hier64(net64):
    return build_hierarchy(net64, max_cs=8, seed=0)


@pytest.fixture()
def abc_streams(small_net):
    """Three streams on the small network."""
    return {
        "A": StreamSpec("A", 0, 50.0),
        "B": StreamSpec("B", 3, 80.0),
        "C": StreamSpec("C", 6, 30.0),
    }


@pytest.fixture()
def abc_rates(abc_streams):
    return RateModel(abc_streams)


@pytest.fixture()
def abc_query():
    """3-way chain query A-B-C sinking at node 7."""
    return Query(
        "q_abc",
        ["A", "B", "C"],
        sink=7,
        predicates=[
            JoinPredicate("A", "B", 0.01),
            JoinPredicate("B", "C", 0.02),
        ],
    )


@pytest.fixture()
def abc_state(small_net, abc_rates):
    return DeploymentState(small_net.cost_matrix(), abc_rates.rate, abc_rates.source)


def make_catalog(net, num_streams, seed):
    """Random stream catalog over a network (shared helper)."""
    rng = np.random.default_rng(seed)
    names = [f"S{i}" for i in range(num_streams)]
    streams = {
        n: StreamSpec(n, int(rng.integers(0, net.num_nodes)), float(rng.uniform(50, 150)))
        for n in names
    }
    sel = {}
    for i in range(num_streams):
        for j in range(i + 1, num_streams):
            sel[frozenset((names[i], names[j]))] = float(rng.uniform(0.001, 0.02))
    return names, streams, sel


def make_query(name, names, sel, net, rng, k=None):
    """Random chain query over a shared global selectivity table."""
    k = k or int(rng.integers(3, 6))
    srcs = sorted(rng.choice(names, size=k, replace=False))
    preds = [
        JoinPredicate(srcs[i], srcs[i + 1], sel[frozenset((srcs[i], srcs[i + 1]))])
        for i in range(k - 1)
    ]
    return Query(name, srcs, sink=int(rng.integers(0, net.num_nodes)), predicates=preds)


def small_world(num_queries, network_seed=47, workload_seed=48):
    """The 32-node world (``max_cs`` 4, 6 streams, 1-3 joins per query)
    the state-machine tests share."""
    params = WorkloadParams(num_streams=6, num_queries=num_queries, joins_per_query=(1, 3))
    return build_world(
        32, params, network_seed=network_seed, workload_seed=workload_seed,
        hierarchy_seeds={4: 0},
    )


def three_sink_world(num_queries):
    """``(network, hierarchy, rates, pool)`` of :func:`small_world`, the
    pool its queries re-sunk round-robin onto their three lowest sinks,
    so that operators also land on nodes that are neither a source nor a
    sink and may fail without losing a query."""
    world = small_world(num_queries)
    sinks = sorted({query.sink for query in world.workload})[:3]
    pool = [
        query.renamed(query.name, sink=sinks[index % 3])
        for index, query in enumerate(world.workload)
    ]
    return world.network, world.hierarchy(), world.rates, pool
