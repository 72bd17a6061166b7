"""Shared fixtures: small deterministic networks, streams and queries."""

import numpy as np
import pytest

from repro.core.cost import RateModel
from repro.hierarchy import build_hierarchy
from repro.network.topology import random_geometric, transit_stub_by_size
from repro.query.deployment import DeploymentState
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec


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
