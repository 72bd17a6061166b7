"""Shared builders for the fleet control-plane tests."""

import pytest

import repro


def build_env():
    """Deterministic (network, hierarchy, workload, rates) quadruple."""
    net = repro.transit_stub_by_size(32, seed=7)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=10, joins_per_query=(1, 3)),
        seed=8,
    )
    return net, hierarchy, workload, workload.rate_model()


@pytest.fixture(scope="module")
def fleet_env():
    """One :func:`build_env` world per test module."""
    return build_env()


class ByNamePolicy:
    """Test policy pinning queries to shards by an explicit map."""

    name = "byname"

    def __init__(self, mapping, default=0):
        self.mapping = mapping
        self.default = default

    def assign(self, query, num_shards, loads):
        return self.mapping.get(query.name, self.default)

    def capture(self):
        return None  # the pins are configuration, not state


def build_fleet(env, num_shards=2, **kwargs):
    net, hierarchy, workload, rates = env
    kwargs.setdefault("policy", "hash")
    return repro.FleetController(num_shards, net, rates, hierarchy, **kwargs)


def renamed(query, name, sink=None):
    """A content-identical query under a new name (optionally new sink)."""
    return repro.Query(
        name,
        sources=query.sources,
        sink=query.sink if sink is None else sink,
        predicates=query.predicates,
        filters=query.filters,
        window=query.window,
    )
