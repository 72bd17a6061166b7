"""Shared builders for the fleet control-plane tests."""

import pytest

import repro

from tests.conftest import small_world


def build_env():
    """Deterministic (network, hierarchy, workload, rates) quadruple."""
    world = small_world(10, network_seed=7, workload_seed=8)
    return world.network, world.hierarchy(), world.workload, world.rates


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
