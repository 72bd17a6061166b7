"""Capacity/load algebra and the seeded capacity profiles."""

import math

import pytest

import repro
from repro.resources import (
    Load,
    NodeCapacity,
    UNBOUNDED,
    ZERO_LOAD,
    uniform_capacities,
)
from repro.workload import HeterogeneousFleetProfile, HotspotProfile


class TestNodeCapacity:
    def test_default_is_unbounded(self):
        assert NodeCapacity().unbounded
        assert UNBOUNDED.unbounded

    def test_any_finite_dimension_is_bounded(self):
        assert not NodeCapacity(cpu=10.0).unbounded
        assert not NodeCapacity(memory=10.0).unbounded
        assert not NodeCapacity(bandwidth=10.0).unbounded

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError):
            NodeCapacity(cpu=0.0)
        with pytest.raises(ValueError):
            NodeCapacity(memory=-1.0)

    def test_scaled(self):
        cap = NodeCapacity(cpu=10.0, memory=20.0).scaled(0.5)
        assert cap.cpu == 5.0
        assert cap.memory == 10.0
        assert math.isinf(cap.bandwidth)
        with pytest.raises(ValueError):
            cap.scaled(0.0)


class TestLoad:
    def test_addition_and_scaling(self):
        total = Load(cpu=1.0, memory=2.0) + Load(cpu=3.0, bandwidth=4.0)
        assert total == Load(cpu=4.0, memory=2.0, bandwidth=4.0)
        assert ZERO_LOAD + total == total

    def test_utilization_is_max_dimension_ratio(self):
        cap = NodeCapacity(cpu=10.0, memory=100.0, bandwidth=10.0)
        load = Load(cpu=5.0, memory=90.0, bandwidth=1.0)
        assert load.utilization(cap) == pytest.approx(0.9)

    def test_unbounded_dimensions_contribute_zero(self):
        assert Load(cpu=1e9).utilization(UNBOUNDED) == 0.0
        cap = NodeCapacity(memory=10.0)
        assert Load(cpu=1e9, memory=5.0).utilization(cap) == pytest.approx(0.5)


class TestCapacityMaps:
    def test_uniform_capacities_cover_every_node(self):
        net = repro.transit_stub_by_size(16, seed=1)
        caps = uniform_capacities(net, cpu=7.0)
        assert set(caps) == set(net.nodes())
        assert all(c.cpu == 7.0 for c in caps.values())


class TestProfiles:
    def test_hotspot_profile_is_deterministic(self):
        net = repro.transit_stub_by_size(32, seed=47)
        profile = HotspotProfile(cpu=100.0, weak_fraction=0.25, seed=9)
        first = profile.capacities(net)
        assert first == profile.capacities(net)
        weak = [n for n, c in first.items() if c.cpu < 100.0]
        assert len(weak) == len(net.nodes()) // 4
        assert all(first[n].cpu == pytest.approx(10.0) for n in weak)

    def test_hotspot_different_seed_moves_the_weak_set(self):
        net = repro.transit_stub_by_size(32, seed=47)
        weak = lambda seed: {  # noqa: E731
            n
            for n, c in HotspotProfile(seed=seed).capacities(net).items()
            if c.cpu < 999.0
        }
        assert weak(1) != weak(2)

    def test_hotspot_rejects_bad_params(self):
        with pytest.raises(ValueError):
            HotspotProfile(weak_fraction=1.5)
        with pytest.raises(ValueError):
            HotspotProfile(weak_scale=0.0)

    def test_heterogeneous_profile_keys_by_kind(self):
        net = repro.transit_stub_by_size(32, seed=47)
        caps = HeterogeneousFleetProfile().capacities(net)
        for node in net.nodes():
            if net.node_kind(node) == "transit":
                assert caps[node].cpu == 4000.0
            else:
                assert caps[node].cpu == 500.0
