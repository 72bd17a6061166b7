"""The cost gauge is computed when read, and reads what an eager one held.

``FlowEngine`` sets ``runtime_total_cost`` pending
(:meth:`Gauge.set_lazy`) after every deploy, undeploy and refresh; the
total is summed on the first read.  The oracle is the engine as it was,
setting the gauge to a fresh ``total_cost()`` after every event
(:class:`EagerEngine`).  Twin planes -- a telemetry-armed service with
adaptivity, and a 2-shard federated fleet with telemetry -- run one
seeded churn script; after every step each registry's ``snapshot()``
and ``exposition()`` and the telemetry envelope are equal across the
twins, and equal again after both are captured and restored into
pristine planes mid-run.  Wall-clock series (planning latency) are left
out of the comparison, as telemetry leaves them out of its store.
"""

import json
import random

import pytest

from repro.durability.snapshot import splice_json
from repro.durability.state import (
    FragmentMemo,
    capture_fleet,
    capture_service,
    restore_fleet,
    restore_service,
)
from repro.fleet import FleetController
from repro.obs.metrics import MetricRegistry
from repro.obs.telemetry import TelemetryConfig
from repro.obs.timeseries import WALL_CLOCK_SERIES
from repro.runtime.engine import FlowEngine
from repro.service import StreamQueryService

import repro
from tests.conftest import three_sink_world
from tests.durability.test_snapshot_fragments import _ADAPT, _POOL


class EagerEngine(FlowEngine):
    """The engine before its cost gauge was computed when read."""

    def _tick(self, time):
        if time is not None:
            self.clock = time
        self._cost_gauge.set(self.total_cost())
        self._ops_gauge.set(float(self.state.num_operators))


# ----------------------------------------------------------------------
# The instrument
# ----------------------------------------------------------------------
class Calls:
    def __init__(self, value):
        self.value, self.calls = value, 0

    def __call__(self):
        self.calls += 1
        return self.value


class TestPendingGauge:
    def test_a_pending_value_moves_the_feed_now_and_is_computed_once_when_read(self):
        registry = MetricRegistry()
        gauge = registry.gauge("g")
        cursor = registry.feed_cursor()
        compute = Calls(3)
        gauge.set_lazy(compute)
        assert registry.changes_since(cursor) == ["g"] and compute.calls == 0
        assert gauge.value == 3.0 and isinstance(gauge.value, float)
        assert compute.calls == 1
        assert registry.changes_since(registry.feed_cursor()) == []  # a read is no change

    def test_a_later_write_replaces_a_pending_value_it_never_computes(self):
        gauge = MetricRegistry().gauge("g")
        first, second = Calls(1), Calls(2)
        gauge.set_lazy(first)
        gauge.set_lazy(second)
        assert gauge.value == 2.0
        gauge.set_lazy(first)
        gauge.set(7)
        assert gauge.value == 7.0
        assert (first.calls, second.calls) == (0, 1)

    def test_exports_read_the_pending_value(self):
        registry = MetricRegistry()
        gauge = registry.gauge("g", "help")
        eager = MetricRegistry()
        eager.gauge("g", "help").set(2.5)
        gauge.set_lazy(Calls(2.5))
        assert registry.exposition() == eager.exposition()
        gauge.set_lazy(Calls(2.5))
        assert registry.snapshot() == eager.snapshot()


# ----------------------------------------------------------------------
# Twin planes, one engine each way
# ----------------------------------------------------------------------
def build(scope: str, eager: bool):
    net, hierarchy, rates, pool = three_sink_world(_POOL)
    if scope == "fleet":
        plane = FleetController(
            2, net, rates, hierarchy, policy="hash", budget=6,
            telemetry=TelemetryConfig(),
        )
        services = plane.shards
    else:
        ads = repro.AdvertisementIndex(hierarchy)
        plane = StreamQueryService(
            repro.TopDownOptimizer(hierarchy, rates, ads=ads), net, rates,
            hierarchy=hierarchy, ads=ads, admission=repro.AdmissionController(budget=6),
            adaptivity=_ADAPT, telemetry=TelemetryConfig(),
        )
        services = [plane]
    if eager:
        for service in services:
            service.engine.__class__ = EagerEngine
    return plane, pool, rates


def step(plane, pool, rates, rng: random.Random, serial: int) -> None:
    """One seeded command: submit, tick (sometimes jumping), retire early,
    or a rate drift for the adaptivity loop to migrate on."""
    roll = rng.random()
    live = sorted(plane.live_queries)
    if roll < 0.45 or not live:
        shape = rng.choice(pool)
        plane.submit(shape.renamed(f"{shape.name}#{serial}"), lifetime=rng.choice([None, 2.0, 3.0]))
    elif roll < 0.75:
        plane.tick(None if rng.random() < 0.7 else plane.clock + 2.0)
    elif roll < 0.9:
        plane.retire(rng.choice(live))
    else:
        samples = {name: spec.rate for name, spec in rates.streams.items()}
        samples[rng.choice(sorted(samples))] *= rng.choice([0.5, 2.0])
        for service in getattr(plane, "shards", [plane]):
            service.observe_rates(samples)


def observed(plane):
    """Every registry's snapshot and exposition (wall-clock series left
    out) and the telemetry envelope."""
    docs = []
    for service in getattr(plane, "shards", [plane]):
        registry = service.registry
        snapshot = {k: v for k, v in registry.snapshot().items() if k not in WALL_CLOCK_SERIES}
        exposition = [
            line for line in registry.exposition().splitlines()
            if not any(name in line for name in WALL_CLOCK_SERIES)
        ]
        docs.append((snapshot, exposition))
    return docs, plane.telemetry.envelope()


def recovered(scope: str, plane, eager: bool):
    """A pristine twin restored from ``plane``'s snapshot through JSON."""
    capture, restore = (
        (capture_fleet, restore_fleet) if scope == "fleet" else (capture_service, restore_service)
    )
    twin, _, _ = build(scope, eager)
    restore(twin, json.loads(splice_json(capture(plane, FragmentMemo()))))
    return twin


@pytest.mark.parametrize("scope", ["service", "fleet"])
def test_the_lazy_cost_gauge_reads_what_the_eager_one_held_after_every_step(scope):
    (lazy, pool, rates), (eager, _, eager_rates) = build(scope, False), build(scope, True)
    assert type(lazy.engine if scope == "service" else lazy.shards[0].engine) is FlowEngine
    rngs = random.Random(29), random.Random(29)
    costs = set()
    for serial in range(60):
        step(lazy, pool, rates, rngs[0], serial)
        step(eager, pool, eager_rates, rngs[1], serial)
        if serial == 30:
            lazy, eager = recovered(scope, lazy, False), recovered(scope, eager, True)
            rates, eager_rates = lazy.rates, eager.rates
            # Pristine, then restored: nothing was set, nothing is pending.
            for service in getattr(lazy, "shards", [lazy]):
                assert service.registry.get("runtime_total_cost").value is None
        assert observed(lazy) == observed(eager), serial
        costs.add(lazy.total_cost())
    assert len(costs) > 10  # the total moved, and was read moving
