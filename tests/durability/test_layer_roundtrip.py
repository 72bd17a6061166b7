"""Round-trip law over layer combinations: capture, restore, same plane.

Every layer writes its own snapshot section (``capture()``) and reads it
back (``restore(doc)``); the per-layer suites check each against the
bare service.  This is the law across them: for every subset of
{resilience, adaptivity, resources} on a single service (capacities
tight enough that queries park), and for every subset without resources
on a 2-shard tenant fleet (three weight classes; a fleet does not arm
the resource layer), run a seeded 30-step script, capture the plane,
restore the document (through JSON text, as a recovery reads it) into a
pristine twin from the same factory, and require

* the twin's snapshot bytes to equal the original's,
* every ``layers()`` member's ``summary()`` to be equal, and
* the next 5 tick reports, and the snapshot bytes after them, to be equal.
"""

import itertools
import json
import random

import pytest

from repro.durability.harness import _tick_report_doc
from repro.durability.snapshot import splice_json
from repro.durability.state import (
    FragmentMemo,
    capture_fleet,
    capture_service,
    restore_fleet,
    restore_service,
)
from repro.fleet import FleetController
from repro.resilience.degradation import ResilienceConfig
from repro.service import StreamQueryService

import repro
from tests.conftest import three_sink_world
from tests.durability.test_snapshot_fragments import _ADAPT, _POOL, TENANTS, bounded

_LAYERS = ("resilience", "adaptivity", "resources")
_SUBSETS = [
    subset
    for size in range(len(_LAYERS) + 1)
    for subset in itertools.combinations(_LAYERS, size)
]
_CASES = [
    pytest.param(scope, armed, id=f"{scope}-{'+'.join(armed) or 'bare'}")
    for armed in _SUBSETS
    for scope in ("service", "fleet")
    if scope == "service" or "resources" not in armed
]
#: ``AdaptivityLoop.summary()`` rolls these up from ``loop.reports``, a
#: log of past ticks the snapshot does not carry (not decision state).
_HISTORY = {
    "migrations_committed", "migrations_aborted", "operators_moved",
    "state_bytes_moved", "cost_saving",
}


def build(scope: str, armed: tuple[str, ...]):
    """A pristine plane of ``scope`` with the ``armed`` layers, and its pool."""
    net, hierarchy, rates, pool = three_sink_world(_POOL)
    layers = {}
    if "resilience" in armed:
        layers["resilience"] = ResilienceConfig()
    if "adaptivity" in armed:
        layers["adaptivity"] = _ADAPT
    if scope == "fleet":
        plane = FleetController(
            2, net, rates, hierarchy, policy="subtree", budget=6,
            tenants=TENANTS, service_kwargs=layers,
        )
    else:
        ads = repro.AdvertisementIndex(hierarchy)
        resources = bounded(net) if "resources" in armed else None
        plane = StreamQueryService(
            repro.TopDownOptimizer(hierarchy, rates, ads=ads), net, rates,
            hierarchy=hierarchy, ads=ads, resources=resources, **layers,
        )
    return plane, pool, rates


def run_script(plane, pool, rates, seed: int, steps: int = 30) -> None:
    """``steps`` seeded commands: the pool once (a busy plane), then
    submits (on a fleet, pool query ``i`` by tenant ``w{1 + i % 3}``) and
    ticks, some retires, drift observations and (on a fleet)
    rebalances."""
    rng = random.Random(seed)
    fleet = isinstance(plane, FleetController)
    services = plane.shards if fleet else [plane]
    for serial in range(steps):
        roll = rng.random()
        live = sorted(plane.live_queries)
        if roll < 0.5 or serial < len(pool):
            index = serial if serial < len(pool) else rng.randrange(len(pool))
            query = pool[index].renamed(f"{pool[index].name}#{serial}")
            lifetime = rng.choice([None, 3.0, 6.0])
            if fleet:
                plane.submit(query, lifetime=lifetime, tenant=f"w{1 + index % 3}")
            else:
                plane.submit(query, lifetime=lifetime)
        elif roll < 0.8 or not live:
            plane.tick()
        elif roll < 0.9:
            plane.retire(rng.choice(live))
        elif fleet and roll < 0.95:
            name = rng.choice(live)
            plane.rebalance(name, 1 - plane.shard_of(name))
        else:
            samples = {name: spec.rate for name, spec in rates.streams.items()}
            samples[rng.choice(sorted(samples))] *= rng.choice([0.5, 2.0])
            for service in services:
                service.observe_rates(samples)


def snapshot_text(plane) -> str:
    capture = capture_fleet if isinstance(plane, FleetController) else capture_service
    return splice_json(capture(plane, FragmentMemo()))


def summaries(plane) -> list:
    """``(section name, summary)`` of every layer, the shards' included
    (the router and the scheduler report through the fleet: their
    section stands in)."""
    out = []
    for owner in (plane, *getattr(plane, "shards", ())):
        for name, layer in owner.layers():
            summary = getattr(layer, "summary", layer.capture)()
            if name == "adaptivity":
                summary = {k: v for k, v in summary.items() if k not in _HISTORY}
            out.append((name, summary))
    return out


def tick_doc(report) -> dict:
    doc = _tick_report_doc(report)
    doc["federation"] = getattr(report, "federation", None)
    return doc


@pytest.mark.parametrize("scope, armed", _CASES)
def test_a_restored_twin_is_the_plane_it_was_captured_from(scope, armed):
    plane, pool, rates = build(scope, armed)
    run_script(plane, pool, rates, seed=9)
    if "resources" in armed:
        # Tight capacities: something parked (and may have been
        # re-admitted since).
        assert plane.resources.parked or plane.resources.readmitted_total

    text = snapshot_text(plane)
    twin, _, _ = build(scope, armed)
    restore = restore_fleet if scope == "fleet" else restore_service
    restore(twin, json.loads(text))

    assert snapshot_text(twin) == text
    assert summaries(twin) == summaries(plane)
    assert [name for name, _ in summaries(plane)].count("resilience") == (
        ("resilience" in armed) * (2 if scope == "fleet" else 1)
    )
    for _ in range(5):
        assert tick_doc(twin.tick()) == tick_doc(plane.tick())
    # ... and they still hold the same state, to the byte.
    assert snapshot_text(twin) == snapshot_text(plane)


@pytest.mark.parametrize("scope", ["service", "fleet"])
def test_a_snapshot_holding_wall_clock_planning_times_still_restores(scope):
    """Files written before planning latency left durable state carry a
    ``planning_seconds`` counter per service and a ``planning_latency``
    per cached plan; a restore ignores both."""
    plane, pool, rates = build(scope, ())
    run_script(plane, pool, rates, seed=9)
    text = snapshot_text(plane)
    doc = json.loads(text)
    for service in doc["shards"] if scope == "fleet" else [doc]:
        service["counters"]["planning_seconds"] = 0.25
        assert service["cache"]["entries"]
        for entry in service["cache"]["entries"]:
            entry["planning_latency"] = 0.001
    twin, _, _ = build(scope, ())
    (restore_fleet if scope == "fleet" else restore_service)(twin, doc)
    assert snapshot_text(twin) == text


def test_a_snapshot_whose_node_ids_have_gaps_is_refused():
    """Matrices are indexed by node id, so a fleet snapshot must hold ids
    ``0..n-1``; a gap fails the restore with its own message."""
    plane, pool, rates = build("fleet", ())
    doc = json.loads(snapshot_text(plane))
    doc["network"]["nodes"][-1]["id"] += 1
    twin, _, _ = build("fleet", ())
    with pytest.raises(ValueError, match="node ids must be contiguous from 0"):
        restore_fleet(twin, doc)
