"""Round-trip law over layer combinations: capture, restore, same plane.

Every layer writes its own snapshot section (``capture()``) and reads it
back (``restore(doc)``); the per-layer suites check each against the
bare service.  This is the law across them: for every subset of
{resilience, adaptivity, resources} on a single service and on a
2-shard tenant fleet, with capacities tight enough that queries shed and
park, run a seeded 30-step script, capture the plane, restore the
document (through JSON text, as a recovery reads it) into a pristine
twin from the same factory, and require

* the twin's snapshot bytes to equal the original's,
* every ``layers()`` member's ``summary()`` to be equal, and
* the next 5 tick reports to be equal.
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
from repro.fleet import FleetController, Tenant
from repro.resilience.degradation import ResilienceConfig
from repro.service import StreamQueryService

import repro
from tests.durability.test_snapshot_fragments import _ADAPT, bounded, build_world
from tests.fleet.conftest import renamed

_LAYERS = ("resilience", "adaptivity", "resources")
_SUBSETS = [
    subset
    for size in range(len(_LAYERS) + 1)
    for subset in itertools.combinations(_LAYERS, size)
]
#: ``AdaptivityLoop.summary()`` rolls these up from ``loop.reports``, a
#: log of past ticks the snapshot does not carry (not decision state).
_HISTORY = {
    "migrations_committed", "migrations_aborted", "operators_moved",
    "state_bytes_moved", "cost_saving",
}


def build(scope: str, armed: tuple[str, ...]):
    """A pristine plane of ``scope`` with the ``armed`` layers, and its pool."""
    net, hierarchy, rates, pool = build_world()
    layers = {}
    if "resilience" in armed:
        layers["resilience"] = ResilienceConfig()
    if "adaptivity" in armed:
        layers["adaptivity"] = _ADAPT
    resources = bounded(net, pool) if "resources" in armed else None
    if scope == "fleet":
        plane = FleetController(
            2, net, rates, hierarchy, policy="subtree", budget=6,
            tenants=[Tenant("gold", weight=3.0), Tenant("bronze", weight=1.0)],
            service_kwargs=layers, resources=resources,
        )
    else:
        ads = repro.AdvertisementIndex(hierarchy)
        plane = StreamQueryService(
            repro.TopDownOptimizer(hierarchy, rates, ads=ads), net, rates,
            hierarchy=hierarchy, ads=ads, resources=resources, **layers,
        )
    return plane, pool, rates


def run_script(plane, pool, rates, seed: int, steps: int = 30) -> None:
    """``steps`` seeded commands: the pool once (a busy plane), then
    submits and ticks, some retires, drift observations and (on a fleet)
    rebalances."""
    rng = random.Random(seed)
    fleet = isinstance(plane, FleetController)
    services = plane.shards if fleet else [plane]
    for serial in range(steps):
        roll = rng.random()
        live = sorted(plane.live_queries)
        if roll < 0.5 or serial < len(pool):
            shape = pool[serial] if serial < len(pool) else rng.choice(pool)
            query = renamed(shape, f"{shape.name}#{serial}")
            lifetime = rng.choice([None, 3.0, 6.0])
            if fleet:
                plane.submit(query, lifetime=lifetime, tenant=rng.choice(["gold", "bronze"]))
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


def timeless(text: str):
    """A snapshot document without its wall-clock planning times."""

    def strip(value):
        if isinstance(value, dict):
            return {
                key: strip(item)
                for key, item in value.items()
                if key not in ("planning_latency", "planning_seconds")
            }
        return [strip(item) for item in value] if isinstance(value, list) else value

    return strip(json.loads(text))


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


@pytest.mark.parametrize("armed", _SUBSETS, ids=lambda s: "+".join(s) or "bare")
@pytest.mark.parametrize("scope", ["service", "fleet"])
def test_a_restored_twin_is_the_plane_it_was_captured_from(scope, armed):
    plane, pool, rates = build(scope, armed)
    run_script(plane, pool, rates, seed=6)
    if "resources" in armed:
        # Tight capacities: something was shed, and something parked
        # (and may have been re-admitted since).
        managers = plane.resource_managers if scope == "fleet" else [plane.resources]
        assert any(m.shed_total and (m.parked or m.readmitted_total) for m in managers)

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
    # ... and they still hold the same state, but for what each one's own
    # planner runs took on the wall clock.
    assert timeless(snapshot_text(twin)) == timeless(snapshot_text(plane))
