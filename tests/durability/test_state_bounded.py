"""Durable state holds only what is live: a soak law.

For each crash-matrix scenario: run its script, then 2 000 ticks with
the live set held constant.  A service scenario observes a drifted rate
sample every 10 ticks, alternately high and low, so its monitor
publishes about 200 times.  Three clauses:

1. the captured document at tick 2 000 is at most 1.05x its size at
   tick 200: nothing a snapshot writes grows with time alone;
2. every dict key of that document that is a query name the script
   submitted names a query still held: deployed, or waiting in the
   admission queue, a parking lot or the fleet scheduler;
3. recovering a copy of the state directory replays at most
   ``snapshot_interval`` ticks.
"""

import json
import shutil

import pytest

from repro.durability.harness import SCENARIOS, run_steps
from repro.durability.recovery import recover
from repro.durability.snapshot import splice_json
from repro.durability.state import FragmentMemo, capture_fleet, capture_service

TICKS = 2_000
EARLY = 200
DRIFT_EVERY = 10
GROWTH = 1.05


def captured(controller) -> str:
    """The state document a first snapshot of ``controller`` writes."""
    capture = capture_fleet if controller.durability.scope == "fleet" else capture_service
    return splice_json(capture(controller, FragmentMemo()))


def held_names(controller) -> set[str]:
    """Queries the control plane still holds: deployed or waiting."""
    names = set(controller.live_queries)
    for plane in [controller, *getattr(controller, "shards", ())]:
        admission = getattr(plane, "admission", None)
        if admission is not None:
            names.update(admission.queued_names())
        for lot in (getattr(plane, "resilience", None), getattr(plane, "resources", None)):
            if lot is not None:
                names.update(lot.parked)
    scheduler = getattr(controller, "scheduler", None)
    if scheduler is not None:
        names.update(p.query.name for queue in scheduler._queues.values() for p in queue)
    return names


def query_keys(doc, names: set[str], path: str = "") -> list[tuple[str, str]]:
    """``(where, key)`` for every dict key in ``doc`` that is in ``names``."""
    found = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key in names:
                found.append((path, key))
            found += query_keys(value, names, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for item in doc:
            found += query_keys(item, names, path)
    return found


@pytest.mark.parametrize("scope", sorted(SCENARIOS))
def test_durable_state_is_bounded_by_what_is_live(scope, tmp_path):
    scenario = SCENARIOS[scope]()
    controller = scenario.factory(tmp_path / "run")
    base = {name: spec.rate for name, spec in controller.rates.streams.items()}
    assert run_steps(scenario, controller) == (False, len(scenario.steps))
    submitted = {args["query"].name for method, args in scenario.steps if method == "submit"}
    held = held_names(controller)
    drifting = getattr(controller, "adaptivity", None) is not None
    publications = {}

    sizes = {}
    for tick in range(1, TICKS + 1):
        if drifting and tick % DRIFT_EVERY == 0:
            factor = 4.0 if tick % (2 * DRIFT_EVERY) else 0.25
            controller.observe_rates({name: rate * factor for name, rate in base.items()})
        controller.tick()
        if tick in (EARLY, TICKS):
            sizes[tick] = len(captured(controller).encode())
            if drifting:
                publications[tick] = controller.registry.get("adaptive_drift_events_total").value
    assert held_names(controller) == held  # the live set stayed constant
    if drifting:  # the soak published all along
        assert publications[TICKS] - publications[EARLY] >= (TICKS - EARLY) // DRIFT_EVERY // 2

    # 1. Nothing grows with time alone.
    assert sizes[TICKS] <= GROWTH * sizes[EARLY], f"bytes at ticks {EARLY} and {TICKS}: {sizes}"

    # 2. A query name is a key only while the query is held.
    stale = [
        (where, key)
        for where, key in query_keys(json.loads(captured(controller)), submitted)
        if key not in held
    ]
    assert not stale, f"keys naming queries no longer held: {stale}"

    # 3. A crash now replays at most one snapshot interval.
    controller.durability.journal.close()
    copy = tmp_path / "copy"
    shutil.copytree(tmp_path / "run", copy)
    recovered, report = recover(copy, lambda: scenario.factory(copy))
    recovered.durability.journal.close()
    assert report.replayed_ticks <= controller.durability.config.snapshot_interval
