"""Counters survive a crash recovery.

A registry :class:`~repro.obs.metrics.Counter` reads a count its owner
keeps, and the owner's snapshot section carries that count, so a
recovered control plane reports the totals of the run that never
crashed.  For each crash-matrix scenario: run the script uncrashed, run
it again with a clean crash (not torn, not mid-snapshot) right after the
last command record, recover, resume, and compare every counter of the
service, shard and fleet registries.  The durability layer's own
counters describe the process that wrote the journal, not the control
plane, and are left out (:data:`~repro.obs.timeseries.PROCESS_SERIES`).
"""

import pytest

from repro.durability.harness import SCENARIOS, resume_index, run_steps
from repro.durability.journal import COMMAND_KINDS, JOURNAL_FILE, scan_journal
from repro.durability.recovery import recover
from repro.obs.metrics import Counter
from repro.obs.telemetry import Telemetry
from repro.obs.timeseries import PROCESS_SERIES
from repro.resilience.faults import CrashPoint


def counters(plane) -> dict[str, dict[str, float]]:
    """Every counter's value, by registry: the plane's, then each shard's."""
    registries = {"plane": plane.registry}
    for sid, shard in enumerate(getattr(plane, "shards", ())):
        registries[f"shard{sid}"] = shard.registry
    return {
        scope: {
            name: registry.get(name).value
            for name in registry.names()
            if isinstance(registry.get(name), Counter) and name not in PROCESS_SERIES
        }
        for scope, registry in registries.items()
    }


def crash_and_recover(scenario, factory, tmp_path):
    """The uncrashed plane, and the one recovered from a clean crash right
    after the script's last command record and resumed."""
    baseline = factory(tmp_path / "baseline")
    assert run_steps(scenario, baseline) == (False, len(scenario.steps))
    baseline.durability.journal.close()
    records, _ = scan_journal(tmp_path / "baseline" / JOURNAL_FILE)
    last = [rec for rec in records if rec["kind"] in COMMAND_KINDS][-1]

    run_dir = tmp_path / "crashed"
    crashed = factory(run_dir)
    crashed.durability.arm([CrashPoint(time=last["time"], after_lsn=last["lsn"])])
    fired, _ = run_steps(scenario, crashed)
    assert fired
    crashed.durability.journal.close()
    recovered, report = recover(run_dir, lambda: factory(run_dir))
    assert report.snapshot_lsn > 0  # the counts come back from a snapshot
    assert run_steps(scenario, recovered, start=resume_index(run_dir))[0] is False
    recovered.durability.journal.close()
    return baseline, recovered


@pytest.mark.parametrize("scope", sorted(SCENARIOS))
def test_every_counter_reads_the_uncrashed_total_after_recovery(scope, tmp_path):
    scenario = SCENARIOS[scope]()
    baseline, recovered = crash_and_recover(scenario, scenario.factory, tmp_path)
    want = counters(baseline)
    assert any(value > 0 for totals in want.values() for value in totals.values())
    got = counters(recovered)
    differing = {
        (registry, name): (value, got[registry].get(name))
        for registry, totals in want.items()
        for name, value in totals.items()
        if got[registry].get(name) != value
    }
    assert not differing, f"counters differ after recovery (uncrashed, recovered): {differing}"
    assert got == want


def test_a_restored_breaker_open_is_not_bundled_again(tmp_path):
    """The layered script opens a breaker in its first ticks, long before
    the snapshot a recovery restores: the restored counter reads 1 from
    the first scrape on, and that is no new open."""
    scenario = SCENARIOS["layers"]()

    def factory(state_dir):
        service = scenario.factory(state_dir)
        service.telemetry = Telemetry()
        service.telemetry.bind_service(service)
        return service

    baseline, recovered = crash_and_recover(scenario, factory, tmp_path)

    def breaker_bundles(service):
        bundles = service.telemetry.recorder.snapshot()["bundles"]
        return [b for b in bundles if b["reason"] == "breaker_open"]

    assert recovered.resilience.breakers.total_opens() == 1
    assert len(breaker_bundles(baseline)) == 1
    assert breaker_bundles(recovered) == []
