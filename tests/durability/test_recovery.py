"""Recovery: snapshot restore + journal replay converge, for both scopes."""

import json

import numpy as np
import pytest

from repro.durability import inspect_state_dir, recover
from repro.durability.harness import (
    _service_env,
    digest,
    fleet_scenario,
    layered_scenario,
    resume_index,
    run_steps,
    service_scenario,
)
from repro.durability.journal import JOURNAL_FILE, encode_record, scan_journal
from repro.durability.snapshot import list_snapshots
from repro.errors import ReproError
from tests.durability.reference_capture import references, snapshot_bytes


class TestServiceRecovery:
    @pytest.fixture(scope="class")
    def scenario(self):
        return service_scenario()

    def test_recover_reaches_the_exact_pre_crash_state(self, scenario, tmp_path):
        state_dir = tmp_path / "state"
        baseline = scenario.factory(state_dir)
        run_steps(scenario, baseline)

        # Recover BEFORE digesting: digest() drives further (journaled)
        # ticks, which would otherwise grow the very journal replayed.
        recovered, report = recover(
            state_dir, lambda: scenario.factory(state_dir)
        )
        assert report.scope == "service"
        assert report.snapshot_lsn > 0  # the script crosses a snapshot
        assert report.journal_drop["dropped_lines"] == 0
        # The recovered twin must keep making the same decisions the
        # baseline makes over the next ticks.
        want = digest(baseline)
        assert digest(recovered) == want

    def test_recovery_updates_instruments(self, scenario, tmp_path):
        state_dir = tmp_path / "state"
        baseline = scenario.factory(state_dir)
        run_steps(scenario, baseline)
        recovered, report = recover(
            state_dir, lambda: scenario.factory(state_dir)
        )
        reg = recovered.registry
        assert (
            reg.get("durability_recovery_replayed_records").value
            == report.replayed_records
        )
        assert reg.get("durability_recovery_ticks").value == report.replayed_ticks
        assert recovered.durability.recovered is True

    def test_factory_without_durability_is_rejected(self, scenario, tmp_path):
        state_dir = tmp_path / "state"
        baseline = scenario.factory(state_dir)
        run_steps(scenario, baseline)
        with pytest.raises(ValueError):
            recover(state_dir, lambda: scenario.factory(None))

    def test_corrupt_newest_snapshot_falls_back(self, scenario, tmp_path):
        state_dir = tmp_path / "state"
        baseline = scenario.factory(state_dir)
        run_steps(scenario, baseline)
        snaps = list_snapshots(state_dir)
        assert len(snaps) >= 1
        newest = state_dir / snaps[-1]["file"]
        raw = newest.read_text()
        newest.write_text(raw[: len(raw) // 2])

        recovered, report = recover(
            state_dir, lambda: scenario.factory(state_dir)
        )
        assert len(report.snapshots_rejected) == 1
        assert report.snapshot_lsn < snaps[-1]["lsn"]
        want = digest(baseline)
        assert digest(recovered) == want

    def test_torn_journal_tail_is_quarantined_and_reported(
        self, scenario, tmp_path
    ):
        state_dir = tmp_path / "state"
        baseline = scenario.factory(state_dir)
        run_steps(scenario, baseline)
        journal_path = state_dir / JOURNAL_FILE
        raw = journal_path.read_bytes()
        journal_path.write_bytes(raw[: len(raw) - 11])

        # Read-only inspection sees the damage without touching disk.
        before = inspect_state_dir(state_dir)
        assert before["journal"]["dropped_lines"] == 1
        assert before["journal"]["dropped_bytes"] > 0
        assert before["journal"]["drop_reason"]

        recovered, report = recover(
            state_dir, lambda: scenario.factory(state_dir)
        )
        assert report.journal_drop["dropped_lines"] == 1
        assert report.journal_drop["quarantined_to"]
        assert (state_dir / report.journal_drop["quarantined_to"]).exists()
        # The recovered journal continues exactly after the last valid LSN.
        assert recovered.durability.journal.lsn == report.last_lsn


class TestLayeredRecovery:
    def test_a_faults_section_with_message_counters_and_an_rng_recovers(
        self, tmp_path
    ):
        """Snapshots written when the injector also kept message counters
        and an RNG still restore: the extra keys are ignored.  Each file is
        rewritten oldest first, and a delta's references name the CRC of
        its rewritten base, as the writer of those files would have."""
        scenario = layered_scenario()
        state_dir = tmp_path / "state"
        baseline = scenario.factory(state_dir)
        run_steps(scenario, baseline)
        snaps = list_snapshots(state_dir)
        assert snaps
        crcs: dict[int, int] = {}
        for snap in snaps:
            path = state_dir / snap["file"]
            doc = json.loads(path.read_text())
            faults = doc["state"]["faults"]
            assert faults is not None and "rng" not in faults
            faults.update(
                messages_dropped=0,
                messages_delayed=0,
                messages_duplicated=0,
                rng=np.random.default_rng(3).bit_generator.state,
            )
            for ref in references(doc["state"]):
                ref["crc"] = crcs[ref["lsn"]]
            raw = snapshot_bytes(doc["lsn"], doc["scope"], doc["state"], doc["time"])
            path.write_bytes(raw)
            crcs[doc["lsn"]] = json.loads(raw)["crc"]
        assert references(json.loads((state_dir / snaps[-1]["file"]).read_text()))

        recovered, report = recover(state_dir, lambda: scenario.factory(state_dir))
        assert report.snapshot_lsn == snaps[-1]["lsn"]
        assert not report.snapshots_rejected
        assert "rng" not in recovered.faults.capture()
        want = digest(baseline)
        assert digest(recovered) == want


class TestFleetRecovery:
    @pytest.fixture(scope="class")
    def scenario(self):
        return fleet_scenario()

    def test_recover_restores_routing_tenancy_and_federation(
        self, scenario, tmp_path
    ):
        state_dir = tmp_path / "state"
        baseline = scenario.factory(state_dir)
        run_steps(scenario, baseline)

        recovered, report = recover(
            state_dir, lambda: scenario.factory(state_dir)
        )
        assert report.scope == "fleet"
        assert recovered.check_invariants() == []
        want = digest(baseline)
        assert digest(recovered) == want

    def test_scope_mismatch_is_rejected(self, scenario, tmp_path):
        service = service_scenario()
        state_dir = tmp_path / "state"
        baseline = service.factory(state_dir)
        run_steps(service, baseline)
        with pytest.raises(ValueError):
            recover(state_dir, lambda: scenario.factory(state_dir))


class TestInspect:
    def test_inspect_reports_replay_suffix_and_kinds(self, tmp_path):
        scenario = service_scenario()
        state_dir = tmp_path / "state"
        baseline = scenario.factory(state_dir)
        run_steps(scenario, baseline)
        doc = inspect_state_dir(state_dir)
        assert doc["journal"]["records"] > 0
        assert doc["journal"]["kinds"]["cmd_submit"] == 6
        assert doc["recovery"]["scope"] == "service"
        assert doc["recovery"]["snapshot_lsn"] > 0
        assert doc["recovery"]["replay_records"] >= 0
        assert doc["in_flight_migrations"] == []
        json.dumps(doc)  # JSON-ready throughout

    def test_resume_index_counts_valid_commands(self, tmp_path):
        scenario = service_scenario()
        state_dir = tmp_path / "state"
        baseline = scenario.factory(state_dir)
        run_steps(scenario, baseline)
        records, _ = scan_journal(state_dir / JOURNAL_FILE)
        assert resume_index(state_dir) == len(scenario.steps)
        assert len(records) > len(scenario.steps)  # markers ride along


@pytest.mark.parametrize(
    "kind, data",
    [
        ("cmd_submit", {"lifetime": None, "time": None}),  # no query
        ("cmd_rebalance", {"name": "q0", "target_shard": 1}),  # a fleet kind
    ],
    ids=("submit-without-query", "fleet-kind"),
)
def test_a_record_that_cannot_be_replayed_stops_recovery(tmp_path, kind, data):
    """A CRC-valid command record the service cannot replay is an error
    naming its LSN and kind, not a step silently skipped."""
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    (state_dir / JOURNAL_FILE).write_text(encode_record(1, kind, 0.0, data) + "\n")
    with pytest.raises(ReproError, match=rf"lsn 1 \({kind}\)"):
        recover(state_dir, lambda: _service_env(state_dir)[0])
