"""Write-ahead journal: CRC, LSN discipline, torn tails, crash points."""

import json
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.durability import DurabilityConfig, inspect_state_dir, recover
from repro.durability.harness import run_steps, service_scenario
from repro.durability.journal import (
    COMMAND_KINDS,
    JOURNAL_FILE,
    MARKER_KINDS,
    Journal,
    SimulatedCrash,
    canonical_json,
    encode_record,
    repair_journal,
    scan_journal,
)
from repro.resilience.faults import CrashPoint
from repro.service import StreamQueryService

from tests.conftest import small_world

#: A record torn inside a two-byte UTF-8 sequence: no decoder accepts it.
TORN_UTF8 = b'{"crc":1,"\xc3'

#: Anything ``json.dumps`` encodes: floats of every kind, nested
#: containers, non-ASCII text in values and keys.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)


def contract_crc(lsn, kind, time, data) -> int:
    """The CRC a record carries: CRC-32 of the canonical JSON of its
    other four fields."""
    payload = {"lsn": lsn, "kind": kind, "time": time, "data": data}
    return zlib.crc32(canonical_json(payload).encode("utf-8"))


@pytest.fixture()
def journal(tmp_path):
    return Journal(tmp_path / JOURNAL_FILE)


class TestAppendScan:
    def test_lsns_are_monotonic_from_one(self, journal):
        for i in range(5):
            assert journal.append("cmd_tick", float(i), {"time": float(i)}) == i + 1
        records, report = scan_journal(journal.path)
        assert [r["lsn"] for r in records] == [1, 2, 3, 4, 5]
        assert report["dropped_lines"] == 0
        assert report["reason"] == ""

    def test_crc_covers_the_whole_record(self, journal):
        journal.append("admit", 1.0, {"query": "q0", "status": "admitted"})
        journal.close()
        (rec,), _ = scan_journal(journal.path)
        assert rec["crc"] == contract_crc(
            rec["lsn"], rec["kind"], rec["time"], rec["data"]
        )

    def test_kind_must_be_known(self, journal):
        with pytest.raises(ValueError):
            journal.append("cmd_mystery", 0.0, {})

    def test_command_and_marker_kinds_are_disjoint(self):
        assert not COMMAND_KINDS & MARKER_KINDS

    def test_canonical_json_is_key_ordered(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    @given(
        lsn=st.integers(1, 2**53),
        kind=st.sampled_from(sorted(COMMAND_KINDS | MARKER_KINDS)),
        time=st.floats(),
        data=json_values,
    )
    def test_encode_record_is_the_two_pass_encoding(self, lsn, kind, time, data):
        """One encode and a spliced CRC give the bytes of encoding the
        record with its CRC member in place."""
        two_pass = canonical_json(
            {
                "lsn": lsn,
                "kind": kind,
                "time": time,
                "data": data,
                "crc": contract_crc(lsn, kind, time, data),
            }
        )
        assert encode_record(lsn, kind, time, data) == two_pass


class TestTornAndCorrupt:
    def _write_three(self, journal):
        for i in range(3):
            journal.append("cmd_tick", float(i), {"time": float(i)})
        journal.close()

    def test_torn_tail_is_dropped(self, journal):
        self._write_three(journal)
        raw = journal.path.read_bytes()
        journal.path.write_bytes(raw[: len(raw) - 10])
        records, report = scan_journal(journal.path)
        assert [r["lsn"] for r in records] == [1, 2]
        assert report["dropped_lines"] == 1
        assert "JSON" in report["reason"] or "truncated" in report["reason"]

    def test_flipped_byte_fails_crc(self, journal):
        self._write_three(journal)
        lines = journal.path.read_text().splitlines()
        doc = json.loads(lines[2])
        doc["data"]["time"] = 99.0  # mutate payload, keep stale CRC
        lines[2] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        journal.path.write_text("\n".join(lines) + "\n")
        records, report = scan_journal(journal.path)
        assert len(records) == 2
        assert "CRC" in report["reason"]

    def test_a_line_out_of_its_written_form_fails_crc(self, journal):
        """The CRC is over the bytes as written: the same record re-encoded
        with whitespace is no longer the line its CRC was taken of."""
        self._write_three(journal)
        lines = journal.path.read_text().splitlines()
        lines[2] = json.dumps(json.loads(lines[2]), sort_keys=True)
        journal.path.write_text("\n".join(lines) + "\n")
        records, report = scan_journal(journal.path)
        assert len(records) == 2
        assert report["reason"] == "line 3: CRC mismatch"

    def test_corrupt_middle_line_truncates_the_suffix(self, journal):
        self._write_three(journal)
        lines = journal.path.read_text().splitlines()
        lines[1] = "not json at all"
        journal.path.write_text("\n".join(lines) + "\n")
        records, report = scan_journal(journal.path)
        # Prefix-greedy: record 3 is intact but unreachable past the tear.
        assert [r["lsn"] for r in records] == [1]
        assert report["dropped_lines"] == 2

    def test_repair_quarantines_and_truncates(self, journal):
        self._write_three(journal)
        raw = journal.path.read_bytes()
        journal.path.write_bytes(raw[: len(raw) - 7])
        records, report = repair_journal(journal.path)
        assert len(records) == 2
        assert report["quarantined_to"]
        quarantine = journal.path.parent / report["quarantined_to"]
        assert quarantine.exists()
        # The journal itself is now clean.
        rescan, rescan_report = scan_journal(journal.path)
        assert len(rescan) == 2
        assert rescan_report["dropped_lines"] == 0

    def test_repair_never_overwrites_an_older_quarantine(self, journal):
        self._write_three(journal)
        raw = journal.path.read_bytes()
        journal.path.write_bytes(raw[: len(raw) - 7])
        _, first = repair_journal(journal.path)
        journal2 = Journal(journal.path)
        journal2.lsn = 2
        journal2.append("cmd_tick", 9.0, {"time": 9.0})
        journal2.close()
        raw = journal.path.read_bytes()
        journal.path.write_bytes(raw[: len(raw) - 5])
        _, second = repair_journal(journal.path)
        assert first["quarantined_to"] != second["quarantined_to"]

    def test_undecodable_tail_is_dropped_and_repaired(self, journal):
        journal.append("cmd_tick", 0.0, {"time": 0.0})
        journal.append("admit", 0.0, {"query": "q\u00e9", "status": "admitted"})
        journal.close()
        good = journal.path.read_bytes()
        journal.path.write_bytes(good + TORN_UTF8)
        records, report = scan_journal(journal.path)
        assert [r["lsn"] for r in records] == [1, 2]
        assert report["reason"] == "line 3: not valid UTF-8 (torn write)"
        assert report["dropped_lines"] == 1
        assert report["dropped_bytes"] == len(TORN_UTF8)
        assert report["valid_bytes"] == len(good)
        records, report = repair_journal(journal.path)
        assert len(records) == 2
        assert journal.path.read_bytes() == good
        quarantine = journal.path.parent / report["quarantined_to"]
        assert quarantine.read_bytes() == TORN_UTF8
        assert scan_journal(journal.path)[1]["reason"] == ""

    def test_missing_file_scans_empty(self, tmp_path):
        records, report = scan_journal(tmp_path / "absent.jsonl")
        assert records == []
        assert report["records"] == 0


class TestCrashPoints:
    def test_clean_crash_keeps_the_record_durable(self, journal):
        journal.arm([CrashPoint(time=0.0, after_lsn=2)])
        journal.append("cmd_tick", 0.0, {"time": 0.0})
        with pytest.raises(SimulatedCrash):
            journal.append("cmd_tick", 1.0, {"time": 1.0})
        records, _ = scan_journal(journal.path)
        assert [r["lsn"] for r in records] == [1, 2]

    def test_torn_crash_drops_the_record(self, journal):
        journal.arm([CrashPoint(time=0.0, after_lsn=2, torn_tail=True)])
        journal.append("cmd_tick", 0.0, {"time": 0.0})
        with pytest.raises(SimulatedCrash):
            journal.append("cmd_tick", 1.0, {"time": 1.0})
        records, report = scan_journal(journal.path)
        assert [r["lsn"] for r in records] == [1]
        assert report["dropped_bytes"] > 0

    def test_each_point_fires_once(self, journal):
        journal.arm([CrashPoint(time=0.0, after_lsn=1)])
        with pytest.raises(SimulatedCrash):
            journal.append("cmd_tick", 0.0, {"time": 0.0})
        # Fired points stay fired: the journal keeps working.
        assert journal.append("cmd_tick", 1.0, {"time": 1.0}) == 2

    def test_replaying_suppresses_appends(self, journal):
        journal.append("cmd_tick", 0.0, {"time": 0.0})
        journal.replaying = True
        assert journal.append("cmd_tick", 1.0, {"time": 1.0}) is None
        journal.replaying = False
        records, _ = scan_journal(journal.path)
        assert len(records) == 1

    def test_fsync_counter(self, tmp_path):
        journal = Journal(tmp_path / JOURNAL_FILE, fsync=True)
        journal.append("cmd_tick", 0.0, {"time": 0.0})
        journal.append("cmd_tick", 1.0, {"time": 1.0})
        assert journal.fsyncs_total == 2
        journal.close()

    def test_a_service_armed_with_fsync_flushes_every_record(self, tmp_path):
        world = small_world(2)
        service = StreamQueryService(
            world.optimizer("top-down"), world.network, world.rates,
            hierarchy=world.hierarchy(),
            durability=DurabilityConfig(state_dir=str(tmp_path), fsync=True),
        )
        service.submit(world.workload.queries[0])
        service.tick()
        journal = service.durability.journal
        assert journal.fsyncs_total == journal.lsn > 0
        fsyncs = service.registry.get("durability_journal_fsyncs_total")
        assert fsyncs.value == journal.fsyncs_total


class TestTornUtf8Recovery:
    def test_recovery_quarantines_an_undecodable_tail(self, tmp_path):
        scenario = service_scenario()
        state_dir = tmp_path / "state"
        baseline = scenario.factory(state_dir)
        run_steps(scenario, baseline)
        baseline.durability.journal.close()
        path = state_dir / JOURNAL_FILE
        good = path.read_bytes()
        path.write_bytes(good + TORN_UTF8)
        last_lsn = len(scan_journal(path)[0])

        inspected = inspect_state_dir(state_dir)["journal"]
        assert inspected["last_lsn"] == last_lsn
        assert inspected["dropped_bytes"] == len(TORN_UTF8)
        assert "not valid UTF-8" in inspected["drop_reason"]

        recovered, report = recover(state_dir, lambda: scenario.factory(state_dir))
        assert report.last_lsn == last_lsn
        assert "not valid UTF-8" in report.journal_drop["reason"]
        assert path.read_bytes() == good
        # The repaired journal takes appends again.
        recovered.tick()
        recovered.durability.journal.close()
        assert len(scan_journal(path)[0]) > last_lsn
