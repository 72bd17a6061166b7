"""Snapshots that refer to their predecessors: validity, retention, recovery.

A warm snapshot writes a reference where a snapshot still on disk holds
the same section text inline.  A reference whose snapshot is missing,
torn, or holds other text at the place fails its file like a torn one:
the reject names why, and recovery falls back to the next valid
snapshot, or replays the journal, and reaches the same digest.  The
writer refers only to files that landed, a recovered process starts
with a full snapshot, and retention keeps every file a retained
snapshot refers to, an earlier process's too.  The writer lists its
directory once, when it is bound.
"""

import json
import re
import shutil
from pathlib import Path

import pytest

import repro
from repro.durability import DurabilityConfig, load_latest, recover
from repro.durability.harness import digest, run_steps, service_scenario
from repro.durability.snapshot import list_snapshots
from repro.service import StreamQueryService
from repro.service.admission import AdmissionController
from tests.conftest import three_sink_world
from tests.durability.reference_capture import snapshot_bytes

_LSN = re.compile(rb'"\$ref":\{"at":\[[^\]]*\],"crc":\d+,"lsn":(\d+)\}')


def refers_to(path: Path) -> set[int]:
    """The LSNs of the snapshots ``path``'s references name."""
    return {int(lsn) for lsn in _LSN.findall(path.read_bytes())}


def lsn_of(path: Path) -> int:
    return int(path.stem.split("-")[1])


def service_at(state_dir, **options) -> tuple[StreamQueryService, list]:
    """A durable service that snapshots only when told to, and its pool."""
    net, hierarchy, rates, pool = three_sink_world(6)
    ads = repro.AdvertisementIndex(hierarchy)
    service = StreamQueryService(
        repro.TopDownOptimizer(hierarchy, rates, ads=ads),
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        durability=DurabilityConfig(state_dir=str(state_dir), snapshot_interval=10**6),
        **options,
    )
    return service, pool


def snapshot(plane) -> Path:
    return plane.durability.snapshot(plane.clock)


# ----------------------------------------------------------------------
# A bad base
# ----------------------------------------------------------------------
def _missing(base: Path) -> None:
    base.unlink()


def _torn(base: Path) -> None:
    raw = base.read_bytes()
    base.write_bytes(raw[: len(raw) // 2])


def _rewritten(base: Path) -> None:
    # Other text at the referenced place, in a file that is valid
    # itself: the network section gains a key its restore ignores.
    doc = json.loads(base.read_text())
    doc["state"]["network"]["note"] = "rewritten"
    base.write_bytes(snapshot_bytes(doc["lsn"], doc["scope"], doc["state"], doc["time"]))


@pytest.mark.parametrize(
    "spoil, why, fallback",
    [
        (_missing, "missing", None),
        (_torn, "not valid JSON (truncated write)", None),
        (_rewritten, "holds other text at ['state', 'network']", "base"),
    ],
    ids=["missing", "torn", "rewritten"],
)
def test_a_delta_with_a_bad_base_is_rejected_and_recovery_converges(
    tmp_path, spoil, why, fallback
):
    scenario = service_scenario()
    state_dir = tmp_path / "state"
    baseline = scenario.factory(state_dir)
    run_steps(scenario, baseline)
    baseline.durability.journal.close()
    base, delta = sorted(state_dir.glob("snapshot-*.json"))
    assert refers_to(delta) == {lsn_of(base)}
    spoil(base)

    reason = next(s["reason"] for s in list_snapshots(state_dir) if s["file"] == delta.name)
    assert reason.startswith(f"refers to {base.name}") and reason.endswith(why)
    recovered, report = recover(state_dir, lambda: scenario.factory(state_dir))
    assert report.snapshots_rejected[0] == {"file": delta.name, "reason": reason}
    assert report.snapshot_lsn == (lsn_of(base) if fallback else 0)
    want = digest(scenario, baseline, extra_ticks=4)
    assert digest(scenario, recovered, extra_ticks=4) == want


def test_a_reference_out_of_its_place_fails_the_file(tmp_path):
    service, pool = service_at(tmp_path)
    for query in pool[:3]:
        service.submit(query)
    snapshot(service)
    delta = snapshot(service)
    service.durability.journal.close()
    doc = json.loads(delta.read_text())
    state = doc["state"]
    state["moved"], state["network"] = state["network"], state["state"]["flows"]
    delta.write_bytes(snapshot_bytes(doc["lsn"], doc["scope"], state, doc["time"]))
    assert list_snapshots(tmp_path)[-1]["reason"] == "a reference out of its place"


def test_a_query_named_like_a_reference_is_data(tmp_path):
    """A queued query named ``$ref`` puts ``{"$ref": <time>}`` in the
    admission section: only a ``$ref`` shaped like a reference is one."""

    def queued_service():
        return service_at(tmp_path, admission=AdmissionController(budget=2))

    service, pool = queued_service()
    for query in pool[:2]:
        service.submit(query)
    service.submit(pool[2].renamed("$ref"))
    snapshot(service)
    delta = snapshot(service)
    service.durability.journal.close()
    assert refers_to(delta)
    doc, rejected = load_latest(tmp_path)
    assert rejected == [] and doc["lsn"] == lsn_of(delta)
    assert doc["state"]["admission"]["enqueued_at"] == {"$ref": service.clock}

    recovered, report = recover(tmp_path, lambda: queued_service()[0])
    assert report.snapshot_lsn == lsn_of(delta) and report.snapshots_rejected == []
    assert recovered.admission.is_queued("$ref")
    recovered.durability.journal.close()


# ----------------------------------------------------------------------
# What the writer refers to, and what it keeps
# ----------------------------------------------------------------------
def test_a_failed_rename_leaves_the_writer_referring_only_to_files_that_landed(
    tmp_path, monkeypatch
):
    service, pool = service_at(tmp_path)
    for query in pool[:3]:
        service.submit(query)
    first = snapshot(service)
    service.submit(pool[3])  # new deployments, operators and flows text

    def refuse(self, target):
        raise OSError("no space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(Path, "replace", refuse)
        with pytest.raises(OSError):
            snapshot(service)
    path = snapshot(service)
    assert refers_to(path) == {lsn_of(first)}
    written = json.loads(path.read_text())["state"]["state"]
    assert all(isinstance(section, list) for section in written.values())
    doc, rejected = load_latest(tmp_path)
    assert rejected == [] and doc["lsn"] == lsn_of(path)
    service.durability.journal.close()


def test_after_a_recovery_the_first_snapshot_is_full_and_old_bases_stay_while_needed(
    tmp_path,
):
    service, pool = service_at(tmp_path)
    for query in pool[:3]:
        service.submit(query)
    base = snapshot(service)
    delta = snapshot(service)
    assert refers_to(delta) == {lsn_of(base)}
    service.durability.journal.close()

    recovered, report = recover(tmp_path, lambda: service_at(tmp_path)[0])
    assert report.snapshot_lsn == lsn_of(delta) and report.snapshots_rejected == []
    full = snapshot(recovered)
    assert refers_to(full) == set()
    # The newest two are ``full`` and the earlier process's ``delta``,
    # which still needs its base.
    assert base.exists() and delta.exists()
    after = snapshot(recovered)
    assert refers_to(after) == {lsn_of(full)}
    assert sorted(tmp_path.glob("snapshot-*.json")) == [full, after]
    recovered.durability.journal.close()


def test_retention_keeps_what_the_newest_refer_to(tmp_path):
    service, pool = service_at(tmp_path)
    service.submit(pool[0])
    first = snapshot(service)
    for query in pool[1:4]:
        service.submit(query)  # the network stays: only ``first`` holds it
        snapshot(service)
    files = sorted(tmp_path.glob("snapshot-*.json"))
    assert len(files) == 3 and files[0] == first
    assert all(refers_to(path) >= {lsn_of(first)} for path in files[1:])
    assert load_latest(tmp_path)[1] == []
    service.durability.journal.close()


def test_the_writer_lists_its_directory_once_when_bound(tmp_path, monkeypatch):
    orphan = tmp_path / "snapshot-000000000003.json.tmp"
    orphan.write_bytes(b'{"crc":1,"kind":"repro.state"')  # died before the rename
    service, pool = service_at(tmp_path)
    assert not orphan.exists()

    def listed(*args, **kwargs):
        raise AssertionError("the snapshot directory was listed")

    monkeypatch.setattr(Path, "iterdir", listed)
    monkeypatch.setattr(Path, "glob", listed)
    for query in pool[:4]:
        service.submit(query)
        snapshot(service)
    monkeypatch.undo()
    assert len(list(tmp_path.glob("snapshot-*.json"))) >= 2
    service.durability.journal.close()
    shutil.rmtree(tmp_path)
