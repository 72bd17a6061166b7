"""Snapshot envelope: CRC validation, fallback past corruption, pruning,
and the splice of kept fragments against ``canonical_json`` as a property."""

import json
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.durability.journal import Journal, SimulatedCrash, canonical_json
from repro.durability.snapshot import (
    Fragment,
    SnapshotWriter,
    list_snapshots,
    load_latest,
    snapshot_path,
    splice_json,
)
from repro.resilience.faults import CrashPoint


def _write(tmp_path, lsn, state=None, **kwargs):
    """One snapshot by a writer bound to ``tmp_path`` for it alone."""
    return SnapshotWriter(tmp_path).write(lsn, "service", state or {"lsn": lsn}, **kwargs)[0]


class TestRoundTrip:
    def test_latest_valid_snapshot_wins(self, tmp_path):
        _write(tmp_path, 10)
        _write(tmp_path, 25)
        doc, rejected = load_latest(tmp_path)
        assert doc is not None and doc["lsn"] == 25
        assert doc["state"] == {"lsn": 25}
        assert rejected == []

    def test_file_is_compact_canonical_json_with_the_contract_crc(self, tmp_path):
        state = {"b": [1.5, None, "x"], "a": {"z": float("inf"), "y": True}}
        path = _write(tmp_path, 7, state=state, time=2.0)
        raw = path.read_text()
        doc = json.loads(raw)
        assert raw == canonical_json(doc) + "\n"  # one line, sorted, no spaces
        payload = {k: v for k, v in doc.items() if k != "crc"}  # the contract CRC
        assert doc["crc"] == zlib.crc32(canonical_json(payload).encode("utf-8"))
        assert doc["state"] == state and doc["time"] == 2.0
        assert load_latest(tmp_path) == (doc, [])

    def test_fragments_are_spliced_as_the_bytes_of_their_plain_values(self, tmp_path):
        plain = {
            "b": [[1.5, None], {"k": "\u00e9"}],
            "a": {"y": True, "z": [{"n": 1}, {"n": 2}]},
            "c": {"deep": 1},
        }
        spliced = {
            "b": [Fragment("[1.5,null]"), {"k": "\u00e9"}],
            "a": {"y": True, "z": Fragment('[{"n":1},{"n":2}]')},
            "c": Fragment(canonical_json({"deep": 1})),
        }
        want = _write(tmp_path / "plain", 7, state=plain, time=2.0).read_bytes()
        got = _write(tmp_path / "spliced", 7, state=spliced, time=2.0).read_bytes()
        assert got == want
        assert load_latest(tmp_path / "spliced")[0]["state"] == plain

    def test_a_state_that_json_cannot_encode_is_still_refused(self, tmp_path):
        for state in ({"a": {1, 2}}, {1: Fragment("1")}, [Fragment("1"), object()]):
            with pytest.raises(TypeError):
                _write(tmp_path, 7, state=state)

    def test_empty_directory_loads_none(self, tmp_path):
        doc, rejected = load_latest(tmp_path)
        assert doc is None and rejected == []

    def test_retain_prunes_oldest(self, tmp_path):
        for lsn in (5, 10, 15, 20):
            _write(tmp_path, lsn)
        files = [s["file"] for s in list_snapshots(tmp_path)]
        assert files == ["snapshot-000000000015.json", "snapshot-000000000020.json"]

    def test_next_snapshot_removes_a_temp_file_a_crash_left_behind(self, tmp_path):
        _write(tmp_path, 10)
        # Died between writing the temp file and renaming it.
        orphan = tmp_path / (snapshot_path(tmp_path, 25).name + ".tmp")
        orphan.write_bytes(b'{"crc":1,"kind":"repro.state"')
        assert load_latest(tmp_path)[0]["lsn"] == 10  # never a candidate
        _write(tmp_path, 30)
        assert not orphan.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snapshot-000000000010.json",
            "snapshot-000000000030.json",
        ]


#: Keys and strings: any unicode, and now and then the character the
#: splice holds a fragment's place with, raw or as its escape's text.
_TEXT = st.text(max_size=4) | st.sampled_from(["\ue000", "\\ue000", "a\ue000\ue001"])
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | _TEXT


#: Nested dicts and lists, empty ones included, at any depth.
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


@st.composite
def _with_fragments(draw, doc):
    """``doc`` with random encodable subtrees replaced by their text."""
    try:
        text = canonical_json(doc)
    except TypeError:
        text = None
    if text is not None and draw(st.integers(0, 3)) == 0:
        return Fragment(text)
    if isinstance(doc, dict):
        return {key: draw(_with_fragments(value)) for key, value in doc.items()}
    if isinstance(doc, list):
        return [draw(_with_fragments(value)) for value in doc]
    return doc


@st.composite
def _planted(draw, doc, bad):
    """``doc`` with one subtree, maybe the whole, replaced by ``bad``."""
    if isinstance(doc, (dict, list)) and doc and draw(st.booleans()):
        doc = dict(doc) if isinstance(doc, dict) else list(doc)
        at = draw(st.sampled_from(sorted(doc) if isinstance(doc, dict) else range(len(doc))))
        doc[at] = draw(_planted(doc[at], bad))
        return doc
    return bad


class TestSpliceProperty:
    """The oracle is ``canonical_json`` of the plain document (none retired)."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_spliced_document_is_the_canonical_json_of_its_plain_one(self, data):
        plain = data.draw(_DOCUMENTS)
        assert splice_json(data.draw(_with_fragments(plain))) == canonical_json(plain)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), bad=st.sampled_from([{1, 2}, object(), b"x"]))
    def test_a_value_json_cannot_encode_is_refused_wherever_it_sits(self, data, bad):
        plain = data.draw(_planted(data.draw(_DOCUMENTS), bad))
        with pytest.raises(TypeError):
            splice_json(data.draw(_with_fragments(plain)))

    def test_empty_containers_stay_empty(self):
        doc = {"a": {}, "b": [], "c": [{}, [], Fragment("{}")], "d": {"e": {}}}
        assert splice_json(doc) == '{"a":{},"b":[],"c":[{},[],{}],"d":{"e":{}}}'
        assert splice_json({}) == "{}" and splice_json([]) == "[]"


class TestCorruption:
    def test_truncated_snapshot_falls_back_to_previous(self, tmp_path):
        _write(tmp_path, 10)
        path = _write(tmp_path, 25)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        doc, rejected = load_latest(tmp_path)
        assert doc is not None and doc["lsn"] == 10
        assert len(rejected) == 1
        assert rejected[0]["file"] == "snapshot-000000000025.json"
        assert "truncated" in rejected[0]["reason"]

    def test_crc_mismatch_is_rejected(self, tmp_path):
        _write(tmp_path, 10)
        path = _write(tmp_path, 25)
        doc = json.loads(path.read_text())
        doc["state"]["lsn"] = 999  # stale CRC
        path.write_text(json.dumps(doc))
        loaded, rejected = load_latest(tmp_path)
        assert loaded is not None and loaded["lsn"] == 10
        assert rejected and "CRC" in rejected[0]["reason"]

    def test_wrong_kind_is_rejected(self, tmp_path):
        path = snapshot_path(tmp_path, 7)
        path.write_text(json.dumps({"kind": "something_else"}))
        loaded, rejected = load_latest(tmp_path)
        assert loaded is None
        assert rejected and "envelope" in rejected[0]["reason"]

    def test_every_snapshot_corrupt_means_full_replay(self, tmp_path):
        for lsn in (10, 25):
            path = _write(tmp_path, lsn)
            raw = path.read_text()
            path.write_text(raw[: len(raw) // 3])
        doc, rejected = load_latest(tmp_path)
        assert doc is None
        assert len(rejected) == 2


class TestMidSnapshotCrash:
    def test_mid_snapshot_crash_leaves_a_torn_file(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.append("cmd_tick", 0.0, {"time": 0.0})
        journal.arm([CrashPoint(time=0.0, after_lsn=1, mid_snapshot=True)])
        state = {"x": 1, "items": Fragment("[1,2,3]"), "more": [Fragment("{}")]}
        with pytest.raises(SimulatedCrash):
            _write(tmp_path, journal.lsn, state, time=2.0, journal=journal)
        # The torn file exists at the final name but never validates.
        entries = list_snapshots(tmp_path)
        assert len(entries) == 1 and not entries[0]["valid"]
        doc, rejected = load_latest(tmp_path)
        assert doc is None and len(rejected) == 1
        # It is the first half of the very bytes an unarmed write lands.
        torn = snapshot_path(tmp_path, journal.lsn).read_bytes()
        whole = _write(tmp_path / "unarmed", journal.lsn, state, time=2.0).read_bytes()
        assert torn == whole[: len(whole) // 2]

    def test_unarmed_journal_does_not_crash_snapshots(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.append("cmd_tick", 0.0, {"time": 0.0})
        path = _write(tmp_path, journal.lsn, {"x": 1}, journal=journal)
        doc, rejected = load_latest(tmp_path)
        assert doc is not None and doc["state"] == {"x": 1}
        assert path.exists() and rejected == []
