"""Snapshot files: full ``repro.state`` envelopes keyed by journal LSN.

A snapshot captures the complete control-plane state *as of* journal
record ``lsn`` -- recovery restores the newest valid snapshot and
re-executes only the command records with larger LSNs.  Files are named
``snapshot-<lsn, zero-padded>.json`` so a lexicographic directory sort
is also an LSN sort, written atomically (temp file + rename) so a crash
can never leave a half-written file under the final name -- except when
a seeded ``mid_snapshot`` crash point deliberately does exactly that,
which is how the torn-snapshot recovery path stays tested.

The envelope carries a whole-document CRC-32 and is written as compact
canonical JSON (sorted keys, no whitespace; pretty-print one with
``python -m json.tool``); :func:`load_latest` validates candidates
newest-first and falls back to older snapshots, reporting every file it
had to skip.

The state handed to :func:`write_snapshot` may hold :class:`Fragment`
values -- canonical JSON text the capture made at an earlier snapshot
and kept (:mod:`repro.durability.state`).  They go into the envelope as
they are, as :func:`splice_json` puts them, so the file is byte for
byte what ``canonical_json`` would have written for the same state as
plain values.  The C encoder writes everything else in one pass; the
envelope is never joined into one body: its parts (the text between
fragments, and the fragments) are run through the CRC and written in
one ``writelines``.
"""

from __future__ import annotations

import json
import zlib
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any

from repro.durability.journal import SimulatedCrash, canonical_json

SNAPSHOT_KIND = "repro.state"
SNAPSHOT_VERSION = 1
SNAPSHOT_GLOB = "snapshot-*.json"
#: Snapshots kept on disk; older ones are pruned after each write.  Two,
#: so a torn newest snapshot still leaves a valid fallback.
RETAIN_SNAPSHOTS = 2


class Fragment:
    """Canonical JSON text of one value, spliced into a document as is."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def splice_json(doc: Any) -> str:
    """:func:`canonical_json` of ``doc`` with its fragments emitted raw."""
    return "".join(_splice(doc))


def _splice(doc: Any) -> list[str]:
    """:func:`splice_json` in parts: plain text and fragment text in turn.

    The C encoder writes the document once with a placeholder in each
    fragment's place, and the text is cut around the placeholders: no
    plain value is encoded twice or walked in Python (only the keys of
    the dicts a fragment sits in are read: they must be str).  The
    placeholder is a private-use character (``"\\ue000"`` in the text);
    a document that holds it itself is written again with one it does not.
    """
    # The containers the encoder is in (its circular-reference check):
    # when it meets a fragment, that fragment's ancestors.
    inside: dict[int, Any] = {}
    texts: list[str] = []
    hole = 0xE000

    def fill(value: Any) -> str:
        if type(value) is not Fragment:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if any(type(c) is dict and any(type(k) is not str for k in c) for c in inside.values()):
            raise TypeError("a fragment sits in a dict with a non-str key")
        texts.append(value.text)
        return chr(hole)

    encode = c_make_encoder(
        inside, fill, encode_basestring_ascii, None, ":", ",", True, False, True
    )
    body = "".join(encode(doc, 0))
    while body.count("\\u%04x" % hole) != len(texts):
        hole = next(c for c in range(hole + 1, 0x10000) if "\\u%04x" % c not in body)
        texts.clear()
        body = "".join(encode(doc, 0))
    plain = body.split('"\\u%04x"' % hole)
    parts = plain + texts
    parts[::2], parts[1::2] = plain, texts
    return parts


def snapshot_path(state_dir: str | Path, lsn: int) -> Path:
    """The canonical file path for the snapshot taken at ``lsn``."""
    return Path(state_dir) / f"snapshot-{lsn:012d}.json"


def snapshot_crc(doc: dict[str, Any]) -> int:
    """CRC-32 over the canonical JSON of the envelope minus ``crc``."""
    payload = {k: v for k, v in doc.items() if k != "crc"}
    return zlib.crc32(canonical_json(payload).encode("utf-8"))


def write_snapshot(
    state_dir: str | Path,
    lsn: int,
    scope: str,
    state: Any,
    time: float = 0.0,
    retain: int = RETAIN_SNAPSHOTS,
    journal=None,
) -> Path:
    """Write one snapshot atomically; prune old ones down to ``retain``.

    When ``journal`` is given and an armed ``mid_snapshot`` crash point
    is due, the write is torn on purpose: a truncated envelope lands at
    the *final* path (simulating a non-atomic writer dying mid-file)
    and :class:`SimulatedCrash` is raised.
    """
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    # The canonical form the CRC is defined over is also the file body,
    # with the ``crc`` member in front: it stays a list of parts, and
    # the CRC runs over them on their way to the file.
    parts = _splice(
        {
            "kind": SNAPSHOT_KIND,
            "version": SNAPSHOT_VERSION,
            "lsn": lsn,
            "scope": scope,
            "time": time,
            "state": state,
        }
    )
    chunks = [part.encode("utf-8") for part in parts]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    chunks[0] = b'{"crc":%d,' % crc + chunks[0][1:]
    chunks.append(b"\n")
    path = snapshot_path(state_dir, lsn)
    if journal is not None:
        point = journal.pending_snapshot_crash()
        if point is not None:
            torn = b"".join(chunks)
            path.write_bytes(torn[: len(torn) // 2])
            raise SimulatedCrash(
                f"crash point fired mid-snapshot at lsn={lsn}"
            )
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as out:
        out.writelines(chunks)
    tmp.replace(path)
    _prune(state_dir, retain)
    return path


def _prune(state_dir: Path, retain: int) -> None:
    if retain < 1:
        retain = 1
    snapshots = sorted(state_dir.glob(SNAPSHOT_GLOB))
    for stale in snapshots[:-retain]:
        stale.unlink()
    # A crash between write and rename leaves its temp file behind; the
    # snapshot that just landed makes it garbage.
    for orphan in state_dir.glob(SNAPSHOT_GLOB + ".tmp"):
        orphan.unlink()


def list_snapshots(state_dir: str | Path) -> list[dict[str, Any]]:
    """Validity report for every snapshot file, oldest first.

    Each entry has ``file``, ``valid`` and either ``lsn``/``scope`` (for
    valid snapshots) or ``reason`` (for rejects).
    """
    out: list[dict[str, Any]] = []
    for path in sorted(Path(state_dir).glob(SNAPSHOT_GLOB)):
        doc, reason = _load_one(path)
        if doc is None:
            out.append({"file": path.name, "valid": False, "reason": reason})
        else:
            out.append(
                {
                    "file": path.name,
                    "valid": True,
                    "lsn": doc["lsn"],
                    "scope": doc["scope"],
                    "time": doc["time"],
                }
            )
    return out


def _load_one(path: Path) -> tuple[dict[str, Any] | None, str]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        return None, "not valid JSON (truncated write)"
    if not isinstance(doc, dict) or doc.get("kind") != SNAPSHOT_KIND:
        return None, f"not a {SNAPSHOT_KIND} envelope"
    if doc.get("version") != SNAPSHOT_VERSION:
        return None, f"unsupported snapshot version {doc.get('version')!r}"
    if snapshot_crc(doc) != doc.get("crc"):
        return None, "CRC mismatch"
    return doc, ""


def load_latest(
    state_dir: str | Path,
) -> tuple[dict[str, Any] | None, list[dict[str, Any]]]:
    """Newest valid snapshot envelope plus the list of rejected files.

    Candidates are tried newest-first; a truncated or corrupt file is
    recorded in the second return value and the search falls back to
    the next-older snapshot.  Returns ``(None, rejects)`` when no valid
    snapshot exists (recovery then replays the journal from LSN 0).
    """
    rejected: list[dict[str, Any]] = []
    for path in sorted(Path(state_dir).glob(SNAPSHOT_GLOB), reverse=True):
        doc, reason = _load_one(path)
        if doc is not None:
            return doc, rejected
        rejected.append({"file": path.name, "reason": reason})
    return None, rejected
