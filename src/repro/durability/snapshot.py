"""Snapshot files: ``repro.state`` envelopes keyed by journal LSN.

A snapshot captures the complete control-plane state *as of* journal
record ``lsn`` -- recovery restores the newest valid snapshot and
re-executes only the command records with larger LSNs.  Files are named
``snapshot-<lsn, zero-padded>.json`` so a lexicographic directory sort
is also an LSN sort, written atomically (temp file + rename) so a crash
can never leave a half-written file under the final name -- except when
a seeded ``mid_snapshot`` crash point deliberately does exactly that,
which is how the torn-snapshot recovery path stays tested.

The envelope carries a CRC-32 of its own bytes (``{"crc":N,`` left out,
:func:`~repro.durability.journal.line_crc`) and is written as compact
canonical JSON (sorted keys, no whitespace; pretty-print one with
``python -m json.tool``); :func:`load_latest` validates candidates
newest-first and falls back to older snapshots, reporting every file it
had to skip.

The state handed to :meth:`SnapshotWriter.write` may hold
:class:`Fragment` values -- canonical JSON text the capture kept
(:mod:`repro.durability.state`) -- which go in as they are
(:func:`splice_json`).  A fragment at least :data:`MIN_REFERENCED` long
that names its ``place`` in the document is a *section*: where a
snapshot still on disk holds its text inline, the file holds
``{"$ref": {"at": place, "crc": <that snapshot's CRC>, "lsn": <that
snapshot's>}}`` instead: the reference pins the whole file it was
written against, so neither side encodes or CRCs section text again.
A file with no reference is byte for byte ``canonical_json`` of the
state; :func:`load_latest` puts referenced text back, so it returns
that state either way.
"""

from __future__ import annotations

import functools
import json
import re
import zlib
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any

from repro.durability.journal import SimulatedCrash, canonical_json, line_crc

SNAPSHOT_KIND = "repro.state"
SNAPSHOT_VERSION = 1
SNAPSHOT_GLOB = "snapshot-*.json"
#: Snapshots kept on disk, with the files they refer to; older ones are
#: pruned after each write.  Two, so a torn newest snapshot still leaves
#: a valid fallback.
RETAIN_SNAPSHOTS = 2
#: A placed fragment shorter than this is always written inline: its
#: reference would save little and cost the loader a lookup.
MIN_REFERENCED = 1024

_NAME = re.compile(r"snapshot-(\d+)\.json(\.tmp)?")
#: A reference as the writer writes it; group 1 is the LSN it names.
_REFERENCE = re.compile(rb'\{"\$ref":\{"at":\[[^\]]*\],"crc":\d+,"lsn":(\d+)\}\}')


class Fragment:
    """Canonical JSON text of one value, spliced into a document as is;
    ``place`` is its path from the envelope when it is a section."""

    __slots__ = ("text", "place")

    def __init__(self, text: str) -> None:
        self.text = text
        self.place: tuple | None = None


def splice_json(doc: Any) -> str:
    """:func:`canonical_json` of ``doc`` with its fragments emitted raw."""
    return "".join(_splice(doc))


def _splice(doc: Any, text_of=None) -> list[str]:
    """:func:`splice_json` in parts: plain text and fragment text in turn.

    The C encoder writes the document once with a placeholder in each
    fragment's place, and the text is cut around the placeholders: no
    plain value is encoded twice or walked in Python (only the keys of
    the dicts a fragment sits in are read, once per dict: they must be
    str).  The
    placeholder is a private-use character (``"\\ue000"`` in the text);
    a document that holds it itself is written again with one it does not.
    ``text_of(fragment)``, if given, is the text put in a fragment's place.
    """
    # The containers the encoder is in (its circular-reference check):
    # when it meets a fragment, that fragment's ancestors.
    inside: dict[int, Any] = {}
    # The containers whose keys were read; the document holds them all
    # alive, so an id is not reused while the splice runs.
    checked: set[int] = set()
    texts: list[str] = []
    hole = 0xE000

    def fill(value: Any) -> str:
        if type(value) is not Fragment:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        for key in inside.keys() - checked:
            checked.add(key)
            c = inside[key]
            if type(c) is dict and any(type(k) is not str for k in c):
                raise TypeError("a fragment sits in a dict with a non-str key")
        texts.append(value.text if text_of is None else text_of(value))
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


class SnapshotWriter:
    """The snapshot files of one directory, as one writer knows them.

    Made once per bound durability layer, when it lists the directory:
    it removes the temp files a crash between write and rename left and
    reads which snapshots each file refers to.  After that it keeps
    ``_files`` (lsn -> the snapshots it refers to) from what it writes,
    ``_crcs`` (lsn -> CRC) of the files it wrote, and ``_held``: place ->
    ``[text, lsn of the file holding it inline, the reference to it, made
    when first needed]``.  ``_held`` starts empty, so the writer refers
    only to files it wrote, whose CRCs it took.
    """

    def __init__(self, state_dir: str | Path) -> None:
        self.state_dir = Path(state_dir)
        self._files: dict[int, set[int]] = {}
        self._crcs: dict[int, int] = {}
        self._held: dict[tuple, list] = {}
        for path in self.state_dir.iterdir() if self.state_dir.is_dir() else ():
            name = _NAME.fullmatch(path.name)
            if name is not None and name[2]:
                path.unlink()
            elif name is not None:
                self._files[int(name[1])] = set(map(int, _REFERENCE.findall(path.read_bytes())))

    def write(
        self, lsn: int, scope: str, state: Any, time: float = 0.0, journal=None
    ) -> tuple[Path, int]:
        """Write one snapshot atomically and prune; ``(path, bytes)``.
        What the writer knows changes only once the file has landed.

        When ``journal`` is given and an armed ``mid_snapshot`` crash
        point is due, the write is torn on purpose: a truncated envelope
        lands at the *final* path (simulating a non-atomic writer dying
        mid-file) and :class:`SimulatedCrash` is raised.
        """
        held: dict[tuple, list] = {}  # this file's: place -> self._held's entry

        def text_of(fragment: Fragment) -> str:
            text, place = fragment.text, fragment.place
            if place is None or len(text) < MIN_REFERENCED:
                return text
            entry = self._held.get(place)
            if entry is None or not (entry[0] is text or entry[0] == text):
                held[place] = [text, lsn, None]
                return text
            if entry[2] is None:
                crc = self._crcs[entry[1]]
                entry[2] = canonical_json({"$ref": {"at": place, "crc": crc, "lsn": entry[1]}})
            held[place] = entry
            return entry[2]

        self.state_dir.mkdir(parents=True, exist_ok=True)
        # The canonical form the CRC is defined over is also the file body,
        # with the ``crc`` member in front: it stays a list of parts, and
        # the CRC runs over them on their way to the file.
        envelope = {"kind": SNAPSHOT_KIND, "version": SNAPSHOT_VERSION, "lsn": lsn,
                    "scope": scope, "time": time, "state": state}
        parts = _splice(envelope, text_of)
        chunks = [part.encode("utf-8") for part in parts]
        crc = 0
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
        chunks[0] = b'{"crc":%d,' % crc + chunks[0][1:]
        chunks.append(b"\n")
        path = snapshot_path(self.state_dir, lsn)
        if journal is not None and journal.pending_snapshot_crash() is not None:
            torn = b"".join(chunks)
            path.write_bytes(torn[: len(torn) // 2])
            raise SimulatedCrash(f"crash point fired mid-snapshot at lsn={lsn}")
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as out:
            out.writelines(chunks)
        tmp.replace(path)
        self._held = held
        self._crcs[lsn] = crc
        self._files[lsn] = {entry[1] for entry in held.values()} - {lsn}
        self._prune()
        return path, sum(map(len, chunks))

    def _prune(self) -> None:
        newest = sorted(self._files)[-RETAIN_SNAPSHOTS:]
        keep = set(newest).union(*(self._files[lsn] for lsn in newest))
        for lsn in sorted(self._files.keys() - keep):
            snapshot_path(self.state_dir, lsn).unlink(missing_ok=True)
            del self._files[lsn]
            self._crcs.pop(lsn, None)


def list_snapshots(state_dir: str | Path) -> list[dict[str, Any]]:
    """Validity report for every snapshot file, oldest first.

    Each entry has ``file``, ``valid`` and either ``lsn``/``scope`` (for
    valid snapshots) or ``reason`` (for rejects).
    """
    return _listing(_paths(state_dir), _loader())


def snapshot_inventory(
    state_dir: str | Path,
) -> tuple[dict[str, Any] | None, list[dict[str, Any]], list[dict[str, Any]]]:
    """:func:`load_latest` and :func:`list_snapshots` of ``state_dir``
    together, reading, parsing and checking each file once."""
    paths, load = _paths(state_dir), _loader()
    doc, rejected = _latest(paths, load)
    return doc, rejected, _listing(paths, load)


def _paths(state_dir: str | Path) -> list[Path]:
    return sorted(Path(state_dir).glob(SNAPSHOT_GLOB))


def _loader():
    """:func:`_load_one` per file, cached over one shared, cached
    :func:`_parse`: a file is loaded, and parsed, at most once."""
    parse = functools.cache(_parse)
    return functools.cache(lambda path: _load_one(path, parse))


def _listing(paths: list[Path], load) -> list[dict[str, Any]]:
    out: list[dict[str, Any]] = []
    for path in paths:
        doc, reason = load(path)
        found = {"reason": reason} if doc is None else {k: doc[k] for k in ("lsn", "scope", "time")}
        out.append({"file": path.name, "valid": doc is not None, **found})
    return out


def _parse(path: Path) -> tuple[Any, list[dict], str]:
    """``path`` as written: the envelope, its references (unresolved)
    and why it is invalid, if it is."""
    refs: list[dict] = []

    def hook(obj: dict) -> dict:
        # Only the shape the writer writes is a reference; any other
        # ``{"$ref": ...}`` is data (a query may be named ``$ref``).
        ref = obj.get("$ref") if len(obj) == 1 else None
        if type(ref) is dict and ref.keys() == {"at", "crc", "lsn"} and type(ref["at"]) is list:
            refs.append(obj)
        return obj

    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None, refs, "missing"
    try:
        doc = json.loads(raw, object_hook=hook if b'"$ref"' in raw else None)
    except ValueError:
        return None, refs, "not valid JSON (truncated write)"
    if not isinstance(doc, dict) or doc.get("kind") != SNAPSHOT_KIND:
        return None, refs, f"not a {SNAPSHOT_KIND} envelope"
    if doc.get("version") != SNAPSHOT_VERSION:
        return None, refs, f"unsupported snapshot version {doc.get('version')!r}"
    if line_crc(raw.removesuffix(b"\n")) != doc.get("crc"):
        return None, refs, "CRC mismatch"
    return doc, refs, ""


def _load_one(path: Path, parse) -> tuple[dict[str, Any] | None, str]:
    """``path``'s envelope with every reference replaced by the section it
    names, or why it cannot be: a reference to a snapshot that is missing,
    invalid or not the file it was written against (another CRC) fails
    the file.  ``parse`` is :func:`_parse`, cached: each file is parsed
    and checked once, and no section is encoded again."""
    doc, refs, reason = parse(path)
    if doc is None:
        return None, reason
    for ref in refs:
        try:
            at, lsn, crc = (ref["$ref"][key] for key in ("at", "lsn", "crc"))
            base_path = snapshot_path(path.parent, lsn)
            base, _, why = parse(base_path)
            if base is None:
                return None, f"refers to {base_path.name}: {why}"
            if base["crc"] != crc:
                return None, f"refers to {base_path.name}: not the file it was written against"
            section, holder = base, doc
            for key in at[:-1]:
                section, holder = section[key], holder[key]
            section = section[at[-1]]
            if holder[at[-1]] is not ref:
                return None, "a reference out of its place"
        except (LookupError, TypeError, ValueError):
            return None, "a reference out of its place"
        holder[at[-1]] = section
    return doc, ""


def load_latest(
    state_dir: str | Path,
) -> tuple[dict[str, Any] | None, list[dict[str, Any]]]:
    """Newest valid snapshot envelope plus the list of rejected files.

    Candidates are tried newest-first, references resolved; a truncated
    or corrupt file, or one whose reference does not resolve, is
    recorded in the second return value and the search falls back to
    the next-older snapshot.  Each file is parsed and checked once.
    Returns ``(None, rejects)`` when no valid snapshot exists (recovery
    then replays the journal from LSN 0).
    """
    return _latest(_paths(state_dir), _loader())


def _latest(paths: list[Path], load) -> tuple[dict[str, Any] | None, list[dict[str, Any]]]:
    rejected: list[dict[str, Any]] = []
    for path in reversed(paths):
        doc, reason = load(path)
        if doc is not None:
            return doc, rejected
        rejected.append({"file": path.name, "reason": reason})
    return None, rejected
