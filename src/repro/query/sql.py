"""A small SQL parser for the paper's query style.

Parses queries shaped like the paper's Q1/Q2::

    SELECT FLIGHTS.STATUS, WEATHER.FORECAST
    FROM FLIGHTS, WEATHER, CHECK-INS
    WHERE FLIGHTS.DEPARTING = 'ATLANTA'
      AND FLIGHTS.DESTN = WEATHER.CITY
      AND FLIGHTS.NUM = CHECK-INS.FLNUM
      AND FLIGHTS.DP-TIME - CURRENT_TIME < 12:00

into a :class:`repro.query.Query`.  Conditions comparing two stream
attributes become join predicates; everything else becomes a filter on
the stream it references.  Selectivities are not part of SQL text, so
the caller provides them via ``join_selectivities`` /
``filter_selectivities`` maps (with defaults for anything unlisted).

A trailing ``WINDOW <seconds>`` clause sets the query's sliding join
window (e.g. ``... WHERE A.k = B.k WINDOW 2.0``); without it the
canonical window applies (or the ``window`` argument).

This is intentionally a subset of SQL: one SELECT, comma FROM list,
AND-separated WHERE conjuncts, no aggregation/union (the paper leaves
those to future work too).
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.query.query import JoinPredicate, Query
from repro.query.stream import Filter

DEFAULT_JOIN_SELECTIVITY = 0.01
DEFAULT_FILTER_SELECTIVITY = 0.5

# Identifiers may contain '-' (the paper uses CHECK-INS, DP-TIME).
_IDENT = r"[A-Za-z_][A-Za-z0-9_\-]*"
_QUALIFIED = rf"({_IDENT})\.({_IDENT})"


class SqlError(ValueError):
    """Raised for malformed or unsupported query text."""


def _strip(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split on a bare keyword/limit separator outside quotes."""
    parts: list[str] = []
    depth_quote = False
    cur: list[str] = []
    tokens = re.split(rf"(\s{sep}\s|')", f" {text} ", flags=re.IGNORECASE)
    for tok in tokens:
        if tok == "'":
            depth_quote = not depth_quote
            cur.append(tok)
        elif not depth_quote and tok.strip().upper() == sep.upper():
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(tok)
    parts.append("".join(cur).strip())
    return [p for p in parts if p]


def parse_query(
    sql: str,
    name: str,
    sink: int,
    join_selectivities: Mapping[frozenset[str], float] | None = None,
    filter_selectivities: Mapping[str, float] | None = None,
) -> Query:
    """Parse SQL text into a :class:`Query`.

    Args:
        sql: The query text (``SELECT ... FROM ... [WHERE ...]
            [WINDOW w]``; ``WINDOW`` sets the joins' sliding window).
        name: Name to give the query.
        sink: Physical node the results stream to.
        join_selectivities: Optional map ``frozenset({a, b}) ->
            selectivity`` for join predicates between streams ``a`` and
            ``b``; defaults to :data:`DEFAULT_JOIN_SELECTIVITY`.
        filter_selectivities: Optional map from the *normalized filter
            text* (see :func:`normalize_condition`) to its selectivity;
            defaults to :data:`DEFAULT_FILTER_SELECTIVITY`.

    Raises:
        SqlError: On malformed text, unknown streams in conditions, or
            unsupported constructs.
    """
    text = _strip(sql)
    window = None
    window_match = re.search(r"(?i)\s+WINDOW\s+([0-9]*\.?[0-9]+)\s*$", text)
    if window_match:
        window = float(window_match.group(1))
        if window <= 0:
            raise SqlError("WINDOW must be positive")
        text = text[: window_match.start()].strip()
    match = re.match(
        r"(?is)^SELECT\s+(?P<select>.*?)\s+FROM\s+(?P<from>.*?)(?:\s+WHERE\s+(?P<where>.*))?$",
        text,
    )
    if not match:
        raise SqlError("expected 'SELECT ... FROM ... [WHERE ...]'")
    select_part = match.group("select").strip()
    from_part = match.group("from").strip()
    where_part = (match.group("where") or "").strip()

    projection = tuple(col.strip() for col in select_part.split(",") if col.strip())
    if not projection:
        raise SqlError("empty SELECT list")

    sources = tuple(s.strip() for s in from_part.split(",") if s.strip())
    if not sources:
        raise SqlError("empty FROM list")
    for src in sources:
        if not re.fullmatch(_IDENT, src):
            raise SqlError(f"invalid stream name {src!r} in FROM")
    source_set = set(sources)

    join_sel = dict(join_selectivities or {})
    filt_sel = dict(filter_selectivities or {})

    predicates: list[JoinPredicate] = []
    filters: list[Filter] = []
    if where_part:
        for conjunct in _split_top_level(where_part, "AND"):
            _parse_condition(
                conjunct, source_set, predicates, filters, join_sel, filt_sel
            )

    kwargs = {} if window is None else {"window": window}
    return Query(
        name=name,
        sources=sources,
        sink=sink,
        predicates=predicates,
        filters=filters,
        projection=projection,
        **kwargs,
    )


def normalize_condition(text: str) -> str:
    """Canonical single-spaced uppercase-keyword form of a condition."""
    return _strip(text)


def _parse_condition(
    text: str,
    sources: set[str],
    predicates: list[JoinPredicate],
    filters: list[Filter],
    join_sel: Mapping[frozenset[str], float],
    filt_sel: Mapping[str, float],
) -> None:
    cond = normalize_condition(text)
    if not cond:
        raise SqlError("empty condition in WHERE")

    # Equi-join: STREAM.ATTR = STREAM.ATTR (both streams in FROM).
    join_match = re.fullmatch(rf"{_QUALIFIED}\s*=\s*{_QUALIFIED}", cond)
    if join_match:
        ls, la, rs, ra = join_match.groups()
        if ls in sources and rs in sources:
            if ls == rs:
                raise SqlError(f"self-join condition not supported: {cond!r}")
            sel = join_sel.get(frozenset((ls, rs)), DEFAULT_JOIN_SELECTIVITY)
            predicates.append(
                JoinPredicate(left=ls, right=rs, selectivity=sel, left_attr=la, right_attr=ra)
            )
            return
        unknown = {ls, rs} - sources
        raise SqlError(f"condition {cond!r} references unknown stream(s) {sorted(unknown)}")

    # Otherwise: a filter. It must reference exactly one stream from FROM.
    referenced = {s for s, _ in re.findall(_QUALIFIED, cond) if s in sources}
    mentioned = {s for s, _ in re.findall(_QUALIFIED, cond)}
    unknown = mentioned - sources
    # Qualified names like CURRENT.TIME don't occur; bare keywords
    # (CURRENT_TIME, literals) are fine. Unknown qualified streams are not.
    if unknown:
        raise SqlError(f"condition {cond!r} references unknown stream(s) {sorted(unknown)}")
    if len(referenced) == 0:
        raise SqlError(f"condition {cond!r} references no stream from FROM")
    if len(referenced) > 1:
        raise SqlError(
            f"non-equi-join multi-stream condition not supported: {cond!r}"
        )
    stream = referenced.pop()
    sel = filt_sel.get(cond, DEFAULT_FILTER_SELECTIVITY)
    filters.append(Filter(stream=stream, predicate=cond, selectivity=sel))
