"""Continuous select-project-join queries and view signatures.

A :class:`Query` joins a set of base streams under a connected graph of
equi-join predicates, applies per-stream filters, and delivers results to
a *sink* node.  A :class:`ViewSignature` canonically identifies the
result of joining a subset of a query's streams (with the predicates and
filters restricted to that subset); two operators with equal signatures
compute identical derived streams, which is exactly the condition for
the paper's operator reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.query.stream import Filter


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate between two streams.

    Endpoints are normalized so that ``left < right`` lexicographically;
    the predicate is therefore order-insensitive and hashable, which
    makes signature comparison trivial.

    Attributes:
        left: First stream name (lexicographically smaller).
        right: Second stream name.
        selectivity: Join selectivity ``sigma`` in ``(0, 1]``: joining
            relations A and B produces ``sigma * rate(A) * rate(B)``
            output per unit time.
        left_attr: Join attribute on ``left`` (informational).
        right_attr: Join attribute on ``right`` (informational).
    """

    left: str
    right: str
    selectivity: float
    left_attr: str = ""
    right_attr: str = ""

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise ValueError(f"self-join predicate on {self.left!r}")
        if not (0.0 < self.selectivity <= 1.0):
            raise ValueError(f"join selectivity must be in (0, 1], got {self.selectivity}")
        if self.left > self.right:
            l, r, la, ra = self.right, self.left, self.right_attr, self.left_attr
            object.__setattr__(self, "left", l)
            object.__setattr__(self, "right", r)
            object.__setattr__(self, "left_attr", la)
            object.__setattr__(self, "right_attr", ra)

    @property
    def streams(self) -> frozenset[str]:
        """The two stream names the predicate connects."""
        return frozenset((self.left, self.right))


DEFAULT_WINDOW = 0.5
"""Default sliding-window length (time units) for stream joins.  At
``W = 1/2`` a symmetric hash join's expected output rate is exactly the
classical ``sigma * r_L * r_R`` (each arrival probes the opposite
window; the two sides contribute ``2 W sigma r_L r_R``)."""


@dataclass(frozen=True, slots=True)
class ViewSignature:
    """Canonical identity of a (sub)query result.

    Two deployed operators are interchangeable (one can be *reused* for
    the other) iff their signatures are equal: same base streams, same
    join predicates among them, same filters, same join window.  The
    paper notes reuse may require extra columns to be projected; we
    conservatively treat projections as part of post-processing and key
    reuse on the relational content only (see DESIGN.md, "Reuse
    identity").

    Attributes:
        sources: Base stream names the view joins.
        predicates: Join predicates among ``sources``.
        filters: Stream filters applied within the view.
        window: Sliding-window length its joins use (irrelevant for
            single-stream views, normalized to the default there).
    """

    sources: frozenset[str]
    predicates: frozenset[JoinPredicate]
    filters: frozenset[Filter]
    window: float = DEFAULT_WINDOW
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.sources:
            raise ValueError("a view must cover at least one stream")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if len(self.sources) == 1 and self.window != DEFAULT_WINDOW:
            # Windows only matter for joins; normalize single-stream
            # views so base streams always share one signature.
            object.__setattr__(self, "window", DEFAULT_WINDOW)
        for pred in self.predicates:
            if not pred.streams <= self.sources:
                raise ValueError(f"predicate {pred} references streams outside the view")
        for flt in self.filters:
            if flt.stream not in self.sources:
                raise ValueError(f"filter {flt} references a stream outside the view")
        # Signatures key every operator, advertisement and federation
        # dict; hash the four fields once (same value the generated
        # ``__hash__`` computed per lookup).
        object.__setattr__(
            self,
            "_hash",
            hash((self.sources, self.predicates, self.filters, self.window)),
        )

    def __hash__(self) -> int:
        return self._hash

    def label(self) -> str:
        """Compact human-readable label, e.g. ``"CHECK-INS*FLIGHTS"``."""
        return "*".join(sorted(self.sources))


# The slots' own setters: :meth:`Query.view_signature` fills a signature
# through them, skipping the frozen constructor and its re-validation.
_set_sources, _set_predicates, _set_filters, _set_window, _set_hash = (
    ViewSignature.__dict__[name].__set__
    for name in ("sources", "predicates", "filters", "window", "_hash")
)


class Query:
    """A continuous SPJ query over base streams, delivered to a sink node.

    Args:
        name: Unique query name.
        sources: Base stream names joined by the query (>= 1).
        sink: Physical node id where results are consumed.
        predicates: Equi-join predicates; their union must keep the
            query's *join graph* connected unless
            ``allow_cross_products`` is set (disconnected queries imply
            cross products, which the optimizers avoid by default).
        filters: Per-stream selection predicates.
        projection: Output column names (informational).
        allow_cross_products: Permit a disconnected join graph.
        window: Sliding-window length of the query's joins (time units);
            the default keeps the classical ``sigma * r_L * r_R`` rate
            semantics.
    """

    def __init__(
        self,
        name: str,
        sources: Iterable[str],
        sink: int,
        predicates: Iterable[JoinPredicate] = (),
        filters: Iterable[Filter] = (),
        projection: Iterable[str] = (),
        allow_cross_products: bool = False,
        window: float = DEFAULT_WINDOW,
    ) -> None:
        self.name = name
        self.sources: tuple[str, ...] = tuple(sources)
        self.sink = int(sink)
        self.predicates: tuple[JoinPredicate, ...] = tuple(predicates)
        self.filters: tuple[Filter, ...] = tuple(filters)
        self.projection: tuple[str, ...] = tuple(projection)
        self.allow_cross_products = allow_cross_products
        self.window = float(window)
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self.name:
            raise ValueError("query name must be non-empty")
        if not self.sources:
            raise ValueError(f"query {self.name!r} has no sources")
        if len(set(self.sources)) != len(self.sources):
            raise ValueError(f"query {self.name!r} lists a source twice")
        if self.sink < 0:
            raise ValueError(f"query {self.name!r} has invalid sink {self.sink}")
        if self.window <= 0:
            raise ValueError(f"query {self.name!r} has non-positive window {self.window}")
        src_set = set(self.sources)
        for pred in self.predicates:
            if not pred.streams <= src_set:
                raise ValueError(
                    f"query {self.name!r}: predicate {pred.left}~{pred.right} "
                    "references a stream not in FROM"
                )
        seen_pairs: set[frozenset[str]] = set()
        for pred in self.predicates:
            if pred.streams in seen_pairs:
                raise ValueError(
                    f"query {self.name!r}: duplicate predicate between "
                    f"{pred.left!r} and {pred.right!r}"
                )
            seen_pairs.add(pred.streams)
        for flt in self.filters:
            if flt.stream not in src_set:
                raise ValueError(
                    f"query {self.name!r}: filter on {flt.stream!r} not in FROM"
                )
        if not self.allow_cross_products and not self.is_join_connected():
            raise ValueError(
                f"query {self.name!r} has a disconnected join graph (would "
                "require a cross product); pass allow_cross_products=True "
                "to permit it"
            )

    # ------------------------------------------------------------------
    def renamed(self, name: str, sink: int | None = None) -> "Query":
        """The same query under another name (and sink, when given):
        a resubmission, or the twin that reuses this query's views."""
        return Query(
            name=name,
            sources=self.sources,
            sink=self.sink if sink is None else sink,
            predicates=self.predicates,
            filters=self.filters,
            projection=self.projection,
            allow_cross_products=self.allow_cross_products,
            window=self.window,
        )

    @property
    def num_joins(self) -> int:
        """Number of binary join operators any plan for this query has."""
        return len(self.sources) - 1

    def predicate_map(self) -> dict[frozenset[str], JoinPredicate]:
        """Map from stream-name pair to the predicate joining them."""
        return {pred.streams: pred for pred in self.predicates}

    def selectivity(self, a: str, b: str) -> float:
        """Selectivity between two streams (1.0 when no predicate)."""
        pred = self.predicate_map().get(frozenset((a, b)))
        return pred.selectivity if pred is not None else 1.0

    def filters_on(self, stream: str) -> tuple[Filter, ...]:
        """All filters applying to ``stream``."""
        return tuple(f for f in self.filters if f.stream == stream)

    def is_join_connected(self, subset: frozenset[str] | None = None) -> bool:
        """Whether the join graph restricted to ``subset`` is connected."""
        nodes = set(subset) if subset is not None else set(self.sources)
        if not nodes:
            return True
        adj: dict[str, set[str]] = {s: set() for s in nodes}
        for pred in self.predicates:
            if pred.left in nodes and pred.right in nodes:
                adj[pred.left].add(pred.right)
                adj[pred.right].add(pred.left)
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen == nodes

    def view_signature(self, subset: Iterable[str] | None = None) -> ViewSignature:
        """Canonical signature of the join over ``subset`` of this query.

        Restricting a query to a stream subset keeps exactly the
        predicates with both endpoints inside and the filters on member
        streams -- this is what a sub-plan of the query computes.
        """
        names = frozenset(subset) if subset is not None else frozenset(self.sources)
        if not names.issubset(self.sources):
            raise ValueError(f"{sorted(names)} is not a subset of query sources")
        if not names:
            raise ValueError("a view must cover at least one stream")
        # ``_validate`` proved what the public constructor would re-check.
        preds = frozenset([p for p in self.predicates if p.left in names and p.right in names])
        filts = frozenset([f for f in self.filters if f.stream in names])
        window = self.window if len(names) > 1 else DEFAULT_WINDOW  # joins only
        sig = object.__new__(ViewSignature)
        _set_sources(sig, names)
        _set_predicates(sig, preds)
        _set_filters(sig, filts)
        _set_window(sig, window)
        _set_hash(sig, hash((names, preds, filts, window)))
        return sig

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Query({self.name!r}, sources={self.sources}, sink={self.sink})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return (
            self.name == other.name
            and set(self.sources) == set(other.sources)
            and self.sink == other.sink
            and set(self.predicates) == set(other.predicates)
            and set(self.filters) == set(other.filters)
        )

    def __hash__(self) -> int:
        return hash((self.name, frozenset(self.sources), self.sink))
