"""The lean ``Query.view_signature`` against the validating constructor.

``view_signature`` builds its ``ViewSignature`` through the slots'
setters instead of the frozen constructor (whose checks the query's own
validation already made) and tests predicate endpoints by membership.
For generated queries and every subset of their streams it must give
what ``ViewSignature(...)`` gives from the same restriction: an equal
value with the same hash, the window normalized for single-stream
views, and the caller's own frozenset as ``sources``.
"""

from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.query.query import DEFAULT_WINDOW, JoinPredicate, Query, ViewSignature
from repro.query.stream import Filter

_STREAMS = "ABCDEF"


@st.composite
def queries(draw):
    names = draw(st.lists(st.sampled_from(_STREAMS), min_size=1, max_size=6, unique=True))
    selectivity = st.floats(0.001, 1.0)
    # A spanning tree keeps the join graph connected; a few chords more.
    preds = {}
    for index in range(1, len(names)):
        other = names[draw(st.integers(0, index - 1))]
        preds[frozenset((names[index], other))] = (names[index], other)
    for pair in draw(st.lists(st.sampled_from(list(combinations(names, 2)) or [None]))):
        if pair is not None:
            preds.setdefault(frozenset(pair), pair)
    predicates = [JoinPredicate(left, right, draw(selectivity)) for left, right in preds.values()]
    filters = [
        Filter(draw(st.sampled_from(names)), f"x > {serial}", draw(selectivity))
        for serial in range(draw(st.integers(0, 4)))
    ]
    window = draw(st.sampled_from([DEFAULT_WINDOW, 0.25, 2.0]))
    return Query("q", names, 0, draw(st.permutations(predicates)), filters, window=window)


def validated(query: Query, names: frozenset[str]) -> ViewSignature:
    """The signature as the public constructor builds it."""
    return ViewSignature(
        sources=names,
        predicates=frozenset(p for p in query.predicates if p.streams <= names),
        filters=frozenset(f for f in query.filters if f.stream in names),
        window=query.window,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(queries())
def test_every_subset_gives_the_constructors_signature(query):
    for size in range(1, len(query.sources) + 1):
        for subset in combinations(query.sources, size):
            names = frozenset(subset)
            lean, full = query.view_signature(names), validated(query, names)
            assert lean == full
            assert hash(lean) == hash(full)
            assert repr(lean) == repr(full)
            assert lean.sources is names
    whole = query.view_signature()
    assert whole == validated(query, frozenset(query.sources))


def test_a_single_stream_view_takes_the_default_window():
    query = Query(
        "q", "AB", 0, [JoinPredicate("A", "B", 0.1)], [Filter("A", "x > 0", 0.5)], window=3.0
    )
    single = query.view_signature("A")
    assert single.window == DEFAULT_WINDOW
    assert single == validated(query, frozenset("A"))
    assert hash(single) == hash(validated(query, frozenset("A")))
    assert query.view_signature("AB").window == 3.0


def test_a_view_outside_the_query_is_refused():
    query = Query("q", "AB", 0, [JoinPredicate("A", "B", 0.1)])
    with pytest.raises(ValueError, match="is not a subset of query sources"):
        query.view_signature("AC")
    with pytest.raises(ValueError, match="at least one stream"):
        query.view_signature(())
