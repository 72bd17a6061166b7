"""A tick retires from the expiry heap exactly what the old scan did.

``StreamQueryService`` keeps ``_expiry`` (name -> expiry, in insertion
order) for every reader, and beside it a heap of ``(expiry, seq, name)``
a tick pops its due entries from.  The scan it replaced,
``[n for n, e in _expiry.items() if e <= now]``, is the oracle here: a
derandomized hypothesis sequence of submits (equal, fractional and
``None`` lifetimes), ticks that jump over several expiries, early
retires, node failures (the failed-over query resubmitted with its
remaining lifetime) and capture / restore through JSON drives a service,
and before every tick the oracle runs on the same ``_expiry``.  After
every step the heap holds at most twice as many entries as ``_expiry``.
"""

import json
from collections import Counter

import hypothesis.strategies as st
from hypothesis import given, settings

import repro
from repro.commands import next_tick_time
from repro.durability.snapshot import splice_json
from repro.durability.state import FragmentMemo, capture_service, restore_service
from repro.perf.profiler import profiled

from tests.fleet.conftest import build_env, renamed

_LIFETIMES = (None, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0)


def build_service():
    """A pristine service on a fresh world (a node failure edits it)."""
    net, hierarchy, workload, rates = build_env()
    ads = repro.AdvertisementIndex(hierarchy)
    service = repro.StreamQueryService(
        repro.TopDownOptimizer(hierarchy, rates, ads=ads),
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=repro.AdmissionController(budget=6),
    )
    return service, list(workload)


def scan(service, now):
    """The retire list of the scan the heap replaced."""
    return [n for n, e in service._expiry.items() if e <= now]


def check_heap(service):
    heap, expiry, seqs = service._expiry_heap, service._expiry, service._expiry_seq
    assert len(heap) <= 2 * len(expiry)
    # One heap entry per live lifetime, and seq order is _expiry's order.
    assert {(e, seqs[n], n) for n, e in expiry.items()} <= set(heap)
    assert list(expiry) == sorted(expiry, key=seqs.__getitem__)


def failover_node(service, pool):
    """A node hosting an operator and neither a source nor a sink."""
    protected = {spec.source for spec in service.rates.streams.values()}
    protected |= {query.sink for query in pool}
    for deployment in service.engine.state.deployments:
        for node in deployment.operator_nodes.values():
            if node not in protected:
                return node
    return None


def checked_tick(service, seen, jump=None):
    """Tick (``jump`` ticks ahead, or one), holding the retire list to the
    scan's on the same ``_expiry``."""
    time = None if jump is None else service.clock + jump
    now = next_tick_time(service, time)
    expiries = dict(service._expiry)
    expected = scan(service, now)
    seqs = service._expiry_seq
    if any(e <= now and n in seqs and seqs[n] != s for e, s, n in service._expiry_heap):
        seen["stale entry of a live name"] += 1
    with profiled() as prof:
        report = service.tick(time)
    assert report.retired == expected
    examined = prof.ops["expiry_entries_examined"]
    assert examined >= len(expected)
    if examined > len(expected):
        seen["stale dropped"] += 1
    if expected != sorted(expected, key=expiries.__getitem__):
        seen["insertion order is not expiry order"] += 1
    if len(expected) > 1:
        seen["several due"] += 1
    return report


def run(steps, seen):
    service, pool = build_service()
    serial = failures = 0
    retired = []
    for step in steps:
        kind = step[0]
        if kind == "submit":
            shape = pool[step[1]]
            service.submit(renamed(shape, f"{shape.name}#{serial}"), lifetime=step[2])
            serial += 1
        elif kind == "tick":
            checked_tick(service, seen, step[1])
        elif kind == "retire":
            timed = [n for n in service.live_queries if n in service._expiry]
            if timed:
                name = timed[step[1] % len(timed)]
                retired.append(service.engine.state.deployment(name).query)
                service.retire(name)
                seen["early retire"] += 1
        elif kind == "resubmit":  # an early-retired name, back under its old name
            gone = [q for q in retired if not service.is_live(q.name)]
            if gone:
                query = gone[step[1] % len(gone)]
                if not service.admission.is_queued(query.name):
                    service.submit(query, lifetime=step[2])
        elif kind == "fail" and failures < 2:
            node = failover_node(service, pool)
            if node is not None:
                timed = set(service._expiry)
                report = service.handle_node_failure(node)
                failures += 1
                if set(report.resubmitted) & timed:
                    seen["failed over"] += 1
        elif kind == "restore":
            text = splice_json(capture_service(service, FragmentMemo()))
            service, _ = build_service()
            restore_service(service, json.loads(text))
            assert splice_json(capture_service(service, FragmentMemo())) == text
            seen["restored"] += 1
        check_heap(service)
    while service._expiry:  # drain: every lifetime ends on the oracle's tick
        checked_tick(service, seen)
        check_heap(service)
    assert service._expiry_heap == []


_SUBMIT = st.tuples(st.just("submit"), st.integers(0, 9), st.sampled_from(_LIFETIMES))
_TICK = st.tuples(st.just("tick"), st.sampled_from([None, None, 2.0, 3.5]))
_STEP = st.one_of(
    _SUBMIT, _SUBMIT, _SUBMIT, _TICK, _TICK,
    st.tuples(st.just("retire"), st.integers(0, 99)),
    st.tuples(st.just("resubmit"), st.integers(0, 99), st.sampled_from(_LIFETIMES)),
    st.tuples(st.just("fail")),
    st.tuples(st.just("restore")),
)
_SEEN: Counter = Counter()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_STEP, min_size=20, max_size=60))
def _sequence(steps):
    run(steps, _SEEN)


def test_the_heap_retires_what_the_scan_did_tick_by_tick():
    _SEEN.clear()
    _sequence()
    for transition in (
        "stale dropped", "stale entry of a live name",
        "insertion order is not expiry order", "several due",
        "early retire", "failed over", "restored",
    ):
            assert _SEEN[transition], (transition, _SEEN)


def test_a_jump_retires_in_insertion_order_not_expiry_order():
    service, pool = build_service()
    service.submit(renamed(pool[0], "late"), lifetime=3.0)
    service.submit(renamed(pool[1], "early"), lifetime=1.0)
    service.submit(renamed(pool[2], "late-too"), lifetime=3.0)
    assert checked_tick(service, Counter(), jump=3.5).retired == ["late", "early", "late-too"]


def test_a_resubmitted_name_retires_once_at_its_new_position():
    service, pool = build_service()
    service.submit(renamed(pool[0], "a"), lifetime=2.0)
    service.submit(renamed(pool[1], "b"), lifetime=2.0)
    service.retire("a")
    service.submit(renamed(pool[0], "a"), lifetime=2.0)  # same expiry, now after b
    assert len(service._expiry_heap) == 3  # the first "a" is stale, not yet dropped
    seen = Counter()
    assert checked_tick(service, seen, jump=2.0).retired == ["b", "a"]
    assert seen["stale dropped"] == 1 and service._expiry_heap == []


def test_a_heap_of_stale_entries_is_rebuilt_to_the_live_ones():
    service, pool = build_service()
    for serial in range(6):
        service.submit(renamed(pool[serial], f"q{serial}"), lifetime=5.0)
    for serial in range(4):
        service.retire(f"q{serial}")
        check_heap(service)
    assert sorted(n for _, _, n in service._expiry_heap) == ["q4", "q5"]


def test_restore_keeps_the_written_order_and_reads_the_old_dict_form():
    service, pool = build_service()
    for serial, name in enumerate(["zeta", "alpha", "mu"]):
        service.submit(renamed(pool[serial], name), lifetime=1.0)
    doc = json.loads(splice_json(capture_service(service, FragmentMemo())))
    assert doc["expiry"] == [["zeta", 1.0], ["alpha", 1.0], ["mu", 1.0]]
    twin, _ = build_service()
    restore_service(twin, doc)
    check_heap(twin)
    assert twin.tick().retired == ["zeta", "alpha", "mu"]
    # A snapshot from before the pairs wrote a dict, sorted by name on disk.
    doc["expiry"] = dict(sorted(doc["expiry"]))
    old, _ = build_service()
    restore_service(old, doc)
    check_heap(old)
    assert old.tick().retired == ["alpha", "mu", "zeta"]
