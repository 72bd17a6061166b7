"""Tuple-level data plane: windowed symmetric hash joins on the simulator.

The paper assumes "stream joins are performed using standard techniques
(e.g. doubly-pipelined operators and windows if necessary)" and builds
its cost model on *expected* rates (``rate = sigma * r_A * r_B``).  This
module closes the loop: it instantiates a planned deployment as actual
tuple-processing actors on the discrete-event simulator --

* sources emit tuples whose join-attribute values are uniform over a
  key domain of size ``round(1/selectivity)``, so the *expected* match
  probability per predicate equals the configured selectivity;
* join operators are symmetric hash joins over a sliding time window;
  with the default half-unit window the expected steady-state output
  rate is exactly the rate model's ``sigma_eff * r_L * r_R`` (each
  arrival probes the opposite window of expected size ``r * W``, and
  the two sides sum to ``2 W sigma r_L r_R = sigma r_L r_R`` at
  ``W = 1/2``);
* the sink collects tuples and end-to-end latencies.

Running a deployment therefore yields *measured* flow rates that can be
checked against the planner's analytic rates -- the rate-model
validation the paper takes on faith.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
import numpy as np

from repro.core.cost import RateModel
from repro.network.graph import Network
from repro.query.deployment import Deployment
from repro.query.plan import PlanNode
from repro.runtime.simulator import SimNode, Simulator
from repro.utils import SeedLike, as_generator

DEFAULT_WINDOW = 0.5
"""Join window (time units) for which the expected output rate matches
the analytic model ``sigma * r_L * r_R`` exactly."""

#: Multiplier on stream rates (scales tuple volume without touching the
#: workload definition).
RATE_SCALE = 1.0


@dataclass(frozen=True)
class StreamTuple:
    """One data tuple flowing through the plane.

    Attributes:
        attrs: predicate-id -> join-key value (merged across joins).
        born: Emission time of the *youngest* contributing base tuple
            (drives end-to-end latency measurements).
    """

    attrs: tuple[tuple[str, int], ...]
    born: float

    def merged(self, other: "StreamTuple") -> "StreamTuple":
        """Concatenation of two matching tuples."""
        return StreamTuple(
            attrs=tuple(sorted(set(self.attrs) | set(other.attrs))),
            born=max(self.born, other.born),
        )

    def value(self, pred_id: str) -> int | None:
        for key, val in self.attrs:
            if key == pred_id:
                return val
        return None


@dataclass
class ComponentStats:
    """Measured counters for one data-plane component."""

    label: str
    node: int
    received: int = 0
    emitted: int = 0


@dataclass
class DataPlaneReport:
    """Outcome of a data-plane run.

    Attributes:
        duration: Simulated time.
        components: Per-component counters (sources, joins, sink).
        sink_tuples: Tuples delivered to the sink.
        mean_latency: Mean end-to-end tuple latency (seconds), ``nan``
            if nothing arrived.
        measured_rates: view label -> measured output rate (tuples/time).
        predicted_rates: view label -> the rate model's prediction.
    """

    duration: float
    components: list[ComponentStats]
    sink_tuples: int
    mean_latency: float
    measured_rates: dict[str, float]
    predicted_rates: dict[str, float]


class _Envelope:
    """Routing wrapper: (component id at destination node, tuple)."""

    __slots__ = ("component", "payload")

    def __init__(self, component: str, payload: StreamTuple) -> None:
        self.component = component
        self.payload = payload


class _HostActor(SimNode):
    """One actor per physical node, multiplexing hosted components."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.components: dict[str, "_Component"] = {}

    def on_message(self, src: int, message) -> None:
        assert isinstance(message, _Envelope)
        component = self.components.get(message.component)
        if component is None:  # pragma: no cover - defensive
            raise KeyError(f"node {self.node_id} hosts no component {message.component}")
        component.receive(message.payload)


class _Component:
    """Base for data-plane components bound to a host actor."""

    def __init__(self, comp_id: str, host: _HostActor, stats: ComponentStats) -> None:
        self.comp_id = comp_id
        self.host = host
        self.stats = stats
        self.subscribers: list[tuple[int, str]] = []  # (node, component id)

    def emit(self, tup: StreamTuple) -> None:
        self.stats.emitted += 1
        for node, comp in self.subscribers:
            self.host.send(node, _Envelope(comp, tup))

    def receive(self, tup: StreamTuple) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class _Source(_Component):
    """Base-stream source emitting Poisson arrivals with uniform keys."""

    def __init__(self, comp_id, host, stats, rate, attr_domains, rng, survive_prob=1.0):
        super().__init__(comp_id, host, stats)
        self.rate = rate
        self.attr_domains = attr_domains  # pred_id -> domain size
        self.rng = rng
        self.survive_prob = survive_prob  # product of filter selectivities

    def start(self, sim: Simulator, until: float) -> None:
        self._until = until
        self._schedule_next(sim)

    def _schedule_next(self, sim: Simulator) -> None:
        gap = float(self.rng.exponential(1.0 / self.rate))
        when = sim.now + gap
        if when > self._until:
            return
        def fire() -> None:
            self._emit_one(sim)
            self._schedule_next(sim)
        sim.schedule(gap, fire)

    def _emit_one(self, sim: Simulator) -> None:
        self.stats.received += 1  # tuples generated
        if self.survive_prob < 1.0 and self.rng.random() >= self.survive_prob:
            return  # dropped by the source-side filter
        attrs = tuple(
            (pred, int(self.rng.integers(0, domain)))
            for pred, domain in sorted(self.attr_domains.items())
        )
        self.emit(StreamTuple(attrs=attrs, born=sim.now))


class _HashJoin(_Component):
    """Symmetric hash join over sliding time windows."""

    def __init__(self, comp_id, host, stats, left_views, right_views, pred_ids, window, clock):
        super().__init__(comp_id, host, stats)
        self.left_views = left_views     # frozenset of base streams per side
        self.right_views = right_views
        self.pred_ids = pred_ids         # predicates crossing the split
        self.window = window
        self.clock = clock               # callable -> sim.now
        self._left: deque[tuple[float, StreamTuple]] = deque()
        self._right: deque[tuple[float, StreamTuple]] = deque()
        self._sides: dict[str, str] = {}  # producer comp id -> "L"/"R"

    def bind_side(self, producer_comp: str, side: str) -> None:
        self._sides[producer_comp] = side

    def receive_from(self, producer_comp: str, tup: StreamTuple) -> None:
        self.stats.received += 1
        now = self.clock()
        side = self._sides[producer_comp]
        mine, other = (self._left, self._right) if side == "L" else (self._right, self._left)
        horizon = now - self.window
        for store in (self._left, self._right):
            while store and store[0][0] < horizon:
                store.popleft()
        for _, candidate in other:
            if self._matches(tup, candidate):
                self.emit(tup.merged(candidate))
        mine.append((now, tup))

    def receive(self, tup: StreamTuple) -> None:  # pragma: no cover
        raise RuntimeError("hash joins receive via receive_from")

    def _matches(self, a: StreamTuple, b: StreamTuple) -> bool:
        for pred in self.pred_ids:
            va, vb = a.value(pred), b.value(pred)
            if va is None or vb is None or va != vb:
                return False
        return True


class _JoinInbox(_Component):
    """Adapter giving each join input its own component id (side routing)."""

    def __init__(self, comp_id, host, stats, join: _HashJoin, producer_comp: str):
        super().__init__(comp_id, host, stats)
        self.join = join
        self.producer_comp = producer_comp

    def receive(self, tup: StreamTuple) -> None:
        self.join.receive_from(self.producer_comp, tup)


class _SinkCollector(_Component):
    def __init__(self, comp_id, host, stats, clock):
        super().__init__(comp_id, host, stats)
        self.clock = clock
        self.latencies: list[float] = []

    def receive(self, tup: StreamTuple) -> None:
        self.stats.received += 1
        self.latencies.append(self.clock() - tup.born)


def run_dataplane(
    network: Network,
    deployment: Deployment,
    rates: RateModel,
    duration: float = 50.0,
    seed: SeedLike = 0,
) -> DataPlaneReport:
    """Execute one deployment at tuple level; measure actual rates.

    Args:
        network: Physical network (message delays).
        deployment: A planned deployment.  Reused-view leaves are not
            supported (run the providing deployment instead).
        rates: Rate model (provides stream rates and predictions).
        duration: Simulated time units.
        seed: RNG seed for arrivals and keys.

    Joins use the query's own window, which the analytic rate model
    already accounts for; stream rates are scaled by :data:`RATE_SCALE`.

    Returns:
        A :class:`DataPlaneReport` with measured vs predicted rates.
    """
    query = deployment.query
    for leaf in deployment.plan.leaves():
        if not leaf.is_base_stream:
            raise ValueError("data plane does not instantiate reused views")

    rng = as_generator(seed)
    sim = Simulator(network)
    hosts: dict[int, _HostActor] = {}

    def host(node: int) -> _HostActor:
        if node not in hosts:
            hosts[node] = _HostActor(node)
            sim.register(hosts[node])
        return hosts[node]

    def pred_id(pred) -> str:
        return f"{pred.left}~{pred.right}"

    all_stats: list[ComponentStats] = []
    components: dict[PlanNode, _Component] = {}

    def make_stats(label: str, node: int) -> ComponentStats:
        stats = ComponentStats(label=label, node=node)
        all_stats.append(stats)
        return stats

    # Sources.
    for leaf in deployment.plan.leaves():
        node = deployment.placement[leaf]
        name = leaf.stream
        spec = rates.stream(name)
        domains = {
            pred_id(p): max(1, round(1.0 / p.selectivity))
            for p in query.predicates
            if name in p.streams
        }
        survive = 1.0
        for flt in query.filters_on(name):
            survive *= flt.selectivity
        h = host(node)
        comp = _Source(
            comp_id=f"src:{name}",
            host=h,
            stats=make_stats(f"source {name}", node),
            rate=spec.rate * RATE_SCALE,
            attr_domains=domains,
            rng=np.random.default_rng(rng.integers(0, 2**31)),
            survive_prob=survive,
        )
        h.components[comp.comp_id] = comp
        components[leaf] = comp

    # Joins (post-order so children exist first).
    for join_node in deployment.plan.joins():
        node = deployment.placement[join_node]
        h = host(node)
        left_set, right_set = join_node.left.sources, join_node.right.sources
        crossing = [
            pred_id(p)
            for p in query.predicates
            if (p.left in left_set and p.right in right_set)
            or (p.left in right_set and p.right in left_set)
        ]
        label = join_node.pretty()
        join = _HashJoin(
            comp_id=f"join:{label}",
            host=h,
            stats=make_stats(f"join {label}", node),
            left_views=join_node.left.sources,
            right_views=join_node.right.sources,
            pred_ids=crossing,
            window=query.window,
            clock=lambda: sim.now,
        )
        h.components[join.comp_id] = join
        components[join_node] = join
        for side, child in (("L", join_node.left), ("R", join_node.right)):
            producer = components[child]
            inbox_id = f"{join.comp_id}/{side}"
            inbox = _JoinInbox(
                comp_id=inbox_id,
                host=h,
                stats=join.stats,  # shared counter
                join=join,
                producer_comp=producer.comp_id,
            )
            # inbox shares the join's stats but must not double-count emits
            inbox.stats = join.stats
            h.components[inbox_id] = inbox
            join.bind_side(producer.comp_id, side)
            producer.subscribers.append((node, inbox_id))

    # Sink.
    sink_host = host(query.sink)
    sink = _SinkCollector(
        comp_id="sink",
        host=sink_host,
        stats=make_stats("sink", query.sink),
        clock=lambda: sim.now,
    )
    sink_host.components[sink.comp_id] = sink
    components[deployment.plan].subscribers.append((query.sink, "sink"))

    # Go.
    for leaf in deployment.plan.leaves():
        src = components[leaf]
        assert isinstance(src, _Source)
        src.start(sim, until=duration)
    sim.run(max_events=5_000_000)

    measured: dict[str, float] = {}
    predicted: dict[str, float] = {}
    for plan_node, comp in components.items():
        label = "*".join(sorted(plan_node.sources))
        measured[label] = comp.stats.emitted / duration
        predicted[label] = rates.rate_for(query, plan_node.sources) * RATE_SCALE

    latencies = sink.latencies
    return DataPlaneReport(
        duration=duration,
        components=all_stats,
        sink_tuples=sink.stats.received,
        mean_latency=float(np.mean(latencies)) if latencies else float("nan"),
        measured_rates=measured,
        predicted_rates=predicted,
    )
