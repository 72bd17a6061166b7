"""Named scenarios, headlined by the airline OIS of paper Section 1.1.

The scenario reconstructs the running example end to end: the Figure 3
network, the WEATHER / FLIGHTS / CHECK-INS streams, and the SQL text of
queries Q1 and Q2.  Selectivities are chosen so that the optimization
opportunities the paper walks through actually arise:

* *network-aware join ordering* -- the intermediate-volume-optimal order
  for Q1 is (FLIGHTS x WEATHER) x CHECK-INS, but the congested
  FLIGHTS-N2 link makes (FLIGHTS x CHECK-INS) x WEATHER cheaper;
* *operator reuse* -- once Q2's FLIGHTS x CHECK-INS join is deployed at
  N1, Q1 can reuse it by switching join order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.cost import RateModel
from repro.network.graph import Network
from repro.network.topology import motivating_network
from repro.query.query import Query
from repro.query.sql import parse_query
from repro.query.stream import StreamSpec

Q1_SQL = """
SELECT FLIGHTS.STATUS, WEATHER.FORECAST, CHECK-INS.STATUS
FROM FLIGHTS, WEATHER, CHECK-INS
WHERE FLIGHTS.DEPARTING = 'ATLANTA'
  AND FLIGHTS.DESTN = WEATHER.CITY
  AND FLIGHTS.NUM = CHECK-INS.FLNUM
  AND FLIGHTS.DP-TIME - CURRENT_TIME < 12:00
"""

Q2_SQL = """
SELECT FLIGHTS.STATUS, CHECK-INS.STATUS
FROM FLIGHTS, CHECK-INS
WHERE FLIGHTS.DEPARTING = 'ATLANTA'
  AND FLIGHTS.NUM = CHECK-INS.FLNUM
  AND FLIGHTS.DP-TIME - CURRENT_TIME < 12:00
"""


@dataclass
class OisScenario:
    """The airline Operational Information System example.

    Attributes:
        network: The Figure 3 network.
        node_ids: Name -> node id for the network's labelled nodes.
        streams: The three base streams.
        rates: Rate model over the streams.
        q1: Paper query Q1 (flight + weather + check-in display).
        q2: Paper query Q2 (flight + check-in display).
    """

    network: Network
    node_ids: dict[str, int]
    streams: dict[str, StreamSpec]
    rates: RateModel
    q1: Query
    q2: Query


def airline_ois_scenario() -> OisScenario:
    """Build the complete Section 1.1 scenario.

    The FLIGHTS x CHECK-INS join is highly selective (flight-number
    equality) while FLIGHTS x WEATHER is the volume-optimal first join by
    a small margin -- so a network-oblivious planner picks
    (FLIGHTS x WEATHER) first and only the joint optimization discovers
    the better orders discussed in the paper.
    """
    network, ids = motivating_network()
    streams = {
        "FLIGHTS": StreamSpec("FLIGHTS", ids["FLIGHTS"], rate=100.0),
        "WEATHER": StreamSpec("WEATHER", ids["WEATHER"], rate=40.0),
        "CHECK-INS": StreamSpec("CHECK-INS", ids["CHECK-INS"], rate=120.0),
    }
    join_selectivities = {
        # FLIGHTS x WEATHER: destination-city equality.
        frozenset({"FLIGHTS", "WEATHER"}): 0.002,
        # FLIGHTS x CHECK-INS: flight-number equality.
        frozenset({"FLIGHTS", "CHECK-INS"}): 0.001,
    }
    filter_selectivities = {
        "FLIGHTS.DEPARTING = 'ATLANTA'": 0.2,
        "FLIGHTS.DP-TIME - CURRENT_TIME < 12:00": 0.5,
    }
    q1 = parse_query(
        Q1_SQL,
        name="Q1",
        sink=ids["Sink4"],
        join_selectivities=join_selectivities,
        filter_selectivities=filter_selectivities,
    )
    q2 = parse_query(
        Q2_SQL,
        name="Q2",
        sink=ids["Sink3"],
        join_selectivities=join_selectivities,
        filter_selectivities=filter_selectivities,
    )
    return OisScenario(
        network=network,
        node_ids=ids,
        streams=streams,
        rates=RateModel(streams),
        q1=q1,
        q2=q2,
    )


@dataclass
class MonitoringScenario:
    """A distributed network-monitoring scenario (the paper's other
    motivating domain, cf. its reference [14]).

    A two-domain transit-stub network where edge routers export SNMP
    counters, NetFlow records, IDS alerts and syslog events; operations
    dashboards at different sites run overlapping correlation queries.

    Attributes:
        network: The monitored network (also the processing substrate).
        streams: The four telemetry streams.
        rates: Rate model over the streams.
        queries: Overlapping correlation queries (heavy reuse potential).
    """

    network: Network
    streams: dict[str, StreamSpec]
    rates: RateModel
    queries: list[Query]


def network_monitoring_scenario() -> MonitoringScenario:
    """Build the network-monitoring scenario.

    Telemetry rates follow reality: NetFlow is the firehose, SNMP steady,
    alerts rare.  Every query correlates on shared keys (router id /
    flow id), so sub-views overlap heavily across the dashboards --
    the multi-query reuse setting the paper targets.
    """
    from repro.network.topology import TransitStubParams, transit_stub
    from repro.query.query import JoinPredicate

    params = TransitStubParams(
        transit_domains=2, transit_nodes=3, stubs_per_transit=2, stub_size=5
    )
    network = transit_stub(params, seed=0)
    nodes = network.nodes()
    stubs = network.nodes_of_kind("stub")
    streams = {
        "NETFLOW": StreamSpec("NETFLOW", stubs[0], rate=400.0),
        "SNMP": StreamSpec("SNMP", stubs[len(stubs) // 3], rate=120.0),
        "ALERTS": StreamSpec("ALERTS", stubs[2 * len(stubs) // 3], rate=15.0),
        "SYSLOG": StreamSpec("SYSLOG", stubs[-1], rate=90.0),
    }
    sel = {
        frozenset({"NETFLOW", "ALERTS"}): 0.002,   # flow id
        frozenset({"NETFLOW", "SNMP"}): 0.001,     # router id
        frozenset({"ALERTS", "SYSLOG"}): 0.005,    # host id
        frozenset({"SNMP", "SYSLOG"}): 0.004,      # router id
    }

    def pred(a: str, b: str) -> JoinPredicate:
        return JoinPredicate(a, b, sel[frozenset({a, b})])

    sinks = [nodes[-1], stubs[1], stubs[len(stubs) // 2], nodes[0]]
    queries = [
        # SOC dashboard: alerts in the context of the triggering flows.
        Query("soc_flows", ["NETFLOW", "ALERTS"], sink=sinks[0],
              predicates=[pred("NETFLOW", "ALERTS")]),
        # Capacity dashboard: flows against interface counters.
        Query("capacity", ["NETFLOW", "SNMP"], sink=sinks[1],
              predicates=[pred("NETFLOW", "SNMP")]),
        # Incident triage: alerts + the flows + host logs.
        Query("triage", ["ALERTS", "NETFLOW", "SYSLOG"], sink=sinks[2],
              predicates=[pred("NETFLOW", "ALERTS"), pred("ALERTS", "SYSLOG")]),
        # NOC overview: everything correlated.
        Query("noc", ["ALERTS", "NETFLOW", "SNMP", "SYSLOG"], sink=sinks[3],
              predicates=[pred("NETFLOW", "ALERTS"), pred("NETFLOW", "SNMP"),
                          pred("ALERTS", "SYSLOG")]),
    ]
    return MonitoringScenario(
        network=network,
        streams=streams,
        rates=RateModel(streams),
        queries=queries,
    )


# ---------------------------------------------------------------------------
# Rate-drift schedules (exercise the adaptive subsystem)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepDrift:
    """A stream's rate jumps by ``factor`` at time ``at`` and stays there.

    The canonical adaptivity stressor: a deployment planned before the
    step is arbitrarily mispriced after it.
    """

    stream: str
    at: float
    factor: float

    def factor_at(self, time: float) -> float:
        """Rate multiplier at ``time``."""
        return self.factor if time >= self.at else 1.0


@dataclass(frozen=True)
class RampDrift:
    """A stream's rate ramps linearly to ``factor`` x over [start, end].

    Gradual drift: tests that hysteresis does not suppress slow changes
    forever and that the loop converges without flapping.
    """

    stream: str
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("ramp end must be after start")

    def factor_at(self, time: float) -> float:
        """Rate multiplier at ``time``."""
        if time <= self.start:
            return 1.0
        if time >= self.end:
            return self.factor
        frac = (time - self.start) / (self.end - self.start)
        return 1.0 + (self.factor - 1.0) * frac


@dataclass(frozen=True)
class PeriodicDrift:
    """A diurnal-style sinusoidal rate schedule.

    The multiplier oscillates ``1 +/- amplitude`` with the given period;
    a well-tuned loop should track the swings without migrating on every
    half-cycle (the amortization horizon damps it).
    """

    stream: str
    period: float
    amplitude: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1) to keep rates positive")

    def factor_at(self, time: float) -> float:
        """Rate multiplier at ``time``."""
        return 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * (time + self.phase) / self.period
        )


@dataclass
class DriftTimeline:
    """A base stream catalog plus a schedule of rate-drift events.

    Attributes:
        base: The catalog at time 0 (name -> spec).
        events: Drift schedules; multiple events on one stream compose
            multiplicatively.
    """

    base: dict[str, StreamSpec]
    events: list[StepDrift | RampDrift | PeriodicDrift] = field(default_factory=list)

    def __post_init__(self) -> None:
        for event in self.events:
            if event.stream not in self.base:
                raise ValueError(f"drift event for unknown stream {event.stream!r}")

    def factor(self, stream: str, time: float) -> float:
        """Combined rate multiplier for one stream at ``time``."""
        out = 1.0
        for event in self.events:
            if event.stream == stream:
                out *= event.factor_at(time)
        return out

    def rate_at(self, stream: str, time: float) -> float:
        """True (scheduled) rate of one stream at ``time``."""
        return self.base[stream].rate * self.factor(stream, time)

    def rates_at(self, time: float) -> dict[str, float]:
        """True rates of every stream at ``time`` (monitor food)."""
        return {name: self.rate_at(name, time) for name in self.base}

    def streams_at(self, time: float) -> dict[str, StreamSpec]:
        """The catalog re-priced to ``time`` (oracle statistics)."""
        return {
            name: StreamSpec(spec.name, spec.source, self.rate_at(name, time))
            for name, spec in self.base.items()
        }

    def settle_time(self) -> float:
        """Time after which only periodic events still change rates."""
        settled = 0.0
        for event in self.events:
            if isinstance(event, StepDrift):
                settled = max(settled, event.at)
            elif isinstance(event, RampDrift):
                settled = max(settled, event.end)
        return settled


def drift_timeline(
    streams: dict[str, StreamSpec],
    kind: str = "step",
    stream: str | None = None,
    at: float = 10.0,
    duration: float = 10.0,
    factor: float = 4.0,
    period: float = 24.0,
    amplitude: float = 0.5,
) -> DriftTimeline:
    """Build a one-event drift timeline over a stream catalog.

    Args:
        streams: The base catalog.
        kind: ``"step"``, ``"ramp"`` or ``"periodic"``.
        stream: The drifting stream (default: the lowest-rate stream,
            so the drift inverts rate orderings and changes optimal
            join orders, not just absolute costs).
        at: Step time / ramp start / periodic phase origin.
        duration: Ramp duration (``kind="ramp"`` only).
        factor: Step/ramp multiplier.
        period: Oscillation period (``kind="periodic"`` only).
        amplitude: Oscillation amplitude (``kind="periodic"`` only).
    """
    if stream is None:
        stream = min(streams, key=lambda name: streams[name].rate)
    elif stream not in streams:
        raise ValueError(f"unknown stream {stream!r} "
                         f"(catalog: {', '.join(sorted(streams))})")
    if kind in ("step", "ramp") and factor <= 0:
        raise ValueError(f"drift factor must be positive, got {factor}")
    if kind == "step":
        event: StepDrift | RampDrift | PeriodicDrift = StepDrift(stream, at, factor)
    elif kind == "ramp":
        event = RampDrift(stream, at, at + duration, factor)
    elif kind == "periodic":
        event = PeriodicDrift(stream, period, amplitude, phase=-at)
    else:
        raise ValueError(f"unknown drift kind {kind!r}")
    return DriftTimeline(base=dict(streams), events=[event])
