"""Uniform random workload generator (paper Section 3).

"Our workload was generated using a uniformly random workload generator.
The workload generator generated stream rates, selectivities and source
placements for a specified number of streams according to a uniform
distribution.  It also generated queries with the number of joins per
query varying within a specified range (2-5 joins per query) with random
sink placements."

One deliberate refinement: selectivities are drawn once per *stream
pair* into a global table, and every query joining a pair uses the
global value.  Without this, two queries over the same streams would
carry different predicates, their sub-views would never share a
signature, and operator reuse (a headline feature of the paper's
evaluation) could never trigger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.cost import RateModel
from repro.network.graph import Network
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec
from repro.utils import SeedLike, as_generator


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs of the random workload generator.

    Attributes:
        num_streams: Base streams in the catalog (paper: 10 for the
            simulations, 8 on the prototype).
        num_queries: Queries to generate (paper: 20 / 25 / 100).
        joins_per_query: Inclusive (low, high) range of join operators
            per query; a query with j joins reads j+1 streams
            (paper: 2-5 joins; the prototype runs 1-4).
        rate_range: Uniform range for base stream rates.
        selectivity_range: Uniform range for pairwise join
            selectivities.
        predicate_style: Shape of each query's predicate graph over its
            (sorted) sources: ``"chain"``, ``"star"`` or ``"clique"``.
        window_range: Uniform range for per-query join windows; the
            default pins every query to the canonical window (0.5), in
            which rates reduce to ``sigma * r_L * r_R``.
    """

    num_streams: int = 10
    num_queries: int = 20
    joins_per_query: tuple[int, int] = (2, 5)
    rate_range: tuple[float, float] = (50.0, 150.0)
    selectivity_range: tuple[float, float] = (0.001, 0.02)
    predicate_style: str = "chain"
    window_range: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self) -> None:
        if self.num_streams < 2:
            raise ValueError("need at least two streams")
        if self.num_queries < 1:
            raise ValueError("need at least one query")
        lo, hi = self.joins_per_query
        if not 1 <= lo <= hi:
            raise ValueError("joins_per_query must satisfy 1 <= low <= high")
        if hi + 1 > self.num_streams:
            raise ValueError(
                f"queries need up to {hi + 1} distinct streams but only "
                f"{self.num_streams} exist"
            )
        if self.predicate_style not in ("chain", "star", "clique"):
            raise ValueError(f"unknown predicate style {self.predicate_style!r}")
        lo_w, hi_w = self.window_range
        if not 0 < lo_w <= hi_w:
            raise ValueError("window_range must satisfy 0 < low <= high")


@dataclass
class Workload:
    """A generated workload bound to a network.

    Attributes:
        network: The network streams/sinks were placed on.
        streams: Stream catalog (name -> spec).
        selectivities: Global pairwise selectivity table.
        queries: The generated queries, in arrival order.
        params: Generator parameters.
        seed: Seed the workload was generated with.
    """

    network: Network
    streams: dict[str, StreamSpec]
    selectivities: dict[frozenset[str], float]
    queries: list[Query]
    params: WorkloadParams
    seed: int | None = None

    def rate_model(self) -> RateModel:
        """A rate model over this workload's stream catalog."""
        return RateModel(self.streams)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)


def _predicates(sources: list[str], style: str, sel) -> list[JoinPredicate]:
    ordered = sorted(sources)
    pairs: list[tuple[str, str]] = []
    if style == "chain":
        pairs = list(zip(ordered[:-1], ordered[1:]))
    elif style == "star":
        hub = ordered[0]
        pairs = [(hub, other) for other in ordered[1:]]
    elif style == "clique":
        pairs = [
            (ordered[i], ordered[j])
            for i in range(len(ordered))
            for j in range(i + 1, len(ordered))
        ]
    return [JoinPredicate(a, b, sel(a, b)) for a, b in pairs]


def generate_workload(
    network: Network,
    params: WorkloadParams | None = None,
    seed: SeedLike = None,
) -> Workload:
    """Generate a random workload over ``network``.

    Stream sources and query sinks are uniform over the network's nodes;
    rates and selectivities are uniform over the configured ranges.
    """
    params = params or WorkloadParams()
    rng = as_generator(seed)
    nodes = network.nodes()
    if not nodes:
        raise ValueError("network has no nodes")

    names = [f"S{i}" for i in range(params.num_streams)]
    streams = {
        name: StreamSpec(
            name,
            source=int(rng.choice(nodes)),
            rate=float(rng.uniform(*params.rate_range)),
        )
        for name in names
    }
    selectivities: dict[frozenset[str], float] = {}
    for i in range(params.num_streams):
        for j in range(i + 1, params.num_streams):
            selectivities[frozenset((names[i], names[j]))] = float(
                rng.uniform(*params.selectivity_range)
            )

    def sel(a: str, b: str) -> float:
        return selectivities[frozenset((a, b))]

    lo, hi = params.joins_per_query
    queries = []
    for qi in range(params.num_queries):
        joins = int(rng.integers(lo, hi + 1))
        sources = [str(s) for s in rng.choice(names, size=joins + 1, replace=False)]
        queries.append(
            Query(
                name=f"q{qi}",
                sources=sorted(sources),
                sink=int(rng.choice(nodes)),
                predicates=_predicates(sources, params.predicate_style, sel),
                window=float(rng.uniform(*params.window_range)),
            )
        )
    return Workload(
        network=network,
        streams=streams,
        selectivities=selectivities,
        queries=queries,
        params=params,
        seed=seed if isinstance(seed, int) else None,
    )
