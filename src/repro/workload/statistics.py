"""Statistics gathering: estimating rates and selectivities from samples.

The paper assumes "we can estimate the expected data-rates of the stream
sources and the selectivities of their various attributes, perhaps
gathered from historical observations of the stream-data or measured by
special purpose nodes deployed specifically to gather data statistics".
This module implements that estimation substrate:

* :class:`StatisticsCollector` ingests raw tuple observations (stream
  name + join-attribute values) over an observation window and produces
  rate estimates (Poisson MLE: count / time) and pairwise selectivity
  estimates (value-histogram collision probability:
  ``sum_v p_a(v) p_b(v)``);
* :func:`simulate_observation` plays the role of the special-purpose
  monitor nodes: it samples synthetic observations from true stream
  specs/selectivities so experiments can study how much estimation noise
  the optimizer tolerates (the ablation bench sweeps the observation
  window).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Mapping

from repro.query.stream import StreamSpec
from repro.utils import SeedLike, as_generator


@dataclass
class EstimatedStatistics:
    """Estimated workload statistics.

    Attributes:
        streams: Stream name -> spec with the *estimated* rate (source
            nodes are known infrastructure facts, not estimated).
        selectivities: Pairwise selectivity estimates.
        observation_time: Length of the observation window.
        tuples_observed: Total tuples the collector saw.
    """

    streams: dict[str, StreamSpec]
    selectivities: dict[frozenset[str], float]
    observation_time: float
    tuples_observed: int


#: Floor for selectivity estimates, used when two sampled streams never
#: collide (zero estimates would make every downstream rate zero and
#: break planning).
MIN_SELECTIVITY = 1e-6


class StatisticsCollector:
    """Accumulates tuple observations and produces estimates.

    Args:
        sources: Stream name -> source node (known a priori; only rates
            and selectivities are estimated).
    """

    def __init__(self, sources: Mapping[str, int]) -> None:
        self._sources = dict(sources)
        self._counts: Counter[str] = Counter()
        # per (stream, attribute) histogram of observed key values
        self._histograms: dict[tuple[str, str], Counter[int]] = defaultdict(Counter)

    # ------------------------------------------------------------------
    def observe(self, stream: str, attrs: Mapping[str, int] | None = None) -> None:
        """Record one tuple of ``stream`` with its join-attribute values.

        ``attrs`` maps attribute names (shared between joinable streams,
        e.g. ``"flight_num"``) to the observed key value.
        """
        if stream not in self._sources:
            raise KeyError(f"unknown stream {stream!r}")
        self._counts[stream] += 1
        for attr, value in (attrs or {}).items():
            self._histograms[(stream, attr)][int(value)] += 1

    @property
    def tuples_observed(self) -> int:
        """Total observations across all streams."""
        return sum(self._counts.values())

    # ------------------------------------------------------------------
    def estimate(self, observation_time: float) -> EstimatedStatistics:
        """Produce estimates from everything observed so far.

        Args:
            observation_time: The (known) duration tuples were collected
                over; rates are ``count / observation_time``.

        Raises:
            ValueError: If a stream was never observed (its rate would
                be zero, making it unplannable) or the window is
                non-positive.
        """
        if observation_time <= 0:
            raise ValueError("observation_time must be positive")
        missing = [s for s in self._sources if self._counts[s] == 0]
        if missing:
            raise ValueError(f"streams never observed: {missing}")

        streams = {
            name: StreamSpec(name, self._sources[name], self._counts[name] / observation_time)
            for name in self._sources
        }

        # Pairwise selectivity: collision probability of the shared
        # attribute's empirical distributions.
        selectivities: dict[frozenset[str], float] = {}
        by_attr: dict[str, list[str]] = defaultdict(list)
        for (stream, attr) in self._histograms:
            by_attr[attr].append(stream)
        for attr, streams_with_attr in by_attr.items():
            for i, a in enumerate(sorted(streams_with_attr)):
                for b in sorted(streams_with_attr)[i + 1 :]:
                    hist_a = self._histograms[(a, attr)]
                    hist_b = self._histograms[(b, attr)]
                    n_a = sum(hist_a.values())
                    n_b = sum(hist_b.values())
                    collide = sum(
                        cnt * hist_b.get(value, 0) for value, cnt in hist_a.items()
                    )
                    estimate = collide / (n_a * n_b) if n_a and n_b else 0.0
                    key = frozenset((a, b))
                    prior = selectivities.get(key)
                    estimate = max(estimate, MIN_SELECTIVITY)
                    # multiple shared attributes: predicates conjoin
                    selectivities[key] = (
                        estimate if prior is None else prior * estimate
                    )
        return EstimatedStatistics(
            streams=streams,
            selectivities=selectivities,
            observation_time=observation_time,
            tuples_observed=self.tuples_observed,
        )


def simulate_observation(
    streams: Mapping[str, StreamSpec],
    selectivities: Mapping[frozenset[str], float],
    observation_time: float = 10.0,
    seed: SeedLike = None,
) -> StatisticsCollector:
    """Simulate the special-purpose monitor nodes.

    Draws Poisson tuple counts per stream and uniform join keys from the
    true domains (size ``round(1/selectivity)`` per stream pair, shared
    attribute named after the pair), feeding a collector exactly as live
    monitors would.
    """
    if observation_time <= 0:
        raise ValueError("observation_time must be positive")
    rng = as_generator(seed)
    collector = StatisticsCollector({n: s.source for n, s in streams.items()})

    domains = {
        pair: max(1, round(1.0 / sel)) for pair, sel in selectivities.items()
    }

    for name, spec in streams.items():
        count = int(rng.poisson(spec.rate * observation_time))
        count = max(count, 1)  # a silent stream still exists
        pairs = [pair for pair in domains if name in pair]
        for _ in range(count):
            attrs = {
                "~".join(sorted(pair)): int(rng.integers(0, domains[pair]))
                for pair in pairs
            }
            collector.observe(name, attrs)
    return collector


def estimate_statistics(
    streams: Mapping[str, StreamSpec],
    selectivities: Mapping[frozenset[str], float],
    observation_time: float = 10.0,
    seed: SeedLike = None,
) -> EstimatedStatistics:
    """One-call convenience: simulate monitors, then estimate."""
    collector = simulate_observation(streams, selectivities, observation_time, seed)
    return collector.estimate(observation_time)
