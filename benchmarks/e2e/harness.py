"""Measurement plumbing: the speed-calibrated clock, percentiles, tallies.

Wall time on the shared 2-core sandbox is not a stable unit: a
neighbour on the same core slows everything by 1.5-2x, switching on and
off within milliseconds and staying on for minutes (measured: the same
seeded 600-query run took 6.5 s and 13 s of *user* CPU half an hour
apart; eight back-to-back runs of one seed spread 39 % in throughput).
Raw milliseconds therefore cannot repeat within a 10 % bound however
many samples a run takes.  Two measures bring the spread down to a few
per cent:

* **Calibrated time.**  The clock interleaves a fixed calibration
  kernel (:func:`spin`, a mix of interpreter, dict, sort and
  small-numpy work like the planners') with the timed calls and divides
  every duration by the local machine slowness: the median of the
  nearest :data:`SPIN_WINDOW` calibration points over
  :data:`REF_POINT_S`, a point's duration on the calm sandbox.  Times
  are thus reported in calm-sandbox units; the factor itself is
  published as ``harness.speed_x``.
* **Best of two.**  A run executes the deterministic script twice on
  fresh state and keeps, call by call, the faster of the two calibrated
  durations (:func:`best_of`): a burst rarely hits the same call twice.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: Kernel runs averaged into one calibration point.
SPINS_PER_POINT = 4
#: Duration of one calibration point on the calm sandbox (seconds).
REF_POINT_S = 215e-6
#: Points (nearest in time) whose median prices one timed call.
SPIN_WINDOW = 15

_MATRIX = np.arange(4096.0).reshape(64, 64)


def spin() -> float:
    """One run of the calibration kernel (fixed work, ~0.2 ms)."""
    acc: dict[tuple[int, int], float] = {}
    for i in range(400):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0.0) + i * 0.5
    order = sorted(acc, key=acc.__getitem__)
    total = 0.0
    for j in range(6):
        rows = [k[0] + j for k in order[j : j + 6]]
        sub = _MATRIX[np.ix_(rows, rows)]
        total += float((sub + sub.T).min(axis=0).sum())
    checksum = 0
    for i in range(700):
        checksum += i * i % 7
    return total + len(frozenset(order)) + checksum


class Op:
    """One timed call into the program."""

    __slots__ = ("kind", "phase", "start", "raw", "ok")

    def __init__(self, kind: str, phase: str, start: float) -> None:
        self.kind = kind
        self.phase = phase
        self.start = start
        self.raw = 0.0
        self.ok = True


@dataclass
class Record:
    """A timed call priced in calm-sandbox seconds."""

    kind: str
    phase: str
    ok: bool
    seconds: float


class Clock:
    """Times calls and prices them in calm-sandbox seconds."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.phase = "setup"
        self.depth = 0  # timed calls in flight (set-up nests its warm-up)
        self._point_at: list[float] = []
        self._point_raw: list[float] = []

    def spin(self, points: int = 1) -> None:
        """Sample the machine speed (call between timed calls)."""
        for _ in range(points):
            start = perf_counter()
            for _ in range(SPINS_PER_POINT):
                spin()
            self._point_raw.append((perf_counter() - start) / SPINS_PER_POINT)
            self._point_at.append(start)

    def timed(self, kind: str, fn, *args, **kwargs):
        """Call ``fn`` and record its duration; exceptions propagate
        after the op is booked as failed."""
        op = Op(kind, self.phase, perf_counter())
        self.ops.append(op)
        self.depth += 1
        try:
            return fn(*args, **kwargs)
        except BaseException:
            op.ok = False
            raise
        finally:
            op.raw = perf_counter() - op.start
            self.depth -= 1

    @property
    def current_op(self) -> int:
        """Index of the op in flight (the tracer tags spans with it)."""
        return len(self.ops) - 1

    def speed(self, op: Op) -> float:
        """Machine slowness around ``op`` (1.0 = calm reference)."""
        mid = bisect.bisect(self._point_at, op.start + op.raw / 2)
        lo = max(0, min(mid - SPIN_WINDOW // 2, len(self._point_at) - SPIN_WINDOW))
        window = self._point_raw[lo : lo + SPIN_WINDOW]
        return statistics.median(window) / REF_POINT_S

    def seconds(self, op: Op) -> float:
        """``op``'s duration in calm-sandbox seconds."""
        return op.raw / self.speed(op)

    def timeline(self) -> list[Record]:
        return [Record(o.kind, o.phase, o.ok, self.seconds(o)) for o in self.ops]

    def median_speed(self) -> float:
        """Machine slowness over the whole pass."""
        return statistics.median(self._point_raw) / REF_POINT_S


def best_of(timelines: list[list[Record]]) -> list[Record]:
    """Call by call, the fastest of several runs of one script."""
    calls = [[(r.kind, r.phase) for r in timeline] for timeline in timelines]
    if any(other != calls[0] for other in calls[1:]):
        raise RuntimeError("runs of one seed issued different call sequences")
    return [
        Record(
            records[0].kind,
            records[0].phase,
            all(r.ok for r in records),
            min(r.seconds for r in records),
        )
        for records in zip(*timelines)
    ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Tally:
    """Operations attempted and failed, with the reasons kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok
