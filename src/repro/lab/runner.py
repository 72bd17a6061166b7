"""Stepping a candidate panel through one scenario, tick for tick.

Each candidate gets a *fresh* :class:`~repro.lab.spec.BuiltScenario`
(determinism makes the builds identical; fresh objects stop one
candidate's clock/rate/state mutations leaking into another), its own
:class:`~repro.obs.telemetry.Telemetry` pipeline, and an extra ``lab``
scrape source sampling the cross-candidate comparison series --
``lab.total_cost``, ``lab.live_queries`` and, when the scenario has a
capacity profile, ``lab.max_utilization`` / ``lab.capacity_violations``
priced by a *read-only* audit ledger so capacity-blind candidates still
report how hot they run the fleet.

Planner work is counted per candidate by an
:class:`~repro.perf.profiler.OpProfiler`; its deterministic op counts
enter the envelope (no wall clock does: it would break the
byte-identical contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.lab.candidate import Candidate, default_panel
from repro.lab.spec import (
    BuiltScenario,
    ScenarioSpec,
    build_scenario,
    scenario_candidates,
)
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.perf.profiler import profiled

ENVELOPE_KIND = "repro.lab"
ENVELOPE_VERSION = 1

#: Scope the lab's own comparison series are scraped under.
LAB_SCOPE = "lab"


class CandidateRun:
    """One candidate's control plane, armed and steppable.

    The high-level entry point is :func:`run_lab`, which drives the
    scenario trace through :meth:`drive`; the low-level
    :meth:`submit` / :meth:`tick` surface exists so other harnesses
    (the op-count pins in ``tests/perf/test_op_counts.py``) can push an
    exact call sequence through the lab wrapper and check it adds no
    planner work.
    """

    def __init__(self, candidate: Candidate, built: BuiltScenario) -> None:
        self.candidate = candidate
        self.built = built
        spec = built.spec
        telemetry = Telemetry(
            TelemetryConfig(
                cadence=spec.telemetry.cadence,
                store_capacity=spec.telemetry.store_capacity,
            )
        )
        self.telemetry = telemetry
        self.plane = candidate.build(built, telemetry=telemetry)
        self.is_fleet = candidate.mode == "fleet"
        self.clock = 0.0
        self.cost_ticks = 0.0
        self.ops: dict[str, int] = {}
        # Drift scenarios price costs with an oracle rate model at the
        # *true* drifted rates (the idiom of the adapt drill): the
        # adaptive loop publishes revised statistics into its own rate
        # model, so each candidate's self-reported cost would otherwise
        # be priced on different beliefs and not be comparable.
        self._cost_matrix = (
            built.network.cost_matrix() if built.timeline is not None else None
        )
        self._audit = None
        if built.capacities is not None:
            from repro.resources import OperatorFootprint, ResourceLedger

            # Candidates under a capacity profile are services: one state.
            self._audit = ResourceLedger(built.capacities)
            self._audit.attach(self.plane.engine.state, OperatorFootprint(built.rates))
        telemetry.scraper.add_source(LAB_SCOPE, self._lab_sample)

    # ------------------------------------------------------------------
    def _services(self):
        return self.plane.shards if self.is_fleet else [self.plane]

    def true_cost(self) -> float:
        """The plane's communication cost at the *true* current rates.

        Without a drift timeline this is ``plane.total_cost()``; with
        one, deployments are re-priced by an oracle rate model at the
        drifted rates so static and adaptive candidates compare on the
        same ground truth.
        """
        if self.built.timeline is None:
            return float(self.plane.total_cost())
        from repro.core.cost import RateModel, deployment_cost

        oracle = RateModel(self.built.timeline.streams_at(self.clock))
        return float(
            sum(
                deployment_cost(d, self._cost_matrix, oracle)
                for service in self._services()
                for d in service.engine.state.deployments
            )
        )

    def _lab_sample(self) -> dict[str, float]:
        """The cross-candidate comparison series (see module doc)."""
        out = {
            "total_cost": self.true_cost(),
            "live_queries": float(len(self.plane.live_queries)),
        }
        if self._audit is not None:
            bound = self.built.spec.capacity.bound
            out["max_utilization"] = self._audit.max_utilization()
            out["capacity_violations"] = float(
                len(self._audit.violations(bound))
            )
        return out

    # ------------------------------------------------------------------
    def submit(self, query, lifetime: float | None = None) -> Any:
        """Submit one query to the candidate's control plane."""
        return self.plane.submit(query, lifetime=lifetime)

    def tick(self, time: float | None = None) -> Any:
        """Advance one tick (drift is observed before the plane ticks)."""
        self.clock = self.clock + 1.0 if time is None else float(time)
        if self.built.timeline is not None:
            self.plane.observe_rates(
                self.built.timeline.rates_at(self.clock), self.clock
            )
        report = self.plane.tick(self.clock)
        # Cost integral: one sample per tick regardless of the scrape
        # cadence or ring capacity, so churn scenarios (whose *final*
        # cost is 0 once everything retires) still compare on price.
        self.cost_ticks += self.true_cost()
        return report

    def drive(self) -> None:
        """Replay the scenario's trace over the spec's tick horizon."""
        events = sorted(
            self.built.events, key=lambda e: e.time
        )  # sort is stable: same-tick arrivals keep trace order
        horizon = self.built.spec.ticks
        if events:
            horizon = max(horizon, int(math.ceil(events[-1].time)))
        idx = 0
        for t in range(1, horizon + 1):
            now = float(t)
            while idx < len(events) and events[idx].time <= now:
                event = events[idx]
                if self.candidate.tenants:  # a fleet over the tenant mix
                    self.plane.submit(
                        event.query, lifetime=event.lifetime, tenant=event.tenant
                    )
                else:
                    self.submit(event.query, lifetime=event.lifetime)
                idx += 1
            self.tick(now)

    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, Any]:
        """Deterministic end-of-run roll-up (no wall clock anywhere)."""
        services = self._services()
        hits = sum(s.cache.hits for s in services)
        misses = sum(s.cache.misses for s in services)
        out: dict[str, Any] = {
            "final_cost": self.true_cost(),
            "cost_ticks": self.cost_ticks,
            "live": len(self.plane.live_queries),
            "deployed_total": sum(s.deployed_total for s in services),
            "retired_total": sum(s.retired_total for s in services),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "plans_computed": sum(s.plans_computed for s in services),
            "alerts_fired": sum(
                1 for e in self.telemetry.engine.events if e.get("to") == "firing"
            ),
            "alerts_firing": len(self.telemetry.engine.firing()),
            "migrations": 0,
            "migrations_aborted": 0,
            "shed": 0,
            "parked": 0,
            "telemetry_samples": self.telemetry.scraper.samples_total,
            "telemetry_series": len(self.telemetry.store),
        }
        for service in services:
            if service.adaptivity is not None:
                summary = service.adaptivity.summary()
                out["migrations"] += summary["migrations_committed"]
                out["migrations_aborted"] += summary["migrations_aborted"]
            if service.resources is not None:
                summary = service.resources.summary()
                out["shed"] += summary["shed_total"]
                out["parked"] += len(summary["parked"])
        if self._audit is not None:
            bound = self.built.spec.capacity.bound
            out["max_utilization"] = self._audit.max_utilization()
            out["capacity_violations"] = len(self._audit.violations(bound))
        if self.is_fleet:
            out["cross_shard_reuse"] = self.plane.cross_shard_reuse_total
            if self.plane.federation is not None:
                fed = self.plane.federation.summary()
                out["federation_syncs"] = fed.get("syncs", 0)
                out["federation_imports"] = fed.get("imported_total", 0)
            out["invariant_violations"] = len(self.plane.check_invariants())
        return out

    def envelope_entry(self) -> dict[str, Any]:
        """This run's slice of the ``repro.lab`` envelope."""
        return {
            "candidate": self.candidate.to_dict(),
            "metrics": self.metrics(),
            "ops": {k: self.ops[k] for k in sorted(self.ops)},
            "telemetry": self.telemetry.envelope(),
        }


@dataclass
class LabResult:
    """Everything one lab run produced."""

    spec: ScenarioSpec
    runs: list[CandidateRun] = field(default_factory=list)

    def run(self, name: str) -> CandidateRun:
        """Look up a candidate's run by name (KeyError when unknown)."""
        for r in self.runs:
            if r.candidate.name == name:
                return r
        raise KeyError(name)

    def envelope(self) -> dict[str, Any]:
        """The deterministic ``repro.lab`` JSON document.

        Contains only seed-derived data: the spec, per-candidate
        metrics, planner op *counts*, and each candidate's (already
        wall-clock-free) telemetry envelope.  Two runs with the same
        spec produce byte-identical serializations.
        """
        return {
            "kind": ENVELOPE_KIND,
            "version": ENVELOPE_VERSION,
            "scenario": self.spec.to_dict(),
            "candidates": [r.envelope_entry() for r in self.runs],
        }


def run_lab(spec: ScenarioSpec) -> LabResult:
    """Step every candidate through the scenario and collect the result.

    The panel is the spec's embedded one, or :func:`default_panel` when
    the spec embeds none.  Every candidate
    runs on its own scenario build and under its own profiler, so op
    counts and telemetry never mix across the panel.
    """
    candidates = scenario_candidates(spec) if spec.candidates else default_panel()
    result = LabResult(spec=spec)
    for candidate in candidates:
        built = build_scenario(spec)
        run = CandidateRun(candidate, built)
        with profiled() as prof:
            run.drive()
        run.ops = dict(prof.ops)
        result.runs.append(run)
    return result
