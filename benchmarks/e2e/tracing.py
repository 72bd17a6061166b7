"""The traced run: spans recorded from outside, around public functions.

The harness installs thin wrappers around each layer's public entry
points (rebinding by-name imports in the importing modules), records one
span per call -- name, start, end, parent span, and the timed operation
(``submit`` / ``tick`` / ``recover`` / ``failover``) that caused it --
into an in-memory list, and derives the per-layer metrics from them
when the workload ends.  Only timed operations are traced: what the
harness calls between them (cost samples, ``observe_rates``) is not.  A layer's *self* time is its span's duration
minus the part its direct child spans cover.  High-frequency functions
get a counter only, never a span.  Spans inside the program are a later
issue; nothing under ``src/`` knows about this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from benchmarks.e2e.harness import Clock


def _examined(deployment) -> float:
    return float(deployment.stats.get("plans_examined") or 0)


def _present(result) -> float:
    return 0.0 if result is None else 1.0


#: (span name, module, class or None, attribute, value recorded from the result)
TARGETS = [
    ("core.top_down.plan", "repro.core.top_down", "TopDownOptimizer", "plan", _examined),
    ("core.bottom_up.plan", "repro.core.bottom_up", "BottomUpOptimizer", "plan", _examined),
    ("core.placement.dp", "repro.core.placement", None, "optimal_tree_placement", None),
    ("core.enumeration.trees", "repro.core.enumeration", None, "all_join_trees", len),
    ("core.enumeration.trees", "repro.core.enumeration", None, "trees_with_reuse", len),
    ("core.cost.flow_rates", "repro.core.cost", "RateModel", "flow_rates", None),
    ("query.deployment.apply", "repro.query.deployment", "DeploymentState", "apply", None),
    ("query.deployment.undeploy", "repro.query.deployment", "DeploymentState", "undeploy", None),
    ("query.deployment.total_cost", "repro.query.deployment", "DeploymentState", "total_cost", None),
    ("query.deployment.advertised_views", "repro.query.deployment", "DeploymentState", "advertised_views", None),
    ("hierarchy.ads.sync", "repro.hierarchy.advertisements", "AdvertisementIndex", "sync_from_state", None),
    ("hierarchy.build", "repro.hierarchy.hierarchy", None, "build_hierarchy", None),
    ("hierarchy.maintenance.fail", "repro.runtime.failover", None, "fail_node", None),
    ("service.submit", "repro.service.service", "StreamQueryService", "submit", None),
    ("service.tick", "repro.service.service", "StreamQueryService", "tick", None),
    ("service.cache.get", "repro.service.cache", "PlanCache", "get", _present),
    ("service.fingerprint", "repro.service.fingerprint", None, "query_fingerprint", None),
    ("service.admission", "repro.service.admission", "AdmissionController", "request", None),
    ("service.admission", "repro.service.admission", "AdmissionController", "drain", None),
    ("runtime.engine.deploy", "repro.runtime.engine", "FlowEngine", "deploy", None),
    ("runtime.engine.undeploy", "repro.runtime.engine", "FlowEngine", "undeploy", None),
    ("runtime.engine.refresh_rates", "repro.runtime.engine", "FlowEngine", "refresh_rates", None),
    ("resources.plan_feasible", "repro.resources.manager", "ResourceManager", "plan_feasible", None),
    ("resources.gate", "repro.resources.manager", "ResourceManager", "gate", None),
    ("resources.step", "repro.resources.manager", "ResourceManager", "step", None),
    ("resources.constraint_for", "repro.resources.manager", "ResourceManager", "constraint_for", None),
    ("resources.ledger.node_loads", "repro.resources.ledger", "ResourceLedger", "node_loads", None),
    ("durability.command", "repro.durability", "Durability", "command", None),
    ("durability.marker", "repro.durability", "Durability", "marker", None),
    ("durability.snapshot", "repro.durability", "Durability", "maybe_snapshot", _present),
    ("durability.recover.load", "repro.durability.journal", None, "repair_journal", None),
    ("durability.recover.load", "repro.durability.snapshot", None, "load_latest", None),
    ("durability.recover.restore", "repro.durability.state", None, "restore_service", None),
    ("obs.telemetry.tick", "repro.obs.telemetry", "Telemetry", "on_service_tick", None),
    ("adaptive.step", "repro.adaptive.loop", "AdaptivityLoop", "step", None),
    ("adaptive.evaluate", "repro.adaptive.policy", "ReoptPolicy", "evaluate", None),
    ("adaptive.migrate", "repro.adaptive.migrate", "Migrator", "execute", None),
    ("resilience.plan", "repro.resilience.degradation", "ResilientControl", "plan", None),
    ("resilience.tick", "repro.resilience.degradation", "ResilientControl", "apply_due_faults", None),
    ("resilience.tick", "repro.resilience.degradation", "ResilientControl", "release_quarantined", None),
    ("resilience.tick", "repro.resilience.degradation", "ResilientControl", "readmit_parked", None),
    ("fleet.submit", "repro.fleet.controller", "FleetController", "submit", None),
    ("fleet.tick", "repro.fleet.controller", "FleetController", "tick", None),
    ("fleet.federation.sync", "repro.fleet.federation", "ReuseFederation", "sync", None),
    ("fleet.routing.route", "repro.fleet.routing", "QueryRouter", "route", None),
    ("network.build", "benchmarks.e2e.workloads", None, "build_network", None),
    ("workload.generate", "repro.workload.generator", None, "generate_workload", None),
]

#: Counted, never spanned: (counter name, module, class, attribute).
COUNTERS = [
    ("query.view_signature", "repro.query.query", "Query", "view_signature"),
]

#: Spans that belong to set-up; every other metric covers the script only.
SETUP_SPANS = ("network.build", "workload.generate", "hierarchy.build")


class Tracer:
    """Records spans for one traced pass."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.live_from = sys.maxsize  # first op of the script (ops before are set-up)
        self._current = -1
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _traced(self, name: str, fn, value):
        spans, clock = self.spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not clock.depth:  # the harness's own untimed call
                return fn(*args, **kwargs)
            index = len(spans)
            parent = self._current
            self._current = index
            spans.append(None)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, perf_counter(), parent, clock.current_op, 0.0)
                raise
            else:
                end = perf_counter()
                recorded = float(value(result)) if value is not None else 0.0
                spans[index] = (name, start, end, parent, clock.current_op, recorded)
                return result
            finally:
                self._current = parent

        return traced

    def _counted(self, name: str, fn):
        counts, clock = self.counts, self.clock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if clock.depth and clock.current_op >= self.live_from:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, module_name: str, cls_name: str | None, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        # A function imported by name lives on in the importing module.
        for name, other in list(sys.modules.items()):
            if name.startswith(("repro", "benchmarks.e2e")) and (
                getattr(other, attr, None) is original
            ):
                self._undo.append((other, attr, original))
                setattr(other, attr, wrapper)

    def install(self) -> None:
        for name, module, cls, attr, value in TARGETS:
            self._rebind(module, cls, attr, lambda fn: self._traced(name, fn, value))
        for name, module, cls, attr in COUNTERS:
            self._rebind(module, cls, attr, lambda fn: self._counted(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive and self calm-sandbox seconds, calls
        and summed recorded values.

        Covers the script only (set-up spans excepted, see SETUP_SPANS).
        A span nested under a span of the same name is ignored, so the
        inclusive totals never count an interval twice.
        """
        clock = self.clock
        spans = self.spans
        speed: dict[int, float] = {}
        priced = []
        covered = [0.0] * len(spans)
        for _name, start, end, parent, op, _value in spans:
            if op not in speed:
                speed[op] = clock.speed(clock.ops[op])
            seconds = (end - start) / speed[op]
            priced.append(seconds)
            if parent >= 0:
                covered[parent] += seconds
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"inclusive": 0.0, "self": 0.0, "calls": 0.0, "value": 0.0}
        )
        for index, (name, _s, _e, parent, op, value) in enumerate(spans):
            if op < self.live_from and name not in SETUP_SPANS:
                continue
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor >= 0:
                continue
            row = out[name]
            row["inclusive"] += priced[index]
            row["self"] += priced[index] - covered[index]
            row["calls"] += 1
            row["value"] += value
        return out

    def dump(self, path: Path, header: dict) -> None:
        """Write the span file (times relative to the first span)."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        clock = self.clock
        doc = dict(header)
        doc["names"] = names
        doc["ops"] = [
            [o.kind, o.phase, round(o.start - origin, 7), round(o.raw, 7)]
            for o in clock.ops
        ]
        doc["span_fields"] = ["name", "start", "end", "parent", "op"]
        doc["spans"] = [
            [code[n], round(s - origin, 7), round(e - origin, 7), p, op]
            for n, s, e, p, op, _v in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
