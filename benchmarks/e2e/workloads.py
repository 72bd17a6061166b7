"""The four workloads: seeded inputs, command scripts, correctness checks.

Every workload is a closed loop with one client: the next ``submit`` or
``tick`` is issued when the previous one returns.  The harness generates
the world, the catalog and the script; the program only ever sees those
inputs through its public API.  *Why* each workload
exists is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import math
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import repro.durability.recovery as recovery_mod
import repro.hierarchy.hierarchy as hierarchy_mod
import repro.network.topology as topology_mod
import repro.workload.generator as generator_mod
from repro.adaptive.loop import AdaptivityConfig
from repro.core import make_optimizer
from repro.core.cost import deployment_cost
from repro.durability import DurabilityConfig
from repro.fleet import FleetController, Tenant
from repro.hierarchy import AdvertisementIndex
from repro.obs.telemetry import TelemetryConfig
from repro.query.query import Query
from repro.resilience.degradation import ResilienceConfig
from repro.resources import ResourceConfig, uniform_capacities
from repro.service import AdmissionController, PlanCache, StreamQueryService
from repro.service.admission import AdmissionStatus
from repro.service.fingerprint import query_fingerprint
from repro.workload import WorkloadParams

from benchmarks.e2e.harness import Clock, Tally

#: ``--seconds`` the full-scale counts below are sized for: about that
#: much timed work per run on the calm sandbox, both reps together.
RUN_SECONDS = 10

#: Join-count mixes (exact shares, so the submit median sits inside one
#: size class instead of on the boundary between two).
MIX_2_5 = {2: 0.2, 3: 0.2, 4: 0.4, 5: 0.2}
MIX_2_4 = {2: 0.25, 3: 0.5, 4: 0.25}

#: 1 tick in 10 snapshots, so ``tick_p95_ms`` of ``layers_on`` is the
#: median snapshot tick (at 1 in 16 it was the third-cheapest of 13).
SNAPSHOT_INTERVAL = 10

#: Seed of the world every run shares (see :class:`Env`).
WORLD_SEED = 11


@dataclass(frozen=True)
class Scale:
    """Network and script sizes of one ``--scale``.  The full scale sits
    on the floors (200 submits, 200 ticks, the stated live counts) so a
    run has time for each script twice; ``--seconds`` above
    :data:`RUN_SECONDS` scales the timed counts up from there."""

    nodes: int
    streams: int
    cold_queries: int  # plan_cold: distinct queries (3 per tick, lifetime 10)
    warm_catalog: int  # churn_warm: live plateau (4 per tick)
    warm_ticks: int
    layers_fill: int  # layers_on: live count
    layers_ticks: int
    layers_suffix: tuple[int, int]  # submits, ticks replayed by recover()
    fleet_catalog: int  # fleet_shards: live plateau (4 per tick), ramped untimed
    fleet_submits: int  # timed twins


SCALES = {
    "full": Scale(256, 20, 600, 400, 200, 200, 210, (20, 8), 400, 800),
    "smoke": Scale(32, 10, 30, 16, 8, 12, 10, (3, 3), 16, 32),
}


def scaled(base: int, seconds: float) -> int:
    return max(base, round(base * seconds / RUN_SECONDS))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def build_network(nodes: int, seed: int):
    """Transit-stub network plus its first (uncached) cost matrix."""
    network = topology_mod.transit_stub_by_size(nodes, seed=seed)
    network.cost_matrix()
    return network


class Env:
    """The fixed world plus the query list one seed draws from it.

    Network, hierarchy and stream catalog (sources, rates,
    selectivities) come from :data:`WORLD_SEED`; the run's seed picks
    and orders the queries.  Both planning time and ``cost_ratio`` are
    properties of the world first (seeded worlds spread 10-15 % in
    ``cost_ratio`` and up to 20 % in planning time), so a per-seed world
    would bury a regression under the spread between seeds.
    """

    def __init__(
        self, seed: int, nodes: int, streams: int, queries: int, mix: dict[int, float]
    ) -> None:
        self.network = build_network(nodes, WORLD_SEED)
        self.costs = self.network.cost_matrix()
        pool = generator_mod.generate_workload(
            self.network,
            WorkloadParams(
                num_streams=streams,
                num_queries=4 * queries,
                joins_per_query=(min(mix), max(mix)),
            ),
            seed=WORLD_SEED + 1,
        )
        self.rates = pool.rate_model()
        self.hierarchy = hierarchy_mod.build_hierarchy(
            self.network, max_cs=6, seed=WORLD_SEED + 2
        )
        drawn = list(pool.queries)
        random.Random(seed).shuffle(drawn)
        self.queries = _stratified(drawn, queries, mix)
        self.base_rates = {n: s.rate for n, s in self.rates.streams.items()}

    def naive_cost(self, query: Query) -> float:
        """Ship every source stream to the sink and join there."""
        return sum(
            self.base_rates[s] * float(self.costs[self.rates.source(s), query.sink])
            for s in query.sources
        )


def _stratified(pool: list[Query], count: int, mix: dict[int, float]) -> list[Query]:
    """First ``count`` pool queries with distinct fingerprints and the
    exact join-count mix."""
    quota = {joins: round(count * share) for joins, share in mix.items()}
    quota[max(mix)] += count - sum(quota.values())
    seen: set[str] = set()
    chosen: list[Query] = []
    for query in pool:
        joins = len(query.sources) - 1
        fingerprint = query_fingerprint(query)
        if quota.get(joins, 0) > 0 and fingerprint not in seen:
            quota[joins] -= 1
            seen.add(fingerprint)
            chosen.append(query)
    if len(chosen) != count:
        raise RuntimeError(f"query pool too small: {len(chosen)}/{count}")
    return chosen


def renamed(query: Query, name: str, sink: int | None = None) -> Query:
    """The same query content under a new name (and optionally sink)."""
    return Query(
        name,
        sources=query.sources,
        sink=query.sink if sink is None else sink,
        predicates=query.predicates,
        filters=query.filters,
        window=query.window,
    )


# ----------------------------------------------------------------------
# Driving a controller
# ----------------------------------------------------------------------
class Driver:
    """Issues the script's calls, mirrors the expected live set and
    integrates the cost-ratio samples."""

    def __init__(self, ctl, env: Env, clock: Clock, tally: Tally) -> None:
        self.ctl = ctl
        self.env = env
        self.clock = clock
        self.tally = tally
        self.now = 0
        self.expected: dict[str, tuple[float, float]] = {}  # name -> (expiry, naive)
        self.naive_live = 0.0
        self.cost_sum = 0.0
        self.naive_sum = 0.0

    def call(self, kind: str, fn, *args, **kwargs):
        """One timed call; an exception is a failed operation."""
        try:
            return self.clock.timed(kind, fn, *args, **kwargs)
        except Exception as exc:  # the benchmark must finish and report
            self.tally.check(False, f"{kind} raised {type(exc).__name__}: {exc}")
            return None

    def submit(self, query: Query, lifetime: float | None = None, **kwargs) -> None:
        decision = self.call("submit", self.ctl.submit, query, lifetime=lifetime, **kwargs)
        if decision is None:
            return
        ok = decision.status is AdmissionStatus.ADMITTED
        self.clock.ops[-1].ok = ok
        self.tally.check(ok, f"submit {query.name}: {decision.status.value}")
        if ok:
            expiry = math.inf if lifetime is None else self.now + lifetime
            naive = self.env.naive_cost(query)
            self.expected[query.name] = (expiry, naive)
            self.naive_live += naive

    def tick(self, kind: str = "tick", sample_cost: bool = True):
        report = self.call(kind, self.ctl.tick)
        self.now += 1
        for name in [n for n, (exp, _) in self.expected.items() if exp <= self.now]:
            self.naive_live -= self.expected.pop(name)[1]
        if report is None:
            return None
        live = len(self.ctl.live_queries)
        self.tally.check(
            live == len(self.expected),
            f"tick {self.now}: {live} live, script expects {len(self.expected)}",
        )
        if sample_cost and self.expected:
            self.cost_sum += self.ctl.total_cost()
            self.naive_sum += self.naive_live
        return report


class Workload:
    """Base class: one seeded workload run against one fresh controller."""

    name = ""
    submit_phases: tuple[str, ...] = ("timed",)
    tick_phases: tuple[str, ...] = ("timed",)

    def __init__(
        self, seed: int, scale: Scale, seconds: float, clock: Clock, tally: Tally, workdir: Path
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.clock = clock
        self.tally = tally
        self.workdir = workdir
        self.env: Env | None = None
        self.ctl = None
        self.driver: Driver | None = None
        self.facts: dict[str, float] = {}

    def setup(self) -> None:  # timed as ``setup_s``
        raise NotImplementedError

    def run(self, full: bool) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-script checks and layer facts read from public state."""
        driver = self.driver
        ratio = driver.cost_sum / driver.naive_sum if driver.naive_sum else math.nan
        self.facts["cost_ratio"] = ratio
        self.tally.check(ratio < 1.0, f"cost_ratio {ratio} is not below 1")

    def close(self) -> None:
        pass

    def _service(self, env: Env, **layers) -> StreamQueryService:
        ads = AdvertisementIndex(env.hierarchy)
        optimizer = make_optimizer(
            "top-down", env.network, env.rates, hierarchy=env.hierarchy, ads=ads
        )
        return StreamQueryService(
            optimizer,
            env.network,
            env.rates,
            hierarchy=env.hierarchy,
            ads=ads,
            admission=AdmissionController(budget=4096),
            cache=PlanCache(4096),
            **layers,
        )


class PlanCold(Workload):
    name = "plan_cold"
    PER_TICK = 3
    LIFETIME = 10.0

    def setup(self) -> None:
        count = scaled(self.scale.cold_queries, self.seconds)
        self.env = Env(self.seed, self.scale.nodes, self.scale.streams, count, MIX_2_5)
        self.ctl = self._service(self.env)
        self.driver = Driver(self.ctl, self.env, self.clock, self.tally)

    def run(self, full: bool) -> None:
        self.clock.phase = "timed"
        queries = self.env.queries
        for start in range(0, len(queries), self.PER_TICK):
            self.clock.spin()
            self.driver.tick()
            for query in queries[start : start + self.PER_TICK]:
                self.driver.submit(query, self.LIFETIME)


class ChurnWarm(Workload):
    name = "churn_warm"
    PER_TICK = 4

    def setup(self) -> None:
        self.env = Env(
            self.seed, self.scale.nodes, self.scale.streams, self.scale.warm_catalog, MIX_2_4
        )
        self.ctl = self._service(self.env)
        self.driver = Driver(self.ctl, self.env, self.clock, self.tally)
        self.lifetime = float(len(self.env.queries) // self.PER_TICK)
        self.clock.phase = "warmup"
        self._round(0)

    def _round(self, number: int) -> None:
        queries = self.env.queries
        for start in range(0, len(queries), self.PER_TICK):
            self.clock.spin()
            self.driver.tick()
            for query in queries[start : start + self.PER_TICK]:
                name = query.name if number == 0 else f"{query.name}.r{number}"
                self.driver.submit(renamed(query, name), self.lifetime)

    def run(self, full: bool) -> None:
        self.clock.phase = "timed"
        self.probes_before = self.ctl.cache.hits + self.ctl.cache.misses
        self.hits_before = self.ctl.cache.hits
        ticks = scaled(self.scale.warm_ticks, self.seconds)
        for number in range(1, 1 + math.ceil(ticks / self.lifetime)):
            self._round(number)

    def finish(self) -> None:
        super().finish()
        cache = self.ctl.cache
        probes = cache.hits + cache.misses - self.probes_before
        hits = cache.hits - self.hits_before
        self.tally.check(hits == probes, f"churn_warm cache hits {hits}/{probes}")


class LayersOn(Workload):
    name = "layers_on"
    submit_phases = ("fill",)
    tick_phases = ("steady",)

    def _build(self, env: Env, state_dir: Path) -> StreamQueryService:
        return self._service(
            env,
            resilience=ResilienceConfig(),
            adaptivity=AdaptivityConfig(max_migrations_per_tick=8),
            telemetry=TelemetryConfig(),
            durability=DurabilityConfig(
                state_dir=str(state_dir), snapshot_interval=SNAPSHOT_INTERVAL
            ),
            resources=ResourceConfig(
                capacities=uniform_capacities(
                    env.network, cpu=1e9, memory=1e9, bandwidth=1e9
                ),
                utilization_bound=1.0,
            ),
        )

    def _env(self) -> Env:
        count = self.scale.layers_fill + self.scale.layers_suffix[0]
        return Env(self.seed, self.scale.nodes, self.scale.streams, count, MIX_2_4)

    def setup(self) -> None:
        self.env = self._env()
        self.state_dir = self.workdir / "state"
        self.ctl = self._build(self.env, self.state_dir)
        self.driver = Driver(self.ctl, self.env, self.clock, self.tally)

    def run(self, full: bool) -> None:
        clock, driver, env = self.clock, self.driver, self.env
        fill = self.scale.layers_fill
        clock.phase = "fill"
        for query in env.queries[:fill]:
            clock.spin()
            driver.submit(query)
        clock.phase = "steady"
        ticks = scaled(self.scale.layers_ticks, self.seconds)
        # A whole number of snapshot intervals, so the suffix below is
        # what recover() has to replay.
        ticks = SNAPSHOT_INTERVAL * math.ceil(ticks / SNAPSHOT_INTERVAL)
        for _ in range(ticks):
            clock.spin()
            self.ctl.observe_rates(env.base_rates)
            driver.tick()
        if full:
            self._recover(env.queries[fill:])
            self._reoptimise()
            self._fail_node()

    def _recover(self, suffix: list[Query]) -> None:
        clock, driver = self.clock, self.driver
        clock.phase = "suffix"
        for query in suffix:
            clock.spin()
            driver.submit(query)
        for _ in range(self.scale.layers_suffix[1]):
            clock.spin()
            driver.tick(sample_cost=False)
        copy = self.workdir / "state_copy"
        shutil.copytree(self.state_dir, copy)
        clock.phase = "recover"
        clock.spin(8)
        outcome = driver.call(
            "recover", recovery_mod.recover, copy, lambda: self._build(self._env(), copy)
        )
        clock.spin(8)
        if outcome is None:
            return
        recovered, report = outcome
        self.facts["durability.recover.replayed"] = report.replayed_records
        live = self.ctl
        self.tally.check(
            sorted(recovered.live_queries) == sorted(live.live_queries)
            and recovered.clock == live.clock
            and recovered.total_cost() == live.total_cost(),
            "recovered controller differs from the live one "
            f"(clock {recovered.clock}/{live.clock}, "
            f"cost {recovered.total_cost()}/{live.total_cost()})",
        )
        recovered.durability.journal.close()

    def _reoptimise(self) -> None:
        """Triple the busiest stream's observed rate; tick until quiet."""
        clock, driver = self.clock, self.driver
        usage = Counter(
            s for d in self.ctl.engine.state.deployments for s in d.query.sources
        )
        stream = min(usage, key=lambda s: (-usage[s], s))
        drifted = dict(self.env.base_rates)
        drifted[stream] *= 3.0
        clock.phase = "reopt_wait"
        quiet = 0
        for _ in range(40):
            clock.spin()
            self.ctl.observe_rates(drifted)
            report = driver.tick(sample_cost=False)
            if report is None:
                break
            if report.drift_streams:
                # ``reopt_s`` starts with the tick that published the drift,
                # which is only known once that tick has returned.
                clock.phase = clock.ops[-1].phase = "reopt"
            if clock.phase == "reopt":
                quiet = 0 if report.migrated else quiet + 1
                if quiet == 2:
                    break
        clock.spin(8)
        self.tally.check(quiet == 2, "re-optimisation did not publish and settle in 40 ticks")

    def _fail_node(self) -> None:
        """Fail the operator node serving closest to live/10 queries."""
        clock, driver = self.clock, self.driver
        deployments = self.ctl.engine.state.deployments
        serving = Counter(
            node for d in deployments for node in set(d.operator_nodes.values())
        )
        barred = {self.env.rates.source(s) for s in self.env.base_rates}
        barred |= {d.query.sink for d in deployments}
        target = len(deployments) / 10
        eligible = sorted(
            (abs(count - target), node)
            for node, count in serving.items()
            if node not in barred
        )
        if not eligible:  # tiny smoke networks only
            return
        node = eligible[0][1]
        clock.phase = "failover"
        clock.spin(8)
        report = driver.call("failover", self.ctl.handle_node_failure, node)
        if report is not None:
            self.tally.check(
                not report.lost
                and all(d.status is AdmissionStatus.ADMITTED for d in report.decisions),
                f"failover of node {node} lost {report.lost} or queued a survivor",
            )
        driver.tick("failover", sample_cost=False)
        clock.spin(8)

    def finish(self) -> None:
        super().finish()
        ctl = self.ctl
        utilization = ctl.resources.ledger.max_utilization()
        self.tally.check(utilization <= 1.0, f"ledger max_utilization {utilization} > 1")
        sizes = {p.name: p.stat().st_size for p in self.state_dir.iterdir() if p.is_file()}
        self.facts["durability.journal_bytes"] = sizes.pop("journal.jsonl", 0)
        self.facts["durability.snapshot_bytes"] = sum(sizes.values())
        self.facts["obs.telemetry.series"] = len(ctl.telemetry.store.names())
        self.facts["adaptive.migrations"] = ctl.adaptivity.summary()["migrations_committed"]

    def close(self) -> None:
        if self.ctl is not None:
            self.ctl.durability.journal.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


class FleetShards(Workload):
    name = "fleet_shards"
    PER_TICK = 4
    SINK_SHIFT = 5

    def setup(self) -> None:
        self.env = env = Env(
            self.seed, self.scale.nodes, self.scale.streams, self.scale.fleet_catalog, MIX_2_4
        )
        self.ctl = FleetController(
            4,
            env.network,
            env.rates,
            env.hierarchy,
            algorithm="bottom-up",
            policy="hash",
            budget=4096,
            cache_capacity=4096,
            tenants=[Tenant("gold", weight=3.0), Tenant("bronze", weight=1.0)],
            federation=True,
        )
        self.driver = Driver(self.ctl, env, self.clock, self.tally)
        # The originals ramp the fleet to its live plateau untimed, so
        # every timed call runs in one regime (retire beside deploy).
        self.clock.phase = "warmup"
        self._submit(range(len(env.queries)))

    def _submit(self, indices) -> None:
        """Round 0 submits the originals, every later round their
        sink-shifted twins (the lab's ``twin_burst`` idiom)."""
        catalog = self.env.queries
        lifetime = float(len(catalog) // self.PER_TICK)
        nodes = self.env.network.num_nodes
        for i in indices:
            if i % self.PER_TICK == 0:
                self.clock.spin()
                self.driver.tick()
            twin, original = divmod(i, len(catalog))
            query = catalog[original]
            if twin:
                query = renamed(
                    query,
                    f"{query.name}__twin{twin}",
                    sink=(query.sink + twin * self.SINK_SHIFT) % nodes,
                )
            tenant = "bronze" if i % 4 == 3 else "gold"
            self.driver.submit(query, lifetime, tenant=tenant)

    def run(self, full: bool) -> None:
        self.clock.phase = "timed"
        first = len(self.env.queries)
        self._submit(range(first, first + scaled(self.scale.fleet_submits, self.seconds)))

    def finish(self) -> None:
        super().finish()
        fleet = self.ctl
        problems = fleet.check_invariants()
        self.tally.check(not problems, f"fleet invariants: {problems[:3]}")
        owners_ok = all(
            sum(shard.is_live(name) for shard in fleet.shards) == 1
            and fleet.shard_of(name) is not None
            for name in fleet.live_queries
        )
        self.tally.check(owners_ok, "a live query does not have exactly one owner shard")
        summary = fleet.summary()
        live = [shard["live"] for shard in summary["per_shard"]]
        self.facts["fleet.shard_imbalance_x"] = max(live) / (sum(live) / len(live))
        self.facts["fleet.cross_shard_reuse"] = summary["cross_shard_reuse_total"]
        self.facts["fleet.federation.imported"] = summary["federation"]["imported_total"]


WORKLOADS = {w.name: w for w in (PlanCold, ChurnWarm, LayersOn, FleetShards)}


# ----------------------------------------------------------------------
# Planner sanity on a side sample
# ----------------------------------------------------------------------
def planner_sanity(seed: int, tally: Tally) -> None:
    """On 24 nodes / 8 queries: optimal <= hierarchical planners <= naive."""
    env = Env(seed, 24, 8, 8, {2: 0.5, 3: 0.5})
    planners = {
        name: make_optimizer(
            name, env.network, env.rates, hierarchy=env.hierarchy, reuse=False
        )
        for name in ("optimal", "top-down", "bottom-up")
    }
    for query in env.queries:
        cost = {
            name: deployment_cost(planner.plan(query), env.costs, env.rates)
            for name, planner in planners.items()
        }
        naive = env.naive_cost(query)
        slack = 1e-9 * naive
        for name in ("top-down", "bottom-up"):
            tally.check(
                cost["optimal"] - slack <= cost[name] <= naive + slack,
                f"{query.name}: {name} cost {cost[name]} outside "
                f"[optimal {cost['optimal']}, naive {naive}]",
            )
