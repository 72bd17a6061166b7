"""Tenants: quotas, backlog bounds, weighted-fair admission."""

import pytest

import repro
from repro.errors import AdmissionError
from repro.fleet import Tenant, TenantDirectory, WeightedFairScheduler
from repro.resilience.faults import NodeCrash

from tests.fleet.conftest import build_env, build_fleet


class TestTenantRecords:
    def test_validation(self):
        with pytest.raises(AdmissionError):
            Tenant("", weight=1.0)
        with pytest.raises(AdmissionError):
            Tenant("t", weight=0.0)
        with pytest.raises(AdmissionError):
            Tenant("t", quota=0)

    def test_directory_rejects_duplicates(self):
        directory = TenantDirectory([Tenant("a")])
        with pytest.raises(AdmissionError):
            directory.register(Tenant("a"))
        assert [tenant.name for tenant in directory] == ["a"]
        assert directory.get("a") is not None and directory.get("b") is None


class TestWeightedFairScheduler:
    def test_drain_ratio_matches_weights(self):
        directory = TenantDirectory([Tenant("gold", 3.0), Tenant("bronze", 1.0)])
        scheduler = WeightedFairScheduler(directory)
        for i in range(100):
            scheduler.enqueue("gold", f"g{i}")
            scheduler.enqueue("bronze", f"b{i}")
        picks = [scheduler.pick()[0] for _ in range(40)]
        assert picks.count("gold") == 30
        assert picks.count("bronze") == 10

    def test_idle_tenant_banks_no_credit(self):
        directory = TenantDirectory([Tenant("a", 1.0), Tenant("b", 1.0)])
        scheduler = WeightedFairScheduler(directory)
        for i in range(10):
            scheduler.enqueue("a", f"a{i}")
        for _ in range(10):
            assert scheduler.pick()[0] == "a"  # b idle: earns nothing
        for i in range(4):
            scheduler.enqueue("a", f"x{i}")
            scheduler.enqueue("b", f"y{i}")
        picks = [scheduler.pick()[0] for _ in range(8)]
        assert picks.count("a") == 4 and picks.count("b") == 4

    def test_ineligible_head_skipped_without_charge(self):
        directory = TenantDirectory([Tenant("a", 1.0), Tenant("b", 1.0)])
        scheduler = WeightedFairScheduler(directory)
        scheduler.enqueue("a", "blocked")
        scheduler.enqueue("b", "ok")
        picked = scheduler.pick(lambda name, item: item != "blocked")
        assert picked == ("b", "ok")
        assert scheduler.backlog("a") == 1

    def test_unknown_tenant_rejected(self):
        scheduler = WeightedFairScheduler(TenantDirectory([Tenant("a")]))
        with pytest.raises(AdmissionError):
            scheduler.enqueue("ghost", "x")


class TestFleetTenancy:
    def test_quota_enforced(self, fleet_env):
        fleet = build_fleet(
            fleet_env, num_shards=2, budget=8,
            tenants=[Tenant("capped", quota=2), Tenant("free")],
        )
        _, _, workload, _ = fleet_env
        queries = [workload.queries[i].renamed(f"c{i}") for i in range(3)]
        assert fleet.submit(queries[0], tenant="capped").admitted
        assert fleet.submit(queries[1], tenant="capped").admitted
        third = fleet.submit(queries[2], tenant="capped")
        assert third.rejected
        assert "quota" in third.decision.reason
        # another tenant is unaffected
        assert fleet.submit(workload.queries[3].renamed("f0"), tenant="free").admitted
        # retiring frees quota
        fleet.retire(queries[0].name)
        assert fleet.submit(queries[2], tenant="capped").admitted

    def test_unknown_tenant_rejected(self, fleet_env):
        fleet = build_fleet(fleet_env, tenants=[Tenant("a"), Tenant("b")])
        _, _, workload, _ = fleet_env
        decision = fleet.submit(workload.queries[0], tenant="ghost")
        assert decision.rejected
        assert "unknown tenant" in decision.decision.reason
        decision = fleet.submit(workload.queries[0])  # ambiguous: no default
        assert decision.rejected

    def test_single_tenant_is_implicit_default(self, fleet_env):
        fleet = build_fleet(fleet_env, tenants=[Tenant("only")])
        _, _, workload, _ = fleet_env
        decision = fleet.submit(workload.queries[0])
        assert decision.admitted
        assert decision.tenant == "only"

    def test_overload_admit_rate_proportional_to_weights(self, fleet_env):
        """Acceptance: under 2x overload, admits follow the 3:1 weights."""
        fleet = build_fleet(
            fleet_env, num_shards=2, budget=2,
            tenants=[Tenant("gold", weight=3.0), Tenant("bronze", weight=1.0)],
        )
        _, _, workload, _ = fleet_env
        admitted_at_warmup = None
        n = 0
        for t in range(1, 61):
            fleet.tick(float(t))
            if t == 10:
                admitted_at_warmup = {
                    name: fleet.tenant_summary()[name]["admitted"]
                    for name in ("gold", "bronze")
                }
            # fleet capacity is 4 concurrent with lifetime 1 -> ~4
            # admissions/tick; 8 arrivals/tick = sustained 2x overload
            for k in range(4):
                for tenant in ("gold", "bronze"):
                    base = workload.queries[n % len(workload.queries)]
                    fleet.submit(
                        base.renamed(f"{tenant}-{n}-{k}"),
                        lifetime=1.0, tenant=tenant,
                    )
                n += 1
        summary = fleet.tenant_summary()
        gold = summary["gold"]["admitted"] - admitted_at_warmup["gold"]
        bronze = summary["bronze"]["admitted"] - admitted_at_warmup["bronze"]
        assert gold > bronze
        ratio = gold / bronze
        expected = 3.0  # weight ratio
        assert expected * 0.75 <= ratio <= expected * 1.25
        assert fleet.check_invariants() == []

    def test_tenant_metrics_exposed(self, fleet_env):
        fleet = build_fleet(fleet_env, tenants=[Tenant("gold", 2.0)])
        _, _, workload, _ = fleet_env
        fleet.submit(workload.queries[0], tenant="gold")
        names = fleet.registry.names()
        for name in (
            "tenant_submitted_total_gold",
            "tenant_admitted_total_gold",
            "tenant_rejected_total_gold",
            "tenant_live_gold",
        ):
            assert name in names
        assert fleet.registry.get("tenant_live_gold").value == 1.0


class TestTenantSinkLiveness:
    """A tenant fleet's front door makes the shard's checks: a sink that
    has left the hierarchy is refused at submit, and a sink that dies
    while its query waits in the backlog is refused at the drain.  A
    crash mutates the hierarchy, so each test builds its own world."""

    @pytest.fixture()
    def fleet_env(self):
        return build_env()

    def _fleet(self, fleet_env, crash_node):
        fault = repro.FaultInjector(repro.FaultPlan([NodeCrash(time=1.0, node=crash_node)]))
        return build_fleet(
            fleet_env, num_shards=1, budget=1, tenants=[Tenant("t")],
            service_kwargs={"resilience": repro.ResilienceConfig(), "faults": fault},
        )

    def _pair(self, fleet_env):
        _, _, workload, rates = fleet_env
        first = workload.queries[0]
        waiting = next(
            q for q in workload.queries[1:]
            if q.sink not in rates.endpoints(first) and q.sink != first.sink
        )
        return first.renamed("a"), waiting.renamed("b")

    def test_submit_with_a_crashed_sink_is_rejected(self, fleet_env):
        first, waiting = self._pair(fleet_env)
        fleet = self._fleet(fleet_env, waiting.sink)
        assert fleet.submit(first, tenant="t").admitted
        fleet.tick(1.0)  # the crash lands; the budget is still full
        decision = fleet.submit(waiting, tenant="t")
        assert decision.rejected
        assert decision.decision.reason == (
            f"sink {waiting.sink} is not a live hierarchy node"
        )
        assert fleet.router.owner(waiting.name) is None
        assert fleet.tenant_summary()["t"]["rejected"] == 1

    def test_a_sink_dying_in_the_backlog_is_rejected_at_the_drain(self, fleet_env):
        first, waiting = self._pair(fleet_env)
        fleet = self._fleet(fleet_env, waiting.sink)
        assert fleet.submit(first, tenant="t", lifetime=1.0).admitted
        queued = fleet.submit(waiting, tenant="t")
        assert queued.status is repro.AdmissionStatus.QUEUED
        # One tick crashes the sink, retires the first query and drains
        # the backlog into the freed budget: the shard refuses it.
        report = fleet.tick(1.0)
        assert report.deployed == []
        assert fleet.router.owner(waiting.name) is None
        assert waiting.name not in fleet.capture()["tenants"]["tenant_of"]
        assert fleet.scheduler.total_backlog == 0
        summary = fleet.tenant_summary()["t"]
        assert summary["rejected"] == 1 and summary["live"] == 0
