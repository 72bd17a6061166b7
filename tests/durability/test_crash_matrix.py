"""The acceptance bar: crash-restart equivalence across seeded points.

Every derived crash point -- command boundaries, deploy/retire markers,
each migration barrier phase, mid-snapshot, torn tails -- must recover
to a controller whose deployments, costs, queues and *next-N tick
decisions* are identical to an uncrashed run, with hierarchy and fleet
invariants clean after every recovery.
"""

import pytest

from repro.durability.harness import (
    crash_restart_matrix,
    default_crash_points,
    fleet_scenario,
    layered_scenario,
    run_steps,
    service_scenario,
)
from repro.durability.journal import JOURNAL_FILE, scan_journal


class TestServiceMatrix:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        scenario = service_scenario()
        return crash_restart_matrix(
            scenario, tmp_path_factory.mktemp("service-matrix"), extra_ticks=4
        )

    def test_every_point_converges(self, report):
        assert report["converged"], [
            p for p in report["points"]
            if not p.get("digest_match") or p.get("invariant_violations")
        ]
        assert report["points_fired"] == len(report["points"])
        assert report["points_matched"] == len(report["points"])

    def test_at_least_ten_distinct_points(self, report):
        keys = {
            (p["after_lsn"], p["torn_tail"], p["mid_snapshot"])
            for p in report["points"]
        }
        assert len(keys) >= 10

    def test_matrix_covers_every_barrier_phase_and_mid_snapshot(
        self, tmp_path
    ):
        scenario = service_scenario()
        state_dir = tmp_path / "probe"
        run_steps(scenario, scenario.factory(state_dir))
        records, _ = scan_journal(state_dir / JOURNAL_FILE)
        kinds = {r["kind"] for r in records}
        phases = {
            r["data"]["phase"] for r in records if r["kind"] == "migrate_phase"
        }
        assert {"migrate_begin", "migrate_commit", "snapshot"} <= kinds
        assert phases == {"pause", "transfer", "resume", "swap"}
        points = default_crash_points(records)
        assert any(p.mid_snapshot for p in points)
        assert any(p.torn_tail for p in points)
        # A clean crash point lands on (or immediately after) every
        # barrier record, so recovery resumes mid-migration at each phase.
        barrier_lsns = {
            r["lsn"]
            for r in records
            if r["kind"] in ("migrate_begin", "migrate_phase", "migrate_commit")
        }
        covered = {p.after_lsn for p in points if not p.torn_tail}
        assert len(barrier_lsns & covered) >= 6

    def test_invariants_clean_after_every_recovery(self, report):
        for point in report["points"]:
            assert point["invariant_violations"] == []


class TestFleetMatrix:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        scenario = fleet_scenario()
        return crash_restart_matrix(
            scenario, tmp_path_factory.mktemp("fleet-matrix"), extra_ticks=4
        )

    def test_every_point_converges(self, report):
        assert report["converged"], [
            p for p in report["points"]
            if not p.get("digest_match") or p.get("invariant_violations")
        ]
        assert report["points_fired"] == len(report["points"])

    def test_at_least_ten_distinct_points(self, report):
        assert len(report["points"]) >= 10

    def test_rebalance_barriers_recover(self, report):
        # At least one crash point lands inside the cross-shard
        # rebalance's migrate ladder and still converges.
        mid_migration = [
            p for p in report["points"]
            if p.get("recovery", {}).get("in_flight_migrations")
        ]
        assert mid_migration
        for point in mid_migration:
            assert point["digest_match"]

    def test_invariants_clean_after_every_recovery(self, report):
        for point in report["points"]:
            assert point["invariant_violations"] == []


class TestLayeredMatrix:
    """Resilience, adaptivity and resources armed together, faults on:
    the injector crashes a node, a resubmission parks for capacity, and
    every layer's own section is part of the digest."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        return crash_restart_matrix(
            layered_scenario(), tmp_path_factory.mktemp("layered-matrix"), extra_ticks=4
        )

    def test_every_point_converges_with_clean_invariants(self, report):
        assert report["converged"], [
            p for p in report["points"]
            if not p.get("digest_match") or p.get("invariant_violations")
        ]
        assert report["points_matched"] == len(report["points"]) >= 10
        assert all(p["invariant_violations"] == [] for p in report["points"])

    def test_the_script_parks_for_capacity_and_fails_a_node(self, tmp_path):
        scenario = layered_scenario()
        service = scenario.factory(tmp_path / "probe")
        run_steps(scenario, service)
        records, _ = scan_journal(tmp_path / "probe" / JOURNAL_FILE)
        parks = [r["data"] for r in records if r["kind"] == "park"]
        assert len(parks) == 1 and "no feasible placement" in parks[0]["reason"]
        crash, rejoin = service.faults.applied
        assert crash["kind"] == "crash" and crash["retired"] == [parks[0]["query"]]
        assert rejoin["kind"] == "rejoin" and rejoin["rejoined"]
        assert [name for name, _ in service.layers()] == [
            "resilience", "faults", "adaptivity", "resources",
        ]
        assert service.resources.shed_total and service.resilience.breakers.total_opens()
