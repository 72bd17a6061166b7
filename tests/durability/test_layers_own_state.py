"""Layers own their snapshot section; the codec reaches into nobody.

* an ``ast`` walk keeps ``src/repro/durability/`` from touching another
  object's underscore attributes again (the network, the rate model and
  the plan cache included) and from importing the layer packages;
* arming ``durability=`` over a layer without ``capture`` / ``restore``,
  or a fleet whose routing policy has no ``capture``, fails at
  construction;
* a snapshot that does not fit the controller the recovery factory
  built -- a section for a layer it forgot, no section for one it added,
  another state version -- is refused with one typed error instead of
  recovering "successfully" with that state gone; one whose fields do
  not restore is a ``RecoveryError`` naming the file and the cause.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.durability import DurabilityConfig, load_latest, recover
from repro.durability.snapshot import SnapshotWriter, list_snapshots
from repro.errors import RecoveryError, ReproError, StateMismatchError
from repro.obs.telemetry import Telemetry
from repro.resilience import NULL_FAULTS, ResilienceConfig
from repro.resources import ResourceConfig, uniform_capacities
from repro.service import StreamQueryService

_LAYER_PACKAGES = ("repro.adaptive", "repro.resilience", "repro.resources", "repro.fleet")


def test_the_codec_reads_no_private_field_of_another_object():
    package = Path(repro.__file__).parent / "durability"
    reached, imported = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                receiver = ast.unparse(node.value)
                if not node.attr.startswith("__") and receiver != "self":
                    reached.append(f"{path.name}:{node.lineno} {receiver}.{node.attr}")
            if path.name == "state.py" and isinstance(node, ast.ImportFrom):
                if (node.module or "").startswith(_LAYER_PACKAGES):
                    imported.append(f"{path.name}:{node.lineno} {node.module}")
    assert reached == []
    assert imported == []


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------
def build(state_dir, **layers) -> StreamQueryService:
    net = repro.transit_stub_by_size(24, seed=7)
    hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=8, num_queries=6, joins_per_query=(2, 3)),
        seed=8,
    )
    rates = workload.rate_model()
    if layers.pop("tight", False):
        # Nothing fits: every submission parks for capacity.
        tight = uniform_capacities(net, cpu=1.0, memory=1.0, bandwidth=1.0)
        layers["resources"] = ResourceConfig(capacities=tight)
    service = StreamQueryService(
        repro.make_optimizer("top-down", net, rates, hierarchy=hierarchy),
        net,
        rates,
        hierarchy=hierarchy,
        durability=DurabilityConfig(state_dir=str(state_dir), snapshot_interval=2),
        **layers,
    )
    service.workload = workload
    return service


def crashed_run(state_dir, **layers) -> StreamQueryService:
    """A run that submitted the workload, snapshotted, and died."""
    service = build(state_dir, **layers)
    for query in service.workload:
        service.submit(query)
    service.tick()
    service.tick()
    assert load_latest(state_dir)[0] is not None
    service.durability.journal.close()
    return service


def rewrite_snapshot(state_dir, edit) -> None:
    """Apply ``edit(state)`` to the newest snapshot, CRC kept valid."""
    snapshot, _ = load_latest(state_dir)
    edit(snapshot["state"])
    SnapshotWriter(state_dir).write(
        snapshot["lsn"], snapshot["scope"], snapshot["state"], time=snapshot["time"]
    )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
class DeafInjector(type(NULL_FAULTS)):
    """A fault injector that cannot write its section."""

    enabled = True
    capture = None


def test_arming_durability_over_a_layer_without_the_pair_is_a_type_error(tmp_path):
    with pytest.raises(TypeError, match=r"'faults' layer: DeafInjector has no capture\(\)"):
        build(tmp_path, faults=DeafInjector())


class FirstShardPolicy:
    """A custom routing policy that cannot write its section."""

    name = "first"

    def assign(self, query, num_shards, loads):
        return 0


def test_arming_durability_over_a_policy_without_capture_is_a_type_error(tmp_path):
    net = repro.transit_stub_by_size(24, seed=7)
    hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
    workload = repro.generate_workload(
        net, repro.WorkloadParams(num_streams=8, num_queries=4), seed=8
    )
    rates = workload.rate_model()
    durability = DurabilityConfig(state_dir=str(tmp_path))
    with pytest.raises(
        TypeError, match=r"'router.policy' layer: FirstShardPolicy has no capture\(\)"
    ):
        repro.FleetController(
            2, net, rates, hierarchy, policy=FirstShardPolicy(), durability=durability
        )
    # Without durability the policy routes as before.
    fleet = repro.FleetController(2, net, rates, hierarchy, policy=FirstShardPolicy())
    assert fleet.router.route(workload.queries[0]) == 0


def test_telemetry_says_it_is_not_captured():
    assert Telemetry().capture() is None
    assert "not decision state" in Telemetry.capture.__doc__


# ----------------------------------------------------------------------
# Recovery refuses what it would have to drop
# ----------------------------------------------------------------------
def test_a_section_for_a_layer_the_factory_forgot_is_refused(tmp_path):
    crashed = crashed_run(tmp_path, resilience=ResilienceConfig(), tight=True)
    assert len(crashed.resources.parked) == len(crashed.workload.queries)
    with pytest.raises(StateMismatchError, match="'resources' section") as caught:
        recover(tmp_path, lambda: build(tmp_path, resilience=ResilienceConfig()))
    assert isinstance(caught.value, ReproError) and isinstance(caught.value, ValueError)
    # The same factory with the layer armed gets every parked query back.
    recovered, _ = recover(
        tmp_path, lambda: build(tmp_path, resilience=ResilienceConfig(), tight=True)
    )
    assert sorted(recovered.resources.parked) == sorted(crashed.resources.parked)
    recovered.durability.journal.close()


def test_an_armed_layer_without_a_section_is_refused(tmp_path):
    crashed_run(tmp_path)
    with pytest.raises(StateMismatchError, match="no 'resilience' section"):
        recover(tmp_path, lambda: build(tmp_path, resilience=ResilienceConfig()))


def test_a_snapshot_of_another_state_version_is_refused(tmp_path):
    crashed_run(tmp_path)
    rewrite_snapshot(tmp_path, lambda state: state.update(version=0))
    with pytest.raises(StateMismatchError, match="state version is 0"):
        recover(tmp_path, lambda: build(tmp_path))


@pytest.mark.parametrize(
    "edit, cause",
    [
        (lambda state: state["hierarchy"].pop("root"), "KeyError"),
        (lambda state: state["cache"].update(entries="x"), "TypeError"),
        (lambda state: state["state"].update(deployments={}), "KeyError"),
        (lambda state: state["rates"].update(streams=None), "TypeError"),
    ],
    ids=("hierarchy-root-deleted", "cache-entries-a-string", "deployments-a-dict", "streams-null"),
)
def test_a_snapshot_whose_fields_do_not_restore_stops_recovery(tmp_path, edit, cause):
    """As a CRC-valid journal record that cannot be replayed does."""
    crashed_run(tmp_path)
    rewrite_snapshot(tmp_path, edit)
    newest = list_snapshots(tmp_path)[-1]
    assert newest["valid"]
    with pytest.raises(RecoveryError, match=rf"snapshot {newest['file']} .*: {cause}: "):
        recover(tmp_path, lambda: build(tmp_path))


def test_a_file_from_before_the_resources_section_starts_the_manager_empty(tmp_path):
    crashed_run(tmp_path, tight=True)
    rewrite_snapshot(tmp_path, lambda state: state.pop("resources"))
    recovered, report = recover(tmp_path, lambda: build(tmp_path, tight=True))
    assert report.snapshot_lsn > 0
    assert recovered.resources.parked == {} and recovered.resources.shed_total == 0
    recovered.durability.journal.close()


def test_a_routing_policy_other_than_the_snapshots_is_refused(tmp_path):
    def fleet(policy):
        net = repro.transit_stub_by_size(24, seed=7)
        hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
        workload = repro.generate_workload(
            net, repro.WorkloadParams(num_streams=8, num_queries=4), seed=8
        )
        built = repro.FleetController(
            2, net, workload.rate_model(), hierarchy, policy=policy,
            durability=DurabilityConfig(state_dir=str(tmp_path), snapshot_interval=1),
        )
        built.workload = workload
        return built

    crashed = fleet("subtree")
    for query in crashed.workload:
        crashed.submit(query)
    crashed.tick()
    crashed.durability.journal.close()
    assert load_latest(tmp_path)[0]["state"]["router"]["policy_keys"]
    with pytest.raises(StateMismatchError, match="'router.policy_keys' section"):
        recover(tmp_path, lambda: fleet("hash"))
