"""No reference cycles on the submit and tick paths.

Everything a plan, a submit or a tick throws away must be freed by
reference counting.  An object caught in a reference cycle waits for
CPython's cyclic collector instead, and each collection pauses whichever
call crossed the allocation threshold.  Each scenario below runs with
the collector off and ``gc.DEBUG_SAVEALL`` on, so ``gc.collect()`` keeps
every unreachable cycle in ``gc.garbage``; none may be made by
``repro``.  Live structures (a hierarchy's parent links, a service and
its layers) stay referenced throughout and are not garbage.

The usual maker of such cycles is a nested function that calls itself:
its closure cell points back at the function.  An AST check forbids
them in ``src/repro`` outright.
"""

import ast
import gc
import types
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import repro
from repro.adaptive.loop import AdaptivityConfig
from repro.core import enumeration
from repro.core.enumeration import JoinProgram
from repro.durability import DurabilityConfig
from repro.errors import InfeasiblePlacementError
from repro.fleet import FleetController, Tenant
from repro.hierarchy import AdvertisementIndex
from repro.obs.telemetry import TelemetryConfig
from repro.query.deployment import DeploymentState
from repro.query.plan import Join, Leaf
from repro.resilience.degradation import ResilienceConfig
from repro.resources import (
    Load,
    NodeCapacity,
    OperatorFootprint,
    PlacementConstraint,
    ResourceConfig,
    uniform_capacities,
)
from repro.service import StreamQueryService
from repro.workload import WorkloadParams, build_world
from tests.core.reference_search import program_tree

SRC = Path(repro.__file__).resolve().parent


def _world():
    params = WorkloadParams(num_streams=8, num_queries=14, joins_per_query=(1, 5))
    return build_world(48, params, network_seed=5, workload_seed=6, hierarchy_seeds={5: 0})


def _made_by_repro(obj) -> bool:
    if isinstance(obj, types.FunctionType):
        return (obj.__module__ or "").startswith("repro.")
    return type(obj).__module__.startswith("repro.")


def _label(obj) -> str:
    if isinstance(obj, types.FunctionType):
        return f"{obj.__module__}.{obj.__qualname__}"
    return f"{type(obj).__module__}.{type(obj).__qualname__}"


@contextmanager
def repro_cycles():
    """Yield a list that, when the block exits, names (with counts) every
    ``repro`` function or instance in a cycle the block left behind."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    start = len(gc.garbage)
    found: list[tuple[str, int]] = []
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        yield found
        gc.collect()
        made = Counter(_label(obj) for obj in gc.garbage[start:] if _made_by_repro(obj))
        found.extend(made.most_common())
    finally:
        del gc.garbage[start:]
        gc.set_debug(flags)
        if enabled:
            gc.enable()


def _capped(network, rates):
    """Stands in for a resource manager: a bound that binds, plus a load
    penalty, so the constrained DP path runs."""
    footprint = OperatorFootprint(rates)
    capacities = {node: NodeCapacity(cpu=400.0 + 150.0 * (node % 5)) for node in network.nodes()}
    return SimpleNamespace(
        constraint_for=lambda query: PlacementConstraint(
            query=query, footprint=footprint, capacities=capacities,
            base_loads={0: Load(cpu=50.0)}, load_weight=0.5,
        )
    )


def _plan_all(name, world, constrained):
    """Plan and apply every query; the number planned and of them reusing
    a deployed view."""
    network, rates = world.network, world.rates
    optimizer = repro.make_optimizer(name, network, rates, hierarchy=world.hierarchy())
    optimizer.resources = _capped(network, rates) if constrained else None
    state = DeploymentState(network.cost_matrix(), rates.rate, rates.source)
    planned = reusing = 0
    for query in world.workload:
        try:
            deployment = optimizer.plan(query, state)
        except InfeasiblePlacementError:
            continue
        state.apply(deployment)
        planned += 1
        reusing += any(not leaf.is_base_stream for leaf in deployment.plan.leaves())
    return planned, reusing


def test_planners_leave_no_cycles():
    world = _world()
    enumeration.join_program.cache_clear()  # fresh programs, not cached ones
    with repro_cycles() as found:
        for name in ("top-down", "bottom-up"):
            for constrained in (False, True):
                planned, reusing = _plan_all(name, world, constrained)
                assert planned and reusing
        # One fresh program shape, built and walked directly.
        query = max(world.workload, key=lambda q: len(q.sources))
        views = [frozenset((stream,)) for stream in query.sources]
        program = JoinProgram(len(views), enumeration.crossing_splits(query, views))
        rows: dict = {}
        program_tree(program, [Leaf(view) for view in views], program.trees - 1, rows)
        assert len(rows) == 2 * len(views) - 1
    assert found == []


def _service(world, **layers):
    hierarchy = world.hierarchy()
    ads = AdvertisementIndex(hierarchy)
    optimizer = repro.make_optimizer(
        "top-down", world.network, world.rates, hierarchy=hierarchy, ads=ads
    )
    return StreamQueryService(
        optimizer, world.network, world.rates, hierarchy=hierarchy, ads=ads, **layers
    )


def _drive(ctl, queries):
    for index, query in enumerate(queries):
        ctl.submit(query, lifetime=3.0 if index % 2 else None)
        if index % 3 == 2:
            ctl.tick()
    for _ in range(4):
        ctl.tick()


def test_bare_service_submits_and_ticks_leave_no_cycles():
    world = _world()
    service = _service(world)
    with repro_cycles() as found:
        _drive(service, world.workload)
    assert service.live_queries
    assert found == []


def test_layered_service_with_a_snapshot_leaves_no_cycles(tmp_path):
    world = _world()
    service = _service(
        world,
        resilience=ResilienceConfig(),
        adaptivity=AdaptivityConfig(max_migrations_per_tick=8),
        telemetry=TelemetryConfig(),
        durability=DurabilityConfig(state_dir=str(tmp_path), snapshot_interval=4),
        resources=ResourceConfig(
            capacities=uniform_capacities(world.network, cpu=1e9, memory=1e9, bandwidth=1e9),
            utilization_bound=1.0,
        ),
    )
    try:
        with repro_cycles() as found:
            _drive(service, world.workload)
    finally:
        service.durability.journal.close()
    assert list(tmp_path.glob("snapshot-*.json"))
    assert found == []


def test_federated_fleet_tick_leaves_no_cycles():
    world = _world()
    fleet = FleetController(
        2, world.network, world.rates, world.hierarchy(),
        policy="hash", budget=64, federation=True,
        tenants=[Tenant("gold", weight=3.0), Tenant("bronze", weight=1.0)],
    )
    with repro_cycles() as found:
        for index, query in enumerate(world.workload):
            fleet.submit(query, tenant=("gold", "bronze")[index % 2])
            fleet.submit(query.renamed(f"{query.name}_twin"), tenant="gold")
        fleet.tick()
    assert found == []


def _self_recursive_nested_functions(root: Path) -> list[str]:
    """``path:line name`` of every function defined inside another that
    calls itself by name."""
    hits = []
    for path in sorted(root.rglob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if any(
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == inner.name
                    for node in ast.walk(inner)
                ):
                    hits.append(f"{path.relative_to(root.parent)}:{inner.lineno} {inner.name}")
    return sorted(set(hits))


def test_no_nested_function_in_src_calls_itself():
    assert _self_recursive_nested_functions(SRC) == []


def test_the_ast_check_finds_a_self_recursive_closure(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def outer(tree):\n"
        "    def walk(node):\n"
        "        return [node] + [x for c in node.children for x in walk(c)]\n"
        "    return walk(tree)\n"
    )
    assert _self_recursive_nested_functions(tmp_path) == [f"{tmp_path.name}/mod.py:2 walk"]


def _leaf_count_by_closure(tree) -> int:
    """The shape the AST check forbids: ``walk``'s cell points back at
    ``walk``, and its closure holds the ``leaves`` it filled."""
    leaves = []

    def walk(node):
        if isinstance(node, Leaf):
            leaves.append(node)
        else:
            walk(node.left)
            walk(node.right)

    walk(tree)
    return len(leaves)


def test_the_guard_sees_what_a_self_recursive_closure_strands():
    with repro_cycles() as found:
        assert _leaf_count_by_closure(Join(Leaf(frozenset("A")), Leaf(frozenset("B")))) == 2
    assert found == [("repro.query.plan.Leaf", 2)]
