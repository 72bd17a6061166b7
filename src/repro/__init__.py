"""repro -- reproduction of *Optimizing Multiple Distributed Stream
Queries Using Hierarchical Network Partitions* (IPDPS 2007).

The package implements the paper's joint query-plan + deployment
optimization for multiple continuous stream queries, including the
Top-Down and Bottom-Up hierarchical algorithms, the optimal reference
planner, the phased baselines it is compared against, the network and
runtime substrates, and a per-figure experiment harness.

Quickstart::

    import repro

    net = repro.transit_stub_by_size(64, seed=1)
    hierarchy = repro.build_hierarchy(net, max_cs=16, seed=0)
    workload = repro.generate_workload(net, seed=2)
    rates = workload.rate_model()

    optimizer = repro.TopDownOptimizer(hierarchy, rates)
    state = repro.DeploymentState(net.cost_matrix(), rates.rate, rates.source)
    for query in workload:
        deployment = optimizer.plan(query, state)
        print(query.name, deployment.plan.pretty(), state.apply(deployment))

See ``examples/`` for runnable end-to-end scenarios and ``benchmarks/``
for the scripts regenerating every figure in the paper's evaluation.
"""

from repro.network import (
    Network,
    motivating_network,
    random_geometric,
    transit_stub,
    transit_stub_by_size,
)
from repro.hierarchy import AdvertisementIndex, Hierarchy, build_hierarchy
from repro.query import (
    Deployment,
    DeploymentState,
    Filter,
    Join,
    JoinPredicate,
    Leaf,
    Query,
    StreamSpec,
    ViewSignature,
    parse_query,
)
from repro.core import (
    BottomUpOptimizer,
    BruteForceSearch,
    OptimalPlanner,
    RateModel,
    TopDownOptimizer,
    deployment_cost,
    make_optimizer,
)
from repro.core.optimizer import deploy_query
from repro.core.consolidation import consolidate, shared_views
from repro.baselines import (
    InNetworkPlanner,
    PlanThenDeploy,
    RandomPlacement,
    RelaxationPlanner,
)
from repro.workload import (
    DriftTimeline,
    HeterogeneousFleetProfile,
    HotspotProfile,
    PeriodicDrift,
    RampDrift,
    StepDrift,
    Workload,
    WorkloadParams,
    airline_ois_scenario,
    drift_timeline,
    generate_workload,
)
from repro.adaptive import (
    AdaptivityConfig,
    AdaptivityLoop,
    MigrationDiff,
    MigrationOutcome,
    Migrator,
    ReoptPolicy,
    StatsMonitor,
    diff_deployments,
)
from repro.obs import (
    CausalTracer,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    PlanExplanation,
    Span,
    Tracer,
    build_explanation,
    causal_tracing,
    tracing,
)
from repro.perf import OpProfiler, profiled
from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    CoordinatorTimeout,
    CoordinatorUnreachable,
    DeploymentError,
    FaultInjectionError,
    HierarchyError,
    InfeasiblePlacementError,
    NodeNotFoundError,
    PlanningError,
    ReproError,
    StateMismatchError,
    UnknownQueryError,
)
from repro.resilience import (
    NULL_FAULTS,
    BreakerBoard,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    ResilienceConfig,
    ResilientControl,
    RetryPolicy,
)
from repro.serialization import (
    causal_trace_to_json,
    chrome_trace_to_json,
    explanation_from_json,
    explanation_to_json,
    fault_plan_from_json,
    fault_plan_to_json,
    network_from_json,
    network_to_json,
    query_from_json,
    query_to_json,
    trace_from_json,
    trace_to_json,
    workload_from_json,
    workload_to_json,
)
from repro.runtime import (
    FlowEngine,
    Simulator,
    fail_node,
    run_dataplane,
    simulate_deployment,
)
from repro.service import (
    AdmissionController,
    AdmissionDecision,
    AdmissionStatus,
    PlanCache,
    StreamQueryService,
    SubmitEvent,
    churn_trace,
    query_fingerprint,
)
from repro.fleet import (
    FleetController,
    FleetDecision,
    HashShardPolicy,
    QueryRouter,
    RebalanceReport,
    ReuseFederation,
    SubtreeLocalityPolicy,
    Tenant,
    TenantDirectory,
    WeightedFairScheduler,
)
from repro.resources import (
    Load,
    NodeCapacity,
    OperatorFootprint,
    PlacementConstraint,
    ResourceConfig,
    ResourceLedger,
    ResourceManager,
    uniform_capacities,
)

__version__ = "1.0.0"

__all__ = [
    # network
    "Network",
    "transit_stub",
    "transit_stub_by_size",
    "random_geometric",
    "motivating_network",
    # hierarchy
    "Hierarchy",
    "build_hierarchy",
    "AdvertisementIndex",
    # query model
    "StreamSpec",
    "Filter",
    "JoinPredicate",
    "Query",
    "ViewSignature",
    "Leaf",
    "Join",
    "Deployment",
    "DeploymentState",
    "parse_query",
    # optimizers
    "RateModel",
    "deployment_cost",
    "TopDownOptimizer",
    "BottomUpOptimizer",
    "OptimalPlanner",
    "BruteForceSearch",
    "make_optimizer",
    "deploy_query",
    "consolidate",
    "shared_views",
    # baselines
    "PlanThenDeploy",
    "RelaxationPlanner",
    "InNetworkPlanner",
    "RandomPlacement",
    # workload
    "Workload",
    "WorkloadParams",
    "generate_workload",
    "airline_ois_scenario",
    "DriftTimeline",
    "StepDrift",
    "RampDrift",
    "PeriodicDrift",
    "drift_timeline",
    # adaptivity
    "AdaptivityConfig",
    "AdaptivityLoop",
    "StatsMonitor",
    "ReoptPolicy",
    "MigrationDiff",
    "MigrationOutcome",
    "Migrator",
    "diff_deployments",
    # runtime
    "Simulator",
    "simulate_deployment",
    "FlowEngine",
    "fail_node",
    "run_dataplane",
    # lifecycle service
    "StreamQueryService",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionStatus",
    "PlanCache",
    "SubmitEvent",
    "churn_trace",
    "query_fingerprint",
    # fleet control plane
    "FleetController",
    "FleetDecision",
    "RebalanceReport",
    "QueryRouter",
    "HashShardPolicy",
    "SubtreeLocalityPolicy",
    "ReuseFederation",
    "Tenant",
    "TenantDirectory",
    "WeightedFairScheduler",
    # observability
    "Span",
    "Tracer",
    "tracing",
    "CausalTracer",
    "causal_tracing",
    "OpProfiler",
    "profiled",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "PlanExplanation",
    "build_explanation",
    # errors
    "ReproError",
    "PlanningError",
    "CoordinatorUnreachable",
    "CoordinatorTimeout",
    "CircuitOpenError",
    "DeploymentError",
    "AdmissionError",
    "HierarchyError",
    "NodeNotFoundError",
    "UnknownQueryError",
    "FaultInjectionError",
    "StateMismatchError",
    "InfeasiblePlacementError",
    # resources
    "Load",
    "NodeCapacity",
    "OperatorFootprint",
    "PlacementConstraint",
    "ResourceConfig",
    "ResourceLedger",
    "ResourceManager",
    "uniform_capacities",
    "HotspotProfile",
    "HeterogeneousFleetProfile",
    # resilience
    "FaultPlan",
    "FaultInjector",
    "NULL_FAULTS",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerBoard",
    "ResilienceConfig",
    "ResilientControl",
    "fault_plan_to_json",
    "fault_plan_from_json",
    "trace_to_json",
    "trace_from_json",
    "causal_trace_to_json",
    "chrome_trace_to_json",
    "explanation_to_json",
    "explanation_from_json",
    "network_to_json",
    "network_from_json",
    "query_to_json",
    "query_from_json",
    "workload_to_json",
    "workload_from_json",
    "__version__",
]
