"""Ablation: re-placing each planner's own join tree optimally.

How much of Bottom-Up's and the phased baselines' placement gap closes
when each query keeps its planner's join tree and only its operators
move, to the placement the tree DP (``optimal_tree_placement``, every
node a candidate) finds?  The DP is exact for a fixed tree, so this is
the most any operator-migration post-pass can recover (each moved
operator is one run-time migration); what remains is the join-order
part of the gap.
"""

from benchmarks.conftest import save_text
from repro.core.cost import deployment_cost
from repro.core.placement import optimal_tree_placement
from repro.query.deployment import Deployment
from repro.workload import WorkloadParams, build_world, world_seeds


def replace_optimally(deployment, nodes, costs, rates):
    """``deployment`` with its tree re-placed by the DP over ``nodes``,
    and how many join operators moved."""
    query, plan = deployment.query, deployment.plan
    placed = optimal_tree_placement(
        plan,
        nodes,
        costs,
        {leaf: [deployment.placement[leaf]] for leaf in plan.leaves()},
        rates.flow_rates(query, plan),
        sink=query.sink,
    )
    moved = sum(placed.placement[j] != deployment.placement[j] for j in plan.joins())
    return Deployment(query=query, plan=plan, placement=placed.placement), moved


def test_refinement_recovers_placement_gap(benchmark):
    params = WorkloadParams(num_streams=8, num_queries=12, joins_per_query=(2, 4))
    env = build_world(64, params, **world_seeds(13, (8,)))
    costs, nodes = env.network.cost_matrix(), env.network.nodes()

    lines = ["optimal re-placement of each planner's tree (12 queries)", ""]
    optimal_total = sum(
        deployment_cost(env.optimizer("optimal").plan(q), costs, env.rates)
        for q in env.workload
    )
    lines.append(f"  {'optimal':<18} {optimal_total:>12,.0f}")
    recovered_by = {}
    for name in ("bottom-up", "relaxation", "random"):
        optimizer = env.optimizer(name, max_cs=8, **({"reuse": False} if name != "random" else {}))
        before = after = moved_total = 0.0
        for query in env.workload:
            deployment = optimizer.plan(query)
            placed, moved = replace_optimally(deployment, nodes, costs, env.rates)
            cost_before = deployment_cost(deployment, costs, env.rates)
            cost_after = deployment_cost(placed, costs, env.rates)
            assert cost_after <= cost_before + 1e-6
            before += cost_before
            after += cost_after
            moved_total += moved
        gap_before = before - optimal_total
        gap_after = after - optimal_total
        recovered = 100 * (1 - gap_after / gap_before) if gap_before > 0 else 0.0
        recovered_by[name] = recovered
        lines.append(
            f"  {name:<18} {before:>12,.0f} -> {after:>12,.0f}"
            f"  ({moved_total:.0f} operators moved, {recovered:5.1f}% of gap recovered)"
        )
    save_text("ablation_refinement", "\n".join(lines))
    # Single-operator hill climbing on the same trees recovered 66.7 %
    # of Bottom-Up's gap; the exact placement of a tree cannot do worse.
    assert recovered_by["bottom-up"] >= 66.7

    query = env.workload.queries[0]
    deployment = env.optimizer("random").plan(query)
    benchmark(lambda: replace_optimally(deployment, nodes, costs, env.rates))
