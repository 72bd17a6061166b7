#!/usr/bin/env python
"""Quickstart: plan and deploy stream queries on a synthetic network.

Builds the paper's standard setup end to end:

1. a 64-node transit-stub network (GT-ITM style),
2. a virtual cluster hierarchy (max_cs = 16),
3. a random workload of continuous join queries,
4. joint plan+placement optimization with the Top-Down algorithm,
   compared against the Bottom-Up algorithm and the optimal planner.

Run:  python examples/quickstart.py
"""

import repro


def main() -> None:
    print("== Building the substrate ==")
    net = repro.transit_stub_by_size(64, seed=1)
    print(f"network: {net.num_nodes} nodes, {net.num_links} links")

    hierarchy = repro.build_hierarchy(net, max_cs=16, seed=0)
    print(f"hierarchy: {hierarchy}")

    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=8, num_queries=6, joins_per_query=(2, 4)),
        seed=2,
    )
    rates = workload.rate_model()
    print(f"workload: {len(workload)} queries over {len(workload.streams)} streams\n")

    print("== Planning each query three ways ==")
    planners = {
        "top-down": repro.TopDownOptimizer(hierarchy, rates),
        "bottom-up": repro.BottomUpOptimizer(hierarchy, rates),
        "optimal": repro.OptimalPlanner(net, rates),
    }
    states = {
        name: repro.DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        for name in planners
    }
    costs = net.cost_matrix()

    for query in workload:
        print(f"{query.name}: join {'*'.join(query.sources)} -> sink {query.sink}")
        for name, planner in planners.items():
            deployment = planner.plan(query, states[name])
            marginal = states[name].apply(deployment)
            print(
                f"   {name:>9}: plan {deployment.plan.pretty():<40} "
                f"cost/unit-time {marginal:10.1f}"
            )

    print("\n== Cumulative communication cost per unit time ==")
    for name, state in states.items():
        print(f"   {name:>9}: {state.total_cost():12.1f}  ({state.num_operators} operators)")
    td = states["top-down"].total_cost()
    opt = states["optimal"].total_cost()
    print(f"\ntop-down is within {100 * (td / opt - 1):.1f}% of optimal on this workload")


if __name__ == "__main__":
    main()
