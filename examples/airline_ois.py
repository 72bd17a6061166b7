#!/usr/bin/env python
"""The paper's Section 1.1 airline OIS walkthrough, executed for real.

Reconstructs the Figure 3 network with the WEATHER / FLIGHTS / CHECK-INS
streams and the SQL text of queries Q1 and Q2, then demonstrates the two
optimization opportunities the paper narrates:

1. *network-aware join ordering* -- the selectivity-optimal order for Q1
   is (FLIGHTS x WEATHER) x CHECK-INS, but the congested FLIGHTS-N2 link
   makes (FLIGHTS x CHECK-INS) x WEATHER cheaper once the network is
   taken into account;
2. *operator reuse* -- with Q2's FLIGHTS x CHECK-INS join already
   deployed at N1, Q1 switches join order to reuse it.

Run:  python examples/airline_ois.py
"""

import repro
from repro.baselines.plan_then_deploy import best_static_tree
from repro.workload.scenarios import Q1_SQL, Q2_SQL, airline_ois_scenario


def node_name(ids: dict, node: int) -> str:
    for name, nid in ids.items():
        if nid == node:
            return name
    return str(node)


def describe(deployment: repro.Deployment, ids: dict) -> str:
    parts = []
    for join, node in deployment.operator_nodes.items():
        parts.append(f"{join.pretty()} @ {node_name(ids, node)}")
    for leaf in deployment.reused_leaves():
        parts.append(f"REUSE {leaf.label} @ {node_name(ids, deployment.placement[leaf])}")
    return "; ".join(parts) if parts else "(full reuse)"


def main() -> None:
    sc = airline_ois_scenario()
    ids = sc.node_ids
    costs = sc.network.cost_matrix()

    print("== The queries (parsed from SQL) ==")
    print(Q1_SQL.strip(), "\n")
    print(Q2_SQL.strip(), "\n")
    print(f"Q1 sources={sc.q1.sources} sink=Sink4; {len(sc.q1.filters)} filters")
    print(f"Q2 sources={sc.q2.sources} sink=Sink3\n")

    print("== 1. Network-aware join ordering ==")
    static_tree, _ = best_static_tree(sc.q1, sc.rates)
    print(f"selectivity-only (network-oblivious) plan: {static_tree.pretty()}")

    planner = repro.OptimalPlanner(sc.network, sc.rates)
    state = repro.DeploymentState(costs, sc.rates.rate, sc.rates.source)
    d1 = planner.plan(sc.q1, state)
    print(f"network-aware joint plan:                  {d1.plan.pretty()}")
    print(f"   placements: {describe(d1, ids)}")
    print(
        "   the congested FLIGHTS-N2 link "
        f"(cost {sc.network.link(ids['FLIGHTS'], ids['N2']).cost}) flips the order\n"
    )

    print("== 2. Operator reuse ==")
    state = repro.DeploymentState(costs, sc.rates.rate, sc.rates.source)
    d2 = planner.plan(sc.q2, state)
    c2 = state.apply(d2)
    print(f"deploy Q2 first: {d2.plan.pretty()}  [{describe(d2, ids)}]  cost {c2:.1f}")

    d1_reuse = planner.plan(sc.q1, state)
    c1 = state.apply(d1_reuse)
    print(f"then Q1:         {d1_reuse.plan.pretty()}  [{describe(d1_reuse, ids)}]  cost {c1:.1f}")
    reused = d1_reuse.reused_leaves()
    if reused:
        print(f"   Q1 reused the deployed {reused[0].label} join instead of recomputing it")

    # Compare with a no-reuse deployment of Q1 against the same state.
    no_reuse = repro.OptimalPlanner(sc.network, sc.rates, reuse=False).plan(sc.q1)
    standalone = repro.deployment_cost(no_reuse, costs, sc.rates)
    print(f"   without reuse Q1 would cost {standalone:.1f} (vs {c1:.1f} with reuse)\n")

    print("== Full system cost ==")
    print(f"total communication cost per unit time: {state.total_cost():.1f}")
    print(f"deployed operators: {state.num_operators}")


if __name__ == "__main__":
    main()
