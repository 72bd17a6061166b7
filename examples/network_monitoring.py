#!/usr/bin/env python
"""Distributed network monitoring: overlapping dashboards sharing views.

The paper motivates its techniques with "applications ranging from
network monitoring to scientific collaborations".  This example builds a
two-domain ISP-style network whose edge routers export NetFlow, SNMP,
IDS alerts and syslog; four dashboards at different sites run
overlapping correlation queries.  The SOC's NETFLOW x ALERTS join is
computed once and reused by the triage and NOC dashboards.

Run:  python examples/network_monitoring.py
"""

import repro
from repro.inspect import render_plan, summarize_state
from repro.workload.scenarios import network_monitoring_scenario


def main() -> None:
    sc = network_monitoring_scenario(seed=0)
    print(
        f"network: {sc.network.num_nodes} nodes "
        f"({len(sc.network.nodes_of_kind('transit'))} backbone), "
        f"{sc.network.num_links} links"
    )
    print("telemetry streams:")
    for name, spec in sc.streams.items():
        print(f"   {name:<8} rate {spec.rate:7.1f}/s at node {spec.source}")

    hierarchy = repro.build_hierarchy(sc.network, max_cs=6, seed=0)
    optimizer = repro.TopDownOptimizer(hierarchy, sc.rates)
    state = repro.DeploymentState(
        sc.network.cost_matrix(), sc.rates.rate, sc.rates.source
    )

    print("\n== deploying the dashboards in arrival order ==")
    for query in sc.queries:
        deployment = optimizer.plan(query, state)
        cost = state.apply(deployment)
        reused = deployment.reused_leaves()
        print(f"\n{query.name} (sink {query.sink}) -> cost {cost:10.1f}"
              + (f"   [reuses {', '.join(l.label for l in reused)}]" if reused else ""))
        print(render_plan(deployment.plan, deployment.placement))

    print("\n== system state ==")
    print(summarize_state(state))

    # Counterfactual: the same workload without reuse.
    state_no = repro.DeploymentState(
        sc.network.cost_matrix(), sc.rates.rate, sc.rates.source
    )
    optimizer_no = repro.TopDownOptimizer(hierarchy, sc.rates, reuse=False)
    for query in sc.queries:
        state_no.apply(optimizer_no.plan(query, state_no))
    saving = 100 * (1 - state.total_cost() / state_no.total_cost())
    print(
        f"\nwithout reuse the same dashboards would cost "
        f"{state_no.total_cost():.1f} ({saving:.1f}% saved by sharing)"
    )


if __name__ == "__main__":
    main()
