"""Ablation: Bottom-Up "is ideal ... for possibly short-lived queries".

The paper argues Bottom-Up suits short-lived queries: its deployments
are quicker (less planning latency before results flow) even though its
placements cost more per unit time.  This bench quantifies the
crossover: for a query that lives ``L`` time units, the total bill is

    deployment_time * (cost of having no results yet is not charged,
    but the planning/compute resources are) ~ we charge the running
    communication cost for the query's lifetime plus treat deployment
    time as lost lifetime (results only flow after deployment).

    effective_value(L) = (L - deployment_time) worth of results at
    cost rate c  =>  compare cost paid per unit of useful lifetime.

Concretely we report ``total_cost(L) = c * L`` and the *useful-lifetime
efficiency* ``c * L / (L - t_deploy)`` for both algorithms across
lifetimes, exhibiting Bottom-Up's advantage at small ``L`` and
Top-Down's at large ``L``.
"""

import numpy as np

from benchmarks.conftest import save_text
from repro.core.cost import deployment_cost
from repro.runtime.protocol import simulate_deployment
from repro.workload import WorkloadParams, build_world, world_seeds


def test_short_lived_query_crossover(benchmark):
    params = WorkloadParams(num_streams=8, num_queries=15, joins_per_query=(2, 4))
    env = build_world(32, params, **world_seeds(23, (4,)))
    costs = env.network.cost_matrix()

    measures = {}
    for name in ("top-down", "bottom-up"):
        optimizer = env.optimizer(name, max_cs=4)
        cost_rates, deploy_times = [], []
        for query in env.workload:
            deployment = optimizer.plan(query)
            cost_rates.append(deployment_cost(deployment, costs, env.rates))
            deploy_times.append(
                simulate_deployment(env.network, deployment, seconds_per_plan=1e-5).duration
            )
        measures[name] = (float(np.mean(cost_rates)), float(np.mean(deploy_times)))

    td_c, td_t = measures["top-down"]
    bu_c, bu_t = measures["bottom-up"]
    lines = [
        "short-lived queries: deployment latency vs running cost",
        "",
        f"  top-down : cost rate {td_c:10,.1f}/unit  deploy {td_t * 1000:7.1f} ms",
        f"  bottom-up: cost rate {bu_c:10,.1f}/unit  deploy {bu_t * 1000:7.1f} ms",
        "",
        f"  {'lifetime L':>12} {'TD cost/useful-unit':>20} {'BU cost/useful-unit':>20} {'winner':>8}",
    ]

    def efficiency(c, t, L):
        useful = max(L - t, 1e-9)
        return c * L / useful

    winners = {}
    for L in (0.3, 0.5, 1.0, 3.0, 10.0, 100.0):
        td_e = efficiency(td_c, td_t, L)
        bu_e = efficiency(bu_c, bu_t, L)
        winners[L] = "BU" if bu_e < td_e else "TD"
        lines.append(f"  {L:>12} {td_e:>20,.1f} {bu_e:>20,.1f} {winners[L]:>8}")
    lines.append(
        "  Bottom-Up wins while deployment latency dominates the lifetime;"
        " Top-Down wins once the query runs long enough to amortize planning."
    )
    save_text("ablation_short_lived", "\n".join(lines))

    # paper shape: BU deploys faster, TD runs cheaper
    assert bu_t < td_t
    assert td_c < bu_c
    # and the long-lifetime winner is Top-Down
    assert winners[100.0] == "TD"

    query = env.workload.queries[0]
    optimizer = env.optimizer("bottom-up", max_cs=4)
    benchmark(lambda: optimizer.plan(query))
