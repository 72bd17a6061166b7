"""Alternative optimization objectives via link re-weighting.

The paper's framework optimizes an "application-provided performance
function": the experiments use communication cost, but Section 2.1.1
notes that "if the metric is response-time, we cluster based on
inter-node delays".  Every component in this package (hierarchy
construction, planners, deployment accounting) reads the objective from
the network's link *costs*, so switching the objective is a link
re-weighting:

* :func:`delay_weighted` -- cost := propagation delay, optimizing
  rate-weighted end-to-end latency.

The returned network is an independent copy; pass it anywhere a network
is expected and build the hierarchy from it so that clustering follows
the same metric (exactly the paper's prescription).
"""

from __future__ import annotations

from repro.network.graph import Network


def delay_weighted(network: Network) -> Network:
    """Copy of ``network`` whose link costs are the link delays.

    All-pairs "traversal costs" of the result are shortest-path delays,
    so every planner built on it minimizes rate-weighted latency and
    :func:`repro.hierarchy.build_hierarchy` clusters by inter-node
    delay.
    """
    clone = network.copy()
    for link in network.links():
        clone.set_link_cost(link.u, link.v, link.delay)
    return clone
