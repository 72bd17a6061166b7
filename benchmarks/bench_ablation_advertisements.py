"""Ablation: advertisement overhead is negligible (paper Section 3.2).

"Operator reuse was implemented through stream-advertisements.  The
communication cost of advertisements was negligible compared to the
data streams themselves."  This bench counts the one-time advertisement
messages an incrementally deployed workload generates and compares
their (generously sized) volume against one time unit of data-stream
traffic.
"""

import numpy as np

from benchmarks.conftest import save_text
from repro.hierarchy import AdvertisementIndex
from repro.workload import WorkloadParams, build_world, world_seeds

AD_MESSAGE_UNITS = 1.0
"""Charge one data unit per advertisement message (generous: ads are a
signature + a node id; data tuples are comparable or larger)."""


def test_advertisement_overhead_negligible(benchmark):
    params = WorkloadParams(num_streams=10, num_queries=20, joins_per_query=(2, 5))
    env = build_world(128, params, **world_seeds(29, (32,)))
    ads = AdvertisementIndex(env.hierarchy(32))
    for name, spec in env.rates.streams.items():
        ads.advertise_base(name, spec.source)
    base_ads = ads.messages_sent

    from repro.core.top_down import TopDownOptimizer

    optimizer = TopDownOptimizer(env.hierarchy(32), env.rates, ads=ads, reuse=True)
    state = env.fresh_state()
    for query in env.workload:
        state.apply(optimizer.plan(query, state))
        ads.sync_from_state(state)
    view_ads = ads.messages_sent - base_ads

    # One time unit of data traffic: every flow's rate summed.
    data_volume = sum(flow.rate for flow in state.flows())
    ad_volume = ads.messages_sent * AD_MESSAGE_UNITS
    ratio = ad_volume / data_volume

    lines = [
        "advertisement overhead vs data-stream volume (20 queries, 128 nodes)",
        "",
        f"  base-stream advertisements:    {base_ads}",
        f"  derived-stream advertisements: {view_ads}",
        f"  ad volume (1 unit/message):    {ad_volume:,.0f}",
        f"  data volume per unit time:     {data_volume:,.0f}",
        f"  ratio:                         {100 * ratio:.3f}% of one time unit's traffic",
        "  (ads are one-time; data flows continuously, so the true ratio",
        "   over any realistic horizon is smaller still)",
    ]
    save_text("ablation_advertisements", "\n".join(lines))

    assert ratio < 0.05  # well under 5% of a single time unit's traffic

    benchmark(lambda: ads.sync_from_state(state))
