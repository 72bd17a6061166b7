"""Ablation: self-adaptation timeline under changing network conditions.

IFLOW's middleware "re-triggers the query optimization algorithm when
the changes in network, load or data conditions demand recomputing".
This bench plays a condition-change scenario -- congestion spikes on
hot links at fixed epochs -- against two services over the same worlds:
a static one that never adapts and one built with ``adaptivity=``, whose
loop re-plans every live query when the topology epoch moves.

Both arms face the same link events.  They are chosen once, on the
static arm: each epoch congests its hottest link that has an alternative
path (a congested bridge is unavoidable for everyone, adaptive or not).

A congestion event here never clears, so the adaptive arm amortizes a
migration's saving over a long horizon (1000 unit times).  At the
default horizon (20) most moves do not pay back the window state they
ship; the report gives that arm's figures too.
"""

from dataclasses import replace

import networkx as nx
import numpy as np

from benchmarks.conftest import save_text
from repro.adaptive import AdaptivityConfig
from repro.core.top_down import TopDownOptimizer
from repro.service import StreamQueryService
from repro.workload import WorkloadParams, build_world, world_seeds
from tests.query.replay import assert_replays

SEEDS = (3, 7, 11, 19, 23, 29, 31)
EPOCHS = 4
PARAMS = WorkloadParams(num_streams=8, num_queries=10, joins_per_query=(1, 4))
CONFIG = AdaptivityConfig(
    horizon=1000.0,
    min_relative_gain=0.03,
    query_cooldown=0.0,
    max_migrations_per_tick=10,
)


def _service(seed: int, adaptivity):
    env = build_world(32, PARAMS, **world_seeds(seed, (8,)))
    hierarchy = env.hierarchies[8]
    service = StreamQueryService(
        TopDownOptimizer(hierarchy, env.rates),
        env.network,
        env.rates,
        hierarchy=hierarchy,
        adaptivity=adaptivity,
    )
    for query in env.workload:
        service.submit(query)
    return service


def _static_arm(seed: int):
    """The static cost timeline and the link events it chose."""
    service = _service(seed, None)
    net = service.network
    bridges = {(min(u, v), max(u, v)) for u, v in nx.bridges(net.to_networkx())}
    rng = np.random.default_rng(seed)
    events, timeline = [], [service.total_cost()]
    for epoch in range(1, EPOCHS + 1):
        hot = next(
            (l for l in service.engine.hottest_links(10) if (l.u, l.v) not in bridges),
            service.engine.hottest_links(1)[0],
        )
        event = (hot.u, hot.v, hot.cost * float(rng.uniform(20, 40)))
        net.set_link_cost(*event)
        service.tick(float(epoch))
        events.append(event)
        timeline.append(service.total_cost())
    return events, timeline


def _adaptive_arm(seed: int, events, config=CONFIG):
    """The adaptive cost timeline and migrations committed per epoch.

    After each event the service ticks until a pass commits nothing.
    """
    service = _service(seed, config)
    timeline, migrated = [service.total_cost()], [0]
    now = 0.0
    for event in events:
        service.network.set_link_cost(*event)
        committed = []
        while True:
            now += 1.0
            report = service.tick(now)
            assert_replays(service)
            done = [m for m in report.migrations if m.committed]
            # No migration raises the cost the event left.
            assert all(m.new_cost < m.old_cost for m in done)
            committed += done
            if not done:
                break
        timeline.append(service.total_cost())
        migrated.append(len(committed))
    return timeline, migrated


def _saving(static: float, adaptive: float) -> float:
    return 100 * (1 - adaptive / static) if static else 0.0


def _mean_saving(static, adaptive) -> float:
    """Mean saving (%) over the post-event epochs."""
    return float(np.mean([_saving(s, a) for s, a in zip(static[1:], adaptive[1:])]))


def test_adaptation_timeline(benchmark):
    lines = [
        f"cost timeline under repeated congestion events ({EPOCHS} epochs, "
        "the same link events in both arms)",
        "",
        f"  {'seed':>4} {'epoch':>5} {'static':>14} {'adaptive':>14} "
        f"{'saving':>8} {'migrated':>8}",
    ]
    means, short = [], []
    short_config = replace(CONFIG, horizon=AdaptivityConfig.horizon)
    for seed in SEEDS:
        events, static = _static_arm(seed)
        adaptive, migrated = _adaptive_arm(seed, events)
        assert adaptive[0] == static[0]  # same initial deployment
        for epoch, (s, a, m) in enumerate(zip(static, adaptive, migrated)):
            lines.append(
                f"  {seed:>4} {epoch:>5} {s:>14,.0f} {a:>14,.0f} "
                f"{_saving(s, a):>7.1f}% {m:>8}"
            )
        means.append(_mean_saving(static, adaptive))
        adaptive, migrated = _adaptive_arm(seed, events, short_config)
        short.append((_mean_saving(static, adaptive), sum(migrated)))
    lines += [
        "",
        f"  horizon {CONFIG.horizon:g}: mean saving over epochs 1-{EPOCHS}, "
        "per seed: " + ", ".join(f"{s}: {m:.1f}%" for s, m in zip(SEEDS, means)),
        f"  mean over the seed set: {np.mean(means):.1f}%",
        f"  horizon {short_config.horizon:g}: migrations per seed "
        + ", ".join(str(n) for _, n in short)
        + f"; mean saving {np.mean([m for m, _ in short]):.1f}%",
    ]
    save_text("ablation_adaptivity", "\n".join(lines))

    assert np.mean(means) > 0.0

    events, _ = _static_arm(SEEDS[0])
    benchmark(lambda: _adaptive_arm(SEEDS[0], events))
