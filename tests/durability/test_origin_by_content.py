"""An operator's installer is named in a snapshot whenever a live query
of that name and content holds the record, not only while the record
points at the very same query object.

A recovered fleet rebuilds a rebalanced query per shard, so a record's
install origin can be an equal copy of the live query.  Spelling such an
origin out in full made the recovered snapshot differ from the uncrashed
one (the crash harness digests the deployment-state section).
"""

import json

from repro.durability.snapshot import splice_json
from repro.durability.state import (
    FragmentMemo,
    capture_deployment_state,
    restore_deployment_state,
)
from repro.query.deployment import DeploymentState

from tests.conftest import small_world


def _capture(state) -> str:
    return splice_json(capture_deployment_state(state, FragmentMemo()))


def test_an_equal_copy_of_the_installer_is_still_named():
    world = small_world(6)
    optimizer = world.optimizer("top-down")
    state = DeploymentState(
        world.network.cost_matrix(), world.rates.rate, world.rates.source
    )
    for query in world.workload:
        state.apply(optimizer.plan(query, state))
    text = _capture(state)
    doc = json.loads(text)
    named = [op for op in doc["operators"] if "origin" in op]
    assert named and all(isinstance(op["origin"]["query"], str) for op in named)

    # Spell every installer out in full: the restored records then hold
    # equal copies of the live queries, not the live objects.
    queries = {d["query"]["name"]: d["query"] for d in doc["deployments"]}
    for op in named:
        op["origin"]["query"] = queries[op["origin"]["query"]]
    twin = DeploymentState(
        world.network.cost_matrix(), world.rates.rate, world.rates.source
    )
    restore_deployment_state(twin, doc)
    assert _capture(twin) == text
