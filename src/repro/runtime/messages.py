"""Protocol message vocabulary for the deployment and cutover protocol
simulations.  The simulator delivers every message exactly once.

Every message optionally carries its causal hop as a ``trace`` stamp: the
:class:`~repro.obs.tracer.Span` a :class:`~repro.obs.causal.CausalTracer`
recorded for the send, with its trace, span and parent ids.  The stamp is
excluded from equality, hashing and repr, so stamped and unstamped
messages compare equal -- the byte-identical-with-tracing-disabled
contract relies on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.tracer import Span

@dataclass(frozen=True)
class QuerySubmit:
    """A sink submits a query for planning.

    Attributes:
        query_name: Name of the query being planned.
        sink: The submitting sink node.
    """

    query_name: str
    sink: int
    trace: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PlanRequest:
    """A coordinator hands a (sub)planning task to another coordinator.

    Attributes:
        query_name: Query the task belongs to.
        task_index: Index into the optimizer's task trace.
    """

    query_name: str
    task_index: int
    trace: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class DeployCommand:
    """Instantiate an operator on a node.

    Attributes:
        query_name: Owning query.
        operator_label: Human-readable operator identity.
    """

    query_name: str
    operator_label: str
    trace: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class DeployAck:
    """An operator node confirms instantiation."""

    query_name: str
    operator_label: str
    trace: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Advertisement:
    """A derived-stream advertisement propagating up the hierarchy.

    Attributes:
        view_label: Label of the advertised view.
        node: Node offering the derived stream.
    """

    view_label: str
    node: int
    trace: Span | None = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Live-migration cutover protocol (pause -> drain/transfer -> resume)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauseCommand:
    """Coordinator asks an operator's current host to pause it.

    A paused operator stops emitting; upstream tuples buffer at the
    producers (the drain).

    Attributes:
        query_name: Query being migrated.
        operator_label: Label of the operator to pause.
    """

    query_name: str
    operator_label: str
    trace: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PauseAck:
    """The old host confirms the operator is paused and drained."""

    query_name: str
    operator_label: str
    trace: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TransferCommand:
    """Coordinator asks the old host to ship the operator's state.

    Attributes:
        query_name: Query being migrated.
        operator_label: Operator whose window state moves.
        dest: Node receiving the state (the operator's new host).
        nbytes: Estimated state size (sets the transmission time).
    """

    query_name: str
    operator_label: str
    dest: int
    nbytes: float
    trace: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class StateChunk:
    """The serialized window state in flight from old host to new host."""

    query_name: str
    operator_label: str
    nbytes: float
    trace: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class StateAck:
    """The new host confirms the operator's state arrived intact."""

    query_name: str
    operator_label: str
    trace: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ResumeCommand:
    """Coordinator asks the new host to resume the rebuilt operator."""

    query_name: str
    operator_label: str
    trace: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ResumeAck:
    """The new host confirms the operator is live on its new node."""

    query_name: str
    operator_label: str
    trace: Span | None = field(default=None, compare=False, repr=False)
