"""Bushy join trees.

A plan is a binary tree whose internal nodes are joins and whose leaves
are *views*: either a single base stream or a reusable derived stream
covering several base streams (how the optimizers splice reuse into a
plan).  Trees are immutable, hashable and compare structurally, with the
children of a join stored in a canonical order so that logically
identical trees are equal objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


class PlanNode:
    """Abstract base for plan tree nodes (:class:`Leaf` / :class:`Join`)."""

    @property
    def sources(self) -> frozenset[str]:  # pragma: no cover - abstract
        """Base stream names this subtree's output covers."""
        raise NotImplementedError

    def leaves(self) -> list["Leaf"]:
        """All leaves of the subtree, left-to-right."""
        out: list[Leaf] = []
        _collect_leaves(self, out)
        return out

    def joins(self) -> list["Join"]:
        """All join nodes of the subtree in post-order (children first)."""
        out: list[Join] = []
        _collect_joins(self, out)
        return out

    def subtrees(self) -> Iterator["PlanNode"]:
        """All subtree roots in post-order, leaves included."""
        if isinstance(self, Join):
            yield from self.left.subtrees()
            yield from self.right.subtrees()
        yield self

    @property
    def num_joins(self) -> int:  # pragma: no cover - abstract
        """Number of join operators in the subtree."""
        raise NotImplementedError

    def pretty(self) -> str:
        """Parenthesized rendering, e.g. ``((A*B) x C)``."""
        if isinstance(self, Leaf):
            return self.label
        assert isinstance(self, Join)
        return f"({self.left.pretty()} x {self.right.pretty()})"


def _collect_leaves(node: PlanNode, out: list["Leaf"]) -> None:
    if isinstance(node, Leaf):
        out.append(node)
    else:
        assert isinstance(node, Join)
        _collect_leaves(node.left, out)
        _collect_leaves(node.right, out)


def _collect_joins(node: PlanNode, out: list["Join"]) -> None:
    if isinstance(node, Join):
        _collect_joins(node.left, out)
        _collect_joins(node.right, out)
        out.append(node)


@dataclass(frozen=True)
class Leaf(PlanNode):
    """A plan leaf: a view over one or more base streams.

    ``Leaf(frozenset({"A"}))`` is the base stream A; a multi-stream leaf
    represents an already-deployed derived stream being reused.
    """

    view: frozenset[str]

    def __post_init__(self) -> None:
        if not self.view:
            raise ValueError("leaf must cover at least one stream")
        if not isinstance(self.view, frozenset):
            object.__setattr__(self, "view", frozenset(self.view))
        object.__setattr__(self, "_hash", hash((self.view,)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, *streams: str) -> "Leaf":
        """Convenience constructor: ``Leaf.of("A", "B")``."""
        return cls(frozenset(streams))

    @property
    def sources(self) -> frozenset[str]:
        return self.view

    @property
    def num_joins(self) -> int:
        return 0

    @property
    def is_base_stream(self) -> bool:
        """Whether the leaf is a single base stream (not a derived view)."""
        return len(self.view) == 1

    @property
    def stream(self) -> str:
        """The base stream name (only valid for single-stream leaves)."""
        if not self.is_base_stream:
            raise ValueError(f"leaf over {sorted(self.view)} is not a base stream")
        return next(iter(self.view))

    @property
    def label(self) -> str:
        """Human-readable label."""
        return "*".join(sorted(self.view))


@dataclass(frozen=True)
class Join(PlanNode):
    """A binary join of two sub-plans over disjoint stream sets.

    Children are stored in canonical order (by sorted source names) so
    that ``Join(a, b) == Join(b, a)`` -- join operators are symmetric for
    cost purposes.
    """

    left: PlanNode
    right: PlanNode

    def __post_init__(self) -> None:
        if not self.left.sources.isdisjoint(self.right.sources):
            raise ValueError(
                f"join children overlap on {sorted(self.left.sources & self.right.sources)}"
            )
        # ``sorted(left) > sorted(right)`` of disjoint sets is decided by the minima.
        if min(self.left.sources) > min(self.right.sources):
            l, r = self.right, self.left
            object.__setattr__(self, "left", l)
            object.__setattr__(self, "right", r)
        # Plan nodes key dicts and sets throughout planning; the generated
        # field-tuple hash would walk the whole subtree on every use.  The
        # same value, computed once here from the children's kept hashes
        # (measured cheaper than a lazy ``cached_property``, whose first
        # access takes a lock).
        object.__setattr__(self, "_hash", hash((self.left, self.right)))
        object.__setattr__(
            self, "_num_joins", 1 + self.left.num_joins + self.right.num_joins
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def num_joins(self) -> int:
        return self._num_joins

    @cached_property
    def _sources(self) -> frozenset[str]:
        return self.left.sources | self.right.sources

    @property
    def sources(self) -> frozenset[str]:
        return self._sources

