"""Small shared utilities (deterministic RNG plumbing, misc helpers)."""

from __future__ import annotations

from itertools import takewhile
from typing import Hashable, Union

import numpy as np

SeedLike = Union[int, None, np.random.Generator]


class ChangeFeed:
    """Which keys changed since a reader last looked: ``key -> serial of
    its latest touch``, oldest first.  A touch moves the key to the end; a
    reader that kept the :attr:`cursor` it read at walks back from the
    newest entry down to it.  Any number of readers, one entry per key."""

    def __init__(self) -> None:
        self._serials: dict[Hashable, int] = {}
        self.cursor = 0  # serial of the latest touch or reset
        self._floor = 0

    def touch(self, key: Hashable) -> None:
        self.cursor += 1
        self._serials.pop(key, None)
        self._serials[key] = self.cursor

    def reset(self) -> None:
        """Everything changed: readers of earlier cursors are told to look."""
        self.cursor += 1
        self._floor = self.cursor
        self._serials.clear()

    def since(self, cursor: int | None) -> list | None:
        """Keys touched after ``cursor``, oldest touch first, each once;
        ``None`` (look at everything) without a cursor or across a reset."""
        if cursor is None or cursor < self._floor:
            return None
        newest = takewhile(lambda kv: kv[1] > cursor, reversed(self._serials.items()))
        return [key for key, _ in newest][::-1]


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged, so callers can
    thread one RNG through a pipeline), an integer seed, or ``None`` for
    OS entropy.  Every stochastic entry point in this package takes a
    ``seed`` argument funneled through here -- there is no hidden global
    RNG state anywhere.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def double_factorial_odd(k: int) -> int:
    """``(2k-3)!! `` -- the number of unordered bushy join trees over k leaves.

    Defined as 1 for ``k in (0, 1, 2)`` (a single leaf or a single join).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    result = 1
    for i in range(3, 2 * k - 2, 2):
        result *= i
    return result
