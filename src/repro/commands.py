"""Journaled commands, declared once.

A *command* is a public controller method whose arguments are its
journal record.  :func:`command` declares one::

    @command("cmd_retire")
    def retire(self, name): ...

On a controller with the durability layer armed, the outermost command
call journals ``{"name": name}`` under kind ``cmd_retire`` *before* the
body runs; a command called from inside another command (a node failure
resubmitting survivors, a fleet submit reaching its shard) and every
call on an undurable controller is a plain call.  Recovery replays a
record by looking the kind up on the controller's class and calling the
method with the record as keyword arguments (:func:`replay`), so adding
a command is a decorated method plus its kind in
:data:`repro.durability.journal.COMMAND_KINDS` -- nothing per kind
exists anywhere else.

The decorated class provides ``durability`` (``None`` when off),
``clock`` and the re-entrancy bit ``_in_command``.

This module imports nothing from :mod:`repro` at import time, so the
controllers can import it without entering the ``repro.durability``
import cycle.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable


def _encode(data: dict[str, Any]) -> None:
    """Make the two arguments that are not JSON as passed journalable."""
    if "query" in data:
        from repro.serialization import _query_to_dict

        data["query"] = _query_to_dict(data["query"])
    if "samples" in data:
        data["samples"] = dict(data["samples"])


def next_tick_time(controller, time: float | None) -> float:
    """The time ``controller.tick(time)`` advances the clock to."""
    return float(time) if time is not None else controller.clock + 1.0


def command(
    kind: str,
    resolve_time: Callable[[Any, float | None], float] | None = None,
    tail: Callable[[Any, Any], None] | None = None,
):
    """Declare a controller method as the journaled command ``kind``.

    The record is the bound argument dict (``self`` dropped, defaults
    applied, ``query`` / ``samples`` encoded), stamped with ``time``
    when the call gives one and the controller clock otherwise.

    Args:
        kind: The record kind (a member of ``COMMAND_KINDS``).
        resolve_time: ``resolve_time(self, time)`` replaces the ``time``
            argument in the record.  ``cmd_tick`` stores its resolved
            time (:func:`next_tick_time`), so a replayed tick never
            depends on the clock it starts from.
        tail: ``tail(self, result)`` runs after the body, only when
            this call was the journaled one.
    """

    def declare(method):
        signature = inspect.signature(method)

        @functools.wraps(method)
        def call(self, *args, **kwargs):
            durability = self.durability
            if durability is None or self._in_command:
                return method(self, *args, **kwargs)
            bound = signature.bind(self, *args, **kwargs)
            bound.apply_defaults()
            data = dict(bound.arguments)
            del data["self"]
            _encode(data)
            if resolve_time is not None:
                data["time"] = resolve_time(self, data["time"])
            time = data.get("time")
            self._in_command = True
            try:
                durability.command(
                    kind, float(time) if time is not None else self.clock, data
                )
                result = method(self, *args, **kwargs)
                if tail is not None:
                    tail(self, result)
                return result
            finally:
                self._in_command = False

        call.command_kind = kind
        return call

    return declare


@functools.lru_cache(maxsize=None)
def declared_commands(cls: type) -> dict[str, str]:
    """``{kind: method name}`` of every command ``cls`` declares."""
    table = {}
    for name in dir(cls):
        kind = getattr(getattr(cls, name), "command_kind", None)
        if kind is not None:
            table[kind] = name
    return table


def replay(controller, kind: str, data: dict[str, Any]):
    """Call the command a journal record names, with the record as its
    keyword arguments."""
    method = getattr(controller, declared_commands(type(controller))[kind])
    arguments = dict(data)
    if "query" in arguments:
        from repro.serialization import _query_from_dict

        arguments["query"] = _query_from_dict(arguments["query"])
    return method(**arguments)
