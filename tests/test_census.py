"""The statement census counts what its docstring says, and reports a command
that returns another exit code than the one it is listed with."""

from tests.census import blocks, run_commands, statements, unentered_figure
from tests.golden import Command

SOURCE = '''"""Module docstring: not a statement."""
import os


def f(x):
    """Function docstring: not a statement."""
    if x:
        return 1
    try:
        y = os.sep
    except ValueError:
        y = None
        raise
    return y
'''


def test_statements_entered_error_paths_and_blocks():
    found = statements(SOURCE, "m.py")
    ran = {2, 5, 7, 9, 10, 14}  # x falsy, no exception
    for statement in found:
        statement.entered = not ran.isdisjoint(statement.head)
    assert [(s.node.lineno, s.scope, s.error, s.entered) for s in found] == [
        (2, "<module>", False, True),
        (5, "<module>", False, True),
        (7, "f", False, True),
        (8, "f", False, False),
        (9, "f", False, True),
        (10, "f", False, True),
        (12, "f", True, False),  # an except body is an error path
        (13, "f", True, False),
        (14, "f", False, True),
    ]
    assert unentered_figure(found) == (1, 7)
    assert list(blocks(found)) == [("m.py", 8, 8, "f", 1)]


def test_a_command_that_returns_another_exit_code_is_reported():
    listed = [Command("python -c 'import sys; sys.exit(3)'", rc=3), Command("python -c pass", rc=1)]
    _, _, failed = run_commands(listed, verbose=False)
    assert failed == [(listed[1], 0)]
