"""Every config key a command accepts is read by the command.

A key counts as read when it appears as a string subscript (``cfg["data"]``)
somewhere in ``cli.py``; an experiment key may instead be a ``StudyConfig``
field, since ``_cmd_experiment`` passes those on by name. A key that nothing
reads would be accepted and then silently ignored.
"""

import ast
import os
from dataclasses import fields

import pytest

from graphpop import io as gio
from graphpop.experiments import StudyConfig

CLI = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "graphpop", "cli.py"
)


def subscript_strings(source: str) -> set[str]:
    """The string constants that ``source`` uses as subscripts."""
    return {
        node.slice.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    }


def test_the_guard_sees_string_subscripts_only():
    source = 'a = cfg["data"]\nb = cfg[key]\nc = cfg[0]\ncfg["out"] = 1\nd = "seed"\n'
    assert subscript_strings(source) == {"data", "out"}


@pytest.mark.parametrize(
    "name, extra",
    [
        ("FIT_SCHEMA", set()),
        ("SIM_SCHEMA", set()),
        ("EXPERIMENT_SCHEMA", {f.name for f in fields(StudyConfig)}),
    ],
)
def test_every_schema_key_is_read(name, extra):
    with open(CLI, encoding="utf-8") as fh:
        read = subscript_strings(fh.read()) | extra
    assert sorted(set(getattr(gio, name)) - read) == []
