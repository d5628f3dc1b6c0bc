"""Every config key a command accepts is documented in README.md.

A key counts as documented when README.md names it in backticks (`` `data` ``).
A key that the README never names can only be found by reading ``io.py``.
"""

import os
import re

import pytest

from graphpop import io as gio

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


@pytest.mark.parametrize("name", ["FIT_SCHEMA", "SIM_SCHEMA", "EXPERIMENT_SCHEMA"])
def test_every_schema_key_is_in_the_readme(name):
    with open(README, encoding="utf-8") as fh:
        quoted = set(re.findall(r"`([^`\s]+)`", fh.read()))
    assert sorted(set(getattr(gio, name)) - quoted) == []
