"""No module of the package imports a name it never uses.

A name counts as used when it is read anywhere in the module, attribute bases
and annotations included. ``from __future__`` imports, the re-exports of
``__init__.py`` and aliases on a line marked ``# noqa: F401`` are exempt.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "graphpop")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, bound name) of each import in ``source`` whose name is never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return unused


def test_the_guard_sees_unused_and_exempt_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy.random  # noqa: F401\n"
        "from math import (\n    exp,\n    log,\n)\n"
        "import numpy as np\n"
        "def f(x: np.ndarray) -> float:\n    return log(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (5, "exp")]


def test_package_modules_use_every_import():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    found = []
    for path in paths:
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            unused = unused_imports(fh.read())
        found += [f"{os.path.basename(path)}:{line}: {name}" for line, name in unused]
    assert found == []
