"""Every Python file of the package, its tests and its benchmark parses under the
3.10 grammar, the ``requires-python`` floor.

This checks syntax only (``ast.parse`` with ``feature_version``, so for example
``except*`` is refused); library calls that are new in 3.11 still need a 3.10
interpreter to find.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATTERNS = ("src/graphpop/*.py", "tests/*.py", "perfbench/*.py")


def test_sources_parse_under_the_310_grammar():
    paths = sorted(p for pattern in PATTERNS for p in glob.glob(os.path.join(ROOT, pattern)))
    assert {os.path.relpath(os.path.dirname(p), ROOT) for p in paths} == {
        "src/graphpop",
        "tests",
        "perfbench",
    }
    refused = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            try:
                ast.parse(fh.read(), path, feature_version=(3, 10))
            except SyntaxError as exc:
                refused.append(f"{os.path.relpath(path, ROOT)}:{exc.lineno}: {exc.msg}")
    assert refused == []
