"""Every import in the package and its tests is used.

A name bound by ``import`` or ``from ... import`` must be read somewhere in
its module: as a name, as the root of an attribute chain, or in an
annotation.  ``__init__.py`` re-exports the package's public names, so its
imports are its use.
"""

import ast
from pathlib import Path

import liouville_lab

ROOTS = (Path(liouville_lab.__file__).parent, Path(__file__).parent)


def unused_imports(source: str) -> list:
    """``(line, name)`` of every imported name the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_guard_sees_an_unused_import():
    source = "import math\nimport os\nfrom json import dumps, loads\n\nprint(math.pi, loads)\n"
    assert unused_imports(source) == [(2, "os"), (3, "dumps")]


def test_no_unused_imports():
    unused = []
    for root in ROOTS:
        for path in sorted(root.glob("*.py")):
            if path.name == "__init__.py":
                continue
            unused += [f"{path.name}:{line} {name}"
                       for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []
