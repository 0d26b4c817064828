"""Every field a caller sets on a package dataclass is read by the package.

A field that only ``__post_init__`` reads, or that nothing reads, is state
that is computed and carried for no one.  Each ``__init__`` field of every
dataclass in the package must be read as an attribute (``obj.field``)
somewhere in the package outside a ``__post_init__``.  The scan matches the
attribute name, not the object's type, so it errs towards passing.
"""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import liouville_lab

ROOT = Path(liouville_lab.__file__).parent

# fields kept although no package code reads them, one reason each
UNREAD = {
    "interaction.Decomposition.phi1":
        "the named kernel component beside phi2 and phi3; tests read it",
    "maxima.MaximaSystemSolution.m":
        "the unknowns the solver returns; tests check them against the closed form",
}


def attribute_reads(source: str) -> set:
    """Names read as ``x.name`` in the source, outside any ``__post_init__``."""
    reads = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "__post_init__":
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return reads


def unread_fields() -> list:
    """``module.Class.field`` for every ``__init__`` field no package code reads."""
    reads = set()
    for path in sorted(ROOT.glob("*.py")):
        reads |= attribute_reads(path.read_text(encoding="utf-8"))
    found = []
    for info in pkgutil.iter_modules(liouville_lab.__path__):
        module = importlib.import_module(f"liouville_lab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__ \
                    or not dataclasses.is_dataclass(obj):
                continue
            found += [f"{info.name}.{name}.{f.name}" for f in dataclasses.fields(obj)
                      if f.init and f.name not in reads]
    return sorted(found)


def test_guard_sees_a_write_only_field():
    source = (
        "class P:\n"
        "    def __post_init__(self):\n"
        "        self.a = float(self.a)\n"
        "        print(self.b)\n"
        "\n"
        "def use(p):\n"
        "    p.c = 1\n"
        "    return p.d\n"
    )
    assert attribute_reads(source) == {"d"}


def test_no_write_only_fields():
    assert unread_fields() == sorted(UNREAD)
