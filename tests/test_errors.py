"""Every exception type in ``errors.py`` is raised somewhere in the package.

A claim of the paper is judged by a report record, not by a raise, so an
error type that no ``raise`` names is dead code: its check left the library
and the type stayed behind.
"""

import ast
import inspect
from pathlib import Path

import liouville_lab
from liouville_lab import errors

PACKAGE = Path(liouville_lab.__file__).parent


def raised_names(source: str) -> set:
    """The names that the ``raise`` statements of a module raise: ``X`` and
    ``X(...)``, or the last attribute of ``mod.X`` and ``mod.X(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_guard_sees_raises():
    source = ("def f(x):\n    if x:\n        raise ValueError('x')\n"
              "    raise errors.ShootingError\n\ntry:\n    f(0)\nexcept KeyError:\n    raise\n")
    assert raised_names(source) == {"ValueError", "ShootingError"}


def test_every_error_type_is_raised():
    types = {name for name, obj in vars(errors).items()
             if inspect.isclass(obj) and issubclass(obj, Exception)
             and obj.__module__ == errors.__name__}
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        raised |= raised_names(path.read_text(encoding="utf-8"))
    assert types and sorted(types - raised) == []
