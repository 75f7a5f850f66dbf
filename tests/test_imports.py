"""Every name a nullkit module imports is used there or re-exported.

A stdlib ast walk over src/nullkit/*.py (the package __init__ only
re-exports, so it is skipped): an imported name counts as used when
the module reads it anywhere or lists it in __all__.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nullkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) for each top-level or nested import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    # the root of a dotted access such as field.make_field is a Name too
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return sorted((line, name) for name, line in _imported(tree)
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, "\n".join(
        f"{path.name}:{line}: {name} is imported but unused"
        for line, name in unused)


def test_the_walk_finds_an_unused_import():
    source = ("import os\nimport sys as system\n"
              "from a.b import c, d\nfrom e import f\n"
              "__all__ = ['f']\nprint(c, os.sep)\n")
    assert unused_imports(source) == [(2, "system"), (3, "d")]
