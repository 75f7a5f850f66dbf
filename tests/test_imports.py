"""Every name a nullkit module imports is used there or re-exported,
and every function and class a module defines is read or exported.

A stdlib ast walk over src/nullkit/*.py (the package __init__ only
re-exports, so the import check skips it): an imported name counts as
used when the module reads it anywhere or lists it in __all__.  A
module-level def or class counts as used when some module of the
package reads it, as a Name or an Attribute, or an __all__ lists it;
code that only the tests call belongs in the tests.  Every line of
src/nullkit/*.py is at most MAX_LINE characters.  A module's top-level
relative imports name only modules below it in LAYERS.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nullkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MAX_LINE = 79
LAYERS = ("errors", "field", "poly", "groebner", "ideals", "varieties",
          "nullstellensatz", "conjectures", "cli")


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


def unread_definitions(sources):
    """(module, name) of each module-level function or class in sources,
    a map from module name to source, that no module reads as a Name
    or an Attribute and no __all__ lists."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    read = set()
    for tree in trees.values():
        read |= _exported(tree)
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, node.name) for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in read)


def test_every_definition_is_read_or_exported():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    unread = unread_definitions(sources)
    assert not unread, "\n".join(
        f"{module}: {name} is neither read in src/nullkit nor exported"
        for module, name in unread)


def test_the_walk_finds_an_unread_definition():
    sources = {"a.py": ("def used(): pass\ndef exported(): pass\n"
                        "class Cls: pass\ndef attr(): pass\n"
                        "def stored(): pass\ndef unread(): used()\n"
                        "__all__ = ['exported']\n"),
               "b.py": "import a\nstored = 1\nprint(a.Cls.attr)\n"}
    assert unread_definitions(sources) == [("a.py", "stored"),
                                           ("a.py", "unread")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_lines_fit_the_width(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [(i, len(line)) for i, line in enumerate(lines, 1)
            if len(line) > MAX_LINE]
    assert not long, "\n".join(
        f"{path.name}:{i}: {n} characters, more than {MAX_LINE}"
        for i, n in long)


def layer_violations(module, source):
    """(line, name) of each top-level relative import of module that
    names a module not below it in LAYERS.  `from . import __version__`
    reads the package, which cli may do; imports inside functions are
    not checked."""
    rank = LAYERS.index(module)
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        if node.module is None:
            names = [a.name for a in node.names]
            if module == "cli" and names == ["__version__"]:
                continue
        else:
            names = [node.module]
        out += [(node.lineno, name) for name in names
                if name not in LAYERS[:rank]]
    return out


def test_layers_cover_the_modules():
    assert sorted(p.stem for p in MODULES) == sorted(LAYERS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_lower_layers(path):
    bad = layer_violations(path.stem, path.read_text(encoding="utf-8"))
    assert not bad, "\n".join(
        f"{path.name}:{line}: imports {name}, not below {path.stem}"
        for line, name in bad)


def test_the_walk_finds_an_upward_import():
    source = ("from .errors import A\nfrom .ideals import B\n"
              "from . import __version__\nfrom . import field\n"
              "import os\n\ndef f():\n    from .cli import main\n")
    assert layer_violations("poly", source) == [(2, "ideals"),
                                                (3, "__version__")]
    assert layer_violations("cli", source) == []
