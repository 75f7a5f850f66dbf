"""perfbench's tracer wraps nullkit functions by name and reads their
results: the targets must exist and keep the shape its hooks read, or
a rename turns traced metrics into silent "missing" entries."""

import ast
import importlib
from pathlib import Path

from nullkit import groebner
from nullkit.field import make_field
from nullkit.poly import parse_polynomial

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_tracer_targets_exist():
    """Every nullkit target perfbench's tracer wraps still exists, so a
    rename fails here instead of turning traced metrics into missing
    entries."""
    targets = _traced_targets()
    assert ("groebner", "_reduce_full") in targets
    assert ("field.FieldElement", "__mul__") in targets
    assert ("conjectures._SearchContext", "compose_mod") in targets
    for owner, attr in targets:
        module, _, cls = owner.partition(".")
        obj = importlib.import_module(f"nullkit.{module}")
        if cls:  # wrap_method reads the class's own dict
            assert attr in vars(getattr(obj, cls)), (owner, attr)
        else:
            assert getattr(obj, attr, None) is not None, (owner, attr)


def test_buchberger_reductions_have_is_zero(monkeypatch):
    """perfbench reads .is_zero off each _reduce_full result inside
    buchberger to count zero reductions."""
    results = []
    real = groebner._reduce_full

    def recording(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(groebner, "_reduce_full", recording)
    F3, vars = make_field(3), ("X", "Y", "Z")
    groebner.buchberger([parse_polynomial(s, vars, F3) for s in
                         ["X^2 - Y", "X*Y - Z", "Y^2 + X*Z - 2"]])
    zero = [r.is_zero for r in results]
    assert all(isinstance(z, bool) for z in zero)
    assert True in zero and False in zero


def _traced_targets():
    """(owner, attribute) of each wrap_function and wrap_method call in
    perfbench/layers.py's install(), read with ast; loops over literal
    tuples and module constants are unrolled, and an owner bound by
    getattr(module, "name", None) resolves to module.name."""
    tree = ast.parse(LAYERS.read_text())
    constants = {node.targets[0].id: ast.literal_eval(node.value)
                 for node in tree.body if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Tuple)}
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "install")
    targets = []

    def owner(node, env):
        if isinstance(node, ast.Attribute):
            return f"{owner(node.value, env)}.{node.attr}"
        return env.get(node.id, node.id)

    def walk(body, env):
        for stmt in body:
            if isinstance(stmt, ast.For):
                it = stmt.iter
                values = (constants[it.id] if isinstance(it, ast.Name)
                          else ast.literal_eval(it))
                for value in values:
                    walk(stmt.body, {**env, stmt.target.id: value})
            elif (isinstance(stmt, ast.Assign)
                  and isinstance(stmt.value, ast.Call)
                  and getattr(stmt.value.func, "id", "") == "getattr"):
                module, name = stmt.value.args[:2]
                env[stmt.targets[0].id] = f"{module.id}.{name.value}"
            elif (isinstance(stmt, ast.Expr)
                  and isinstance(stmt.value, ast.Call)
                  and getattr(stmt.value.func, "attr", "") in (
                      "wrap_function", "wrap_method")):
                obj, attr = stmt.value.args[:2]
                targets.append((owner(obj, env),
                                env[attr.id] if isinstance(attr, ast.Name)
                                else attr.value))

    walk(install.body, {})
    return targets
