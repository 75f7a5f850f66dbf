"""Shared test helpers: a call counter and the reference point fold."""

from nullkit.ideals import ideal_intersect
from nullkit.varieties import point_ideal


def count_calls(monkeypatch, name, module=None):
    """Patch module.<name> (nullkit.ideals by default) to record its
    calls; returns the record."""
    if module is None:
        from nullkit import ideals as module

    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def fold_vanishing_ideal(V, spec=None, vars=None):
    """I(V) as the intersection of the point ideals, folded left to
    right: the reference the Buchberger-Moller oracle is checked
    against."""
    ideals = [point_ideal(p, spec, vars) for p in V.points]
    acc = ideals[0]
    for nxt in ideals[1:]:
        acc = ideal_intersect(acc, nxt)
    return acc
