"""Ideals in a fixed polynomial ring and the operations on them.

An Ideal keeps its generator list exactly as given (several results
depend on the presentation) plus a per-order cache of reduced Groebner
bases.  Intersection adjoins a fresh scaling variable at position 0 of a
block order and eliminates it; quotient divides the intersection with
each principal divisor; saturation iterates quotients to the fixed
point and reports how many rounds ran.
"""

from .errors import RingMismatch, ZeroDivisorIdeal
from .groebner import (
    DEGREVLEX,
    GroebnerBasis,
    buchberger,
    divide_exact,
    normal_form,
)
from .poly import Polynomial, block_order, drop_variable, insert_variable


class Ideal:
    """Finitely generated ideal of spec[vars]."""

    __slots__ = ("spec", "vars", "gens", "_gb")

    def __init__(self, spec, vars, gens):
        self.spec = spec
        self.vars = tuple(vars)
        gens = tuple(gens)
        for g in gens:
            if g.spec is not spec or g.vars != self.vars:
                raise RingMismatch(
                    f"generator {g} does not live in "
                    f"{spec}[{','.join(self.vars)}]")
        self.gens = gens
        self._gb = {}

    @classmethod
    def from_strings(cls, spec, vars, texts):
        from .poly import parse_polynomial
        return cls(spec, vars,
                   [parse_polynomial(t, vars, spec) for t in texts])

    @property
    def is_zero(self):
        return all(g.is_zero for g in self.gens)

    def gb(self, order=DEGREVLEX):
        basis = self._gb.get(order)
        if basis is None:
            basis = buchberger(list(self.gens), order)
            self._gb[order] = basis
        return basis

    def seed_gb(self, basis):
        """Record an externally known reduced basis for its order."""
        self._gb[basis.order] = basis
        return self

    def contains(self, f):
        if f.spec is not self.spec or f.vars != self.vars:
            raise RingMismatch(f"{f} is not in this ring")
        return normal_form(f, self.gb()).is_zero

    def equals(self, other, order=DEGREVLEX):
        self._check_ring(other)
        return self.gb(order).gens == other.gb(order).gens

    def _check_ring(self, other):
        if self.spec is not other.spec or self.vars != other.vars:
            raise RingMismatch("ideals live in different rings")

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.gens) + ">"

    __repr__ = __str__


def _from_basis(spec, vars, basis):
    """Ideal generated by a known reduced basis, cache pre-seeded."""
    return Ideal(spec, vars, basis.gens).seed_gb(basis)


def reduced(I, order=DEGREVLEX):
    """The same ideal presented by its reduced Groebner basis."""
    return _from_basis(I.spec, I.vars, I.gb(order))


def fresh_var(vars, base="T"):
    if base not in vars:
        return base
    i = 0
    while f"{base}{i}" in vars:
        i += 1
    return f"{base}{i}"


def ideal_sum(I, J):
    I._check_ring(J)
    return Ideal(I.spec, I.vars, I.gens + J.gens)


def ideal_intersect(I, J):
    """I cap J through the scaling-variable elimination."""
    I._check_ring(J)
    if I.is_zero or J.is_zero:
        return Ideal(I.spec, I.vars, ())
    t = fresh_var(I.vars)
    tvars = (t,) + I.vars
    tpoly = Polynomial.variable(I.spec, tvars, t)
    one = Polynomial.constant(I.spec, tvars, 1)
    gens = [tpoly * insert_variable(g, 0, t) for g in I.gens if g]
    gens += [(one - tpoly) * insert_variable(g, 0, t) for g in J.gens if g]
    basis = buchberger(gens, block_order(1))
    kept = [drop_variable(g, 0) for g in basis if not any(
        e[0] for e in g.terms)]
    # A reduced block-order basis restricts to a reduced degrevlex basis
    # of the elimination ideal, so the cache can be seeded directly.
    return _from_basis(I.spec, I.vars, GroebnerBasis(DEGREVLEX, kept))


def eliminate(I, k):
    """Generators of I intersected with the subring skipping k variables."""
    if k == 0:
        return I
    if not 0 < k < len(I.vars):
        raise ValueError(f"cannot eliminate {k} of {len(I.vars)} variables")
    basis = I.gb(block_order(k))
    kept = []
    for g in basis:
        if any(any(e[:k]) for e in g.terms):
            continue
        h = g
        for _ in range(k):
            h = drop_variable(h, 0)
        kept.append(h)
    return _from_basis(I.spec, I.vars[k:], GroebnerBasis(DEGREVLEX, kept))


def ideal_quotient(I, J):
    """The colon ideal I : J, folded over J's generators."""
    I._check_ring(J)
    divisors = [g for g in J.gens if not g.is_zero]
    if not divisors:
        raise ZeroDivisorIdeal("quotient by the zero ideal")
    result = None
    for g in divisors:
        meet = ideal_intersect(I, Ideal(I.spec, I.vars, (g,)))
        part = Ideal(I.spec, I.vars,
                     tuple(divide_exact(w, g) for w in meet.gens))
        result = part if result is None else ideal_intersect(result, part)
    return result


def ideal_saturate(I, J):
    """Fixed point of repeated quotients by J, with the round count.

    Rounds count executed quotients, so an already saturated ideal
    reports 1 and an ideal that grows once before stabilizing reports 2.
    """
    divisors = [g for g in J.gens if not g.is_zero]
    if not divisors:
        raise ZeroDivisorIdeal("saturation by the zero ideal")
    prev = I
    rounds = 0
    while True:
        nxt = ideal_quotient(prev, J)
        rounds += 1
        if nxt.equals(prev):
            return reduced(nxt), rounds
        prev = nxt


def is_homogeneous_ideal(I):
    """True when every graded piece of every basis element stays inside."""
    basis = I.gb()
    for g in basis:
        for _, comp in g.homogeneous_components():
            if not normal_form(comp, basis).is_zero:
                return False
    return True


def radical_membership(f, I):
    """Scaling-trick radical test: 1 in I + <1 - T*f>."""
    if f.spec is not I.spec or f.vars != I.vars:
        raise RingMismatch(f"{f} is not in this ring")
    t = fresh_var(I.vars)
    tvars = (t,) + I.vars
    tpoly = Polynomial.variable(I.spec, tvars, t)
    one = Polynomial.constant(I.spec, tvars, 1)
    gens = [insert_variable(g, 0, t) for g in I.gens if g]
    gens.append(one - tpoly * insert_variable(f, 0, t))
    return buchberger(gens, block_order(1)).is_unit


__all__ = [
    "Ideal", "reduced", "fresh_var", "ideal_sum", "ideal_intersect",
    "eliminate", "ideal_quotient", "ideal_saturate",
    "is_homogeneous_ideal", "radical_membership",
]
