"""Ideals in a fixed polynomial ring and the operations on them.

An Ideal keeps its generator list exactly as given (several results
depend on the presentation) plus a per-order cache of reduced Groebner
bases and the witness search's residue memos, which depend only on the
reduced degrevlex basis and so live as long as the ideal.  Intersection
adjoins a fresh scaling variable at position 0 of a block order and
eliminates it.  Quotient intersects one part per divisor: for
homogeneous generators and a divisor c*X_j^k the part is read off a
degrevlex basis with X_j last (Bayer-Stillman 1987; Eisenbud,
Commutative Algebra, Prop. 15.12), and any other part divides the
intersection with the principal divisor exactly.

Saturation I : J^infinity reports the rounds a loop of quotients by J
runs until the ideal stops growing: r* + 1, r* the least r with
J^r * I^sat inside I.  For homogeneous generators and a J of single
terms c*X_j^k it intersects I : X_j^infinity over the distinct j, each
read off the same permuted basis as the colon, and finds r* from
normal forms modulo I's basis; any other input runs the loop itself.
"""

from .errors import RingMismatch, ZeroDivisorIdeal
from .groebner import (
    DEGREVLEX,
    GroebnerBasis,
    buchberger,
    divide_exact,
    normal_form,
)
from .poly import (
    Polynomial,
    block_order,
    drop_variable,
    insert_variable,
    permute_variables,
)


class Ideal:
    """Finitely generated ideal of spec[vars]."""

    __slots__ = ("spec", "vars", "gens", "_gb", "_residues")

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
        # conjectures keeps the search's residues here, by name
        self._residues = {}

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
    return eliminate(Ideal(I.spec, tvars, gens), 1)


def eliminate(I, k):
    """Generators of I intersected with the subring skipping k variables."""
    if k == 0:
        return I
    if not 0 < k < len(I.vars):
        raise ValueError(f"cannot eliminate {k} of {len(I.vars)} variables")
    basis = I.gb(block_order(k))
    # A reduced block-order basis restricts to a reduced degrevlex basis
    # of the elimination ideal, so the cache can be seeded directly.
    kept = []
    for g in basis:
        if any(any(e[:k]) for e in g.terms):
            continue
        h = g
        for _ in range(k):
            h = drop_variable(h, 0)
        kept.append(h)
    return _from_basis(I.spec, I.vars[k:], GroebnerBasis(DEGREVLEX, kept))


def _variable_power(g):
    """(j, k) when g is a single term c*X_j^k with k >= 1, else None."""
    if len(g.terms) != 1:
        return None
    (e,) = g.terms
    support = [i for i, x in enumerate(e) if x]
    return (support[0], e[support[0]]) if len(support) == 1 else None


def _quotient_by_variable_power(I, j, k=None):
    """I : X_j^k for an ideal with homogeneous generators (Bayer-Stillman).

    With X_j last in degrevlex, X_j^a divides a homogeneous f exactly
    when it divides LM(f), so dividing each element of the reduced basis
    by X_j^min(k, v), v the exponent of X_j dividing it, gives a basis of
    the quotient.  k=None divides by X_j^v and gives I : X_j^infinity.
    """
    n = len(I.vars)
    perm = tuple(i for i in range(n) if i != j) + (j,)
    back = tuple(perm.index(i) for i in range(n))
    basis = I.gb() if j == n - 1 else buchberger(
        [permute_variables(g, perm) for g in I.gens])
    parts = []
    for g in basis:
        v = min(e[-1] for e in g.terms)
        if k is not None:
            v = min(k, v)
        parts.append(permute_variables(Polynomial(g.spec, g.vars, {
            e[:-1] + (e[-1] - v,): c for e, c in g.terms.items()}), back))
    return Ideal(I.spec, I.vars, tuple(parts))


def ideal_quotient(I, J):
    """The colon ideal I : J, intersected over J's generators.

    Each part I : g has one of two routes.  When every stored generator
    of I is homogeneous and g is a single term c*X_j^k, the part comes
    from one reduced degrevlex basis of I with X_j moved last (the
    cached I.gb() when X_j already is last), each element divided by
    the power of X_j it shares with X_j^k.  Any other part intersects I
    with <g> and divides the result exactly by g.
    """
    I._check_ring(J)
    divisors = [g for g in J.gens if not g.is_zero]
    if not divisors:
        raise ZeroDivisorIdeal("quotient by the zero ideal")
    homogeneous = all(g.is_homogeneous for g in I.gens)
    result = None
    for g in divisors:
        power = _variable_power(g) if homogeneous else None
        if power is not None:
            part = _quotient_by_variable_power(I, *power)
        else:
            meet = ideal_intersect(I, Ideal(I.spec, I.vars, (g,)))
            part = Ideal(I.spec, I.vars,
                         tuple(divide_exact(w, g) for w in meet.gens))
        result = part if result is None else ideal_intersect(result, part)
    return result


def _echelon(polys):
    """Rows with distinct leading monomials spanning the same space.

    Eliminates only between equal leading monomials, never by monomial
    division, so it is linear algebra on coefficient vectors.
    """
    rows = {}
    for f in polys:
        while f:
            lm, c = f.leading()
            row = rows.get(lm)
            if row is None:
                rows[lm] = f.scale(c.inv())
                break
            f = f - row.scale(c)
    return list(rows.values())


def ideal_saturate(I, J):
    """I : J^infinity as a reduced ideal, with the round count.

    Rounds count the quotients by J that a loop runs until one returns
    its input, so an already saturated ideal reports 1 and an ideal that
    grows once before stabilizing reports 2.  Since I : J^r grows with r
    and stops exactly when it reaches I^sat, that is r* + 1 for r* the
    least r with J^r * I^sat inside I.

    When every stored generator of I is homogeneous and every divisor
    is a single term c*X_j^k, I^sat is the intersection of I : X_j^infinity
    over the distinct j, and r* is the number of times the span of the
    normal forms of I^sat's generators modulo I.gb() must be multiplied
    by the divisors, and reduced again, to vanish; NF(g*NF(f)) = NF(g*f)
    makes this exact.  Any other input iterates ideal_quotient.
    """
    divisors = [g for g in J.gens if not g.is_zero]
    if not divisors:
        raise ZeroDivisorIdeal("saturation by the zero ideal")
    homogeneous = all(g.is_homogeneous for g in I.gens)
    powers = [_variable_power(g) if homogeneous else None for g in divisors]
    if None not in powers:
        sat = None
        for j in dict.fromkeys(j for j, _ in powers):
            part = _quotient_by_variable_power(I, j)
            sat = part if sat is None else ideal_intersect(sat, part)
        sat = reduced(sat)
        basis = I.gb()
        span = _echelon(normal_form(f, basis) for f in sat.gens)
        rounds = 1
        while span:
            span = _echelon(normal_form(g * v, basis)
                            for g in divisors for v in span)
            rounds += 1
        return sat, rounds
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
