"""Ideals in a fixed polynomial ring and the operations on them.

An Ideal keeps its generator list exactly as given (several results
depend on the presentation) plus a per-order cache of reduced Groebner
bases and the witness search's residue memos, which depend only on the
reduced degrevlex basis and so live as long as the ideal.
check_polynomial is the one test that a polynomial lives in its ring.
_scaling_ring is the one ring with a fresh scaling variable T at
position 0: intersection eliminates T, in a block order, from
T*I + (1 - T)*J, where a generator g of both enters once, as g, since
<T*g, (1 - T)*g> = <g>.  The Rabinowitsch ideal I + <1 - T*g> serves
saturation and radical membership.

Quotient I : J and saturation I : J^infinity are one fold (_fold) of
parts I : g or I : g^infinity over the divisors g of J.  For a
homogeneous I and g = c*X_j^k the part is read off a degrevlex basis
with X_j last (Bayer-Stillman 1987; Eisenbud, Commutative Algebra,
Prop. 15.12), as its reduced basis; any other part is (I cap <g>) / g,
or T eliminated from I + <1 - T*g> (Rabinowitsch).  The fold skips a
divisor g when h*r lies in I for each generator r of the running
result, h = g, or g^K for a single-term g in saturation, K the top
degree of I.gb(): X_j^(k*K)*r in I puts r in I : X_j^infinity.  Saturation
reports r* + 1 rounds, r* the least r with J^r * I^sat inside I, found
from normal forms modulo I's basis on field._Echelon.  An ideal is
homogeneous exactly when its reduced basis for a graded order is (Cox,
Little & O'Shea, Ideals, Varieties, and Algorithms, ch. 8 sec. 3,
Thm. 2), so is_homogeneous_ideal reads it off I.gb() unless the stored
generators already are.  Gamma_q^* is a known group (see groebner) in
every degrevlex run on a sum holding it, whichever variable comes last.

Each ring change here is one re-keying of the term dict, with no
polynomial product: T put first (g, T*g and (1 - T)*g take T's exponent
0, 1, or 0 and 1 with the T-terms negated through spec.neg), the first
k variables dropped.
"""

from .errors import RingMismatch, ZeroDivisorIdeal
from .field import _Echelon
from .groebner import (
    DEGREVLEX,
    GroebnerBasis,
    _reduce_basis,
    buchberger,
    divide_exact,
    normal_form,
)
from .poly import Polynomial, _degrevlex_last, block_order


class Ideal:
    """Finitely generated ideal of spec[vars]."""

    __slots__ = ("spec", "vars", "gens", "_gb", "_residues", "_known")

    def __init__(self, spec, vars, gens):
        self.spec = spec
        self.vars = tuple(vars)
        self.gens = tuple(gens)
        for g in self.gens:
            self.check_polynomial(g)
        self._gb = {}  # order -> reduced basis
        # conjectures keeps the search's residues here, by name
        self._residues = {}
        self._known = ()  # gens groups reduced in every variable order

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
            basis = buchberger(list(self.gens), order, _known=(
                self._known if order.kind == "degrevlex" else ()))
            self._gb[order] = basis
        return basis

    def seed_gb(self, basis):
        """Record an externally known reduced basis for its order."""
        self._gb[basis.order] = basis
        return self

    def check_polynomial(self, f):
        """Refuse a polynomial f outside this ideal's ring."""
        if f.spec is not self.spec or f.vars != self.vars:
            raise RingMismatch(
                f"{f} does not live in {self.spec}[{','.join(self.vars)}]")

    def contains(self, f):
        self.check_polynomial(f)
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
    S = Ideal(I.spec, I.vars, I.gens + J.gens)
    S._known = I._known + J._known
    return S


def ideal_intersect(I, J):
    """I cap J through the scaling-variable elimination.  A generator g
    of both enters once, first and untagged: <T*g, (1 - T)*g> = <g>.
    A side given by its reduced basis lifts to a known block(1) group."""
    I._check_ring(J)
    if I.is_zero or J.is_zero:
        return Ideal(I.spec, I.vars, ())
    tvars, lift = _scaling_ring(I)
    shared = set(J.gens).intersection(I.gens)
    gens = [lift(g, (1,)) for g in I.gens if g in shared]
    sides = [[lift(g, u) for g in X.gens if g and g not in shared]
             for X, u in ((I, (0, 1)), (J, (1, -1)))]
    known = [side for X, side in zip((I, J), sides)
             if getattr(X._gb.get(DEGREVLEX), "gens", None) == X.gens]
    meet = Ideal(I.spec, tvars, gens + sides[0] + sides[1])
    meet.seed_gb(buchberger(meet.gens, block_order(1), _known=known))
    return eliminate(meet, 1)


def _scaling_ring(I):
    """I's ring with a fresh variable T put first: its variables, and
    lift(g, u), the re-keying of g of I's ring to u(T) * g for u the
    coefficients of 1, T, ... in {-1, 0, 1}."""
    tvars, neg = (fresh_var(I.vars),) + I.vars, I.spec.neg
    return tvars, lambda g, u: Polynomial(I.spec, tvars, {
        (k, *e): c if s > 0 else neg[c]
        for k, s in enumerate(u) if s for e, c in g.terms.items()})


def eliminate(I, k):
    """Generators of I intersected with the subring skipping k variables."""
    if k == 0:
        return I
    if not 0 < k < len(I.vars):
        raise ValueError(f"cannot eliminate {k} of {len(I.vars)} variables")
    basis = I.gb(block_order(k))
    # A reduced block-order basis restricts to a reduced degrevlex basis
    # of the elimination ideal, so the cache can be seeded directly.
    vars = I.vars[k:]
    kept = [Polynomial(I.spec, vars, {e[k:]: c for e, c in g.terms.items()})
            for g in basis if not any(any(e[:k]) for e in g.terms)]
    return _from_basis(I.spec, vars, GroebnerBasis(DEGREVLEX, kept))


def _divisors(I, J, op):
    """(g, (j, k) or None) per nonzero generator g of J: (j, k) when g is
    c*X_j^k, k >= 1, and I is homogeneous; op names a zero J."""
    I._check_ring(J)
    divisors = [g for g in J.gens if not g.is_zero]
    if not divisors:
        raise ZeroDivisorIdeal(f"{op} by the zero ideal")
    powers = []
    for g in divisors:
        support = [(i, x) for i, x in enumerate(next(iter(g.terms))) if x]
        powers.append(support[0] if len(g.terms) == len(support) == 1
                      else None)
    if any(powers) and not is_homogeneous_ideal(I):
        powers = [None] * len(powers)
    return list(zip(divisors, powers))


def _quotient_by_variable_power(I, j, k=None):
    """I : X_j^k for a homogeneous ideal (Bayer-Stillman), given by its
    reduced basis for degrevlex with X_j last.

    In that order X_j^a divides a homogeneous f exactly when it divides
    LM(f), so dividing each element of the reduced basis by
    X_j^min(k, v), v the exponent of X_j dividing it, gives a Groebner
    basis of the quotient, reduced with no S-pair.  k=None divides by
    X_j^v and gives I : X_j^infinity.
    """
    order, divided = _degrevlex_last(j, len(I.vars)), []
    for g in I.gb(order):
        v = min(e[j] for e in g.terms)
        if k is not None:
            v = min(k, v)
        divided.append(Polynomial(I.spec, I.vars, {
            (*e[:j], e[j] - v, *e[j + 1:]): c for e, c in g.terms.items()}))
    return _from_basis(I.spec, I.vars, _reduce_basis(divided, order))


def _holds(I, gens):
    """True when a reduced basis of I at hand shows that I holds gens."""
    for basis in I._gb.values():  # the first cached one
        return all(normal_form(f, basis).is_zero for f in reversed(gens))
    return False


def _fold(I, divisors, saturate):
    """The intersection of the parts I : g, or I : g^infinity when
    saturate, over the divisors g, the part off I.gb() first, skipping g
    as above; a part that the result's basis holds replaces the result.
    Generators are tried from the last, which most often fails first."""
    last, result = len(I.vars) - 1, None
    K = max((f.total_degree() for f in I.gb()), default=1) if saturate else 1
    for g, power in sorted(divisors,
                           key=lambda d: d[1] is None or d[1][0] < last):
        h = g ** K if len(g.terms) == 1 else g
        if result is not None and all(normal_form(h * r, I.gb()).is_zero
                                      for r in reversed(result.gens)):
            continue
        if power:
            part = _quotient_by_variable_power(
                I, power[0], None if saturate else power[1])
        elif saturate:
            part = eliminate(_rabinowitsch(I, g), 1)
        else:
            meet = ideal_intersect(I, Ideal(I.spec, I.vars, (g,)))
            part = Ideal(I.spec, I.vars,
                         tuple(divide_exact(w, g) for w in meet.gens))
        if result is None or _holds(result, part.gens):
            result = part
        else:
            result = ideal_intersect(result, part)
    return result


def ideal_quotient(I, J):
    """The colon ideal I : J, intersected over J's generators (_fold)."""
    return _fold(I, _divisors(I, J, "quotient"), False)


def _rabinowitsch(I, f):
    """I + <1 - T*f> in the ring with a fresh variable T put first."""
    tvars, lift = _scaling_ring(I)
    gens = [lift(g, (1,)) for g in I.gens if g]
    gens.append(lift(f, (0, -1)) + Polynomial.constant(I.spec, tvars, 1))
    return Ideal(I.spec, tvars, gens)


def _span(I, polys):
    """A basis of the span of polys in I's ring: the rows of an _Echelon
    of their coefficient vectors over the monomials they use."""
    polys = list(polys)
    monos = list(dict.fromkeys(e for f in polys for e in f.terms))
    echelon = _Echelon(I.spec)
    for label, f in enumerate(polys):
        echelon.insert(label, [f.terms.get(e, 0) for e in monos])
    return [Polynomial(I.spec, I.vars, dict(zip(monos, row)))
            for _, row, _ in echelon.rows]


def ideal_saturate(I, J):
    """I : J^infinity as a reduced ideal, with the round count.

    I^sat intersects the parts I : g^infinity over the divisors g
    (_fold).

    Rounds count the quotients by J that a loop would run until one
    returns its input, so an already saturated ideal reports 1 and an
    ideal that grows once before stabilizing reports 2.  Since I : J^r
    grows with r and stops exactly when it reaches I^sat, that is
    r* + 1 for r* the least r with J^r * I^sat inside I: the number of
    times the span of the normal forms of I^sat's generators modulo
    I.gb() must be multiplied by the divisors, and reduced again, to
    vanish.  NF(g*NF(f)) = NF(g*f) makes this exact for any I.
    """
    divisors = _divisors(I, J, "saturation")
    sat = reduced(_fold(I, divisors, True))
    basis = I.gb()
    span = _span(I, (normal_form(f, basis) for f in sat.gens))
    rounds = 1
    while span:
        span = _span(I, (normal_form(g * v, basis)
                         for g, _ in divisors for v in span))
        rounds += 1
    return sat, rounds


def is_homogeneous_ideal(I):
    """True when the stored generators are homogeneous, else when the
    reduced degrevlex basis is (see above)."""
    return (all(g.is_homogeneous for g in I.gens)
            or all(g.is_homogeneous for g in I.gb()))


def radical_membership(f, I):
    """Scaling-trick radical test: 1 in I + <1 - T*f>."""
    I.check_polynomial(f)
    return _rabinowitsch(I, f).gb(block_order(1)).is_unit


__all__ = [
    "Ideal", "reduced", "fresh_var", "ideal_sum", "ideal_intersect",
    "eliminate", "ideal_quotient", "ideal_saturate",
    "is_homogeneous_ideal", "radical_membership",
]
