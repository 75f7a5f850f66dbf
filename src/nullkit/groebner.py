"""Buchberger's algorithm and normal forms.

The basis returned is always the reduced monic Groebner basis, sorted
ascending by leading monomial, so equal ideals give byte-identical
bases.  Pair selection uses the normal strategy (smallest lcm degree
first, ties broken by the monomial order on the lcm, then by pair
index); pairs with coprime leading monomials are discarded.  A popped
pair (i, j) is also discarded by Buchberger's chain criterion when some
other element k has LM(g_k) dividing lcm(LM(g_i), LM(g_j)) and neither
(i, k) nor (j, k) is still pending: the S-polynomial of (i, j) is then
a combination of those of (i, k) and (j, k), which are already treated.
The reduced basis is unique, so neither rule changes the output.  The
computation aborts once any intermediate polynomial passes total degree
64 or the working basis passes 4096 elements.
"""

import heapq

from .errors import DegreeOverflow
from .poly import (
    DEGREVLEX,
    Polynomial,
    mono_coprime,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
)

MAX_DEGREE = 64
MAX_BASIS = 4096


class GroebnerBasis:
    """Reduced monic basis together with its monomial order."""

    __slots__ = ("order", "gens", "_leads")

    def __init__(self, order, gens):
        self.order = order
        self.gens = tuple(gens)
        self._leads = None

    def leads(self):
        if self._leads is None:
            self._leads = tuple((g.leading(self.order)[0], g)
                                for g in self.gens)
        return self._leads

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.order == other.order and self.gens == other.gens

    def __repr__(self):
        return f"GB[{', '.join(str(g) for g in self.gens)}]"

    @property
    def is_unit(self):
        return len(self.gens) == 1 and self.gens[0].total_degree() == 0


def _reduce_full(terms, leads, order, spec, vars):
    """Full normal form of a term dict against (leading, reducer) pairs.

    Scans the largest remaining monomial first and tries reducers in
    their stored sequence, which makes the result deterministic.
    """
    work = dict(terms)
    done = {}
    key = order.key
    while work:
        mono = max(work, key=key)
        coef = work[mono]
        for lm, g in leads:
            if mono_divides(lm, mono):
                shift = mono_div(mono, lm)
                lc = g.terms[lm]
                factor = coef if lc.idx == 1 else coef * lc.inv()
                for e, c in g.terms.items():
                    tgt = tuple(x + y for x, y in zip(e, shift))
                    sub = factor * c
                    prev = work.get(tgt)
                    if prev is None:
                        if sub.idx:
                            work[tgt] = -sub
                    elif (s := prev - sub).idx:
                        work[tgt] = s
                    else:
                        del work[tgt]
                break
        else:
            done[mono] = coef
            del work[mono]
    return Polynomial(spec, vars, done)


def normal_form(f, basis):
    """Deterministic remainder of f modulo a GroebnerBasis."""
    if f.is_zero:
        return f
    return _reduce_full(f.terms, basis.leads(), basis.order, f.spec, f.vars)


def s_polynomial(f, g, order):
    ef, cf = f.leading(order)
    eg, cg = g.leading(order)
    l = mono_lcm(ef, eg)
    mf = Polynomial.monomial(f.spec, f.vars, mono_div(l, ef), cf.inv())
    mg = Polynomial.monomial(g.spec, g.vars, mono_div(l, eg), cg.inv())
    return mf * f - mg * g


def buchberger(gens, order=DEGREVLEX):
    """Reduced monic Groebner basis of the ideal the generators span."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return GroebnerBasis(order, ())
    spec, vars = gens[0].spec, gens[0].vars
    for g in gens[1:]:
        gens[0]._same_ring(g)
    one = Polynomial.constant(spec, vars, 1)
    G = []
    leads = []
    heap = []
    pending = set()

    def push_pairs(j):
        lmj = leads[j][0]
        for i in range(j):
            lmi = leads[i][0]
            if mono_coprime(lmi, lmj):
                continue
            l = mono_lcm(lmi, lmj)
            heapq.heappush(heap, (mono_deg(l), order.key(l), i, j, l))
            pending.add((i, j))

    def chain_redundant(i, j, l):
        # Buchberger's chain criterion (see the module docstring); coprime
        # pairs are never pending, so they count as treated.
        for k, (lmk, _) in enumerate(leads):
            if (k != i and k != j and mono_divides(lmk, l)
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False

    def add(g):
        if g.total_degree() > MAX_DEGREE:
            raise DegreeOverflow(
                f"intermediate degree {g.total_degree()} exceeds {MAX_DEGREE}")
        lm, lc = g.leading(order)
        if lc.idx != 1:
            g = g.scale(lc.inv())
        G.append(g)
        leads.append((lm, g))
        if len(G) > MAX_BASIS:
            raise DegreeOverflow(f"basis exceeds {MAX_BASIS} elements")
        push_pairs(len(G) - 1)

    for g in gens:
        if g.total_degree() == 0:
            return GroebnerBasis(order, (one,))
        add(g)

    while heap:
        _, _, i, j, l = heapq.heappop(heap)
        pending.remove((i, j))
        if chain_redundant(i, j, l):
            continue
        s = s_polynomial(G[i], G[j], order)
        if s.is_zero:
            continue
        r = _reduce_full(s.terms, leads, order, spec, vars)
        if r.is_zero:
            continue
        if r.total_degree() == 0:
            return GroebnerBasis(order, (one,))
        add(r)

    # Minimalize: drop members whose leading monomial another one divides.
    key = order.key
    by_lm = sorted(leads, key=lambda p: key(p[0]))
    minimal = []
    for lm, g in by_lm:
        if not any(mono_divides(lm2, lm) for lm2, _ in minimal):
            minimal.append((lm, g))

    # Interreduce each member against the others.  No other lead divides
    # its own, so its monic leading term survives and the order holds.
    polys = [_reduce_full(g.terms, minimal[:i] + minimal[i + 1:], order,
                          spec, vars)
             for i, (_, g) in enumerate(minimal)]
    return GroebnerBasis(order, polys)


def divide_exact(f, g, order=DEGREVLEX):
    """Quotient of f by a single divisor g, which must divide exactly."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return f
    lm, lc = g.leading(order)
    work = dict(f.terms)
    quot = {}
    key = order.key
    while work:
        mono = max(work, key=key)
        coef = work[mono]
        if not mono_divides(lm, mono):
            raise ValueError(f"{g} does not divide {f}")
        shift = mono_div(mono, lm)
        factor = coef if lc.idx == 1 else coef * lc.inv()
        quot[shift] = factor
        for e, c in g.terms.items():
            tgt = tuple(x + y for x, y in zip(e, shift))
            sub = factor * c
            prev = work.get(tgt)
            if prev is None:
                if sub.idx:
                    work[tgt] = -sub
            elif (s := prev - sub).idx:
                work[tgt] = s
            else:
                del work[tgt]
    return Polynomial(f.spec, f.vars, quot)
