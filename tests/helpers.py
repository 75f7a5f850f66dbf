"""Shared test helpers: a call counter, random polynomials, the
reference point fold, the brute-force zero set, a schoolbook reference
for finite-field arithmetic, the subfield-image test, projective
normalization, FieldElement references for polynomial arithmetic, and
tuple-monomial references for normal forms, exact division,
S-polynomials and reduced Groebner bases, the translation to sympy with
sympy's bases, intersections and quotients over prime fields, the
brute-force anisotropic form list and the pool-product witness search."""

import itertools

from nullkit.conjectures import (
    Exhausted,
    RWitness,
    _monomial_basis,
    _SearchContext,
    _structures,
    _yvars,
    argument_pool,
    verify_kradical_witness,
)
from nullkit.errors import FieldMismatch
from nullkit.field import FieldElement, embed, enumerate_field, is_subfield
from nullkit.groebner import normal_form
from nullkit.ideals import ideal_intersect
from nullkit.poly import DEGREVLEX, Polynomial, mono_divides
from nullkit.varieties import (
    AFFINE,
    PROJECTIVE,
    PointTable,
    ProjectivePoint,
    Variety,
    point_ideal,
    space_table,
)


def count_calls(monkeypatch, name, module=None):
    """Patch module.<name> (nullkit.ideals by default) to record its
    calls; returns the record, one tuple of positional arguments per
    call.  A class may stand for the module: a patched method records
    its instance as the first argument."""
    if module is None:
        from nullkit import ideals as module

    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def random_poly(rng, spec, vars, deg, n_terms, homogeneous=True):
    """n_terms random terms of degree deg (at most deg when not
    homogeneous); equal monomials merge and zero coefficients drop."""
    elements = enumerate_field(spec)
    terms = {}
    for _ in range(n_terms):
        exps = [0] * len(vars)
        for _ in range(deg if homogeneous else rng.randint(0, deg)):
            exps[rng.randrange(len(vars))] += 1
        terms[tuple(exps)] = rng.choice(elements)
    return Polynomial(spec, vars, terms)


def ref_is_homogeneous_ideal(I):
    """True when every graded piece of every reduced basis element lies in
    I: the definition is_homogeneous_ideal is checked against."""
    basis = I.gb()
    for g in basis:
        for _, comp in g.homogeneous_components():
            if not normal_form(comp, basis).is_zero:
                return False
    return True


def fold_vanishing_ideal(V, spec=None, vars=None):
    """I(V) as the intersection of the point ideals, folded left to
    right: the reference the Buchberger-Moller oracle is checked
    against."""
    ideals = [point_ideal(p, spec, vars) for p in V.points]
    acc = ideals[0]
    for nxt in ideals[1:]:
        acc = ideal_intersect(acc, nxt)
    return acc


def take_rows(table, rows):
    """The PointTable of the points at the given positions of table."""
    return PointTable(table.spec, [[c[k] for k in rows] for c in table.cols],
                      len(rows))


def brute_zero_set(I, point_spec, kind):
    """The zero set by evaluating every generator on all of the space,
    keeping the zeros: the reference zero_set is checked against."""
    n = len(I.vars) - (kind == PROJECTIVE)
    table = space_table(point_spec, n, kind)
    for g in I.gens:
        if g:
            values, = table.evaluate(g)
            table = take_rows(table, [k for k, v in enumerate(values)
                                      if not v])
    return Variety(kind, point_spec, n, table.points(kind))


class RefField:
    """Schoolbook GF(p^e) on integer encodings sum(c_i * p^i): digits
    added mod p, products multiplied out and reduced modulo the monic m
    (little endian, degree e; the default t gives the prime field)."""

    def __init__(self, p, m=(0, 1)):
        self.p, self.m, self.e = p, tuple(m), len(m) - 1
        self.q = p ** self.e

    def digits(self, a):
        return [a // self.p ** i % self.p for i in range(self.e)]

    def encode(self, digits):
        return sum(c * self.p ** i for i, c in enumerate(digits))

    def add(self, a, b):
        return self.encode([(x + y) % self.p for x, y in
                            zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.encode([-x % self.p for x in self.digits(a)])

    def mul(self, a, b):
        e = self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        # t^k = t^(k-e) * t^e and t^e = -(m_0 + ... + m_(e-1) t^(e-1))
        for k in range(2 * e - 2, e - 1, -1):
            for i in range(e):
                prod[k - e + i] -= prod[k] * self.m[i]
        return self.encode([c % self.p for c in prod[:e]])

    def pow(self, a, k):
        """a^k for k >= 0, by square-and-multiply."""
        out = 1
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out

    def inv(self, a):
        return self.pow(a, self.q - 2)


def in_subfield_image(a, small):
    """True when a lies in the embedded image of the subfield small."""
    if a.spec is small:
        return True
    if not is_subfield(small, a.spec):
        raise FieldMismatch(f"{small} is not a subfield of {a.spec}")
    return a.idx < small.p


def normalize(coords):
    """The ProjectivePoint of coords, scaled so that the first nonzero
    coordinate becomes 1."""
    coords = tuple(coords)
    for a in coords:
        if a.idx:
            inv = a.inv()
            return ProjectivePoint(tuple(c * inv for c in coords))
    raise ValueError("the zero vector is not a projective point")


# ------------------------------------------ FieldElement polynomial loops
# Polynomial arithmetic as it ran on FieldElement coefficients, before
# Polynomial.terms held encodings; each takes and returns Polynomials.

def _elements(f):
    return dict(f.sorted_terms())


def ref_add(f, g):
    out = _elements(f)
    for e, c in _elements(g).items():
        prev = out.get(e)
        if prev is None:
            out[e] = c
        else:
            s = prev + c
            if s.idx:
                out[e] = s
            else:
                del out[e]
    return Polynomial(f.spec, f.vars, out)


def ref_mul(f, g):
    out = {}
    for e1, c1 in _elements(f).items():
        for e2, c2 in _elements(g).items():
            key = tuple(x + y for x, y in zip(e1, e2))
            c = c1 * c2
            prev = out.get(key)
            if prev is None:
                if c.idx:
                    out[key] = c
            elif (s := prev + c).idx:
                out[key] = s
            else:
                del out[key]
    return Polynomial(f.spec, f.vars, out)


def ref_scale(f, c):
    if not isinstance(c, FieldElement):
        c = f.spec.element(c % f.spec.p)
    if c.spec is not f.spec:
        c = embed(c, f.spec)
    if c.idx == 0:
        return Polynomial.zero(f.spec, f.vars)
    return Polynomial(f.spec, f.vars,
                      {e: v * c for e, v in _elements(f).items()})


def ref_dehomogenize(f, position, value=1):
    c = value if isinstance(value, FieldElement) else f.spec.element(
        value % f.spec.p)
    out = {}
    for e, v in _elements(f).items():
        w = v * c ** e[position]
        key = e[:position] + e[position + 1:]
        prev = out.get(key)
        if prev is None:
            if w.idx:
                out[key] = w
        elif (s := prev + w).idx:
            out[key] = s
        else:
            del out[key]
    return Polynomial(f.spec, f.vars[:position] + f.vars[position + 1:], out)


# --------------------------------------------- tuple-monomial references

def mono_div(a, b):
    """Exponent vector of a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def ref_reduce_full(terms, leads, order, spec, vars):
    """Full normal form of a term dict against (leading, reducer) pairs.

    Scans the largest remaining monomial first and tries reducers in
    their stored sequence, which makes the result deterministic.
    """
    work = {e: spec.element(c) for e, c in terms.items()}
    done = {}
    key = order.key
    while work:
        mono = max(work, key=key)
        coef = work[mono]
        for lm, g in leads:
            if mono_divides(lm, mono):
                shift = mono_div(mono, lm)
                lc = spec.element(g.terms[lm])
                factor = coef if lc.idx == 1 else coef * lc.inv()
                for e, c in g.terms.items():
                    tgt = tuple(x + y for x, y in zip(e, shift))
                    sub = factor * spec.element(c)
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


def ref_divide_exact(f, g, order):
    """Quotient of f by a single divisor g, which must divide exactly."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return f
    lm, lc = g.leading(order)
    work = dict(f.sorted_terms(order))
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
            sub = factor * f.spec.element(c)
            prev = work.get(tgt)
            if prev is None:
                if sub.idx:
                    work[tgt] = -sub
            elif (s := prev - sub).idx:
                work[tgt] = s
            else:
                del work[tgt]
    return Polynomial(f.spec, f.vars, quot)


def ref_s_polynomial(f, g, order):
    """S-polynomial of f and g on Polynomial arithmetic: each lifted to
    the lcm of the leading monomials with leading coefficient 1 there,
    then subtracted."""
    (a, ca), (b, cb) = f.leading(order), g.leading(order)
    lcm = tuple(map(max, a, b))
    return (f * Polynomial.monomial(f.spec, f.vars, mono_div(lcm, a),
                                    ca.inv().idx)
            - g * Polynomial.monomial(g.spec, g.vars, mono_div(lcm, b),
                                      cb.inv().idx))


def ref_buchberger(gens, order):
    """Reduced monic Groebner basis, ascending by leading monomial, by
    textbook Buchberger: every pair, no criteria, ref_reduce_full.
    Pairs are treated in the order they were formed; newest first can
    grow the basis past 260 members on three dense GF(257) generators."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    spec, vars = gens[0].spec, gens[0].vars

    def lead(g):
        return g.leading(order)[0]

    def reduce(f, basis):
        return ref_reduce_full(f.terms, [(lead(g), g) for g in basis],
                               order, spec, vars)

    def monic(g):
        return g.scale(g.leading(order)[1].inv())

    basis = [monic(g) for g in gens]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        a, b = lead(basis[i]), lead(basis[j])
        lcm = tuple(map(max, a, b))
        s = (basis[i] * Polynomial.monomial(spec, vars, mono_div(lcm, a))
             - basis[j] * Polynomial.monomial(spec, vars, mono_div(lcm, b)))
        r = reduce(s, basis)
        if not r.is_zero:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(monic(r))
    basis.sort(key=lambda g: order.key(lead(g)))
    minimal = []
    for g in basis:
        if not any(mono_divides(lead(h), lead(g)) for h in minimal):
            minimal.append(g)
    return [reduce(g, minimal[:i] + minimal[i + 1:])
            for i, g in enumerate(minimal)]


def to_sympy(f, syms):
    """f over a prime field as a sympy expression in the symbols syms."""
    import sympy

    return sympy.Add(*(c * sympy.prod(s ** k for s, k in zip(syms, e))
                       for e, c in f.terms.items()))


def sympy_basis(exprs, syms, p):
    """sympy's reduced grevlex basis mod p of the expressions, each
    member the frozenset of its monic terms (exponents, coefficient),
    as basis_terms gives nullkit's."""
    import sympy

    out = set()
    for q in sympy.groebner(exprs, *syms, modulus=p, order="grevlex"):
        terms = {e: int(c) % p for e, c in
                 sympy.Poly(q, *syms, modulus=p).terms()}
        lead = max(terms, key=DEGREVLEX.key)
        inv = pow(terms[lead], p - 2, p)
        out.add(frozenset((e, c * inv % p) for e, c in terms.items() if c))
    return out


def basis_terms(basis):
    return {frozenset(g.terms.items()) for g in basis}


def sympy_intersect(I, J, syms, p):
    """Generators of <I> cap <J> for lists of sympy expressions: a lex
    basis of t*I + (1 - t)*J, t first, keeping the members free of t."""
    import sympy

    t = sympy.Dummy("t")
    lifted = [t * f for f in I] + [(1 - t) * g for g in J]
    return [q for q in sympy.groebner(lifted, t, *syms, modulus=p,
                                      order="lex").exprs if not q.has(t)]


def sympy_quotient(I, J, syms, p):
    """Generators of <I> : <J>: the parts (I cap <g>) / g, intersected
    over the generators g of J, all nonzero."""
    import sympy

    result = None
    for g in J:
        part = []
        for w in sympy_intersect(I, [g], syms, p):
            q, r = sympy.div(w, g, *syms, modulus=p)
            assert r == 0
            part.append(q)
        result = part if result is None else sympy_intersect(
            result, part, syms, p)
    return result


def sympy_saturate(I, J, syms, p):
    """Generators of <I> : <J>^infinity for lists of sympy expressions:
    the parts <I> : g^infinity, each a lex basis of I + <1 - t*g>, t
    first, keeping the members free of t, intersected over the
    generators g of J, all nonzero."""
    import sympy

    t = sympy.Dummy("t")
    result = None
    for g in J:
        part = [q for q in sympy.groebner(list(I) + [1 - t * g], t, *syms,
                                          modulus=p, order="lex").exprs
                if not q.has(t)]
        result = part if result is None else sympy_intersect(
            result, part, syms, p)
    return result


def ref_anisotropic_forms(K, m, d):
    """The monic forms in y0..ym of degree d with only the trivial zero,
    by brute force: every monic coefficient vector over the descending
    monomial basis, in lexicographic order, tested at every nonzero
    point."""
    monos = _monomial_basis(K.q, m + 1, [d],
                            "{q}^{n} candidate forms exceed the search limit")
    add, mul = K.add, K.mul

    def anisotropic(vec):
        for row in rows:
            s = 0
            for v, cell in zip(vec, row):
                if v:
                    s = add[s][mul[v][cell]]
            if not s:
                return False
        return True

    space = space_table(K, m + 1, AFFINE)
    space = take_rows(space, range(1, space.size))  # the origin comes first
    rows = list(zip(*(space.monomial(mono) for mono in monos)))
    return tuple(Polynomial(K, _yvars(m), dict(zip(monos, vec)))
                 for vec in itertools.product(range(K.q), repeat=len(monos))
                 if next((v for v in vec if v), 0) == 1 and anisotropic(vec))


def ref_search_witness(f, I, family, bounds):
    """search_witness by the pool-product scan: collect every argument id
    tuple whose composition lies in I, then return the first pool tuple,
    in itertools.product order, whose residue ids are one of them.  Ids
    are tried whether or not they vanish on the zero set, and f whether
    or not it does; only the residue arithmetic is shared."""
    ctx = _SearchContext(f, I, bounds)
    res = ctx.residues
    pool = [(g, res.intern(normal_form(g, res.basis)))
            for g in argument_pool(I.spec, I.vars, bounds.max_deg_args)]
    ids = tuple(dict.fromkeys(i for _, i in pool))
    count = 0
    for forms, breakpoints, inner_exp in _structures(ctx, family):
        w = RWitness(family, forms, breakpoints, (), f, I, inner_exp)
        nargs = w.breakpoints[-1]
        count += len(pool) ** nargs
        forms, breakpoints = w.chain()
        links = tuple(zip(map(ctx.form, forms), breakpoints))
        passing = set()
        for combo in itertools.product(ids, repeat=nargs):
            h, prev = ctx.f_id, 0
            for form, stop in links:
                h = ctx.compose_mod(form, (h, *combo[prev:stop]))
                prev = stop
            if h == res.zero_id:
                passing.add(combo)
        if not passing:
            continue
        for args in itertools.product(pool, repeat=nargs):
            if tuple(i for _, i in args) in passing:
                w.args = tuple(g for g, _ in args)
                if verify_kradical_witness(w):
                    return w
                break
    return Exhausted(family, count, bounds)
