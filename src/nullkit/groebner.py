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
The reduced basis is unique, so neither rule changes the output.
Pending pairs are bitmasks, bit j of pend[i] set while (i, j) is
pending and bit i always, so the chain test is one divisibility and
one bit test per member, which k = i, j fail.  The
computation aborts once any intermediate polynomial passes total degree
64 or the working basis passes 4096 elements.

Inside buchberger, normal_form and divide_exact a polynomial is packed:
a dict from packed monomials to coefficient encodings, combined through
the spec's add, mul, neg and inv tables (see field).  A packed monomial
is one int of fields, each W value bits with a guard bit above, so
integer comparison is the monomial order.  From the lowest field up:

    lex        deg, e[n-1], ..., e[0]
    degrevlex  ~e[0], ..., ~e[n-1], deg
    block(k)   ~e[k], ..., ~e[n-1], deg(tail), ~e[0], ..., ~e[k-1], deg(head)

where ~e = 2^W - 1 - e and deg is the degree of the segment below it
(of all variables for lex).  Each field is affine in the exponents, so
m * m2 / m1 packs as m + m2 - m1; m1 divides m2 when every field of
(x(m2) | guards) - x(m1) keeps its guard bit, x(m) being the exponent
fields with the complements undone.  Packings hold monomials whose
degree fields are below 2^(W-1).  Then no such sum leaves its field,
and a result that outgrows the packing sets bit W-1 of a degree field:
the computation then starts over on a packing twice as wide.  W is
sized from the data, to hold the inputs' degree and never less than
2 * MAX_DEGREE, so the S-polynomials of basis members always fit.
MAX_DEGREE is checked on exponent tuples before they are packed.
The lcm of two leads is the field-wise max of their x(), by the guard
bits of g = (x(a) | guards) - x(b) and the mask g - (g >> W), with
each degree field from one product.  Reducer tuples (x(lead), lead,
other terms) stay with their monic polynomials, in buchberger and in
GroebnerBasis, and are rebuilt in a wider packing.  Each packing is
built once per (order, spec, n, width) and shared.  A reduction in which
no lead divides a term of f returns f itself, with no copy and no heap.
"""

import heapq
from operator import mul as _times

from .errors import DegreeOverflow
from .poly import DEGREVLEX, Polynomial

MAX_DEGREE = 64
MAX_BASIS = 4096


class _Overflow(Exception):
    """A monomial outgrew its packing."""


_RINGS = {}  # (order, spec, n, width) -> the one _Ring; specs are interned


def _ring(order, spec, n, degree):
    key = (order, spec, n, max(degree, 2 * MAX_DEGREE).bit_length())
    return _RINGS.get(key) or _RINGS.setdefault(  # one winner per key
        key, _Ring(order, spec, n, degree))


class _Ring:
    """Packing of monomials in n variables for one order, with fields
    wide enough for degree and 2 * MAX_DEGREE, and the coefficient
    arithmetic of spec."""

    def __init__(self, order, spec, n, degree):
        self.order, self.spec, self.n = order, spec, n
        self.width = w = max(degree, 2 * MAX_DEGREE).bit_length() + 1
        # Fields from the lowest: a variable, or a segment for its degree.
        if order.kind == "lex":
            layout, sign = [range(n), *reversed(range(n))], 1
        else:  # degrevlex is block(0)
            k = min(order.block, n)
            layout, sign = [*range(k, n), range(k, n), *range(k), range(k)], -1
        self.top = (1 << w) - 1
        self.weights, self.fields, self.degrees = [0] * n, [0] * n, []
        self.exps = self.guards = self.trip = 0
        for pos, item in enumerate(layout):
            shift = pos * (w + 1)
            if isinstance(item, range):
                self.degrees.append(shift)
                self.trip |= 1 << (shift + w - 1)
                for i in item:
                    self.weights[i] += 1 << shift
            else:
                self.fields[item] = shift
                self.weights[item] += sign << shift
                self.exps |= self.top << shift
                self.guards |= 1 << (shift + w)
        self.flip = self.one = 0 if sign > 0 else self.exps
        self.segments = [  # (fields, spread, top field, degree field)
            (sum(self.top << self.fields[i] for i in item),
             sum(1 << k * (w + 1) for k in range(len(item))),
             max(self.fields[i] for i in item), pos * (w + 1))
            for pos, item in enumerate(layout)
            if isinstance(item, range) and item]

    def lcm(self, a, b):
        """(degree, packing) of the lcm of the monomials with x() a, b."""
        g = ((a | self.guards) - b) & self.guards
        x = b ^ ((a ^ b) & (g - (g >> self.width)))
        m, degree = x ^ self.flip, 0
        for sel, spread, low, shift in self.segments:
            d = (x & sel) * spread >> low & self.top
            m += d << shift
            degree += d
        return degree, m

    def pack_mono(self, exps):
        return sum(map(_times, exps, self.weights), self.one)

    def unpack_mono(self, m):
        m ^= self.flip
        return tuple((m >> shift) & self.top for shift in self.fields)

    def degree(self, m):
        return sum((m >> shift) & self.top for shift in self.degrees)

    def pack(self, f):
        """The packed f, whose degree the ring must hold."""
        return _Packed(self, {self.pack_mono(e): c
                              for e, c in f.terms.items()})


class _Packed:
    """Polynomial inside the kernel: {packed monomial: encoding} in ring."""

    __slots__ = ("ring", "terms", "_reducer")

    def __init__(self, ring, terms):
        self.ring, self.terms, self._reducer = ring, terms, None

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        return max(map(self.ring.degree, self.terms))

    def monic(self):
        lc = self.terms[max(self.terms)]
        if lc == 1:
            return self
        row = self.ring.spec.mul[self.ring.spec.inv[lc]]
        return _Packed(self.ring, {m: row[c] for m, c in self.terms.items()})

    def repack(self, ring):
        if ring is self.ring:
            return self
        unpack = self.ring.unpack_mono
        return _Packed(ring, {ring.pack_mono(unpack(m)): c
                              for m, c in self.terms.items()})

    def unpack(self, vars):
        ring = self.ring
        return Polynomial(ring.spec, vars, {ring.unpack_mono(m): c
                                            for m, c in self.terms.items()})

    def reducer(self):
        """(x(lead), lead, other terms) of a monic polynomial, x(m)
        being m's exponent fields with the complements undone."""
        if self._reducer is None:
            ring, lm = self.ring, max(self.terms)
            tail = [(m, c) for m, c in self.terms.items() if m != lm]
            self._reducer = ((lm ^ ring.flip) & ring.exps, lm, tail)
        return self._reducer


class GroebnerBasis:
    """Reduced monic basis together with its monomial order."""

    __slots__ = ("order", "gens", "_packed")

    def __init__(self, order, gens, packed=None):
        self.order = order
        self.gens = tuple(gens)
        self._packed = packed  # (ring, members' reducer tuples), on use

    def _reducers(self, f):
        """(ring, members' reducer tuples) in a ring that also holds f;
        the basis must not be empty."""
        self.gens[0]._same_ring(f)
        if self._packed is None:
            ring = _ring(self.order, f.spec, len(f.vars),
                         max(g.total_degree() for g in self.gens))
            self._packed = (ring, [ring.pack(g).monic().reducer()
                                   for g in self.gens])
        ring, reducers = self._packed
        if f.total_degree() >> (ring.width - 1):
            wide = _ring(self.order, f.spec, len(f.vars), f.total_degree())
            return wide, _repack(reducers, ring, wide)
        return ring, reducers

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


def _reduce(f, reducers, quotient=None):
    """Remainder of the packed f by reducer tuples in f's ring.

    Pops the largest remaining monomial from a heap, skipping entries
    whose term has cancelled, and tries reducers in their stored
    sequence, which makes the result deterministic.  Given a quotient
    dict, the quotient by the one reducer goes there, and the result is
    None once a term is not divisible.  Without one, f itself is returned
    when no lead divides any of its terms.  Raises _Overflow when a
    monomial outgrows f's ring.
    """
    if quotient is None and not _divisible(f, reducers):
        return f
    ring = f.ring
    guards, flip, exps, trip = ring.guards, ring.flip, ring.exps, ring.trip
    add, mul, neg = ring.spec.add, ring.spec.mul, ring.spec.neg
    work = dict(f.terms)
    heap = [-m for m in work]
    heapq.heapify(heap)
    done = {}
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        x = ((m ^ flip) & exps) | guards
        for key, lm, tail in reducers:
            if (x - key) & guards == guards:  # lm divides m
                delta = m - lm
                if quotient is not None:
                    quotient[delta + ring.one] = c
                row = mul[neg[c]]
                for e, ce in tail:
                    t = e + delta
                    if t & trip:
                        raise _Overflow
                    d = row[ce]
                    prev = work.get(t)
                    if prev is None:
                        work[t] = d
                        heapq.heappush(heap, -t)
                    elif s := add[prev][d]:
                        work[t] = s
                    else:
                        del work[t]
                break
        else:
            if quotient is not None:
                return None
            done[m] = c
    return _Packed(ring, done)


def _divisible(f, reducers):
    """True when a reducer's lead divides a term of the packed f."""
    guards, flip, exps = f.ring.guards, f.ring.flip, f.ring.exps
    for m in f.terms:
        x = ((m ^ flip) & exps) | guards
        for key, _, _ in reducers:
            if (x - key) & guards == guards:
                return True
    return False


def _repack(reducers, ring, wide):
    """Reducer tuples of ring rebuilt in the ring wide."""
    return [_Packed(ring, dict([(lm, 1), *tail])).repack(wide).reducer()
            for _, lm, tail in reducers]


def _widen(f, reducers):
    ring = _ring(f.ring.order, f.ring.spec, f.ring.n, 1 << 2 * f.ring.width)
    return f.repack(ring), _repack(reducers, f.ring, ring)


def _reduce_full(f, reducers):
    """Full normal form of the packed f against reducer tuples, in f's
    ring or a wider one."""
    while True:
        try:
            return _reduce(f, reducers)
        except _Overflow:
            f, reducers = _widen(f, reducers)


def normal_form(f, basis):
    """Deterministic remainder of f modulo a GroebnerBasis."""
    if f.is_zero or not basis.gens:
        return f
    ring, reducers = basis._reducers(f)
    return _reduce_full(ring.pack(f), reducers).unpack(f.vars)


def s_polynomial(f, g):
    """S-polynomial of two monic polynomials packed in one ring, as
    buchberger passes its members."""
    ring = f.ring
    add, neg = ring.spec.add, ring.spec.neg
    (kf, lf, _), (kg, lg, _) = f.reducer(), g.reducer()
    _, l = ring.lcm(kf, kg)
    out = {m + l - lf: c for m, c in f.terms.items()}
    for m, c in g.terms.items():
        t, d = m + l - lg, neg[c]
        prev = out.get(t)
        if prev is None:
            out[t] = d
        elif s := add[prev][d]:
            out[t] = s
        else:
            del out[t]
    return _Packed(ring, out)


def buchberger(gens, order=DEGREVLEX):
    """Reduced monic Groebner basis of the ideal the generators span."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return GroebnerBasis(order, ())
    spec, vars = gens[0].spec, gens[0].vars
    for g in gens[1:]:
        gens[0]._same_ring(g)
    # Members stay within MAX_DEGREE, so their S-polynomials fit.
    ring = _ring(order, spec, len(vars), 0)
    guards, flip, exps = ring.guards, ring.flip, ring.exps
    G, R, keys = [], [], []  # packed monic members, their reducer
    heap, pend = [], []      # tuples and the x() of their leads

    def push_pairs(j):
        key = keys[j]
        nonzero = (key + exps) & guards  # a guard per nonzero exponent
        for i in range(j):
            if (keys[i] + exps) & nonzero:
                heapq.heappush(heap, (*ring.lcm(keys[i], key), i, j))
                pend[i] |= 1 << j
                pend[j] |= 1 << i

    def chain_redundant(i, j, l):
        # Buchberger's chain criterion (see the module docstring); coprime
        # pairs are never pending, so they count as treated.
        x, both = ((l ^ flip) & exps) | guards, 1 << i | 1 << j
        for k, key in enumerate(keys):
            if (x - key) & guards == guards and not pend[k] & both:
                return True
        return False

    def add(g, degree):
        """Add the polynomial or packed g; True when it is a constant."""
        if degree == 0:
            return True
        if degree > MAX_DEGREE:
            raise DegreeOverflow(
                f"intermediate degree {degree} exceeds {MAX_DEGREE}")
        g = (ring.pack(g) if isinstance(g, Polynomial) else g.repack(ring))
        G.append(g.monic())
        R.append(G[-1].reducer())
        keys.append(R[-1][0])
        pend.append(1 << len(keys) - 1)
        if len(G) > MAX_BASIS:
            raise DegreeOverflow(f"basis exceeds {MAX_BASIS} elements")
        push_pairs(len(G) - 1)
        return False

    unit = any(add(g, g.total_degree()) for g in gens)
    while heap and not unit:
        _, l, i, j = heapq.heappop(heap)
        pend[i] ^= 1 << j
        pend[j] ^= 1 << i
        if chain_redundant(i, j, l):
            continue
        s = s_polynomial(G[i], G[j])
        if s.is_zero:
            continue
        r = _reduce_full(s, R)
        unit = not r.is_zero and add(r, r.degree())
    if unit:
        return GroebnerBasis(order, (Polynomial.constant(spec, vars, 1),))

    # Minimalize: drop members whose leading monomial another one divides.
    minimal = []
    for i in sorted(range(len(G)), key=lambda i: R[i][1]):
        x = keys[i] | guards
        if not any((x - keys[k]) & guards == guards for k in minimal):
            minimal.append(i)

    # Interreduce each member against the others.  No other lead divides
    # its own, so its monic leading term survives and the order holds.
    polys = [_reduce_full(G[i], [R[k] for k in minimal if k != i])
             for i in minimal]
    ring = max((p.ring for p in polys), key=lambda r: r.width)
    polys = [p.repack(ring) for p in polys]
    return GroebnerBasis(order, [p.unpack(vars) for p in polys],
                         (ring, [p.reducer() for p in polys]))


def divide_exact(f, g, order=DEGREVLEX):
    """Quotient of f by a single divisor g, which must divide exactly."""
    f._same_ring(g)
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return f
    ring = _ring(order, f.spec, len(f.vars),
                 max(f.total_degree(), g.total_degree()))
    num, den = ring.pack(f), ring.pack(g)
    # When g divides f, every term formed is t*m for a term t of the
    # quotient and m of g, of degree at most deg f, which the ring holds:
    # an overflow means that g does not divide f.
    quotient = {}
    try:
        rest = _reduce(num, [den.monic().reducer()], quotient)
    except _Overflow:
        rest = None
    if rest is None:
        raise ValueError(f"{g} does not divide {f}")
    # f = quotient * g / lc(g)
    row = f.spec.mul[f.spec.inv[den.terms[max(den.terms)]]]
    return _Packed(ring, {m: row[c] for m, c in quotient.items()}
                   ).unpack(f.vars)
