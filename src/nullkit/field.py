"""Exact arithmetic in small finite fields GF(p^e).

A field is described by an interned FieldSpec (characteristic, extension
degree, modulus).  An element is held as its integer encoding
sum(rep[i] * p**i), rep its coefficient vector over GF(p) in the
generator t, little endian and reduced modulo the modulus; prime-field
encodings are the same in every extension.  All arithmetic runs on
encodings, through the spec's add, mul, neg and inv, read as tables.
Fields of at most _TABLE_LIMIT elements fill them and intern their
elements; larger fields read them from stand-ins that compute each entry
from the same functions.  Polynomial code and point evaluation both run
on them.

One kernel of univariate polynomials, coefficient lists over a spec
read through its tables, serves three callers: the arithmetic of an
extension, as polynomials in t over its prime field; Rabin's
irreducibility test for moduli, made monic by _upoly_monic; and
upoly_roots, the roots in GF(q) of a polynomial, which the zero sets
of varieties call per fibre.  Two rules live here once: _power,
square-and-multiply for polynomial, field and univariate powers, and
fold_exponent, the fold of an exponent by x^q = x.

_Echelon, vectors of encodings in row-echelon form, serves both
Buchberger-Moller in varieties and the saturation round count in ideals.

A field literal spells a modulus in the polynomial syntax of
poly.parse_polynomial, read as a polynomial in the variable t over
GF(p): GF(3^2; m=t^2+1).

The canonical enumeration order of GF(p^e) is by the integer encoding,
so GF(4) enumerates as 0, 1, t, t+1.
"""

import re
import threading
from functools import partial

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NoDefaultModulus,
    NotPrime,
    ParseError,
    ReducibleModulus,
    SizeOverflow,
)

# Interned specs keyed by (p, e, modulus); same inputs give the same object.
# The lock spans lookup and insert so that concurrent first requests for a
# field cannot each build and return their own spec.  It is reentrant, since
# an extension's arithmetic asks for its prime field.
_SPECS = {}
_SPECS_LOCK = threading.RLock()

# Moduli used when make_field is not given one, little endian.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),        # t^2 + t + 1
    (2, 3): (1, 1, 0, 1),     # t^3 + t + 1
    (3, 2): (1, 0, 1),        # t^2 + 1
    (2, 4): (1, 1, 0, 0, 1),  # t^4 + t + 1
}

# Extension degrees above this are refused, which bounds the exponent
# p^e in Rabin's irreducibility test.
_MAX_EXT_DEGREE = 8

# Fields at most this large get interned elements and O(q^2) operation
# tables; GF(251) builds in about 0.01 s, GF(1009) would take 80 MB.
_TABLE_LIMIT = 256


# Miller-Rabin on the first 13 prime bases is exact below _PRIME_LIMIT
# (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _PRIME_LIMIT:
        raise SizeOverflow(
            f"{n} is beyond the primality test, which is exact below "
            f"{_PRIME_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(q, e):
    """Largest r with r^e <= q, for q >= 0."""
    lo, hi = 0, 1 << (q.bit_length() // e + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** e <= q:
            lo = mid
        else:
            hi = mid - 1
    return lo


def prime_power(q):
    """(p, e) with p prime and p^e == q, or None when q is no prime power."""
    for e in range(max(q, 1).bit_length(), 0, -1):
        p = _iroot(q, e)
        if p ** e == q and _is_prime(p):
            return p, e
    return None


def _power(a, k, mul):
    """a^k for k >= 1 under the associative product mul, by
    square-and-multiply from the low bit of k, with no square after the
    top bit and no product with an identity."""
    out = None
    while True:
        if k & 1:
            out = a if out is None else mul(out, a)
        k >>= 1
        if not k:
            return out
        a = mul(a, a)


def fold_exponent(k, q):
    """The k' < q with x^k = x^k' at every x in GF(q): since x^q = x,
    k >= 1 folds onto ((k - 1) mod (q - 1)) + 1, and 0 stays 0."""
    return (k - 1) % (q - 1) + 1 if k else 0


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _upoly_reduce(a, m, F, quo=None):
    """Reduce the list a in place modulo the monic m over F, storing the
    quotient's coefficients into quo when given; returns a."""
    add, mul, neg = F.add, F.mul, F.neg
    dm = len(m) - 1
    tail = m[:-1]
    for top in range(len(a) - 1, dm - 1, -1):
        lead = a[top]
        if lead:
            if quo is not None:
                quo[top - dm] = lead
            row = mul[neg[lead]]
            for i, cm in enumerate(tail, top - dm):
                a[i] = add[a[i]][row[cm]]
    del a[dm:]
    return _trim(a)


def _upoly_divmod(a, m, F):
    """Quotient and remainder of the coefficient list a by the monic m
    over the field F."""
    quo = [0] * max(len(a) - len(m) + 1, 0)
    return quo, _upoly_reduce(list(a), m, F, quo)


def _upoly_mod(a, m, F):
    """Remainder of a modulo the monic m over F."""
    return _upoly_reduce(list(a), m, F)


def _upoly_mulmod(a, b, m, F):
    """a * b modulo the monic m over F."""
    if not a or not b:
        return []
    add, mul = F.add, F.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            row = mul[ca]
            for j, cb in enumerate(b, i):
                out[j] = add[out[j]][row[cb]]
    return _upoly_reduce(out, m, F)


def _upoly_powmod(a, k, m, F):
    """a^k modulo the monic m over F, for k >= 1."""
    return _power(_upoly_mod(a, m, F), k,
                  lambda x, y: _upoly_mulmod(x, y, m, F))


def _upoly_monic(a, F):
    """The nonzero a divided by its leading coefficient."""
    row = F.mul[F.inv[a[-1]]]
    return [row[c] for c in a]


def _upoly_gcd(a, b, F):
    """The monic gcd of a and b over F; [] when both are zero."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        b = _upoly_monic(b, F)
        a, b = b, _upoly_mod(a, b, F)
    return _upoly_monic(a, F) if a else a


def _upoly_sub(a, b, F):
    """a - b over F."""
    add, neg = F.add, F.neg
    a = a + [0] * (len(b) - len(a))
    b = [neg[c] for c in b] + [0] * (len(a) - len(b))
    return _trim([add[c][d] for c, d in zip(a, b)])


def _is_irreducible(m, p):
    """Rabin's test for the monic m over GF(p).

    m of degree e is irreducible exactly when t^(p^e) = t mod m and
    t^(p^(e/r)) - t is coprime to m for every prime r dividing e.
    """
    e = len(m) - 1
    if e < 1:
        return False
    if e == 1:
        return True
    F = make_field(p)

    def frobenius_minus_t(k):
        return _upoly_sub(_upoly_powmod([0, 1], p ** k, m, F), [0, 1], F)

    primes = [r for r in range(2, e + 1) if e % r == 0 and _is_prime(r)]
    return (not frobenius_minus_t(e)
            and all(len(_upoly_gcd(m, frobenius_minus_t(e // r), F)) == 1
                    for r in primes))


def upoly_eval(u, a, F):
    """The value at the encoding a of the coefficient list u over F."""
    add, row = F.add, F.mul[a]
    v = 0
    for c in reversed(u):
        v = add[row[v]][c]
    return v


def upoly_roots(u, F, q):
    """The distinct roots in GF(q) of the nonzero coefficient list u over
    F, ascending.  GF(q) is F or its prime field, so its elements are
    the encodings below q.

    A linear u gives its root directly.  Otherwise the roots are split
    off by gcds with factors of X^q - X (Rabin 1980; Cantor and
    Zassenhaus 1981), with powers of X taken modulo u by
    square-and-multiply.  In odd characteristic X^q - X = X (w - 1)
    (w + 1) with w = X^((q-1)/2), which separates 0, the squares and
    the non-squares; in characteristic 2, h = gcd(u, X^q - X) holds
    every root.  Each part is then split as in _split_roots.
    """
    u = _trim(list(u))
    if len(u) < 2:
        return []
    if len(u) == 2:
        r = F.mul[F.neg[u[0]]][F.inv[u[1]]]
        return [r] if r < q else []
    m = _upoly_monic(u, F)
    if q % 2 == 0:
        x_q = _upoly_powmod([0, 1], q, m, F)
        h = _upoly_gcd(m, _upoly_sub(x_q, [0, 1], F), F)
        return sorted(_split_roots(h, F, q, 1))
    w = _upoly_powmod([0, 1], (q - 1) // 2, m, F)
    roots = [] if m[0] else [0]
    for one in (1, F.neg[1]):
        roots += _split_roots(_upoly_gcd(m, _upoly_sub(w, [one], F), F),
                              F, q, 1)
    return sorted(roots)


def _split_roots(h, F, q, start):
    """The roots of the monic h, a product of distinct X - a with every
    a in GF(q), when no delta below start splits it.

    For delta = start, start + 1, ... in turn, h is split by its gcd
    with (X + delta)^((q-1)/2) - 1 in odd characteristic, or with the
    trace sum of the (delta X)^(2^i) in characteristic 2.  For any two
    roots some delta in GF(q) separates them, so the loop always splits
    h.  A delta that fails on h fails on its factors, and the one that
    split h fails on both parts, so they start from delta + 1."""
    if len(h) <= 2:
        return [F.neg[h[0]]] if h[1:] else []
    for delta in range(start, q):
        if q % 2:
            w = _upoly_sub(_upoly_powmod([delta, 1], (q - 1) // 2, h, F),
                           [1], F)
        else:
            t = w = [0, delta]
            for _ in range(q.bit_length() - 2):
                t = _upoly_mulmod(t, t, h, F)
                w = _upoly_sub(w, t, F)  # minus is plus in characteristic 2
        g = _upoly_gcd(h, w, F)
        if 1 < len(g) < len(h):
            return (_split_roots(g, F, q, delta + 1)
                    + _split_roots(_upoly_divmod(h, g, F)[0], F, q,
                                   delta + 1))
    raise AssertionError("no split of a polynomial with distinct roots")


class _Echelon:
    """Vectors of encodings over spec in row-echelon form, each with the
    combination of labels it is the vector of.

    Buchberger-Moller labels the evaluation vector of each monomial with
    the monomial; the saturation round count inserts the coefficient
    vectors of normal forms and reads back the rows."""

    def __init__(self, spec):
        self.add, self.mul = spec.add, spec.mul
        self.neg, self.inv = spec.neg, spec.inv
        self.rows = []  # (pivot, vector with 1 at pivot, {label: coef})

    def insert(self, label, v):
        """Add the vector v of label.  When v depends on the rows,
        return instead the combination label - ... whose vector is zero,
        as a {label: encoding} dict."""
        add, mul = self.add, self.mul
        combo = {label: 1}
        for pivot, row, row_combo in self.rows:
            if v[pivot]:
                scale = mul[self.neg[v[pivot]]]
                v = [add[a][scale[b]] for a, b in zip(v, row)]
                for m, b in row_combo.items():
                    combo[m] = add[combo.get(m, 0)][scale[b]]
        pivot = next((k for k, a in enumerate(v) if a), None)
        if pivot is None:
            return combo
        scale = mul[self.inv[v[pivot]]]
        self.rows.append((pivot, [scale[a] for a in v],
                          {m: scale[b] for m, b in combo.items()}))
        return None


def _digits(a, p, e):
    """The e coefficients over GF(p) of the encoding a, little endian."""
    rep = []
    for _ in range(e):
        a, c = divmod(a, p)
        rep.append(c)
    return rep


def _encode(rep, p):
    """The integer encoding sum(rep[i] * p**i)."""
    idx = 0
    for c in reversed(rep):
        idx = idx * p + c
    return idx


def _arithmetic(p, e, modulus):
    """(add, mul, neg, inv) of GF(p^e) as functions on integer encodings.

    A prime field works modulo p.  An extension works on the digit
    vectors, polynomials over its prime field F, modulo the modulus, and
    inverts by raising to the power q - 2.
    """
    if e == 1:
        return (lambda a, b: (a + b) % p, lambda a, b: a * b % p,
                lambda a: -a % p, lambda a: pow(a, p - 2, p))
    F = make_field(p)

    def add(a, b):
        return _encode([(x + y) % p for x, y in
                        zip(_digits(a, p, e), _digits(b, p, e))], p)

    def mul(a, b):
        return _encode(_upoly_mulmod(_digits(a, p, e), _digits(b, p, e),
                                     modulus, F), p)

    def neg(a):
        return _encode([-x % p for x in _digits(a, p, e)], p)

    def inv(a):
        return _encode(
            _upoly_powmod(_digits(a, p, e), p ** e - 2, modulus, F), p)

    return add, mul, neg, inv


def _table(fn, q):
    """The q x q table of the commutative fn, each pair computed once."""
    rows = [[0] * q for _ in range(q)]
    for a in range(q):
        row = rows[a]
        for b in range(a, q):
            row[b] = rows[b][a] = fn(a, b)
    return rows


def _binary(entry):
    """A FieldElement operator: the element of encoding entry(spec, a, b)
    for the encodings a and b of two elements of one spec."""
    def op(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        if self.spec is not other.spec:
            raise FieldMismatch(f"{self.spec} vs {other.spec}")
        return self.spec._at[entry(self.spec, self.idx, other.idx)]
    return op


class FieldElement:
    """One element of a FieldSpec, held as its integer encoding;
    immutable and hashable."""

    __slots__ = ("spec", "idx")

    def __init__(self, spec, idx):
        self.spec = spec
        self.idx = idx

    @property
    def rep(self):
        """Coefficients over GF(p) in the generator t, little endian."""
        return tuple(_digits(self.idx, self.spec.p, self.spec.e))

    def __bool__(self):
        return self.idx != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec is other.spec and self.idx == other.idx

    def __hash__(self):
        return hash((id(self.spec), self.idx))

    __add__ = _binary(lambda s, a, b: s.add[a][b])
    __sub__ = _binary(lambda s, a, b: s.add[a][s.neg[b]])
    __mul__ = _binary(lambda s, a, b: s.mul[a][b])

    def __neg__(self):
        s = self.spec
        return s._at[s.neg[self.idx]]

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self * other.inv()

    def inv(self):
        s = self.spec
        if self.idx == 0:
            raise DivisionByZero(f"inverse of 0 in {s}")
        return s._at[s.inv[self.idx]]

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        base = self.inv() if k < 0 else self
        return self.spec._at[self.spec.encoded_pow(base.idx, abs(k))]

    def __str__(self):
        if self.spec.e == 1:
            return str(self.idx)
        return _format_t_poly(self.rep)

    def __repr__(self):
        return f"{self} in {self.spec}"


class _Computed(partial):
    """Stand-in for a table of an untabled field: entry [a] of
    _Computed(fn, *bound) is fn(*bound, a), computed when read.  The add
    and mul tables are _Computed(_Computed, fn), whose row [a] is the
    stand-in of fn(a, b) over b."""

    __slots__ = ()

    def __getitem__(self, a):
        return self(a)


class FieldSpec:
    """Description of GF(p^e); construct through make_field only.

    add, mul, neg and inv are the operation tables on integer encodings,
    read as add[a][b], mul[a][b], neg[a] and inv[a] (inv[0] is
    undefined).  Fields of at most _TABLE_LIMIT elements fill them, and
    intern their elements in elements; larger fields get stand-ins of
    the same shape whose entries are computed when read, and elements is
    None.  Both come from the same functions of _arithmetic.  _at[a] is
    the element of encoding a.
    """

    __slots__ = ("p", "e", "q", "modulus", "elements",
                 "add", "mul", "neg", "inv", "_at")

    def __init__(self, p, e, modulus):
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus
        add, mul, neg, inv = _arithmetic(p, e, modulus)
        if self.q <= _TABLE_LIMIT:
            r = range(self.q)
            self.add, self.mul = _table(add, self.q), _table(mul, self.q)
            self.neg = [neg(a) for a in r]
            self.inv = [None] + [inv(a) for a in r[1:]]
            self.elements = tuple(FieldElement(self, a) for a in r)
            self._at = self.elements
        else:
            self.add = _Computed(_Computed, add)
            self.mul = _Computed(_Computed, mul)
            self.neg, self.inv = _Computed(neg), _Computed(inv)
            self.elements = None
            self._at = _Computed(FieldElement, self)

    def encoded_pow(self, a, k):
        """Encoding of a^k for an encoding a and an integer k >= 0."""
        if k == 0 or a == 0:
            return 0 if k else 1
        mul = self.mul
        return _power(a, fold_exponent(k, self.q), lambda x, y: mul[x][y])

    @property
    def zero(self):
        return self._at[0]

    @property
    def one(self):
        return self._at[1]

    def element(self, value):
        """Element from an integer encoding or a coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.spec is not self:
                raise FieldMismatch(f"{value.spec} vs {self}")
            return value
        if isinstance(value, int):
            idx = value % self.q if self.e == 1 else value
            if not 0 <= idx < self.q:
                raise ValueError(f"encoding {value} out of range for {self}")
            return self._at[idx]
        rep = [c % self.p for c in value]
        if len(rep) > self.e:
            if self.modulus is None:
                raise ValueError(f"{self} takes one coefficient, "
                                 f"got {len(rep)}")
            rep = _upoly_mod(rep, self.modulus, make_field(self.p))
        return self._at[_encode(rep, self.p)]

    def __str__(self):
        return f"GF({self.p})" if self.e == 1 else f"GF({self.p}^{self.e})"

    def literal(self):
        """Field literal, spelling out a non-default modulus."""
        if self.e == 1:
            return f"GF({self.p})"
        if DEFAULT_MODULI.get((self.p, self.e)) == self.modulus:
            return f"GF({self.p}^{self.e})"
        return f"GF({self.p}^{self.e}; m={_format_t_poly(self.modulus)})"

    __repr__ = __str__


def _format_t_poly(coeffs):
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "t" if i == 1 else f"t^{i}"
            parts.append(head if c == 1 else f"{c}*{head}")
    return "+".join(parts) if parts else "0"


def make_field(p, e=1, modulus=None):
    """Interned spec for GF(p^e), checking primality and irreducibility."""
    if not isinstance(p, int) or not isinstance(e, int):
        raise TypeError("p and e must be integers")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if e == 1:
        if modulus is not None:
            raise ValueError("prime fields take no modulus")
        key = (p, 1, None)
    else:
        if e > _MAX_EXT_DEGREE:
            raise ReducibleModulus("irreducibility checks are limited to "
                                   f"degree {_MAX_EXT_DEGREE}")
        if modulus is None:
            if (p, e) not in DEFAULT_MODULI:
                raise NoDefaultModulus(f"no built-in modulus for GF({p}^{e})")
            modulus = DEFAULT_MODULI[(p, e)]
        m = _trim([c % p for c in modulus])
        if len(m) - 1 != e:
            raise ReducibleModulus(
                f"modulus must have degree {e}, got degree {len(m) - 1}")
        m = _upoly_monic(m, make_field(p))
        if not _is_irreducible(m, p):
            raise ReducibleModulus(f"{_format_t_poly(m)} is reducible mod {p}")
        key = (p, e, tuple(m))
    with _SPECS_LOCK:
        if key not in _SPECS:
            _SPECS[key] = FieldSpec(key[0], key[1], key[2])
        return _SPECS[key]


def enumerate_field(spec):
    """All elements of the field in canonical order, starting with 0."""
    if spec.elements is not None:
        return spec.elements
    return tuple(spec.element(i) for i in range(spec.q))


def is_subfield(small, big):
    """True when elements of small embed into big (identity or prime base)."""
    if small is big:
        return True
    return small.e == 1 and small.p == big.p


def embed(a, target):
    """Carry an element into target along the supported embeddings."""
    if a.spec is target:
        return a
    if not is_subfield(a.spec, target):
        raise FieldMismatch(f"no embedding of {a.spec} into {target}")
    return target.element(a.idx)


def common_spec(s1, s2):
    """The larger of two comparable specs; FieldMismatch otherwise."""
    if s1 is s2 or is_subfield(s1, s2):
        return s2
    if is_subfield(s2, s1):
        return s1
    raise FieldMismatch(f"{s1} and {s2} do not sit in one tower")


# No supported field has a size with more digits than p^e at the largest
# prime and degree make_field accepts.
_MAX_LITERAL_DIGITS = len(str(_PRIME_LIMIT ** _MAX_EXT_DEGREE))

_FIELD_RE = re.compile(
    r"^\s*GF\(\s*(\d+)\s*(?:\^\s*(\d+)\s*)?(?:;\s*m\s*=\s*(.+?)\s*)?\)\s*$")


def parse_field_literal(text):
    """FieldSpec from a literal like GF(2), GF(4), GF(2^2; m=t^2+t+1)."""
    m = _FIELD_RE.match(text)
    if not m:
        raise ParseError(f"bad field literal {text!r}", 0)
    for g in (1, 2):
        if m.group(g) and len(m.group(g)) > _MAX_LITERAL_DIGITS:
            raise ParseError(f"field literal number has more than "
                             f"{_MAX_LITERAL_DIGITS} digits", m.start(g))
    p = int(m.group(1))
    e = int(m.group(2)) if m.group(2) else 1
    if e < 1:
        raise ParseError("extension degree must be >= 1", m.start(2))
    if e == 1:
        # GF(4) means GF(2^2); factor composite sizes written flat
        p, e = prime_power(p) or (p, 1)
    if m.group(3) is None or e > _MAX_EXT_DEGREE:
        # make_field refuses a degree above the limit before any modulus
        return make_field(p, e)
    if e == 1:
        raise ParseError("a prime field takes no modulus", m.start(3))
    from .poly import parse_span
    f = parse_span(text, m.start(3), m.end(3), ("t",), make_field(p))
    d = f.total_degree()
    if d != e:
        raise ReducibleModulus(f"modulus must have degree {e}, got degree {d}")
    modulus = [0] * (e + 1)
    for (k,), c in f.terms.items():
        modulus[k] = c
    return make_field(p, e, modulus)

