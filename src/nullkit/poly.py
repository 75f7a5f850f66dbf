"""Multivariate polynomials over a FieldSpec.

A polynomial is a dict from exponent tuples to the encodings of its
nonzero coefficients (see field), with its ring context (coefficient
spec, ordered variable names); the ring operations run on the spec's
tables.  FieldElements enter through the constructor and the scalars
of constant, scale and dehomogenize, and leave through leading,
sorted_terms and evaluate.  Powers run field._power, and evaluate,
compose and dehomogenize one substitution loop.  Monomials are plain
tuples, ordered by lex, degrevlex, block(k), or degrevlex with one
variable compared last.  Printing is canonical: terms descend in the
active monomial order and coefficients stay in their canonical form, so
equal polynomials print identically.
"""

import operator
import re
from dataclasses import dataclass

from .errors import (
    ArityMismatch,
    DimensionMismatch,
    FieldMismatch,
    ParseError,
    RingMismatch,
    UnknownVariable,
)
from .field import FieldElement, _power, common_spec, embed, is_subfield


# ---------------------------------------------------------------- monomials

def mono_divides(a, b):
    """True when the monomial a divides b."""
    return all(x <= y for x, y in zip(a, b))


# ------------------------------------------------------------------ orders

@dataclass(frozen=True)
class MonomialOrder:
    """Total order on exponent tuples; larger key means larger monomial.

    Kinds: lex, degrevlex, and block(k).  A block order compares the
    first k exponents degrevlex, then the rest degrevlex, which makes it
    an elimination order for the leading k variables.  A degrevlex order
    with last = j compares X_j last, as if the ring listed it last.
    """

    kind: str
    block: int = 0
    last: int = None

    def key(self, exps):
        if self.kind == "lex":
            return exps
        if self.kind == "degrevlex":
            if (j := self.last) is not None:
                exps = (*exps[:j], *exps[j + 1:], exps[j])
            return (sum(exps), tuple(-e for e in reversed(exps)))
        k = self.block
        head, tail = exps[:k], exps[k:]
        return (sum(head), tuple(-e for e in reversed(head)),
                sum(tail), tuple(-e for e in reversed(tail)))

    def __str__(self):
        if self.kind == "block":
            return f"block({self.block})"
        if self.last is not None:
            return f"degrevlex(X_{self.last} last)"
        return self.kind


LEX = MonomialOrder("lex")
DEGREVLEX = MonomialOrder("degrevlex")


def block_order(k):
    return MonomialOrder("block", k)


def _degrevlex_last(j, n):
    """degrevlex on n variables with X_j compared last; DEGREVLEX for
    j = n - 1, so that such a basis is I.gb() itself."""
    return DEGREVLEX if j == n - 1 else MonomialOrder("degrevlex", last=j)


# ------------------------------------------------------------- polynomials

def _scalar(spec, c):
    """Encoding of a FieldElement of spec or its prime subfield, or of
    an integer read modulo p."""
    return embed(c, spec).idx if isinstance(c, FieldElement) else c % spec.p


class Polynomial:
    """Element of spec[vars], immutable by convention: terms maps
    exponent tuples to nonzero encodings.  The constructor also takes
    FieldElements of spec or its prime subfield, and drops zeros."""

    __slots__ = ("spec", "vars", "terms", "_hash")

    def __init__(self, spec, vars, terms):
        self.spec = spec
        self.vars = tuple(vars)
        self.terms = {e: c if type(c) is int else embed(c, spec).idx
                      for e, c in terms.items() if c}
        self._hash = None

    @classmethod
    def zero(cls, spec, vars):
        return cls(spec, vars, {})

    @classmethod
    def constant(cls, spec, vars, value):
        return cls(spec, vars, {(0,) * len(vars): _scalar(spec, value)})

    @classmethod
    def variable(cls, spec, vars, name):
        if name not in vars:
            raise UnknownVariable(f"{name} is not a ring variable")
        exps = tuple(1 if v == name else 0 for v in vars)
        return cls(spec, vars, {exps: 1})

    @classmethod
    def monomial(cls, spec, vars, exps, coef=1):
        return cls(spec, vars, {tuple(exps): coef})

    def _same_ring(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected a polynomial, got {other!r}")
        if self.spec is not other.spec or self.vars != other.vars:
            raise RingMismatch(
                f"{self.spec}[{','.join(self.vars)}] vs "
                f"{other.spec}[{','.join(other.vars)}]")

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.spec is other.spec and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.spec), self.vars,
                               frozenset(self.terms.items())))
        return self._hash

    def __add__(self, other):
        self._same_ring(other)
        add = self.spec.add
        out = dict(self.terms)
        for e, c in other.terms.items():
            prev = out.get(e)
            if prev is None:
                out[e] = c
            elif s := add[prev][c]:
                out[e] = s
            else:
                del out[e]
        return Polynomial(self.spec, self.vars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.spec.neg
        return Polynomial(self.spec, self.vars,
                          {e: neg[c] for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._same_ring(other)
        add, mul = self.spec.add, self.spec.mul
        out = {}
        for e1, c1 in self.terms.items():
            row = mul[c1]
            for e2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                c = row[c2]
                prev = out.get(key)
                if prev is None:
                    out[key] = c
                elif s := add[prev][c]:
                    out[key] = s
                else:
                    del out[key]
        return Polynomial(self.spec, self.vars, out)

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        row = self.spec.mul[_scalar(self.spec, c)]
        return Polynomial(self.spec, self.vars,
                          {e: row[v] for e, v in self.terms.items()})

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        if k == 0:
            return Polynomial.constant(self.spec, self.vars, 1)
        return _power(self, k, operator.mul)

    def total_degree(self):
        """Maximal term degree, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_components(self):
        """List of (degree, component) pairs, ascending in degree."""
        buckets = {}
        for e, c in self.terms.items():
            buckets.setdefault(sum(e), {})[e] = c
        return [(d, Polynomial(self.spec, self.vars, buckets[d]))
                for d in sorted(buckets)]

    @property
    def is_homogeneous(self):
        return len({sum(e) for e in self.terms}) <= 1

    def leading(self, order=DEGREVLEX):
        """Leading (exponent tuple, coefficient) in the given order."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        e = max(self.terms, key=order.key)
        return e, self.spec.element(self.terms[e])

    def sorted_terms(self, order=DEGREVLEX):
        element = self.spec.element
        return [(e, element(self.terms[e]))
                for e in sorted(self.terms, key=order.key, reverse=True)]

    def evaluate(self, point):
        """Value at a point; coordinates may live in an extension."""
        if len(point) != len(self.vars):
            raise DimensionMismatch(
                f"{len(point)} coordinates for {len(self.vars)} variables")
        target = self.spec
        for a in point:
            target = common_spec(target, a.spec)
        coords = [embed(a, target) for a in point]
        return self._substitute(coords, target.zero, target.element)

    def compose(self, args):
        """Substitute args[i] for the i-th variable."""
        if len(args) != len(self.vars):
            raise ArityMismatch(
                f"{len(args)} arguments for {len(self.vars)} variables")
        if not args:
            raise ArityMismatch("composition needs at least one argument")
        ring = args[0]
        for g in args[1:]:
            ring._same_ring(g)
        target = common_spec(self.spec, ring.spec)
        args = [lift(g, target) for g in args]
        const = (0,) * len(ring.vars)
        return self._substitute(
            args, Polynomial.zero(target, ring.vars),
            lambda c: Polynomial(target, ring.vars, {const: c}))

    def _substitute(self, args, zero, constant):
        """zero plus constant(c) * prod args[i]^e over the terms c*X^e;
        each power of an argument is formed once."""
        pows = [{} for _ in args]
        total = zero
        for exps, c in self.terms.items():
            v = constant(c)
            for i, e in enumerate(exps):
                if e:
                    cache = pows[i]
                    if e not in cache:
                        cache[e] = args[i] ** e
                    v = v * cache[e]
            total = total + v
        return total

    def __str__(self):
        return self.to_string(DEGREVLEX)

    def __repr__(self):
        return f"<{self} over {self.spec}[{','.join(self.vars)}]>"

    def _mono_str(self, exps):
        parts = []
        for name, e in zip(self.vars, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def _coef_str(self, c):
        return str(c) if self.spec.e == 1 else f"({self.spec.element(c)})"

    def to_string(self, order=DEGREVLEX):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=order.key, reverse=True):
            mono, c = self._mono_str(exps), self.terms[exps]
            if not mono:
                parts.append(self._coef_str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{self._coef_str(c)}*{mono}")
        return " + ".join(parts)


def lift(f, target):
    """The same polynomial with coefficients embedded into target."""
    if f.spec is target:
        return f
    if not is_subfield(f.spec, target):
        raise FieldMismatch(f"no embedding of {f.spec} into {target}")
    return Polynomial(target, f.vars, f.terms)


def _check_position(f, position, end):
    """Refuse a variable position outside 0..end-1."""
    if not 0 <= position < end:
        raise RingMismatch(
            f"no variable position {position} in {f.spec}[{','.join(f.vars)}]"
            f"; positions run 0..{end - 1}")


def homogenize(f, position=0, name=None):
    """Homogenize with a fresh variable inserted at position."""
    if name is None:
        i = 0
        while f"X{i}" in f.vars:
            i += 1
        name = f"X{i}"
    _check_position(f, position, len(f.vars) + 1)
    if name in f.vars:
        raise RingMismatch(f"{name} already is a ring variable")
    d = f.total_degree()
    vars = f.vars[:position] + (name,) + f.vars[position:]
    terms = {e[:position] + (d - sum(e),) + e[position:]: c
             for e, c in f.terms.items()}
    return Polynomial(f.spec, vars, terms)


def dehomogenize(f, position, value=1):
    """Substitute the scalar value for one variable and remove it."""
    _check_position(f, position, len(f.vars))
    vars = f.vars[:position] + f.vars[position + 1:]
    args = [Polynomial.variable(f.spec, vars, v) for v in vars]
    args.insert(position, Polynomial.constant(f.spec, vars, value))
    return f.compose(args)


# ------------------------------------------------------------------ parser

# Parenthesized groups recurse; this bound keeps the recursion far from
# Python's stack limit.
_MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()])")


def _tokenize(text, start, end):
    """(kind, value, position) triples for text[start:end]; ints converted."""
    tokens = []
    pos = start
    while pos < end:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos, end)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        value = m.group()
        if m.lastgroup == "int":
            try:
                value = int(value)
            except ValueError:  # beyond the int-string conversion limit
                raise ParseError(f"number with {len(value)} digits is too "
                                 f"long", pos) from None
        tokens.append((m.lastgroup, value, pos))
        pos = m.end()
    tokens.append(("end", "", end))
    return tokens


def parse_polynomial(text, vars, spec):
    """Parse the canonical surface syntax into a Polynomial.

    A polynomial is a sum of terms joined by + or -, with an optional
    leading sign, and a term is a product of factors joined by *.  A
    factor is an integer, a ring variable with an optional ^exponent,
    the generator t of an extension field (also with an ^exponent), or
    a parenthesized coefficient: a sum of terms in integers, t and
    nested parentheses, without ring variables, evaluated in spec.
    Inside parentheses t always means the generator.  Error positions
    index into text.
    """
    return parse_span(text, 0, len(text), vars, spec)


def parse_span(text, start, end, vars, spec):
    """parse_polynomial on text[start:end], with positions into text.

    field.parse_field_literal reads a modulus through this, as a
    polynomial in the variable t over GF(p).
    """
    tokens = _tokenize(text, start, end)
    index = {name: k for k, name in enumerate(vars)}
    gen = spec.element((0, 1)) if spec.e > 1 else None
    i = 0

    def take():
        nonlocal i
        i += 1
        return tokens[i - 1]

    def at(*ops):
        return tokens[i][0] == "op" and tokens[i][1] in ops

    def factor(exps, depth):
        """Coefficient of one factor; ring-variable powers go into exps."""
        kind, value, pos = take()
        if kind == "int":
            return spec.element(value % spec.p)
        if (kind, value) == ("op", "("):
            if depth == _MAX_NESTING:
                raise ParseError("parentheses nested too deeply", pos)
            return terms(pos, depth + 1).get((0,) * len(vars), spec.zero)
        if kind != "name":
            raise ParseError("expected a coefficient or variable", pos)
        power = 1
        if at("^"):
            take()
            kind, power, power_pos = take()
            if kind != "int":
                raise ParseError("expected an exponent", power_pos)
        if value in index and not depth:
            exps[index[value]] += power
            return spec.one
        if value == "t" and gen is not None:
            return gen ** power
        if value == "t":
            raise ParseError("t is undefined over a prime field", pos)
        if value in index:
            raise ParseError(f"ring variable {value} inside parentheses",
                             pos)
        raise UnknownVariable(f"unknown variable {value!r}", pos)

    def terms(opened, depth):
        """Sum of terms up to the end, or inside depth parentheses up to
        the ) closing the one at position opened."""
        sign = 1
        if at("+", "-"):
            sign = 1 if take()[1] == "+" else -1
        if tokens[i][0] == "end" and not depth:
            raise ParseError("empty polynomial", tokens[i][2])
        out = {}
        while True:
            exps = [0] * len(vars)
            term_pos = tokens[i][2]
            coef = factor(exps, depth)
            while at("*"):
                take()
                coef = coef * factor(exps, depth)
            try:  # degrees are printed, as in DegreeOverflow messages
                str(sum(exps))
            except ValueError:  # beyond the int-string conversion limit
                raise ParseError("term degree has too many digits",
                                 term_pos) from None
            key = tuple(exps)
            out[key] = out.get(key, spec.zero) + (coef if sign > 0 else -coef)
            kind, value, pos = take()
            if value in ("+", "-"):
                sign = 1 if value == "+" else -1
            elif value == (")" if depth else ""):
                return out
            elif kind == "end":
                raise ParseError("unclosed parenthesis", opened)
            else:
                raise ParseError(f"expected + or - before {value!r}", pos)

    return Polynomial(spec, vars, terms(None, 0))
