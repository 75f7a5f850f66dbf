"""Shared test helpers: a call counter, random polynomials, the
reference point fold and a schoolbook reference for finite-field
arithmetic."""

from nullkit.field import enumerate_field
from nullkit.ideals import ideal_intersect
from nullkit.poly import Polynomial
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


def fold_vanishing_ideal(V, spec=None, vars=None):
    """I(V) as the intersection of the point ideals, folded left to
    right: the reference the Buchberger-Moller oracle is checked
    against."""
    ideals = [point_ideal(p, spec, vars) for p in V.points]
    acc = ideals[0]
    for nxt in ideals[1:]:
        acc = ideal_intersect(acc, nxt)
    return acc


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
