"""Buchberger, normal forms and the reduced-basis canonicality contract."""

import itertools
import random

import pytest

from nullkit.errors import DegreeOverflow
from nullkit.field import enumerate_field, make_field
from nullkit.groebner import (
    GroebnerBasis,
    buchberger,
    divide_exact,
    normal_form,
    s_polynomial,
)
from nullkit.ideals import Ideal
from nullkit.poly import DEGREVLEX, LEX, Polynomial, parse_polynomial

F2 = make_field(2)
F3 = make_field(3)
XY = ("X", "Y")
XYZ = ("X", "Y", "Z")


def gb(strings, vars=XY, spec=F2, order=DEGREVLEX):
    return buchberger([parse_polynomial(s, vars, spec) for s in strings],
                      order)


def test_buchberger_closes_s_polynomials():
    """Every S-polynomial of the output reduces to zero; inputs reduce too."""
    gens = [parse_polynomial(s, XYZ, F3) for s in
            ["X^2 - Y", "X*Y - Z", "Y^2 + X*Z - 2"]]
    basis = buchberger(gens)
    for f in gens:
        assert normal_form(f, basis).is_zero
    for g, h in itertools.combinations(list(basis), 2):
        assert normal_form(s_polynomial(g, h, DEGREVLEX), basis).is_zero


def test_reduced_basis_shape():
    basis = gb(["X^2 - Y", "X*Y - Z", "Y^2 + X*Z - 2"], XYZ, F3)
    leads = [f.leading(DEGREVLEX)[0] for f in basis]
    for f in basis:
        # monic
        assert f.leading(DEGREVLEX)[1] == F3.one
        # no term of f divisible by another leading monomial
        for e in f.terms:
            for i, lm in enumerate(leads):
                if basis.gens[i] is f:
                    continue
                assert not all(a <= b for a, b in zip(lm, e))
    # ascending by leading monomial
    keys = [DEGREVLEX.key(lm) for lm in leads]
    assert keys == sorted(keys)


def test_canonical_output_under_permutation_and_scaling():
    """The reduced GB is independent of generator order and scaling."""
    gens = [parse_polynomial(s, XYZ, F3) for s in
            ["X^2 + Y*Z", "Y^2 - X*Z", "Z^2 + X*Y - 1", "X + Y + Z"]]
    reference = buchberger(gens).gens
    nonzero = [c for c in enumerate_field(F3) if c]
    for seed in range(20):
        rng = random.Random(seed)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [f.scale(rng.choice(nonzero)) for f in shuffled]
        assert buchberger(scaled).gens == reference


def test_unit_ideal_detection():
    basis = gb(["X", "X + 1"])
    assert basis.is_unit
    assert basis.gens == (Polynomial.constant(F2, XY, 1),)
    assert normal_form(parse_polynomial("X*Y + 1", XY, F2), basis).is_zero


def test_zero_ideal():
    basis = buchberger([Polynomial.zero(F2, XY)])
    assert len(basis) == 0 and not basis.is_unit
    f = parse_polynomial("X + Y", XY, F2)
    assert normal_form(f, basis) == f


def test_normal_form_is_linear():
    basis = gb(["X^2 + Y", "Y^2 + X"], XY, F3)
    polys = [parse_polynomial(s, XY, F3) for s in
             ["X^3 + 2*Y", "X*Y^2 + X + 1", "Y^3", "X^2*Y^2 + 2"]]
    for f in polys:
        for g in polys:
            assert normal_form(f + g, basis) == \
                normal_form(f, basis) + normal_form(g, basis)
    # and multiplicative up to reduction
    for f in polys:
        for g in polys:
            assert normal_form(f * g, basis) == normal_form(
                normal_form(f, basis) * normal_form(g, basis), basis)


def test_membership():
    I = Ideal.from_strings(F2, XY, ["X^2", "X*Y"])
    assert I.contains(parse_polynomial("X^2*Y + X*Y", XY, F2))
    assert not I.contains(parse_polynomial("X", XY, F2))
    assert not I.contains(parse_polynomial("Y", XY, F2))


def test_ideal_equal():
    a = Ideal.from_strings(F2, XY, ["X + Y", "Y^2"])
    b = Ideal.from_strings(F2, XY, ["Y^2", "X + Y + Y^2"])
    c = Ideal.from_strings(F2, XY, ["X", "Y"])
    assert a.equals(b)
    assert not a.equals(c)


def test_lex_elimination_classic():
    # lex GB of a zero-dimensional system exposes the univariate part
    basis = gb(["X^2 + Y^2 - 1", "X - Y"], XY, F3, LEX)
    tail = [f for f in basis if f.leading(LEX)[0][0] == 0]
    assert len(tail) == 1
    assert tail[0] == parse_polynomial("Y^2 + 1", XY, F3)


def test_divide_exact():
    f = parse_polynomial("X^2 + Y", XY, F3)
    g = parse_polynomial("X*Y + 2", XY, F3)
    assert divide_exact(f * g, g, DEGREVLEX) == f
    with pytest.raises(ValueError):
        divide_exact(parse_polynomial("X^2 + 1", XY, F3), f, DEGREVLEX)


def test_degree_guard():
    with pytest.raises(DegreeOverflow):
        buchberger([parse_polynomial("X^65 + Y", XY, F2)])


def test_basis_equality_and_iteration():
    a = gb(["X^2", "X*Y"])
    b = gb(["X*Y", "X^2"])
    assert a == b and len(a) == len(list(a))
    assert isinstance(a, GroebnerBasis)
