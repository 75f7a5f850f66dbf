"""Polynomial arithmetic, orders, substitution and the parser."""

import itertools
import time

import pytest

from nullkit.errors import (
    ArityMismatch,
    DimensionMismatch,
    FieldMismatch,
    ParseError,
    RingMismatch,
    UnknownVariable,
)
from nullkit.field import enumerate_field, make_field
from nullkit.poly import (
    DEGREVLEX,
    LEX,
    Polynomial,
    block_order,
    dehomogenize,
    homogenize,
    lift,
    parse_polynomial,
)

from helpers import ref_add, ref_dehomogenize, ref_mul, ref_scale

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
XY = ("X", "Y")


def all_polys(spec, vars, max_deg):
    """Every polynomial of total degree <= max_deg, brute force."""
    monos = [e for e in itertools.product(range(max_deg + 1),
                                          repeat=len(vars))
             if sum(e) <= max_deg]
    monos.sort()
    elems = enumerate_field(spec)
    out = []
    for coefs in itertools.product(elems, repeat=len(monos)):
        out.append(Polynomial(spec, vars, {
            m: c for m, c in zip(monos, coefs) if c}))
    return out


def test_ring_axioms_exhaustive_deg1_gf2():
    polys = all_polys(F2, XY, 1)
    assert len(polys) == 8
    zero = Polynomial.zero(F2, XY)
    for f in polys:
        assert f + zero == f and f - f == zero and f * zero == zero
        for g in polys:
            assert f + g == g + f
            assert f * g == g * f
            for h in polys:
                assert (f + g) + h == f + (g + h)
                assert f * (g + h) == f * g + f * h


# GF(4099) is above the table limit, so its coefficients are computed.
RING_FIELDS = [F2, make_field(3, 2), make_field(4099)]


def test_ring_axioms_on_random_polynomials():
    """Associativity, commutativity, distributivity, additive inverses
    and __pow__ against repeated multiplication, on random polynomials
    in three variables over GF(2), GF(9) and GF(4099)."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    vars = ("X", "Y", "Z")

    def polys(spec):
        terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                                st.integers(0, spec.q - 1), max_size=5)
        return terms.map(lambda t: Polynomial(spec, vars, {
            e: spec.element(c) for e, c in t.items()}))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(RING_FIELDS).flatmap(
               lambda spec: st.tuples(polys(spec), polys(spec), polys(spec))),
           st.integers(0, 6))
    def check(abc, k):
        a, b, c = abc
        zero = Polynomial.zero(a.spec, vars)
        one = Polynomial.constant(a.spec, vars, 1)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + zero == a and a * one == a and a * zero == zero
        assert a + (-a) == zero and a - b == a + (-b) and -(-a) == a
        power = one
        for _ in range(k):
            power = power * a
        assert a ** k == power

    check()


def test_arithmetic_matches_the_field_element_loops():
    """Sums, products, scaling and dehomogenization on encodings equal
    the FieldElement loops of tests/helpers.py over prime, tabled,
    untabled and extension fields, with scalars given as elements or as
    integers; scale also takes elements of the prime subfield."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    fields = [F2, F4, make_field(3, 2), make_field(251), make_field(4099),
              make_field(67, 2, (1, 0, 1))]

    def polys(spec):
        terms = st.dictionaries(st.tuples(*[st.integers(0, 4)] * 2),
                                st.integers(0, spec.q - 1), max_size=6)
        return terms.map(lambda t: Polynomial(spec, XY, {
            e: spec.element(c) for e, c in t.items()}))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from(fields).flatmap(lambda spec: st.tuples(
               polys(spec), polys(spec), st.integers(0, spec.q - 1))),
           st.integers(-5, 300), st.integers(0, 1))
    def check(fgc, k, position):
        f, g, c = fgc
        spec = f.spec
        assert f + g == ref_add(f, g)
        assert f * g == ref_mul(f, g)
        for a in (spec.element(c), k):
            assert f.scale(a) == ref_scale(f, a)
            assert dehomogenize(f, position, a) == ref_dehomogenize(
                f, position, a)
        a = make_field(spec.p).element(c % spec.p)
        assert f.scale(a) == ref_scale(f, a)

    check()


def test_pow_matches_repeated_multiplication():
    """f ** k equals k-fold repeated multiplication for k in 0..20 over
    GF(2), GF(3), GF(4) and GF(5)."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    def polys(spec):
        terms = st.dictionaries(st.tuples(*[st.integers(0, 1)] * 2),
                                st.integers(0, spec.q - 1), max_size=3)
        return terms.map(lambda t: Polynomial(spec, XY, {
            e: spec.element(c) for e, c in t.items()}))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([F2, F3, F4, make_field(5)]).flatmap(polys),
           st.integers(0, 20))
    def check(f, k):
        power = Polynomial.constant(f.spec, XY, 1)
        for _ in range(k):
            power = power * f
        assert f ** k == power

    check()


def test_pow_forms_no_product_above_the_result_degree(monkeypatch):
    """Square-and-multiply stops once the top bit of k is used: no
    product formed inside h ** k has total degree above k * deg h."""
    real = Polynomial.__mul__
    degrees = []

    def recording(self, other):
        out = real(self, other)
        degrees.append(out.total_degree())
        return out

    monkeypatch.setattr(Polynomial, "__mul__", recording)
    h = parse_polynomial("X^2 + X*Y + 2*Y^2", XY, F3)
    for k in range(1, 21):
        degrees.clear()
        assert (h ** k).total_degree() == 2 * k
        assert max(degrees, default=0) <= 2 * k


def test_constructor_encodes_field_elements():
    one = Polynomial(F4, XY, {(1, 0): F4.element((0, 1)), (0, 1): 1})
    other = Polynomial(F4, XY, {(1, 0): 2, (0, 1): F4.one, (0, 0): F4.zero})
    assert one == other and hash(one) == hash(other)
    assert one.terms == {(1, 0): 2, (0, 1): 1}
    assert Polynomial(F4, XY, {(1, 0): F2.one}).terms == {(1, 0): 1}
    with pytest.raises(FieldMismatch):
        Polynomial(F4, XY, {(1, 0): F3.one})


def test_product_degrees():
    for f in all_polys(F3, ("X",), 2):
        for g in all_polys(F3, ("X",), 2):
            if f and g:
                assert (f * g).total_degree() == \
                    f.total_degree() + g.total_degree()
    assert Polynomial.zero(F3, XY).total_degree() == -1


def test_pow():
    f = parse_polynomial("X + Y", XY, F2)
    assert f ** 0 == Polynomial.constant(F2, XY, 1)
    assert f ** 2 == parse_polynomial("X^2 + Y^2", XY, F2)
    assert f ** 3 == f * f * f


def test_scale_and_rmul():
    f = parse_polynomial("X + 2*Y", XY, F3)
    two = F3.element(2)
    assert f.scale(two) == two * f == f * two
    assert f.scale(F3.zero).is_zero


def test_leading_terms_by_order():
    vars = ("X", "Y", "Z")
    f = parse_polynomial("X*Z + Y^2", vars, F2)
    exps, _ = f.leading(DEGREVLEX)
    assert exps == (0, 2, 0)
    exps, _ = f.leading(LEX)
    assert exps == (1, 0, 1)


def test_block_order_separates_head_variables():
    order = block_order(1)
    # any power of the head variable beats anything in the tail block
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))
    assert order.key((2, 0, 0)) > order.key((1, 9, 9))
    # within a block, degrevlex
    assert order.key((0, 0, 1)) < order.key((0, 1, 0))


def test_order_compatible_with_divisibility():
    """a | b implies key(a) <= key(b), the well-ordering the reducer needs."""
    monos = list(itertools.product(range(3), repeat=3))
    for order in (LEX, DEGREVLEX, block_order(1)):
        for a in monos:
            for b in monos:
                if all(x <= y for x, y in zip(a, b)):
                    assert order.key(a) <= order.key(b)


def test_homogeneous_components():
    f = parse_polynomial("X^2 + X*Y + X + 1", XY, F2)
    comps = f.homogeneous_components()
    assert [d for d, _ in comps] == [0, 1, 2]
    assert sum((g for _, g in comps), Polynomial.zero(F2, XY)) == f
    assert not f.is_homogeneous
    assert parse_polynomial("X^2 + X*Y", XY, F2).is_homogeneous
    assert Polynomial.zero(F2, XY).is_homogeneous


def test_evaluate_exhaustive():
    f = parse_polynomial("X^2*Y + 2*X + Y + 1", XY, F3)
    for a in enumerate_field(F3):
        for b in enumerate_field(F3):
            want = a * a * b + F3.element(2) * a + b + F3.one
            assert f.evaluate((a, b)) == want


def test_evaluate_dimension_check():
    f = parse_polynomial("X + Y", XY, F2)
    with pytest.raises(DimensionMismatch):
        f.evaluate((F2.one,))


def test_evaluate_embeds_points():
    f = parse_polynomial("X^2 + X", XY, F2)
    t = F4.element([0, 1])
    # coefficients lift into GF(4) where the point lives
    assert f.evaluate((t, F4.zero)) == t * t + t


def test_compose_matches_evaluation():
    f = parse_polynomial("X^2 + Y", XY, F3)
    g = parse_polynomial("X + 1", XY, F3)
    h = parse_polynomial("X*Y", XY, F3)
    comp = f.compose([g, h])
    for a in enumerate_field(F3):
        for b in enumerate_field(F3):
            pt = (a, b)
            assert comp.evaluate(pt) == f.evaluate(
                (g.evaluate(pt), h.evaluate(pt)))


def test_compose_arity():
    f = parse_polynomial("X + Y", XY, F2)
    with pytest.raises(ArityMismatch):
        f.compose([f])


def test_homogenize_dehomogenize():
    vars = ("X", "Y")
    for f in all_polys(F2, vars, 2):
        if f.is_zero:
            continue
        h = homogenize(f)
        assert h.is_homogeneous
        assert h.total_degree() == f.total_degree()
        assert h.vars == ("X0", "X", "Y")
        assert dehomogenize(h, 0) == f


def test_homogenize_refuses_a_ring_variable_name():
    """The fresh name is checked against the ring for every f, zero or
    not."""
    for f in ("X0 + 1", "0"):
        with pytest.raises(RingMismatch,
                           match="^X0 already is a ring variable$"):
            homogenize(parse_polynomial(f, ("X0",), F2), 0, "X0")


@pytest.mark.parametrize("call, message", [
    (lambda f: dehomogenize(f, 5), "no variable position 5 in "
     "GF(2)[X,Y]; positions run 0..1"),
    (lambda f: dehomogenize(f, -1), "no variable position -1 in "
     "GF(2)[X,Y]; positions run 0..1"),
    (lambda f: homogenize(f, 9, "Z"), "no variable position 9 in "
     "GF(2)[X,Y]; positions run 0..2"),
], ids=["dehomogenize", "dehomogenize-negative", "insert"])
def test_variable_positions_outside_the_ring_are_refused(call, message):
    """A position outside the ring is a NullkitError naming it, not a
    bare IndexError or a variable appended at the end."""
    f = parse_polynomial("X + Y", XY, F2)
    with pytest.raises(RingMismatch) as exc:
        call(f)
    assert str(exc.value) == message
    assert homogenize(f, 2, "Z").vars == ("X", "Y", "Z")


def test_lift_preserves_evaluation():
    f = parse_polynomial("X^2 + X*Y + 1", XY, F2)
    g = lift(f, F4)
    assert g.spec is F4
    for a in enumerate_field(F2):
        for b in enumerate_field(F2):
            assert str(f.evaluate((a, b))) == str(g.evaluate(
                (F4.element(a.idx), F4.element(b.idx))))


def test_the_zero_polynomial_has_no_leading_term():
    with pytest.raises(ValueError,
                       match="^the zero polynomial has no leading term$"):
        Polynomial.zero(F2, XY).leading()


def test_compose_needs_an_argument():
    """A polynomial in no variables takes no arguments, and composing
    it with none is refused."""
    with pytest.raises(ArityMismatch,
                       match="^composition needs at least one argument$"):
        Polynomial.constant(F2, (), 1).compose([])


def test_lift_refuses_a_field_without_an_embedding():
    f = parse_polynomial("X + 2", XY, F3)
    with pytest.raises(FieldMismatch,
                       match=r"^no embedding of GF\(3\) into GF\(2\)$"):
        lift(f, F2)


def test_hash_consistency():
    f = parse_polynomial("X + Y^2", XY, F2)
    g = parse_polynomial("Y^2 + X", XY, F2)
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1


def test_to_string_canonical():
    cases = [
        ("X + Y", "X + Y"),
        ("Y + X", "X + Y"),
        ("X*X", "X^2"),
        ("1*X + 0*Y", "X"),
        ("X - Y", "X + 2*Y"),
        ("2*X*Y - 1", "2*X*Y + 2"),
    ]
    for src, want in cases:
        assert parse_polynomial(src, XY, F3).to_string() == want
    assert parse_polynomial("0", XY, F3).to_string() == "0"
    assert parse_polynomial("X - Y", XY, F2).to_string() == "X + Y"


def test_to_string_extension_coefficients():
    f = parse_polynomial("(t+1)*X + t", XY, F4)
    assert f.to_string() == "(t+1)*X + (t)"
    assert parse_polynomial(f.to_string(), XY, F4) == f


def test_parse_roundtrip_exhaustive_small():
    for f in all_polys(F3, XY, 2):
        assert parse_polynomial(f.to_string(), XY, F3) == f


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("X + + Y", XY, F2)
    assert err.value.position is not None
    with pytest.raises(UnknownVariable) as err:
        parse_polynomial("X + Z^2", XY, F2)
    assert "Z" in str(err.value)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_polynomial("", XY, F2)
    with pytest.raises(ParseError):
        parse_polynomial("X ^ Y", XY, F2)
    with pytest.raises(ParseError):
        # t-coefficients need an extension field
        parse_polynomial("(t)*X", XY, F2)


def test_parse_error_keeps_the_bare_reason():
    err = ParseError("bad", 3)
    assert err.reason == "bad"
    assert str(err) == "bad (at position 3)"


def test_t_powers_take_logarithmic_time():
    start = time.perf_counter()
    f = parse_polynomial("(t^10000000)*X", XY, F4)
    assert time.perf_counter() - start < 1.0
    assert f == parse_polynomial("t*X", XY, F4)


def test_t_power_is_reduced_in_the_field():
    # t has order 3 in GF(4)*; a dense t-polynomial would need 10^12 slots
    f = parse_polynomial("(t^1000000000000)*X", XY, F4)
    assert f.to_string() == "(t)*X"


def test_coefficients_share_the_term_grammar():
    want = parse_polynomial("(t+1)*X", XY, F4)
    for text in ("(t*t)*X", "(t ^ 2)*X", "((t) + (1))*X", "t*t*X",
                 "(" * 100 + "t*t" + ")" * 100 + "*X"):
        assert parse_polynomial(text, XY, F4) == want
    assert parse_polynomial("t*X", XY, F4) == \
        parse_polynomial("(t)*X", XY, F4)
    # a library ring may name a variable t; in parentheses t stays the
    # generator
    f = parse_polynomial("(t)*t", ("t",), F4)
    assert f.terms == {(1,): F4.element((0, 1)).idx}
    for text, spec in [("(2t)*X", F4), ("(2 t)*X", F4), ("2t*X", F4),
                       ("(2*t + 1)*X", F2), ("(X)*Y", F4),
                       ("(t + 1*X", F4),
                       # recursion stays far from the interpreter's limit
                       ("(" * 101 + "t" + ")" * 101 + "*X", F4)]:
        with pytest.raises(ParseError):
            parse_polynomial(text, XY, spec)


def test_parse_accepts_spaces_and_signs():
    assert parse_polynomial(" - X", XY, F3) == \
        parse_polynomial("2*X", XY, F3)
    assert parse_polynomial("X^2+Y", XY, F3) == \
        parse_polynomial("X^2 + Y", XY, F3)


def test_negative_powers_are_refused():
    f = parse_polynomial("X^2 + (t)*X*Y + 1", XY, F4)
    with pytest.raises(ValueError,
                       match="^exponent must be a non-negative integer$"):
        f ** -1


def test_compose_lifts_arguments_into_the_form_field():
    """A form over GF(4) composed on arguments over GF(2) lives over
    GF(4), and agrees with evaluation at every point of GF(2)^2."""
    p = parse_polynomial("y0^2 + (t)*y0*y1 + y1^3", ("y0", "y1"), F4)
    args = [parse_polynomial(s, XY, F2) for s in ("X + 1", "X*Y")]
    h = p.compose(args)
    assert h.spec is F4 and h.vars == XY
    assert h == parse_polynomial("X^3*Y^3 + (t)*X^2*Y + X^2 + (t)*X*Y + 1",
                                 XY, F4)
    for a in enumerate_field(F2):
        for b in enumerate_field(F2):
            inner = [g.evaluate((a, b)) for g in args]
            assert h.evaluate((a, b)) == p.evaluate(inner)
