"""Buchberger, normal forms and the reduced-basis canonicality contract."""

import itertools
import random
import re
import sys
import threading

import pytest

from nullkit.errors import DegreeOverflow, RingMismatch
from nullkit.field import enumerate_field, make_field
from nullkit.groebner import (
    GroebnerBasis,
    buchberger,
    divide_exact,
    normal_form,
)
from nullkit.ideals import Ideal
from nullkit.poly import (
    DEGREVLEX,
    LEX,
    Polynomial,
    _degrevlex_last,
    block_order,
    parse_polynomial,
)

from helpers import (
    basis_terms,
    count_calls,
    ref_buchberger,
    ref_divide_exact,
    ref_reduce_full,
    ref_s_polynomial,
    sympy_basis,
    to_sympy,
)

F2 = make_field(2)
F3 = make_field(3)
XY = ("X", "Y")
XYZ = ("X", "Y", "Z")
P2 = ("X0", "X1", "X2")


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
        assert normal_form(ref_s_polynomial(g, h, DEGREVLEX), basis).is_zero


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


def test_divide_exact_by_zero():
    f = parse_polynomial("X^2 + Y", XY, F3)
    with pytest.raises(ZeroDivisionError,
                       match="^division by the zero polynomial$"):
        divide_exact(f, Polynomial.zero(F3, XY), DEGREVLEX)


def test_divide_exact_checks_the_ring():
    """A divisor from another ring is refused, not read by exponents."""
    f = parse_polynomial("X0*X1", ("X0", "X1", "X2"), F2)
    g = parse_polynomial("Y1", ("Y0", "Y1", "Y2"), F2)
    with pytest.raises(RingMismatch):
        divide_exact(f, g)


def test_divide_exact_refuses_a_quotient_past_the_packing():
    """X^3 + 1 over GF(2) in lex: reducing by X + Y^100 reaches Y^300,
    past the packing sized for degree 100, which no exact quotient
    does."""
    f = parse_polynomial("X^3 + 1", XY, F2)
    g = parse_polynomial("X + Y^100", XY, F2)
    with pytest.raises(ValueError,
                       match=r"^Y\^100 \+ X does not divide X\^3 \+ 1$"):
        divide_exact(f, g, LEX)


@pytest.mark.parametrize("order", [LEX, DEGREVLEX, block_order(1)],
                         ids=["lex", "degrevlex", "block1"])
def test_exact_quotient_fits_the_packing_of_f(monkeypatch, order):
    """Every term the division forms has degree at most deg f = 250, so
    it runs in f's packing and never widens."""
    from nullkit import groebner

    widened = count_calls(monkeypatch, "_widen", module=groebner)
    g = parse_polynomial("X + 2*Y^100", XY, F3)
    f = g * parse_polynomial("X^2 + Y^150", XY, F3)
    assert str(divide_exact(f, g, order)) == "Y^150 + X^2"
    assert not widened


def test_divide_exact_by_a_t_leading_divisor_over_gf9():
    """The quotient is scaled by 1/lc(g) = 2*t in GF(9) = GF(3)[t]/(t^2 + 1),
    whose encoding 6 is 0 when read as an integer modulo 3."""
    F9 = make_field(3, 2)
    f = parse_polynomial("X^2 + t*Y", XY, F9)
    g = parse_polynomial("t*X*Y + Y^2 + 1", XY, F9)
    assert str(g.leading(DEGREVLEX)[1]) == "t"
    assert divide_exact(f * g, g, DEGREVLEX) == f


def test_degree_guard():
    with pytest.raises(DegreeOverflow):
        buchberger([parse_polynomial("X^65 + Y", XY, F2)])


def test_basis_equality_and_iteration():
    a = gb(["X^2", "X*Y"])
    b = gb(["X*Y", "X^2"])
    assert a == b and len(a) == len(list(a))
    assert isinstance(a, GroebnerBasis)


def _random_form(rng, spec, vars, deg, n_terms):
    """Random homogeneous polynomial; forms rarely span the unit ideal."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * len(vars)
        for _ in range(deg):
            exps[rng.randrange(len(vars))] += 1
        terms[tuple(exps)] = spec.element(rng.randrange(spec.p))
    return Polynomial(spec, vars, terms)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduced_basis_matches_sympy(p):
    """Differential check against sympy's grevlex basis mod p."""
    sympy = pytest.importorskip("sympy")
    spec = make_field(p)
    vars = ("X0", "X1", "X2")
    syms = sympy.symbols(vars)
    rng = random.Random(1000 + p)
    for _ in range(12):
        gens = [_random_form(rng, spec, vars, rng.randint(2, 3),
                             rng.randint(2, 4))
                for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        theirs = sympy_basis([to_sympy(g, syms) for g in gens], syms, p)
        assert basis_terms(buchberger(gens)) == theirs, [str(g) for g in gens]


def test_reduced_basis_properties_hold_on_random_inputs():
    """Order and scaling invariance, and S-polynomials close, by hypothesis."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.integers(1, 4))
    def check(rng, n):
        gens = [_random_form(rng, F3, XYZ, rng.randint(1, 3),
                             rng.randint(1, 4))
                for _ in range(n)]
        basis = buchberger(gens)
        for g, h in itertools.combinations(list(basis), 2):
            s = ref_s_polynomial(g, h, DEGREVLEX)
            assert normal_form(s, basis).is_zero
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [f.scale(F3.element(rng.choice((1, 2)))) for f in shuffled]
        assert buchberger(scaled).gens == basis.gens

    check()


def test_chain_criterion_bounds_the_s_pairs(monkeypatch):
    """Saturation of <X0*X1 + X2^2> over GF(2) forms at most 373 S-pairs.

    That is half of what the coprime rule alone forms (746).  Buchberger
    calls s_polynomial once per formed pair and _reduce_full once per
    reduction, a normal form's included, so the counts are exact: 20
    pairs and 60 reductions.  They were 37 and 65 before Gamma_q^* went
    to buchberger as a known group, whose members are never paired, the
    Bayer-Stillman parts came reduced with no S-pair, and the fold
    skipped one of its two intersections, the X0 part's generators
    reducing to zero modulo the X2 part's basis; its membership tests
    add normal forms.  Reductions were 61 while a built saturation part
    was also tested for holding the result: dropping that test saves
    two normal forms, and the skip test's power of X_j costs one.
    """
    from nullkit import groebner
    from nullkit.nullstellensatz import NullConfig, projective_vanishing

    formed = []
    real = groebner.s_polynomial

    def counting(*args):
        formed.append(1)
        return real(*args)

    monkeypatch.setattr(groebner, "s_polynomial", counting)
    reductions = count_calls(monkeypatch, "_reduce_full", module=groebner)
    vars = ("X0", "X1", "X2")
    I = Ideal.from_strings(F2, vars, ["X0*X1 + X2^2"])
    result, _ = projective_vanishing(
        I, NullConfig(F2, vars=vars, K_spec=F2), method="saturation")
    assert [str(g) for g in result.gens] == [
        "X1*X2 + X2^2", "X0*X2 + X2^2", "X0*X1 + X2^2"]
    assert len(formed) <= 373
    assert len(formed) == 20
    assert len(reductions) == 60


def _count_pairs_and_reductions(monkeypatch):
    from nullkit import groebner

    return (count_calls(monkeypatch, "s_polynomial", module=groebner),
            count_calls(monkeypatch, "_reduce_full", module=groebner))


def test_intersection_pairs_and_reductions(monkeypatch):
    """One ideal_intersect: a block(1) elimination of T from
    T*I + (1 - T)*J in GF(3)[T, X0, X1, X2].  The counts, 12 S-pairs and
    18 reductions, were read from the code before pairs were kept in
    bitmasks and the lifts re-keyed; they pin the pair decisions."""
    from nullkit.ideals import ideal_intersect

    formed, reductions = _count_pairs_and_reductions(monkeypatch)
    I = Ideal.from_strings(F3, P2, ["X0^2 - X1*X2", "X1^2 + X0*X2"])
    J = Ideal.from_strings(F3, P2, ["X0*X1 - X2^2", "X0 + X1 + X2"])
    meet = ideal_intersect(I, J)
    assert [str(g) for g in meet.gb().gens] == [
        "X0^2 + 2*X1*X2",
        "X0*X1^2 + X1^3 + X0*X1*X2 + X1^2*X2 + X0*X2^2 + X1*X2^2",
        "X1^4 + 2*X1*X2^3"]
    assert (len(formed), len(reductions)) == (12, 18)


def test_permuted_quotient_pairs_and_reductions(monkeypatch):
    """One _quotient_by_variable_power with j = 1 < n - 1: a degrevlex
    run with X1 compared last.  The 20 S-pairs were read from the code
    before pairs were kept in bitmasks and the quotient re-keyed in one
    step; they pin the pair decisions.  The reductions went from 29 to
    38 and the part's generators from 10 to 9 when the divided basis
    came to be interreduced: one reduction per kept member, one dropped
    as its lead is a multiple of another's."""
    from nullkit.ideals import _quotient_by_variable_power, reduced

    formed, reductions = _count_pairs_and_reductions(monkeypatch)
    vars = P2 + ("X3",)
    I = Ideal.from_strings(F3, vars, [
        "X0^2*X1 - X2^3", "X0*X1^2 + X1*X2^2", "X1^3 + X3^3",
        "X0*X3^2 - X1^2*X2"])
    part = _quotient_by_variable_power(I, 1, 2)
    assert (len(formed), len(reductions)) == (20, 38)
    assert len(part.gens) == 9
    for g in part.gens:  # X1^2 * g lies in I
        assert I.contains(g * parse_polynomial("X1^2", vars, F3))
    assert not reduced(part).equals(I)


# Known groups: Gamma_q^* is a reduced degrevlex basis in every order of
# the variables, and buchberger never pairs two members of a group.

def _monic(g):
    return g.scale(g.leading()[1].inv())


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_gamma_q_star_is_reduced_in_every_variable_order(p, e):
    """buchberger, given no group, returns exactly Gamma_q^*'s
    generators, made monic, over GF(2), GF(3), GF(4), GF(5) and GF(9) in
    2-4 variables, in whatever order the ring lists the variables: what
    lets every permuted degrevlex run take them as a known group."""
    from nullkit.nullstellensatz import NullConfig, gamma_q_star

    spec = make_field(p, e)
    for n in (2, 3, 4):
        vars = tuple(f"X{i}" for i in range(n))
        gamma = gamma_q_star(NullConfig(spec, spec, vars))
        for perm in itertools.permutations(range(n)):
            moved = [Polynomial(spec, tuple(vars[i] for i in perm), {
                tuple(x[i] for i in perm): c for x, c in g.terms.items()})
                for g in gamma.gens]
            basis = buchberger(moved)
            assert len(basis) == len(moved)
            assert set(basis.gens) == set(map(_monic, moved))


def test_gamma_q_star_members_are_never_paired(monkeypatch):
    """With Gamma_q^* a known group, in J.gb() and in the runs with X_j
    last of the colon and the saturation on J = I + Gamma_q^*, no
    s_polynomial call has two of its members as operands; the same runs
    on a copy of Gamma_q^* not noted as a group do pair them.
    Gamma_q^* maps to itself, up to sign, under any order of the
    variables, so its monic members are a reduced basis for every
    degrevlex order, whichever variable it compares last."""
    from nullkit import groebner
    from nullkit.ideals import ideal_quotient, ideal_saturate, ideal_sum
    from nullkit.nullstellensatz import (
        NullConfig,
        gamma_q_star,
        irrelevant_ideal,
        power_ideal,
    )

    gamma = gamma_q_star(NullConfig(F3, F3, P2))
    members = {frozenset(_monic(g).terms.items()) for g in gamma.gens}
    pairs = []
    real = groebner.s_polynomial

    def recording(f, g):
        pairs.append([frozenset((f.ring.unpack_mono(m), c)
                                for m, c in h.terms.items()) in members
                      for h in (f, g)])
        return real(f, g)

    monkeypatch.setattr(groebner, "s_polynomial", recording)

    def runs(gamma):
        def with_gamma():
            I = Ideal.from_strings(F3, P2, ["X0*X1 - X2^2"])
            return ideal_sum(I, gamma)

        with_gamma().gb()
        ideal_quotient(with_gamma(), power_ideal(F3, P2, 5))
        ideal_saturate(with_gamma(), irrelevant_ideal(F3, P2))

    runs(gamma)
    assert pairs and [True, True] not in pairs
    runs(Ideal(F3, P2, gamma.gens))
    assert [True, True] in pairs


def test_one_buchberger_run_per_degrevlex_order_per_ideal(monkeypatch):
    """The colon by <X0^5, X1^5, X2^5> and then the saturation by the
    irrelevant ideal, on one J = <X0*X1 - X2^2> + Gamma_3^*, read the
    bases of J for degrevlex and degrevlex with X0 or X1 last from J's
    cache: one run each, five with the two intersections.  Seven runs,
    each order with X_j last twice, mean that a caller rebuilt the
    ideal whose basis it read."""
    from collections import Counter

    from nullkit import ideals
    from nullkit.nullstellensatz import (
        NullConfig,
        gamma_q_star,
        irrelevant_ideal,
        power_ideal,
    )

    runs = []
    real = ideals.buchberger

    def recording(gens, order=DEGREVLEX, **kwargs):
        runs.append(order)
        return real(gens, order, **kwargs)

    monkeypatch.setattr(ideals, "buchberger", recording)
    J = ideals.ideal_sum(Ideal.from_strings(F3, P2, ["X0*X1 - X2^2"]),
                         gamma_q_star(NullConfig(F3, F3, P2)))
    ideals.ideal_quotient(J, power_ideal(F3, P2, 5))
    ideals.ideal_saturate(J, irrelevant_ideal(F3, P2))
    assert Counter(o for o in runs if o.kind == "degrevlex") == Counter(
        [DEGREVLEX, _degrevlex_last(0, 3), _degrevlex_last(1, 3)])
    assert len(runs) == 5


def test_known_groups_reach_only_degrevlex_runs(monkeypatch):
    """Ideal.gb passes Gamma_q^* as known to a degrevlex run only:
    lex runs, eliminate's block order and radical membership's
    Rabinowitsch ideal on I + Gamma_q^* pass no group."""
    from nullkit import ideals
    from nullkit.nullstellensatz import NullConfig, gamma_q_star

    runs = []
    real = ideals.buchberger

    def recording(gens, order=DEGREVLEX, **kwargs):
        runs.append((order, kwargs.get("_known", ())))
        return real(gens, order, **kwargs)

    monkeypatch.setattr(ideals, "buchberger", recording)
    gamma = gamma_q_star(NullConfig(F3, F3, P2))
    J = ideals.ideal_sum(Ideal.from_strings(F3, P2, ["X0*X1 - X2^2"]), gamma)
    J.gb(LEX)
    ideals.eliminate(J, 1)
    ideals.radical_membership(parse_polynomial("X0", P2, F3), J)
    assert [order for order, _ in runs] == [
        LEX, block_order(1), block_order(1)]
    assert all(known == () for _, known in runs)
    J.gb()
    assert runs[-1] == (DEGREVLEX, (gamma.gens,))


# Exponents past the packed field width: each check takes well under 1 s.

def test_lex_normal_form_grows_past_the_field_width():
    """X^1000 = Y^100000 modulo <X - Y^100>: the reduction outgrows
    the packing of its inputs and starts over wider."""
    basis = GroebnerBasis(LEX, [parse_polynomial("X - Y^100", XY, F2)])
    f = parse_polynomial("X^1000", XY, F2)
    assert normal_form(f, basis) == parse_polynomial("Y^100000", XY, F2)


def test_membership_at_degree_70000():
    F7 = make_field(7)
    I = Ideal.from_strings(F7, XY, ["X - Y"])
    assert I.contains(parse_polynomial("X^70000 - Y^70000", XY, F7))
    assert not I.contains(parse_polynomial("X^70000 - Y", XY, F7))
    assert not I.contains(parse_polynomial("X^70000 - 2*Y^70000", XY, F7))


def test_buchberger_reports_the_degree_reached_in_a_wider_packing():
    """The S-polynomial reduction climbs to Y^300, past the 256 the
    basis packing holds; the message gives the exact degree."""
    F7 = make_field(7)
    with pytest.raises(DegreeOverflow,
                       match="^intermediate degree 300 exceeds 64$"):
        gb(["X - Y^60", "X^5 - Z"], XYZ, F7, LEX)


# Differential checks against the tuple-monomial references in helpers.

ORDERS = [LEX, DEGREVLEX, block_order(1), block_order(2),
          _degrevlex_last(0, 3), _degrevlex_last(1, 3)]
FIELDS = [F2, F3, make_field(2, 2), make_field(3, 2), make_field(257)]


def _dense(rng, spec, vars, deg, n_terms):
    """Up to n_terms terms of degree at most deg; never zero."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * len(vars)
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(len(vars))] += 1
        terms[tuple(exps)] = spec.element(rng.randrange(1, spec.q))
    return Polynomial(spec, vars, terms)


def test_kernel_matches_the_tuple_references():
    """buchberger, normal_form and divide_exact agree with the tuple
    loops on lex, degrevlex, block(1), block(2) and degrevlex with X or
    Y last over GF(2), GF(3), GF(4), GF(9) and the untabled GF(257).
    Substitution bases <X - h(Y, Z)> make lex and block reductions
    outgrow the packing."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.sampled_from(ORDERS),
           st.sampled_from(FIELDS))
    def check(rng, order, spec):
        gens = [_dense(rng, spec, XYZ, rng.randint(1, 3), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))]
        basis = buchberger(gens, order)
        assert list(basis.gens) == ref_buchberger(gens, order)
        if order is not DEGREVLEX:
            h = _dense(rng, spec, ("Y", "Z"), rng.randint(2, 60), 2)
            sub = parse_polynomial("X", XYZ, spec) - Polynomial(
                spec, XYZ, {(0, *e): c for e, c in h.terms.items()})
            basis = GroebnerBasis(order, [sub])
        f = _dense(rng, spec, XYZ, rng.randint(0, 20), rng.randint(1, 4))
        f += Polynomial.monomial(spec, XYZ, (rng.randint(0, 12), 0, 0))
        leads = [(g.leading(order)[0], g) for g in basis]
        assert normal_form(f, basis) == ref_reduce_full(
            f.terms, leads, order, spec, XYZ)
        g = gens[0]
        assert divide_exact(f * g, g, order) == ref_divide_exact(
            f * g, g, order) == f
        rest = f * g + _dense(rng, spec, XYZ, 2, 2)
        try:
            expected = ref_divide_exact(rest, g, order)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                divide_exact(rest, g, order)
        else:
            assert divide_exact(rest, g, order) == expected

    check()


def _lead_power(rng, spec, i, a):
    """X_i^a plus terms of lower degree in the variables after X_i: the
    lead is X_i^a in each of ORDERS, so such leads are coprime."""
    vars = XYZ[i + 1:]
    rest = _dense(rng, spec, vars, a - 1, 2) if vars else Polynomial(
        spec, (), {(): rng.randrange(spec.q)})
    return Polynomial(spec, XYZ, {
        (0,) * i + (a,) + (0,) * len(vars): 1,
        **{(0,) * (i + 1) + e: c for e, c in rest.terms.items()}})


def _binomial_chain():
    """m_k + 2*m_(k+1) over GF(3) for the 66 monomials m_k of degree 10
    in X, Y, Z: 65 basis members before the first S-pair."""
    monos = [e for e in itertools.product(range(11), repeat=3)
             if sum(e) == 10]
    return [Polynomial(F3, XYZ, {a: 1, b: 2})
            for a, b in zip(monos, monos[1:])]


def test_pair_bookkeeping_matches_the_reference():
    """buchberger, with its packed pair lcms, pending-pair bitmasks and
    chain criterion, gives ref_buchberger's basis (every pair, no
    criteria) on lex, degrevlex, block(1), block(2) and degrevlex with X
    or Y last over GF(2), GF(3) and GF(4).  Inputs repeat generators,
    add monomial multiples of them and add generators with pairwise
    coprime leads.  The explicit
    example holds 65 binomials over the degree-10 monomials, so the
    basis has more than 64 members and the bitmasks pass one machine
    word."""
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.sampled_from(ORDERS),
           st.sampled_from(FIELDS[:3]), st.just(None))
    @example(random.Random(0), LEX, F3, _binomial_chain())
    def check(rng, order, spec, gens):
        if gens is None:
            gens = [_dense(rng, spec, XYZ, rng.randint(1, 3),
                           rng.randint(1, 3))
                    for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 4)):
                g, kind = rng.choice(gens), rng.randrange(3)
                if kind == 0:
                    gens.append(g)
                elif kind == 1:
                    exps = tuple(rng.randint(0, 2) for _ in XYZ)
                    gens.append(g * Polynomial.monomial(spec, XYZ, exps))
                else:
                    gens.append(_lead_power(rng, spec, rng.randrange(3),
                                            rng.randint(1, 3)))
            rng.shuffle(gens)
        assert list(buchberger(gens, order).gens) == ref_buchberger(
            gens, order)

    check()


def test_pending_bitmasks_pass_one_machine_word(monkeypatch):
    """The degrevlex run on _binomial_chain() keeps pairs of members past
    index 64 pending.  Its counts, 127 S-pairs and 93 reductions, were
    read from the code before pending pairs became bitmasks, when they
    were a set of index pairs; bitmasks cut to 64 bits form 118."""
    formed, reductions = _count_pairs_and_reductions(monkeypatch)
    assert len(buchberger(_binomial_chain())) == 65
    assert (len(formed), len(reductions)) == (127, 93)


@pytest.mark.parametrize("order", ORDERS + [block_order(3)],
                         ids=["lex", "degrevlex", "block1", "block2",
                              "last0", "last1", "block3"])
def test_packed_lcm_is_the_fieldwise_max(order):
    """_Ring.lcm equals the packing of the exponent-wise max, with the
    lcm's degree, for every layout and in a ring widened by _widen."""
    from nullkit.groebner import _Packed, _Ring, _widen

    rng = random.Random(7)
    ring = _Ring(order, F3, 3, 0)
    wide = _widen(_Packed(ring, {}), [])[0].ring
    for r, top in ((ring, 64), (wide, 1 << 20)):
        for _ in range(200):
            a, b = ([rng.randint(0, top // 3) for _ in range(3)]
                    for _ in range(2))
            x, y = ((r.pack_mono(e) ^ r.flip) & r.exps for e in (a, b))
            m = tuple(map(max, a, b))
            assert r.lcm(x, y) == (sum(m), r.pack_mono(m))


def _ring_gens():
    return [parse_polynomial(s, XYZ, F3) for s in ("X^2 - Y*Z", "Y^2 + X*Z")]


def test_one_ring_per_key(monkeypatch):
    """Two buchberger runs on the same GF(3) input build one _Ring: a ring
    is cached by order, spec, arity and field width."""
    from nullkit import groebner

    monkeypatch.setattr(groebner, "_RINGS", {}, raising=False)
    built = count_calls(monkeypatch, "__init__", module=groebner._Ring)
    gens = _ring_gens()
    assert buchberger(gens) == buchberger(gens)
    assert len(built) == 1


def test_ring_cache_is_thread_safe(monkeypatch):
    """Eight threads running buchberger on one GF(3) input at once get
    identical bases, all packed in the one ring published for the key."""
    from nullkit import groebner

    monkeypatch.setattr(groebner, "_RINGS", {}, raising=False)
    gens, bases = _ring_gens(), []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: bases.append(
            buchberger(gens))) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert len(bases) == 8
    assert all(b == bases[0] for b in bases)
    (ring,) = groebner._RINGS.values()
    assert all(b._packed[0] is ring for b in bases)
