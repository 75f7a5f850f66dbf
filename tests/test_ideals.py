"""Ideal operations checked against membership and evaluation oracles."""

import itertools
import random

import pytest

from nullkit.conjectures import search_witness
from nullkit.errors import (
    NonHomogeneousProjective,
    RingMismatch,
    ZeroDivisorIdeal,
)
from nullkit.field import enumerate_field, make_field
from nullkit.groebner import divide_exact, normal_form
from nullkit.ideals import (
    Ideal,
    eliminate,
    fresh_var,
    ideal_intersect,
    ideal_quotient,
    ideal_saturate,
    ideal_sum,
    is_homogeneous_ideal,
    radical_membership,
    reduced,
)
from nullkit.nullstellensatz import NullConfig, certify_membership
from nullkit.poly import Polynomial, parse_polynomial
from nullkit.varieties import PROJECTIVE, zero_set

from helpers import (
    basis_terms,
    brute_zero_set,
    count_calls,
    random_poly,
    ref_is_homogeneous_ideal,
    sympy_basis,
    sympy_intersect,
    sympy_quotient,
    sympy_saturate,
    to_sympy,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
XY = ("X", "Y")


def ideal(strings, vars=XY, spec=F2):
    return Ideal.from_strings(spec, vars, strings)


def small_polys(spec, vars, max_deg):
    monos = sorted(e for e in itertools.product(range(max_deg + 1),
                                                repeat=len(vars))
                   if sum(e) <= max_deg)
    out = []
    for coefs in itertools.product(enumerate_field(spec), repeat=len(monos)):
        out.append(Polynomial(spec, vars, {
            m: c for m, c in zip(monos, coefs) if c}))
    return out


def test_contains_and_equals():
    I = ideal(["X^2", "X*Y"])
    assert I.contains(parse_polynomial("X^2 + X*Y", XY, F2))
    assert not I.contains(parse_polynomial("X", XY, F2))
    assert I.equals(ideal(["X*Y", "X^2 + X*Y"]))
    assert not I.equals(ideal(["X"]))


def test_ring_check():
    I = ideal(["X"])
    J = Ideal.from_strings(F3, XY, ["X"])
    with pytest.raises(RingMismatch):
        ideal_sum(I, J)


P2 = ("X0", "X1", "X2")


@pytest.mark.parametrize("call", [
    lambda I, f: Ideal(I.spec, I.vars, [f]),
    lambda I, f: I.contains(f),
    lambda I, f: radical_membership(f, I),
    lambda I, f: search_witness(f, I, "r1"),
    lambda I, f: certify_membership(f, I, NullConfig(I.spec, I.spec, I.vars)),
], ids=["generator", "contains", "radical", "search", "certify"])
@pytest.mark.parametrize("spec, vars", [(F3, P2), (F2, ("Y0", "Y1", "Y2"))],
                         ids=["field", "vars"])
def test_polynomials_from_another_ring_are_refused(call, spec, vars):
    """Every entry point that takes a polynomial with an ideal refuses
    one from another ring through Ideal.check_polynomial, with one
    message."""
    I = Ideal.from_strings(F2, P2, ["X0"])
    f = parse_polynomial(vars[1], vars, spec)
    with pytest.raises(RingMismatch) as exc:
        call(I, f)
    assert str(exc.value) == f"{vars[1]} does not live in GF(2)[X0,X1,X2]"


@pytest.mark.parametrize("spec, vars", [
    (F2, ("Y0", "Y1")),
    (F3, ("X", "Y", "Z")),
], ids=["renamed", "gf3-three-vars"])
def test_saturate_checks_the_ring(spec, vars):
    """ideal_saturate refuses a J from another ring, as ideal_quotient
    does, whatever its field or number of variables."""
    J = Ideal.from_strings(spec, vars, [vars[-1]])
    with pytest.raises(RingMismatch,
                       match="^ideals live in different rings$"):
        ideal_saturate(ideal(["X*Y"]), J)


def test_sum():
    I, J = ideal(["X^2"]), ideal(["Y^2"])
    S = ideal_sum(I, J)
    assert S.contains(parse_polynomial("X^2 + Y^2", XY, F2))
    assert S.equals(ideal(["X^2", "Y^2"]))


def test_intersect_monomial_ideals():
    # for monomial ideals the intersection is generated by lcms
    I, J = ideal(["X^2*Y"]), ideal(["X*Y^3"])
    assert ideal_intersect(I, J).equals(ideal(["X^2*Y^3"]))
    K = ideal(["X^2", "Y"])
    L = ideal(["X", "Y^2"])
    assert ideal_intersect(K, L).equals(
        ideal(["X^2", "X*Y", "Y^2"]))


def test_intersect_membership_characterization():
    I = ideal(["X^2 + Y", "X*Y"], spec=F3)
    J = ideal(["X + Y^2"], spec=F3)
    M = ideal_intersect(I, J)
    for f in small_polys(F3, XY, 2):
        assert M.contains(f) == (I.contains(f) and J.contains(f))


def test_intersect_with_zero_and_unit():
    I = ideal(["X^2"])
    Z = ideal([])
    assert ideal_intersect(I, Z).equals(Z)
    assert ideal_intersect(Z, I).equals(Z)
    U = ideal(["1"])
    assert ideal_intersect(I, U).equals(I)


def test_intersect_deterministic_across_input_order():
    gens = ["X^2 + Y", "X*Y + 1", "Y^2 + 2*X"]
    ref = None
    for seed in range(20):
        rng = random.Random(seed)
        a, b = gens[:2], gens[2:]
        sa = [s for s in a]
        rng.shuffle(sa)
        got = reduced(ideal_intersect(
            ideal(sa, spec=F3), ideal(b, spec=F3))).gb().gens
        if ref is None:
            ref = got
        assert got == ref


def test_shared_generator_enters_the_intersection_once(monkeypatch):
    """A generator g of both I and J is lifted once, as g itself:
    <T*g, (1 - T)*g> = <g>.  The basis equals that of the intersection
    with 2*g in J, which shares nothing, and forms fewer S-pairs."""
    from nullkit import groebner

    formed = count_calls(monkeypatch, "s_polynomial", module=groebner)
    I = ideal(["X0*X1 - X2^2", "X0^2 + X1*X2"], P2, F3)
    counts, bases = [], []
    for g in ("X0*X1 - X2^2", "2*X0*X1 - 2*X2^2"):
        del formed[:]
        J = ideal([g, "X1^2 - X0*X2"], P2, F3)
        bases.append(ideal_intersect(I, J).gb().gens)
        counts.append(len(formed))
    assert bases[0] == bases[1]
    assert counts[0] < counts[1], counts


@pytest.mark.time_budget(30)
def test_intersection_and_quotient_match_sympy():
    """A second route outside nullkit: ideal_intersect, ideal_quotient
    and eliminate over GF(2), GF(3), GF(5) and GF(7) against sympy,
    which eliminates t from t*I + (1 - t)*J by a lex basis, divides the
    parts of the quotient itself, and keeps the members of I's lex basis
    free of X0, or of X0 and X1.  The draws share generators between I
    and J, mix homogeneous and other generators, and take
    single-variable powers c*X_j^k among the divisors, the
    Bayer-Stillman route for a homogeneous I."""
    sympy = pytest.importorskip("sympy")
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    syms = sympy.symbols(P2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.sampled_from([2, 3, 5, 7]),
           st.booleans())
    def check(rng, p, homogeneous):
        spec = make_field(p)

        def draws(count):  # nonzero: a variable stands in for zero
            return [random_poly(rng, spec, P2, rng.randint(1, 2),
                                rng.randint(1, 3), homogeneous)
                    or Polynomial.variable(spec, P2, rng.choice(P2))
                    for _ in range(count)]

        shared = draws(rng.randint(0, 2))
        I = Ideal(spec, P2, draws(rng.randint(1, 2)) + shared)
        J = Ideal(spec, P2, shared[::-1] + draws(rng.randint(0, 1)))
        if J.is_zero:
            J = Ideal(spec, P2, draws(1))
        j, k = rng.randrange(3), rng.randint(1, 3)
        power = Polynomial(spec, P2, {tuple(k if i == j else 0
                                            for i in range(3)): p - 1})
        K = Ideal(spec, P2, [power] + draws(rng.randint(0, 1)))
        I_s, J_s, K_s = ([to_sympy(f, syms) for f in X.gens]
                         for X in (I, J, K))
        assert basis_terms(ideal_intersect(I, J).gb()) == sympy_basis(
            sympy_intersect(I_s, J_s, syms, p), syms, p)
        assert basis_terms(ideal_quotient(I, K).gb()) == sympy_basis(
            sympy_quotient(I_s, K_s, syms, p), syms, p)
        lex = sympy.groebner(I_s, *syms, modulus=p, order="lex").exprs
        for k in (1, 2):
            kept = [q for q in lex if not q.has(*syms[:k])]
            assert basis_terms(eliminate(I, k).gb()) == sympy_basis(
                kept, syms[k:], p)

    check()


@pytest.mark.time_budget(30)
def test_saturation_and_projective_vanishing_match_sympy():
    """A second route outside nullkit for ideal_saturate and both closed
    formulas, over GF(2), GF(3), GF(5) and GF(7).  sympy saturates by
    eliminating t from I + <1 - t*g> per divisor g and intersecting the
    parts (sympy_saturate), and forms the colon
    (I + Gamma_q^*) : <X_0^d, ..., X_n^d> by sympy_quotient.  The draws
    mix homogeneous and other generators, and single-term divisors
    c*X_j^k, the Bayer-Stillman route for a homogeneous I, with others;
    a homogeneous draw with a nonempty zero set also runs
    projective_vanishing by colon and by saturation."""
    sympy = pytest.importorskip("sympy")
    pytest.importorskip("hypothesis")
    from hypothesis import Phase, given, settings, strategies as st
    from nullkit.nullstellensatz import (
        degree_bound,
        gamma_q_star,
        power_ideal,
        projective_vanishing,
    )

    # No shrinking: each draw runs sympy, and a shrink outlasts the budget.
    @settings(max_examples=40, deadline=None, derandomize=True,
              phases=(Phase.generate,))
    @given(st.randoms(use_true_random=False), st.sampled_from([2, 3, 5, 7]),
           st.integers(2, 3), st.booleans())
    def check(rng, p, n, homogeneous):
        spec, vars = make_field(p), P2[:n]
        syms = sympy.symbols(vars)

        def draw():  # nonzero: a variable stands in for zero
            return (random_poly(rng, spec, vars, rng.randint(1, 2),
                                rng.randint(1, 3), homogeneous)
                    or Polynomial.variable(spec, vars, rng.choice(vars)))

        I = Ideal(spec, vars, [draw() for _ in range(rng.randint(1, 2))])
        J = Ideal(spec, vars, [Polynomial(spec, vars, {
            tuple(rng.randint(1, 2) if i == j else 0 for i in range(n)):
            rng.randrange(1, p)}) for j in rng.sample(range(n), n)]
            + [draw() for _ in range(rng.randint(0, 1))])
        I_s, J_s = ([to_sympy(f, syms) for f in X.gens] for X in (I, J))
        S, _ = ideal_saturate(I, J)
        assert basis_terms(S.gb()) == sympy_basis(
            sympy_saturate(I_s, J_s, syms, p), syms, p)
        if not homogeneous or not zero_set(I, spec, PROJECTIVE).points:
            return
        cfg = NullConfig(spec, spec, vars)
        with_gamma = I_s + [to_sympy(f, syms)
                            for f in gamma_q_star(cfg).gens]
        powers = power_ideal(spec, vars, degree_bound(I, p)).gens
        colon = sympy_quotient(with_gamma, [to_sympy(f, syms)
                                            for f in powers], syms, p)
        sat = sympy_saturate(with_gamma, list(syms), syms, p)
        for method, theirs in (("colon", colon), ("saturation", sat)):
            ours, _ = projective_vanishing(I, cfg, method)
            assert basis_terms(ours.gb()) == sympy_basis(theirs, syms, p)

    check()


@pytest.mark.parametrize("divisor", ["2*X0^2", "X1", "X2^3"])
def test_homogeneous_ideal_with_other_generators_takes_bayer_stillman(
        monkeypatch, divisor):
    """<h1, h1 + h2> with h1, h2 forms of different degrees is
    homogeneous though its second generator is not, so quotient by
    c*X_j^k and saturation by the irrelevant ideal take the
    Bayer-Stillman route, with no Rabinowitsch ideal and no exact
    division, and agree with the intersect-and-divide references."""
    rabinowitsch = count_calls(monkeypatch, "_rabinowitsch")
    divisions = count_calls(monkeypatch, "divide_exact")
    I = Ideal.from_strings(F3, P2, ["X0*X1 + X2^2",
                                    "X0*X1 + X2^2 + X0^3 - X1*X2^2"])
    J = Ideal.from_strings(F3, P2, [divisor])
    m = Ideal.from_strings(F3, P2, list(P2))
    Q = ideal_quotient(I, J)
    S, rounds = ideal_saturate(I, m)
    assert rabinowitsch == [] and divisions == []
    assert Q.gb().gens == reference_quotient(I, J).gb().gens
    assert (S.gb().gens, rounds) == reference_saturate(I, m)


def test_quotient_monomials():
    assert ideal_quotient(ideal(["X^2*Y"]), ideal(["X"])) \
        .equals(ideal(["X*Y"]))
    assert ideal_quotient(ideal(["X^2", "X*Y"]), ideal(["X"])) \
        .equals(ideal(["X", "Y"]))
    # quotient by something already inside gives the unit ideal
    assert ideal_quotient(ideal(["X"]), ideal(["X^2"])).gb().is_unit


def test_quotient_definition_sampled():
    cases = [
        (["X^2", "X*Y"], ["X", "Y"]),
        # a non-homogeneous I or a divisor with two terms takes the
        # intersect-and-divide route
        (["X^3 + Y", "X*Y^2"], ["X"]),
        (["X^2*Y + X*Y^2", "Y^3"], ["X + Y"]),
    ]
    for I_gens, J_gens in cases:
        I = ideal(I_gens)
        J = ideal(J_gens)
        Q = ideal_quotient(I, J)
        for f in small_polys(F2, XY, 2):
            in_q = all(I.contains(f * g) for g in J.gens)
            assert Q.contains(f) == in_q


def test_quotient_by_zero_rejected():
    with pytest.raises(ZeroDivisorIdeal):
        ideal_quotient(ideal(["X"]), ideal([]))
    with pytest.raises(ZeroDivisorIdeal):
        ideal_saturate(ideal(["X"]), ideal(["0"]))


def test_eliminate():
    vars = ("X", "Y")
    I = Ideal.from_strings(F3, vars, ["X - Y^2"])
    E = eliminate(I, 1)
    assert E.vars == ("Y",) and E.is_zero
    J = Ideal.from_strings(F3, vars, ["X - Y", "Y^2 + 1"])
    E2 = eliminate(J, 1)
    assert E2.equals(Ideal.from_strings(F3, ("Y",), ["Y^2 + 1"]))
    assert eliminate(I, 0) is I


def test_eliminate_two_variables():
    """Eliminating S and T from the monomial parametrization
    (X, Y, Z) = (S^2, S*T, T^2) leaves the one relation Y^2 - X*Z, in
    (X, Y, Z)."""
    vars = ("S", "T", "X", "Y", "Z")
    I = Ideal.from_strings(F3, vars, ["X - S^2", "Y - S*T", "Z - T^2"])
    E = eliminate(I, 2)
    assert E.vars == ("X", "Y", "Z")
    assert [str(g) for g in reduced(E).gens] == ["Y^2 + 2*X*Z"]


def test_saturation_worked_example():
    vars = ("X0", "X1")
    I = Ideal.from_strings(F2, vars, ["X0*X1", "X0^2"])
    m = Ideal.from_strings(F2, vars, ["X0", "X1"])
    S, rounds = ideal_saturate(I, m)
    assert S.equals(Ideal.from_strings(F2, vars, ["X0"]))
    assert rounds == 2
    # an already saturated input confirms in one round
    S2, rounds2 = ideal_saturate(Ideal.from_strings(F2, vars, ["X0"]), m)
    assert S2.equals(Ideal.from_strings(F2, vars, ["X0"]))
    assert rounds2 == 1


def test_saturation_is_quotient_fixed_point():
    vars = ("X0", "X1")
    I = Ideal.from_strings(F2, vars, ["X0*X1", "X0^2"])
    m = Ideal.from_strings(F2, vars, ["X0", "X1"])
    S, _ = ideal_saturate(I, m)
    assert ideal_quotient(S, m).equals(S)
    # manual iteration reaches the same limit
    cur = I
    while True:
        nxt = ideal_quotient(cur, m)
        if nxt.equals(cur):
            break
        cur = nxt
    assert cur.equals(S)


def test_radical_membership():
    I = ideal(["X^2"])
    X = parse_polynomial("X", XY, F2)
    Y = parse_polynomial("Y", XY, F2)
    assert radical_membership(X, I)
    assert not radical_membership(Y, I)
    # (X + 1)^2 over GF(2)
    J = ideal(["X^2 + 1"])
    assert radical_membership(parse_polynomial("X + 1", XY, F2), J)
    assert not radical_membership(X, J)
    assert radical_membership(X, ideal(["X"]))


def test_scaling_variable_skips_ring_variables():
    """In GF(2)[T,T0,X] the scaling variable of ideal_intersect and
    radical_membership is T1; the results equal those in GF(2)[A,B,X]
    with the same exponents."""
    results = []
    for vars in (("T", "T0", "X"), ("A", "B", "X")):
        a, b, x = vars
        I = ideal([f"{a}*{x}", f"{b}^2"], vars)
        J = ideal([f"{b} + {x}", f"{a}^2"], vars)
        meet = reduced(ideal_intersect(I, J))
        results.append((
            [g.terms for g in meet.gens],
            [radical_membership(parse_polynomial(s, vars, F2), I)
             for s in (b, x, f"{a}*{x} + {b}")]))
    assert fresh_var(("T", "T0", "X")) == "T1"
    assert results[0] == results[1]
    assert results[0][1] == [True, False, True]


def test_is_homogeneous_ideal():
    assert is_homogeneous_ideal(ideal(["X^2 + X*Y"]))
    assert not is_homogeneous_ideal(ideal(["X + Y^2"]))
    # mixed generators can still span a homogeneous ideal
    assert is_homogeneous_ideal(ideal(["X + Y^2", "X"]))
    assert is_homogeneous_ideal(ideal([]))
    assert is_homogeneous_ideal(ideal(["1"]))


@pytest.mark.time_budget(30)
def test_is_homogeneous_ideal_matches_its_definition():
    """is_homogeneous_ideal, read off the reduced basis, against the
    graded pieces of every basis element over GF(2), GF(3) and GF(5) in
    two and three variables.  The draws take generic generators, and
    homogeneous ideals given by generators that are not, such as
    <h1, h1 + h2> with deg h1 != deg h2; for those the projective zero
    set must equal brute_zero_set."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.sampled_from([2, 3, 5]),
           st.sampled_from([XY, P2]), st.booleans())
    def check(rng, p, vars, mixed):
        spec = make_field(p)

        def draw(deg, homogeneous):  # nonzero: a variable stands in
            return (random_poly(rng, spec, vars, deg, rng.randint(1, 3),
                                homogeneous)
                    or Polynomial.variable(spec, vars, rng.choice(vars)))

        if mixed:
            # h1, h1 + h2, ... span the homogeneous pieces h_i, so the
            # ideal is homogeneous though its generators are not
            degs = rng.sample(range(1, 4), rng.randint(2, 3))
            pieces = [draw(d, True) for d in degs]
            gens = [sum(pieces[1:k], pieces[0])
                    for k in range(1, len(pieces) + 1)]
            rng.shuffle(gens)
        else:
            gens = [draw(rng.randint(1, 3), True)
                    + draw(rng.randint(0, 2), True)
                    for _ in range(rng.randint(1, 2))]
        I = Ideal(spec, vars, gens)
        expected = ref_is_homogeneous_ideal(I)
        assert is_homogeneous_ideal(I) == expected
        if mixed:
            assert expected
            assert zero_set(I, spec, PROJECTIVE) == brute_zero_set(
                I, spec, PROJECTIVE)
        elif not expected:
            with pytest.raises(NonHomogeneousProjective):
                zero_set(I, spec, PROJECTIVE)

    check()


def test_gb_cache_seeding_consistency():
    """Intersections seed the degrevlex cache; the cached basis matches a
    fresh computation from the generators."""
    I = ideal(["X^2 + Y", "X*Y"], spec=F3)
    J = ideal(["Y^2"], spec=F3)
    M = ideal_intersect(I, J)
    seeded = M.gb().gens
    fresh = Ideal(F3, XY, M.gens).gb().gens
    assert seeded == fresh


def reference_quotient(I, J):
    """I : J as the fold of (I cap <g>) / g over J's generators: the
    intersect-and-divide route, kept here as the reference."""
    result = None
    for g in J.gens:
        if g.is_zero:
            continue
        meet = ideal_intersect(I, Ideal(I.spec, I.vars, (g,)))
        part = Ideal(I.spec, I.vars,
                     tuple(divide_exact(w, g) for w in meet.gens))
        result = part if result is None else ideal_intersect(result, part)
    return result


def reference_saturate(I, J):
    prev, rounds = I, 0
    while True:
        nxt = reference_quotient(prev, J)
        rounds += 1
        if nxt.equals(prev):
            return nxt.gb().gens, rounds
        prev = nxt


def test_quotient_by_variable_power_matches_reference():
    """Random homogeneous I and divisor c*X_j^k: ideal_quotient and
    ideal_saturate agree with the intersect-and-divide fold, the
    quotient satisfies (I : J) J in I and I in I : J, and normal forms
    are idempotent."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.sampled_from([F2, F3, F4]),
           st.integers(2, 4), st.integers(1, 4))
    def check(rng, spec, n, k):
        vars = tuple(f"X{i}" for i in range(n))
        I = Ideal(spec, vars, [
            random_poly(rng, spec, vars, rng.randint(1, 3), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))])
        j = rng.randrange(n)
        exps = tuple(k if i == j else 0 for i in range(n))
        coef = rng.choice(enumerate_field(spec)[1:])
        J = Ideal(spec, vars, [Polynomial(spec, vars, {exps: coef})])

        Q = ideal_quotient(I, J)
        assert Q.gb().gens == reference_quotient(I, J).gb().gens
        assert all(I.contains(q * g) for q in Q.gens for g in J.gens)
        assert all(Q.contains(f) for f in I.gens)

        m = Ideal(spec, vars, [Polynomial.variable(spec, vars, v)
                               for v in vars])
        S, rounds = ideal_saturate(I, m)
        assert (S.gb().gens, rounds) == reference_saturate(I, m)

        f = random_poly(rng, spec, vars, 4, 6, homogeneous=False)
        r = normal_form(f, I.gb())
        assert normal_form(r, I.gb()) == r
        assert I.contains(f - r)

    check()


def test_saturation_by_variable_powers_matches_reference():
    """Random homogeneous I, with and without Gamma_q^*, saturated by the
    irrelevant ideal, by a proper subset of the variables and by mixed
    powers c*X_j^k: basis and round count agree with the loop of
    intersect-and-divide quotients."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from nullkit.nullstellensatz import NullConfig, gamma_q_star

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.sampled_from([F2, F3, F4]),
           st.integers(2, 4), st.booleans(),
           st.sampled_from(["irrelevant", "subset", "mixed"]))
    def check(rng, spec, n, gamma, shape):
        vars = tuple(f"X{i}" for i in range(n))
        I = Ideal(spec, vars, [
            random_poly(rng, spec, vars, rng.randint(1, 4), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))])
        if gamma:
            I = ideal_sum(I, gamma_q_star(NullConfig(spec, spec, vars)))
        if shape == "irrelevant":
            powers = [(j, 1) for j in range(n)]
        elif shape == "subset":
            powers = [(j, 1) for j in rng.sample(range(n), n - 1)]
        else:
            powers = [(rng.randrange(n), rng.randint(1, 3))
                      for _ in range(rng.randint(1, n + 1))]
        units = enumerate_field(spec)[1:]
        J = Ideal(spec, vars, [Polynomial(spec, vars, {
            tuple(k if i == j else 0 for i in range(n)): rng.choice(units)})
            for j, k in powers])

        S, rounds = ideal_saturate(I, J)
        assert S.gens == S.gb().gens
        assert (S.gb().gens, rounds) == reference_saturate(I, J)

    check()


def test_saturation_rounds_with_t_leading_rows_over_gf9():
    """Divisors t*X0 and t*X1 over GF(9) = GF(3)[t]/(t^2 + 1) hand the
    round count rows that lead with t, each scaled by 1/t = 2*t, whose
    encoding 6 is 0 when read as an integer modulo 3."""
    F9 = make_field(3, 2)
    vars = ("X0", "X1")
    I = Ideal.from_strings(F9, vars, ["t*X0^2*X1 + X0*X1^2", "t*X0^3"])
    J = Ideal.from_strings(F9, vars, ["t*X0", "t*X1"])
    S, rounds = ideal_saturate(I, J)
    assert S.equals(Ideal.from_strings(F9, vars, ["X0"]))
    assert rounds == 4
    assert (S.gb().gens, rounds) == reference_saturate(I, J)


@pytest.mark.parametrize("I_gens, J_gens", [
    (["X0*X1^2", "X1^3 + X0^2*X1"], ["X0 + X1"]),
    (["X0^2*X1 + X1^2", "X0*X1^2"], ["X0", "X1"]),
], ids=["binomial-divisor", "inhomogeneous"])
def test_saturation_keeps_the_loop(monkeypatch, I_gens, J_gens):
    """Inputs outside the variable-power route take Rabinowitsch's parts
    and count their rounds from normal forms, with no quotient; basis
    and round count match the loop of quotients."""
    calls = count_calls(monkeypatch, "ideal_quotient")
    vars = ("X0", "X1")
    I = Ideal.from_strings(F3, vars, I_gens)
    J = Ideal.from_strings(F3, vars, J_gens)
    S, rounds = ideal_saturate(I, J)
    assert (S.gb().gens, rounds) == reference_saturate(I, J)
    assert calls == []
    assert rounds >= 2


def test_general_saturation_matches_reference(monkeypatch):
    """I built from multiples of the divisors, made non-homogeneous in
    half the examples by adding X0 to its first generator, saturated by
    a binomial c*X_a + c'*X_b^k alone or mixed with single terms: basis
    and round count agree with the loop of intersect-and-divide
    quotients, and ideal_saturate runs no ideal_quotient."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    calls = count_calls(monkeypatch, "ideal_quotient")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.sampled_from([F2, F3, F4]),
           st.integers(2, 3), st.sampled_from(["binomial", "mixed"]),
           st.booleans())
    def check(rng, spec, n, shape, homogeneous):
        vars = tuple(f"X{i}" for i in range(n))
        units = enumerate_field(spec)[1:]

        def term(j, k):
            return Polynomial(spec, vars, {
                tuple(k if i == j else 0 for i in range(n)):
                rng.choice(units)})

        a, b = rng.sample(range(n), 2)
        J_gens = [term(a, 1) + term(b, rng.randint(1, 2))]
        if shape == "mixed":
            J_gens += [term(rng.randrange(n), rng.randint(1, 2))
                       for _ in range(n - 1)]
        gens = [random_poly(rng, spec, vars, rng.randint(1, 2),
                            rng.randint(1, 3))
                * rng.choice(J_gens) ** rng.randint(0, 2)
                for _ in range(rng.randint(1, 3))]
        if not homogeneous:
            gens[0] = gens[0] + Polynomial.variable(spec, vars, "X0")
        I, J = Ideal(spec, vars, gens), Ideal(spec, vars, J_gens)
        S, rounds = ideal_saturate(I, J)
        assert calls == []
        assert (S.gb().gens, rounds) == reference_saturate(I, J)

    check()


def test_degree_83_saturation_runs_no_quotient(monkeypatch):
    """X0^40*X1 + X2^41 over P^2(GF(3)) needs 43 saturation rounds; the
    variable-power route counts them without running a quotient."""
    from nullkit.nullstellensatz import NullConfig, projective_vanishing

    vars = ("X0", "X1", "X2")
    I = Ideal.from_strings(F3, vars, ["X0^40*X1 + X2^41"])
    cfg = NullConfig(F3, F3, vars)
    colon, _ = projective_vanishing(I, cfg, method="colon")
    calls = count_calls(monkeypatch, "ideal_quotient")
    result, report = projective_vanishing(I, cfg, method="saturation")
    assert report.quotient_rounds == 43
    assert result.gens == colon.gens
    assert calls == []


def test_colon_intersection_budget(monkeypatch):
    """The colon of <X0*X1 + X2^2> over P^2(GF(2)) intersects only to
    fold its three parts; no part needs an intersection of its own."""
    from nullkit.nullstellensatz import NullConfig, projective_vanishing

    calls = count_calls(monkeypatch, "ideal_intersect")
    vars = ("X0", "X1", "X2")
    I = Ideal.from_strings(F2, vars, ["X0*X1 + X2^2"])
    result, _ = projective_vanishing(
        I, NullConfig(F2, F2, vars), method="colon")
    assert [str(g) for g in result.gens] == [
        "X1*X2 + X2^2", "X0*X2 + X2^2", "X0*X1 + X2^2"]
    assert len(calls) <= 2


@pytest.mark.parametrize("k", [-1, 2, 5])
def test_eliminate_refuses_k_outside_the_ring(k):
    """k = 0 returns I; k must leave at least one variable."""
    I = ideal(["X*Y"])
    assert eliminate(I, 0) is I
    with pytest.raises(ValueError,
                       match=f"^cannot eliminate {k} of 2 variables$"):
        eliminate(I, k)


@pytest.mark.parametrize("q, form, rounds", [
    (11, "X0^2 + 3*X1^2 - 5*X2^2", 12),
    (7, "X0^2 + X1^2 + X2^2", 8),
], ids=["conic-gf11", "conic-gf7"])
def test_saturation_skips_parts_by_a_power_of_the_variable(
        monkeypatch, q, form, rounds):
    """Saturating J = <conic> + Gamma_q^* by the irrelevant ideal runs
    one Buchberger run, J's degrevlex basis: X_j^K * r in J, K the top
    degree of J.gb(), puts each generator r of the first part in
    J : X_j^infinity, so no permuted-order part is built.  X_j * r
    alone rarely lies in J."""
    from nullkit import ideals
    from nullkit.groebner import DEGREVLEX
    from nullkit.nullstellensatz import (
        gamma_q_star,
        irrelevant_ideal,
        projective_vanishing,
    )

    Fq, vars = make_field(q), ("X0", "X1", "X2")
    cfg = NullConfig(Fq, Fq, vars)
    I = Ideal.from_strings(Fq, vars, [form])
    colon, _ = projective_vanishing(I, cfg, method="colon")
    runs, real = [], ideals.buchberger

    def recording(gens, order=DEGREVLEX, **kwargs):
        runs.append(order)
        return real(gens, order, **kwargs)

    monkeypatch.setattr(ideals, "buchberger", recording)
    J = ideal_sum(I, gamma_q_star(cfg))
    S, n = ideal_saturate(J, irrelevant_ideal(Fq, vars))
    assert runs == [DEGREVLEX]
    assert n == rounds
    assert S.gb().gens == colon.gb().gens
