"""Closed vanishing-ideal formulas, emptiness dichotomy and certificates.

Expected values used here were frozen from the point-enumeration oracle
and brute-force evaluation before the formula paths were written.
"""

import itertools

import pytest

from nullkit.errors import (
    EmptyVariety,
    FieldMismatch,
    NonHomogeneousGenerator,
    NotInVanishingIdeal,
    NullkitError,
    SizeOverflow,
    ZeroGeneratorCount,
)
from nullkit.field import enumerate_field, make_field
from nullkit.groebner import normal_form
from nullkit.ideals import Ideal, ideal_saturate, ideal_sum, reduced
from nullkit.nullstellensatz import (
    CERTIFICATE_LIMIT,
    EMPTY_IRRELEVANT,
    EMPTY_UNIT,
    METHODS,
    NONEMPTY,
    NullConfig,
    _certificate_parts,
    _verify_certificate,
    affine_vanishing,
    certificate_degree,
    certify_membership,
    classify_empty,
    degree_bound,
    gamma_q,
    gamma_q_star,
    irrelevant_ideal,
    make_certificate,
    power_ideal,
    projective_vanishing,
)
from nullkit.poly import Polynomial, parse_polynomial
from nullkit.varieties import AFFINE, PROJECTIVE, oracle_vanishing_ideal, zero_set

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
P1 = ("X0", "X1")
P2 = ("X0", "X1", "X2")


def cfg_for(spec, vars):
    return NullConfig(spec, vars=vars, K_spec=spec)


def test_gamma_shapes():
    cfg = NullConfig(F3, F3, ("X", "Y"))
    G = gamma_q(cfg)
    assert [g.to_string() for g in G.gens] == ["X^3 + 2*X", "Y^3 + 2*Y"]
    cfg2 = NullConfig(F2, F2, P2)
    Gs = gamma_q_star(cfg2)
    assert [g.to_string() for g in Gs.gens] == [
        "X0^2*X1 + X0*X1^2",
        "X0^2*X2 + X0*X2^2",
        "X1^2*X2 + X1*X2^2",
    ]
    assert [g.to_string() for g in irrelevant_ideal(F2, P1).gens] == \
        ["X0", "X1"]
    assert [g.to_string() for g in power_ideal(F2, P1, 3).gens] == \
        ["X0^3", "X1^3"]


def test_gamma_star_cuts_out_rational_points():
    """Gamma_q^* vanishes exactly on the K-rational projective points."""
    cfg = NullConfig(F4, F2, P1)
    Gs = gamma_q_star(cfg)
    for coords in itertools.product(enumerate_field(F4), repeat=2):
        if not any(c.idx for c in coords):
            continue
        vanishes = all(not g.evaluate(coords) for g in Gs.gens)
        # rational iff the ratio lies in GF(2): coords proportional to a
        # GF(2) vector
        a, b = coords
        if a.idx:
            ratio = b / a
            rational = ratio.idx in (0, 1)
        else:
            rational = True
        assert vanishes == rational


def test_affine_formula_matches_oracle_exhaustive_gf2():
    """All principal ideals with generator degree <= 1 plus a quadratic
    sample; the full degree <= 2 sweep lives in the acceptance tests."""
    vars = ("X", "Y")
    cfg = NullConfig(F2, F2, vars)
    gens = ["X", "Y", "X + 1", "X + Y", "X + Y + 1", "X*Y", "X*Y + 1",
            "X^2 + Y", "X^2 + X"]
    for s in gens:
        I = Ideal.from_strings(F2, vars, [s])
        V = zero_set(I, F2, AFFINE)
        got = affine_vanishing(I, cfg)
        if not V.points:
            assert got.gb().is_unit
            continue
        want = oracle_vanishing_ideal(V, spec=F2, vars=vars)
        assert got.gb().gens == reduced(want).gb().gens


def test_affine_formula_gf3():
    vars = ("X", "Y")
    cfg = NullConfig(F3, F3, vars)
    I = Ideal.from_strings(F3, vars, ["X - 1"])
    got = affine_vanishing(I, cfg)
    want = oracle_vanishing_ideal(zero_set(I, F3, AFFINE),
                                  spec=F3, vars=vars)
    assert got.equals(want)


def test_affine_result_is_radical():
    vars = ("X", "Y")
    cfg = NullConfig(F2, F2, vars)
    J = affine_vanishing(Ideal.from_strings(F2, vars, ["X^2"]), cfg)
    # squares drop back into the ideal
    for s in ["X", "X + Y^2", "X*Y"]:
        f = parse_polynomial(s, vars, F2)
        assert J.contains(f * f) == J.contains(f)


def test_affine_folds_exponents_below_q():
    """Folding each exponent e >= 1 to ((e - 1) mod (q - 1)) + 1 leaves
    I + Gamma_q unchanged: on inputs with exponents below 64, the basis
    equals that of I + Gamma_q taken without folding."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    vars = ("X", "Y")
    F5 = make_field(5)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([F2, F3, F4, F5]),
           st.randoms(use_true_random=False))
    def check(spec, rng):
        elements = enumerate_field(spec)
        gens = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = (rng.randrange(64), rng.randrange(64))
                if sum(exps) <= 60:
                    terms[exps] = rng.choice(elements)
            gens.append(Polynomial(spec, vars, terms))
        I = Ideal(spec, vars, gens)
        cfg = cfg_for(spec, vars)
        unfolded = reduced(ideal_sum(I, gamma_q(cfg)))
        assert affine_vanishing(I, cfg).gb().gens == unfolded.gb().gens

    check()


def test_empty_affine_gives_unit():
    vars = ("X",)
    cfg = NullConfig(F2, F2, vars)
    I = Ideal.from_strings(F2, vars, ["X^2 + X + 1"])
    assert affine_vanishing(I, cfg).gb().is_unit


def test_degree_bound():
    cfg = NullConfig(F2, F2, P1)
    assert degree_bound(Ideal.from_strings(F2, P1, ["X0"]), 2) == 2
    assert degree_bound(Ideal.from_strings(F2, P1, []), 2) == 1
    assert degree_bound(
        Ideal.from_strings(F2, P1, ["X0^2", "X0*X1"]), 2) == 5
    assert degree_bound(Ideal.from_strings(F3, P1, ["X0^2"]), 3) == 5
    with pytest.raises(NonHomogeneousGenerator):
        degree_bound(Ideal.from_strings(F2, P1, ["X0 + 1"]), 2)


def test_worked_example_colon():
    cfg = NullConfig(F2, F2, P1)
    I = Ideal.from_strings(F2, P1, ["X0"])
    result, report = projective_vanishing(I, cfg, "colon")
    assert [g.to_string() for g in result.gb().gens] == ["X0"]
    assert report.degree_bound == 2
    assert report.quotient_rounds == 1
    assert report.gb_size == 1


def test_three_methods_agree_on_samples():
    cases = [
        (F2, P1, ["X0"]),
        (F2, P1, []),
        (F2, P2, ["X0*X1"]),
        (F2, P2, ["X0^2"]),
        (F2, P2, ["X0*X1 + X2^2"]),
        (F3, P1, ["X0^2 + X1^2"]),
        (F3, P2, ["X0*X1 + 2*X2^2"]),
    ]
    for spec, vars, gens in cases:
        if spec is F3 and gens == ["X0^2 + X1^2"]:
            # empty over GF(3); covered by the dichotomy test
            continue
        cfg = NullConfig(spec, spec, vars)
        I = Ideal.from_strings(spec, vars, gens)
        outs = []
        for method in METHODS:
            result, report = projective_vanishing(I, cfg, method)
            outs.append(result.gb().gens)
            if method == "colon":
                assert report.quotient_rounds == 1
        assert outs[0] == outs[1] == outs[2]


def test_projective_result_is_saturated():
    cfg = NullConfig(F2, F2, P2)
    I = Ideal.from_strings(F2, P2, ["X0^2"])
    result, _ = projective_vanishing(I, cfg, "colon")
    S, rounds = ideal_saturate(result, irrelevant_ideal(F2, P2))
    assert rounds == 1 and S.equals(result)


def test_saturation_needs_two_rounds_on_nonsaturated_input():
    cfg = NullConfig(F2, F2, P2)
    I = Ideal.from_strings(F2, P2, ["X0^2"])
    _, report = projective_vanishing(I, cfg, "saturation")
    assert report.quotient_rounds >= 2


def test_tower_mode_matches_base_mode():
    """Coefficients in GF(4), points in GF(2): same reduced basis as the
    GF(2) computation lifted."""
    cfg_tower = NullConfig(F4, F2, P1)
    cfg_base = NullConfig(F2, F2, P1)
    I4 = Ideal.from_strings(F4, P1, ["X0"])
    I2 = Ideal.from_strings(F2, P1, ["X0"])
    for method in ("colon", "saturation", "oracle"):
        r4, _ = projective_vanishing(I4, cfg_tower, method)
        r2, _ = projective_vanishing(I2, cfg_base, method)
        assert [g.to_string() for g in r4.gb().gens] == \
            [g.to_string() for g in r2.gb().gens]


def test_tower_mode_rejects_mixed_coefficients():
    cfg = NullConfig(F4, F2, P1)
    I = Ideal.from_strings(F4, P1, ["(t)*X0"])
    with pytest.raises(FieldMismatch):
        projective_vanishing(I, cfg, "colon")
    with pytest.raises(FieldMismatch):
        affine_vanishing(Ideal.from_strings(F4, P1, ["X0 + (t)*X1"]), cfg)


def test_empty_dichotomy():
    cfg = NullConfig(F2, F2, P1)
    assert classify_empty(Ideal.from_strings(F2, P1, ["1"]), cfg) == \
        EMPTY_UNIT
    assert classify_empty(
        Ideal.from_strings(F2, P1, ["X0 + X1", "X0"]), cfg) == \
        EMPTY_IRRELEVANT
    assert classify_empty(
        Ideal.from_strings(F2, P1, ["X0^2 + X0*X1 + X1^2"]), cfg) == \
        EMPTY_IRRELEVANT
    cfg3 = NullConfig(F3, F3, P1)
    assert classify_empty(
        Ideal.from_strings(F3, P1, ["X0^2 + X1^2"]), cfg3) == \
        EMPTY_IRRELEVANT
    # a nonempty zero set reports as such; the ClassificationFailure
    # branch is the theorem-violation alarm and must stay unreachable
    assert classify_empty(Ideal.from_strings(F2, P1, ["X0"]), cfg) == \
        NONEMPTY


def test_projective_empty_raises():
    cfg = NullConfig(F2, F2, P1)
    I = Ideal.from_strings(F2, P1, ["X0^2 + X0*X1 + X1^2"])
    with pytest.raises(EmptyVariety):
        projective_vanishing(I, cfg, "colon")


def test_worked_example_certificates():
    cfg = NullConfig(F2, F2, P1)
    I = Ideal.from_strings(F2, P1, ["X0"])
    c0 = make_certificate(I, 0, cfg)
    assert c0.d == 2
    assert c0.g.to_string() == "X0^2"
    assert c0.l.to_string() == "0"
    c1 = make_certificate(I, 1, cfg)
    assert c1.g.to_string() == "X0*X1"
    assert c1.l.to_string() == "X0*X1 + X1^2"
    assert (c1.g + c1.l).to_string() == "X1^2"


def test_certificate_properties_across_sample():
    cases = [
        (F2, P1, ["X0"]),
        (F2, P2, ["X0*X1"]),
        (F2, P2, ["X0^2", "X1*X2"]),
        (F3, P1, ["X0"]),
    ]
    for spec, vars, gens in cases:
        cfg = NullConfig(spec, spec, vars)
        I = Ideal.from_strings(spec, vars, gens)
        V = zero_set(I, spec, PROJECTIVE)
        d = degree_bound(I, spec.q)
        for j in range(len(vars)):
            c = make_certificate(I, j, cfg)
            xj = Polynomial.variable(spec, vars, vars[j])
            assert c.g + c.l == xj ** d
            assert I.contains(c.g)
            assert c.g.is_homogeneous
            # g carries X_j^d on V's complement, l carries it on V
            space = zero_set(Ideal(spec, vars, []), spec, PROJECTIVE)
            on_v = set(V.points)
            for p in space.points:
                if p in on_v:
                    assert not c.g.evaluate(p.coords)
                    assert c.l.evaluate(p.coords) == \
                        (xj ** d).evaluate(p.coords)
                else:
                    assert not c.l.evaluate(p.coords)
                    assert c.g.evaluate(p.coords) == \
                        (xj ** d).evaluate(p.coords)


def test_certify_membership_identity():
    cfg = NullConfig(F2, F2, P1)
    I = Ideal.from_strings(F2, P1, ["X0"])
    f = parse_polynomial("X0", P1, F2)
    certs = certify_membership(f, I, cfg)
    Gs = gamma_q_star(cfg)
    for c in certs:
        xj = Polynomial.variable(F2, P1, P1[c.j])
        assert xj ** c.d * f == c.g_times_f + c.l_times_f
        assert I.contains(c.g_times_f)
        assert Gs.contains(c.l_times_f)


def test_certify_rejects_nonmembers():
    cfg = NullConfig(F2, F2, P1)
    I = Ideal.from_strings(F2, P1, ["X0"])
    with pytest.raises(NotInVanishingIdeal):
        certify_membership(parse_polynomial("X1", P1, F2), I, cfg)
    with pytest.raises(NonHomogeneousGenerator):
        certify_membership(parse_polynomial("X0 + 1", P1, F2), I, cfg)


def test_certify_degenerate_zero_generators():
    """r = 0: d = 1, g = 0, l = X_j; members of Gamma_q^* still certify."""
    cfg = NullConfig(F2, F2, P1)
    Z = Ideal(F2, P1, [])
    with pytest.raises(ZeroGeneratorCount):
        make_certificate(Z, 0, cfg)
    f = parse_polynomial("X0^2*X1 + X0*X1^2", P1, F2)
    certs = certify_membership(f, Z, cfg)
    for c in certs:
        assert c.d == 1
        assert c.g.is_zero
        assert c.l == Polynomial.variable(F2, P1, P1[c.j])
    with pytest.raises(ZeroGeneratorCount):
        certify_membership(f, Ideal.from_strings(F2, P1, ["0"]), cfg)


def test_altered_certificate_is_refused():
    """One changed coefficient breaks the split; moving a multiple of
    the generator from l to g keeps the split and g inside I, and only
    the evaluation at the points off V catches it."""
    cfg = NullConfig(F3, F3, P2)
    I = Ideal.from_strings(F3, P2, ["X0*X1 + X2^2"])
    V = zero_set(I, F3, PROJECTIVE)
    d = degree_bound(I, 3)
    g, l = _certificate_parts(I, 1, d, cfg)
    _verify_certificate(I, 1, d, g, l, V, cfg)
    e, c = l.sorted_terms()[0]
    bumped = Polynomial(F3, P2, {**l.terms, e: c + F3.one})
    with pytest.raises(NullkitError, match="does not sum"):
        _verify_certificate(I, 1, d, g, bumped, V, cfg)
    shift = I.gens[0] * parse_polynomial("X1^3", P2, F3)
    with pytest.raises(NullkitError, match="l_1 does not vanish at"):
        _verify_certificate(I, 1, d, g + shift, l - shift, V, cfg)


def test_certify_membership_enumerates_once(monkeypatch):
    """The membership decision and the certificate checks read one
    zero set."""
    from helpers import count_calls
    from nullkit import nullstellensatz

    calls = count_calls(monkeypatch, "zero_set", module=nullstellensatz)
    cfg = NullConfig(F3, F3, P2)
    I = Ideal.from_strings(F3, P2, ["X0*X1 + X2^2"])
    f = parse_polynomial("X0*X2 + X1*X2", P2, F3)
    assert [c.j for c in certify_membership(f, I, cfg)] == [0, 1, 2]
    assert len(calls) == 1


def test_refused_certify_enumerates_once(monkeypatch):
    """A refused f reads the zero set once: the colon for its message
    runs on the V already known to be nonempty."""
    from helpers import count_calls
    from nullkit import nullstellensatz

    calls = count_calls(monkeypatch, "zero_set", module=nullstellensatz)
    vars = ("X1", "X2")
    I = Ideal.from_strings(F2, vars, ["X1"])
    with pytest.raises(NotInVanishingIdeal) as exc:
        certify_membership(parse_polynomial("X2", vars, F2), I,
                           cfg_for(F2, vars))
    assert str(exc.value) == "X2 is not in <X1>"
    assert len(calls) == 1


def test_certify_membership_runs_no_colon(monkeypatch):
    """A member is recognised on the zero set; no quotient is taken."""
    from helpers import count_calls
    from nullkit import nullstellensatz

    calls = count_calls(monkeypatch, "ideal_quotient",
                        module=nullstellensatz)
    cfg = NullConfig(F3, F3, P2)
    I = Ideal.from_strings(F3, P2, ["X0*X1 + X2^2"])
    f = parse_polynomial("X0*X2 + X1*X2", P2, F3)
    assert [c.j for c in certify_membership(f, I, cfg)] == [0, 1, 2]
    assert len(calls) == 0


def test_vanishing_on_the_zero_set_is_colon_membership():
    """A form vanishes at every point of V exactly when the colon result
    contains it: the fact certify_membership decides membership by,
    checked here by pointwise evaluation against normal forms.  The
    first generator is squared half the time, and half the forms are
    multiples of the oracle's basis elements, so members outside
    I + Gamma_q^* are drawn too."""
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st
    from helpers import random_poly

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.sampled_from([F2, F3, F4]),
           st.sampled_from([P1, P2]), st.booleans())
    def check(rng, spec, vars, member):
        gens = [
            random_poly(rng, spec, vars, rng.randint(1, 2), rng.randint(1, 3))
            for _ in range(rng.randint(1, 2))]
        gens[0] = gens[0] ** rng.randint(1, 2)
        I = Ideal(spec, vars, gens)
        assume(not I.is_zero)
        V = zero_set(I, spec, PROJECTIVE)
        assume(V.points)
        f = random_poly(rng, spec, vars, rng.randint(0, 2), rng.randint(1, 3))
        if member:
            oracle = oracle_vanishing_ideal(V, spec=spec, vars=vars)
            f = f * rng.choice(oracle.gens)
        vanishes = not any(f.evaluate(p.coords) for p in V.points)
        colon, _ = projective_vanishing(I, cfg_for(spec, vars))
        assert vanishes == colon.contains(f)
        if member:
            assert vanishes

    check()


def test_certificate_size_limit():
    """C(d+n, n) past the limit is refused before anything is built, by
    make_certificate and certify_membership alike; in P^0 d itself is
    bounded."""
    cfg = NullConfig(F3, F3, P2)
    I = Ideal.from_strings(F3, P2, ["X0^50"])  # d = 101: 5,253 terms
    assert certificate_degree(I, cfg) == 101
    I = Ideal.from_strings(F3, P2, ["X0^100"])  # d = 201: 20,503 terms
    with pytest.raises(SizeOverflow):
        make_certificate(I, 0, cfg)
    with pytest.raises(SizeOverflow):
        certify_membership(parse_polynomial("X0", P2, F3), I, cfg)
    P0 = ("X0",)
    big = Ideal.from_strings(F3, P0, [f"X0^{CERTIFICATE_LIMIT}"])
    with pytest.raises(SizeOverflow):
        certificate_degree(big, NullConfig(F3, F3, P0))
