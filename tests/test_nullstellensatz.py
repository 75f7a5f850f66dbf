"""Closed vanishing-ideal formulas, emptiness dichotomy and certificates.

Expected values used here were frozen from the point-enumeration oracle
and brute-force evaluation before the formula paths were written.
"""

import itertools

import pytest

from nullkit.errors import (
    DimensionMismatch,
    EmptyVariety,
    FieldMismatch,
    NonHomogeneousGenerator,
    NotInVanishingIdeal,
    NullkitError,
    RingMismatch,
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
    make_certificates,
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


@pytest.mark.parametrize("spec", [F2, F4, make_field(3, 2)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3], ids=lambda n: f"P{n}")
def test_gamma_ideals_equal_their_power_formulas(spec, n):
    """Gamma_q, Gamma_q^* and the power ideal, built from exponent
    tuples, have the generators of X_i^q - X_i, X_i^q X_j - X_j^q X_i
    and X_i^d written as products of powers of variables."""
    vars = tuple(f"X{i}" for i in range(n + 1))
    cfg = NullConfig(spec, spec, vars)
    q = spec.q
    x = [Polynomial.variable(spec, vars, v) for v in vars]
    assert gamma_q(cfg).gens == tuple(xi ** q - xi for xi in x)
    assert gamma_q_star(cfg).gens == tuple(
        x[i] ** q * x[j] - x[j] ** q * x[i]
        for i in range(n + 1) for j in range(i + 1, n + 1))
    for d in (0, 1, q + 1):
        assert power_ideal(spec, vars, d).gens == tuple(
            xi ** d for xi in x)


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


def test_make_certificates_refuses_an_index_outside_the_ring():
    cfg = NullConfig(F2, F2, P1)
    I = Ideal.from_strings(F2, P1, ["X0"])
    with pytest.raises(DimensionMismatch, match=r"^index 2 outside 0\.\.1$"):
        make_certificates(I, [0, 2], cfg)


def test_repeated_indices_give_one_certificate_each():
    """Both certificate builders return one certificate per entry of
    indices, in order, a repeated index included."""
    cfg = NullConfig(F2, F2, P1)
    I = Ideal.from_strings(F2, P1, ["X0"])
    f = parse_polynomial("X0", P1, F2)
    assert [c.j for c in make_certificates(I, [1, 1], cfg)] == [1, 1]
    assert [c.j for c in certify_membership(f, I, cfg, [1, 1])] == [1, 1]
    assert [c.j for c in certify_membership(f, I, cfg, [1, 0])] == [1, 0]


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
    the evaluation at the points off V catches it.  Index 0 is checked
    in the same pass and passes, so each error names index 1."""
    cfg = NullConfig(F3, F3, P2)
    I = Ideal.from_strings(F3, P2, ["X0*X1 + X2^2"])
    V = zero_set(I, F3, PROJECTIVE)
    d = degree_bound(I, 3)
    parts = _certificate_parts(I, d, cfg, [0, 1])
    _verify_certificate(I, d, parts, V, cfg)
    g, l = parts[1]
    e, c = l.sorted_terms()[0]
    bumped = Polynomial(F3, P2, {**l.terms, e: c + F3.one})
    with pytest.raises(NullkitError, match="j=1 does not sum"):
        _verify_certificate(I, d, {**parts, 1: (g, bumped)}, V, cfg)
    shift = I.gens[0] * parse_polynomial("X1^3", P2, F3)
    with pytest.raises(NullkitError, match="l_1 does not vanish at"):
        _verify_certificate(I, d, {**parts, 1: (g + shift, l - shift)}, V,
                            cfg)


def test_altered_splits_fail_the_degree_and_membership_checks():
    """Moving a constant from l to g keeps the split but leaves g
    inhomogeneous; moving X0^d, which lies outside I, keeps g
    homogeneous of degree d but takes it out of I."""
    cfg = NullConfig(F3, F3, P2)
    I = Ideal.from_strings(F3, P2, ["X0*X1 + X2^2"])
    V = zero_set(I, F3, PROJECTIVE)
    d = degree_bound(I, 3)
    parts = _certificate_parts(I, d, cfg, [0, 1])
    g, l = parts[1]
    for moved, message in [
            ("1", f"^g_1 is not homogeneous of degree {d}$"),
            (f"X0^{d}", "^g_1 fell outside the input ideal$")]:
        m = parse_polynomial(moved, P2, F3)
        assert not I.contains(m)
        with pytest.raises(NullkitError, match=message):
            _verify_certificate(I, d, {**parts, 1: (g + m, l - m)}, V, cfg)


def test_an_ideal_from_another_ring_is_refused():
    I = Ideal.from_strings(F3, P2, ["X0"])
    with pytest.raises(RingMismatch,
                       match=r"^<X0> does not live in GF\(2\)\[X0,X1,X2\]$"):
        projective_vanishing(I, NullConfig(F2, F2, P2))


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


def test_certify_membership_expands_each_power_once(monkeypatch):
    """All indices share one expansion of each h_i^(q-1) and one table
    of P^n: the multi-term powers taken number the generators, and one
    space_table is built."""
    from helpers import count_calls
    from nullkit import nullstellensatz

    powers = count_calls(monkeypatch, "__pow__", module=Polynomial)
    tables = count_calls(monkeypatch, "space_table", module=nullstellensatz)
    cfg = NullConfig(F3, F3, P2)
    I = Ideal.from_strings(F3, P2, ["X0*X1 + X2^2", "X0*X2 + X1*X2"])
    f = parse_polynomial("X0*X2 + X1*X2", P2, F3)
    assert [c.j for c in certify_membership(f, I, cfg)] == [0, 1, 2]
    assert sum(len(base.terms) > 1 for base, _ in powers) == len(I.gens)
    assert len(tables) == 1


def _formula_certificate(I, j, d, cfg):
    """g_j = X_j^d - X_j prod_i (X_j^{d_i(q-1)} - h_i^{q-1}) and
    l_j = X_j^d - g_j, every power expanded by repeated multiplication."""
    spec, vars, q = cfg.k_spec, cfg.vars, cfg.q
    one = Polynomial.constant(spec, vars, 1)

    def power(f, k):
        out = one
        for _ in range(k):
            out = out * f
        return out

    xj = Polynomial.variable(spec, vars, vars[j])
    prod = one
    for h in I.gens:
        prod = prod * (power(xj, h.total_degree() * (q - 1))
                       - power(h, q - 1))
    head = power(xj, d)
    g = head - xj * prod
    return g, head - g


def test_shared_certificates_match_single_index_and_formula():
    """On random homogeneous inputs in P^1 and P^2 over GF(2), GF(3)
    and GF(4), the certificates certify_membership builds for all
    indices at once equal make_certificate's for each index and the
    paper's formula expanded by repeated multiplication."""
    pytest.importorskip("hypothesis")
    import random

    from hypothesis import HealthCheck, assume, given, settings
    from hypothesis import strategies as st

    from helpers import random_poly

    rings = [(spec, vars) for vars in (P1, P2) for spec in (F2, F3, F4)]

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.sampled_from(rings), st.integers(0, 2 ** 32))
    def check(ring, seed):
        spec, vars = ring
        rng = random.Random(seed)
        gens = [random_poly(rng, spec, vars, rng.randint(1, 2),
                            rng.randint(1, 3))
                for _ in range(rng.randint(1, 2))]
        assume(all(gens))
        I = Ideal(spec, vars, gens)
        assume(zero_set(I, spec, PROJECTIVE).points)
        f = gens[0] * random_poly(rng, spec, vars, 1, 2)
        assume(f)
        cfg = cfg_for(spec, vars)
        certs = certify_membership(f, I, cfg)
        assert [c.j for c in certs] == list(range(len(vars)))
        for c in certs:
            single = make_certificate(I, c.j, cfg)
            assert (single.g, single.l) == (c.g, c.l)
            assert _formula_certificate(I, c.j, c.d, cfg) == (c.g, c.l)

    check()


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


def test_projective_vanishing_refuses_an_unknown_method():
    I = Ideal.from_strings(F2, P2, ["X0"])
    with pytest.raises(ValueError) as exc:
        projective_vanishing(I, cfg_for(F2, P2), "bogus")
    assert str(exc.value) == f"method must be one of {METHODS}"
