"""Point enumeration, point tables, zero sets and the oracle."""

import itertools
import random

import pytest

from nullkit.errors import (
    EmptyVariety,
    FieldMismatch,
    NonHomogeneousProjective,
    SizeOverflow,
)
from nullkit.field import enumerate_field, make_field, parse_field_literal
from nullkit.ideals import Ideal, reduced
from nullkit.poly import Polynomial, parse_polynomial
from nullkit.varieties import (
    AFFINE,
    PROJECTIVE,
    AffinePoint,
    PointTable,
    Variety,
    enumerate_space,
    oracle_vanishing_ideal,
    point_ideal,
    space_table,
    zero_set,
)

from helpers import fold_vanishing_ideal, normalize

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


def test_space_sizes():
    for spec in (F2, F3, F4):
        q = spec.q
        for n in (1, 2):
            assert len(enumerate_space(spec, n, AFFINE)) == q ** n
            assert len(enumerate_space(spec, n, PROJECTIVE)) == \
                (q ** (n + 1) - 1) // (q - 1)


def test_space_order_is_sorted():
    for kind in (AFFINE, PROJECTIVE):
        V = enumerate_space(F3, 2, kind)
        keys = [p.key for p in V.points]
        assert keys == sorted(keys)


def test_size_guard():
    with pytest.raises(SizeOverflow):
        enumerate_space(make_field(5), 9, AFFINE)


def test_projective_normalization():
    """All scalar multiples of a coordinate tuple normalize identically,
    to a point that enumerate_space lists."""
    points = set(enumerate_space(F4, 1, PROJECTIVE).points)
    for coords in itertools.product(enumerate_field(F4), repeat=2):
        if not any(c.idx for c in coords):
            continue
        base = normalize(coords)
        assert base in points
        for c in enumerate_field(F4):
            if not c.idx:
                continue
            scaled = tuple(c * x for x in coords)
            assert normalize(scaled) == base
        # first nonzero coordinate is one
        lead = next(x for x in base.coords if x.idx)
        assert lead == F4.one


def test_zero_set_matches_brute_force():
    vars = ("X", "Y")
    f = parse_polynomial("X^2 + Y^2 + 2", vars, F3)
    I = Ideal(F3, vars, [f])
    V = zero_set(I, F3, AFFINE)
    expected = {(a.idx, b.idx)
                for a in enumerate_field(F3) for b in enumerate_field(F3)
                if not f.evaluate((a, b))}
    assert {p.key for p in V.points} == expected


def test_zero_set_of_zero_ideal_is_everything():
    I = Ideal(F2, ("X", "Y"), [])
    assert len(zero_set(I, F2, AFFINE)) == 4
    assert len(zero_set(I, F2, PROJECTIVE)) == 3


def test_projective_zero_set_needs_homogeneous():
    vars = ("X", "Y")
    I = Ideal.from_strings(F2, vars, ["X + Y^2"])
    with pytest.raises(NonHomogeneousProjective):
        zero_set(I, F2, PROJECTIVE)
    # mixed generators spanning a homogeneous ideal are fine
    J = Ideal.from_strings(F2, vars, ["X + Y^2", "X"])
    assert len(zero_set(J, F2, PROJECTIVE)) == 0


def test_zero_set_over_larger_point_field():
    vars = ("X", "Y")
    I = Ideal.from_strings(F2, vars, ["X^2 + X"])
    # over GF(4) the same equation has more zeros than over GF(2)
    assert len(zero_set(I, F2, AFFINE)) == 4
    assert len(zero_set(I, F4, AFFINE)) == 8


def test_affine_point_ideal():
    V = enumerate_space(F3, 2, AFFINE)
    pt = V.points[5]
    I = point_ideal(pt)
    for other in V.points:
        vanishes = all(g.evaluate(other.coords).idx == 0 for g in I.gens)
        assert vanishes == (other == pt)


def test_projective_point_ideal():
    V = enumerate_space(F2, 2, PROJECTIVE)
    for pt in V.points:
        I = point_ideal(pt)
        for other in V.points:
            vanishes = all(g.evaluate(other.coords).idx == 0
                           for g in I.gens)
            assert vanishes == (other == pt)


def test_oracle_single_point():
    vars = ("X", "Y")
    I = Ideal.from_strings(F3, vars, ["X - 1", "Y - 2"])
    V = zero_set(I, F3, AFFINE)
    assert len(V) == 1
    got = oracle_vanishing_ideal(V, spec=F3, vars=vars)
    assert got.equals(Ideal.from_strings(F3, vars, ["X + 2", "Y + 1"]))


def test_oracle_full_line():
    vars = ("X",)
    V = enumerate_space(F2, 1, AFFINE)
    got = oracle_vanishing_ideal(V, spec=F2, vars=vars)
    assert got.equals(Ideal.from_strings(F2, vars, ["X^2 + X"]))


def test_oracle_empty_rejected():
    vars = ("X", "Y")
    I = Ideal.from_strings(F2, vars, ["X", "X + 1"])
    V = zero_set(I, F2, AFFINE)
    assert len(V) == 0
    with pytest.raises(EmptyVariety):
        oracle_vanishing_ideal(V, spec=F2, vars=vars)


def test_oracle_is_membership_exact():
    """f is in the oracle ideal iff f vanishes on every point."""
    vars = ("X", "Y")
    I = Ideal.from_strings(F2, vars, ["X*Y"])
    V = zero_set(I, F2, AFFINE)
    got = oracle_vanishing_ideal(V, spec=F2, vars=vars)
    monos = sorted(e for e in itertools.product(range(3), repeat=2)
                   if sum(e) <= 2)
    from nullkit.poly import Polynomial
    for coefs in itertools.product(enumerate_field(F2), repeat=len(monos)):
        f = Polynomial(F2, vars, {m: c for m, c in zip(monos, coefs) if c})
        vanishes = all(not f.evaluate(p.coords) for p in V.points)
        assert got.contains(f) == vanishes


def test_point_str_forms():
    A = enumerate_space(F2, 2, AFFINE)
    P = enumerate_space(F2, 1, PROJECTIVE)
    assert str(A.points[0]) == "(0,0)"
    assert [str(p) for p in P.points] == ["[0:1]", "[1:0]", "[1:1]"]


def test_space_table_is_the_sorted_product():
    """Columns built blockwise equal the sorted itertools enumeration."""
    for spec, n in ((F3, 3), (F4, 2), (F2, 0)):
        elems = range(spec.q)
        table = space_table(spec, n, PROJECTIVE)
        want = sorted(c for c in itertools.product(elems, repeat=n + 1)
                      if any(c) and c[next(i for i, a in enumerate(c)
                                           if a)] == 1)
        assert list(table.keys()) == want and table.size == len(want)
        table = space_table(spec, n, AFFINE)
        assert list(table.keys()) == list(itertools.product(elems, repeat=n))


def random_poly(rng, spec, vars, terms, max_exp):
    return Polynomial(spec, vars, {
        tuple(rng.randint(0, max_exp) for _ in vars):
            spec.element(rng.randrange(spec.q)) for _ in range(terms)})


@pytest.mark.parametrize("coeffs, points", [
    ("GF(2)", "GF(2)"), ("GF(3)", "GF(3)"), ("GF(4)", "GF(4)"),
    ("GF(9)", "GF(9)"), ("GF(251)", "GF(251)"),
    ("GF(4099)", "GF(4099)"), ("GF(67^2; m=t^2+1)", "GF(67^2; m=t^2+1)"),
    ("GF(4)", "GF(2)"), ("GF(2)", "GF(4)"), ("GF(67^2; m=t^2+1)", "GF(67)"),
], ids=["gf2", "gf3", "gf4", "gf9", "gf251", "untabled-gf4099",
        "untabled-gf67^2", "tower-gf4-over-gf2", "tower-gf2-in-gf4",
        "tower-untabled"])
def test_point_table_matches_evaluate(coeffs, points):
    """Table values equal Polynomial.evaluate point by point, exponents
    past q included, for tabled, untabled and tower fields."""
    k, K = parse_field_literal(coeffs), parse_field_literal(points)
    rng = random.Random(coeffs + points)
    vars = ("X", "Y", "Z")
    pts = [AffinePoint(tuple(K.element(rng.choice((0, 1, rng.randrange(K.q))))
                             for _ in vars)) for _ in range(40)]
    table = PointTable.of_points(K, pts, len(vars))
    for _ in range(5):
        f = random_poly(rng, k, vars, rng.randint(1, 6), K.q + 3)
        assert table.evaluate(f) == [[f.evaluate(p.coords).idx for p in pts]]
    if K.q <= 9:
        space = space_table(K, 2, PROJECTIVE)
        f = random_poly(rng, k, vars, 4, 3)
        g = f + random_poly(rng, k, vars, 2, 3)  # mostly shared monomials
        assert space.evaluate(f, g) == [
            [h.evaluate(p.coords).idx
             for p in enumerate_space(K, 2, PROJECTIVE).points]
            for h in (f, g)]


def test_oracle_matches_fold():
    """Buchberger-Moller equals the fold of point-ideal intersections on
    random point sets, affine and projective, over GF(2), GF(3), GF(4)
    and GF(5) in 2-4 variables."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False),
           st.sampled_from([F2, F3, F4, F5]),
           st.sampled_from([AFFINE, PROJECTIVE]), st.integers(2, 4))
    def check(rng, spec, kind, nvars):
        n = nvars if kind == AFFINE else nvars - 1
        if spec.q ** nvars > 200:
            n -= 1
        space = enumerate_space(spec, n, kind).points
        pts = rng.sample(space, rng.randint(1, min(len(space), 12)))
        V = Variety(kind, spec, n, tuple(pts))
        got = oracle_vanishing_ideal(V)
        assert got.gens == got.gb().gens
        assert got.gens == reduced(fold_vanishing_ideal(V)).gens

    check()


def test_oracle_ignores_point_order():
    """The same points in shuffled lists give the sorted list's basis."""
    rng = random.Random(8)
    for spec, n, kind in ((F3, 2, PROJECTIVE), (F4, 2, AFFINE),
                          (F5, 2, PROJECTIVE)):
        pts = rng.sample(enumerate_space(spec, n, kind).points, 7)
        want = oracle_vanishing_ideal(
            Variety(kind, spec, n, tuple(sorted(pts, key=lambda p: p.key))))
        for _ in range(3):
            rng.shuffle(pts)
            V = Variety(kind, spec, n, tuple(pts))
            assert oracle_vanishing_ideal(V).gens == want.gens
            assert reduced(fold_vanishing_ideal(V)).gens == want.gens


@pytest.mark.parametrize("quadric", [
    "6*X0^2 + 3*X0*X1 + 2*X2^2 + 6*X0*X3 + 3*X2*X3",
    "2*X0*X1 + 3*X2^2 + 4*X3^2",
])
def test_oracle_on_quadrics_past_regularity(quadric):
    """Two quadrics in P^3(GF(7)) with 64 points: the Hilbert function
    reaches 64 in degree 7, yet the basis has elements of degree 9, so
    a walk that stopped at the regularity index plus one would miss
    them.  The oracle gives the colon's basis."""
    from nullkit.nullstellensatz import NullConfig, projective_vanishing

    F7 = make_field(7)
    vars = ("X0", "X1", "X2", "X3")
    cfg = NullConfig(F7, F7, vars)
    oracle, _ = projective_vanishing(
        Ideal.from_strings(F7, vars, [quadric]), cfg, "oracle")
    colon, _ = projective_vanishing(
        Ideal.from_strings(F7, vars, [quadric]), cfg, "colon")
    assert oracle.gens == colon.gens
    assert max(g.total_degree() for g in oracle.gens) == 9


def test_oracle_runs_no_buchberger(monkeypatch):
    """The oracle method interpolates: no Buchberger call, no
    intersection."""
    from helpers import count_calls
    from nullkit.nullstellensatz import NullConfig, projective_vanishing

    calls = count_calls(monkeypatch, "buchberger")
    meets = count_calls(monkeypatch, "ideal_intersect")
    vars = ("X0", "X1", "X2")
    I = Ideal.from_strings(F3, vars, ["X0*X1 + X2^2"])
    result, _ = projective_vanishing(I, NullConfig(F3, F3, vars), "oracle")
    assert calls == [] and meets == []
    assert [str(g) for g in result.gens] == [
        "X0*X2 + X1*X2", "X0*X1 + X2^2", "X1^2*X2 + 2*X2^3"]


def test_oracle_refuses_points_outside_the_coefficient_field():
    V = enumerate_space(F4, 1, PROJECTIVE)
    with pytest.raises(FieldMismatch):
        oracle_vanishing_ideal(V, spec=F2)
