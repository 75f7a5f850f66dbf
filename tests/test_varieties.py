"""Point enumeration, point tables, zero sets and the oracle."""

import itertools
import random
import time
from pathlib import Path

import pytest

from nullkit.errors import (
    DimensionMismatch,
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

from helpers import brute_zero_set, fold_vanishing_ideal, normalize
from helpers import random_poly as random_form

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


def test_size_guard_counts_the_prefixes_and_the_zero_set():
    """A space refused today whose zero set fits answers; the cap holds
    for the prefixes alone (A^2 over a huge field) and for a zero set
    past it, with the message that names the whole space."""
    huge = make_field(2 ** 61 - 1)
    with pytest.raises(SizeOverflow, match=r"^A\^2\(GF\(2305843009213693951"
                       r"\)\) has more than 1000000 points$"):
        zero_set(Ideal.from_strings(huge, ("X", "Y"), ["X + 3*Y"]), huge,
                 AFFINE)
    line = Ideal.from_strings(huge, ("X0", "X1"), ["X0 + 3*X1"])
    assert [p.key for p in zero_set(line, huge, PROJECTIVE)] == [
        (1, (2 ** 61 - 2) * pow(3, -1, 2 ** 61 - 1) % (2 ** 61 - 1))]
    F1009 = make_field(1009)
    with pytest.raises(SizeOverflow, match=r"^P\^2\(GF\(1009\)\) has more "
                       "than 1000000 points$"):
        zero_set(Ideal(F1009, ("X0", "X1", "X2"), []), F1009, PROJECTIVE)


@pytest.mark.time_budget(5)
def test_high_degree_fibres_take_the_cheaper_roots():
    """A fibre of degree 250 over GF(251) is evaluated at every element
    rather than split by gcds, so the curve answers as fast as brute
    force.  Over GF(2^61 - 1) a quadratic fibre is split, while the roots
    of X^70000 - 1 would cost more than evaluating 10^6 points either way
    and are refused."""
    F251 = make_field(251)
    curve = Ideal.from_strings(F251, ("X0", "X1", "X2"),
                               ["X0^125*X1^125 + X1^250 - X2^250"])
    start = time.perf_counter()
    V = zero_set(curve, F251, PROJECTIVE)
    assert time.perf_counter() - start < 1
    assert len(V) == 376 and V == brute_zero_set(curve, F251, PROJECTIVE)
    huge = make_field(2 ** 61 - 1)
    two = zero_set(Ideal.from_strings(huge, ("X",), ["X^2 - 2"]), huge,
                   AFFINE)
    assert [(a * a - 2) % (2 ** 61 - 1) for (a,) in (p.key for p in two)] \
        == [0, 0]
    with pytest.raises(SizeOverflow,
                       match=r"^A\^1\(GF\(2305843009213693951\)\) has more"):
        zero_set(Ideal.from_strings(huge, ("X",), ["X^70000 - 1"]), huge,
                 AFFINE)


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


def test_affine_zero_set_in_zero_variables():
    """A^0 is one point: the zero ideal keeps it and <1> does not."""
    V = zero_set(Ideal(F2, (), []), F2, AFFINE)
    assert [p.key for p in V] == [()] and str(V) == "{()}"
    assert zero_set(Ideal.from_strings(F2, (), ["1"]), F2, AFFINE).points \
        == ()


@pytest.mark.parametrize("make", [
    lambda: space_table(F2, 2, "bogus"),
    lambda: zero_set(Ideal.from_strings(F2, ("X", "Y"), ["X"]), F2,
                     "bogus"),
], ids=["space_table", "zero_set"])
def test_unknown_space_kind_is_refused(make):
    """Both entry points refuse a kind neither affine nor projective."""
    with pytest.raises(ValueError, match="^unknown space kind 'bogus'$"):
        make()


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


def test_vars_must_match_the_point_coordinates():
    """Two variable names for points of P^2, which have 3 coordinates,
    are refused by the oracle and by point_ideal."""
    V = enumerate_space(F2, 2, PROJECTIVE)
    with pytest.raises(DimensionMismatch,
                       match="^2 variables for points with 3 coordinates$"):
        oracle_vanishing_ideal(V, vars=("X0", "X1"))
    with pytest.raises(DimensionMismatch,
                       match="^2 variables for a point with 3 coordinates$"):
        point_ideal(V.points[0], vars=("X0", "X1"))


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


def test_oracle_point_budget():
    """A^7(GF(2)) has ORACLE_POINT_LIMIT = 128 points and answers;
    A^8(GF(2)), with 256, is refused before any echelon is built."""
    from nullkit.varieties import ORACLE_POINT_LIMIT

    assert ORACLE_POINT_LIMIT >= 128
    got = oracle_vanishing_ideal(enumerate_space(F2, 7, AFFINE))
    assert len(got.gens) == 7
    with pytest.raises(SizeOverflow, match="^the oracle takes at most 128 "
                       "points; the zero set has 256$"):
        oracle_vanishing_ideal(enumerate_space(F2, 8, AFFINE))


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


FIBRE_FIELDS = [("GF(2)", "GF(2)"), ("GF(3)", "GF(3)"), ("GF(4)", "GF(4)"),
                ("GF(5)", "GF(5)"), ("GF(7)", "GF(7)"), ("GF(8)", "GF(8)"),
                ("GF(9)", "GF(9)"), ("GF(4)", "GF(2)"), ("GF(2)", "GF(4)"),
                ("GF(9)", "GF(3)"), ("GF(3)", "GF(9)")]


@pytest.mark.time_budget(60)
@pytest.mark.parametrize("by_evaluation", [True, False],
                         ids=["roots-by-evaluation", "roots-by-gcd"])
def test_zero_set_matches_brute_force_enumeration(monkeypatch,
                                                  by_evaluation):
    """The fibred zero set equals brute_zero_set, which evaluates every
    generator on the whole space, on random affine and projective
    inputs: zero generators, exponents past q, both kinds of tower, and
    non-homogeneous generators of a homogeneous ideal.  The roots of
    every fibre of degree 2 or more come from evaluation at every
    element, or from gcds and splitting, in every field."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from nullkit import varieties

    cost = varieties._root_cost
    monkeypatch.setattr(varieties, "_root_cost",
                        lambda q, d, t: (cost(q, d, t)[0], by_evaluation))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.sampled_from(FIBRE_FIELDS),
           st.sampled_from([AFFINE, PROJECTIVE]), st.integers(1, 3))
    def check(rng, fields, kind, nvars):
        k, K = map(parse_field_literal, fields)
        vars = tuple(f"X{i}" for i in range(nvars))
        count = rng.randint(0, 3)
        if kind == AFFINE:
            gens = [random_poly(rng, k, vars, rng.randint(1, 5), K.q + 2)
                    for _ in range(count)]
        else:
            gens = [random_form(rng, k, vars, rng.randint(1, K.q + 1),
                                rng.randint(1, 4)) for _ in range(count)]
            if gens and rng.random() < 0.3:
                # f + g and g generate the homogeneous ideal <f, g>
                g = random_form(rng, k, vars, rng.randint(1, 3), 2)
                gens = [gens[0] + g, g] + gens[1:]
        if rng.random() < 0.2:
            gens.insert(rng.randint(0, len(gens)), Polynomial.zero(k, vars))
        I = Ideal(k, vars, gens)
        assert zero_set(I, K, kind) == brute_zero_set(I, K, kind)

    check()


def test_zero_set_of_the_tower_example_matches_brute_force():
    from nullkit.cli import parse_problem

    problem = parse_problem(str(Path(__file__).resolve().parent.parent
                                / "examples" / "tower.null"))
    I, K = problem.ideal, problem.cfg.K_spec
    assert I.spec is not K
    assert zero_set(I, K, PROJECTIVE) == brute_zero_set(I, K, PROJECTIVE)


@pytest.mark.time_budget(5)
def test_large_fields_answer():
    """A conic over GF(997) enumerates in under 0.5 s; one over GF(1009),
    whose P^2 passes SIZE_LIMIT, has its q + 1 points; and the twisted
    cubic in P^3(GF(101)), whose space has 1,030,302 points, has its
    102."""
    vars = ("X0", "X1", "X2")
    for q in (997, 1009):
        F = make_field(q)
        I = Ideal.from_strings(F, vars, ["X0^2 + 3*X1^2 - 5*X2^2"])
        start = time.perf_counter()
        V = zero_set(I, F, PROJECTIVE)
        if q == 997:
            assert time.perf_counter() - start < 0.5
        assert len(V) == q + 1
        assert all((a * a + 3 * b * b - 5 * c * c) % q == 0
                   for a, b, c in (p.key for p in V))
    F101 = make_field(101)
    cubic = Ideal.from_strings(F101, vars + ("X3",), [
        "X0*X2 - X1^2", "X1*X3 - X2^2", "X0*X3 - X1*X2"])
    V = zero_set(cubic, F101, PROJECTIVE)
    assert [p.key for p in V] == [(0, 0, 0, 1)] + [
        (1, t, t * t % 101, t ** 3 % 101) for t in range(101)]


def test_conic_builds_no_table_past_the_prefixes_and_zeros(monkeypatch):
    """Over GF(251) the 253 prefixes (with the one of [0:0:1]) and the
    252 zeros are all the rows a zero set builds, not the 63,253 points
    of P^2."""
    sizes = []
    real = PointTable.__init__

    def record(self, spec, cols, size):
        sizes.append(size)
        real(self, spec, cols, size)

    monkeypatch.setattr(PointTable, "__init__", record)
    F = make_field(251)
    I = Ideal.from_strings(F, ("X0", "X1", "X2"), ["X0^2 + 3*X1^2 - 5*X2^2"])
    assert len(zero_set(I, F, PROJECTIVE)) == 252
    assert sizes and max(sizes) <= 253 + 252
