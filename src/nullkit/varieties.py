"""Finite point sets of affine and projective space and their ideals.

Projective points are stored with the first nonzero coordinate scaled
to 1, and every point list is sorted by the coordinate encodings, so a
variety has exactly one representation.

Points are evaluated on integer encodings.  A PointTable holds one
column of coordinate encodings per variable and gives a polynomial's
values at all of its points at once, through the spec's operation
tables add and mul, with no FieldElement per point.  Spaces are
enumerated straight into such columns, already in sorted order.
Prime-field encodings are the same in every extension, so one table
serves polynomials with coefficients anywhere in the tower.

A zero set never lists its whole space.  It is fibred over the last
variable: the generators' coefficients in X_n are evaluated on the
table of the prefixes, the points without their last coordinate, and
the common roots in GF(q) of each prefix's univariate polynomials
complete it (see zero_set).  SIZE_LIMIT caps the prefixes, the zero
set and, where the space passes it, the cost of those roots, so a conic
over GF(1009) answers though its P^2 has more than 10^6 points;
space_table, which lists a whole space, keeps the cap on the space.

The vanishing-ideal oracle interpolates I(V) from such a table by
Buchberger-Moller (Moller and Buchberger 1982; Abbott, Bigatti,
Kreuzer and Robbiano, JSC 2000): monomials are visited in increasing
degrevlex order, and one whose evaluation vector depends on those of
the smaller standard monomials gives a reduced basis element.  It is
linear algebra over the coefficient field and never consults a closed
formula or runs Buchberger's algorithm, which is what makes it an
independent ground truth.  It takes at most ORACLE_POINT_LIMIT points.
"""

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    EmptyVariety,
    FieldMismatch,
    NonHomogeneousProjective,
    SizeOverflow,
)
from .field import (_Echelon, common_spec, embed, fold_exponent, is_subfield,
                    upoly_eval, upoly_roots)
from .groebner import GroebnerBasis
from .ideals import Ideal, _from_basis, is_homogeneous_ideal
from .poly import DEGREVLEX, Polynomial, mono_divides

SIZE_LIMIT = 10 ** 6
ORACLE_POINT_LIMIT = 128

AFFINE = "affine"
PROJECTIVE = "projective"


@dataclass(frozen=True)
class _Point:
    coords: tuple

    @property
    def key(self):
        return tuple(a.idx for a in self.coords)


class AffinePoint(_Point):
    def __str__(self):
        return "(" + ",".join(str(a) for a in self.coords) + ")"


class ProjectivePoint(_Point):
    def __str__(self):
        return "[" + ":".join(str(a) for a in self.coords) + "]"


@dataclass(frozen=True)
class Variety:
    """Sorted point set of A^n or P^n over a point field."""

    kind: str
    spec: object
    n: int
    points: tuple

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __str__(self):
        return "{" + ", ".join(str(p) for p in self.points) + "}"


class PointTable:
    """A point list as columns of coordinate encodings over spec.

    Column i holds the encodings of the i-th coordinates, one entry per
    point.  Powers of a column are computed once per table.
    """

    __slots__ = ("spec", "cols", "size", "_powers")

    def __init__(self, spec, cols, size):
        self.spec = spec
        self.cols = cols
        self.size = size
        self._powers = {}

    @classmethod
    def of_points(cls, spec, points, nvars):
        """The table of a point list whose coordinates live in spec."""
        cols = [[p.coords[i].idx for p in points] for i in range(nvars)]
        return cls(spec, cols, len(points))

    def keys(self):
        """Each point's tuple of coordinate encodings, in table order."""
        return zip(*self.cols) if self.cols else iter([()] * self.size)

    def points(self, kind):
        """The points as AffinePoint or ProjectivePoint objects."""
        element = (self.spec.element if self.spec.elements is None
                   else self.spec.elements.__getitem__)
        cls = AffinePoint if kind == AFFINE else ProjectivePoint
        return tuple(cls(tuple(map(element, key))) for key in self.keys())

    def power(self, i, e):
        """Encodings of the i-th coordinates raised to e."""
        if e == 1:
            return self.cols[i]
        col = self._powers.get((i, e))
        if col is None:
            values = {a: self.spec.encoded_pow(a, e)
                      for a in set(self.cols[i])}
            col = self._powers[(i, e)] = list(map(values.__getitem__,
                                                  self.cols[i]))
        return col

    def monomial(self, exps):
        """Encodings of the monomial's values at the points."""
        mul = self.spec.mul
        v = None
        for i, e in enumerate(exps):
            if e:
                col = self.power(i, e)
                v = col if v is None else [mul[a][b] for a, b in zip(v, col)]
        return [1] * self.size if v is None else v

    def evaluate(self, *polys):
        """For each polynomial, the encodings of its values at the
        points, in the smaller field holding both its coefficients and
        the points.  A monomial shared by several is evaluated once."""
        specs = [common_spec(f.spec, self.spec) for f in polys]
        totals = [[0] * self.size for _ in polys]
        for exps in dict.fromkeys(e for f in polys for e in f.terms):
            v = self.monomial(exps)
            for k, f in enumerate(polys):
                if exps in f.terms:
                    add = specs[k].add
                    row = specs[k].mul[f.terms[exps]]
                    totals[k] = [add[t][row[a]] for t, a in zip(totals[k], v)]
        return totals


def _check_kind(kind):
    if kind not in (AFFINE, PROJECTIVE):
        raise ValueError(f"unknown space kind {kind!r}")


def _space_size(q, n, kind):
    return q ** n if kind == AFFINE else (q ** (n + 1) - 1) // (q - 1)


def _too_large(spec, n, kind):
    return SizeOverflow(f"{'A' if kind == AFFINE else 'P'}^{n}({spec}) has "
                        f"more than {SIZE_LIMIT} points")


def _projective_blocks(n):
    """(head, m) blocks of P^n: the leading 1 at position lead, from n
    down to 0, followed by m = n - lead free coordinates."""
    return [((0,) * lead + (1,), n - lead) for lead in range(n, -1, -1)]


def _block_table(spec, width, blocks):
    """The PointTable of the blocks in order: each block is its head
    coordinates followed by every tail of m coordinates, in
    lexicographic order."""
    q = spec.q
    cols = [[] for _ in range(width)]
    for head, m in blocks:
        for col, a in zip(cols, head):
            col.extend([a] * q ** m)
        for k in range(m):
            run = [a for a in range(q) for _ in range(q ** (m - 1 - k))]
            cols[len(head) + k].extend(run * q ** k)
    return PointTable(spec, cols, sum(q ** m for _, m in blocks))


def space_table(spec, n, kind):
    """The PointTable of all of A^n (q^n points) or P^n
    ((q^(n+1)-1)/(q-1) points) over spec, in sorted order.

    Projective points come in blocks by the position of their leading
    1, from n down to 0, each followed by every tail in lexicographic
    order, so the columns are built sorted."""
    _check_kind(kind)
    if _space_size(spec.q, n, kind) > SIZE_LIMIT:
        raise _too_large(spec, n, kind)
    if kind == AFFINE:
        return _block_table(spec, n, [((), n)])
    return _block_table(spec, n + 1, _projective_blocks(n))


def enumerate_space(spec, n, kind):
    """Every point of A^n (q^n points) or P^n ((q^(n+1)-1)/(q-1))."""
    return Variety(kind, spec, n, space_table(spec, n, kind).points(kind))


def _fibre_columns(table, g, q, spec):
    """g as a polynomial in its last variable, with coefficients in the
    others evaluated at the points of table: {k: the value column over
    spec of the coefficient of X_n^k}, with k folded below q by
    field.fold_exponent."""
    add, mul = spec.add, spec.mul
    cols = {}
    for exps, c in g.terms.items():
        k = fold_exponent(exps[-1], q)
        v, row, col = table.monomial(exps[:-1]), mul[c], cols.get(k)
        cols[k] = ([row[a] for a in v] if col is None
                   else [add[t][row[a]] for t, a in zip(col, v)])
    return cols


def _root_cost(q, d, t):
    """(cost, by evaluation) of the roots in GF(q) of a polynomial of
    degree d with t terms, in reads of a value at one point.  Evaluating
    it at every element reads q values per term; the gcds and splits of
    field.upoly_roots cost about 5 (d + 1)^2 log2(q) reads
    (BENCH_18.json).  A linear one gives its root directly."""
    if d <= 1:
        return 0, False
    split = 5 * (d + 1) ** 2 * q.bit_length()
    return min(q * t, split), q * t <= split


def _degree(u):
    return max(k for k, c in enumerate(u) if c)


class _FibreRoots:
    """Roots in GF(q), the point field, of univariate coefficient lists
    over spec.  The table of GF(q) that evaluation reads is built once,
    when first needed, and keeps its power columns for every fibre."""

    def __init__(self, point_spec, spec):
        self.point_spec, self.spec, self.q = point_spec, spec, point_spec.q
        self.line = None

    def of(self, u):
        """The roots of the nonzero u, ascending: by field.upoly_roots,
        or by evaluation at every element where _root_cost finds that
        cheaper."""
        if len(u) < 3 or not _root_cost(self.q, _degree(u),
                                         sum(1 for c in u if c))[1]:
            return upoly_roots(u, self.spec, self.q)
        if self.line is None:
            self.line = space_table(self.point_spec, 1, AFFINE)
        f = Polynomial(self.spec, ("x",),
                       {(k,): c for k, c in enumerate(u) if c})
        values, = self.line.evaluate(f)
        return [a for a, v in enumerate(values) if not v]

    def common(self, us, candidates=None):
        """The x, ascending, at which every coefficient list in us
        vanishes.  They are found among the candidates when given, else
        among the roots of the nonzero u of least degree; None when
        neither exists, that is when every u is zero."""
        polys = [u for u in us if any(u)]
        if candidates is None:
            if not polys:
                return None
            if len(polys) > 1:
                polys.sort(key=_degree)
            candidates = self.of(polys.pop(0))
        for u in polys:
            candidates = [a for a in candidates
                          if not upoly_eval(u, a, self.spec)]
        return candidates


def zero_set(I, point_spec, kind):
    """Common zeros of the generators among the points of the space.

    The points are fibred over all but their last coordinate.  The
    prefixes run over A^(n-1), or over the zero prefix of the point
    [0:...:0:1] followed by P^(n-1).  Each generator, as a polynomial
    in X_n, has its coefficients evaluated at every prefix in one pass
    over its terms.  At each prefix that leaves univariate polynomials
    in X_n; their common roots in GF(q) (_FibreRoots) complete the
    prefix to the zeros over it, and a fibre on which all of them are
    zero holds every x.  Prefixes and roots both come in sorted order,
    so the points do too.

    SIZE_LIMIT caps the prefixes and the zero set.  Where the space
    passes it, the zero set is also refused when the roots of every
    generator's fibres would cost more than evaluating it at SIZE_LIMIT
    points (_root_cost), as brute force would; a space within it is
    never refused.
    """
    _check_kind(kind)
    if kind == PROJECTIVE:
        if not (all(g.is_homogeneous for g in I.gens)
                or is_homogeneous_ideal(I)):
            raise NonHomogeneousProjective(
                f"{I} is not homogeneous; it has no projective zero set")
        n = len(I.vars) - 1
    else:
        n = len(I.vars)
    gens = [g for g in I.gens if g]
    if kind == AFFINE and n == 0:
        return Variety(kind, point_spec, 0, () if gens else (AffinePoint(()),))
    q = point_spec.q
    if _space_size(q, n - 1, kind) + (kind == PROJECTIVE) > SIZE_LIMIT:
        raise _too_large(point_spec, n, kind)
    if kind == AFFINE:
        prefixes = _block_table(point_spec, n - 1, [((), n - 1)])
    else:
        prefixes = _block_table(point_spec, n,
                                [((0,) * n, 0)] + _projective_blocks(n - 1))
    spec = common_spec(I.spec, point_spec)
    fibres = [_fibre_columns(prefixes, g, q, spec) for g in gens]
    if gens and _space_size(q, n, kind) > SIZE_LIMIT and all(
            prefixes.size * _root_cost(q, max(cols), len(cols))[0]
            > SIZE_LIMIT * len(cols) for cols in fibres):
        raise _too_large(point_spec, n, kind)
    zero = [0] * prefixes.size
    rows_us = zip(*(zip(*(cols.get(k, zero) for k in range(max(cols) + 1)))
                    for cols in fibres))
    roots = _FibreRoots(point_spec, spec)
    vertex = [1] if kind == PROJECTIVE else None
    rows, last = [], []
    for r, us in enumerate(rows_us if gens else [()] * prefixes.size):
        xs = roots.common(us, vertex if r == 0 else None)
        if xs is None:
            xs = range(q)
        if len(last) + len(xs) > SIZE_LIMIT:
            raise _too_large(point_spec, n, kind)
        rows.extend([r] * len(xs))
        last.extend(xs)
    cols = [[c[r] for r in rows] for c in prefixes.cols] + [last]
    return Variety(kind, point_spec, n,
                   PointTable(point_spec, cols, len(rows)).points(kind))


def _default_vars(n, kind):
    if kind == AFFINE:
        return tuple(f"X{i}" for i in range(1, n + 1))
    return tuple(f"X{i}" for i in range(n + 1))


def point_ideal(pt, spec=None, vars=None):
    """Vanishing ideal of one point.

    Affine points give <X_i - a_i>; projective points give the two by
    two minors <a_j X_i - a_i X_j>, zero minors dropped.  Coordinates
    are embedded into spec when a larger coefficient field is wanted.
    """
    affine = isinstance(pt, AffinePoint)
    n = len(pt.coords) if affine else len(pt.coords) - 1
    if spec is None:
        spec = pt.coords[0].spec
    if vars is None:
        vars = _default_vars(n, AFFINE if affine else PROJECTIVE)
    expected = n if affine else n + 1
    if len(vars) != expected:
        raise DimensionMismatch(
            f"{len(vars)} variables for a point with {len(pt.coords)} "
            "coordinates")
    coords = [embed(a, spec) for a in pt.coords]
    gens = []
    if affine:
        for i, a in enumerate(coords):
            x = Polynomial.variable(spec, vars, vars[i])
            gens.append(x - Polynomial.constant(spec, vars, a))
    else:
        for i in range(len(coords)):
            for j in range(i + 1, len(coords)):
                xi = Polynomial.variable(spec, vars, vars[i])
                xj = Polynomial.variable(spec, vars, vars[j])
                minor = xi.scale(coords[j]) - xj.scale(coords[i])
                if minor:
                    gens.append(minor)
    return Ideal(spec, tuple(vars), tuple(gens))


def _successors(monos, leads):
    """The products x_i * m that no lead divides, ascending in
    degrevlex, for monomials m that no lead divides.

    A lead dividing x_i * m but not m has the exponent of x_i that
    x_i * m has, which is checked first."""
    out = {}
    for m in monos:
        for i in range(len(m)):
            out.setdefault(m[:i] + (m[i] + 1,) + m[i + 1:], i)
    return sorted((m for m, i in out.items()
                   if not any(l[i] == m[i] and mono_divides(l, m)
                              for l in leads)),
                  key=DEGREVLEX.key)


def _buchberger_moller(table, spec, nvars, projective):
    """The reduced basis of I(V), as {monomial: encoding} combinations
    ascending in their leads, from a walk over the degrees.

    The degree-t candidates are the products x_i * m of the standard
    monomials m of degree t - 1 that no lead divides, visited in
    increasing degrevlex order.  A candidate whose vector depends on
    those of the standard monomials before it is a new lead, and the
    dependency is its basis element.

    Affine points keep one echelon across the degrees.  Their N = |V|
    standard monomials are closed under division, so all have degree
    below N and no lead has degree above N.  Projective
    points decide only whether a form vanishes, so each degree starts
    a fresh echelon on the normalized representatives.  There the
    Hilbert function HF(t), the number of standard monomials of degree
    t, never decreases and reaches N by degree N - 1; once HF(t-1) = N,
    a degree with exactly N candidates has no new lead and is only a
    count.  By Macaulay's bound on Hilbert function growth no minimal
    generator of in(I(V)) has degree above N, where the walk stops.
    """
    n_points = table.size
    one = (0,) * nvars
    echelon = _Echelon(spec)
    echelon.insert(one, table.monomial(one))
    standard, combos, leads = [one], [], []
    for _ in range(n_points):
        candidates = _successors(standard, leads)
        if projective:
            if len(standard) == n_points == len(candidates):
                standard = candidates
                continue
            echelon = _Echelon(spec)
        standard = []
        for m in candidates:
            combo = echelon.insert(m, table.monomial(m))
            if combo is None:
                standard.append(m)
            else:
                leads.append(m)
                combos.append(combo)
    return combos


def oracle_vanishing_ideal(V, spec=None, vars=None):
    """I(V) over spec by Buchberger-Moller on the points' table.

    The result is the reduced degrevlex basis, seeded into the ideal's
    cache, and does not depend on the order of V's points.  spec
    defaults to V's field and must contain it.  More than
    ORACLE_POINT_LIMIT points raise SizeOverflow: the cost grows about
    as N^4 for N points on a curve, and at the limit P^1(GF(127)) takes
    3.5 s and the line X0 + X1 + X2 over GF(127) 3.8 s (a conic 1.5 s)
    on a 2-core x86-64 host under Python 3.11.
    """
    if not V.points:
        raise EmptyVariety("the oracle needs at least one point")
    if len(V.points) > ORACLE_POINT_LIMIT:
        raise SizeOverflow(f"the oracle takes at most {ORACLE_POINT_LIMIT} "
                           f"points; the zero set has {len(V.points)}")
    spec = V.spec if spec is None else spec
    nvars = V.n if V.kind == AFFINE else V.n + 1
    vars = _default_vars(V.n, V.kind) if vars is None else tuple(vars)
    if len(vars) != nvars:
        raise DimensionMismatch(
            f"{len(vars)} variables for points with {nvars} coordinates")
    if not is_subfield(V.spec, spec):
        raise FieldMismatch(f"no embedding of {V.spec} into {spec}")
    table = PointTable.of_points(V.spec, V.points, nvars)
    combos = _buchberger_moller(table, spec, nvars, V.kind == PROJECTIVE)
    gens = [Polynomial(spec, vars, combo) for combo in combos]
    return _from_basis(spec, vars, GroebnerBasis(DEGREVLEX, gens))
