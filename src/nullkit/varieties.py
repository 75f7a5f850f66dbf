"""Finite point sets of affine and projective space and their ideals.

Projective points are stored with the first nonzero coordinate scaled
to 1, and every point list is sorted by the coordinate encodings, so a
variety has exactly one representation.

Points are evaluated on integer encodings.  A PointTable holds one
column of coordinate encodings per variable and gives a polynomial's
values at all of its points at once, through the spec's operation
tables add and mul, with no FieldElement per point.  Spaces are
enumerated straight into such columns, already in sorted order, and
only the points a zero set keeps become point objects.  Prime-field
encodings are the same in every extension, so one table serves
polynomials with coefficients anywhere in the tower.

The vanishing-ideal oracle interpolates I(V) from such a table by
Buchberger-Moller (Moller and Buchberger 1982; Abbott, Bigatti,
Kreuzer and Robbiano, JSC 2000): monomials are visited in increasing
degrevlex order, and one whose evaluation vector depends on those of
the smaller standard monomials gives a reduced basis element.  It is
linear algebra over the coefficient field and never consults a closed
formula or runs Buchberger's algorithm, which is what makes it an
independent ground truth.
"""

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    EmptyVariety,
    FieldMismatch,
    NonHomogeneousProjective,
    SizeOverflow,
)
from .field import common_spec, embed, is_subfield
from .groebner import GroebnerBasis
from .ideals import Ideal, is_homogeneous_ideal
from .poly import DEGREVLEX, Polynomial, mono_divides

SIZE_LIMIT = 10 ** 6

AFFINE = "affine"
PROJECTIVE = "projective"


@dataclass(frozen=True)
class AffinePoint:
    coords: tuple

    @property
    def key(self):
        return tuple(a.idx for a in self.coords)

    def __str__(self):
        return "(" + ",".join(str(a) for a in self.coords) + ")"


@dataclass(frozen=True)
class ProjectivePoint:
    coords: tuple

    @property
    def key(self):
        return tuple(a.idx for a in self.coords)

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

    def take(self, rows):
        """The table of the points at the given positions."""
        return PointTable(self.spec, [[c[k] for k in rows] for c in self.cols],
                          len(rows))

    def keys(self):
        """Each point's tuple of coordinate encodings, in table order."""
        return zip(*self.cols) if self.cols else iter([()] * self.size)

    def points(self, kind):
        """The points as AffinePoint or ProjectivePoint objects."""
        element = self.spec.element
        cls = AffinePoint if kind == AFFINE else ProjectivePoint
        return tuple(cls(tuple(map(element, key))) for key in self.keys())

    def power(self, i, e):
        """Encodings of the i-th coordinates raised to e."""
        col = self._powers.get((i, e))
        if col is None:
            values = {a: self.spec.encoded_pow(a, e) for a in set(self.cols[i])}
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


def space_table(spec, n, kind):
    """The PointTable of all of A^n (q^n points) or P^n
    ((q^(n+1)-1)/(q-1) points) over spec, in sorted order.

    Projective points come in blocks by the position of their leading
    1, from n down to 0, each followed by every tail in lexicographic
    order, so the columns are built sorted."""
    q = spec.q
    if kind == AFFINE:
        if q ** n > SIZE_LIMIT:
            raise SizeOverflow(f"A^{n}({spec}) has more than {SIZE_LIMIT} points")
        blocks = [((), n)]
    elif kind == PROJECTIVE:
        if (q ** (n + 1) - 1) // (q - 1) > SIZE_LIMIT:
            raise SizeOverflow(f"P^{n}({spec}) has more than {SIZE_LIMIT} points")
        blocks = [((0,) * lead + (1,), n - lead) for lead in range(n, -1, -1)]
    else:
        raise ValueError(f"unknown space kind {kind!r}")
    cols = [[] for _ in range(n if kind == AFFINE else n + 1)]
    for head, m in blocks:
        for col, a in zip(cols, head):
            col.extend([a] * q ** m)
        for k in range(m):
            run = [a for a in range(q) for _ in range(q ** (m - 1 - k))]
            cols[len(head) + k].extend(run * q ** k)
    return PointTable(spec, cols, sum(q ** m for _, m in blocks))


def enumerate_space(spec, n, kind):
    """Every point of A^n (q^n points) or P^n ((q^(n+1)-1)/(q-1))."""
    return Variety(kind, spec, n, space_table(spec, n, kind).points(kind))


def zero_set(I, point_spec, kind):
    """Common zeros of the generators among the points of the space."""
    if kind == PROJECTIVE:
        if not (all(g.is_homogeneous for g in I.gens)
                or is_homogeneous_ideal(I)):
            raise NonHomogeneousProjective(
                f"{I} is not homogeneous; it has no projective zero set")
        n = len(I.vars) - 1
    else:
        n = len(I.vars)
    table = space_table(point_spec, n, kind)
    for g in I.gens:
        if g:
            values, = table.evaluate(g)
            table = table.take([k for k, v in enumerate(values) if not v])
    return Variety(kind, point_spec, n, table.points(kind))


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


class _Echelon:
    """Evaluation vectors in row-echelon form over spec, each with the
    combination of monomials it is the vector of."""

    def __init__(self, spec):
        self.add, self.mul = spec.add, spec.mul
        self.neg, self.inv = spec.neg, spec.inv
        self.rows = []  # (pivot, vector with 1 at pivot, {monomial: coef})

    def insert(self, mono, v):
        """Add the vector v of mono.  When v depends on the rows, return
        instead the combination mono - ... that vanishes at every point,
        as a {monomial: encoding} dict."""
        add, mul = self.add, self.mul
        combo = {mono: 1}
        for pivot, row, row_combo in self.rows:
            if v[pivot]:
                scale = mul[self.neg[v[pivot]]]
                v = [add[a][scale[b]] for a, b in zip(v, row)]
                for m, b in row_combo.items():
                    combo[m] = add[combo.get(m, 0)][scale[b]]
        pivot = next((k for k, a in enumerate(v) if a), None)
        if pivot is None:
            return combo
        scale = mul[self.inv[v[pivot]]]
        self.rows.append((pivot, [scale[a] for a in v],
                          {m: scale[b] for m, b in combo.items()}))
        return None


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
    defaults to V's field and must contain it.
    """
    if not V.points:
        raise EmptyVariety("the oracle needs at least one point")
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
    basis = GroebnerBasis(DEGREVLEX, gens)
    return Ideal(spec, vars, basis.gens).seed_gb(basis)
