"""Finite point sets of affine and projective space and their ideals.

Projective points are stored with the first nonzero coordinate scaled
to 1, and every point list is sorted by the coordinate encodings, so a
variety has exactly one representation.  The vanishing-ideal oracle
intersects one ideal per point and never consults any closed formula,
which is what makes it an independent ground truth.
"""

import itertools
from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    EmptyVariety,
    NonHomogeneousProjective,
    SizeOverflow,
)
from .field import embed, enumerate_field
from .ideals import Ideal, ideal_intersect, is_homogeneous_ideal
from .poly import Polynomial

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

    @classmethod
    def normalize(cls, coords):
        """Scale so the first nonzero coordinate becomes 1."""
        coords = tuple(coords)
        for a in coords:
            if a.idx:
                inv = a.inv()
                return cls(tuple(c * inv for c in coords))
        raise ValueError("the zero vector is not a projective point")

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


def enumerate_space(spec, n, kind):
    """Every point of A^n (q^n points) or P^n ((q^(n+1)-1)/(q-1))."""
    q = spec.q
    if kind == AFFINE:
        if q ** n > SIZE_LIMIT:
            raise SizeOverflow(f"A^{n}({spec}) has more than {SIZE_LIMIT} points")
        elems = enumerate_field(spec)
        pts = [AffinePoint(c) for c in itertools.product(elems, repeat=n)]
    elif kind == PROJECTIVE:
        total = (q ** (n + 1) - 1) // (q - 1)
        if total > SIZE_LIMIT:
            raise SizeOverflow(f"P^{n}({spec}) has more than {SIZE_LIMIT} points")
        elems = enumerate_field(spec)
        pts = []
        zero, one = elems[0], elems[1]
        for lead in range(n + 1):
            head = (zero,) * lead + (one,)
            for tail in itertools.product(elems, repeat=n - lead):
                pts.append(ProjectivePoint(head + tail))
    else:
        raise ValueError(f"unknown space kind {kind!r}")
    pts.sort(key=lambda p: p.key)
    return Variety(kind, spec, n, tuple(pts))


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
    space = enumerate_space(point_spec, n, kind)
    gens = [g for g in I.gens if not g.is_zero]
    kept = tuple(p for p in space.points
                 if all(not g.evaluate(p.coords) for g in gens))
    return Variety(kind, point_spec, n, kept)


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


def oracle_vanishing_ideal(V, spec=None, vars=None):
    """I(V) by intersecting the point ideals, one point at a time.

    The fold runs left to right over the sorted points; the result does
    not depend on that order, which the tests check separately.
    """
    if not V.points:
        raise EmptyVariety("the oracle needs at least one point")
    ideals = [point_ideal(p, spec, vars) for p in V.points]
    acc = ideals[0]
    for nxt in ideals[1:]:
        acc = ideal_intersect(acc, nxt)
    return acc
