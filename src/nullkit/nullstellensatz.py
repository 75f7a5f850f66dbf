"""Closed formulas for vanishing ideals over a finite point field.

Everything here is parameterized by a NullConfig: the coefficient field
of the ring, the field the points live in (of size q), and the ambient
variable list.  The affine vanishing ideal is I plus the field equations
X_i^q - X_i.  The projective one comes in three interchangeable ways:

  colon       (I + Gamma_q^*) : <X_0^d, ..., X_n^d> with
              d = (sum of generator degrees)(q - 1) + 1, one quotient;
  saturation  (I + Gamma_q^*) : <X_0, ..., X_n>^infinity, with the
              number of quotient rounds that reach it;
  oracle      Buchberger-Moller interpolation of the enumerated zero
              set (varieties.oracle_vanishing_ideal), no closed formula.

An empty projective zero set is never answered with a unit ideal
silently; classify_empty names which branch of the dichotomy holds.
Certificates make the colon result constructive: for each j the pair
g_j, l_j splits X_j^d into a part inside I and a part vanishing off the
zero set, and for a member f the products give an explicit identity
X_j^d * f = g_j * f + l_j * f with g_j * f in I and l_j * f in
Gamma_q^*.  Whether f is a member at all is read off the zero set by
evaluating f at its points, so certifying a member runs no colon; a
refused f gets the colon result in its error message.  A certificate
of degree d has up to C(d+n, n) terms, so inputs whose bound passes
CERTIFICATE_LIMIT are refused before any is built; its check evaluates
the expanded g_j and l_j at every point of P^n through the point tables
of varieties.
"""

import math
import time
from dataclasses import dataclass, field as dc_field

from .errors import (
    ClassificationFailure,
    DimensionMismatch,
    EmptyVariety,
    FieldMismatch,
    InconsistentTower,
    NonHomogeneousGenerator,
    NotInVanishingIdeal,
    NullkitError,
    RingMismatch,
    SizeOverflow,
    ZeroGeneratorCount,
)
from .field import in_subfield_image, is_subfield
from .ideals import Ideal, ideal_quotient, ideal_saturate, ideal_sum, reduced
from .groebner import normal_form
from .poly import Polynomial
from .varieties import (
    PROJECTIVE,
    PointTable,
    ProjectivePoint,
    oracle_vanishing_ideal,
    space_table,
    zero_set,
)

METHODS = ("colon", "saturation", "oracle")

# Certificates whose bound C(d+n, n) on the number of terms (or, in P^0,
# whose degree d) passes this are refused; the largest the tests and
# benchmarks build has 171 terms.
CERTIFICATE_LIMIT = 10_000

NONEMPTY = "nonempty"
EMPTY_UNIT = "empty_unit"
EMPTY_IRRELEVANT = "empty_irrelevant"


@dataclass
class NullConfig:
    """Ring and point-field context for the vanishing-ideal formulas.

    k_spec carries the ring coefficients and K_spec the points; q always
    means the size of K_spec.  The two specs must sit in one tower: the
    usual case is k inside K, and a larger coefficient field on top of
    the point field covers the extension-scalars variant.
    """

    k_spec: object
    K_spec: object
    vars: tuple

    def __post_init__(self):
        self.vars = tuple(self.vars)
        if not (is_subfield(self.k_spec, self.K_spec)
                or is_subfield(self.K_spec, self.k_spec)):
            raise InconsistentTower(
                f"{self.k_spec} and {self.K_spec} do not form a tower")

    @property
    def q(self):
        return self.K_spec.q


@dataclass
class MethodReport:
    method: str
    wall_ms: float
    quotient_rounds: int
    gb_size: int
    degree_bound: int | None = None


def _check_ring(I, cfg):
    if I.spec is not cfg.k_spec or I.vars != cfg.vars:
        raise RingMismatch(
            f"{I} does not live in {cfg.k_spec}[{','.join(cfg.vars)}]")


def _check_coefficients(I, cfg):
    """Extension-scalars inputs must keep coefficients in the point field."""
    if cfg.k_spec is cfg.K_spec or is_subfield(cfg.k_spec, cfg.K_spec):
        return
    for g in I.gens:
        for c in g.terms.values():
            if not in_subfield_image(c, cfg.K_spec):
                raise FieldMismatch(
                    f"coefficient {c} of {g} lies outside the image of "
                    f"{cfg.K_spec}; mixed-coefficient inputs are rejected")


def _check_homogeneous_gens(I):
    for g in I.gens:
        if not g.is_homogeneous:
            raise NonHomogeneousGenerator(f"{g} is not homogeneous")


def gamma_q(cfg):
    """Field equations <X_i^q - X_i> of the point field, one per variable."""
    spec, vars, q = cfg.k_spec, cfg.vars, cfg.q
    gens = []
    for name in vars:
        x = Polynomial.variable(spec, vars, name)
        gens.append(x ** q - x)
    return Ideal(spec, vars, tuple(gens))


def gamma_q_star(cfg):
    """Homogeneous field equations <X_i^q X_j - X_j^q X_i> for i < j."""
    spec, vars, q = cfg.k_spec, cfg.vars, cfg.q
    gens = []
    for i in range(len(vars)):
        xi = Polynomial.variable(spec, vars, vars[i])
        for j in range(i + 1, len(vars)):
            xj = Polynomial.variable(spec, vars, vars[j])
            gens.append(xi ** q * xj - xj ** q * xi)
    return Ideal(spec, vars, tuple(gens))


def irrelevant_ideal(spec, vars):
    return Ideal(spec, vars, tuple(
        Polynomial.variable(spec, vars, v) for v in vars))


def power_ideal(spec, vars, d):
    return Ideal(spec, vars, tuple(
        Polynomial.variable(spec, vars, v) ** d for v in vars))


def _fold_exponents(g, q):
    """g with each exponent e >= 1 replaced by ((e - 1) mod (q - 1)) + 1,
    which X_i^q - X_i allows: the two differ by an element of Gamma_q."""
    terms = {}
    for exps, c in g.terms.items():
        e = tuple((x - 1) % (q - 1) + 1 if x else 0 for x in exps)
        terms[e] = terms[e] + c if e in terms else c
    return Polynomial(g.spec, g.vars, terms)


def affine_vanishing(I, cfg):
    """I(Z_K(I)) = I + Gamma_q, returned as a reduced basis.

    The generators' exponents are folded below q first (_fold_exponents),
    which leaves I + Gamma_q unchanged, so huge exponents stay within the
    Groebner degree limit.  This is affine only: Gamma_q^* allows no such
    step.  An empty zero set falls out as the unit ideal with no special
    case.
    """
    _check_ring(I, cfg)
    _check_coefficients(I, cfg)
    folded = Ideal(I.spec, I.vars,
                   [_fold_exponents(g, cfg.q) for g in I.gens])
    return reduced(ideal_sum(folded, gamma_q(cfg)))


def degree_bound(I, q):
    """d = (d_1 + ... + d_r)(q - 1) + 1 over the stored generator list.

    The bound depends on the presentation, not just the ideal; zero
    generators contribute nothing.
    """
    total = 0
    for h in I.gens:
        if h.is_zero:
            continue
        if not h.is_homogeneous:
            raise NonHomogeneousGenerator(f"{h} is not homogeneous")
        total += h.total_degree()
    return total * (q - 1) + 1


def certificate_degree(I, cfg):
    """degree_bound(I, q), refused with SizeOverflow when the
    certificates it gives would pass CERTIFICATE_LIMIT."""
    d = degree_bound(I, cfg.q)
    n = len(cfg.vars) - 1
    if d > CERTIFICATE_LIMIT or math.comb(d + n, n) > CERTIFICATE_LIMIT:
        raise SizeOverflow(
            f"certificate too large: C(d+{n}, {n}) or d passes the limit "
            f"{CERTIFICATE_LIMIT}")
    return d


def _nonempty_zero_set(I, cfg):
    V = zero_set(I, cfg.K_spec, PROJECTIVE)
    if not V.points:
        raise EmptyVariety(
            "the projective zero set is empty; use classify_empty")
    return V


def _colon(I, cfg):
    """(I + Gamma_q^*) : <X_0^d, ..., X_n^d>, unreduced, and its d."""
    d = degree_bound(I, cfg.q)
    J = ideal_sum(I, gamma_q_star(cfg))
    return ideal_quotient(J, power_ideal(cfg.k_spec, cfg.vars, d)), d


def projective_vanishing(I, cfg, method="colon"):
    """I(V_K(I)) for a nonempty projective zero set, plus a run report."""
    _check_ring(I, cfg)
    _check_coefficients(I, cfg)
    _check_homogeneous_gens(I)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    V = _nonempty_zero_set(I, cfg)
    start = time.perf_counter()
    d = None
    if method == "colon":
        result, d = _colon(I, cfg)
        rounds = 1
    elif method == "saturation":
        J = ideal_sum(I, gamma_q_star(cfg))
        result, rounds = ideal_saturate(
            J, irrelevant_ideal(cfg.k_spec, cfg.vars))
    else:
        result = oracle_vanishing_ideal(V, spec=cfg.k_spec, vars=cfg.vars)
        rounds = 0
    result = reduced(result)
    wall_ms = (time.perf_counter() - start) * 1000.0
    report = MethodReport(method, wall_ms, rounds, len(result.gens), d)
    return result, report


def classify_empty(I, cfg):
    """Which branch of the emptiness dichotomy holds for V_K(I).

    Returns "nonempty", "empty_unit" (1 lies in I) or "empty_irrelevant"
    (I plus the affine field equations is exactly the irrelevant
    maximal ideal).  Anything else raises ClassificationFailure loudly.
    """
    _check_ring(I, cfg)
    _check_coefficients(I, cfg)
    _check_homogeneous_gens(I)
    V = zero_set(I, cfg.K_spec, PROJECTIVE)
    if V.points:
        return NONEMPTY
    if I.gb().is_unit:
        return EMPTY_UNIT
    with_gamma = ideal_sum(I, gamma_q(cfg))
    m = irrelevant_ideal(cfg.k_spec, cfg.vars)
    if with_gamma.equals(m):
        return EMPTY_IRRELEVANT
    raise ClassificationFailure(
        f"{I} has an empty zero set but fits neither branch")


@dataclass
class Certificate:
    """Split of X_j^d into g (inside I) and l (vanishing off V).

    After certify_membership the product fields are filled in:
    X_j^d * f = g * f + l * f with g * f in I and l * f in Gamma_q^*.
    """

    j: int
    d: int
    g: Polynomial
    l: Polynomial
    f: Polynomial | None = dc_field(default=None, repr=False)
    g_times_f: Polynomial | None = dc_field(default=None, repr=False)
    l_times_f: Polynomial | None = dc_field(default=None, repr=False)


def _certificate_parts(I, j, d, cfg):
    """g_j = X_j^d - X_j prod_i (X_j^{d_i(q-1)} - h_i^{q-1}) and its mate."""
    spec, vars, q = cfg.k_spec, cfg.vars, cfg.q
    xj = Polynomial.variable(spec, vars, vars[j])
    prod = Polynomial.constant(spec, vars, 1)
    for h in I.gens:
        if h.is_zero:
            continue
        di = h.total_degree()
        prod = prod * (xj ** (di * (q - 1)) - h ** (q - 1))
    head = xj ** d
    g = head - xj * prod
    return g, head - g


def make_certificate(I, j, cfg):
    """Certificate pair for index j, verified before it is returned."""
    _check_ring(I, cfg)
    _check_coefficients(I, cfg)
    _check_homogeneous_gens(I)
    if not 0 <= j < len(cfg.vars):
        raise DimensionMismatch(f"index {j} outside 0..{len(cfg.vars) - 1}")
    live = [h for h in I.gens if not h.is_zero]
    if not live or len(live) != len(I.gens):
        raise ZeroGeneratorCount(
            "certificates need at least one generator and no zero ones")
    d = certificate_degree(I, cfg)
    V = zero_set(I, cfg.K_spec, PROJECTIVE)
    if not V.points:
        raise EmptyVariety("certificates need a nonempty zero set")
    g, l = _certificate_parts(I, j, d, cfg)
    _verify_certificate(I, j, d, g, l, V, cfg)
    return Certificate(j, d, g, l)


def _verify_certificate(I, j, d, g, l, V, cfg):
    xj = Polynomial.variable(cfg.k_spec, cfg.vars, cfg.vars[j])
    if g + l != xj ** d:
        raise NullkitError(f"certificate split for j={j} does not sum")
    if not g.is_homogeneous or (g and g.total_degree() != d):
        raise NullkitError(f"g_{j} is not homogeneous of degree {d}")
    if not I.contains(g):
        raise NullkitError(f"g_{j} fell outside the input ideal")
    on_v = {p.key for p in V.points}
    space = space_table(cfg.K_spec, len(cfg.vars) - 1, PROJECTIVE)
    for key, at_g, at_l in zip(space.keys(), *space.evaluate(g, l)):
        name, value = ("g", at_g) if key in on_v else ("l", at_l)
        if value:
            p = ProjectivePoint(tuple(map(cfg.K_spec.element, key)))
            raise NullkitError(f"{name}_{j} does not vanish at {p}")


def certify_membership(f, I, cfg):
    """Explicit identities placing f in the colon result, one per index.

    Membership in I(V) is decided by evaluating f on the zero set V,
    which the colon result equals; the certificates then prove the colon
    membership.  Only a refused f pays for the colon, which the error
    message prints.  Accepts the degenerate zero ideal, where every g
    side collapses to zero and the l side carries everything.
    """
    _check_ring(I, cfg)
    _check_coefficients(I, cfg)
    _check_homogeneous_gens(I)
    if f.spec is not cfg.k_spec or f.vars != cfg.vars:
        raise RingMismatch(f"{f} does not live in the configured ring")
    if not f.is_homogeneous:
        raise NonHomogeneousGenerator(f"{f} is not homogeneous")
    if any(h.is_zero for h in I.gens):
        raise ZeroGeneratorCount("stored generators must be nonzero")
    d = certificate_degree(I, cfg)
    V = _nonempty_zero_set(I, cfg)
    table = PointTable.of_points(cfg.K_spec, V.points, len(cfg.vars))
    if any(table.evaluate(f)[0]):
        # V is known nonempty, so the colon runs without enumerating it
        # again, as projective_vanishing would.
        vanishing = reduced(_colon(I, cfg)[0])
        raise NotInVanishingIdeal(f"{f} is not in {vanishing}")
    gamma_star_basis = gamma_q_star(cfg).gb()
    certs = []
    for j in range(len(cfg.vars)):
        g, l = _certificate_parts(I, j, d, cfg)
        _verify_certificate(I, j, d, g, l, V, cfg)
        gf = g * f
        lf = l * f
        xj = Polynomial.variable(cfg.k_spec, cfg.vars, cfg.vars[j])
        if gf + lf != xj ** d * f:
            raise NullkitError(f"membership split for j={j} does not sum")
        if not I.contains(gf):
            raise NullkitError(f"g_{j} * f fell outside the input ideal")
        if not normal_form(lf, gamma_star_basis).is_zero:
            raise NullkitError(f"l_{j} * f fell outside Gamma_q^*")
        certs.append(Certificate(j, d, g, l, f, gf, lf))
    return certs
