"""Bounded search for composed-form membership witnesses.

The claim under test: whenever f lies in the vanishing ideal of the
affine zero set of I, some composed form with only the trivial zero
should certify the membership.  Three families of composed forms are
searched (written in fresh variables y0, y1, ...):

  r1  p(y0^n, y1, ..., ym) for an anisotropic p and inner exponent n;
  r2  p(s(y0, ..., yn), y_{n+1}, ..., y_{n+m}), one nested form;
  r3  chains p_i(...p_2(p_1(y0..y_{m_1}), y_{m_1+1}..y_{m_2})...) with
      breakpoints m_1 <= ... <= m_i.

A witness is such a composed form plus ring arguments f_1, ..., f_m
with p(f, f_1, ..., f_m) in I, verified through a Groebner membership
test.  Candidates run in a documented canonical order (family
structure ascending, then forms, then argument tuples in pool order)
and an exhausted search reports exactly how many candidates the bounds
admit.  The search prunes soundly: a composed form with only the
trivial zero forces every argument to vanish on the zero set of I, and
membership only depends on argument residues modulo I, so distinct
arguments with equal residues share one composition test.

Residues are composed from memos.  The residue of an argument monomial
prod args[i]^e[i] is built from the one with a single exponent lowered,
by one product and one normal form, and a composition p(args) is the
sum of c times the monomial residue over the terms c*y^e of p; normal
form is linear, so the sum is already reduced.  Both memos depend only
on the reduced basis of I, so they are kept on the Ideal: every search
over the same Ideal object (the suite's six, or a caller's repeats)
shares them, and a freshly built Ideal starts empty.

The fourth family from the same source is stated over an infinite
product and has no finite candidate enumeration at these bounds, so it
is not searched.

counterexample_suite packages the standing counterexample: over GF(2)
with I = <X1>, the vanishing ideal of Z(I) is <X1, X2^2 - X2>, yet no
bounded witness places X2^2 - X2 there, while the easy member X1 is
witnessed immediately.
"""

import itertools
import threading
from dataclasses import dataclass, field as dc_field

from .errors import NotPrime, RingMismatch, SizeOverflow, SuiteFailure
from .field import enumerate_field, is_subfield, make_field, prime_power
from .groebner import normal_form
from .ideals import (
    Ideal,
    ideal_sum,
    is_homogeneous_ideal,
    radical_membership,
    reduced,
)
from .nullstellensatz import NullConfig, affine_vanishing, gamma_q_star
from .poly import DEGREVLEX, Polynomial, parse_polynomial
from .varieties import (
    AFFINE,
    PROJECTIVE,
    PointTable,
    oracle_vanishing_ideal,
    space_table,
    zero_set,
)

FAMILIES = ("r1", "r2", "r3")

# Candidate coefficient vectors per enumeration are capped here.
_ENUM_LIMIT = 2_000_000


@dataclass(frozen=True)
class SearchBounds:
    """Caps for the candidate enumeration; the defaults finish in minutes."""

    max_m: int = 2
    max_deg_p: int = 4
    max_deg_args: int = 2
    max_chain: int = 2
    max_inner_exp: int = 3

    def __str__(self):
        return (f"m<={self.max_m} degp<={self.max_deg_p} "
                f"degargs<={self.max_deg_args} chain<={self.max_chain} "
                f"exp<={self.max_inner_exp}")


@dataclass
class RWitness:
    """A verified composed-form membership witness.

    forms holds the constituent anisotropic forms: one form for r1
    (with inner_exp), the inner and outer form for r2, the whole chain
    for r3.  breakpoints holds (m,) for r1 and the partial variable
    counts (m_1, ..., m_i) for r2/r3.  args are the m_i ring
    polynomials substituted after the target.
    """

    family: str
    forms: tuple
    breakpoints: tuple
    args: tuple
    target: Polynomial
    ideal: Ideal
    inner_exp: int | None = None

    def chain(self):
        """(forms, breakpoints) of the witness as a chain of forms.

        r2 and r3 witnesses already are chains; an r1 witness
        p(y0^n, y1, ..., ym) is the chain y0^n, then p, with
        breakpoints (0, m).
        """
        if self.family != "r1":
            return self.forms, self.breakpoints
        p = self.forms[0]
        inner = Polynomial.variable(p.spec, ("y0",), "y0") ** self.inner_exp
        return (inner, p), (0, self.breakpoints[0])

    def substituted_form(self):
        """The composed polynomial in the y variables."""
        forms, breakpoints = self.chain()
        vars = _yvars(breakpoints[-1])
        ys = [Polynomial.variable(forms[0].spec, vars, v) for v in vars]
        h = ys[0]
        prev = 0
        for p, stop in zip(forms, breakpoints):
            h = p.compose([h] + ys[prev + 1:stop + 1])
            prev = stop
        return h

    def composition(self):
        return self.substituted_form().compose([self.target, *self.args])

    def describe(self):
        lines = [f"family: {self.family}"]
        for i, p in enumerate(self.forms):
            lines.append(f"form {i}: {p}")
        if self.inner_exp is not None:
            lines.append(f"inner exponent: {self.inner_exp}")
        lines.append(f"breakpoints: {list(self.breakpoints)}")
        lines.append("args: [" + ", ".join(str(a) for a in self.args) + "]")
        lines.append(f"composition: {self.composition()}")
        return "\n".join(lines)


@dataclass
class Exhausted:
    """Negative search outcome with the exact candidate count."""

    family: str
    candidates: int
    bounds: SearchBounds


def _yvars(m):
    return tuple(f"y{i}" for i in range(m + 1))


def _degree_monomials(nvars, d):
    """Exponent tuples of total degree d, descending in degrevlex."""
    monos = set()
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        monos.add(tuple(exps))
    return sorted(monos, key=DEGREVLEX.key, reverse=True)


def check_form_class(p, kind, K):
    """Decide membership of p in P_K (zeros inside y0 = 0) or P_K0
    (only the trivial zero); false rather than an error on anything
    non-homogeneous."""
    if kind not in ("P_K", "P_K0"):
        raise ValueError(f"unknown form class {kind!r}")
    if not is_subfield(p.spec, K):
        raise RingMismatch(f"{p.spec} does not embed into {K}")
    if not p.is_homogeneous:
        return False
    space = space_table(K, len(p.vars), AFFINE)
    values, = space.evaluate(p)
    if kind == "P_K":
        return all(y0 == 0 or v for y0, v in zip(space.cols[0], values))
    # the origin comes first in the enumeration
    return not values[0] and all(values[1:])


_FORM_CACHE = {}
_FORM_CACHE_LOCK = threading.Lock()


def _anisotropic_forms_of_degree(K, m, d):
    """Monic forms in y0..ym of degree d with only the trivial zero,
    in canonical order (coefficient vectors over the descending
    monomial basis, lexicographically).  Cached per (K, m, d); the lock
    spans lookup and insert, so concurrent callers share one tuple."""
    key = (K, m, d)
    with _FORM_CACHE_LOCK:
        if key not in _FORM_CACHE:
            _FORM_CACHE[key] = _build_anisotropic_forms(K, m, d)
        return _FORM_CACHE[key]


def _build_anisotropic_forms(K, m, d):
    monos = _degree_monomials(m + 1, d)
    add, mul = K.add, K.mul

    def anisotropic(vec):
        for row in rows:
            s = 0
            for v, cell in zip(vec, row):
                if v:
                    s = add[s][mul[v][cell]]
            if not s:
                return False
        return True

    # The size check runs at this call, before the point table is built;
    # anisotropic only runs once the forms are drawn.
    forms = _vector_polys(
        K, _yvars(m), monos, "{q}^{n} candidate forms exceed the search limit",
        monic=True, keep=anisotropic)
    space = space_table(K, m + 1, AFFINE)
    space = space.take(range(1, space.size))  # the origin comes first
    rows = list(zip(*(space.monomial(mono) for mono in monos)))
    return tuple(forms)


def enumerate_forms(K, m, max_deg):
    """All anisotropic monic forms in y0..ym up to max_deg, by degree."""
    out = []
    for d in range(1, max_deg + 1):
        out.extend(_anisotropic_forms_of_degree(K, m, d))
    return tuple(out)


def argument_pool(spec, vars, max_deg):
    """Every polynomial of total degree <= max_deg, zero first, in
    canonical vector order over the descending monomial basis."""
    monos = []
    for d in range(max_deg, -1, -1):
        monos.extend(_degree_monomials(len(vars), d))
    return tuple(_vector_polys(
        spec, vars, monos, "{q}^{n} argument candidates exceed the limit"))


def _vector_polys(spec, vars, monos, too_many, monic=False, keep=None):
    """Polynomials over the monomial basis monos, one per coefficient
    vector in lexicographic order, as a lazy iterator.

    The size check runs at the call: too_many is the SizeOverflow
    message (with {q} and {n} for the field size and basis length)
    raised when the vectors exceed _ENUM_LIMIT.  monic skips vectors
    whose first nonzero entry is not 1; keep, when given, is tested on
    the vector before a polynomial is built.
    """
    if spec.q ** len(monos) > _ENUM_LIMIT:
        raise SizeOverflow(too_many.format(q=spec.q, n=len(monos)))
    elems = enumerate_field(spec)
    return (Polynomial(spec, vars, {
                monos[mi]: elems[v] for mi, v in enumerate(vec) if v})
            for vec in itertools.product(range(spec.q), repeat=len(monos))
            if (not monic or next((v for v in vec if v), 0) == 1)
            and (keep is None or keep(vec)))


class _SearchContext:
    """Shared state for one bounded search over one target and ideal.

    The residue memos live on the ideal (Ideal._residues), not here:
    _monomials maps the nonzero (argument, exponent) pairs of an argument
    monomial to its residue, and _compose maps (p, args) to the residue
    of p(args).  Both hold pure values, so concurrent searches on one
    ideal at worst compute an entry twice.
    """

    def __init__(self, f, I, bounds):
        if f.spec is not I.spec or f.vars != I.vars:
            raise RingMismatch("target and ideal live in different rings")
        self.f = f
        self.ideal = I
        self.bounds = bounds
        K = I.spec
        self.basis = I.gb()
        zeros = zero_set(I, K, AFFINE)
        self.zero_pts = PointTable.of_points(K, zeros.points, zeros.n)
        self.f_vanishes = not any(self.zero_pts.evaluate(f)[0])
        self.f_res = normal_form(f, self.basis)
        self.pool = argument_pool(I.spec, I.vars, bounds.max_deg_args)
        self.residue_of = {}
        residues = {}
        for g in self.pool:
            r = normal_form(g, self.basis)
            self.residue_of[g] = r
            if r not in residues:
                residues[r] = not any(self.zero_pts.evaluate(r)[0])
        # Only residues vanishing on the zero set can take part in a
        # membership: the composed form kills nonzero argument values.
        self.vanishing_residues = tuple(
            r for r, ok in residues.items() if ok)
        self.forms = {m: enumerate_forms(K, m, bounds.max_deg_p)
                      for m in range(bounds.max_m + 1)}
        self._monomials = I._residues.setdefault("monomials", {})
        self._compose = I._residues.setdefault("compose", {})

    def _monomial_mod(self, key):
        """Residue of the product of a^e over the pairs (a, e) of key,
        from the residue with the last exponent lowered by one."""
        out = self._monomials.get(key)
        if out is None:
            if key:
                a, e = key[-1]
                rest = key[:-1] + ((a, e - 1),) if e > 1 else key[:-1]
                out = self._monomial_mod(rest) * a
            else:
                out = Polynomial.constant(self.ideal.spec, self.ideal.vars, 1)
            out = normal_form(out, self.basis)
            self._monomials[key] = out
        return out

    def compose_mod(self, p, args):
        """Residue of p(args) modulo the ideal, memoized."""
        key = (p, args)
        out = self._compose.get(key)
        if out is None:
            terms = {}
            for exps, c in p.terms.items():
                mono = tuple((a, e) for a, e in zip(args, exps) if e)
                for m, v in self._monomial_mod(mono).terms.items():
                    terms[m] = terms[m] + c * v if m in terms else c * v
            out = Polynomial(self.ideal.spec, self.ideal.vars, terms)
            self._compose[key] = out
        return out

    def first_passing_args(self, nargs, passing):
        """Canonically first argument tuple whose residues pass."""
        for args in itertools.product(self.pool, repeat=nargs):
            if tuple(self.residue_of[g] for g in args) in passing:
                return args
        return None


def _structures(ctx, family):
    """The family's witnesses without arguments, in canonical order."""
    f, I, b, forms = ctx.f, ctx.ideal, ctx.bounds, ctx.forms
    if family == "r1":
        for m in range(b.max_m + 1):
            for p in forms[m]:
                for nexp in range(1, b.max_inner_exp + 1):
                    yield RWitness("r1", (p,), (m,), (), f, I, inner_exp=nexp)
    elif family == "r2":
        for total in range(b.max_m + 1):
            for n_in in range(total + 1):
                for s in forms[n_in]:
                    for p in forms[total - n_in]:
                        yield RWitness("r2", (s, p), (n_in, total), (), f, I)
    else:
        for chain_len in range(1, b.max_chain + 1):
            for bps in itertools.combinations_with_replacement(
                    range(b.max_m + 1), chain_len):
                slots = [stop - start for start, stop in zip((0,) + bps, bps)]
                for chain in itertools.product(*[forms[s] for s in slots]):
                    yield RWitness("r3", chain, bps, (), f, I)


def search_witness(f, I, family, bounds=None):
    """First verified witness in canonical order, or Exhausted.

    The candidate count in an Exhausted result is exact over the full
    structural space (every form choice, inner datum and argument
    tuple within bounds), even though testing collapses arguments by
    residue.
    """
    family = family.lower()
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    bounds = bounds or SearchBounds()
    ctx = _SearchContext(f, I, bounds)
    count = 0
    for w in _structures(ctx, family):
        forms, breakpoints = w.chain()
        nargs = breakpoints[-1]
        count += len(ctx.pool) ** nargs
        if not ctx.f_vanishes:
            continue
        passing = set()
        for combo in itertools.product(ctx.vanishing_residues, repeat=nargs):
            h = ctx.f_res
            prev = 0
            for p, stop in zip(forms, breakpoints):
                h = ctx.compose_mod(p, (h, *combo[prev:stop]))
                prev = stop
            if h.is_zero:
                passing.add(combo)
        if not passing:
            continue
        w.args = ctx.first_passing_args(nargs, passing)
        if verify_kradical_witness(w):
            return w
    return Exhausted(family, count, bounds)


def verify_kradical_witness(w):
    """Bound-free check of a witness: form classes plus membership."""
    K = w.forms[0].spec
    for p in w.forms:
        if not check_form_class(p, "P_K0", K):
            return False
    if w.family == "r1" and (w.inner_exp is None or w.inner_exp < 1):
        return False
    if len(w.args) != w.breakpoints[-1]:
        return False
    return w.ideal.contains(w.composition())


def as_r2(w):
    """Embed an r1 witness: the inner power becomes a nested form."""
    if w.family != "r1":
        raise ValueError("expected an r1 witness")
    return RWitness("r2", *w.chain(), w.args, w.target, w.ideal)


def as_r3(w):
    """Embed an r2 witness as a chain of length two."""
    if w.family != "r2":
        raise ValueError("expected an r2 witness")
    return RWitness("r3", w.forms, w.breakpoints, w.args, w.target, w.ideal)


@dataclass
class SuiteStep:
    name: str
    passed: bool
    detail: str
    vacuous: bool = False
    group: str = ""


@dataclass
class SuiteReport:
    steps: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return all(s.passed for s in self.steps)

    def groups(self):
        """Ordered (group, all-steps-passed) pairs."""
        seen = {}
        for s in self.steps:
            seen[s.group] = seen.get(s.group, True) and s.passed
        return list(seen.items())

    def add(self, name, passed, detail, vacuous=False, group=""):
        self.steps.append(SuiteStep(name, passed, detail, vacuous, group))

    def format(self):
        lines = []
        total = len(self.steps)
        for i, s in enumerate(self.steps, 1):
            status = "PASS" if s.passed else (
                "VACUOUS" if s.vacuous else "FAIL")
            lines.append(f"[{i}/{total}] {s.name}: {status} ({s.detail})")
        groups = self.groups()
        lines.append(f"groups passed: {sum(ok for _, ok in groups)}"
                     f"/{len(groups)}")
        lines.append("suite: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def counterexample_suite(bounds=None, ideal_override=None,
                         raise_on_failure=True):
    """Checked walk through the standing counterexample over GF(2).

    Steps: the affine vanishing ideal of I = <X1> matches the oracle
    and equals <X1, X2^2 - X2>; that ideal is not homogeneous; every
    family search for X2^2 - X2 exhausts with a positive candidate
    count; every family finds and verifies a witness for the easy
    member X1.  Searches admitting zero candidates are flagged vacuous
    and fail the suite rather than passing silently.
    """
    K = make_field(2)
    bounds = bounds or SearchBounds()
    vars = ("X1", "X2")
    I = ideal_override if ideal_override is not None else Ideal.from_strings(
        K, vars, ["X1"])
    f = parse_polynomial("X2^2 - X2", vars, K)
    easy = parse_polynomial("X1", vars, K)
    cfg = NullConfig(K, K, vars)
    report = SuiteReport()

    try:
        van = affine_vanishing(I, cfg)
        orc = reduced(oracle_vanishing_ideal(
            zero_set(I, K, AFFINE), spec=K, vars=vars))
        agree = van.equals(orc)
        detail = f"I(Z) = {van}"
        if ideal_override is None:
            expected = Ideal.from_strings(K, vars, ["X1", "X2^2 - X2"])
            agree = agree and van.equals(expected)
        report.add("affine formula matches oracle", agree, detail,
                   group="formula")
    except Exception as exc:  # noqa: BLE001 - a failing step is reported
        van = None
        report.add("affine formula matches oracle", False, str(exc),
                   group="formula")

    if van is not None:
        inhomog = (not is_homogeneous_ideal(van)) and not f.is_homogeneous
        member = van.contains(f)
        report.add("target is a non-homogeneous member", inhomog and member,
                   f"f = {f}", group="membership")
    else:
        report.add("target is a non-homogeneous member", False,
                   "no vanishing ideal to test", group="membership")

    for family in FAMILIES:
        try:
            out = search_witness(f, I, family, bounds)
        except Exception as exc:  # noqa: BLE001
            report.add(f"{family} search exhausts for f", False, str(exc),
                       group="exhaustion")
            continue
        if isinstance(out, Exhausted):
            if out.candidates > 0:
                report.add(f"{family} search exhausts for f", True,
                           f"{out.candidates} candidates",
                           group="exhaustion")
            else:
                report.add(f"{family} search exhausts for f", False,
                           "vacuous: bounds admit no candidates",
                           vacuous=True, group="exhaustion")
        else:
            report.add(f"{family} search exhausts for f", False,
                       f"unexpected witness: {out.describe()}",
                       group="exhaustion")

    for family in FAMILIES:
        try:
            out = search_witness(easy, I, family, bounds)
        except Exception as exc:  # noqa: BLE001
            report.add(f"{family} finds the easy member", False, str(exc),
                       group="controls")
            continue
        if isinstance(out, RWitness) and verify_kradical_witness(out):
            report.add(f"{family} finds the easy member", True,
                       f"forms = {[str(p) for p in out.forms]}",
                       group="controls")
        elif isinstance(out, Exhausted) and out.candidates == 0:
            report.add(f"{family} finds the easy member", False,
                       "vacuous: bounds admit no candidates", vacuous=True,
                       group="controls")
        else:
            report.add(f"{family} finds the easy member", False,
                       "no witness found", group="controls")

    if raise_on_failure and not report.ok:
        first = next(s for s in report.steps if not s.passed)
        err = SuiteFailure(f"suite step failed: {first.name} ({first.detail})")
        err.report = report
        raise err
    return report


@dataclass
class NonRadicalInstance:
    """An ideal whose homogeneous field-equation sum is not radical."""

    ideal: Ideal
    witness: Polynomial
    with_gamma: Ideal


def find_nonradical_instance(q, n, max_gen_degree):
    """Smallest-first search for I with (I + Gamma_q^*) not radical.

    Enumerates homogeneous ideals with at most two monic generators of
    degree <= max_gen_degree in n+1 variables, skips empty zero sets,
    and returns the first instance where I(V) strictly exceeds
    I + Gamma_q^*, together with a verified witness member of the
    radical that is not in the ideal itself.  I(V), which the colon
    result equals, is interpolated from the zero set V the emptiness
    test has already enumerated (varieties.oracle_vanishing_ideal).
    """
    pe = prime_power(q)
    if pe is None:
        raise NotPrime(f"{q} is not a prime power")
    spec = make_field(*pe)
    vars = tuple(f"X{i}" for i in range(n + 1))
    cfg = NullConfig(spec, spec, vars)
    forms = []
    for d in range(1, max_gen_degree + 1):
        forms.extend(_vector_polys(
            spec, vars, _degree_monomials(n + 1, d),
            "generator enumeration exceeds the limit", monic=True))
    candidates = itertools.chain(
        ((g,) for g in forms),
        itertools.combinations(forms, 2))
    gamma = gamma_q_star(cfg)
    for gens in candidates:
        I = Ideal(spec, vars, gens)
        V = zero_set(I, spec, PROJECTIVE)
        if not V.points:
            continue
        J = ideal_sum(I, gamma)
        vanishing = oracle_vanishing_ideal(V, spec=spec, vars=vars)
        if vanishing.equals(J):
            continue
        jbasis = J.gb()
        witness = next(g for g in vanishing.gens
                       if not normal_form(g, jbasis).is_zero)
        if not radical_membership(witness, J) or J.contains(witness):
            continue
        return NonRadicalInstance(I, witness, J)
    return None
