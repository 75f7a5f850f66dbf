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

Residues are composed from memos, on int ids: each residue modulo I is
interned once, and a composition vanishes when its id is the zero
residue's.  The residue of an argument monomial prod args[i]^e[i] is
built from the one with a single exponent lowered, by one product and
one normal form.  A composition p(args) is the sum of c times the
monomial residue over the terms c*y^e of p, one memoized partial sum at
a time; normal form is linear, so the sum is already reduced.  The
memos, and the set-up that depends only on I and the argument degree
bound, are kept on the Ideal: every search over the same Ideal object
(the suite's six, or a caller's repeats) shares them, under a lock for
interning, and a freshly built Ideal starts empty.

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


class _Residues:
    """Residues modulo one ideal, shared by every search over it.

    Kept in Ideal._residues["search"].  Each residue polynomial is
    interned once: ids maps it to a small int and polys maps the int
    back, so the searches hash and compare ints.  monomials maps the
    (argument id, exponent) pairs of an argument monomial to the id of
    its residue, sums maps (a, c, b) to the id of a + c*b, forms maps a
    form to its _Form, and setups maps an argument degree bound to the
    set-up that depends only on the ideal and that bound.

    Every entry is a pure value, so concurrent searches at worst
    compute one twice.  Interning checks, then appends, so it holds
    the lock; a set-up is built whole and published by one setdefault.
    """

    def __init__(self, I):
        self.spec, self.vars = I.spec, I.vars
        self.basis = I.gb()
        self.lock = threading.Lock()
        self.ids, self.polys = {}, []
        self.monomials, self.sums, self.forms, self.setups = {}, {}, {}, {}
        self.zero_id = self.intern(Polynomial.zero(I.spec, I.vars))

    def intern(self, r):
        """The id of the residue polynomial r."""
        with self.lock:
            i = self.ids.get(r)
            if i is None:
                self.polys.append(r)
                i = self.ids[r] = len(self.polys) - 1
        return i

    def add_scaled(self, a, c, b):
        """The id of the residue a + c*b, for residue ids a and b and a
        coefficient encoding c, combined through the spec's tables."""
        spec = self.spec
        add, row = spec.add, spec.mul[c]
        terms = {m: v.idx for m, v in self.polys[a].terms.items()}
        for m, v in self.polys[b].terms.items():
            v = row[v.idx]
            terms[m] = add[terms[m]][v] if m in terms else v
        return self.intern(Polynomial(spec, self.vars, {
            m: spec.element(v) for m, v in terms.items()}))


class _Form:
    """A form as the residue arithmetic reads it: its terms as
    (exponent tuple, coefficient encoding) pairs, and the memo from a
    tuple of argument ids to the id of the form's composition."""

    __slots__ = ("terms", "memo")

    def __init__(self, p):
        self.terms = tuple((e, c.idx) for e, c in p.terms.items())
        self.memo = {}


def _shared_setup(I, res, max_deg):
    """(pool, pool ids, vanishing ids, zero table) for I and max_deg.

    pool is argument_pool of degree max_deg and pool ids the ids of its
    residues.  Only residues vanishing on the affine zero set can take
    part in a membership, since the composed form kills nonzero
    argument values: vanishing ids holds those, each once, in pool
    order.  zero table is the PointTable of that zero set.
    """
    zeros = zero_set(I, I.spec, AFFINE)
    table = PointTable.of_points(I.spec, zeros.points, zeros.n)
    pool = argument_pool(I.spec, I.vars, max_deg)
    ids = tuple(res.intern(normal_form(g, res.basis)) for g in pool)
    vanishing = tuple(i for i in dict.fromkeys(ids)
                      if not any(table.evaluate(res.polys[i])[0]))
    return pool, ids, vanishing, table


class _SearchContext:
    """Shared state for one bounded search over one target and ideal.

    The residues, their memos and the set-up that depends only on the
    ideal and max_deg_args live on the ideal (the _Residues in
    Ideal._residues), not here; a context adds the target's residue id
    and the forms and inner powers of its bounds.
    """

    def __init__(self, f, I, bounds):
        if f.spec is not I.spec or f.vars != I.vars:
            raise RingMismatch("target and ideal live in different rings")
        self.f = f
        self.ideal = I
        self.bounds = bounds
        K = I.spec
        D = bounds.max_deg_args
        res = self.residues = (I._residues.get("search") or
                               I._residues.setdefault("search", _Residues(I)))
        self.pool, self.pool_ids, self.vanishing_ids, zero_pts = (
            res.setups.get(D) or
            res.setups.setdefault(D, _shared_setup(I, res, D)))
        self.f_vanishes = not any(zero_pts.evaluate(f)[0])
        self.f_id = res.intern(normal_form(f, res.basis))
        self.forms = {m: enumerate_forms(K, m, bounds.max_deg_p)
                      for m in range(bounds.max_m + 1)}
        y0 = Polynomial.variable(K, ("y0",), "y0")
        self.inner = {n: y0 ** n
                      for n in range(1, bounds.max_inner_exp + 1)}

    def form(self, p):
        """The _Form of p on this ideal."""
        forms = self.residues.forms
        return forms.get(p) or forms.setdefault(p, _Form(p))

    def _monomial_mod(self, key):
        """Id of the residue of the product of a^e over the (residue id,
        exponent) pairs (a, e) of key.  A key with zero exponents is an
        alias of the one without them; otherwise the residue comes from
        the one with the last exponent lowered by one."""
        res = self.residues
        out = res.monomials.get(key)
        if out is None:
            canon = tuple(pair for pair in key if pair[1])
            if canon != key:
                out = self._monomial_mod(canon)
            elif key:
                a, e = key[-1]
                rest = key[:-1] + ((a, e - 1),) if e > 1 else key[:-1]
                out = res.intern(normal_form(
                    res.polys[self._monomial_mod(rest)] * res.polys[a],
                    res.basis))
            else:
                out = res.intern(normal_form(
                    Polynomial.constant(res.spec, res.vars, 1), res.basis))
            res.monomials[key] = out
        return out

    def compose_mod(self, form, args):
        """Id of the residue of form(args) modulo the ideal, memoized;
        form is a _Form and args a tuple of residue ids.

        A miss sums c times the monomial residue over the terms c*y^e of
        the form; normal form is linear, so the sum is already reduced.
        Each partial sum is one memoized step of _Residues.add_scaled."""
        out = form.memo.get(args)
        if out is None:
            res = self.residues
            monomials, sums = res.monomials, res.sums
            out = res.zero_id
            for exps, c in form.terms:
                key = tuple(zip(args, exps))
                mono = monomials.get(key)
                if mono is None:
                    mono = self._monomial_mod(key)
                step = (out, c, mono)
                out = sums.get(step)
                if out is None:
                    out = sums[step] = res.add_scaled(*step)
            form.memo[args] = out
        return out

    def first_passing_args(self, nargs, passing):
        """Canonically first argument tuple whose residue ids pass."""
        pairs = tuple(zip(self.pool, self.pool_ids))
        for args in itertools.product(pairs, repeat=nargs):
            if tuple(i for _, i in args) in passing:
                return tuple(g for g, _ in args)
        return None


def _structures(ctx, family):
    """The family's witnesses without arguments, in canonical order,
    each with its chain of forms and breakpoints (RWitness.chain, with
    the r1 inner power taken from the context)."""
    f, I, b, forms = ctx.f, ctx.ideal, ctx.bounds, ctx.forms
    if family == "r1":
        for m in range(b.max_m + 1):
            for p in forms[m]:
                for nexp in range(1, b.max_inner_exp + 1):
                    yield (RWitness("r1", (p,), (m,), (), f, I,
                                    inner_exp=nexp),
                           (ctx.inner[nexp], p), (0, m))
    elif family == "r2":
        for total in range(b.max_m + 1):
            for n_in in range(total + 1):
                for s in forms[n_in]:
                    for p in forms[total - n_in]:
                        w = RWitness("r2", (s, p), (n_in, total), (), f, I)
                        yield w, w.forms, w.breakpoints
    else:
        for chain_len in range(1, b.max_chain + 1):
            for bps in itertools.combinations_with_replacement(
                    range(b.max_m + 1), chain_len):
                slots = [stop - start for start, stop in zip((0,) + bps, bps)]
                for chain in itertools.product(*[forms[s] for s in slots]):
                    yield RWitness("r3", chain, bps, (), f, I), chain, bps


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
    compose_mod, zero_id = ctx.compose_mod, ctx.residues.zero_id
    npool = len(ctx.pool)
    count = 0
    for w, forms, breakpoints in _structures(ctx, family):
        nargs = breakpoints[-1]
        count += npool ** nargs
        if not ctx.f_vanishes:
            continue
        links = tuple(zip(map(ctx.form, forms), breakpoints))
        passing = set()
        for combo in itertools.product(ctx.vanishing_ids, repeat=nargs):
            h = ctx.f_id
            prev = 0
            for form, stop in links:
                h = compose_mod(form, (h, *combo[prev:stop]))
                prev = stop
            if h == zero_id:
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
