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
admit.  A search that visits more structures and builds more monomial
residue terms than _SEARCH_BUDGET stops with SizeOverflow instead.

The search prunes soundly: a composed form with only the trivial zero
forces every argument to vanish on the zero set of I, and membership
only depends on argument residues modulo I, so distinct arguments with
equal residues share one composition test.

The zero table is built once per ideal, and the pool size q^N by
arithmetic.  The first polynomial per residue and the vanishing ids
are built from the pool once per argument degree bound, when first
read: only a search whose target vanishes reads them, at its first
structure that takes arguments.  Swapping a pool polynomial for the
first one with its residue gives an earlier tuple with the same
residues, so the first passing pool tuple is made of first
polynomials; the vanishing ids run in their pool order, so the first
passing combination of ids in product order names that tuple.

Residues are composed from memos, on int ids: each residue modulo I is
interned once, and a composition vanishes when its id is the zero
residue's.  The residue of an argument monomial prod args[i]^e[i] is
built from the one with a single exponent lowered, by one product and
one normal form, and memoized in one row per tuple args under the
exponent tuple e, so a form's term is looked up by the exponent tuple
it holds.  A composition p(args) is the sum of c times the monomial
residue over the terms c*y^e of p, one memoized partial sum at a time;
normal form is linear, so the sum is already reduced.  The memos, the
zero table and the pools are kept in one store on the Ideal: every
search over the same Ideal object (the suite's six, or a caller's
repeats) shares them, under a lock for interning, and a freshly built
Ideal starts empty.

A structure is its forms, breakpoints and inner exponent, with no
witness: the walk resolves each form, and each inner power y0^n of r1,
to its memo at first use, and builds an RWitness only for a
combination whose composition vanishes.

The fourth family from the same source is stated over an infinite
product and has no finite candidate enumeration at these bounds, so it
is not searched.

counterexample_suite packages the standing counterexample: over GF(2)
with I = <X1>, the vanishing ideal of Z(I) is <X1, X2^2 - X2>, yet no
bounded witness places X2^2 - X2 there, while the easy member X1 is
witnessed immediately.
"""

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field as dc_field

from .errors import NotPrime, RingMismatch, SizeOverflow, SuiteFailure
from .field import is_subfield, make_field, prime_power
from .groebner import normal_form
from .ideals import (
    Ideal,
    ideal_sum,
    is_homogeneous_ideal,
    radical_membership,
)
from .nullstellensatz import NullConfig, affine_vanishing, gamma_q_star
from .poly import DEGREVLEX, Polynomial, parse_polynomial
from .varieties import (
    AFFINE,
    PROJECTIVE,
    PointTable,
    _space_size,
    oracle_vanishing_ideal,
    space_table,
    zero_set,
)

FAMILIES = ("r1", "r2", "r3")

# Candidate coefficient vectors per enumeration are capped here.
_ENUM_LIMIT = 2_000_000
_POOL_TOO_MANY = "{q}^{n} argument candidates exceed the limit"

# The form join ANDs ceil(tails / 64) words per head and point in each of
# two passes; 2^26 words took 0.6 s per pass on a 2-core x86-64 host.
_JOIN_LIMIT = 1 << 26

# A search may visit this many structures plus terms of the monomial
# residues it builds, then raises SizeOverflow.  A search at the default
# bounds spends at most 2,714 and one at degargs=3 over GF(2) 4,786;
# r1 with huge inner exponents reaches the budget in about 0.1 s.
_SEARCH_BUDGET = 20_000


@dataclass(frozen=True)
class SearchBounds:
    """Caps for the candidate enumeration.  At the defaults the whole
    counterexample suite runs in about 0.04 s, up to 0.07 s at its first
    call in a process.  NAMES maps short names to fields."""

    max_m: int = 2
    max_deg_p: int = 4
    max_deg_args: int = 2
    max_chain: int = 2
    max_inner_exp: int = 3
    NAMES = {"m": "max_m", "degp": "max_deg_p", "degargs": "max_deg_args",
             "chain": "max_chain", "exp": "max_inner_exp"}

    def __str__(self):
        return " ".join(f"{short}<={getattr(self, name)}"
                        for short, name in self.NAMES.items())


def _inner_power(spec, n):
    """y0^n, the inner form of an r1 witness."""
    return Polynomial.monomial(spec, ("y0",), (n,))


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
        return ((_inner_power(p.spec, self.inner_exp), p),
                (0, self.breakpoints[0]))

    def composition(self):
        """The chain composed on (target, *args), one form at a time."""
        forms, breakpoints = self.chain()
        h, prev = self.target, 0
        for p, stop in zip(forms, breakpoints):
            h = p.compose([h, *self.args[prev:stop]])
            prev = stop
        return h

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
    """Meet in the middle on the projective points, as the zeros of a form
    are lines through the origin: a vector is a head (the larger part of
    the basis, listed monic or zero) and a tail, its value at a point
    theirs summed.  Bit t of mask[P][x] is set when tail t takes the value
    x at P; a monic head keeps the tails outside every mask[P][-head(P)],
    the zero head the monic ones.  The gates are on what is listed, not
    on the q^N vectors: each half and the forms, counted before any is
    built, at _ENUM_LIMIT, and the join's words at _JOIN_LIMIT."""
    q, n = K.q, math.comb(m + d, d)
    h = n - n // 2
    _check_vectors(q, h, "{q}^{n} vectors on half a form basis exceed the "
                         "search limit")
    if d <= m:  # Chevalley-Warning gives a nontrivial zero (d < m + 1)
        return ()
    words = (((q ** h - 1) // (q - 1) + 1) * _space_size(q, m, PROJECTIVE)
             * -(-q ** (n - h) // 64))
    if words > _JOIN_LIMIT:
        raise SizeOverflow(
            f"the join of the forms of degree {d} in {m + 1} variables over "
            f"{K} takes {words} words, past the search limit")
    monos = _degree_monomials(m + 1, d)
    space = space_table(K, m, PROJECTIVE)
    cols = [space.monomial(mono) for mono in monos]
    heads = _vector_values(K, cols[:h], space.size, monic=True)
    tails = _vector_values(K, cols[h:], space.size)
    masks = [{} for _ in range(space.size)]
    for t, (_, values) in enumerate(tails):
        for mask, x in zip(masks, values):
            mask[x] = mask.get(x, 0) | 1 << t
    monic_tails = sum(1 << t for t, (vec, _) in enumerate(tails)
                      if next((c for c in vec if c), 0) == 1)
    full, neg, vars = (1 << len(tails)) - 1, K.neg, _yvars(m)

    def join():
        for head, values in heads:
            keep = full if any(head) else monic_tails
            for mask, x in zip(masks, values):
                keep &= ~mask.get(neg[x], 0)
            yield head, keep

    if sum(keep.bit_count() for _, keep in join()) > _ENUM_LIMIT:
        raise SizeOverflow(
            f"the anisotropic forms of degree {d} in {m + 1} variables "
            f"over {K} exceed the search limit of {_ENUM_LIMIT}")
    forms = []
    for head, keep in join():
        while keep:
            low = keep & -keep
            keep ^= low
            tail = tails[low.bit_length() - 1][0]
            forms.append(Polynomial(K, vars, dict(zip(monos, head + tail))))
    return tuple(forms)


def _vector_values(K, cols, size, monic=False):
    """(vector, its values at the size points) for every coefficient
    vector over monomials with values cols, in itertools.product order;
    monic keeps the zero vector and those whose first nonzero entry is 1."""
    add, mul = K.add, K.mul
    out = [((), (0,) * size)]
    for col in cols:
        out = [(vec + (c,), tuple(add[s][mul[c][v]] for s, v in zip(at, col)))
               for vec, at in out
               for c in (range(K.q) if any(vec) or not monic else (0, 1))]
    return out


def enumerate_forms(K, m, max_deg):
    """All anisotropic monic forms in y0..ym up to max_deg, by degree."""
    out = []
    for d in range(1, max_deg + 1):
        out.extend(_anisotropic_forms_of_degree(K, m, d))
    return tuple(out)


def argument_pool(spec, vars, max_deg):
    """Every polynomial of total degree <= max_deg, zero first, in
    canonical vector order over the descending monomial basis."""
    monos = _monomial_basis(spec.q, len(vars), range(max_deg, -1, -1),
                            _POOL_TOO_MANY)
    return tuple(_vector_polys(spec, vars, monos))


def _monomial_basis(q, nvars, degrees, too_many):
    """The monomials in nvars variables of the given degrees, each degree
    descending in degrevlex, once _check_vectors(q, basis length,
    too_many) has passed."""
    _check_vectors(q, sum(math.comb(nvars + d - 1, d) for d in degrees),
                   too_many)
    return [m for d in degrees for m in _degree_monomials(nvars, d)]


def _check_vectors(q, n, too_many):
    """SizeOverflow(too_many.format(q=q, n=n)) when the q^n vectors of
    length n pass _ENUM_LIMIT; past its bit length q^n is not formed."""
    if n > _ENUM_LIMIT.bit_length() or q ** n > _ENUM_LIMIT:
        raise SizeOverflow(too_many.format(q=q, n=n))


def _vector_polys(spec, vars, monos, monic=False):
    """Polynomials over the monomial basis monos, one per coefficient
    vector in lexicographic order, as a lazy iterator.  monic skips
    vectors whose first nonzero entry is not 1."""
    return (Polynomial(spec, vars, dict(zip(monos, vec)))
            for vec in itertools.product(range(spec.q), repeat=len(monos))
            if not monic or next((v for v in vec if v), 0) == 1)


class _Residues:
    """What the search derives from one ideal, for every search over it.

    Kept in Ideal._residues["search"]; it holds no reference to the
    Ideal, so it makes no reference cycle.  basis is the Groebner basis
    and table the PointTable of the affine zero set.  Each residue
    polynomial is interned once: ids maps it to a small int and polys
    maps the int back, so the searches hash and compare ints.
    monomials maps a tuple args of argument ids to its row, which maps
    an exponent tuple e to the id of the residue of prod args[i]^e[i];
    sums maps (a, c, b) to the id of a + c*b, forms maps a form to its
    _Form, and pools maps an argument degree bound to what pool()
    returns for it.

    Every entry is a pure value, so concurrent searches at worst
    compute one twice.  Interning checks, then appends, so it holds
    the lock; a pool and a monomial row are each published by one
    setdefault.
    """

    def __init__(self, I):
        self.spec, self.vars = I.spec, I.vars
        self.basis = I.gb()
        zeros = zero_set(I, I.spec, AFFINE)
        self.table = PointTable.of_points(I.spec, zeros.points, zeros.n)
        self.lock = threading.Lock()
        self.ids, self.polys = {}, []
        self.monomials, self.sums, self.forms, self.pools = {}, {}, {}, {}
        self.zero_id = self.intern(Polynomial.zero(I.spec, I.vars))

    def pool(self, max_deg):
        """(first, vanishing ids) of argument_pool of degree max_deg,
        built from the pool at the first call for max_deg.

        first maps the id of each residue of the pool to the first pool
        polynomial with that residue, in pool order.  Only residues
        vanishing on the zero set can take part in a membership, since
        the composed form kills nonzero argument values: vanishing ids
        holds those, in the pool order of their first polynomials.
        """
        out = self.pools.get(max_deg)
        if out is None:
            first = {}
            for g in argument_pool(self.spec, self.vars, max_deg):
                first.setdefault(self.intern(normal_form(g, self.basis)), g)
            out = self.pools.setdefault(max_deg, (first, tuple(
                i for i in first
                if not any(self.table.evaluate(self.polys[i])[0]))))
        return out

    def intern(self, r):
        """The id of the residue polynomial r."""
        with self.lock:
            i = self.ids.get(r)
            if i is None:
                self.polys.append(r)
                i = self.ids[r] = len(self.polys) - 1
        return i

    def row(self, args):
        """The monomial memo row of the argument ids args, published by
        one setdefault."""
        return self.monomials.get(args) or self.monomials.setdefault(args, {})

    def add_scaled(self, a, c, b):
        """The id of the residue a + c*b, for residue ids a and b and a
        coefficient encoding c, combined through the spec's tables."""
        add, row = self.spec.add, self.spec.mul[c]
        terms = dict(self.polys[a].terms)
        for m, v in self.polys[b].terms.items():
            v = row[v]
            terms[m] = add[terms[m]][v] if m in terms else v
        return self.intern(Polynomial(self.spec, self.vars, terms))


class _Form:
    """A form as the residue arithmetic reads it: its terms as
    (exponent tuple, coefficient encoding) pairs, and the memo from a
    tuple of argument ids to the id of the form's composition."""

    __slots__ = ("terms", "memo")

    def __init__(self, p):
        self.terms = tuple(p.terms.items())
        self.memo = {}


class _SearchContext:
    """One bounded search over one target and ideal: the target's
    residue id, the forms of its bounds and the pool size npool, q^N for
    the N = C(nvars + D, D) monomials of degree at most D = max_deg_args,
    beside the ideal's _Residues, whose pool at D gives first and
    vanishing_ids, each read once per context.
    """

    def __init__(self, f, I, bounds):
        I.check_polynomial(f)
        self.f = f
        self.ideal = I
        self.bounds = bounds
        K = I.spec
        res = self.residues = (I._residues.get("search") or
                               I._residues.setdefault("search", _Residues(I)))
        n = math.comb(len(I.vars) + bounds.max_deg_args, len(I.vars))
        _check_vectors(K.q, n, _POOL_TOO_MANY)
        self.npool = K.q ** n
        self.f_vanishes = not any(res.table.evaluate(f)[0])
        self.f_id = res.intern(normal_form(f, res.basis))
        self.forms = {m: enumerate_forms(K, m, bounds.max_deg_p)
                      for m in range(bounds.max_m + 1)}
        self.spent = 0

    first = functools.cached_property(
        lambda self: self.residues.pool(self.bounds.max_deg_args)[0])
    vanishing_ids = functools.cached_property(
        lambda self: self.residues.pool(self.bounds.max_deg_args)[1])

    def spend(self, cost):
        """Count cost against _SEARCH_BUDGET; SizeOverflow past it."""
        self.spent += cost
        if self.spent > _SEARCH_BUDGET:
            raise SizeOverflow(
                f"the search passed its budget of {_SEARCH_BUDGET} "
                f"structures and monomial residue terms at {self.bounds}; "
                f"lower exp or the other bounds")

    def form(self, p):
        """The _Form of p on this ideal."""
        forms = self.residues.forms
        return forms.get(p) or forms.setdefault(p, _Form(p))

    def _monomial_mod(self, args, exps):
        """Id of the residue of the product of a^e over the residue ids a
        and exponents e of zip(args, exps).  A monomial with zero
        exponents is an alias of the one without them and their ids;
        otherwise the residue comes from the one with the last exponent
        lowered by one."""
        res = self.residues
        row = res.row(args)
        out = row.get(exps)
        if out is None:
            if 0 in exps:
                out = self._monomial_mod(
                    tuple(a for a, e in zip(args, exps) if e),
                    tuple(e for e in exps if e))
            elif exps:
                lower = (self._monomial_mod(args, exps[:-1] + (exps[-1] - 1,))
                         if exps[-1] > 1 else
                         self._monomial_mod(args[:-1], exps[:-1]))
                r = normal_form(res.polys[lower] * res.polys[args[-1]],
                                res.basis)
                self.spend(len(r.terms))
                out = res.intern(r)
            else:
                out = res.intern(normal_form(
                    Polynomial.constant(res.spec, res.vars, 1), res.basis))
            row[exps] = out
        return out

    def compose_mod(self, form, args):
        """Id of the residue of form(args) modulo the ideal, memoized;
        form is a _Form and args a tuple of residue ids.

        A miss sums c times the monomial residue over the terms c*y^e of
        the form, each read from the memo row of args by e; normal form
        is linear, so the sum is already reduced.  Each partial sum is
        one memoized step of _Residues.add_scaled."""
        out = form.memo.get(args)
        if out is None:
            res = self.residues
            row, sums = res.row(args), res.sums
            out = res.zero_id
            for exps, c in form.terms:
                mono = row.get(exps)
                if mono is None:
                    mono = self._monomial_mod(args, exps)
                step = (out, c, mono)
                out = sums.get(step)
                if out is None:
                    out = sums[step] = res.add_scaled(*step)
            form.memo[args] = out
        return out


def _structures(ctx, family):
    """(forms, breakpoints, inner_exp) of each of the family's witnesses
    without arguments, in canonical order; inner_exp is None outside r1."""
    b, forms = ctx.bounds, ctx.forms
    if family == "r1":
        for m in range(b.max_m + 1):
            for p in forms[m]:
                for nexp in range(1, b.max_inner_exp + 1):
                    yield (p,), (m,), nexp
    elif family == "r2":
        for total in range(b.max_m + 1):
            for n_in in range(total + 1):
                for s in forms[n_in]:
                    for p in forms[total - n_in]:
                        yield (s, p), (n_in, total), None
    else:
        for chain_len in range(1, b.max_chain + 1):
            for bps in itertools.combinations_with_replacement(
                    range(b.max_m + 1), chain_len):
                slots = [stop - start for start, stop in zip((0,) + bps, bps)]
                for chain in itertools.product(*[forms[s] for s in slots]):
                    yield chain, bps, None


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
    links, powers = {}, {}  # each form's _Form, and each y0^n's by n
    count = 0
    for forms, breakpoints, inner_exp in _structures(ctx, family):
        ctx.spend(1)
        nargs = breakpoints[-1]
        count += ctx.npool ** nargs
        if not ctx.f_vanishes:
            continue
        chain = tuple(zip([links.get(p) or links.setdefault(p, ctx.form(p))
                           for p in forms], breakpoints))
        if inner_exp is not None:
            power = powers.get(inner_exp) or powers.setdefault(
                inner_exp, ctx.form(_inner_power(I.spec, inner_exp)))
            chain = ((power, 0), *chain)
        ids = ctx.vanishing_ids if nargs else ()
        for combo in itertools.product(ids, repeat=nargs):
            h = ctx.f_id
            prev = 0
            for form, stop in chain:
                h = compose_mod(form, (h, *combo[prev:stop]))
                prev = stop
            if h == zero_id:
                w = RWitness(family, forms, breakpoints,
                             tuple(ctx.first[i] for i in combo), f, I,
                             inner_exp)
                if verify_kradical_witness(w):
                    return w
                break
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


def _judge_exhausts(out):
    """(passed, detail[, vacuous]): the search must exhaust candidates."""
    if not isinstance(out, Exhausted):
        return False, f"unexpected witness: {out.describe()}"
    if out.candidates == 0:
        return False, "vacuous: bounds admit no candidates", True
    return True, f"{out.candidates} candidates"


def _judge_finds(out):
    """(passed, detail[, vacuous]): the search must find a witness."""
    if isinstance(out, RWitness) and verify_kradical_witness(out):
        return True, f"forms = {[str(p) for p in out.forms]}"
    if isinstance(out, Exhausted) and out.candidates == 0:
        return False, "vacuous: bounds admit no candidates", True
    return False, "no witness found"


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
        orc = oracle_vanishing_ideal(zero_set(I, K, AFFINE), spec=K,
                                     vars=vars)
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

    for target, step, group, judge in (
            (f, "search exhausts for f", "exhaustion", _judge_exhausts),
            (easy, "finds the easy member", "controls", _judge_finds)):
        for family in FAMILIES:
            try:
                out = search_witness(target, I, family, bounds)
            except Exception as exc:  # noqa: BLE001
                verdict = False, str(exc)
            else:
                verdict = judge(out)
            report.add(f"{family} {step}", *verdict, group=group)

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
        monos = _monomial_basis(spec.q, n + 1, [d],
                                "generator enumeration exceeds the limit")
        forms.extend(_vector_polys(spec, vars, monos, monic=True))
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
        if not radical_membership(witness, J):
            continue
        return NonRadicalInstance(I, witness, J)
    return None
