"""Bounded searches over composed anisotropic forms.

Every candidate count asserted here was cross-checked by hand against
the closed-form arithmetic (#forms per arity times pool size raised to
the argument count), so a silent change in enumeration order or pool
construction shows up as a count mismatch before anything subtler.
"""

import gc
import random
import sys
import threading
import weakref

import pytest

from nullkit import conjectures
from nullkit.conjectures import (
    FAMILIES,
    Exhausted,
    RWitness,
    SearchBounds,
    SuiteFailure,
    _SearchContext,
    argument_pool,
    check_form_class,
    counterexample_suite,
    enumerate_forms,
    find_nonradical_instance,
    search_witness,
    verify_kradical_witness,
)
from nullkit.errors import RingMismatch, SizeOverflow
from nullkit.field import make_field, prime_power
from nullkit.groebner import normal_form
from nullkit.ideals import Ideal, radical_membership
from nullkit.poly import Polynomial, parse_polynomial
from nullkit.varieties import AFFINE, zero_set

from helpers import (
    count_calls,
    random_poly,
    ref_anisotropic_forms,
    ref_search_witness,
)

F2 = make_field(2)
VARS = ("X1", "X2")


def poly(text, vars=VARS, spec=F2):
    return parse_polynomial(text, vars, spec)


def ideal(strings, vars=VARS, spec=F2):
    return Ideal.from_strings(spec, vars, strings)


def form(text, nvars):
    ys = tuple(f"y{i}" for i in range(nvars))
    return parse_polynomial(text, ys, F2)


class TestFormClasses:
    def test_a_form_over_a_larger_field_is_refused(self):
        p = parse_polynomial("y0^2 + y0*y1 + y1^2", ("y0", "y1"),
                             make_field(2, 2))
        with pytest.raises(RingMismatch,
                           match=r"^GF\(2\^2\) does not embed into GF\(2\)$"):
            check_form_class(p, "P_K0", F2)

    def test_single_variable_is_both(self):
        y0 = form("y0", 1)
        assert check_form_class(y0, "P_K", F2)
        assert check_form_class(y0, "P_K0", F2)

    def test_split_linear_form_is_neither(self):
        # y0 + y1 vanishes at (1, 1), outside both zero loci
        p = form("y0 + y1", 2)
        assert not check_form_class(p, "P_K", F2)
        assert not check_form_class(p, "P_K0", F2)

    def test_square_separates_the_classes(self):
        # y0^2 kills exactly the hyperplane y0 = 0: in P_K but (0, 1)
        # is a nontrivial zero
        p = form("y0^2", 2)
        assert check_form_class(p, "P_K", F2)
        assert not check_form_class(p, "P_K0", F2)

    def test_norm_form_is_anisotropic(self):
        p = form("y0^2 + y0*y1 + y1^2", 2)
        assert check_form_class(p, "P_K0", F2)
        assert check_form_class(p, "P_K", F2)

    def test_inhomogeneous_is_rejected_not_an_error(self):
        assert not check_form_class(form("y0 + 1", 1), "P_K", F2)
        assert not check_form_class(form("y0 + 1", 1), "P_K0", F2)

    def test_unknown_class_name(self):
        with pytest.raises(ValueError):
            check_form_class(form("y0", 1), "P_K1", F2)


class TestFormEnumeration:
    def test_low_degrees_are_empty(self):
        # forms in m+1 variables of degree <= m always have a
        # nontrivial zero, so nothing anisotropic exists down there
        assert enumerate_forms(F2, 1, 1) == ()
        assert enumerate_forms(F2, 2, 2) == ()

    def test_counts_per_degree(self):
        def by_degree(m):
            forms = enumerate_forms(F2, m, 4)
            return [sum(1 for p in forms if p.total_degree() == d)
                    for d in range(1, 5)]

        assert by_degree(0) == [1, 1, 1, 1]
        assert by_degree(1) == [0, 1, 2, 4]
        assert by_degree(2) == [0, 0, 8, 256]

    def test_everything_enumerated_is_anisotropic(self):
        for m in (0, 1, 2):
            for p in enumerate_forms(F2, m, 3):
                assert check_form_class(p, "P_K0", F2), p

    def test_first_binary_form_is_the_norm(self):
        forms = enumerate_forms(F2, 1, 4)
        assert str(forms[0]) == "y0^2 + y0*y1 + y1^2"

    def test_powers_of_y0_lead_the_unary_list(self):
        assert [str(p) for p in enumerate_forms(F2, 0, 3)] == \
            ["y0", "y0^2", "y0^3"]

    def test_counts_over_larger_fields(self):
        def of_degree(K, m, d):
            return sum(p.total_degree() == d for p in enumerate_forms(K, m, d))

        assert of_degree(make_field(3), 2, 3) == 144
        assert of_degree(make_field(2, 2), 1, 3) == 20

    def test_binary_quadratics_over_a_large_field(self):
        # the monic anisotropic binary quadratics are the irreducible
        # y0^2 + b*y0*y1 + c*y1^2, (q^2 - q)/2 of them
        forms = enumerate_forms(make_field(101), 1, 2)
        assert len(forms) == 101 * 100 // 2
        # GF(4099) has no operation tables
        assert [str(p) for p in enumerate_forms(make_field(4099), 0, 2)] == \
            ["y0", "y0^2"]

    def test_refuses_past_the_limit(self):
        """Each half of the basis is gated, not the q^N vectors over all
        of it: the 3 binary quadratic monomials split 2 and 1, and 1423^2
        passes the limit."""
        with pytest.raises(SizeOverflow) as err:
            enumerate_forms(make_field(1423), 1, 2)
        assert str(err.value) == ("1423^2 vectors on half a form basis "
                                  "exceed the search limit")

    def test_lists_forms_whose_halves_fit(self):
        """Over GF(3) at m=2 the 3^15 vectors of degree 4 pass the limit,
        but the join lists 3,281 monic heads and 2,187 tails."""
        forms = enumerate_forms(make_field(3), 2, 4)
        assert len(forms) == 36_999
        assert sum(p.total_degree() == 4 for p in forms) == 36_855

    @pytest.mark.parametrize("q, m, d, message", [
        (4, 2, 4, "the join of the forms of degree 4 in 3 variables over "
                  "GF(2^2) takes 117444096 words, past the search limit"),
        (2, 2, 6, "the anisotropic forms of degree 6 in 3 variables over "
                  "GF(2) exceed the search limit of 2000000")],
        ids=["join", "forms"])
    def test_refuses_a_join_or_a_list_past_its_limit(self, q, m, d, message):
        """The join's words are counted before any half is listed, and
        the forms before any is built: there are 2,097,152 of degree 6
        in 3 variables over GF(2)."""
        with pytest.raises(SizeOverflow) as err:
            enumerate_forms(make_field(*prime_power(q)), m, d)
        assert str(err.value) == message


FORM_CASES = ([(2, m, d) for m in range(3) for d in range(1, 5)]
              + [(3, m, d) for m in range(2) for d in range(1, 5)]
              + [(3, 2, d) for d in range(1, 4)]
              + [(q, 1, d) for q in (4, 5) for d in range(1, 4)]
              + [(7, 1, 3)] + [(8, 1, d) for d in range(1, 3)])


@pytest.mark.parametrize("q, m, d", FORM_CASES,
                         ids=[f"GF{q}-m{m}-d{d}" for q, m, d in FORM_CASES])
def test_forms_match_the_brute_force_list(q, m, d):
    """The meet-in-the-middle join lists exactly the monic vectors that
    the one-by-one test at every nonzero point keeps, in the same
    order."""
    K = make_field(*prime_power(q))
    forms = conjectures._build_anisotropic_forms(K, m, d)
    expected = ref_anisotropic_forms(K, m, d)
    assert forms == expected
    assert [str(p) for p in forms] == [str(p) for p in expected]


class TestArgumentPool:
    def test_size_and_head(self):
        pool = argument_pool(F2, VARS, 2)
        # six monomials of degree <= 2 in two variables, binary coeffs
        assert len(pool) == 64
        assert [str(p) for p in pool[:5]] == \
            ["0", "1", "X2", "X2 + 1", "X1"]

    def test_distinct(self):
        pool = argument_pool(F2, VARS, 2)
        assert len(set(pool)) == len(pool)


class TestPositiveSearches:
    def test_generator_is_found_in_every_family(self):
        f = poly("X1")
        I = ideal(["X1"])
        for family in FAMILIES:
            w = search_witness(f, I, family)
            assert isinstance(w, RWitness)
            assert verify_kradical_witness(w)
            assert w.composition() == f
            assert [str(p) for p in w.forms] == \
                {"r1": ["y0"], "r2": ["y0", "y0"], "r3": ["y0"]}[family]
            assert w.args == ()

    def test_an_unknown_family_is_refused(self):
        with pytest.raises(ValueError) as exc:
            search_witness(poly("X1"), ideal(["X1"]), "r4")
        assert str(exc.value) == f"family must be one of {FAMILIES}"

    def test_square_needs_the_inner_exponent(self):
        w = search_witness(poly("X1"), ideal(["X1^2"]), "r1")
        assert isinstance(w, RWitness)
        assert [str(p) for p in w.forms] == ["y0"]
        assert w.inner_exp == 2
        assert w.args == ()
        assert w.composition() == poly("X1^2")

    def test_norm_form_witness_uses_an_argument(self):
        # X1^2 + X1*X2 + X2^2 is the norm form evaluated at (X1, X2),
        # so the search must pick up X2 from the argument pool
        target = "X1^2 + X1*X2 + X2^2"
        w = search_witness(poly("X1"), ideal([target]), "r1")
        assert isinstance(w, RWitness)
        assert [str(p) for p in w.forms] == ["y0^2 + y0*y1 + y1^2"]
        assert w.inner_exp == 1
        assert [str(a) for a in w.args] == ["X2"]
        assert verify_kradical_witness(w)
        assert w.composition() == poly(target)

    def test_compositions_vanish_on_the_zero_set(self):
        for gens in (["X1"], ["X1^2"], ["X1*X2"]):
            I = ideal(gens)
            Z = zero_set(I, F2, AFFINE)
            for family in FAMILIES:
                w = search_witness(poly("X1"), I, family)
                if not isinstance(w, RWitness):
                    continue
                g = w.composition()
                for p in Z.points:
                    assert not g.evaluate(p.coords)


class TestWitnessConversion:
    def test_r1_embeds_into_the_chain_families(self):
        """An r1 witness's chain is an r2 witness (the inner power
        becomes a nested form), and an r2 witness a chain of length
        two."""
        w1 = search_witness(poly("X1"), ideal(["X1^2"]), "r1")
        w2 = RWitness("r2", *w1.chain(), w1.args, w1.target, w1.ideal)
        assert w1.chain() == w2.chain() == (w2.forms, w2.breakpoints)
        assert w2.family == "r2"
        assert [str(p) for p in w2.forms] == ["y0^2", "y0"]
        assert w2.breakpoints == (0, 0)
        assert verify_kradical_witness(w2)
        assert w2.composition() == w1.composition()

        w3 = RWitness("r3", w2.forms, w2.breakpoints, w2.args, w2.target,
                      w2.ideal)
        assert w3.family == "r3"
        assert verify_kradical_witness(w3)
        assert w3.composition() == w1.composition()


@pytest.mark.time_budget(5)
def test_first_occurrences_match_the_pool_product_scan():
    """search_witness names the same witness, args included, and counts
    the same candidates as the pool-product scan it replaced, which
    tests every residue and not only the vanishing ones.  Each side
    has its own Ideal, so they share no residue memo."""
    F3 = make_field(3)
    small = SearchBounds(max_m=1, max_deg_p=2, max_deg_args=1,
                         max_inner_exp=2)
    wide = SearchBounds(max_m=1, max_deg_p=2, max_deg_args=2, max_chain=1,
                        max_inner_exp=2)
    cases = [(F2, ["X1"], SearchBounds(max_m=2, max_deg_p=3,
                                       max_deg_args=1, max_inner_exp=2)),
             (F2, ["X1^2 + X1*X2 + X2^2"], wide),
             (F2, ["X1^2", "X2^2"], small),
             (F2, ["X1*X2"], wide),
             (F3, ["X1^2 + X2^2", "X1*X2"], wide),
             (F3, ["X1^2 + X2^2"], small),
             (F3, ["X1*X2 - X2"], small)]
    found = 0
    for spec, gens, bounds in cases:
        I, ref_I = ideal(gens, spec=spec), ideal(gens, spec=spec)
        for target in ("X1", "X2", "X1 + X2", "X1*X2", "X1 + 1"):
            f = poly(target, spec=spec)
            for family in FAMILIES:
                got = search_witness(f, I, family, bounds)
                want = ref_search_witness(f, ref_I, family, bounds)
                assert type(got) is type(want), (gens, target, family)
                if isinstance(want, Exhausted):
                    assert got.candidates == want.candidates
                else:
                    found += 1
                    assert got.describe() == want.describe()
    assert found > 40


class TestExhaustion:
    def test_candidate_counts_at_default_bounds(self):
        f = poly("X2^2 - X2")
        I = ideal(["X1"])
        counts = {}
        for family in FAMILIES:
            w = search_witness(f, I, family)
            assert isinstance(w, Exhausted)
            counts[family] = w.candidates
        pool = 64
        per_arity = {0: 4, 1: 7, 2: 264}
        r1_by_hand = 3 * sum(n * pool ** m for m, n in per_arity.items())
        assert counts == {"r1": r1_by_hand,
                          "r2": 8855056,
                          "r3": 9936852}
        assert counts["r1"] == 3245388

    def test_tight_bounds_shrink_the_space(self):
        bounds = SearchBounds(max_m=1, max_deg_p=2)
        w = search_witness(poly("X2^2 - X2"), ideal(["X1"]), "r2",
                           bounds=bounds)
        assert isinstance(w, Exhausted)
        # degree <= 2 leaves two unary forms and the binary norm form:
        # 2*2 all-unary pairs, then 2*64 for each placement of the
        # norm form against a unary partner
        assert w.candidates == 4 + 2 * 64 + 2 * 64
        assert str(w.bounds) == "m<=1 degp<=2 degargs<=2 chain<=2 exp<=3"

    def test_the_search_budget_is_exact(self, monkeypatch):
        """A fresh r1 search at default bounds visits 825 structures and
        builds monomial residues of 140 terms in all: it exhausts on a
        budget of 965 and stops on one less."""
        f = poly("X2^2 - X2")
        monkeypatch.setattr(conjectures, "_SEARCH_BUDGET", 825 + 140)
        w = search_witness(f, ideal(["X1"]), "r1")
        assert isinstance(w, Exhausted) and w.candidates == 3245388
        monkeypatch.setattr(conjectures, "_SEARCH_BUDGET", 825 + 139)
        with pytest.raises(SizeOverflow, match="exp<=3; lower exp"):
            search_witness(f, ideal(["X1"]), "r1")

    def test_zero_degree_bound_is_vacuous(self):
        w = search_witness(poly("X2^2 - X2"), ideal(["X1"]), "r1",
                           bounds=SearchBounds(max_deg_p=0))
        assert isinstance(w, Exhausted)
        assert w.candidates == 0


class TestSuite:
    def test_suite_passes_at_default_bounds(self):
        report = counterexample_suite()
        assert report.ok
        assert len(report.steps) == 8
        assert [g for g, _ in report.groups()] == \
            ["formula", "membership", "exhaustion", "controls"]
        text = report.format()
        assert "[1/8] affine formula matches oracle: PASS" in text
        assert "(3245388 candidates)" in text
        assert "groups passed: 4/4" in text
        assert text.rstrip().endswith("suite: PASS")

    def test_vacuous_bounds_fail_the_suite(self):
        # a search with zero candidates proves nothing and must not
        # count as exhaustion
        with pytest.raises(SuiteFailure) as exc:
            counterexample_suite(bounds=SearchBounds(max_deg_p=0))
        report = exc.value.report
        assert not report.ok
        failed = [s for s in report.steps if not s.passed]
        assert failed
        assert all(s.vacuous for s in failed if s.group == "exhaustion")

    def test_member_target_is_detected(self):
        # against <X2> the target X2^2 - X2 is an actual member, so
        # all three searches find it and the exhaustion steps fail;
        # the easy-member controls fail too since X1 is not in <X2>
        report = counterexample_suite(ideal_override=ideal(["X2"]),
                                      raise_on_failure=False)
        assert not report.ok
        failed = {s.name: s.detail for s in report.steps if not s.passed}
        assert len(failed) == 6
        for family in FAMILIES:
            assert "unexpected witness" in \
                failed[f"{family} search exhausts for f"]
            assert "no witness found" in \
                failed[f"{family} finds the easy member"]


class TestNonRadicalInstances:
    def test_smallest_binary_instance(self):
        inst = find_nonradical_instance(2, 2, 2)
        assert [str(g) for g in inst.ideal.gens] == ["X2^2"]
        assert str(inst.witness) == "X2"
        # the witness certifies failure of radicality: it lies in the
        # radical of I + Gamma* but not in the ideal itself
        assert radical_membership(inst.witness, inst.with_gamma)
        assert not inst.with_gamma.contains(inst.witness)

    def test_reads_the_vanishing_ideal_off_the_zero_set(self, monkeypatch):
        """The smallest instance comes without a single quotient."""
        from nullkit import ideals, nullstellensatz

        # every module binding the name, so a call by any route counts
        calls = [count_calls(monkeypatch, "ideal_quotient", module=m)
                 for m in (ideals, nullstellensatz, conjectures)
                 if hasattr(m, "ideal_quotient")]
        inst = find_nonradical_instance(2, 2, 2)
        assert [str(g) for g in inst.ideal.gens] == ["X2^2"]
        assert str(inst.witness) == "X2"
        assert sum(map(len, calls)) == 0

    def test_linear_generators_yield_nothing(self):
        # Gamma* is GL-invariant over the prime field, so ideals with
        # only linear generators stay radical at this size
        assert find_nonradical_instance(2, 2, 1) is None


def test_form_cache_is_thread_safe(monkeypatch):
    """Concurrent first requests for one (K, m, d) all get one tuple."""
    monkeypatch.setattr(conjectures, "_FORM_CACHE", {})
    K = make_field(3)
    results = []

    def build():
        results.append(conjectures._anisotropic_forms_of_degree(K, 1, 2))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == 8
    assert all(r is results[0] for r in results)


def test_compose_mod_is_the_normal_form_of_the_composition():
    """Second route: the residue behind compose_mod(form, args) equals
    the normal form of the expanded p(args), for forms p and vanishing
    argument residues over random homogeneous ideals.  Each ideal
    serves every example drawn for it, so later calls read entries that
    earlier ones memoized."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    rng = random.Random(10)
    cases = []
    for spec, max_m in ((F2, 2), (make_field(3), 1), (make_field(2, 2), 1)):
        for _ in range(3):
            gens = [random_poly(rng, spec, VARS, rng.randint(1, 2),
                                rng.randint(1, 3)) ** 2,
                    random_poly(rng, spec, VARS, rng.randint(1, 3),
                                rng.randint(1, 3))]
            cases.append((Ideal(spec, VARS, gens),
                          SearchBounds(max_m=max_m, max_deg_p=3,
                                       max_deg_args=1)))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(cases), st.data())
    def check(case, data):
        I, bounds = case
        ctx = _SearchContext(I.gens[0], I, bounds)
        polys = ctx.residues.polys
        m = data.draw(st.integers(0, bounds.max_m))
        p = data.draw(st.sampled_from(ctx.forms[m]))
        args = tuple(data.draw(st.sampled_from(ctx.vanishing_ids))
                     for _ in range(m + 1))
        expected = normal_form(p.compose([polys[a] for a in args]), I.gb())
        got = ctx.compose_mod(ctx.form(p), args)
        assert polys[got] == expected
        # every memoized monomial of args is the normal form of its product
        for exps, mono in ctx.residues.monomials[args].items():
            product = Polynomial.constant(I.spec, I.vars, 1)
            for a, e in zip(args, exps):
                product *= polys[a] ** e
            assert polys[mono] == normal_form(product, I.gb())
        # a second context on the same ideal reads the memo
        again = _SearchContext(I.gens[0], I, bounds)
        assert again.form(p).memo[args] == got
        assert again.compose_mod(again.form(p), args) == got

    check()
    assert any(len(_SearchContext(I.gens[0], I, b)
                   .vanishing_ids) > 2 for I, b in cases)


def _count_compose_normal_forms(monkeypatch):
    """Record every normal form of the search, and the normal forms
    each compose_mod call computes."""
    calls = count_calls(monkeypatch, "normal_form", conjectures)
    inside = []
    real = _SearchContext.compose_mod

    def counting(self, form, args):
        before = len(calls)
        out = real(self, form, args)
        inside.append(len(calls) - before)
        return out

    monkeypatch.setattr(_SearchContext, "compose_mod", counting)
    return calls, inside


def test_suite_fills_its_own_residue_memo(monkeypatch):
    """One suite makes 215 normal forms: 70 to set up its six searches
    (the 64 pool residues once, shared by all six, and the target's in
    each) and 145 to fill the residue memos.  It builds the argument
    pool once and asks compose_mod 42,611 times, once per composition
    lookup.  A second suite builds its ideal afresh and makes the same
    numbers again, so nothing is cached across calls."""
    calls, inside = _count_compose_normal_forms(monkeypatch)
    pools = count_calls(monkeypatch, "argument_pool", conjectures)
    for _ in range(2):
        before, before_inside = len(calls), sum(inside)
        before_pools, before_asked = len(pools), len(inside)
        assert counterexample_suite().ok
        assert len(calls) - before == 215
        assert sum(inside) - before_inside == 145
        assert len(pools) - before_pools == 1
        assert len(inside) - before_asked == 42611


def test_family_searches_share_the_residue_memo(monkeypatch):
    """r3 asks for the compositions r2 already memoized on the same
    ideal, and r1 for a subset: neither computes a new normal form in
    compose_mod.  A fresh ideal starts empty."""
    calls, inside = _count_compose_normal_forms(monkeypatch)
    f = poly("X2^2 - X2")
    I = ideal(["X1"])
    assert search_witness(f, I, "r2").candidates == 8855056
    filled, asked = sum(inside), len(inside)
    assert filled > 0
    assert search_witness(f, I, "r3").candidates == 9936852
    assert search_witness(f, I, "r1").candidates == 3245388
    assert sum(inside) == filled
    assert len(inside) > asked
    assert search_witness(f, ideal(["X1"]), "r3").candidates == 9936852
    assert sum(inside) == 2 * filled


def test_an_exhausting_search_builds_nothing_per_structure(monkeypatch):
    """r1 and r2 exhaust for X2^2 - X2 without building an RWitness, and
    resolve each of the 275 forms in y0..ym, m <= 2, to its _Form once,
    r1 each inner power y0^n, n <= 3, once more.  The structures number
    825 in r1 and 2,233 in r2, two forms each as chains."""
    witnesses = count_calls(monkeypatch, "RWitness", conjectures)
    resolved = count_calls(monkeypatch, "form", _SearchContext)
    for family, count, forms in (("r1", 3245388, 275 + 3),
                                 ("r2", 8855056, 275)):
        before = len(resolved)
        assert search_witness(poly("X2^2 - X2"), ideal(["X1"]),
                              family).candidates == count
        assert len(resolved) - before == forms
    assert len({p for _, p in resolved[-275:]}) == 275
    assert witnesses == []


def test_one_zero_set_per_ideal_across_degree_bounds(monkeypatch):
    """Searches at argument degree bounds 1, 2, 2 and 1 on one Ideal
    enumerate its zero set once and build one pool per bound, and each
    counts the candidates a fresh Ideal counts at that bound."""
    f = poly("X2^2 - X2")
    degrees = (1, 2, 2, 1)
    want = [search_witness(f, ideal(["X1"]), "r1",
                           SearchBounds(max_deg_args=D)).candidates
            for D in degrees]
    zeros = count_calls(monkeypatch, "zero_set", conjectures)
    pools = count_calls(monkeypatch, "argument_pool", conjectures)
    I = ideal(["X1"])
    got = [search_witness(f, I, "r1", SearchBounds(max_deg_args=D))
           .candidates for D in degrees]
    assert got == want
    assert len(zeros) == 1
    assert [call[2] for call in pools] == [1, 2]


def test_the_search_store_is_freed_by_reference_counting():
    """The store a search leaves on its Ideal refers to nothing that
    refers back to the Ideal, so dropping the Ideal frees it with the
    cycle collector off."""
    gc.disable()
    try:
        I = ideal(["X1"])
        search_witness(poly("X2^2 - X2"), I, "r1")
        store = weakref.ref(I._residues["search"])
        del I
        assert store() is None
    finally:
        gc.enable()


@pytest.mark.time_budget(10)
def test_counterexample_counts_over_larger_fields():
    """On I = <X1> in GF(q)[X1, X2] the target X2^q - X2 lies in I(Z),
    and r1, r2 and r3 exhaust at m=1, degp=4, degargs=2 with these
    counts over GF(3), GF(4) and GF(5)."""
    bounds = SearchBounds(max_m=1, max_deg_p=4, max_deg_args=2)
    want = {3: [76557, 204136, 229655],
            4: [1314828, 3506192, 3944468],
            5: [11953137, 31875016, 35859395]}
    for q, counts in want.items():
        K = make_field(*prime_power(q))
        I = ideal(["X1"], spec=K)
        f = poly(f"X2^{q} - X2", spec=K)
        outs = [search_witness(f, I, family, bounds) for family in FAMILIES]
        assert all(isinstance(out, Exhausted) for out in outs)
        assert [out.candidates for out in outs] == counts


def test_threads_share_one_ideal():
    """r1, r2 and r3 run at once on one Ideal give the sequential
    results: the memos hold pure values, so a race only recomputes."""
    targets = [poly("X2^2 - X2"), poly("X1")]

    def results(I, family):
        out = []
        for f in targets:
            w = search_witness(f, I, family)
            out.append((w.family, w.candidates) if isinstance(w, Exhausted)
                       else w.describe())
        return out

    expected = {family: results(ideal(["X1"]), family)
                for family in FAMILIES}
    shared = ideal(["X1"])
    got = {}

    def run(family):
        got[family] = results(shared, family)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(family,))
                   for family in FAMILIES]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert got == expected
    assert [got[family][0][1] for family in FAMILIES] == \
        [3245388, 8855056, 9936852]


def test_threads_intern_each_residue_once():
    """r1, r2 and r3, each twice, run at once on one Ideal and leave an
    intern table that is a bijection: every id maps back to the residue
    that interned to it, and no residue holds two ids.  Three rounds,
    each on a fresh Ideal, since a lost update needs two threads inside
    one intern."""
    f = poly("X2^2 - X2")
    want = dict(zip(FAMILIES, (3245388, 8855056, 9936852)))
    for _ in range(3):
        shared = ideal(["X1"])
        got = {}

        def run(i, family):
            got[i, family] = search_witness(f, shared, family).candidates

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i, family))
                       for i in range(2) for family in FAMILIES]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert got == {(i, family): want[family]
                       for i in range(2) for family in FAMILIES}
        res = shared._residues["search"]
        assert len(res.ids) == len(res.polys)
        assert sorted(res.ids.values()) == list(range(len(res.polys)))
        for i, r in enumerate(res.polys):
            assert res.intern(r) == i
        assert len(set(res.polys)) == len(res.polys)
