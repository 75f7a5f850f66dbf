"""Problem-file parsing and end-to-end command behavior.

Commands run in process through main(argv) so exit codes and output
can be asserted without subprocess overhead; byte determinism of the
text renderings is checked by running twice.
"""

import json
import re
import time
from pathlib import Path

import pytest

from nullkit.cli import (
    SCHEMA_VERSION,
    main,
    parse_bounds,
    parse_problem_text,
)
from nullkit import cli
from nullkit.errors import (
    ClassificationFailure,
    InconsistentTower,
    ParseError,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_problem(tmp_path, text, name="prob.null"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestProblemParsing:
    def test_minimal(self):
        p = parse_problem_text(
            "field GF(2)\nvars X0 X1\nideal:\nX0\nX1\n", "a.null")
        assert p.cfg.k_spec.literal() == "GF(2)"
        assert p.cfg.K_spec.literal() == "GF(2)"
        assert p.cfg.vars == ("X0", "X1")
        assert [str(g) for g in p.ideal.gens] == ["X0", "X1"]

    def test_inline_and_semicolons(self):
        p = parse_problem_text(
            "field GF(2)\nvars X0 X1\nideal: X0; X0 + X1\n", "a.null")
        assert [str(g) for g in p.ideal.gens] == ["X0", "X0 + X1"]

    def test_comments_and_blank_lines(self):
        p = parse_problem_text(
            "# heading\nfield GF(2)\n\nvars X0  # trailing\nideal:\n"
            "# a generator\nX0\n\n", "a.null")
        assert [str(g) for g in p.ideal.gens] == ["X0"]

    def test_tower_directives(self):
        p = parse_problem_text(
            "coeffs GF(4)\npoints GF(2)\nvars X0 X1\nideal:\nX0\n",
            "t.null")
        assert p.cfg.k_spec.literal() == "GF(2^2)"
        assert p.cfg.K_spec.literal() == "GF(2)"

    def test_base_is_a_synonym_for_points(self):
        p = parse_problem_text(
            "base GF(2)\ncoeffs GF(4)\nvars X0\nideal:\nX0\n", "t.null")
        assert p.cfg.K_spec.literal() == "GF(2)"

    def test_inconsistent_tower(self):
        with pytest.raises(InconsistentTower):
            parse_problem_text(
                "coeffs GF(3)\npoints GF(2)\nvars X0\nideal:\nX0\n",
                "t.null")

    def test_error_positions_cite_name_line_col(self):
        cases = [
            ("field GF(2)\nfield GF(3)\nvars X0\nideal:\nX0\n",
             "a.null:2:1: duplicate field line"),
            ("field GF(2)\nvars X0 t\nideal:\nX0\n",
             "a.null:2:9: the name t is reserved"),
            ("field GF(2)\nvars 2bad\nideal:\nX0\n",
             "a.null:2:6: bad variable name '2bad'"),
            ("field GF(2)\nvars X0\nwhat now\nideal:\nX0\n",
             "a.null:3:1: unknown directive 'what'"),
            ("field GF(2)\nvars X0\nideal:\nX0 + Z\n",
             "a.null:4:6: unknown variable 'Z'"),
        ]
        for text, fragment in cases:
            with pytest.raises(ParseError) as exc:
                parse_problem_text(text, "a.null")
            assert fragment in str(exc.value)

    def test_missing_sections(self):
        for text, fragment in [
                ("field GF(2)\nvars X0\n", "missing ideal: section"),
                ("field GF(2)\nideal:\nX0\n", "missing vars line"),
                ("vars X0\nideal:\nX0\n", "missing field declaration")]:
            with pytest.raises(ParseError) as exc:
                parse_problem_text(text, "a.null")
            assert fragment in str(exc.value)

    def test_readme_examples_exist_and_parse(self):
        readme = (EXAMPLES.parent / "README.md").read_text()
        names = sorted(set(re.findall(r"examples/([\w-]+\.null)", readme)))
        assert names
        for name in names:
            path = EXAMPLES / name
            assert path.is_file(), f"README cites missing {path}"
            parse_problem_text(path.read_text(), name)

    def test_normalized_emission_is_a_fixed_point(self):
        for name in ("p1.null", "counterexample.null", "tower.null",
                     "sat2.null"):
            text = (EXAMPLES / name).read_text()
            p = parse_problem_text(text, name)
            normal = p.emit_normalized()
            again = parse_problem_text(normal, name)
            assert again.emit_normalized() == normal


class TestBounds:
    def test_defaults_and_overrides(self):
        b = parse_bounds("m=1, degp=2")
        assert b.max_m == 1 and b.max_deg_p == 2
        assert b.max_chain == 2 and b.max_inner_exp == 3
        assert parse_bounds("") == parse_bounds(",")

    def test_rejects_unknown_keys_and_junk(self):
        for text in ("m<=1", "depth=3", "m=two", "m=-1", "degp=2,exp=-3"):
            with pytest.raises(ParseError):
                parse_bounds(text)


class TestCommands:
    def test_vanishing_affine(self, capsys):
        code, out, err = run("vanishing", "--affine", "--input",
                             str(EXAMPLES / "p1.null"), capsys=capsys)
        assert code == 0
        assert out == "X0\nX1^2 + X1\n"

    def test_vanishing_affine_folds_huge_exponents(self, tmp_path, capsys):
        """X^e and X^((e-1) mod (q-1) + 1) differ by a multiple of
        X^q - X, so a millionth power answers like a fourth one."""
        text = "field GF(7)\nvars X0 X1\nideal:\n{g}\n"
        answers = []
        for g in ("X0^4 + X1^4", "X0^1000000 + X1^1000000"):
            path = write_problem(tmp_path, text.format(g=g))
            start = time.perf_counter()
            answers.append(run("vanishing", "--affine", "--input", path,
                               capsys=capsys))
            assert time.perf_counter() - start < 1.0
        assert answers[0] == answers[1] == (0, "X1\nX0\n", "")

    def test_vanishing_affine_rejects_method(self, capsys):
        code, out, err = run("vanishing", "--affine", "--method", "oracle",
                             "--input", str(EXAMPLES / "p1.null"),
                             capsys=capsys)
        assert code == 2
        assert "--method only applies to --projective" in err

    def test_vanishing_projective_empty_classifies(self, capsys):
        code, out, err = run("vanishing", "--projective", "--input",
                             str(EXAMPLES / "irrelevant2.null"),
                             capsys=capsys)
        assert code == 0
        assert out == "classification: empty_irrelevant\n"

    def test_classification_failure_exits_1(self, monkeypatch, capsys):
        def fail(I, cfg):
            raise ClassificationFailure(f"{I} fits neither branch")

        monkeypatch.setattr(cli, "classify_empty", fail)
        code, out, err = run("vanishing", "--projective", "--input",
                             str(EXAMPLES / "irrelevant2.null"),
                             capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("assertion failure:")

    def test_gb_and_orders(self, capsys):
        path = str(EXAMPLES / "p1.null")
        for order in ("degrevlex", "lex", "block:1"):
            code, out, err = run("gb", "--order", order, "--input", path,
                                 capsys=capsys)
            assert code == 0
            assert out == "X0\n"

    def test_points(self, capsys):
        code, out, err = run("points", "--affine", "--input",
                             str(EXAMPLES / "p1.null"), capsys=capsys)
        assert code == 0
        assert out == "(0,0)\n(0,1)\ncount: 2\n"

    def test_compare_agreement(self, capsys):
        code, out, err = run("compare", "--input",
                             str(EXAMPLES / "counterexample.null"),
                             capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["method", "wall_ms", "rounds", "gb"]
        assert [ln.split()[0] for ln in lines[1:4]] == \
            ["colon", "saturation", "oracle"]
        assert all(ln.endswith("{X1}") for ln in lines[1:4])
        assert lines[4] == "agree: yes"

    def test_certify_summary_and_identity(self, capsys):
        path = str(EXAMPLES / "counterexample.null")
        code, out, err = run("certify", "--input", path, capsys=capsys)
        assert code == 0
        assert out.splitlines() == [
            "d: 2",
            "j=0: g = X1^2, l = 0",
            "j=1: g = X1*X2, l = X1*X2 + X2^2",
        ]
        code, out, err = run("certify", "--input", path, "--poly", "X1*X2",
                             capsys=capsys)
        assert code == 0
        assert "X2^2 * f = (X1*X2) * f + (X1*X2 + X2^2) * f" in out
        assert out.rstrip().endswith("verified: yes")

    def test_certify_rejects_nonmember(self, capsys):
        code, out, err = run("certify", "--input",
                             str(EXAMPLES / "counterexample.null"),
                             "--poly", "X2", capsys=capsys)
        assert code == 2
        assert "error: X2 is not in <X1>" in err

    def test_certify_refusal_enumerates_once(self, monkeypatch, capsys):
        from helpers import count_calls
        from nullkit import nullstellensatz

        calls = count_calls(monkeypatch, "zero_set", module=nullstellensatz)
        code, out, err = run("certify", "--input",
                             str(EXAMPLES / "counterexample.null"),
                             "--poly", "X2", capsys=capsys)
        assert (code, out, err) == (2, "", "error: X2 is not in <X1>\n")
        assert len(calls) == 1

    def test_certify_builds_every_index_once(self, tmp_path, monkeypatch,
                                             capsys):
        """certify without --poly expands each h_i^(q-1) once, enumerates
        the zero set once and builds one table of P^n for all indices,
        and prints what make_certificate gives index by index."""
        from helpers import count_calls
        from nullkit import nullstellensatz
        from nullkit.poly import Polynomial

        path = write_problem(tmp_path, "field GF(3)\nvars X0 X1 X2\nideal:\n"
                                       "X0*X1 + X2^2; X0*X2 + X1*X2\n")
        problem = parse_problem_text(Path(path).read_text())
        want = [f"j={c.j}: g = {c.g}, l = {c.l}" for c in (
            nullstellensatz.make_certificate(problem.ideal, j, problem.cfg)
            for j in range(3))]
        powers = count_calls(monkeypatch, "__pow__", module=Polynomial)
        tables = count_calls(monkeypatch, "space_table",
                             module=nullstellensatz)
        zeros = count_calls(monkeypatch, "zero_set", module=nullstellensatz)
        code, out, err = run("certify", "--input", path, capsys=capsys)
        assert code == 0 and out.splitlines()[1:] == want
        assert sum(len(base.terms) > 1 for base, _ in powers) == 2
        assert len(tables) == len(zeros) == 1

    def test_certify_rejects_tower_nonmember(self, tmp_path, capsys):
        """Points in GF(4) outside the GF(2) coefficients: the refusal
        prints the colon result, which the oracle cannot interpolate."""
        path = write_problem(
            tmp_path, "coeffs GF(2)\npoints GF(4)\nvars X0 X1 X2\n"
                      "ideal:\nX0*X1 + X2^2\n")
        code, out, err = run("certify", "--input", path, "--poly", "X1",
                             capsys=capsys)
        assert code == 2 and out == ""
        assert err == ("error: X1 is not in <X0*X1 + X2^2, "
                       "X1^2*X2 + X0*X2^2, X0^2*X2 + X1*X2^2>\n")

    def test_certify_one_index_of_a_member(self, capsys):
        argv = ("certify", "--input", str(EXAMPLES / "counterexample.null"),
                "--poly", "X1*X2", "--j", "1")
        code, out, err = run(*argv, capsys=capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "d: 2",
            "j=1: g = X1*X2, l = X1*X2 + X2^2",
            "  X2^2 * f = (X1*X2) * f + (X1*X2 + X2^2) * f",
            "  g * f = X1^2*X2^2",
            "  l * f = X1^2*X2^2 + X1*X2^3",
            "verified: yes",
        ]
        code, out, err = run(*argv, "--json", capsys=capsys)
        assert code == 0
        assert json.loads(out)["certificates"] == [{
            "j": 1, "d": 2, "g": "X1*X2", "l": "X1*X2 + X2^2",
            "g_times_f": "X1^2*X2^2", "l_times_f": "X1^2*X2^2 + X1*X2^3",
        }]

    def test_certify_builds_only_the_asked_index(self, monkeypatch,
                                                 capsys):
        """certify --poly f --j J builds the certificate of index J
        alone, not every index to print one."""
        from helpers import count_calls
        from nullkit import nullstellensatz

        parts = count_calls(monkeypatch, "_certificate_parts",
                            module=nullstellensatz)
        code, out, err = run("certify", "--input", str(EXAMPLES / "p1.null"),
                             "--poly", "X0", "--j", "1", capsys=capsys)
        assert (code, err) == (0, "")
        assert [list(call[3]) for call in parts] == [[1]]

    def test_certify_needs_a_nonempty_zero_set(self, capsys):
        code, out, err = run("certify", "--input",
                             str(EXAMPLES / "irrelevant2.null"),
                             capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "error: certificates need a nonempty zero set\n"

    def test_certify_rejects_index_out_of_range(self, capsys):
        for j in ("7", "-1"):
            code, out, err = run("certify", "--input",
                                 str(EXAMPLES / "counterexample.null"),
                                 "--poly", "X1", "--j", j, capsys=capsys)
            assert code == 2 and out == ""
            assert err == f"error: index {j} outside 0..1\n"

    @pytest.mark.parametrize("literal, message", [
        ("GF(2^0)", "extension degree must be >= 1"),
        # beyond Python's default limit on int() of a digit string
        ("GF(" + "7" * 4301 + ")", "field literal number has more than"),
    ], ids=["exponent-0", "4301-digits"])
    def test_field_literal_out_of_range(self, tmp_path, capsys, literal,
                                        message):
        path = write_problem(
            tmp_path, f"field {literal}\nvars X0 X1\nideal:\nX0\n")
        code, out, err = run("gb", "--input", path, capsys=capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("field, generator", [
        ("GF(2)", "X0 + " + "7" * 5000 + "*X1"),
        ("GF(2)", "X0^" + "7" * 5000),
        ("GF(4)", "(t^" + "7" * 5000 + ")*X0"),
        ("GF(2^2; m=t^2+t+" + "7" * 5000 + ")", "X0"),
    ], ids=["coefficient", "exponent", "t-exponent", "modulus"])
    def test_long_integer_literals_exit_2(self, tmp_path, capsys, field,
                                          generator):
        """5,000 digits pass Python's int() limit of 4,300."""
        path = write_problem(
            tmp_path, f"field {field}\nvars X0 X1\nideal:\n{generator}\n")
        code, out, err = run("gb", "--input", path, capsys=capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}:")
        assert "number with 5000 digits is too long" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ("gb",), ("gb", "--emit-normalized"), ("vanishing", "--affine"),
        ("vanishing", "--projective"), ("certify",)],
        ids=["gb", "emit-normalized", "affine", "projective", "certify"])
    def test_huge_term_degree_exits_2(self, tmp_path, capsys, command):
        """Each exponent is a legal literal, but twelve of them sum past
        4,300 digits, which no degree message could print."""
        term = "*".join(["X0^" + "9" * 4299] * 12)
        path = write_problem(
            tmp_path, f"field GF(2)\nvars X0 X1\nideal:\nX1; {term}\n")
        start = time.perf_counter()
        code, out, err = run(*command, "--input", path, capsys=capsys)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == f"error: {path}:4:5: term degree has too many digits\n"

    def test_long_exponents_still_count_points(self, tmp_path, capsys):
        n = "1" + "0" * 39
        path = write_problem(
            tmp_path, f"field GF(2)\nvars X0 X1\nideal:\nX0^{n} + X1^{n}\n")
        code, out, err = run("points", "--projective", "--input", path,
                             capsys=capsys)
        assert code == 0, err
        assert out.endswith("count: 1\n")

    @pytest.mark.parametrize("generator, degree", [
        ("X0^1000000000000000000 + X1^1000000000000000000",
         "1000000000000000000"),
        ("X0^70000 - X1", "70000"),
    ], ids=["1e18", "70000"])
    def test_lex_basis_reports_the_exact_degree(self, tmp_path, capsys,
                                                generator, degree):
        """The degree limit is checked before exponents are packed into
        fixed-width fields, so the message names the input's degree."""
        path = write_problem(
            tmp_path, f"field GF(7)\nvars X0 X1\nideal:\n{generator}\n")
        start = time.perf_counter()
        code, out, err = run("gb", "--order", "lex", "--input", path,
                             capsys=capsys)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: intermediate degree {degree} exceeds 64\n"

    def test_colon_passes_the_degree_limit(self, tmp_path, capsys):
        """d = 83 here; the colon never builds a basis holding X_j^d."""
        path = write_problem(
            tmp_path, "field GF(3)\nvars X0 X1 X2\nideal:\n"
            "X0^40*X1 + X2^41\n")
        start = time.perf_counter()
        code, out, err = run("vanishing", "--projective", "--method",
                             "colon", "--input", path, capsys=capsys)
        assert time.perf_counter() - start < 10
        assert code == 0, err
        assert out == "X1*X2 + X2^2\nX0*X1 + X0*X2\nX0^2*X2 + 2*X2^3\n"
        assert run("vanishing", "--projective", "--method", "oracle",
                   "--input", path, capsys=capsys) == (0, out, "")

    @pytest.mark.parametrize("extra", [(), ("--poly", "X0*X1")],
                             ids=["certificates", "membership"])
    def test_oversized_certificate_exits_2(self, tmp_path, capsys, extra):
        """Both exponents are legal literals, but d = 4N + 1 here has
        4,301 digits: the certificate bound refuses it before d is
        printed."""
        n = "9" * 4300
        path = write_problem(
            tmp_path, f"field GF(3)\nvars X0 X1\nideal:\nX0^{n}; X1^{n}\n")
        start = time.perf_counter()
        code, out, err = run("certify", "--input", path, *extra,
                             capsys=capsys)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == ("error: certificate too large: C(d+1, 1) or d passes "
                       "the limit 10000\n")

    def test_missing_input_file(self, capsys):
        code, out, err = run("gb", "--input", "/does/not/exist.null",
                             capsys=capsys)
        assert code == 2
        assert err.startswith("error: cannot read")


class TestIdealOps:
    def test_all_five_ops(self, tmp_path, capsys):
        left = write_problem(
            tmp_path, "field GF(2)\nvars X0 X1\nideal:\nX0*X1; X0^2\n",
            "left.null")
        maxi = write_problem(
            tmp_path, "field GF(2)\nvars X0 X1\nideal:\nX0; X1\n",
            "max.null")

        code, out, _ = run("ideal-op", "--op", "sum", "--input", left,
                           "--other", maxi, capsys=capsys)
        assert code == 0 and set(out.split()) == {"X0", "X1"}

        code, out, _ = run("ideal-op", "--op", "intersect", "--input",
                           left, "--other", maxi, capsys=capsys)
        assert code == 0 and out == "X0*X1\nX0^2\n"

        code, out, _ = run("ideal-op", "--op", "quotient", "--input",
                           left, "--other", maxi, capsys=capsys)
        assert code == 0 and out == "X0\n"

        code, out, _ = run("ideal-op", "--op", "saturate", "--input",
                           left, "--other", maxi, capsys=capsys)
        assert code == 0 and out == "X0\nrounds: 2\n"

        # eliminating X0 leaves the zero ideal, rendered as no lines
        code, out, _ = run("ideal-op", "--op", "eliminate", "--input",
                           left, "--k", "1", capsys=capsys)
        assert code == 0 and out == ""

    def test_missing_arguments(self, capsys):
        path = str(EXAMPLES / "sat2.null")
        code, _, err = run("ideal-op", "--op", "quotient", "--input",
                           path, capsys=capsys)
        assert code == 2 and "needs --other" in err
        code, _, err = run("ideal-op", "--op", "eliminate", "--input",
                           path, capsys=capsys)
        assert code == 2 and "needs --k" in err

    def test_eliminate_rejects_k_out_of_range(self, capsys):
        path = str(EXAMPLES / "p1.null")
        for k in ("5", "-1", "2"):
            code, out, err = run("ideal-op", "--op", "eliminate", "--input",
                                 path, "--k", k, capsys=capsys)
            assert code == 2 and out == ""
            assert err == f"error: --k must lie in 0..1, got {k}\n"


class TestSearchCommand:
    def test_witness(self, capsys):
        code, out, err = run(
            "search", "--family", "r1",
            "--ideal", str(EXAMPLES / "counterexample.null"),
            "--target", "X1^2", "--bounds", "m=1,degp=2", capsys=capsys)
        assert code == 0
        assert out.splitlines()[0] == "result: witness"
        assert "composition: X1^2" in out

    def test_exhausted(self, capsys):
        code, out, err = run(
            "search", "--family", "r1",
            "--ideal", str(EXAMPLES / "counterexample.null"),
            "--target", "X2^2 - X2", "--bounds", "m=0,degp=2",
            capsys=capsys)
        assert code == 0
        assert out == ("result: exhausted\ncandidates: 6\n"
                       "bounds: m<=0 degp<=2 degargs<=2 chain<=2 exp<=3\n")

    def test_nonradical(self, capsys):
        code, out, err = run("search", "--nonradical", "--q", "2",
                             "--n", "2", "--maxdeg", "2", capsys=capsys)
        assert code == 0
        assert out == "result: found\nideal: X2^2\nwitness: X2\n"

    def test_nonradical_none(self, capsys):
        """No ideal with linear generators in P^2(GF(2)) has a
        non-radical I + Gamma_q^*."""
        assert run("search", "--nonradical", "--q", "2", "--n", "2",
                   "--maxdeg", "1", capsys=capsys) == (0, "result: none\n",
                                                       "")

    @pytest.mark.time_budget(10)
    @pytest.mark.parametrize("family", ["r1", "r2", "r3"])
    def test_gf3_default_bounds_reach_the_search_budget(self, tmp_path,
                                                        capsys, family):
        """Over GF(3) the default bounds list the 36,999 forms up to
        degree 4 in 3 variables, and each family then spends the search
        budget on <X1> with target X2^3 - X2."""
        path = write_problem(tmp_path,
                             "field GF(3)\nvars X1 X2\nideal:\nX1\n")
        start = time.perf_counter()
        code, out, err = run("search", "--family", family, "--ideal", path,
                             "--target", "X2^3 - X2", capsys=capsys)
        assert time.perf_counter() - start < 3
        assert (code, out) == (2, "")
        assert err == ("error: the search passed its budget of 20000 "
                       "structures and monomial residue terms at m<=2 "
                       "degp<=4 degargs<=2 chain<=2 exp<=3; lower exp or "
                       "the other bounds\n")

    @pytest.mark.time_budget(10)
    @pytest.mark.parametrize("family, target, head", [
        ("r1", "X1", "result: witness"),
        ("r3", "X1", "result: witness"),
        ("r3", "X2^2 - X2", "result: exhausted\ncandidates: 9936852")],
        ids=["r1-witness", "r3-witness", "r3-exhausted"])
    def test_inner_powers_are_built_on_demand(self, capsys, family, target,
                                              head):
        """A huge inner exponent bound costs nothing to a search that
        stops early or never reads the inner powers."""
        start = time.perf_counter()
        code, out, err = run(
            "search", "--family", family,
            "--ideal", str(EXAMPLES / "counterexample.null"),
            "--target", target, "--bounds", "exp=100000000", capsys=capsys)
        assert time.perf_counter() - start < 1
        assert code == 0 and out.startswith(head + "\n"), out + err

    @pytest.mark.time_budget(5)
    def test_set_up_builds_no_pool_the_search_does_not_read(self, tmp_path,
                                                            capsys):
        """On <X2> over GF(4) in X0 X1 X2 the argument pool at degargs=2
        has 4^10 polynomials.  The target X0^2 + X0 does not vanish on
        the zero set, so no candidate is tested with pool arguments,
        and each search answers in under a second."""
        path = write_problem(tmp_path,
                             "field GF(4)\nvars X0 X1 X2\nideal:\nX2\n")
        for family, bounds, candidates in [("r1", "m=0,degp=1", 3),
                                           ("r2", "m=1,degp=2", 25165828)]:
            start = time.perf_counter()
            code, out, err = run("search", "--family", family, "--ideal",
                                 path, "--target", "X0^2 + X0", "--bounds",
                                 bounds, capsys=capsys)
            assert time.perf_counter() - start < 1
            assert (code, err) == (0, "")
            assert out.splitlines()[:2] == ["result: exhausted",
                                            f"candidates: {candidates}"]

    @pytest.mark.time_budget(10)
    def test_huge_inner_exponent_exits_2(self, capsys):
        """r1 on a target that vanishes on the zero set builds the
        residue of f^n for every inner exponent n; the search budget
        stops it with exit 2 and a message naming exp."""
        start = time.perf_counter()
        code, out, err = run(
            "search", "--family", "r1",
            "--ideal", str(EXAMPLES / "counterexample.null"),
            "--target", "X2^2 - X2", "--bounds", "exp=100000000",
            capsys=capsys)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("error: the search passed its budget of 20000 "
                       "structures and monomial residue terms at m<=2 "
                       "degp<=4 degargs<=2 chain<=2 exp<=100000000; lower "
                       "exp or the other bounds\n")

    @pytest.mark.time_budget(10)
    @pytest.mark.parametrize("argv, message", [
        (("--family", "r1", "--ideal", str(EXAMPLES / "counterexample.null"),
          "--target", "X2^2 - X2", "--bounds", "degargs=100000"),
         "2^5000150001 argument candidates exceed the limit"),
        (("--nonradical", "--q", "2", "--n", "100000", "--maxdeg", "1"),
         "generator enumeration exceeds the limit")],
        ids=["degargs", "nonradical"])
    def test_oversized_enumerations_exit_2(self, capsys, argv, message):
        """The enumeration size is checked before any monomial is
        listed."""
        start = time.perf_counter()
        code, out, err = run("search", *argv, capsys=capsys)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_coefficients_outside_the_point_field(self, capsys):
        code, out, err = run(
            "search", "--family", "r1",
            "--ideal", str(EXAMPLES / "tower.null"), "--target", "X0",
            capsys=capsys)
        assert code == 2 and out == ""
        assert err == ("error: searches run with coefficients in the "
                       "point field\n")

    @pytest.mark.parametrize("n, maxdeg, message", [
        ("-1", "1", "--n -1 is negative"),
        ("2", "-1", "--maxdeg -1 is negative"),
        ("2", "0", "--maxdeg 0 leaves no generator degree to search")],
        ids=["n", "maxdeg", "maxdeg-zero"])
    def test_nonradical_refuses_negative_sizes(self, capsys, n, maxdeg,
                                               message):
        """A negative dimension or a degree cap below 1 is refused, not
        searched as an empty ring or an empty generator list, which
        would print "result: none" as if the search had exhausted."""
        code, out, err = run("search", "--nonradical", "--q", "2",
                             "--n", n, "--maxdeg", maxdeg, capsys=capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_incomplete_flags(self, capsys):
        code, _, err = run("search", "--family", "r1", "--target", "X1",
                           capsys=capsys)
        assert code == 2
        assert "search needs --family, --target and --ideal" in err


class TestRefusals:
    """Refusals no other test reaches, each pinned to its text and exit
    code 2."""

    P1 = "field GF(2)\nvars X0 X1\nideal:\nX0*X1\n"

    @pytest.mark.parametrize("order, message", [
        ("block:x", "bad block order 'block:x'"),
        ("block:5", "block size 5 out of range 0..2"),
        ("foo", "unknown order 'foo'")], ids=["block-x", "block-5", "foo"])
    def test_bad_orders(self, tmp_path, capsys, order, message):
        path = write_problem(tmp_path, self.P1)
        assert run("gb", "--order", order, "--input", path,
                   capsys=capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ("field GF(2)\nvars X0 X1\nvars X0\nideal:\nX0\n",
         "{path}:3:1: duplicate vars line"),
        ("field GF(2)\ncoeffs GF(2)\nvars X0 X1\nideal:\nX0\n",
         "{path}: give either a field line or a coeffs/points pair"),
        ("field GF(2)\nvars X0 X1\nideal:\nX0 $ X1\n",
         "{path}:4:4: unexpected character '$'"),
        ("field GF(4)\nvars X0 X1\nideal:\nX0 + (t + 1\n",
         "{path}:4:6: unclosed parenthesis")],
        ids=["vars", "field-and-coeffs", "dollar", "unclosed"])
    def test_bad_problem_files(self, tmp_path, capsys, text, message):
        path = write_problem(tmp_path, text)
        assert run("gb", "--input", path, capsys=capsys) == (
            2, "", f"error: {message.format(path=path)}\n")

    def test_other_from_another_ring(self, tmp_path, capsys):
        left = write_problem(tmp_path, self.P1, "left.null")
        other = write_problem(
            tmp_path, "field GF(3)\nvars X0 X1\nideal:\nX0\n", "o.null")
        assert run("ideal-op", "--op", "sum", "--input", left, "--other",
                   other, capsys=capsys) == (
            2, "", "error: --other lives in a different ring\n")

    def test_nonradical_needs_every_size(self, capsys):
        assert run("search", "--nonradical", "--q", "2", capsys=capsys) == (
            2, "", "error: --nonradical needs --q, --n and --maxdeg\n")

    def test_nonradical_takes_no_emit_normalized(self, capsys):
        """search --nonradical reads no problem, so the parser refuses
        --emit-normalized with it instead of running the search."""
        code, out, err = run("search", "--nonradical", "--q", "2", "--n",
                             "2", "--maxdeg", "2", "--emit-normalized",
                             capsys=capsys)
        assert (code, out) == (2, "")
        assert err.endswith("\nnullkit search: error: argument "
                            "--emit-normalized: not allowed with argument "
                            "--nonradical\n")

    def test_nonradical_needs_a_prime_power(self, capsys):
        assert run("search", "--nonradical", "--q", "6", "--n", "2",
                   "--maxdeg", "1", capsys=capsys) == (
            2, "", "error: 6 is not a prime power\n")

    @pytest.mark.time_budget(1)
    def test_oracle_refuses_past_its_point_budget(self, tmp_path, capsys):
        """The conic over GF(1009) has 1,010 points; Buchberger-Moller
        on them ran for minutes, and the budget refuses it within 1 s."""
        path = write_problem(tmp_path, "field GF(1009)\nvars X0 X1 X2\n"
                             "ideal:\nX0^2 + X1^2 - X2^2\n")
        assert run("vanishing", "--projective", "--method", "oracle",
                   "--input", path, capsys=capsys) == (
            2, "", "error: the oracle takes at most 128 points; the zero "
            "set has 1010\n")

    def test_search_emits_the_normalized_problem(self, capsys):
        assert run("search", "--family", "r1", "--ideal",
                   str(EXAMPLES / "counterexample.null"), "--target", "X1",
                   "--emit-normalized", capsys=capsys) == (
            0, "field GF(2)\nvars X1 X2\nideal:\nX1\n", "")


class TestSuiteCommand:
    def test_pass(self, capsys):
        code, out, err = run("suite", "counterexample", capsys=capsys)
        assert code == 0
        assert "groups passed: 4/4" in out
        assert out.rstrip().endswith("suite: PASS")

    def test_vacuous_bounds_fail(self, capsys):
        code, out, err = run("suite", "counterexample", "--bounds",
                             "degp=0", capsys=capsys)
        assert code == 1
        assert out.rstrip().endswith("suite: FAIL")


def scrub(doc):
    if isinstance(doc, dict):
        return {k: scrub(v) for k, v in doc.items() if k != "wall_ms"}
    if isinstance(doc, list):
        return [scrub(v) for v in doc]
    return doc


class TestJson:
    def test_schema_and_stability(self, capsys):
        argv = ("vanishing", "--affine", "--input",
                str(EXAMPLES / "p1.null"), "--json")
        _, first, _ = run(*argv, capsys=capsys)
        _, second, _ = run(*argv, capsys=capsys)
        doc = json.loads(first)
        assert doc["schema_version"] == SCHEMA_VERSION == 1
        assert doc["tool"] == "nullkit"
        assert doc["command"][0] == "vanishing"
        assert doc["coeff_field"] == doc["point_field"] == "GF(2)"
        assert doc["generators"] == ["X0", "X1^2 + X1"]
        assert scrub(doc) == scrub(json.loads(second))

    def test_compare_payload(self, capsys):
        _, out, _ = run("compare", "--input", str(EXAMPLES / "p1.null"),
                        "--json", capsys=capsys)
        doc = json.loads(out)
        assert doc["agree"] is True
        assert [m["method"] for m in doc["methods"]] == \
            ["colon", "saturation", "oracle"]
        for m in doc["methods"]:
            assert m["generators"] == ["X0"]

    def test_suite_payload(self, capsys):
        _, out, _ = run("suite", "counterexample", "--json", capsys=capsys)
        doc = json.loads(out)
        assert doc["ok"] is True
        assert len(doc["steps"]) == 8
        assert [g["name"] for g in doc["groups"]] == \
            ["formula", "membership", "exhaustion", "controls"]


class TestDeterminism:
    CASES = [
        ("gb", "--input", str(EXAMPLES / "p1.null")),
        ("points", "--projective", "--input",
         str(EXAMPLES / "counterexample.null")),
        ("vanishing", "--projective", "--input",
         str(EXAMPLES / "counterexample.null")),
        ("certify", "--input", str(EXAMPLES / "counterexample.null")),
        ("search", "--family", "r2",
         "--ideal", str(EXAMPLES / "counterexample.null"),
         "--target", "X2^2 - X2", "--bounds", "m=1,degp=2"),
        ("suite", "counterexample"),
    ]

    def test_text_output_is_byte_identical(self, capsys):
        for argv in self.CASES:
            runs = [run(*argv, capsys=capsys) for _ in range(2)]
            # two identical failures would pass the comparison vacuously
            assert [code for code, _, _ in runs] == [0, 0], (argv, runs[0][2])
            assert runs[0] == runs[1], argv[0]
