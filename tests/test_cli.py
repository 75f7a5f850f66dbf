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
from nullkit.errors import InconsistentTower, ParseError

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

    def test_coefficients_outside_the_point_field(self, capsys):
        code, out, err = run(
            "search", "--family", "r1",
            "--ideal", str(EXAMPLES / "tower.null"), "--target", "X0",
            capsys=capsys)
        assert code == 2 and out == ""
        assert err == ("error: searches run with coefficients in the "
                       "point field\n")

    def test_incomplete_flags(self, capsys):
        code, _, err = run("search", "--family", "r1", "--target", "X1",
                           capsys=capsys)
        assert code == 2
        assert "search needs --family, --target and --ideal" in err


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
