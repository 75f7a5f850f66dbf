"""A .null fuzzer: generated problem text through main(argv), in process.

Field lines valid and junk, t-coefficients, moduli and generator soup
go through gb, gb --emit-normalized, points --affine and vanishing
--affine.  Well-formed problems over small fields and tower pairs go
through the projective commands: points, vanishing with each method,
compare, certify and ideal-op.  Every run must end in an answer
(exit 0) or in exit 2 with an error: line, and no exception may escape.
"""

import pytest

from nullkit.cli import main

FIELDS = ["GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(9)", "GF(2^3)",
          "GF(3^2; m=t^2+2*t+2)", "GF(2^2; m=t^2+t+1)", "GF(101)",
          "GF(4099)", "GF(67^2; m=t^2+1)"]
JUNK_FIELDS = ["GF(6)", "GF(1)", "GF(0)", "GF()", "GF(4", "gf(2)",
               "GF(2^0)", "GF(2^9)", "GF(2^5)", "GF(2^2; m=t^2+1)",
               "GF(5; m=t+1)", "GF(3^2; m=t^2+2t+2)", "GF(3^2; m=t^3+1)",
               "GF(3^2; m=(t)^2+1)", "GF(3^2; m=)", "GF(7^2; m=t^2+t^99999)",
               "GF(" + "9" * 60 + ")", "GF(2)x", ""]
COEFFS = ["0", "1", "2", "3", "100", "-1", "9" * 40, "t", "(t)", "(t+1)",
          "(t^2+1)", "(2*t+1)", "(t^7)", "(1+1)", "(X0)"]
JUNK = ["+", "-", "*", "^", "(", ")", "()", "^^", "1/2", "Y", "X9",
        "X0^-1", "t^1000", ";", "  ", "**", "x0", "X0 X1", "2t"]
COMMANDS = [["gb"], ["gb", "--emit-normalized"], ["points", "--affine"],
            ["vanishing", "--affine"]]


def _problems(st):
    """Problem texts, mostly well formed, with junk in every part."""

    @st.composite
    def problem(draw):
        def pick(options):
            return draw(st.sampled_from(options))

        def field():
            return pick(FIELDS) if draw(st.integers(0, 3)) else pick(
                JUNK_FIELDS)

        kind = draw(st.integers(0, 5))
        header = ("" if kind == 5 else
                  f"coeffs {field()}\npoints {field()}\n" if kind == 4 else
                  f"field {field()}\nfield {field()}\n" if kind == 3 else
                  f"field {field()}\n")
        n = draw(st.integers(0, 3))
        vars_line = (f"vars {' '.join(f'X{i}' for i in range(n))}\n" if n
                     else pick(["vars\n", "vars X0 X0\n", "vars 1X\n", ""]))

        def term():
            mono = "*".join(f"X{draw(st.integers(0, 2))}^"
                            f"{draw(st.integers(0, 3))}"
                            for _ in range(draw(st.integers(0, 2))))
            coef = pick(COEFFS)
            return f"{coef}*{mono}" if mono else coef

        def generator():
            if draw(st.integers(0, 3)):
                return " + ".join(term() for _ in range(
                    draw(st.integers(1, 3))))
            return "".join(pick(COEFFS + JUNK + ["X0", "X1", "t"])
                           for _ in range(draw(st.integers(1, 6))))

        gens = "; ".join(generator() for _ in range(draw(st.integers(0, 3))))
        return f"{header}{vars_line}ideal:\n{gens}\n"

    return problem()


def test_generated_problems_answer_or_exit_2(tmp_path_factory, capsys):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    path = tmp_path_factory.mktemp("fuzz") / "fuzz.null"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_problems(st), st.sampled_from(COMMANDS))
    def check(text, command):
        path.write_text(text)
        code = main(command + ["--input", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2), (text, command, code, err)
        if code == 2:
            assert err.startswith("error:"), (text, command, err)

    check()


# (header, coefficients beyond the integers) per field or tower pair
PROJECTIVE_FIELDS = [
    ("field GF(2)", []), ("field GF(3)", []), ("field GF(4)", ["(t)"]),
    ("field GF(5)", []), ("field GF(9)", ["(t)", "(t+1)"]),
    ("coeffs GF(4)\npoints GF(2)", ["(t)"]),
    ("coeffs GF(2)\npoints GF(4)", [])]
OPS = ["sum", "intersect", "quotient", "saturate"]
PROJECTIVE_COMMANDS = (
    [["points", "--projective"], ["compare"], ["certify"],
     ["certify", "--j", "1"], ["certify", "--poly", "X0*X1"],
     ["ideal-op", "--op", "eliminate", "--k", "1"]]
    + [["vanishing", "--projective", "--method", m]
       for m in ("colon", "saturation", "oracle")]
    + [["ideal-op", "--op", op] for op in OPS])


def _projective_problems(st):
    """(problem, other) texts in one ring: 2-3 variables, generators of
    degree at most 3, mostly homogeneous."""

    @st.composite
    def problems(draw):
        header, extra = draw(st.sampled_from(PROJECTIVE_FIELDS))
        n = draw(st.integers(2, 3))
        coeffs = ["1", "2"] + extra

        def generator():
            homogeneous = draw(st.integers(0, 3))
            d = draw(st.integers(1, 3))
            terms = []
            for _ in range(draw(st.integers(1, 3))):
                degree = d if homogeneous else draw(st.integers(0, 3))
                mono = "*".join(f"X{draw(st.integers(0, n - 1))}"
                                for _ in range(degree))
                coef = draw(st.sampled_from(coeffs))
                terms.append(f"{coef}*{mono}" if mono else coef)
            return " + ".join(terms)

        def text():
            gens = "; ".join(generator()
                             for _ in range(draw(st.integers(1, 3))))
            return (f"{header}\nvars {' '.join(f'X{i}' for i in range(n))}"
                    f"\nideal:\n{gens}\n")

        return text(), text()

    return problems()


def test_generated_projective_problems_answer_or_exit_2(tmp_path_factory,
                                                        capsys):
    """Points, the three projective methods, compare, certify and the
    ideal operations on generated problems over small fields and both
    tower pairs: an answer or exit 2 with an error: line.  Exit 1, a
    disagreement between the methods, fails."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    folder = tmp_path_factory.mktemp("fuzz")
    path, other = folder / "fuzz.null", folder / "other.null"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_projective_problems(st), st.sampled_from(PROJECTIVE_COMMANDS))
    def check(texts, command):
        path.write_text(texts[0])
        other.write_text(texts[1])
        argv = command + ["--input", str(path)]
        if command[-1] in OPS:
            argv += ["--other", str(other)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2), (texts, command, code, err)
        if code == 2:
            assert err.startswith("error:"), (texts, command, err)

    check()
