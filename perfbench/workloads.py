"""The four workloads: inputs made from the seed, and checked problems.

Each ``setup_<name>(seed, work_dir, golden)`` runs inside the workload
process.  It builds fields, generates the inputs and fills the caches a
library caller keeps, then returns the problems of one pass as a list
of ``(problem_id, run)`` pairs.  ``run()`` solves one problem through
nullkit's public API (or its command line) and raises ``CheckFailed``
when the output is not the checked one; it may return a line for the
run's report.
"""

import contextlib
import io
import itertools
import os
import random
import re
import subprocess
import sys

import nullkit as nk

PVARS = ("X0", "X1", "X2")
METHODS = ("colon", "saturation", "oracle")

# Candidate counts of the three exhausted families at default bounds.
SEARCH_COUNTS = {"r1": 3245388, "r2": 8855056, "r3": 9936852}


class CheckFailed(Exception):
    pass


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def corpus_forms():
    """Every nonzero form of degree 1 or 2 in X0, X1, X2 over GF(2),
    as text, followed by "" for the zero ideal: 71 inputs."""
    out = []
    for d in (1, 2):
        monos = sorted((e for e in itertools.product(range(d + 1), repeat=3)
                        if sum(e) == d), reverse=True)
        for bits in itertools.product((0, 1), repeat=len(monos)):
            terms = [_mono_text(m) for m, b in zip(monos, bits) if b]
            if terms:
                out.append(" + ".join(terms))
    out.append("")
    return out


def _mono_text(exps):
    return "*".join(f"X{i}" if e == 1 else f"X{i}^{e}"
                    for i, e in enumerate(exps) if e)


def basis_strings(ideal):
    return tuple(str(g) for g in ideal.gb().gens)


def three_methods(spec, vars, gens, cfg):
    """Reduced bases from colon, saturation and oracle, each computed on
    a fresh Ideal so that no method reuses another's cached basis."""
    results = {}
    for method in METHODS:
        res, _ = nk.projective_vanishing(nk.Ideal(spec, vars, gens), cfg,
                                         method=method)
        results[method] = res
    bases = {m: basis_strings(r) for m, r in results.items()}
    check(bases["colon"] == bases["saturation"] == bases["oracle"],
          f"methods disagree: {bases}")
    return results["colon"], bases["colon"]


# ------------------------------------------------------------- corpus

def setup_corpus(seed, work_dir, golden):
    """Criterion-3 corpus; the seed permutes the problem order only."""
    F2 = nk.make_field(2)
    cfg = nk.NullConfig(F2, F2, PVARS)
    expected = golden["corpus"]
    problems = []
    for text in corpus_forms():
        gens = [nk.parse_polynomial(text, PVARS, F2)] if text else []

        def run(gens=gens, text=text):
            _, basis = three_methods(F2, PVARS, gens, cfg)
            check(list(basis) == expected[text],
                  f"<{text}>: {basis} differs from the recorded basis")

        problems.append((text or "0", run))
    random.Random(seed).shuffle(problems)
    return problems


# ------------------------------------------------------------- points

# (p, e) of GF(3), GF(4), GF(5), GF(7), GF(8), GF(9).
POINT_FIELDS = ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))
# Products of two lines only where one costs well under a second; over
# GF(7) to GF(9) a single product takes 1.5 to 5 s.
PRODUCT_FIELDS = ((3, 1), (2, 2), (5, 1))
CONIC_PRIMES = (101, 251)


def _scaled(spec, vars, rng, *bases):
    """The forms sum(c_i * X_i) for each base coefficient vector c,
    with X_i replaced by l_i * X_i for random nonzero l_1, ..., l_n.

    A diagonal substitution maps every step of Buchberger's algorithm
    to the matching step on the base forms, and Gamma_q^* to itself,
    so the seed varies the forms but not the work; only the oracle's
    fold visits the (mapped) points in another order."""
    scale = [1] + [rng.randrange(1, spec.q) for _ in vars[1:]]
    forms = []
    for base in bases:
        f = nk.Polynomial.zero(spec, vars)
        for v, c, s in zip(vars, base, scale):
            if c:
                f = f + nk.Polynomial.variable(spec, vars, v).scale(
                    spec.element(c) * spec.element(s))
        forms.append(f)
    return forms


# Base coefficient vectors (field encodings) of the linear forms.
LINE = (1, 1, 1)
LINE_THROUGH_VERTEX = (1, 1, 0)
OTHER_LINE = (1, 2, 1)


def setup_points(seed, work_dir, golden):
    rng = random.Random(seed)
    vars2 = PVARS
    vars3 = PVARS + ("X3",)
    inputs = []
    for p, e in POINT_FIELDS:
        spec = nk.make_field(p, e)
        name = f"GF({spec.q})"
        inputs.append((f"{name} P2 line", spec, vars2,
                       _scaled(spec, vars2, rng, LINE)))
        inputs.append((f"{name} P2 line via vertex", spec, vars2,
                       _scaled(spec, vars2, rng, LINE_THROUGH_VERTEX)))
        inputs.append((f"{name} P2 pair", spec, vars2,
                       _scaled(spec, vars2, rng, LINE, OTHER_LINE)))
        if (p, e) in PRODUCT_FIELDS:
            f, g = _scaled(spec, vars2, rng, LINE, OTHER_LINE)
            inputs.append((f"{name} P2 product", spec, vars2, [f * g]))
    F3, F5 = nk.make_field(3), nk.make_field(5)
    inputs.append(("GF(3) P3 pair", F3, vars3,
                   _scaled(F3, vars3, rng, LINE + (1,), OTHER_LINE + (1,))))
    inputs.append(("GF(3) P3 full", F3, vars3, []))
    inputs.append(("GF(5) P2 full", F5, vars2, []))

    problems = []
    for pid, spec, vars, gens in inputs:
        cfg = nk.NullConfig(spec, spec, vars)

        def run(spec=spec, vars=vars, gens=gens, cfg=cfg):
            colon, _ = three_methods(spec, vars, gens, cfg)
            f = colon.gb().gens[0]
            certs = nk.certify_membership(f, nk.Ideal(spec, vars, gens), cfg)
            check([c.j for c in certs] == list(range(len(vars))),
                  f"certificates for indices {[c.j for c in certs]}")

        problems.append((pid, run))

    for p in CONIC_PRIMES:
        spec = nk.make_field(p)
        a, b = (spec.element(rng.randrange(1, p)) for _ in range(2))
        x0, x1, x2 = (nk.Polynomial.variable(spec, vars2, v) for v in vars2)
        conic = x0 ** 2 + (x1 ** 2).scale(a) + (x2 ** 2).scale(b)

        def count(spec=spec, conic=conic):
            V = nk.zero_set(nk.Ideal(spec, vars2, [conic]), spec,
                            "projective")
            check(len(V) == spec.q + 1,
                  f"{conic} has {len(V)} points over {spec}, "
                  f"expected {spec.q + 1}")

        problems.append((f"GF({p}) conic", count))
    return problems


# ------------------------------------------------------------- search

def setup_search(seed, work_dir, golden):
    """The scripted counterexample suite; a fixed proof, so the seed
    changes nothing."""
    bounds = nk.SearchBounds()
    K = nk.make_field(2)
    # Fills conjectures' form cache for the suite's bounds, as any
    # caller running more than one search does.
    for m in range(bounds.max_m + 1):
        nk.enumerate_forms(K, m, bounds.max_deg_p)

    def run():
        report = nk.counterexample_suite(raise_on_failure=False)
        failed = [s.name for s in report.steps if not s.passed]
        check(report.ok, f"suite steps failed: {failed}")
        check(not any(s.vacuous for s in report.steps), "a step is vacuous")
        for family, count in SEARCH_COUNTS.items():
            step = next(s for s in report.steps
                        if s.name == f"{family} search exhausts for f")
            check(step.detail == f"{count} candidates",
                  f"{family}: {step.detail}, expected {count} candidates")
        return "exhausted with " + ", ".join(
            f"{family}: {count} candidates"
            for family, count in SEARCH_COUNTS.items())

    return [("suite", run)]


# ---------------------------------------------------------------- cli

# The five problem files the README and tests use, plus the irrelevant
# ideal for ideal-op and the inputs that must be refused.
FIXTURES = {
    "p1.null": "field GF(2)\nvars X0 X1\nideal:\nX0\n",
    "counterexample.null": "field GF(2)\nvars X1 X2\nideal:\nX1\n",
    "sat2.null": "field GF(2)\nvars X0 X1\nideal:\nX0*X1; X0^2\n",
    "irrelevant2.null": "field GF(2)\nvars X0 X1\nideal:\nX0^2 + X0*X1 + X1^2\n",
    "tower.null": "coeffs GF(4)\npoints GF(2)\nvars X0 X1 X2\nideal:\n"
                  "X0*X1 + X2^2\n",
    "m.null": "field GF(2)\nvars X0 X1\nideal:\nX0; X1\n",
    "bad_field.null": "field GF(6)\nvars X0\nideal:\nX0\n",
    "bad_syntax.null": "field GF(2)\nvars X0 X1\nideal:\nX0 + + X1\n",
    "inhomogeneous.null": "field GF(2)\nvars X0 X1\nideal:\nX0^2 + X1\n",
}

# (id, argv, expected exit code).  Files are named relative to the
# working directory, so outputs do not depend on where it lives.
COMMANDS = [
    ("gb-degrevlex", ["gb", "--input", "p1.null"], 0),
    ("gb-lex", ["gb", "--order", "lex", "--input", "sat2.null"], 0),
    ("gb-block-json", ["gb", "--order", "block:1", "--input", "sat2.null",
                       "--json"], 0),
    ("gb-emit", ["gb", "--input", "tower.null", "--emit-normalized"], 0),
    ("points-affine", ["points", "--affine", "--input", "p1.null"], 0),
    ("points-projective", ["points", "--projective", "--input",
                           "counterexample.null"], 0),
    ("vanishing-affine-json", ["vanishing", "--affine", "--input",
                               "p1.null", "--json"], 0),
    ("vanishing-colon", ["vanishing", "--projective", "--method", "colon",
                         "--input", "counterexample.null"], 0),
    ("vanishing-saturation", ["vanishing", "--projective", "--method",
                              "saturation", "--input", "sat2.null"], 0),
    ("vanishing-oracle", ["vanishing", "--projective", "--method", "oracle",
                          "--input", "tower.null"], 0),
    ("vanishing-empty", ["vanishing", "--projective", "--input",
                         "irrelevant2.null"], 0),
    ("compare", ["compare", "--input", "counterexample.null"], 0),
    ("compare-json", ["compare", "--input", "tower.null", "--json"], 0),
    ("certify", ["certify", "--input", "counterexample.null"], 0),
    ("certify-poly", ["certify", "--input", "counterexample.null",
                      "--poly", "X1*X2"], 0),
    ("saturate", ["ideal-op", "--op", "saturate", "--input", "sat2.null",
                  "--other", "m.null"], 0),
    ("search-r1", ["search", "--family", "r1", "--ideal",
                   "counterexample.null", "--target", "X2^2 - X2",
                   "--bounds", "m=1,degp=2"], 0),
    ("search-nonradical-json", ["search", "--nonradical", "--q", "2",
                                "--n", "2", "--maxdeg", "2", "--json"], 0),
    ("bad-field", ["gb", "--input", "bad_field.null"], 2),
    ("bad-syntax", ["gb", "--input", "bad_syntax.null"], 2),
    ("inhomogeneous", ["vanishing", "--projective", "--input",
                       "inhomogeneous.null"], 2),
    ("non-member", ["certify", "--input", "counterexample.null", "--poly",
                    "X2"], 2),
    ("bad-bounds", ["search", "--family", "r1", "--ideal",
                    "counterexample.null", "--target", "X2",
                    "--bounds", "m=two"], 2),
    ("missing-file", ["gb", "--input", "missing.null"], 2),
]

# Generated problems, one per template over GF(3); the seed picks the
# coefficients.  The variants of a template are images of one another
# under X_i -> l_i * X_i, so they cost the same work.
GENERATED = ("X0 + {a}X1 + {b}X2", "X0*X1 + {a}X2^2",
             "X0*X1 + {a}X0*X2 + {b}X1*X2")


def _coef(c):
    return "" if c == 1 else f"{c}*"


def generated_variants(template):
    """Every coefficient choice of a template, as form text."""
    return list(dict.fromkeys(template.format(a=_coef(a), b=_coef(b))
                              for a in (1, 2) for b in (1, 2)))


def generated_file(form):
    return f"field GF(3)\nvars X0 X1 X2\nideal:\n{form}\n"


_WALL_JSON = re.compile(r'("wall_ms": )-?[0-9][0-9.eE+-]*')
_WALL_TEXT = re.compile(r"^(colon|saturation|oracle) +[0-9]+\.[0-9]{2} ",
                        re.MULTILINE)


def mask_wall(text):
    """Replace the reported wall times, the only nondeterministic output."""
    text = _WALL_JSON.sub(r'\1"*"', text)
    return _WALL_TEXT.sub(r"\1 * ", text)


def cli_script(seed):
    """(id, argv, expected code, golden key) for one pass, and the
    generated problem files to write."""
    rng = random.Random(seed)
    files = {}
    script = [(cid, argv, code, ("commands", cid))
              for cid, argv, code in COMMANDS]
    for k, template in enumerate(GENERATED):
        form = rng.choice(generated_variants(template))
        name = f"gen{k}.null"
        files[name] = generated_file(form)
        script.append((f"gen{k} <{form}>", ["compare", "--input", name], 0,
                       ("compare", form)))
    return script, files


def run_cli(argv, work_dir):
    """One `python -m nullkit.cli` process; nullkit comes from PYTHONPATH."""
    proc = subprocess.run([sys.executable, "-m", "nullkit.cli", *argv],
                          cwd=work_dir, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def main_in_process(argv, work_dir):
    """The same command through nullkit.cli.main in this process."""
    from nullkit import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def check_cli(code, out, err, expected_code, golden_out):
    check(code == expected_code, f"exit {code}, expected {expected_code}: "
                                 f"{err.strip()[:200]}")
    check("Traceback" not in err, f"traceback on stderr: {err[-300:]}")
    check(mask_wall(out) == golden_out, f"stdout differs: {out[:300]!r}")


def write_files(work_dir, files):
    os.makedirs(work_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(work_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def setup_cli(seed, work_dir, golden, in_process=False):
    """The command script as subprocesses, or with in_process through
    nullkit.cli.main (the traced run), with the same checks."""
    script, generated = cli_script(seed)
    write_files(work_dir, {**FIXTURES, **generated})
    command = main_in_process if in_process else run_cli
    if not in_process:
        # One untimed command fills the byte-code and page caches, which
        # a command-line user pays for once, not on every call.
        run_cli(["--version"], work_dir)
    problems = []
    for cid, argv, code, (section, key) in script:
        expected = golden[section][key]

        def run(argv=argv, code=code, expected=expected):
            check_cli(*command(argv, work_dir), code, expected)

        problems.append((cid, run))
    return problems
