"""Command line driver.

Problems come in as small text files (extension .null by convention):

    # comment
    field GF(2)            # or:  coeffs GF(4)  +  points GF(2)
    vars X0 X1
    ideal:
    X0

Generators follow the ideal: marker, one per line or separated by
semicolons; an inline `ideal: X0` also works.  The subcommands are gb,
ideal-op, points, vanishing, compare, certify, search and suite; every
file-reading subcommand accepts --emit-normalized to print the parsed
problem back in canonical form, and --json switches any subcommand to
a versioned machine-readable report.

Exit codes: 0 for success, 1 for a violated assertion (method
disagreement, a failing suite, an impossible emptiness classification),
2 for bad input.  All output is deterministic except wall-clock fields.
"""

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass

from . import __version__
from .conjectures import (
    FAMILIES,
    Exhausted,
    SearchBounds,
    counterexample_suite,
    find_nonradical_instance,
    search_witness,
)
from .errors import (
    ClassificationFailure,
    EmptyVariety,
    NullkitError,
    ParseError,
    RingMismatch,
)
from .field import parse_field_literal
from .ideals import (
    Ideal,
    eliminate,
    ideal_intersect,
    ideal_quotient,
    ideal_saturate,
    ideal_sum,
    reduced,
)
from .nullstellensatz import (
    METHODS,
    NullConfig,
    affine_vanishing,
    certificate_degree,
    certify_membership,
    classify_empty,
    make_certificates,
    projective_vanishing,
)
from .poly import DEGREVLEX, LEX, block_order, parse_polynomial
from .varieties import AFFINE, PROJECTIVE, zero_set

SCHEMA_VERSION = 1

_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


@dataclass
class Problem:
    """A parsed problem file: field tower, ring and ideal."""

    cfg: NullConfig
    ideal: Ideal
    name: str

    def emit_normalized(self):
        """Canonical text form; parsing it again gives the same problem."""
        k, K = self.cfg.k_spec, self.cfg.K_spec
        if k is K:
            lines = [f"field {k.literal()}"]
        else:
            lines = [f"coeffs {k.literal()}", f"points {K.literal()}"]
        lines.append("vars " + " ".join(self.cfg.vars))
        lines.append("ideal:")
        lines.extend(g.to_string() for g in self.ideal.gens)
        return "\n".join(lines) + "\n"


def _syntax(name, lineno, col, msg):
    raise ParseError(f"{name}:{lineno}:{col}: {msg}")


# The slot each field directive fills, as "duplicate <slot> line" names it.
_FIELD_SLOTS = {"field": "field", "coeffs": "coeffs",
                "points": "points/base", "base": "points/base"}


def parse_problem_text(text, name="<input>"):
    """Parse problem text; errors cite name:line:column."""
    specs = {}
    vars = None
    gens = []
    in_ideal = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if in_ideal:
            _collect_generators(gens, raw, line, lineno)
            continue
        stripped = line.strip()
        col = raw.index(stripped) + 1
        if stripped.startswith("ideal:"):
            in_ideal = True
            rest = stripped[len("ideal:"):]
            if rest.strip():
                _collect_generators(gens, raw, rest, lineno)
            continue
        head, _, rest = stripped.partition(" ")
        rest = rest.strip()
        if head in _FIELD_SLOTS:
            if not rest:
                _syntax(name, lineno, col, f"{head} needs a field literal")
            try:
                spec = parse_field_literal(rest)
            except ParseError as exc:
                _syntax(name, lineno, raw.index(rest) + 1, exc.reason)
            slot = _FIELD_SLOTS[head]
            if slot in specs:
                _syntax(name, lineno, col, f"duplicate {slot} line")
            specs[slot] = spec
        elif head == "vars":
            if vars is not None:
                _syntax(name, lineno, col, "duplicate vars line")
            names = rest.split()
            if not names:
                _syntax(name, lineno, col, "vars needs at least one name")
            for v in names:
                if not _VAR_RE.match(v):
                    _syntax(name, lineno, raw.index(v) + 1,
                            f"bad variable name {v!r}")
                if v == "t":
                    _syntax(name, lineno, raw.index(v) + 1,
                            "the name t is reserved for field extensions")
            if len(set(names)) != len(names):
                _syntax(name, lineno, col, "repeated variable name")
            vars = tuple(names)
        else:
            _syntax(name, lineno, col, f"unknown directive {head!r}")

    if "field" in specs and len(specs) > 1:
        raise ParseError(
            f"{name}: give either a field line or a coeffs/points pair")
    if not specs:
        raise ParseError(f"{name}: missing field declaration")
    if vars is None:
        raise ParseError(f"{name}: missing vars line")
    if not in_ideal:
        raise ParseError(f"{name}: missing ideal: section")
    K = specs.get("points/base") or specs.get("field") or specs["coeffs"]
    F = specs.get("coeffs", K)
    cfg = NullConfig(F, K, vars)
    polys = []
    for lineno, col, src in gens:
        try:
            polys.append(parse_polynomial(src, vars, F))
        except ParseError as exc:
            _syntax(name, lineno, col + (exc.position or 0), exc.reason)
    return Problem(cfg, Ideal(F, vars, polys), name)


def _collect_generators(gens, raw, segment, lineno):
    # keep column offsets so later parse errors can cite them
    offset = raw.index(segment.strip(), raw.find(segment))
    for part in segment.split(";"):
        src = part.strip()
        if src:
            gens.append((lineno, raw.index(src, offset) + 1, src))


def parse_problem(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    return parse_problem_text(text, name=path)


def _parse_order(text, nvars):
    if text == "degrevlex":
        return DEGREVLEX
    if text == "lex":
        return LEX
    if text.startswith("block:"):
        try:
            k = int(text[len("block:"):])
        except ValueError:
            raise ParseError(f"bad block order {text!r}")
        if not 0 <= k <= nvars:
            raise ParseError(f"block size {k} out of range 0..{nvars}")
        return block_order(k)
    raise ParseError(f"unknown order {text!r}")


def parse_bounds(text):
    """Parse m=2,degp=4,degargs=2,chain=2,exp=3 with defaults filled in."""
    keys = {"m": "max_m", "degp": "max_deg_p", "degargs": "max_deg_args",
            "chain": "max_chain", "exp": "max_inner_exp"}
    kwargs = {}
    for item in filter(None, (s.strip() for s in text.split(","))):
        key, eq, value = item.partition("=")
        if key not in keys or not eq:
            raise ParseError(f"bad bounds item {item!r}")
        try:
            kwargs[keys[key]] = int(value)
        except ValueError:
            raise ParseError(f"bounds value in {item!r} is not an integer")
        if kwargs[keys[key]] < 0:
            raise ParseError(f"bounds value in {item!r} is negative")
    return SearchBounds(**kwargs)


class _Report:
    """Accumulates both the text rendering and the JSON payload."""

    def __init__(self, args):
        self.json = args.json
        self.problem = None
        self.lines = []
        self.payload = {}

    def line(self, text=""):
        self.lines.append(text)

    def set(self, key, value):
        self.payload[key] = value

    def generators(self, gens):
        for g in gens:
            self.line(g)
        self.set("generators", gens)

    def emit(self, command):
        """The report for command, or the normalized problem when
        command is None."""
        if command is None:
            return self.problem.emit_normalized()
        if not self.json:
            return "\n".join(self.lines) + ("\n" if self.lines else "")
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool": "nullkit",
            "version": __version__,
            "command": command,
        }
        if self.problem is not None:
            doc["coeff_field"] = self.problem.cfg.k_spec.literal()
            doc["point_field"] = self.problem.cfg.K_spec.literal()
        doc.update(self.payload)
        return json.dumps(doc, indent=2) + "\n"


def _generators(I, order=DEGREVLEX):
    return [g.to_string(order) for g in I.gb(order).gens]


def _timed(fn, *args, **kwargs):
    """fn's result and its wall time in milliseconds."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter() - t0) * 1000.0


# Each command fills the report and returns (exit code, command echo);
# main has already parsed --input into rep.problem.

def _cmd_gb(args, rep):
    problem = rep.problem
    order = _parse_order(args.order, len(problem.cfg.vars))
    gens, wall = _timed(_generators, problem.ideal, order)
    rep.set("order", args.order)
    rep.generators(gens)
    rep.set("gb_size", len(gens))
    rep.set("wall_ms", wall)
    return 0, ["gb", args.input]


def _cmd_ideal_op(args, rep):
    problem = rep.problem
    op = args.op
    rounds = None
    if op in ("sum", "intersect", "quotient", "saturate"):
        if args.other is None:
            raise ParseError(f"--op {op} needs --other")
        other = parse_problem(args.other)
        if other.ideal.spec is not problem.ideal.spec \
                or other.ideal.vars != problem.ideal.vars:
            raise ParseError("--other lives in a different ring")
        I, J = problem.ideal, other.ideal
        if op == "saturate":
            (result, rounds), wall = _timed(ideal_saturate, I, J)
        else:
            fn = {"sum": ideal_sum, "intersect": ideal_intersect,
                  "quotient": ideal_quotient}[op]
            result, wall = _timed(lambda: reduced(fn(I, J)))
    else:
        if args.k is None:
            raise ParseError("--op eliminate needs --k")
        nvars = len(problem.cfg.vars)
        if not 0 <= args.k < nvars:
            raise ParseError(f"--k must lie in 0..{nvars - 1}, got {args.k}")
        result, wall = _timed(
            lambda: reduced(eliminate(problem.ideal, args.k)))
    rep.set("op", op)
    rep.generators(_generators(result))
    if rounds is not None:
        rep.line(f"rounds: {rounds}")
        rep.set("rounds", rounds)
    rep.set("vars", list(result.vars))
    rep.set("wall_ms", wall)
    return 0, ["ideal-op", args.input, op]


def _cmd_points(args, rep):
    kind = PROJECTIVE if args.projective else AFFINE
    V = zero_set(rep.problem.ideal, rep.problem.cfg.K_spec, kind)
    for p in V.points:
        rep.line(str(p))
    rep.line(f"count: {len(V)}")
    rep.set("kind", kind)
    rep.set("points", [str(p) for p in V.points])
    rep.set("count", len(V))
    return 0, ["points", args.input, kind]


def _cmd_vanishing(args, rep):
    problem = rep.problem
    command = ["vanishing", args.input]
    if args.affine:
        if args.method is not None:
            raise ParseError("--method only applies to --projective")
        result, wall = _timed(affine_vanishing, problem.ideal, problem.cfg)
        rep.set("kind", AFFINE)
        rep.generators(_generators(result))
        rep.set("wall_ms", wall)
        return 0, command
    method = args.method or "colon"
    rep.set("kind", PROJECTIVE)
    try:
        (result, method_rep), wall = _timed(
            projective_vanishing, problem.ideal, problem.cfg, method)
    except EmptyVariety:
        kind = classify_empty(problem.ideal, problem.cfg)
        rep.line(f"classification: {kind}")
        rep.set("classification", kind)
        return 0, command
    rep.set("method", method)
    rep.generators(_generators(result))
    rep.set("rounds", method_rep.quotient_rounds)
    rep.set("gb_size", method_rep.gb_size)
    if method_rep.degree_bound is not None:
        rep.set("degree_bound", method_rep.degree_bound)
    rep.set("wall_ms", wall)
    return 0, command


def _cmd_compare(args, rep):
    problem = rep.problem
    rows = []
    for method in METHODS:
        (result, method_rep), wall = _timed(
            projective_vanishing, problem.ideal, problem.cfg, method)
        rows.append({
            "method": method,
            "wall_ms": wall,
            "rounds": method_rep.quotient_rounds,
            "gb_size": method_rep.gb_size,
            "generators": _generators(result),
        })
    agree = all(r["generators"] == rows[0]["generators"] for r in rows)
    rep.line(f"{'method':<11} {'wall_ms':>8} {'rounds':>6}  gb")
    for row in rows:
        gb = "{" + ", ".join(row["generators"]) + "}"
        rep.line(f"{row['method']:<11} {row['wall_ms']:>8.2f} "
                 f"{row['rounds']:>6}  {gb}")
    rep.line(f"agree: {'yes' if agree else 'no'}")
    rep.set("methods", rows)
    rep.set("agree", agree)
    return (0 if agree else 1), ["compare", args.input]


def _cmd_certify(args, rep):
    cfg = rep.problem.cfg
    I = rep.problem.ideal
    d = certificate_degree(I, cfg)
    rep.line(f"d: {d}")
    indices = [args.j] if args.j is not None else range(len(cfg.vars))
    if args.poly is not None:
        f = parse_polynomial(args.poly, cfg.vars, I.spec)
        certs = certify_membership(f, I, cfg, indices)
    else:
        certs = make_certificates(I, indices, cfg)
    entries = []
    for c in certs:
        rep.line(f"j={c.j}: g = {c.g}, l = {c.l}")
        entries.append({"j": c.j, "d": c.d, "g": str(c.g), "l": str(c.l)})
        if c.f is not None:  # a membership certificate carries f
            rep.line(f"  {cfg.vars[c.j]}^{c.d} * f = "
                     f"({c.g}) * f + ({c.l}) * f")
            rep.line(f"  g * f = {c.g_times_f}")
            rep.line(f"  l * f = {c.l_times_f}")
            entries[-1].update(g_times_f=str(c.g_times_f),
                               l_times_f=str(c.l_times_f))
    if args.poly is not None:
        rep.line("verified: yes")
        rep.set("poly", str(f))
        rep.set("verified", True)
    rep.set("d", d)
    rep.set("certificates", entries)
    return 0, ["certify", args.input]


def _cmd_search(args, rep):
    if args.nonradical:
        if args.q is None or args.n is None or args.maxdeg is None:
            raise ParseError("--nonradical needs --q, --n and --maxdeg")
        for flag, value in (("--n", args.n), ("--maxdeg", args.maxdeg)):
            if value < 0:
                raise ParseError(f"{flag} {value} is negative")
        if args.maxdeg == 0:
            raise ParseError("--maxdeg 0 leaves no generator degree to search")
        inst, wall = _timed(find_nonradical_instance,
                            args.q, args.n, args.maxdeg)
        if inst is None:
            rep.line("result: none")
            rep.set("result", "none")
        else:
            gens = [g.to_string() for g in inst.ideal.gens]
            rep.line("result: found")
            rep.line("ideal: " + "; ".join(gens))
            rep.line(f"witness: {inst.witness}")
            rep.set("result", "found")
            rep.set("ideal", gens)
            rep.set("witness", str(inst.witness))
        rep.set("wall_ms", wall)
        return 0, ["search", "--nonradical"]
    if args.family is None or args.target is None or args.ideal is None:
        raise ParseError("search needs --family, --target and --ideal "
                         "(or --nonradical)")
    rep.problem = problem = parse_problem(args.ideal)
    if args.emit_normalized:
        return 0, None
    bounds = parse_bounds(args.bounds) if args.bounds else SearchBounds()
    f = parse_polynomial(args.target, problem.cfg.vars, problem.ideal.spec)
    if problem.cfg.k_spec is not problem.cfg.K_spec:
        raise RingMismatch("searches run with coefficients in the point field")
    out, wall = _timed(search_witness, f, problem.ideal, args.family, bounds)
    if isinstance(out, Exhausted):
        rep.line("result: exhausted")
        rep.line(f"candidates: {out.candidates}")
        rep.line(f"bounds: {out.bounds}")
        rep.set("result", "exhausted")
        rep.set("candidates", out.candidates)
    else:
        rep.line("result: witness")
        rep.line(out.describe())
        rep.set("result", "witness")
        rep.set("family", out.family)
        rep.set("forms", [str(p) for p in out.forms])
        rep.set("breakpoints", list(out.breakpoints))
        if out.inner_exp is not None:
            rep.set("inner_exp", out.inner_exp)
        rep.set("args", [str(a) for a in out.args])
        rep.set("composition", str(out.composition()))
    rep.set("bounds_used", str(bounds))
    rep.set("wall_ms", wall)
    return 0, ["search", args.family, args.target]


def _cmd_suite(args, rep):
    bounds = parse_bounds(args.bounds) if args.bounds else None
    report, wall = _timed(counterexample_suite, bounds=bounds,
                          raise_on_failure=False)
    rep.line(report.format())
    rep.set("steps", [{
        "name": s.name, "group": s.group, "passed": s.passed,
        "vacuous": s.vacuous, "detail": s.detail,
    } for s in report.steps])
    rep.set("groups", [{"name": g, "passed": ok}
                       for g, ok in report.groups()])
    rep.set("ok", report.ok)
    rep.set("wall_ms", wall)
    return (0 if report.ok else 1), ["suite", args.which]


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nullkit",
        description="Vanishing ideals over finite fields: closed formulas, "
                    "an enumeration oracle, certificates and bounded "
                    "counterexample searches.")
    ap.add_argument("--version", action="version",
                    version=f"nullkit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="problem file (.null)")
        p.add_argument("--emit-normalized", action="store_true",
                       help="reprint the parsed problem and exit")
        p.add_argument("--json", action="store_true",
                       help="machine-readable report")

    def geometry(p):
        geom = p.add_mutually_exclusive_group(required=True)
        geom.add_argument("--affine", action="store_true")
        geom.add_argument("--projective", action="store_true")

    p = sub.add_parser("gb", help="reduced Groebner basis of the ideal")
    common(p)
    p.add_argument("--order", default="degrevlex",
                   help="degrevlex, lex, or block:<k>")
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("ideal-op", help="sum, intersection, quotient, "
                                        "saturation or elimination")
    common(p)
    p.add_argument("--op", required=True,
                   choices=["sum", "intersect", "quotient", "saturate",
                            "eliminate"])
    p.add_argument("--other", help="problem file for the second ideal")
    p.add_argument("--k", type=int, help="variables to eliminate")
    p.set_defaults(func=_cmd_ideal_op)

    p = sub.add_parser("points", help="enumerate the zero set")
    common(p)
    geometry(p)
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser("vanishing", help="vanishing ideal of the zero set")
    common(p)
    geometry(p)
    p.add_argument("--method", choices=list(METHODS),
                   help="projective only; default colon")
    p.set_defaults(func=_cmd_vanishing)

    p = sub.add_parser("compare", help="run all three projective methods "
                                       "and check agreement")
    common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("certify", help="membership certificates")
    common(p)
    p.add_argument("--poly", help="member to certify")
    p.add_argument("--j", type=int, help="restrict to one variable index")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search", help="bounded witness search")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--target", help="polynomial to search a witness for")
    p.add_argument("--ideal", help="problem file (.null)")
    p.add_argument("--bounds",
                   help="m=2,degp=4,degargs=2,chain=2,exp=3 (any subset)")
    # --nonradical reads no problem for --emit-normalized to print
    one = p.add_mutually_exclusive_group()
    one.add_argument("--nonradical", action="store_true",
                     help="search for a non-radical field-equation sum")
    p.add_argument("--q", type=int, help="field size for --nonradical")
    p.add_argument("--n", type=int,
                   help="projective dimension for --nonradical")
    p.add_argument("--maxdeg", type=int,
                   help="generator degree cap for --nonradical")
    one.add_argument("--emit-normalized", action="store_true",
                     help="reprint the parsed problem and exit")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("suite", help="scripted verification runs")
    p.add_argument("which", choices=["counterexample"])
    p.add_argument("--bounds",
                   help="m=2,degp=4,degargs=2,chain=2,exp=3 (any subset)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_suite)

    return ap


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    rep = _Report(args)
    try:
        if hasattr(args, "input"):
            rep.problem = parse_problem(args.input)
        if rep.problem is not None and args.emit_normalized:
            code, command = 0, None
        else:
            code, command = args.func(args, rep)
    except ClassificationFailure as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 1
    except NullkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(rep.emit(command))
    return code


if __name__ == "__main__":
    sys.exit(main())
