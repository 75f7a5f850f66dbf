"""Every command's output pinned byte for byte.

cli_transcript.json holds, for each command line of commands(), the
exit code, stdout and stderr of cli.main run in process from the
repository root, with wall times masked.  The one test replays every
line and compares all three.  The recording is written by hand, as
[{"argv": argv, **dict(zip(("code", "stdout", "stderr"), run(argv)))}
for argv in commands()] dumped with json.dumps(..., indent=1), from a
tree whose output is known good; nothing here rewrites it.
"""

import contextlib
import io
import json
import re
from pathlib import Path

from nullkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.json"

_JSON_WALL = re.compile(r'"wall_ms": [-+.\deE]+')
_TABLE_WALL = re.compile(r"^(colon|saturation|oracle) +[-\d.]+ ", re.M)


def commands():
    """Every subcommand on every example, then the searches and the
    suite, each in text and with --json; paths relative to ROOT."""
    lines = []
    for path in sorted(p.relative_to(ROOT).as_posix()
                       for p in (ROOT / "examples").glob("*.null")):
        inp = ["--input", path]
        lines += [["gb", *inp, "--order", o]
                  for o in ("degrevlex", "lex", "block:1")]
        lines += [["points", *inp, g] for g in ("--affine", "--projective")]
        lines.append(["vanishing", *inp, "--affine"])
        lines += [["vanishing", *inp, "--projective", "--method", m]
                  for m in ("colon", "saturation", "oracle")]
        lines += [["compare", *inp], ["certify", *inp],
                  ["certify", *inp, "--j", "0"],
                  ["gb", *inp, "--emit-normalized"]]
        lines += [["ideal-op", *inp, "--op", op, "--other", "examples/m.null"]
                  for op in ("sum", "intersect", "quotient", "saturate")]
        lines.append(["ideal-op", *inp, "--op", "eliminate", "--k", "1"])
    lines += [["search", "--family", fam,
               "--ideal", "examples/counterexample.null",
               "--target", "X2^2 - X2", "--bounds", "m=1,degp=2"]
              for fam in ("r1", "r2", "r3")]
    lines.append(["search", "--nonradical", "--q", "2", "--n", "2",
                  "--maxdeg", "2"])
    lines.append(["suite", "counterexample"])
    return [argv + tail for argv in lines for tail in ([], ["--json"])]


def run(argv):
    """(exit code, stdout, stderr) of main(argv), wall times masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = _TABLE_WALL.sub(r"\1 <wall_ms> ",
                           _JSON_WALL.sub('"wall_ms": 0', out.getvalue()))
    return code, text, err.getvalue()


def test_every_command_prints_the_recorded_output(monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = json.loads(TRANSCRIPT.read_text())
    assert [r["argv"] for r in recorded] == commands()
    for r in recorded:
        assert run(r["argv"]) == (r["code"], r["stdout"], r["stderr"]), \
            r["argv"]
