"""Record the checked outputs in golden.json from the current sources.

    python3 perfbench/record_golden.py

Run from the root of a source checkout.  It records the reduced basis
of every corpus ideal (colon method), the masked stdout of every
scripted cli command, and the masked `compare` output of every variant
of the cli workload's generated problems.
Re-record only when nullkit's output is meant to change.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]
os.environ["PYTHONPATH"] = SRC

import nullkit as nk  # noqa: E402
import workloads as wl  # noqa: E402


def main():
    F2 = nk.make_field(2)
    cfg = nk.NullConfig(F2, F2, wl.PVARS)
    golden = {"corpus": {}, "commands": {}, "compare": {}}
    for text in wl.corpus_forms():
        gens = [nk.parse_polynomial(text, wl.PVARS, F2)] if text else []
        _, basis = wl.three_methods(F2, wl.PVARS, gens, cfg)
        golden["corpus"][text] = list(basis)

    work_dir = os.path.join(HERE, "out", "record")
    forms = [f for t in wl.GENERATED for f in wl.generated_variants(t)]
    generated = {f"gen{k}.null": wl.generated_file(f)
                 for k, f in enumerate(forms)}
    wl.write_files(work_dir, {**wl.FIXTURES, **generated})
    try:
        for cid, argv, expected in wl.COMMANDS:
            code, out, err = wl.run_cli(argv, work_dir)
            if code != expected or "Traceback" in err:
                raise SystemExit(f"{cid}: exit {code}, stderr {err!r}")
            golden["commands"][cid] = wl.mask_wall(out)
        for k, form in enumerate(forms):
            code, out, err = wl.run_cli(["compare", "--input", f"gen{k}.null"],
                                        work_dir)
            if code != 0:
                raise SystemExit(f"compare <{form}>: exit {code}, {err!r}")
            golden["compare"][form] = wl.mask_wall(out)
    finally:
        shutil.rmtree(work_dir)
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
