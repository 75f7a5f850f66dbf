"""nullkit benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload {corpus,points,search,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (``src/nullkit`` must exist).
Each workload runs in its own fresh single-threaded process
(worker.py).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it
give the same metrics as text, the run metadata, and any failures.

--trace 0 reports the end-to-end metrics, from untraced processes:
set-up is timed in SETUP_SAMPLES fresh processes and reported as the
median; one more process runs the closed loop.  Every time is reported
at reference speed (speed.py): wall time corrected by the host's speed,
sampled while it ran.  The wall times are printed beside them.

--trace 1 reports the per-layer metrics: one traced set-up and pass
under PYTHONHASHSEED=0, plus one untraced pass for the tracing
overhead, then the same traced run in a second process under
PYTHONHASHSEED=1.  Every count must agree between the two, or the
run fails.  See README.md for the metric definitions.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("corpus", "points", "search", "cli")
SETUP_SAMPLES = 5
# Workers still running this long after the start are killed, so that a
# hung run ends inside the 180 s a run may take.
RUN_LIMIT_S = 170
RUN_START = time.perf_counter()


class RunFailed(Exception):
    pass


def child_env(hash_seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_worker(workload, seed, mode, seconds=0, hash_seed=0, extra=()):
    """Start one worker; returns (set-up, result dict or None).

    Set-up is the time from starting the process to its READY line, as
    (wall seconds, seconds at reference speed); the second is None for
    trace workers, which do not sample the host's speed."""
    argv = [sys.executable, WORKER, "--workload", workload, "--seed",
            str(seed), "--mode", mode, "--seconds", str(seconds), *extra]
    start = time.perf_counter()
    # A process group of its own lets a kill reach cli subprocesses too.
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(hash_seed),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    killer = threading.Timer(max(0.0, RUN_START + RUN_LIMIT_S - start), kill)
    killer.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                wall_s = time.perf_counter() - start
                setup_s = (wall_s, None)
                if line.split()[1:]:
                    cost, mean_ref = map(float, line.split()[1:])
                    setup_s = (wall_s, (wall_s - cost) * speed.REF_S
                               / mean_ref)
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        shutil.rmtree(os.path.join(HERE, "out", f"work-{proc.pid}"),
                      ignore_errors=True)
    if code != 0 or setup_s is None or (mode != "setup" and result is None):
        raise RunFailed(f"{workload} worker ({mode}) exited with {code}")
    return setup_s, result


def quantile(values, q):
    """Inclusive-method quantile, q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def metadata():
    files = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "src_lines": lines, "python": platform.python_version(),
            "nproc": os.cpu_count()}


def fmt(values):
    return ", ".join(f"{v:.3f}" for v in values)


def end_to_end(workload, seed, seconds):
    setups = [run_worker(workload, seed, "setup")[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup_s, res = run_worker(workload, seed, "measure", seconds)
    setups.append(setup_s)
    samples = [t * 1000.0 for t in res["problem_s"]]
    raw = [t * 1000.0 for t in res["raw_problem_s"]]
    metrics = {
        "pass_s": (statistics.median(res["passes"]), "s"),
        "problem_ms_p50": (statistics.median(samples), "ms"),
        "problem_ms_p90": (quantile(samples, 0.9), "ms"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = [f"pass times at reference speed (s): {fmt(res['passes'])}",
             f"pass times, wall (s): {fmt(res['raw_passes'])}",
             f"wall: pass_s {statistics.median(res['raw_passes']):.6g} s, "
             f"problem_ms_p50 {statistics.median(raw):.6g} ms, "
             f"problem_ms_p90 {quantile(raw, 0.9):.6g} ms, "
             f"setup_s {statistics.median(w for w, _ in setups):.6g} s",
             f"host speed: {res['speed_samples']} samples, mean "
             f"{res['mean_ref_s'] * 1e6:.1f} us against {speed.REF_S * 1e6:.1f}"
             " us at reference speed",
             f"problem samples: {len(samples)}, set-up samples at reference "
             f"speed (s): {fmt(s for _, s in setups)}",
             f"fail_ratio: {res['failed'] / res['attempted']:.6g} (1)",
             *res["notes"]]
    return metrics, res, notes


def layered(workload, seed):
    _, ref = run_worker(workload, seed, "trace", hash_seed=0,
                        extra=("--reference",))
    _, other = run_worker(workload, seed, "trace", hash_seed=1)
    metrics = {k: tuple(v) for k, v in ref["metrics"].items()}
    notes = [f"trace file: {ref['trace_file']}"]
    if ref["missing"]:
        notes.append("missing (reported as missing): "
                     + ", ".join(ref["missing"]))
    differ = sorted(k for k in set(ref["counts"]) | set(other["counts"])
                    if ref["counts"].get(k) != other["counts"].get(k))
    if differ:
        notes.append("counts differ between PYTHONHASHSEED 0 and 1: "
                     + ", ".join(differ))
    else:
        notes.append("counts identical under PYTHONHASHSEED 0 and 1")
    merged = {
        "attempted": ref["attempted"] + other["attempted"],
        "failed": ref["failed"] + other["failed"],
        "failures": ref["failures"] + other["failures"],
    }
    return metrics, merged, notes, not differ


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "nullkit", "__init__.py")):
        print(f"error: no nullkit sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    meta = metadata()
    try:
        if args.trace:
            metrics, res, notes, same = layered(args.workload, args.seed)
        else:
            metrics, res, notes = end_to_end(args.workload, args.seed,
                                             args.seconds)
            same = True
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("meta: " + json.dumps(dict(meta, workload=args.workload,
                                     seed=args.seed, trace=args.trace)))
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value if unit == 'count' else f'{value:.6g}'} {unit}")
    for note in notes:
        print(note)
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    correct = same and res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
