"""One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                [--seconds S] [--reference]

run.py starts this with ``src`` on PYTHONPATH.  The worker prints
``READY`` once set-up is done (run.py times set-up up to that line),
then one line ``RESULT <json>`` and exits.  Files it needs go into
``out/work-<pid>``, which run.py removes when the worker has ended.

Set-up and measure workers sample the host's speed (speed.py) from
start to end and report their times also at reference speed; READY
then carries the samples' cost and mean over set-up.

Modes:
  setup    set up, then exit;
  measure  closed loop with one client: whole passes over the problems
           until at least S seconds have passed, at least MIN_PASSES
           passes ran and, where a pass has more than one problem, at
           least MIN_SAMPLES problems were timed;
  trace    install the tracer, set up and run one pass traced, and with
           --reference also one untraced pass for the tracing overhead
           (on cli the traced and untraced passes run the command script
           in process through nullkit.cli.main).
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_PASSES = 3
# problem_ms_p90 needs ten samples beyond it.
MIN_SAMPLES = 100
# Stay well inside the 180 s a run may take.
MAX_SECONDS = 110

WORKLOADS = ("corpus", "points", "search", "cli")


def load_golden():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_pass(problems, tracer=None, notes=None):
    """Run every problem once; returns ((start, end), [(t0, t1)] per
    problem, failures), in perf_counter seconds.

    A problem may return a line worth reporting; it is added to notes."""
    spans = []
    failures = []
    start = time.perf_counter()
    for pid, run in problems:
        if tracer is not None:
            tracer.problem = pid
        t0 = time.perf_counter()
        try:
            note = run()
        except Exception as exc:  # noqa: BLE001 - a failed problem is counted
            failures.append(f"{pid}: {type(exc).__name__}: {exc}"[:500])
        else:
            if note is not None and notes is not None:
                notes.add(note)
        spans.append((t0, time.perf_counter()))
    return (start, time.perf_counter()), spans, failures


def wall(span):
    return span[1] - span[0]


def max_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def command_seconds(argv, repeat=5):
    """Median wall time of a short subprocess over repeat runs."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args()
    if args.mode == "trace":
        return run(args, None)
    sampler = speed.Sampler()
    # Host-speed samples cover set-up from here on, the import of
    # nullkit included, which is why run() imports it.
    sampler.start()
    try:
        return run(args, sampler)
    finally:
        sampler.stop()


def run(args, sampler):
    """Set up, then measure or trace; sampler is None when tracing."""
    import layers
    import workloads

    work_dir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    golden = load_golden()
    tracer = layers.install() if args.mode == "trace" else None
    setup = getattr(workloads, f"setup_{args.workload}")
    extra = {}
    if args.workload == "cli" and args.mode == "trace":
        extra["in_process"] = True
    problems = setup(args.seed, work_dir, golden, **extra)
    if args.mode == "trace":
        print("READY", flush=True)
    else:
        # The samples' cost and the host's speed over set-up, so that
        # run.py can give set-up time at reference speed.
        cost, mean_ref = sampler.window(0.0, time.perf_counter())
        print(f"READY {cost!r} {mean_ref!r}", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "trace":
        result = trace(args, problems, tracer)
    else:
        result = measure(args, problems, sampler)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def measure(args, problems, sampler):
    passes, samples, failures = [], [], []
    raw_passes, raw_samples = [], []
    notes = set()
    start = time.perf_counter()
    while True:
        span, spans, failed = one_pass(problems, notes=notes)
        passes.append(sampler.scaled(*span))
        samples.extend(sampler.scaled(t0, t1) for t0, t1 in spans)
        raw_passes.append(wall(span))
        raw_samples.extend(map(wall, spans))
        failures.extend(failed)
        elapsed = time.perf_counter() - start
        enough = (elapsed >= args.seconds and len(passes) >= MIN_PASSES
                  and (len(problems) == 1 or len(samples) >= MIN_SAMPLES))
        if enough or elapsed >= MAX_SECONDS:
            break
    sampler.stop()
    who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
           else resource.RUSAGE_SELF)
    return {
        "passes": passes,
        "problem_s": samples,
        "raw_passes": raw_passes,
        "raw_problem_s": raw_samples,
        "speed_samples": len(sampler.ref),
        "mean_ref_s": statistics.fmean(sampler.ref),
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures[:10],
        "notes": sorted(notes),
        "peak_rss_mb": max_rss_mb(who),
    }


def trace(args, problems, tracer):
    import layers

    span, spans, failures = one_pass(problems, tracer)
    traced_s, times = wall(span), list(map(wall, spans))
    tracer.uninstall()
    metrics = layers.layer_metrics(tracer)
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    counts["spans"] = layers.span_counts(tracer)
    result = {
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:10],
        "counts": counts,
        "missing": tracer.missing,
    }
    if not args.reference:
        return result
    span, spans, more = one_pass(problems)
    untraced_s, main_times = wall(span), list(map(wall, spans))
    result["failed"] += len(more)
    result["attempted"] += len(main_times)
    result["failures"] += more[:10]
    metrics["trace.overhead"] = (traced_s / untraced_s, "1")
    metrics["trace.pass_s"] = (traced_s, "s")
    cli = {"cli.interp_s": 0.0, "cli.import_s": 0.0, "cli.main_ms": 0.0,
           "cli.parse_ms": 0.0}
    if args.workload == "cli":
        interp = command_seconds([sys.executable, "-c", "pass"])
        imported = command_seconds([sys.executable, "-c", "import nullkit"])
        parse = tracer.span_durations("cli.parse_problem")
        cli = {
            "cli.interp_s": interp,
            "cli.import_s": imported - interp,
            "cli.main_ms": statistics.median(main_times) * 1000.0,
            "cli.parse_ms": (statistics.median(parse) * 1000.0
                             if parse else 0.0),
        }
    for name, value in cli.items():
        metrics[name] = (value, "ms" if name.endswith("_ms") else "s")
    result["metrics"] = metrics
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    trace_path = os.path.join(
        HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": tracer.spans,
                   "records": {n: [r.calls, r.total, r.self_time, r.extra]
                               for n, r in tracer.records.items()}}, fh)
    result["trace_file"] = os.path.relpath(trace_path, ROOT)
    return result


if __name__ == "__main__":
    sys.exit(main())
