"""sparsetrace benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload trace_dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src`
directory.  A run repeats whole rounds until --seconds have passed.  A
round runs the workload's pass once at 1 thread and once at nproc threads
on the same seed (the order alternates between rounds), checks that both
produced identical bytes, checks the output against independent
computations, and runs the workload's extra operations.

--trace 0 prints the end-to-end metrics; set-up is timed in fresh
interpreters before the rounds.  --trace 1 alternates untraced and traced
rounds and prints the per-layer metrics from the traced ones, plus the
tracing overhead.  The last line of standard output is the result; the
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(argv: list[str]) -> float:
    """Median cold start over SETUP_REPEATS interpreters, after one warm-up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *argv]
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_round(workload, index: int, seed: int, threads: int, out_dir: Path, recorder=None,
              serial_peaks=None):
    """One round; returns (pass seconds by thread count, trials, attempted, failed, errors).

    The process's peak RSS after each 1-thread pass is appended to serial_peaks.
    """
    round_seed = seed * 1000 + index + 1
    order = (1, threads) if index % 2 == 0 else (threads, 1)
    done = []
    for t in order:
        path = str(out_dir / f"pass-{t}.csv")
        with recorder.traced_pass(t) if recorder else contextlib.nullcontext():
            done.append((t, workload.run_pass(t, round_seed, path)))
        if t == 1 and serial_peaks is not None:
            serial_peaks.append(peak_rss_mb())
    serial = next(r for t, r in done if t == 1)
    parallel = next(r for t, r in reversed(done) if t == threads)
    errors = [e for _, r in done for e in r.errors]
    if (serial.csv, serial.extra) != (parallel.csv, parallel.extra):
        errors.append(f"{workload.name}: output at 1 thread differs from {threads} threads "
                      f"(seed {round_seed})")
    errors += workload.check(serial)
    extra_attempted, extra_failed, extra_errors = workload.extra_ops(out_dir, threads)
    seconds = {1: serial.seconds, threads: parallel.seconds}
    attempted = serial.trials + parallel.trials + extra_attempted
    return seconds, serial.trials, attempted, extra_failed, errors + extra_errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparsetrace" / "__init__.py").is_file():
        print(f"perfbench: no sparsetrace package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    threads = nproc()
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)

    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        metrics["setup_s"] = (measure_setup(workload.setup_argv), "s")

    recorder = tracing.Recorder() if args.trace else None
    rounds = []  # (traced, seconds by thread count, trials)
    serial_peaks: list[float] = []
    attempted = failed = 0
    errors = workload.check_run()
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            seconds, trials, a, f, errs = run_round(
                workload, len(rounds), args.seed, threads, out_dir,
                recorder if traced else None, serial_peaks)
            rounds.append((traced, seconds, trials))
            attempted, failed, errors = attempted + a, failed + f, errors + errs
            if time.perf_counter() - start >= args.seconds and len(rounds) >= 1 + args.trace:
                break
        if recorder is not None:
            recorder.require(workload.required_sites, workload.balanced_counts)
    except tracing.TracingError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if recorder is None:
        # Work completed per second over the whole run.  The host's speed
        # switches between modes that last seconds, so a median of per-round
        # rates jumps between them; the ratio of totals moves smoothly.
        trials = sum(n for _, _, n in rounds)
        metrics["trials_per_s"] = (trials / sum(s[threads] for _, s, _ in rounds), "1/s")
        metrics["serial_trials_per_s"] = (trials / sum(s[1] for _, s, _ in rounds), "1/s")
        # Round 0 runs its 1-thread pass first, so this is the peak of the
        # serial pass.  The nproc peak depends on how the threads' allocations
        # happen to overlap and moves by several percent from run to run.
        metrics["peak_rss_mb"] = (serial_peaks[0], "MB")
    else:
        errors += recorder.row_errors
        traced_trials = 2 * sum(n for traced, _, n in rounds if traced)
        metrics.update(recorder.metrics(traced_trials, threads))
        walls = {flag: statistics.median(sum(s.values()) for traced, s, _ in rounds if traced == flag)
                 for flag in (False, True)}
        metrics["tracing.overhead_pct"] = (100.0 * (walls[True] / walls[False] - 1.0), "%")
        recorder.write(out_dir / "spans.csv")

    for message in errors:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
