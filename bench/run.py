"""Run one workload of the quivhom benchmark and print its metrics.

    python3 bench/run.py --workload derived_witness --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One client runs jobs back to back (a closed loop) in a single
thread.  Workloads and their reasons are in ``workloads.py`` and
``BENCHMARK.json``.

With ``--trace 0`` the run sets up its inputs several times and reports the
median set-up time, then runs whole rounds of jobs for ``--seconds`` of job
time at reference speed (see below), checks every output, and reports
``setup_s``, ``jobs_per_s``, ``job_ms_p50``, ``job_ms_p90``, ``peak_rss_mb``
and ``fail_frac``.

Times are reported at a reference machine speed.  On a shared virtual
machine the speed of the same pure-Python code drifts by +-20% over minutes,
far more than the run-to-run noise of a fixed workload, so the run measures
the machine's current speed with a fixed pure-Python kernel that does not use
the library (exact Gauss-Jordan elimination on a small rational matrix)
every ``PROBE_EVERY_S`` seconds, also in the middle of a job, and scales each
measured duration (minus the probes inside it) by the mean of
``REF_KERNEL_S / kernel time`` over the probes in and next to it.  A change
to the library moves the scaled times exactly as it moves the raw ones; the
raw values and the speed factor are printed alongside.

With ``--trace 1`` the run executes a fixed number of rounds (so that work
counts repeat exactly for one seed) twice: first untraced, then with every
public function of the library wrapped (see ``tracing.py``).  It reports the
per-layer metrics (raw seconds, which include the speed probes that
interrupt them, about 2% of the time), the tracing overhead on the same jobs,
and writes every span to ``.bench_out/<workload>-seed<seed>.spans.tsv``.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# set-up is repeated at least this often, and until this many seconds were spent
MIN_SETUPS = 3
MAX_SETUPS = 200
SETUP_BUDGET_S = 1.0
# speed probes: how often, and the kernel time that defines the reference speed
PROBE_EVERY_S = 0.25
REF_KERNEL_S = 2.0e-3


def _import_library():
    sys.path.insert(0, SRC)
    import quivhom

    if not os.path.abspath(quivhom.__file__).startswith(SRC + os.sep):
        raise ImportError(f"quivhom imported from {quivhom.__file__}, not from {SRC}")


def _kernel():
    """Fixed work for the speed probe: Gauss-Jordan on an 8x8 rational matrix."""
    rng = random.Random(7)
    n = 8
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return rows


class SpeedProbe:
    """Samples the machine speed every ``PROBE_EVERY_S`` with an interval timer.

    The timer signal interrupts whatever runs, jobs included, so long jobs get
    probed during their run; the probe's own time is subtracted from every
    interval it falls into.  A sample's factor is ``REF_KERNEL_S / kernel time``,
    and an interval's factor is the mean over the samples inside it and the
    nearest one on each side (the time average of the machine's speed).
    """

    def __init__(self):
        self.at, self.factor, self.busy = [], [], []

    def sample(self, *_):
        t0 = time.perf_counter()
        kernel = []
        for _ in range(3):
            k0 = time.perf_counter()
            _kernel()
            kernel.append(time.perf_counter() - k0)
        self.at.append(t0)
        self.factor.append(REF_KERNEL_S / statistics.median(kernel))
        self.busy.append(time.perf_counter() - t0)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def scale(self, a, b):
        """(seconds, seconds at reference speed) of the interval [a, b], probes excluded."""
        i, j = bisect.bisect_left(self.at, a), bisect.bisect_right(self.at, b)
        net = (b - a) - sum(self.busy[i:j])
        near = self.factor[max(i - 1, 0):j + 1]
        return net, net * statistics.fmean(near)


def nearest_rank(values, q):
    """The smallest sample with at least a share q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_setup(workload, seed, rounds):
    """Intervals of repeated set-ups, and the last set-up's inputs."""
    spans = []
    ctx = jobs = None
    while len(spans) < MIN_SETUPS or (
            sum(b - a for a, b in spans) < SETUP_BUDGET_S and len(spans) < MAX_SETUPS):
        ctx = jobs = None
        a = time.perf_counter()
        ctx, jobs = workload.setup(random.Random(seed), rounds)
        spans.append((a, time.perf_counter()))
    return spans, ctx, jobs


def run_job(fn, *args):
    """(output, error text or None) of one job."""
    try:
        return fn(*args), None
    except Exception:  # a failed job is counted, the loop goes on
        return None, traceback.format_exc()


def run_rounds(workload, ctx, rounds, probe, seconds=None, tracer=None):
    """Job intervals and results of whole rounds.

    With ``seconds`` given, a further round starts only if, at the mean round
    time so far (at reference speed), it ends within ``seconds``; otherwise
    every round runs.  With a tracer, each job runs traced under its index.
    """
    spans, results, done_s = [], [], 0.0
    for n, jobs in enumerate(rounds):
        if seconds is not None and n and done_s + done_s / n > seconds:
            break
        first = len(spans)
        for template, inp in jobs:
            fn = workload.run if tracer is None else partial(tracer.run, len(results), workload.run)
            a = time.perf_counter()
            out, err = run_job(fn, ctx, template, inp)
            spans.append((a, time.perf_counter()))
            results.append((template, inp, out, err))
        done_s += sum(probe.scale(a, b)[1] for a, b in spans[first:])
    return spans, results


def check_outputs(workload, ctx, results):
    """List of failure texts, one per failed job."""
    failures = []
    for template, inp, out, err in results:
        if err is None:
            try:
                err = workload.check(ctx, template, inp, out)
            except Exception:  # a check that raises is a wrong answer
                err = traceback.format_exc()
        if err is not None:
            failures.append(f"{template}: {err}")
    return failures


def measure(workload, seed, seconds):
    with SpeedProbe() as probe:
        setup_spans, ctx, rounds = timed_setup(
            workload, seed, max(1, math.ceil(workload.pool_rounds_per_s * seconds)))
        workload.validate(rounds)
        gc.collect()
        gc.freeze()  # the pre-generated inputs are not the library's garbage to scan
        job_spans, results = run_rounds(workload, ctx, rounds, probe, seconds)
        gc.unfreeze()
    failures = check_outputs(workload, ctx, results)
    setup = [probe.scale(a, b) for a, b in setup_spans]
    jobs = [probe.scale(a, b) for a, b in job_spans]
    attempted, correct = len(results), len(results) - len(failures)
    ms, raw_ms = [1000 * s for _, s in jobs], [1000 * r for r, _ in jobs]
    p90 = nearest_rank(ms, 0.9)
    beyond = sum(1 for x in ms if x > p90)
    busy, raw_busy = sum(s for _, s in jobs), sum(r for r, _ in jobs)
    # metric: (value at reference speed, unit, raw value, note)
    rows = {
        "setup_s": (statistics.median(s for _, s in setup), "s",
                    statistics.median(r for r, _ in setup), f"median of {len(setup)} set-ups"),
        "jobs_per_s": (correct / busy, "1/s", correct / raw_busy,
                       f"{correct} correct jobs in {raw_busy:.2f} s of jobs"),
        "job_ms_p50": (statistics.median(ms), "ms", statistics.median(raw_ms), f"n={attempted}"),
        "job_ms_p90": (p90, "ms", nearest_rank(raw_ms, 0.9),
                       f"n={attempted}, {beyond} beyond"
                       + ("" if beyond >= 10 else "; fewer than 10 beyond, indicative only")),
    }
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines = [f"{name:<13} {value:12.4f} {unit:<5} (raw {raw:.4f}; {note})"
             for name, (value, unit, raw, note) in rows.items()]
    lines.append(f"{'peak_rss_mb':<13} {rss:12.4f} {'MB':<5} (whole process)")
    lines.append(f"{'fail_frac':<13} {len(failures) / attempted:12.4f} {'ratio':<5} "
                 f"({len(failures)} of {attempted} jobs)")
    f = probe.factor
    lines.append(f"speed factor  median {statistics.median(f):.4f}, "
                 f"range {min(f):.4f}..{max(f):.4f} over {len(f)} probes")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _, _) in rows.items()}
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return attempted, failures, metrics, lines


def measure_traced(workload, seed):
    from tracing import METRICS, Tracer

    rounds_n = workload.trace_rounds
    with SpeedProbe() as probe:
        ctx, rounds = workload.setup(random.Random(seed), rounds_n)
        workload.validate(rounds)
        gc.collect()
        gc.freeze()
        plain, results = run_rounds(workload, ctx, rounds, probe)
        gc.unfreeze()
        failures = check_outputs(workload, ctx, results)
        ctx = rounds = results = None

        tracer = Tracer()
        with tracer:
            ctx, rounds = tracer.run(-1, workload.setup, random.Random(seed), rounds_n)
            gc.collect()
            gc.freeze()
            traced, results = run_rounds(workload, ctx, rounds, probe, tracer=tracer)
            gc.unfreeze()
    failures += check_outputs(workload, ctx, results)
    plain = [probe.scale(a, b) for a, b in plain]
    traced = [probe.scale(a, b) for a, b in traced]
    overhead_pct = 100 * (sum(s for _, s in traced) / sum(s for _, s in plain) - 1)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{workload.name}-seed{seed}.spans.tsv")
    tracer.write_spans(spans_path)
    metrics = tracer.metrics(overhead_pct)
    lines = [f"{name:<30} {m['value']:16.6f} {m['unit']:<6} ({METRICS[name][1]} is better)"
             for name, m in metrics.items()]
    lines.append(f"traced {len(results)} jobs of {rounds_n} round(s): "
                 f"{sum(r for r, _ in traced):.3f} s traced, "
                 f"{sum(r for r, _ in plain):.3f} s untraced (raw); spans in {spans_path}")
    return 2 * len(results), failures, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    if args.trace:
        attempted, failures, metrics, lines = measure_traced(workload, args.seed)
    else:
        attempted, failures, metrics, lines = measure(workload, args.seed, args.seconds)
    print("\n".join(lines))
    for text in failures[:5]:
        print(f"FAILED {text}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
