"""The fresh process that imports cwkit and drives its CLI in-process.

    python3 -B perfbench/child.py MANIFEST --mode timed --seconds S --least N --part I/P
    python3 -B perfbench/child.py MANIFEST --mode trace --half HALF_MANIFEST

run.py starts it after building the inputs, so the inputs' build does not
count in its peak RSS; set-up (cwkit, the expected answers, the warm-up)
and the benchmark's own checks do.  A timed run is shared by P such
processes in turn; part I of them runs rounds I, I+P, I+2P, ... and
reports its verdict latencies, which run.py pools.  Latencies and set-up
times are in reference seconds (see calibration.py); traced self times are
raw wall seconds.  It prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import resource
import sys
import time

import calibration
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 5             # set-ups per process (import, expected answers, warm-up)
MAX_MEASURE_S = 120    # over all parts: stop here even if too few verdicts were timed

clock = time.perf_counter


def import_cwkit():
    """Import cwkit from the checkout's src/ afresh."""
    for name in [n for n in sys.modules if n == "cwkit" or n.startswith("cwkit.")]:
        del sys.modules[name]
    importlib.import_module("cwkit.cli")


def make_cli():
    """argv -> (exit code, stdout, reference seconds) through cwkit.cli.main.

    main is looked up on each call, so a tracer's wrapper is the one run.
    """
    cli = sys.modules["cwkit.cli"]

    def invoke(argv, out, err):
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code
        except Exception as exc:  # a traceback breaks the CLI contract: count it
            return f"uncaught {type(exc).__name__}: {exc}"

    def run(argv):
        out = io.StringIO()
        rc, seconds = calibration.measure(invoke, argv, out, io.StringIO())
        return rc, out.getvalue(), seconds
    return run


class Tally:
    """Invocations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, v):
        self.attempted += v.invocations
        self.failed += v.failures
        self.problems.extend(v.problems[:max(0, 5 - len(self.problems))])
        return v


def run_rounds(wl, rounds, cli, tally):
    return [tally.add(wl.verdict(item, cli)) for r in rounds for item in r]


def timed_section(wl, rounds, cli, tally, seconds, least, part, parts):
    """Whole rounds for at least seconds and at least least verdicts."""
    latencies, instances = [], 0
    start = clock()
    for i in itertools.count(part, parts):
        for v in run_rounds(wl, [rounds[i % len(rounds)]], cli, tally):
            latencies.append(v.seconds)
            instances += v.instances
        elapsed = clock() - start
        if elapsed >= MAX_MEASURE_S / parts or (elapsed >= seconds and len(latencies) >= least):
            break
    return {"latencies": latencies, "instances": instances,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def traced_round(tracer, wl, r, cli, tally):
    tracer.install()
    try:
        return run_rounds(wl, [r], cli, tally)
    finally:
        tracer.uninstall()


def trace_section(wl, rounds, half_rounds, cli, tally):
    """Per-layer metrics from traced passes over a fixed number of rounds."""
    rounds = [rounds[i % len(rounds)] for i in range(wl.trace_rounds)]
    half_rounds = [half_rounds[i % len(half_rounds)] for i in range(wl.trace_rounds)]
    # Each round runs untraced and then traced, so that drift in the host's
    # speed over the pass mostly cancels out of the overhead ratio.
    tracer = tracing.Tracer()
    plain_wall = traced_wall = 0.0
    n = 0
    for r in rounds:
        plain_wall += sum(v.seconds for v in run_rounds(wl, [r], cli, tally))
        verdicts = traced_round(tracer, wl, r, cli, tally)
        traced_wall += sum(v.seconds for v in verdicts)
        n += len(verdicts)
    full = tracer.totals()
    half_tracer = tracing.Tracer()
    for r in half_rounds:
        traced_round(half_tracer, wl, r, cli, tally)
    half = half_tracer.totals()

    peaks = tracing.PeakTracer()
    peaks.install()
    try:
        run_rounds(wl, rounds[:wl.mem_rounds], cli, tally)
    finally:
        peaks.uninstall()

    m = {}
    for name, (self_s, calls) in full.items():
        m[f"{name}.self_s"] = (self_s, "s")
        m[f"{name}.calls"] = (calls, "count")
    for name in tracing.SLOPE_NAMES:
        m[f"{name}.slope"] = (tracing.slope(full[name][0], half[name][0]), "log/log")
    for name, peak in peaks.peak_bytes.items():
        m[f"{name}.peak_mb"] = (peak / tracing.MB, "MB")
    parse_s = full["expressions.parse"][0]
    m["expressions.parse.mb_per_s"] = (
        tracer.parse_chars / tracing.MB / parse_s if parse_s else 0.0, "MB/s")
    m["expressions.ast_walks_per_verdict"] = (tracer.ast_walks / n, "1/verdict")
    m["graphs.bfs_distances.calls_per_verdict"] = (
        full["graphs.bfs_distances"][1] / n, "1/verdict")
    m["quasiiso.check_qi.pairs"] = (tracer.qi_pairs, "count")
    m["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    return m


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("manifest")
    ap.add_argument("--mode", choices=("timed", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--least", type=int, default=1, help="verdicts to time at least")
    ap.add_argument("--part", default="0/1", help="I/P: this process's share of a timed run")
    ap.add_argument("--half", help="half-size manifest, for trace slopes")
    args = ap.parse_args()

    manifest = _load(args.manifest)
    wl = workloads.WORKLOADS[manifest["workload"]]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tally = Tally()

    setups = []
    for _ in range(SETUPS):
        watch = calibration.Stopwatch()
        watch(import_cwkit)
        cli = make_cli()
        warmup, rounds = watch(wl.prepare, manifest, os.path.dirname(args.manifest))
        watch(run_rounds, wl, [warmup], cli, tally)
        setups.append(watch.seconds)

    timed = metrics = None
    if args.mode == "timed":
        part, parts = map(int, args.part.split("/"))
        timed = timed_section(wl, rounds, cli, tally, args.seconds, args.least, part, parts)
    else:
        _, half_rounds = wl.prepare(_load(args.half), os.path.dirname(args.half))
        metrics = trace_section(wl, rounds, half_rounds, cli, tally)
    print(json.dumps({"setups": setups, "timed": timed, "metrics": metrics,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "problems": tally.problems}))


if __name__ == "__main__":
    main()
