"""cwkit benchmark: drives the real CLI on seeded workloads.

    python3 perfbench/run.py --workload deep-path --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout that holds src/cwkit.  It builds the
workload's inputs from --seed (several times; set-up reports the median),
then starts fresh processes (child.py) that import cwkit, warm up and
measure.  Times are in reference seconds, which cancel the shared host's
drift in speed (see calibration.py).  With --trace 0, three processes in
turn share the timed section of --seconds and whole rounds, and the
end-to-end metrics come out of their pooled verdicts; with --trace 1 one
process runs the traced passes and the per-layer metrics come out.
Human-readable lines come first; the last line of stdout is the JSON
result.  It exits non-zero, printing no result, if cwkit is missing or the
measuring process fails.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import time

import calibration
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILDS = 3             # input builds per run; set-up takes the median
PROCESSES = 3          # fresh processes that share a timed run
MIN_VERDICTS = 100     # pooled, so the p90 has at least ten samples beyond it
TAIL = 0.90            # the tail percentile reported
DEADLINE_S = 170       # the whole run, builds included, ends within this
RECORDED = os.path.join(HERE, "digests.json")


def build_inputs(wl, seed, scale, workdir):
    """Build the inputs BUILDS times; (manifest, digest, problems, median s)."""
    times, digests = [], set()
    for _ in range(BUILDS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        watch = calibration.Stopwatch()
        manifest, digest, problems = wl.build(seed, scale, workdir, watch)
        times.append(watch.seconds)
        digests.add(digest)
    if len(digests) != 1:
        problems = problems + ["input builds from one seed differ"]
    path = os.path.join(workdir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return path, digest, problems, statistics.median(times)


def end_to_end(children, build_s):
    """The end-to-end metrics from the timed parts' pooled verdicts."""
    latencies = sorted(x for c in children for x in c["timed"]["latencies"])
    instances = sum(c["timed"]["instances"] for c in children)
    setups = [s for c in children for s in c["setups"]]
    return {
        "setup_s": (build_s + statistics.median(setups), "s"),
        "instances_per_s": (instances / sum(latencies), "1/s"),
        "verdict_p50_s": (statistics.median(latencies), "s"),
        "verdict_p90_s": (latencies[math.ceil(TAIL * len(latencies)) - 1], "s"),
        "peak_rss_mb": (statistics.median(c["timed"]["peak_rss_mb"] for c in children), "MB"),
    }, len(latencies)


def recorded_digest(workload, seed):
    with open(RECORDED, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "cwkit", "cli.py")):
        sys.exit(f"error: no cwkit sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    wl = workloads.WORKLOADS[args.workload]
    base = os.path.join(ROOT, ".perfbench-work")
    workdir = os.path.join(base, f"{wl.name}-{args.seed}-{os.getpid()}")
    try:
        manifest, digest, problems, build_s = build_inputs(
            wl, args.seed, 1.0, os.path.join(workdir, "full"))

        def run_child(*extra):
            cmd = [sys.executable, "-B", os.path.join(HERE, "child.py"), manifest, *extra]
            proc = subprocess.run(
                cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
                timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
            return json.loads(proc.stdout.splitlines()[-1])

        if args.trace:
            half, _, half_problems, _ = build_inputs(
                wl, args.seed, 0.5, os.path.join(workdir, "half"))
            problems += half_problems
            children = [run_child("--mode", "trace", "--half", half)]
            metrics, verdicts = children[0]["metrics"], None
        else:
            children = []
            for i in range(PROCESSES):
                done = sum(len(c["timed"]["latencies"]) for c in children)
                least = math.ceil((MIN_VERDICTS - done) / (PROCESSES - i))
                children.append(run_child(
                    "--mode", "timed", "--seconds", str(args.seconds / PROCESSES),
                    "--least", str(least), "--part", f"{i}/{PROCESSES}"))
            metrics, verdicts = end_to_end(children, build_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(base) and not os.listdir(base):
            os.rmdir(base)

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    recorded = recorded_digest(wl.name, args.seed)
    print(f"inputs {wl.name} seed {args.seed}: sha256 {digest} "
          f"({'unrecorded' if recorded is None else 'matches recorded' if recorded == digest else 'DIFFERS FROM RECORDED'})")
    if verdicts is not None:
        print(f"verdicts timed: {verdicts}")
    print(f"fail_ratio: {failed / max(1, attempted):.6f} ratio "
          f"({failed} of {attempted} invocations)")
    for problem in (problems + [p for c in children for p in c["problems"]])[:5]:
        print(f"problem: {problem}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
