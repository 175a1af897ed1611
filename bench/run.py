"""Benchmark of the heisminimal package: one workload per invocation.

    python3 bench/run.py --workload spanning --seed 1 --seconds 20 --trace 0

Builds the workload's job list from the seed, runs one untimed warm-up
pass, then whole passes over the same list until the jobs have taken
``--seconds`` of wall time, one job in flight.  Every output is checked
(see jobs.py).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The program is imported from ``src/`` of the checkout this file sits in.
"""
from __future__ import annotations

import os

# numpy's thread pools are sized at import: hold them to one thread here
# and in every process this one starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = BENCH / "_work"
TRACES = BENCH / "_traces"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MAX_PROBLEMS_SHOWN = 5


def log(msg):
    print(f"bench: {msg}", file=sys.stderr, flush=True)


def import_program():
    """Put the checkout's src/ first on the path and import the CLI."""
    sys.path.insert(0, str(SRC))
    import heisminimal.cli
    where = Path(heisminimal.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"heisminimal imported from {where}, not {SRC}")


def setup_probe(workload, seed):
    """Child side of a set-up measurement: import, build inputs, report."""
    import_program()
    import jobs
    work = WORK / f"probe-{workload}-{seed}-{os.getpid()}"
    try:
        jobs.build(workload, seed, work, FIXTURES)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(workload, seed):
    """Median time from a fresh interpreter to a built job list."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {rc}")
        times.append(elapsed)
    return statistics.median(times)


class Pass:
    """Outcome of running every job of the list once."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.problems = []


def run_pass(job_list, reference, tracer=None):
    from jobs import Failed, Wrong
    result = Pass()
    for job in job_list:
        span = tracer.open("bench.job") if tracer else None
        t0 = time.perf_counter()
        try:
            outcome = job.run()
        finally:
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.close(span)
        result.times.append(elapsed)
        result.attempted += 1
        try:
            job.judge(outcome)
        except Failed as exc:
            result.failed += 1
            result.problems.append(("failed", job.name, str(exc)))
        except Wrong as exc:
            result.problems.append(("wrong", job.name, str(exc)))
        digest, size = job.fingerprint(outcome)
        if tracer:
            tracer.counts["cli.artifact_bytes"] += size
        if reference.setdefault(job.name, digest) != digest:
            result.problems.append(("wrong", job.name,
                                    "output differs from the previous pass"))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("spanning", "surfaces", "commands"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "heisminimal" / "cli.py").is_file() or not FIXTURES.is_dir():
        log(f"no program here: expected {SRC}/heisminimal and {FIXTURES}")
        return 1
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    import_program()
    import jobs
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        job_list = jobs.build(args.workload, args.seed, work, FIXTURES)
        reference = {}
        passes = [run_pass(job_list, reference)]   # warm-up, untimed
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        timed = []
        busy = 0.0
        while not timed or busy < args.seconds:
            p = run_pass(job_list, reference, tracer)
            if tracer:
                tracer.mark()
            timed.append(p)
            busy += sum(p.times)
        passes += timed
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [pr for p in passes for pr in p.problems]
    wrong = [pr for pr in problems if pr[0] == "wrong"]
    shown = set()
    for kind, name, detail in problems:
        if (kind, name) not in shown and len(shown) < MAX_PROBLEMS_SHOWN:
            shown.add((kind, name))
            log(f"{kind}: {name}: {detail}")
    times = [t for p in timed for t in p.times]
    attempted = sum(p.attempted for p in timed)
    failed = sum(p.failed for p in timed)
    log(f"{args.workload} seed {args.seed}: {len(timed)} passes of "
        f"{len(job_list)} jobs, {busy:.3f} s in jobs "
        f"({busy / len(timed):.3f} s per pass)")

    if tracer:
        per_pass = tracer.per_pass()
        correct = not wrong
        for later in per_pass[1:]:
            for metric, unit, _ in spans.PER_LAYER:
                if unit != "s" and later[metric] != per_pass[0][metric]:
                    log(f"count {metric} differs between traced passes")
                    correct = False
        tracer.save(TRACES / f"{args.workload}-seed{args.seed}.npz")
        metrics = {}
        for metric, unit, _ in spans.PER_LAYER:
            value = (sum(p[metric] for p in per_pass) / len(per_pass)
                     if unit == "s" else per_pass[0][metric])
            metrics[metric] = {"value": value, "unit": unit}
    else:
        correct = not wrong
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": len(job_list) / statistics.median(
                sum(p.times) for p in timed), "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
