"""Benchmark of groupwalk over three seeded workloads.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``exact``: exact drift, entropy and convolution phi plus the adjoint
  drift equality; the ``Fraction`` convolution engine does most of the work.
* ``identities``: the exact-identity battery (boundary cocycle checks,
  c-seq, span-rank, harmonicity, stationarity), radial phi with large JSON
  reports, semi-norm checks and finite G-spaces.
* ``approx``: Monte Carlo drift on all four groups, hitting-measure prefix
  tallies, endpoint tallies, twin jobs at 1 and 2 workers, and float64
  truncated drift, entropy and phi.

``--trace 0`` runs the workload's jobs in a closed loop (one client, one job
at a time) for ``--seconds``, rounded up to whole passes (see
``workloads.py``), and reports the end-to-end metrics:

* ``job_s.p50``, ``job_s.p90``: per-job wall time percentiles;
* ``jobs_per_s``: jobs completed per second of job wall time;
* ``cpu_s``: CPU seconds (self plus reaped pool children) per job;
* ``peak_rss_mb``: peak resident set of this process (one per run);
* ``setup_s``: median over 5 fresh processes of importing numpy and
  groupwalk plus generating the inputs;
* ``failed_frac`` (printed; the JSON carries ``failed`` and ``attempted``).

Times are in reference seconds: measured seconds scaled by a reference
loop timed between jobs, because this kind of shared box changes speed by
up to 1.7x (see ``speed.py``). The measured times are printed too, as
``measured.*``, with the median factor as ``speed.scale``.

``--trace 1`` runs the first pass of the job list untraced, then again with
trace wrappers installed (``tracer.py``), and reports the per-layer
metrics, the tracing overhead and a one-shot micro section (``traced.py``).
The spans are written to ``.perfbench_out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--record-digests`` runs the default seed's
whole job list once and rewrites ``digests/<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402  (standard library only)
import workloads  # noqa: E402  (standard library only)

SETUP_PROBES = 5
END_TO_END = ("job_s.p50", "job_s.p90", "jobs_per_s", "cpu_s", "peak_rss_mb",
              "setup_s")
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="run the default seed's job list once and rewrite "
                        "its recorded digests")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program(root: str):
    """Import groupwalk from the checkout's src/, never from elsewhere."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "groupwalk", "__init__.py")):
        raise SystemExit(f"error: no groupwalk sources under {src}")
    sys.path.insert(0, src)
    import groupwalk.cli  # noqa: F401  (loads every module)
    import groupwalk
    if not os.path.abspath(groupwalk.__file__).startswith(src + os.sep):
        raise SystemExit(
            f"error: groupwalk imported from {groupwalk.__file__}")
    return groupwalk


def setup_probe(args) -> int:
    """Child process: time the imports plus input generation, then the
    reference loop."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import_program(os.getcwd())
    workloads.generate(args.workload, args.seed)
    seconds = time.perf_counter() - t0
    ref = statistics.median(speed.reference() for _ in range(3))
    print(json.dumps([seconds, ref]))
    return 0


def measure_setup(args) -> list:
    """(set-up seconds, reference-loop seconds), one pair per fresh
    process."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(tuple(json.loads(done.stdout.strip().splitlines()[-1])))
    return samples


def provenance(args, root, groupwalk, job_count: int) -> dict:
    """Machine, versions and inputs of this run. A checkout that is not a
    git repository has no commit; the digest of the sources identifies the
    program then."""
    import numpy

    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    package = os.path.dirname(groupwalk.__file__)
    sources = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                sources.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "groupwalk": groupwalk.__version__,
            "git_commit": commit, "src_sha256": sources.hexdigest()[:16],
            "seed": args.seed, "workload": args.workload, "jobs": job_count,
            "trace": args.trace}


def percentile(values, q: int) -> float:
    """q-th percentile (q in 1..99) by the Harrell-Davis estimator: every
    order statistic weighted by the Beta((n+1)p, (n+1)(1-p)) density at its
    rank (midpoint rule). Where few jobs lie near the percentile, a single
    order statistic jumps between runs; the weighted mean does not."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    logs = [(a - 1) * math.log((i + 0.5) / n)
            + (b - 1) * math.log(1 - (i + 0.5) / n) for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def metric(name, value, unit, samples):
    return {"name": name, "value": value, "unit": unit, "samples": samples}


def _timings(prefix, walls, cpus, setups) -> list:
    n = len(walls)
    return [
        metric(f"{prefix}job_s.p50", percentile(walls, 50), "s", n),
        metric(f"{prefix}job_s.p90", percentile(walls, 90), "s", n),
        metric(f"{prefix}jobs_per_s", n / sum(walls), "1/s", n),
        metric(f"{prefix}cpu_s", sum(cpus) / n, "s", n),
        metric(f"{prefix}setup_s", statistics.median(setups), "s",
               len(setups)),
    ]


def end_to_end(records, setup_samples) -> list:
    """The end-to-end metrics in reference seconds (see speed.py), then the
    same timings in measured seconds."""
    n = len(records)
    failed = sum(r.digest is None for r in records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return [
        *_timings("", [r.ref_wall_s for r in records],
                  [r.ref_cpu_s for r in records],
                  [s * speed.scale(ref) for s, ref in setup_samples]),
        metric("peak_rss_mb", rss_mb, "MB", 1),
        metric("failed_frac", failed / n, "ratio", n),
        metric("speed.scale", statistics.median(r.scale for r in records),
               "ratio", n),
        *_timings("measured.", [r.wall_s for r in records],
                  [r.cpu_s for r in records], [s for s, _ in setup_samples]),
    ]


def record_digests(args, jobs, ctx_factory):
    from checker import DIGEST_DIR, Checker
    from runner import run_jobs

    checker = Checker(None)
    records = run_jobs(jobs, ctx_factory("record"), checker)
    if checker.errors:
        for reason, count in checker.errors.items():
            print(f"{count} x {reason}", file=sys.stderr)
        return 1
    os.makedirs(DIGEST_DIR, exist_ok=True)
    path = os.path.join(DIGEST_DIR, f"{args.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "digests": {r.job.key: r.digest for r in records}},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(records)} digests in {path}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if args.setup_probe:
        return setup_probe(args)
    if args.record_digests and args.seed != 0:
        raise SystemExit("error: digests are recorded for the default seed 0")
    groupwalk = import_program(root)
    setup_samples = ([] if args.record_digests or args.trace
                     else measure_setup(args))
    os.environ.pop("GROUPWALK_CACHE_DIR", None)

    from checker import Checker, load_digests
    from runner import Context, run_jobs

    work = os.path.join(root, WORK_DIR,
                        f"{args.workload}-{args.seed}-{os.getpid()}")

    def ctx_factory(phase):
        return Context(cache=os.path.join(work, phase, "cache"),
                       work=os.path.join(work, phase, "inputs"))

    try:
        if args.record_digests:
            return record_digests(args, workloads.generate(args.workload, 0),
                                  ctx_factory)
        recorded = load_digests(args.workload, args.seed)
        if args.trace:
            from traced import traced_run
            result, lines, job_count, errors = traced_run(
                args, recorded, ctx_factory, os.path.join(root, OUT_DIR))
        else:
            jobs = workloads.generate(args.workload, args.seed)
            checker = Checker(recorded)
            records = run_jobs(
                jobs, ctx_factory("timed"), checker, seconds=args.seconds,
                pass_length=workloads.pass_length(args.workload))
            lines = end_to_end(records, setup_samples)
            failed = sum(r.digest is None for r in records)
            result = {"correct": failed == 0, "attempted": len(records),
                      "failed": failed,
                      "metrics": {m["name"]: {"value": m["value"],
                                              "unit": m["unit"]}
                                  for m in lines if m["name"] in END_TO_END}}
            job_count = len(records)
            errors = checker.errors
        for reason, count in errors.items():
            print(f"FAILED {count} x {reason}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = provenance(args, root, groupwalk, job_count)
    print("provenance " + json.dumps(info, sort_keys=True))
    for m in lines:
        print(f"{m['name']:<48} {m['value']:>14.6g} {m['unit']:<6} "
              f"(n={m['samples']})")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
