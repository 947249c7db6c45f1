#!/usr/bin/env python3
"""Alternate benchmark runs of a parent commit and the working tree.

Run from the root of a checkout::

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH_x.json \\
        approx:7:10 exact:0:3

Each ``WORKLOAD:SEED:PAIRS`` runs ``perfbench/run.py --workload WORKLOAD
--seed SEED --seconds S --trace 0`` PAIRS times in the parent's tree (a
``git archive`` export in a temporary directory) and PAIRS times in the
working tree, alternating: even-numbered pairs, counting from 0, run the
parent first. Every run's correctness and end-to-end metrics go to the
output file with, per workload and seed, each metric's median and
quartiles on both sides and the number of pairs the change won. An
existing output file keeps its other keys and the results of other
workloads and seeds, so notes and earlier rounds survive a rerun.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True,
                   help="commit to compare the working tree against")
    p.add_argument("--out", required=True, help="BENCH_*.json to write")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("specs", nargs="+", metavar="WORKLOAD:SEED:PAIRS")
    args = p.parse_args(argv)
    try:
        args.specs = [(w, int(s), int(n)) for w, s, n in
                      (spec.split(":") for spec in args.specs)]
    except ValueError:
        p.error("each run is WORKLOAD:SEED:PAIRS")
    return args


def export(commit: str, where: str) -> str:
    """Extract `commit`'s tree into `where`; returns its full hash."""
    full = subprocess.run(["git", "-C", ROOT, "rev-parse", commit],
                          capture_output=True, text=True, check=True)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                              full.stdout.strip()],
                             capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(where, filter="data")
    return full.stdout.strip()


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"exit": done.returncode, "correct": False,
                "stderr": done.stderr[-2000:]}
    result = json.loads(lines[-1])
    return {"exit": 0, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def side_summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def summarize(runs: list, end_to_end: list) -> dict:
    """Per-metric medians, quartiles and change wins of one workload and
    seed; pairs whose either run failed are left out of the metrics."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    whole = [p for p in pairs.values() if len(p) == 2
             and all("metrics" in r for r in p.values())]
    out = {"pairs": len(pairs), "all_correct": all(r["correct"] for r in runs),
           "failed_total": sum(r.get("failed", 0) for r in runs),
           "metrics": {}}
    for m in end_to_end:
        if len(whole) < 2:          # no quartiles of fewer runs
            break
        name, lower = m["name"], m["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in whole]
        change = [p["change"]["metrics"][name] for p in whole]
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        entry = {"unit": m["unit"], "better": m["better"],
                 "bound": m["bound"], "parent": side_summary(parent),
                 "change": side_summary(change), "change_wins": wins}
        base = entry["parent"]["median"]
        if base:
            entry["median_change"] = entry["change"]["median"] / base - 1
        out["metrics"][name] = entry
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    record = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    import numpy
    with tempfile.TemporaryDirectory() as parent_tree:
        commit = export(args.parent, parent_tree)
        record.update({
            "parent_commit": commit,
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {args.seconds:g} --trace 0",
            "method": "alternating parent/change pairs (even-numbered "
                      "pairs, counting from 0, run the parent first), the "
                      "parent from a git archive export, the change from "
                      "the working tree; times in reference seconds "
                      "(perfbench/speed.py); quartiles inclusive; "
                      "change_wins counts pairs where the change is better",
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__,
                        "platform": platform.platform()}})
        workloads = record.setdefault("workloads", {})
        all_runs = record.setdefault("runs", [])
        trees = {"parent": parent_tree, "change": ROOT}
        for workload, seed, pairs in args.specs:
            key = f"{workload}_seed{seed}"
            all_runs[:] = [r for r in all_runs if r["key"] != key]
            runs = []
            for pair in range(pairs):
                order = ("parent", "change") if pair % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    run = run_once(trees[side], workload, seed, args.seconds)
                    run.update(key=key, pair=pair, side=side)
                    runs.append(run)
                    value = run.get("metrics", {}).get("jobs_per_s")
                    print(f"{key} pair {pair} {side}: correct="
                          f"{run['correct']} jobs_per_s={value}", flush=True)
                workloads[key] = summarize(runs, end_to_end)
                all_runs.extend(runs[-2:])
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(record, fh, indent=1)
                    fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
