#!/usr/bin/env python3
"""Compare the job outputs of a parent commit and the working tree.

Run from the root of a checkout::

    python3 scripts/compare_outputs.py --parent HEAD~1 exact:0 identities:7
    python3 scripts/compare_outputs.py --parent HEAD~1 cli

Each ``WORKLOAD:SEED`` stands for the jobs of one pass of
``perfbench/workloads.generate(WORKLOAD, SEED, passes=1)``. The fixed spec
``cli`` stands for CLI commands that no benchmark job runs (see
``cli_jobs``): the README's CLI block (``selftest`` among them, and the
``phi`` series written to stderr), then for k = 2, 3 and every g of the
radius-2 ball ``poisson-norm`` and the ``cocycle`` histograms at the levels
max(1, |g|), 5 and the deepest level the enumerating histogram answered (14
for k = 2, 9 for k = 3), plus one ``--cylinder`` case, then ``stationary``
and ``ergodicity`` under non-uniform g-space word measures. One subprocess
per tree (the parent's a ``git archive`` export in a temporary directory)
imports ``groupwalk`` from that tree's ``src``. It runs every CLI job
through ``groupwalk.cli.run``, with the jobs' input files in a temporary
work directory, and every library job through ``perfbench/runner.execute``.
The work and cache directory paths are replaced by ``{work}`` and
``{cache}`` in the CLI outputs; then each CLI job's exit code, stdout and
stderr are compared. A library job's result is compared at full
precision, as ``json.dumps(cli.jsonable(...), sort_keys=True)`` of its
dataclass fields or its counter. Prints the number of differing CLI and
library jobs per workload and seed, and exits 1 on any difference. Reads
``perfbench/`` and writes nothing under it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_SPEC = "cli"
# the deepest cocycle level per rank that 4*3^13 cylinders allow
DEEPEST_LEVEL = {2: 14, 3: 9}
# the README's CLI block, with the phi series on stderr instead of a file
README_JOBS = """\
drift --group free:2 --measure srw --n-max 8 --mode exact
drift --group zd:2 --trajectories 2000 --steps 2000 --seed 7 --workers 4
entropy --group free:2 --n-max 8
phi --group free:2 --n 32 --r-eval 6 --emit-series -
cocycle --k 2 --g ab --cylinder aba
poisson-norm --k 2 --g aBa
c-seq --k 2 --n-max 5
span-rank --k 2 --level 2 --radius 2
stationary --space preset:two-orbits
ergodicity --space preset:cycle:2 --space2 preset:cycle:3
factor --space preset:cycle:4 --space2 preset:cycle:2
selftest"""
# g-space word measures other than the uniform one the benchmark uses
GSPACE_JOBS = [
    ["stationary", "--space", "preset:cycle:5", "--measure",
     "t=1/3;t^-1=2/3"],
    ["stationary", "--space", "preset:two-orbits", "--measure", "t t=1"],
    ["ergodicity", "--space", "preset:cycle:4", "--space2", "preset:cycle:6",
     "--measure", "t=1/2;t^-1=1/2"],
]


def cli_jobs() -> list:
    """The fixed ``cli`` spec's argument lists (see the module doc)."""
    jobs = [line.split() for line in README_JOBS.splitlines()]
    for k, deepest in DEEPEST_LEVEL.items():
        letters = ([chr(ord("a") + i) for i in range(k)]
                   + [chr(ord("A") + i) for i in range(k)])
        ball = ["e"] + letters + [x + y for x in letters for y in letters
                                  if x != y.swapcase()]
        for g in ball:
            jobs.append(["poisson-norm", "--k", str(k), "--g", g])
            length = 0 if g == "e" else len(g)
            for level in sorted({max(1, length), 5, deepest}):
                jobs.append(["cocycle", "--k", str(k), "--g", g,
                             "--level", str(level)])
    jobs.append(["cocycle", "--k", "3", "--g", "aB", "--cylinder", "aBca"])
    return jobs + GSPACE_JOBS


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent",
                   help="commit to compare the working tree against")
    p.add_argument("--collect", nargs=2, metavar=("TREE", "OUT"),
                   help=argparse.SUPPRESS)
    p.add_argument("specs", nargs="+", metavar="WORKLOAD:SEED|cli")
    args = p.parse_args(argv)
    for spec in args.specs:
        workload, _, seed = spec.partition(":")
        if spec != CLI_SPEC and not (workload and seed.isdigit()):
            p.error("each run is WORKLOAD:SEED or cli")
    if not (args.parent or args.collect):
        p.error("--parent is required")
    return args


def run_job(cli, args, work: str, cache: str) -> list:
    """[exit code, stdout, stderr] of one CLI job's arguments, paths
    normalised."""
    argv = [a.replace("{cache}", cache).replace("{work}", work)
            for a in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:           # --help, or an older argparse exit
            code = exc.code
        except Exception as exc:            # a crash is a result too
            code = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
    return [code] + [text.getvalue().replace(work, "{work}")
                     .replace(cache, "{cache}") for text in (out, err)]


def run_library_job(cli, runner, job, ctx) -> list:
    """[exit code, the result as sorted JSON, error] of one library job."""
    try:
        result = runner.execute(job, ctx)[1]
    except Exception as exc:            # a crash is a result too
        return [-1, "", f"{type(exc).__name__}: {exc}"]
    if dataclasses.is_dataclass(result):
        result = dataclasses.asdict(result)
    return [0, json.dumps(cli.jsonable(result), sort_keys=True), ""]


def collect(tree: str, specs, out_path: str) -> None:
    """Child process: run the specs' jobs with `tree`'s groupwalk and write
    {spec: {"cli": [[job key, code, stdout, stderr], ...],
    "library": [[job key, code, result, error], ...]}} for each
    WORKLOAD:SEED or cli spec."""
    src = os.path.join(tree, "src")
    sys.dont_write_bytecode = True      # nothing written under perfbench/
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import groupwalk
    from groupwalk import cli
    import runner
    import workloads
    if not os.path.abspath(groupwalk.__file__).startswith(src + os.sep):
        raise SystemExit(f"groupwalk imported from {groupwalk.__file__}")
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in specs:
            if spec == CLI_SPEC:
                results[spec] = {
                    "cli": [[" ".join(args)] + run_job(cli, args, tmp, tmp)
                            for args in cli_jobs()],
                    "library": []}
                continue
            workload, seed = spec.split(":")
            work = os.path.join(tmp, f"{workload}-{seed}")
            cache = os.path.join(tmp, f"cache-{workload}-{seed}")
            jobs = workloads.generate(workload, int(seed), 1)
            ctx = runner.Context(cache=cache, work=work)
            ctx.prepare(jobs)
            results[spec] = {
                "cli": [[job.key] + run_job(cli, job.args, work, cache)
                        for job in jobs if job.kind == "cli"],
                "library": [[job.key] + run_library_job(cli, runner, job, ctx)
                            for job in jobs if job.kind != "cli"]}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def run_tree(tree: str, argv_specs, out_path: str) -> dict:
    subprocess.run([sys.executable, os.path.abspath(__file__), "--collect",
                    tree, out_path] + argv_specs,
                   cwd=tree, check=True)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.collect:
        collect(args.collect[0], args.specs, args.collect[1])
        return 0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_pairs import export
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = os.path.join(tmp, "parent")
        commit = export(args.parent, parent_tree)
        parent = run_tree(parent_tree, args.specs,
                          os.path.join(tmp, "parent.json"))
        change = run_tree(ROOT, args.specs, os.path.join(tmp, "change.json"))
    print(f"parent {commit} against the working tree")
    differing = 0
    for spec in args.specs:
        for kind, label, names in (
                ("cli", "CLI", ("exit", "stdout", "stderr")),
                ("library", "library", ("exit", "result", "error"))):
            pairs = list(zip(parent[spec][kind], change[spec][kind]))
            bad = [(p, c) for p, c in pairs if p != c]
            differing += len(bad)
            print(f"{spec}: {len(pairs)} {label} jobs, {len(bad)} differ")
            for p, c in bad[:3]:        # the first few, by part
                parts = [name for name, a, b in zip(names, p[1:], c[1:])
                         if a != b]
                print(f"  job {p[0]}: {', '.join(parts)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
