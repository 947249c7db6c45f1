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
for k = 2, 9 for k = 3), plus one ``--cylinder`` case, then radial ``phi``
on ``free:1`` at radius 20, on ``free:5``, on ``free:2`` at radius 9 (a
report of megabytes) and past the ball budget, then ``stationary`` and
``ergodicity`` under non-uniform g-space word measures, then the exact laws
by structure (``wordmetric.norm_sums`` and ``wordmetric.fk_numerators``) at
sizes the benchmark does not reach: ``zd`` drift and ``phi`` (with its
series) by coordinate marginals, untruncated and truncated exact free
``phi`` by prefix masses, and a float64 ``zd`` drift that keeps the joint
law, then free-group simple random walk ``drift`` by the radial law on
``free:3`` and ``free:4`` and by the joint law under ``--truncation`` and
in float64, and a radial ``phi`` on ``free:3`` with its series, then
convolution deficits and sparse coordinate laws: an exact ``zd:2`` drift
under ``--truncation 1/500`` (the joint law), a ``lamplighter`` entropy
under ``--truncation 1/100``, whose deficit is nonzero from n = 5, and a
``zd:1`` drift on ``0=1/3;1=1/3;1000=1/3`` (a coordinate law with a gap of
1000), then exact convolution ``phi`` under ``--truncation 1/100``, which
the benchmark's ``phi`` jobs never use: ``heisenberg`` and ``lamplighter``
by the joint law with nonzero ``Fraction`` deficits, and a skewed ``zd:2``
measure, which the truncation sends from the coordinate marginals to the
joint law, then the free-group chains that run on letters moved apart
(``freewalk._letters_apart``): ``entropy`` on ``BA=5/6;BB=1/6`` exact to
n = 11 and float64 under ``--truncation 1e-4``, ``drift`` on
``A=1/4;BA=3/4`` in exact and float64, and an exact convolution ``phi`` on
``free:3`` under ``--truncation 1/100`` (the prefix route with a
threshold), then convolution ``phi`` with ``--emit-series``, whose series
reads f_k at supp mu alone: exact on ``heisenberg`` and ``lamplighter``
(the joint law) and on a skewed ``free:2`` measure (prefix masses), each
untruncated and under ``--truncation 1/100``, and a float64 ``phi`` on
``free:2`` ``A=1/2;B=1/2``, whose joint law runs on moved letters, then
radial ``phi --group free:1 --n 2`` at ``--r-eval 1000`` and 1001, either
side of ``freewalk.MAX_RADIAL_STEPS``, then the a_n/n series that the
CLI prints for the defaults of two former scripts: ``drift --group zd:2
--n-max 64 --emit-series -`` and ``phi --group free:2 --n 64 --r-eval 0
--emit-series -``, then convolution ``phi`` series at ``--r-eval 0``,
where supp mu lies outside the ball: ``heisenberg --n 5`` and the skewed
``free:2`` measure under ``--truncation 1/100`` at ``--n 6`` (the only jobs
whose outputs differ from a parent that refused them with exit 1), then
phi rows texted ahead of the encoder where the radial band is thin or
long, ``free:2`` at ``--n 1000 --r-eval 3`` and ``free:26`` at ``--n 200
--r-eval 2``, and float64 rows of a convolution ``phi`` on
``heisenberg``, then a ``drift --config`` whose file ``collect`` writes
into the work directory (``write_config_file``), with one of its keys
overridden by a flag, and a ``cocycle`` below the level |g|, whose report
is an OutOfRangeError (exit 1), then ``entropy`` on the int images of
``drift._entropy_image``: exact ``zd:3`` on a mixed-sign measure, float64
``zd:2`` under ``--truncation 1e-3``, float64 ``lamplighter`` with lamps
on both sides of 0, and an exact ``zd:2`` measure with an atom at e, then
exact free-norm ``drift`` on (length, tail) states
(``wordmetric._tail_norm_sums``) at sizes the parent still finishes within
its atom budget: a cancelling ``free:2`` measure at ``--n-max 10``, a
``free:3`` measure with an atom at e and a 3-letter atom, ``free:1``
``aaa=1/2;A=1/2`` with its series, and the ``free:1`` simple random walk
past ``freewalk.MAX_RADIAL_STEPS``.
One subprocess per tree (the parent's a ``git archive`` export in a
temporary directory) imports ``groupwalk`` from that tree's ``src``.
It runs every CLI job through ``groupwalk.cli.run``, with the jobs' input
files in a temporary work directory, and every library job through
``perfbench/runner.execute``.
The work and cache directory paths are replaced by ``{work}`` and
``{cache}`` in the CLI outputs; then each CLI job's exit code, stdout and
stderr are compared. A library job's result is compared at full
precision, as ``json.dumps(..., sort_keys=True)`` of its dataclass fields
or its counter, with one encoder for both trees (`encode`): Fractions as
``p/q``, numpy values as lists and numbers. Prints the number of differing
CLI and library jobs per workload and seed, and exits 1 on any difference.
Reads ``perfbench/`` and writes nothing under it.
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
from fractions import Fraction

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
# radial phi where no benchmark job goes: a long free:1 ball, the free:5
# identity "1", a radius-9 free:2 ball, and a radius past the ball's element
# budget
RADIAL_JOBS = [
    ["phi", "--group", "free:1", "--n", "9", "--r-eval", "20"],
    ["phi", "--group", "free:5", "--n", "4", "--r-eval", "2"],
    ["phi", "--group", "free:2", "--n", "2", "--r-eval", "9"],
    ["phi", "--group", "free:2", "--n", "2", "--r-eval", "13"],
]
# g-space word measures other than the uniform one the benchmark uses
GSPACE_JOBS = [
    ["stationary", "--space", "preset:cycle:5", "--measure",
     "t=1/3;t^-1=2/3"],
    ["stationary", "--space", "preset:two-orbits", "--measure", "t t=1"],
    ["ergodicity", "--space", "preset:cycle:4", "--space2", "preset:cycle:6",
     "--measure", "t=1/2;t^-1=1/2"],
]

# exact laws by structure: zd coordinate marginals, free prefix masses
# (untruncated and under an exact threshold), and float64, which keeps the
# joint law
SKEWED = {"zd:2": "--measure=1,0=1/3;-1,1=1/6;0,-1=1/2",
          "free:2": "--measure=a=1/3;B=1/6;ab=1/4;A=1/4"}
LAW_RULE_JOBS = [
    ["drift", "--group", "zd:3", "--n-max", "25"],
    ["phi", "--group", "zd:2", SKEWED["zd:2"], "--n", "12", "--r-eval", "3",
     "--emit-series", "-"],
    ["phi", "--group", "free:2", SKEWED["free:2"], "--n", "9", "--r-eval",
     "5"],
    ["phi", "--group", "free:2", SKEWED["free:2"], "--n", "8", "--r-eval",
     "4", "--truncation", "1/5000"],
    ["drift", "--group", "zd:2", SKEWED["zd:2"], "--mode", "float64",
     "--n-max", "20"],
]
# free-group simple random walk drift: by the radial law at ranks 3 and 4,
# by the joint law under a truncation and in float64, and a radial phi
# with its series
RADIAL_DRIFT_JOBS = [
    ["drift", "--group", "free:3", "--n-max", "7"],
    ["drift", "--group", "free:4", "--n-max", "5"],
    ["drift", "--group", "free:2", "--n-max", "9", "--truncation", "1/5000"],
    ["drift", "--group", "free:2", "--n-max", "9", "--mode", "float64"],
    ["phi", "--group", "free:3", "--n", "12", "--r-eval", "3",
     "--emit-series", "-"],
]
# convolution deficits and coordinate laws off the benchmark's paths: a
# truncated exact zd drift by the joint law, a lamplighter entropy whose
# deficit turns nonzero at n = 5, and a zd:1 coordinate law with a gap of
# 1000
DEFICIT_JOBS = [
    ["drift", "--group", "zd:2", "--truncation", "1/500", "--n-max", "8"],
    ["entropy", "--group", "lamplighter", "--truncation", "1/100",
     "--n-max", "6"],
    ["drift", "--group", "zd:1", "--measure", "0=1/3;1=1/3;1000=1/3",
     "--n-max", "30"],
]
# the free-group chains that run on letters moved apart: entropy on a
# measure whose letters A and B share a hash, exact to n = 11 and float64
# under a truncation; drift off the simple random walk by the joint law, in
# exact and float64; and a truncated exact convolution phi on free:3, the
# prefix route with a threshold
APART_JOBS = [
    ["entropy", "--group", "free:2", "--measure=BA=5/6;BB=1/6", "--n-max",
     "11"],
    ["entropy", "--group", "free:2", "--measure=BA=5/6;BB=1/6", "--mode",
     "float64", "--truncation", "1e-4", "--n-max", "14"],
    ["drift", "--group", "free:2", "--measure=A=1/4;BA=3/4", "--n-max",
     "11"],
    ["drift", "--group", "free:2", "--measure=A=1/4;BA=3/4", "--mode",
     "float64", "--n-max", "11"],
    ["phi", "--group", "free:3", "--method", "convolution", "--n", "8",
     "--r-eval", "3", "--truncation", "1/100"],
]
# exact convolution phi under a truncation, which no benchmark phi job uses:
# the joint law with nonzero Fraction deficits, on zd:2 instead of the
# marginals
TRUNCATED_PHI_JOBS = [
    ["phi", "--group", "heisenberg", "--n", "8", "--r-eval", "4",
     "--truncation", "1/100"],
    ["phi", "--group", "lamplighter", "--n", "8", "--r-eval", "4",
     "--truncation", "1/100", "--emit-series", "-"],
    ["phi", "--group", "zd:2", SKEWED["zd:2"], "--n", "10", "--r-eval", "3",
     "--truncation", "1/100", "--emit-series", "-"],
]

# convolution phi with its distortion series, which reads f_k at supp mu
# alone: exact on the joint law (heisenberg, lamplighter) and on prefix
# masses (a skewed free:2 measure), each untruncated and truncated; and a
# float64 free phi, whose joint law runs on letters moved apart
CESARO_PHI_JOBS = [
    ["phi", "--group", gid, f"--measure={spec}", "--method", "convolution",
     "--n", n, "--r-eval", "3", "--emit-series", "-"] + truncation
    for gid, spec, n in (("heisenberg", "srw", "6"),
                         ("lamplighter", "srw", "6"),
                         ("free:2", "a=1/3;B=1/6;ab=1/4;A=1/4", "9"))
    for truncation in ([], ["--truncation", "1/100"])
] + [
    ["phi", "--group", "free:2", "--method", "convolution",
     "--measure=A=1/2;B=1/2", "--n", "10", "--r-eval", "4", "--mode",
     "float64"],
]

# radial phi either side of the radius cap, the a_n/n series of the
# former drift and phi-convergence scripts at their defaults, and
# convolution phi series with supp mu outside the --r-eval ball
SERIES_JOBS = [
    ["phi", "--group", "free:1", "--n", "2", "--r-eval", "1000"],
    ["phi", "--group", "free:1", "--n", "2", "--r-eval", "1001"],
    ["drift", "--group", "zd:2", "--n-max", "64", "--emit-series", "-"],
    ["phi", "--group", "free:2", "--n", "64", "--r-eval", "0",
     "--emit-series", "-"],
    ["phi", "--group", "heisenberg", "--n", "5", "--r-eval", "0",
     "--emit-series", "-"],
    ["phi", "--group", "free:2", SKEWED["free:2"], "--truncation", "1/100",
     "--n", "6", "--r-eval", "0", "--emit-series", "-"],
]

# phi rows texted ahead of the encoder: radial bands thin against a long
# walk and on the widest alphabet, and float64 convolution rows
ROW_TEXT_JOBS = [
    ["phi", "--group", "free:2", "--n", "1000", "--r-eval", "3"],
    ["phi", "--group", "free:26", "--n", "200", "--r-eval", "2"],
    ["phi", "--group", "heisenberg", "--n", "5", "--r-eval", "4", "--mode",
     "float64"],
]

# the config file that `write_config_file` puts in the work directory, run
# with its n-max overridden by a flag; and an error report: a cocycle level
# below |g| is an OutOfRangeError
CONFIG_TEXT = "# a comment\ngroup=free:2\nmeasure=a=1/2;A=1/2\nn-max=9\n"
EDGE_JOBS = [
    ["drift", "--config", "{work}/drift.cfg", "--n-max", "4"],
    ["cocycle", "--k", "2", "--g", "ab", "--level", "1"],
]

# entropy on the int images: packed ints on zd (exact, float64 truncated,
# an atom at e) and lamp bitmasks on the lamplighter in float64
IMAGE_JOBS = [
    ["entropy", "--group", "zd:3",
     "--measure=1,-2,0=2/5;-1,1,3=2/5;0,0,-1=1/5", "--n-max", "8"],
    ["entropy", "--group", "zd:2", SKEWED["zd:2"], "--mode", "float64",
     "--truncation", "1e-3", "--n-max", "16"],
    ["entropy", "--group", "lamplighter",
     "--measure={-1,2}|-1=1/3;{0}|2=1/6;e=1/2", "--mode", "float64",
     "--n-max", "9"],
    ["entropy", "--group", "zd:2", "--measure=0,0=1/4;-2,3=1/4;1,-1=1/2",
     "--n-max", "14"],
]

# exact free-norm drift on (length, tail) states, each within the atom
# budget of a parent that runs the joint law: a measure with cancellation,
# a 3-letter atom beside an atom at e, a 3-letter atom on free:1 with its
# series, and the free:1 simple random walk one step past the radial cap
TAIL_JOBS = [
    ["drift", "--group", "free:2", "--measure=Ab=2/9;Ba=1/9;aB=5/9;bb=1/9",
     "--n-max", "10"],
    ["drift", "--group", "free:3", "--measure=e=1/6;abC=1/3;cB=1/4;A=1/4",
     "--n-max", "11"],
    ["drift", "--group", "free:1", "--measure=aaa=1/2;A=1/2", "--n-max",
     "12", "--emit-series", "-"],
    ["drift", "--group", "free:1", "--n-max", "1001"],
]


def write_config_file(work: str) -> None:
    """Write CONFIG_TEXT to drift.cfg in the directory `work`."""
    with open(os.path.join(work, "drift.cfg"), "w", encoding="utf-8") as fh:
        fh.write(CONFIG_TEXT)


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
    return (jobs + RADIAL_JOBS + GSPACE_JOBS + LAW_RULE_JOBS
            + RADIAL_DRIFT_JOBS + DEFICIT_JOBS + TRUNCATED_PHI_JOBS
            + APART_JOBS + CESARO_PHI_JOBS + SERIES_JOBS + ROW_TEXT_JOBS
            + EDGE_JOBS + IMAGE_JOBS + TAIL_JOBS)


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


def encode(value):
    """json's `default` for library results: the same in both trees, so
    that neither tree's own encoder can hide a difference."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if type(value).__module__ == "numpy":       # scalars and arrays
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def run_library_job(runner, job, ctx) -> list:
    """[exit code, the result as sorted JSON, error] of one library job."""
    try:
        result = runner.execute(job, ctx)[1]
    except Exception as exc:            # a crash is a result too
        return [-1, "", f"{type(exc).__name__}: {exc}"]
    if dataclasses.is_dataclass(result):
        result = dataclasses.asdict(result)
    return [0, json.dumps(result, sort_keys=True, default=encode), ""]


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
                write_config_file(tmp)
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
                "library": [[job.key] + run_library_job(runner, job, ctx)
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
