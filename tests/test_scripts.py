"""The experiment scripts run end to end against the package, and the
project files agree with it."""

import importlib.util
import json
import os
import re
import subprocess
import sys

import groupwalk
from groupwalk import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_boundary_frequencies_script_runs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts",
                                      "boundary_frequencies.py"),
         "--trajectories", "20", "--steps", "20"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert set(report) == {"k", "level", "steps", "trajectories", "seed",
                           "tv_distance", "undefined", "frequencies"}
    assert (report["trajectories"], report["steps"]) == (20, 20)


def _compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", os.path.join(ROOT, "scripts", "compare_outputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_cli_jobs_parse_and_resolve(tmp_path):
    """Every job of the ``cli`` spec parses and resolves its config, its
    config files written as ``collect`` writes them: a job whose flags
    stopped parsing would exit 1 on both trees alike and compare as equal,
    proving nothing."""
    module = _compare_outputs()
    module.write_config_file(str(tmp_path))
    jobs = module.cli_jobs()
    assert jobs
    configured = []
    for argv in jobs:
        argv = [a.replace("{work}", str(tmp_path)) for a in argv]
        args = cli._parser().parse_args(argv)   # SystemExit on a bad flag
        cfg = cli.resolve_config(args.subcommand, args)
        if args.config:
            configured.append(cfg)
    # the file's keys are read, and a flag wins over one of them
    assert [(c["group"], c["measure"], c["n-max"]) for c in configured] == [
        ("free:2", "a=1/2;A=1/2", 4)]


def test_compare_outputs_readme_jobs_are_the_readme_cli_block():
    """README_JOBS is the README's CLI block, run with the phi series on
    stderr instead of a file."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    commands = [line.removeprefix("groupwalk ").replace(
        "--emit-series phi.csv", "--emit-series -")
        for line in block.splitlines()]
    assert _compare_outputs().README_JOBS.splitlines() == commands


def test_unreached_script_lists_what_a_pass_never_enters():
    """One identities pass runs the boundary checks and no drift job."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "unreached.py"),
         "identities:0"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    *rows, summary = result.stdout.splitlines()
    listed = {row.split()[1] for row in rows}
    assert {"_run_drift", "drift_exact_partial", "_fork_chunk"} <= listed
    assert not {"_run_span_rank", "check_cocycle_identity_ball",
                "_identity_check", "check_value_seminorm"} & listed
    assert summary.startswith(f"{len(rows)} of ")
    assert summary.endswith(" functions unreached by identities:0")


def test_package_version_is_the_pyproject_version():
    """``groupwalk.__version__`` is the version in pyproject.toml, read by
    a regex: Python 3.10, which the project supports, has no tomllib."""
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        match = re.search(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE)
    assert match is not None
    assert match.group(1) == groupwalk.__version__
