"""Closed-loop job execution: one client, one job at a time, in-process.

CLI jobs go through ``groupwalk.cli.run(argv)`` with stdout and stderr
captured; library jobs call the public function the CLI reaches only
through ``selftest``. Every call goes through the module attribute, so
trace wrappers installed on the modules see it.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

from groupwalk import (boundary, cli, drift, groups, measures, sampler,
                       wordmetric)

import speed
from checker import Checker
from workloads import Job


def _measure(group_id, spec):
    group = groups.group_from_id(group_id)
    return group, measures.parse_measure_spec(group, spec)


def _adjoint(group, measure, n_max):
    g, mu = _measure(group, measure)
    return drift.adjoint_drift_equality(mu, wordmetric.norm_evaluator(g),
                                        n_max)


def _harmonicity(k, level, radius, values):
    free = groups.FreeGroup(k)
    f = boundary.CylinderFunction(
        k, level, {free.parse_element(w): Fraction(v) for w, v in values})
    return boundary.check_harmonicity(f, radius)


def _seminorm(group, radius):
    g = groups.group_from_id(group)
    return wordmetric.check_value_seminorm(
        g, wordmetric.build_ball(g, radius).norms)


def _hitting(k, level, trajectories, steps, seed):
    config = sampler.SamplerConfig(seed=seed, trajectories=trajectories,
                                   steps=steps)
    return boundary.validate_hitting_measure(k, level, config)


def _endpoints(group, measure, trajectories, steps, seed):
    _, mu = _measure(group, measure)
    config = sampler.SamplerConfig(seed=seed, trajectories=trajectories,
                                   steps=steps)
    return sampler.endpoint_counts(mu, config)


LIBRARY = {
    "adjoint_drift_equality": _adjoint,
    "check_cocycle_identity_ball":
        lambda **kw: boundary.check_cocycle_identity_ball(**kw),
    "check_cocycle_normalization":
        lambda **kw: boundary.check_cocycle_normalization(**kw),
    "check_harmonicity": _harmonicity,
    "check_boundary_stationarity":
        lambda **kw: boundary.check_boundary_stationarity(**kw),
    "check_value_seminorm": _seminorm,
    "validate_hitting_measure": _hitting,
    "endpoint_counts": _endpoints,
}


@dataclass
class Context:
    """Where a phase's jobs put their cache and input files."""
    cache: str
    work: str

    def prepare(self, jobs: List[Job]) -> None:
        os.makedirs(self.cache, exist_ok=True)
        os.makedirs(self.work, exist_ok=True)
        for job in jobs:
            for name, text in job.files:
                with open(os.path.join(self.work, name), "w",
                          encoding="utf-8") as fh:
                    fh.write(text)


def execute(job: Job, ctx: Context):
    """Run one job; returns (exit code, stdout or result object, stderr)."""
    if job.kind != "cli":
        return 0, LIBRARY[job.kind](**dict(job.args)), ""
    argv = [a.replace("{cache}", ctx.cache).replace("{work}", ctx.work)
            for a in job.args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass
class Record:
    job: Job
    wall_s: float             # measured
    cpu_s: float              # self plus reaped children, measured
    scale: float              # measured seconds -> reference seconds
    digest: Optional[str]     # None when the job failed

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.scale


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_once(job: Job, ctx: Context, checker: Checker):
    """(wall seconds, CPU seconds, digest or None) of one run of `job`."""
    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        code, out, err = execute(job, ctx)
    except SystemExit as exc:  # argparse rejected the argv
        code, out, err = exc.code, "", "usage error"
    except Exception as exc:   # a crash is a failed job, not a lost run
        code, out, err = -1, None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    if code == -1:
        checker.errors[f"{job.check}: crashed: {err}"] += 1
        return wall, cpu, None
    return wall, cpu, checker.check(job, code, out, err)


def run_jobs(jobs: List[Job], ctx: Context, checker: Checker,
             seconds: Optional[float] = None, pass_length: int = 1,
             on_job: Optional[Callable[[int], None]] = None) -> List[Record]:
    """Run `jobs` in order, once; or, given `seconds`, cycling through them
    until `seconds` have passed at the end of a pass.

    The reference loop runs before the first job and after every job; a
    job's scale comes from the median of the loop times around it (see
    speed.around).
    """
    ctx.prepare(jobs)
    records = []
    refs = [speed.reference()]
    start = time.perf_counter()
    i = 0
    while seconds is not None or i < len(jobs):
        job = jobs[i % len(jobs)]
        if on_job is not None:
            on_job(i)
        wall, cpu, digest = run_once(job, ctx, checker)
        refs.append(speed.reference())
        records.append(Record(job, wall, cpu, 1.0, digest))
        i += 1
        if (seconds is not None and i % pass_length == 0
                and time.perf_counter() - start >= seconds):
            break
    for i, record in enumerate(records):
        record.scale = speed.scale(speed.around(refs, i))
    return records
