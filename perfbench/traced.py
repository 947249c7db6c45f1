"""The traced run: per-layer metrics, tracing overhead and micro timings.

The first pass of the job list (every template and size) runs twice, each
time with a fresh cache: untraced, then with the trace wrappers installed.
Job digests of the two phases must be equal. Counts and self times come
from the traced phase; ``trace.overhead_s`` is its job wall time minus the
untraced one. A one-shot micro section then times the ROADMAP baseline
rows with tracing off.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from collections import Counter

import speed
import workloads
from checker import Checker
from runner import run_jobs
from tracer import Tracer

# (metric, unit); "<span>.self_s" metrics are span self times, the rest
# come from the tracer's counters or from `traced_run` itself.
LAYER_METRICS = [
    ("groups.mul.calls", "count"), ("groups.check_element.calls", "count"),
    ("measures.convolve.calls", "count"), ("measures.convolve.pairs", "count"),
    ("measures.convolve.atoms_out", "count"),
    ("measures.convolve.exact.self_s", "s"),
    ("measures.convolve.float64.self_s", "s"),
    ("measures.max_atoms", "count"),
    ("measures.parse_measure_spec.self_s", "s"),
    ("wordmetric.build_ball.calls", "count"),
    ("wordmetric.build_ball.self_s", "s"),
    ("wordmetric.build_ball.elements", "count"),
    ("wordmetric.norm.calls", "count"),
    ("wordmetric.check_value_seminorm.self_s", "s"),
    ("wordmetric.check_value_seminorm.pairs", "count"),
    ("cache.cached_ball.hits", "count"), ("cache.cached_ball.misses", "count"),
    ("cache.cached_ball.hit_s", "s"), ("cache.cached_ball.miss_s", "s"),
    ("drift.drift_exact_partial.self_s", "s"),
    ("drift.entropy_partial.self_s", "s"),
    ("drift.adjoint_drift_equality.self_s", "s"),
    ("drift.drift_monte_carlo.self_s", "s"),
    ("quasiharmonic.compute_fk_tables.self_s", "s"),
    ("quasiharmonic.fk_evals", "count"),
    ("quasiharmonic.phi_from_fk.calls", "count"),
    ("quasiharmonic.phi_from_fk.self_s", "s"),
    ("freewalk.norm_distributions.calls", "count"),
    ("freewalk.norm_distributions.self_s", "s"),
    ("freewalk.radial_phi.self_s", "s"),
    ("boundary.cylinders.yielded", "count"),
    ("boundary.check_cocycle_identity_ball.self_s", "s"),
    ("boundary.check_cocycle_normalization.self_s", "s"),
    ("boundary.c_sequence.self_s", "s"),
    ("boundary.poisson_integral.self_s", "s"),
    ("boundary.check_harmonicity.self_s", "s"),
    ("boundary.check_boundary_stationarity.self_s", "s"),
    ("boundary.span_rank.self_s", "s"), ("boundary.exact_rank.self_s", "s"),
    ("boundary.validate_hitting_measure.self_s", "s"),
    ("gspaces.solve_stationary.self_s", "s"),
    ("gspaces.solve_stationary.iterations", "count"),
    ("gspaces.diagonal_ergodicity.self_s", "s"),
    ("gspaces.isometric_factor_witness.self_s", "s"),
    ("sampler.norm_statistics.self_s", "s"),
    ("sampler.prefix_counts.self_s", "s"),
    ("sampler.endpoint_counts.self_s", "s"),
    ("sampler.traj_steps", "count"), ("sampler.steps_per_s", "1/s"),
    ("sampler.substream.calls", "count"), ("sampler.child_cpu_s", "s"),
    ("sampler.parallel_speedup", "ratio"),
    ("cli.run.self_s", "s"), ("cli.emit.self_s", "s"),
    ("cli.emit.bytes", "bytes"),
    ("trace.jobs", "count"), ("trace.overhead_s", "s"),
    ("micro.free_mul_us", "us"), ("micro.substream_us", "us"),
    ("micro.convolve_free2_step10_s", "s"),
    ("micro.build_ball_free2_r8_s", "s"), ("micro.cylinders_2_10_s", "s"),
]
SAMPLER_SPANS = ("sampler.norm_statistics", "sampler.prefix_counts",
                 "sampler.endpoint_counts")


def _ref_time(fn, repeat: int, number: int = 1) -> float:
    """Median over `repeat` runs of the time per call of `fn`, in reference
    seconds (each run scaled by the reference loop timed right before)."""
    times = []
    for _ in range(repeat):
        factor = speed.scale(speed.reference())
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number * factor)
    return statistics.median(times)


def micro() -> dict:
    """The ROADMAP baseline-table rows, timed once per traced run."""
    from groupwalk import boundary, measures, sampler, wordmetric
    from groupwalk.groups import FreeGroup

    f2 = FreeGroup(2)
    g, h = (1, 2, -1, -2, 1, 2), (1, 2, 1, 2)
    mu = measures.srw(f2)
    mu9 = measures.power(mu, 9)
    return {
        "micro.free_mul_us": 1e6 * _ref_time(lambda: f2.mul(g, h), 5, 20000),
        "micro.substream_us": 1e6 * _ref_time(
            lambda: sampler.substream(7, 12345), 5, 2000),
        "micro.convolve_free2_step10_s": _ref_time(
            lambda: measures.convolve(mu9, mu), 1),
        "micro.build_ball_free2_r8_s": _ref_time(
            lambda: wordmetric.build_ball(f2, 8), 3),
        "micro.cylinders_2_10_s": _ref_time(
            lambda: sum(1 for _ in boundary.cylinders(2, 10)), 3),
    }


def parallel_speedup(records) -> float:
    """Median over twin Monte Carlo pairs of time(w1) / time(w2); 0 when
    the workload has none."""
    walls = {}
    for r in records:
        if r.job.check == "mc" and r.job.twin:
            workers = r.job.args[r.job.args.index("--workers") + 1]
            walls.setdefault(r.job.twin, {})[workers] = r.ref_wall_s
    ratios = [w["1"] / w["2"] for w in walls.values() if len(w) == 2]
    return statistics.median(ratios) if ratios else 0.0


def traced_run(args, recorded, ctx_factory, out_dir):
    """Returns (result JSON, metric lines, jobs run, failure reasons).

    Times are in reference seconds (see speed.py): each span is scaled by
    its job's factor."""
    jobs = workloads.generate(args.workload, args.seed, passes=1)
    plain_checker = Checker(recorded)
    plain = run_jobs(jobs, ctx_factory("untraced"), plain_checker)
    tracer = Tracer()
    checker = Checker(recorded, untraced=tracer.paused)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    with tracer.installed():
        traced = run_jobs(jobs, ctx_factory("traced"), checker,
                          on_job=lambda i: setattr(tracer, "job", i))
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    tracer.write(os.path.join(out_dir,
                              f"trace-{args.workload}-{args.seed}.jsonl"))

    errors = plain_checker.errors + checker.errors
    failed = sum(r.digest is None for r in plain + traced)
    for a, b in zip(plain, traced):
        if None not in (a.digest, b.digest) and a.digest != b.digest:
            errors["traced digest differs from untraced"] += 1
            failed += 1

    values = dict(tracer.counts)
    span_counts = Counter(span[0] for span in tracer.spans)
    own, total = tracer.times({i: r.scale for i, r in enumerate(traced)})
    for name, seconds in own.items():
        values[f"{name}.self_s"] = seconds
    for outcome, plural in (("hit", "hits"), ("miss", "misses")):
        span = f"cache.cached_ball.{outcome}"
        values[f"cache.cached_ball.{plural}"] = span_counts[span]
        values[f"{span}_s"] = total.get(span, 0.0)
    sampler_s = sum(total.get(name, 0.0) for name in SAMPLER_SPANS)
    values["sampler.steps_per_s"] = (
        values.get("sampler.traj_steps", 0) / sampler_s if sampler_s else 0.0)
    values["sampler.child_cpu_s"] = (
        (children1.ru_utime - children0.ru_utime)
        + (children1.ru_stime - children0.ru_stime)) \
        * statistics.median(r.scale for r in traced)
    values["sampler.parallel_speedup"] = parallel_speedup(plain)
    values["trace.jobs"] = len(traced)
    values["trace.overhead_s"] = (sum(r.ref_wall_s for r in traced)
                                  - sum(r.ref_wall_s for r in plain))
    values.update(micro())

    lines = []
    for name, unit in LAYER_METRICS:
        samples = len(traced)
        if name.endswith(".self_s"):
            samples = span_counts[name[:-len(".self_s")]]
        elif name.startswith("micro."):
            samples = 1
        lines.append({"name": name, "value": values.get(name, 0),
                      "unit": unit, "samples": samples})
    result = {"correct": failed == 0, "attempted": len(plain) + len(traced),
              "failed": failed,
              "metrics": {m["name"]: {"value": m["value"], "unit": m["unit"]}
                          for m in lines}}
    return result, lines, len(traced), errors
