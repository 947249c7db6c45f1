"""The benchmark's trace wrappers still bind to the program.

``perfbench/tracer.py`` wraps groupwalk functions by name and
``perfbench/traced.py`` times a few of them directly; a traced benchmark
run fails outright when a name they use is gone. This runs the same steps
in a fresh interpreter: install the tracer, run one CLI job and two library
jobs through ``runner.execute``, uninstall, and time the micro rows. The
``check_value_seminorm`` job builds a ball under the tracer, whose
``build_ball`` hook counts its elements with ``len(BallTable)``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import json, sys, tempfile
import groupwalk.cli
from runner import Context, execute
from traced import micro
from tracer import Tracer
from workloads import Job

jobs = [Job("cli", ("span-rank", "--k", "2", "--level", "2", "--radius",
                    "2"), "span_rank", 0),
        Job("check_boundary_stationarity", (("k", 2), ("level", 2)), "zero",
            0),
        Job("check_value_seminorm", (("group", "zd:2"), ("radius", 2)),
            "seminorm", 0)]
tracer = Tracer()
with tempfile.TemporaryDirectory() as tmp:
    tracer.install()
    try:
        results = [execute(job, Context(cache=tmp, work=tmp))
                   for job in jobs]
    finally:
        tracer.uninstall()
json.dump({"cli": results[0][:2], "library": str(results[1][1]),
           "seminorm": results[2][1].ok,
           "elements": tracer.counts["wordmetric.build_ball.elements"],
           "spans": sorted({span[0] for span in tracer.spans}),
           "micro": sorted(micro())}, sys.stdout)
"""


def test_tracer_binds_and_micro_runs():
    path = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "perfbench"))
    # no bytecode files land in the benchmark's directory
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    code, report = out["cli"]
    assert code == 0 and json.loads(report)["rank"] == 12
    assert out["library"] == "0"
    # the radius-2 ball of Z^2 has 13 elements
    assert out["seminorm"] is True and out["elements"] == 13
    assert {"cli.run", "cli.emit", "boundary.span_rank",
            "boundary.check_boundary_stationarity", "wordmetric.build_ball",
            "wordmetric.check_value_seminorm"} <= set(out["spans"])
    assert out["micro"] == sorted(
        ["micro.free_mul_us", "micro.substream_us",
         "micro.convolve_free2_step10_s", "micro.build_ball_free2_r8_s",
         "micro.cylinders_2_10_s"])
