"""The experiment scripts run end to end against the package."""

import json
import os
import subprocess
import sys

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
