"""Tests of the benchmark's trace wrappers.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/check_tracer.py

(The file name keeps it out of the default collection of the package's own
test suite.)
"""

from __future__ import annotations

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import groupwalk.cli  # noqa: E402,F401  (loads every module)
import workloads  # noqa: E402
from checker import Checker  # noqa: E402
from runner import Context, run_jobs  # noqa: E402
from traced import LAYER_METRICS  # noqa: E402
from tracer import GROUP_CLASSES, SPANNED, Tracer  # noqa: E402

# Binding sites that must be wrapped: re-exports by name in other modules,
# plus the home modules.
REQUIRED_SITES = [
    ("drift", "power_sequence"), ("quasiharmonic", "power_sequence"),
    ("boundary", "power_sequence"), ("measures", "power_sequence"),
    ("cli", "cached_ball"), ("cache", "cached_ball"),
    ("sampler", "build_ball"), ("quasiharmonic", "build_ball"),
    ("cache", "build_ball"), ("wordmetric", "build_ball"),
    ("measures", "convolve"), ("sampler", "convolve"),
    ("drift", "norm_statistics"), ("cli", "parse_measure_spec"),
    ("cli", "norm_evaluator"), ("sampler", "norm_evaluator"),
    ("boundary", "cylinders"), ("sampler", "substream"),
]


def _groupwalk_modules():
    return {name: mod for name, mod in sys.modules.items()
            if isinstance(mod, types.ModuleType)
            and (name == "groupwalk" or name.startswith("groupwalk."))}


def _targets():
    """Every (home module, function) the tracer wraps."""
    extra = [("measures", "convolve"), ("measures", "power_sequence"),
             ("boundary", "cylinders"), ("wordmetric", "norm_evaluator"),
             ("sampler", "substream")]
    return SPANNED + extra


def _snapshot():
    """id of every module attribute and group method the tracer may touch."""
    mods = _groupwalk_modules()
    snap = {}
    for name, mod in mods.items():
        for attr, value in vars(mod).items():
            if callable(value):
                snap[(name, attr)] = value
    groups = sys.modules["groupwalk.groups"]
    for cls in GROUP_CLASSES:
        for method in ("mul", "check_element"):
            snap[(cls, method)] = getattr(groups, cls).__dict__[method]
    return snap


def test_install_covers_every_binding_site_and_uninstall_restores():
    before = _snapshot()
    originals = {(m, a): getattr(sys.modules[f"groupwalk.{m}"], a)
                 for m, a in _targets()}
    tracer = Tracer()
    with tracer.installed():
        mods = _groupwalk_modules()
        for (home, attr), original in originals.items():
            sites = [name for name, mod in mods.items()
                     if before.get((name, attr)) is original]
            assert sites, (home, attr)
            for name in sites:
                assert getattr(mods[name], attr) is not original, (name, attr)
        for home, attr in REQUIRED_SITES:
            mod = sys.modules[f"groupwalk.{home}"]
            assert getattr(mod, attr) is not before[(f"groupwalk.{home}",
                                                     attr)], (home, attr)
        groups = sys.modules["groupwalk.groups"]
        for cls in GROUP_CLASSES:
            for method in ("mul", "check_element"):
                assert (getattr(groups, cls).__dict__[method]
                        is not before[(cls, method)])
    assert _snapshot() == before


def test_uninstall_after_an_error_inside():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed():
            1 / 0
    assert _snapshot() == before


def test_self_time_subtracts_children_and_scales_by_job():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, None, 0],
                    ["inner", 1.0, 4.0, 0, 0],
                    ["inner", 5.0, 6.0, 0, 0],
                    ["leaf", 2.0, 3.0, 1, 0],
                    ["leaf", 20.0, 21.0, None, 1]]
    own, total = tracer.times({1: 0.5})
    assert own["outer"] == pytest.approx(6.0)
    assert own["inner"] == pytest.approx(3.0)
    assert own["leaf"] == pytest.approx(1.5)
    assert total["outer"] == pytest.approx(10.0)
    assert total["inner"] == pytest.approx(4.0)


def _first_block(workload):
    return workloads.generate(workload, 0, passes=1)[:13]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_digests_equal_untraced(workload, tmp_path):
    jobs = _first_block(workload)
    plain = run_jobs(jobs, Context(str(tmp_path / "a" / "cache"),
                                   str(tmp_path / "a" / "in")), Checker(None))
    tracer = Tracer()
    checker = Checker(None, untraced=tracer.paused)
    with tracer.installed():
        traced = run_jobs(jobs, Context(str(tmp_path / "b" / "cache"),
                                        str(tmp_path / "b" / "in")), checker,
                          on_job=lambda i: setattr(tracer, "job", i))
    assert all(r.digest for r in plain), workload
    assert [r.digest for r in plain] == [r.digest for r in traced]
    assert tracer.spans and not tracer.stack
    assert tracer.counts["groups.mul.calls"] > 0
    assert {span[4] for span in tracer.spans} <= set(range(len(jobs)))


def test_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        LAYER_METRICS
