"""CLI: JSON schemas, exit codes, determinism, config merging."""

import contextlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import groupwalk
from groupwalk import cli, freewalk, gspaces, quasiharmonic, sampler
from groupwalk.cache import cached_ball
from groupwalk.cli import run
from groupwalk.drift import adjoint_drift_equality, drift_exact_partial
from groupwalk.errors import OutOfRangeError, ResourceLimitError
from groupwalk.groups import FreeGroup, group_from_id
from groupwalk.measures import parse_measure_spec, srw
from groupwalk.wordmetric import build_ball, norm_evaluator
from references import phi_table_free_srw, radial_phi_full_rows


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_span_rank_report(capsys):
    code, out, _ = run_cli(capsys, "span-rank", "--level", "2",
                           "--radius", "2", "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 12
    assert report["full"] is True
    assert report["schema"] == "groupwalk/1"
    assert report["config"]["level"] == 2


def test_span_rank_runaways_fail_fast(capsys):
    """Large spans are answered at once: the rank is the level-radius
    cylinder count."""
    for argv, rank, full in (
            (("--k", "2", "--level", "5", "--radius", "5"), 324, True),
            (("--k", "26", "--level", "3", "--radius", "3"), 135252, True),
            (("--k", "8", "--level", "2", "--radius", "2"), 240, True),
            (("--k", "2", "--level", "40", "--radius", "20"), 4 * 3 ** 19,
             False)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "span-rank", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["rank"], report["full"]) == (rank, full)


def test_span_rank_past_the_enumeration_limit(capsys):
    # only the level-radius cylinders are enumerated, so level 15 (past the
    # enumeration limit) is answered
    code, out, _ = run_cli(capsys, "span-rank", "--k", "2", "--level", "15",
                           "--radius", "2")
    assert code == 0
    report = json.loads(out)
    assert (report["rank"], report["full"]) == (12, False)
    assert report["cylinders"] == 4 * 3 ** 14


def test_span_rank_cylinder_count_past_the_digit_limit(capsys):
    """The report prints the level's cylinder count in full: the deepest
    level whose count int may print is answered, the next is a resource
    error, and so is a level whose count is too large to compute."""
    limit = sys.get_int_max_str_digits()
    level, count, printable = 1, 4, 10 ** limit
    while count * 3 < printable:        # the next level's count prints
        level, count = level + 1, count * 3
    code, out, _ = run_cli(capsys, "span-rank", "--k", "2", "--level",
                           str(level), "--radius", "1")
    assert code == 0
    assert json.loads(out)["cylinders"] == 4 * 3 ** (level - 1)
    for deep in (level + 1, 10 ** 12, 10 ** 400):
        code, out, err = run_cli(capsys, "span-rank", "--k", "2", "--level",
                                 str(deep), "--radius", "1")
        assert (code, out) == (2, "")
        assert f"more than {limit} digits" in json.loads(err)["error"][
            "message"]


def test_memory_error_is_a_resource_error(capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError()

    monkeypatch.setitem(cli._RUNNERS, "span-rank", exhausted)
    code, out, err = run_cli(capsys, "span-rank", "--level", "2",
                             "--radius", "2")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {"type": "resource",
                                         "message": "out of memory"}}


@pytest.mark.parametrize("method", ["radial", "convolution"])
def test_phi_cesaro_length_zero_names_the_bound(capsys, method):
    code, out, err = run_cli(capsys, "phi", "--group", "free:2", "--n", "0",
                             "--method", method)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "precondition", "message": "Cesaro length must be >= 1"}


def test_drift_exact_report(capsys):
    code, out, _ = run_cli(capsys, "drift", "--group", "free:2",
                           "--measure", "srw", "--n-max", "4",
                           "--mode", "exact")
    assert code == 0
    report = json.loads(out)
    assert report["exact"]["a_values"] == ["1/1", "3/2", "17/8", "21/8"]
    assert report["exact"]["certified_bound"] == 21 / 32
    assert report["config"]["group"] == "free:2"


def test_drift_zd3_to_n_200_by_coordinate_laws(capsys):
    """Exact drift on zd:3 to n = 200 runs on the coordinate laws (the
    joint law outgrows the atom budget at n = 143). Oracle: each
    coordinate of the simple random walk steps -1, 0, +1 with weights
    1, 4, 1 over 6, so a_200 = 3 E|S_200| from integer path counts."""
    code, out, _ = run_cli(capsys, "drift", "--group", "zd:3",
                           "--n-max", "200")
    assert code == 0
    exact = json.loads(out)["exact"]
    counts = {0: 1}
    for _ in range(200):
        nxt = {}
        for x, c in counts.items():
            for step, w in ((-1, 1), (0, 4), (1, 1)):
                nxt[x + step] = nxt.get(x + step, 0) + c * w
        counts = nxt
    a_200 = Fraction(3 * sum(abs(x) * c for x, c in counts.items()),
                     6 ** 200)
    assert exact["ns"][-1] == 200
    assert exact["a_values"][-1] == f"{a_200.numerator}/{a_200.denominator}"
    assert exact["error_bars"][-1] == "0/1"
    assert exact["certified_bound"] < 0.1


def test_drift_free2_to_n_1000_by_the_radial_law(capsys):
    """Exact drift of the free:2 simple random walk to n = 1000 runs on the
    radial law (the joint law outgrows the atom budget at n = 13), and
    every a_n is freewalk's expected norm."""
    code, out, err = run_cli(capsys, "drift", "--group", "free:2",
                             "--n-max", "1000")
    assert (code, err) == (0, "")
    exact = json.loads(out)["exact"]
    a = freewalk.expected_norms(2, 1000)
    assert exact["ns"] == list(range(1, 1001))
    assert exact["a_values"] == [f"{v.numerator}/{v.denominator}"
                                 for v in a[1:]]
    assert set(exact["error_bars"]) == {"0/1"}
    assert exact["certified_bound"] == min(float(v) / n
                                           for n, v in enumerate(a) if n)
    assert 0.5 < exact["certified_bound"] < 0.501


def test_adjoint_drift_equality_on_free_srw_by_the_radial_law():
    """Past the joint law's reach (n = 12 on free:2), both sides of the
    adjoint equality run on the radial law, and they agree."""
    group = FreeGroup(2)
    report = adjoint_drift_equality(srw(group), norm_evaluator(group), 100)
    assert report.equal and report.max_difference == 0
    assert report.ns == list(range(1, 101))
    assert report.a_mu == freewalk.expected_norms(2, 100)[1:]


@pytest.mark.usefixtures("fork_every_span")
def test_drift_mc_deterministic_bytes(capsys):
    args = ("drift", "--group", "zd:2", "--measure", "srw", "--n-max", "0",
            "--trajectories", "200", "--steps", "50", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, *args, "--workers", "3")
    r1, r3 = json.loads(out1), json.loads(out3)
    assert r1["monte_carlo"]["norm_sums"] == r3["monte_carlo"]["norm_sums"]
    assert r1["monte_carlo"]["means"] == r3["monte_carlo"]["means"]


def test_entropy_report(capsys):
    import math
    code, out, _ = run_cli(capsys, "entropy", "--group", "free:2",
                           "--n-max", "3")
    report = json.loads(out)
    assert code == 0
    assert report["h_values"][0] == pytest.approx(math.log(4))
    assert report["rate_estimate"] == pytest.approx(report["h_values"][2] / 3)


def test_phi_radial_report(capsys):
    code, out, _ = run_cli(capsys, "phi", "--group", "free:2", "--n", "16",
                           "--r-eval", "2")
    report = json.loads(out)
    assert code == 0
    assert report["method"] == "radial"
    values = {row["element"]: row["value"] for row in report["values"]}
    assert values["e"] == "0/1"
    assert "/" in values["a"]


def _library_radial_values(k, n, r_eval):
    """The radial route's values as ``phi_table_free_srw`` gives them on
    the ball, formatted and sorted as the report lists them."""
    group = FreeGroup(k)
    phi = phi_table_free_srw(k, n, r_eval)
    return json.loads(cli.dumps(
        [{"element": text, "value": value, "error": error}
         for text, value, error in sorted(
             (group.format_element(s), v, phi.error_bars[s])
             for s, v in phi.values.items())]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_phi_radial_values_match_the_library_table(capsys, monkeypatch, k):
    """Spheres texted from word rows list what the ball table lists, and
    the CLI builds no ball for them."""
    expected = [_library_radial_values(k, 7, r_eval) for r_eval in range(5)]

    def no_ball(*args):
        raise AssertionError("radial phi built a ball")

    monkeypatch.setattr(quasiharmonic, "build_ball", no_ball)
    monkeypatch.setattr(cli, "build_ball", no_ball)
    for r_eval in range(5):
        code, out, err = run_cli(capsys, "phi", "--group", f"free:{k}",
                                 "--n", "7", "--r-eval", str(r_eval))
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["method"] == "radial"
        assert report["values"] == expected[r_eval]


def test_phi_radial_long_free1_and_free5_identity(capsys):
    """free:1 answers past the cylinder enumeration limit, and free:5
    prints its identity as "1"."""
    code, out, _ = run_cli(capsys, "phi", "--group", "free:1", "--n", "9",
                           "--r-eval", "20")
    assert code == 0
    values = json.loads(out)["values"]
    assert len(values) == 41
    assert {"a" * 20, "A" * 20, "e"} <= {v["element"] for v in values}
    assert values == _library_radial_values(1, 9, 20)
    code, out, _ = run_cli(capsys, "phi", "--group", "free:5", "--n", "4",
                           "--r-eval", "2")
    assert code == 0
    values = json.loads(out)["values"]
    assert values == _library_radial_values(5, 4, 2)
    assert values[0]["element"] == "1" and len(values) == 1 + 10 + 90


def test_phi_radial_refuses_an_over_budget_radius_at_once(capsys,
                                                          monkeypatch):
    """The ball budget is checked before any value or word is built,
    after the Cesaro length checks."""
    budget = ("ball of free:2 exceeded 2000000 elements; completed "
              "radius 12")
    for r_eval in ("13", "30000"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "phi", "--group", "free:2", "--n",
                                 "2", "--r-eval", r_eval)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"type": "resource",
                                            "message": budget}
    for argv, kind, message in (
            (("--n", "2", "--r-eval", "-1"), "precondition",
             "radius must be >= 0"),
            (("--n", "0", "--r-eval", "13"), "precondition",
             "Cesaro length must be >= 1"),
            (("--n", "0", "--r-eval", "-1"), "precondition",
             "Cesaro length must be >= 1"),
            (("--n", "1001", "--r-eval", "13"), "resource",
             "refusing a 1001-step radial walk: past MAX_RADIAL_STEPS = "
             "1000")):
        code, out, err = run_cli(capsys, "phi", "--group", "free:2", *argv)
        assert out == ""
        assert json.loads(err)["error"] == {"type": kind, "message": message}
    # a ball of exactly the budget answers; one element more is refused
    monkeypatch.setattr(cli, "DEFAULT_MAX_ELEMENTS", 41)
    assert run_cli(capsys, "phi", "--group", "free:1", "--n", "2",
                   "--r-eval", "20")[0] == 0
    code, out, err = run_cli(capsys, "phi", "--group", "free:1", "--n", "2",
                             "--r-eval", "21")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"] == (
        "ball of free:1 exceeded 41 elements; completed radius 20")


def test_phi_radial_refuses_a_radius_past_the_step_cap(capsys):
    """On free:1 the element budget passes every radius below 10^6, so
    MAX_RADIAL_STEPS bounds the radius, checked in the same loop."""
    assert run_cli(capsys, "phi", "--group", "free:1", "--n", "2",
                   "--r-eval", str(freewalk.MAX_RADIAL_STEPS))[0] == 0
    for r_eval in (freewalk.MAX_RADIAL_STEPS + 1, 10 ** 9):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "phi", "--group", "free:1", "--n",
                                 "2", "--r-eval", str(r_eval))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "type": "resource",
            "message": f"refusing radial phi at radius {r_eval}: past "
                       f"MAX_RADIAL_STEPS = {freewalk.MAX_RADIAL_STEPS}"}


def test_phi_convolution_report(capsys):
    code, out, _ = run_cli(capsys, "phi", "--group", "zd:1", "--n", "4",
                           "--r-eval", "2", "--method", "convolution")
    report = json.loads(out)
    assert code == 0
    assert report["method"] == "convolution"


def test_phi_auto_with_truncation_takes_convolution(capsys):
    """The radial formulas are untruncated, so auto truncates by
    convolution: 75/128 on the generators, where the radial route's
    untruncated value is 21/32."""
    argv = ("phi", "--group", "free:2", "--truncation", "1/20", "--n", "4",
            "--r-eval", "1")
    reports = [json.loads(run_cli(capsys, *argv, "--method", method)[1])
               for method in ("auto", "convolution")]
    assert [r["method"] for r in reports] == ["convolution"] * 2
    assert reports[0]["values"] == reports[1]["values"]
    values = {row["element"]: row["value"] for row in reports[0]["values"]}
    assert values["a"] == "75/128"


def test_cocycle_report(capsys):
    code, out, _ = run_cli(capsys, "cocycle", "--k", "2", "--g", "a",
                           "--cylinder", "ab")
    report = json.loads(out)
    assert code == 0
    assert report["exponent"] == 1
    assert report["value"] == "3/1"
    code, out, _ = run_cli(capsys, "cocycle", "--k", "2", "--g", "a",
                           "--level", "1")
    hist = json.loads(out)["exponent_histogram"]
    assert hist == [{"exponent": -1, "value": "1/3", "cylinders": 3},
                    {"exponent": 1, "value": "3/1", "cylinders": 1}]


@pytest.mark.parametrize("argv,level", [
    (("--g", "ab", "--cylinder", "aba"), 3),
    (("--g", "a", "--cylinder", "ab", "--level", "2"), 2),
    (("--g", "a", "--cylinder", "ab", "--level", "0"), 2),
    (("--g", "e", "--cylinder", "aB"), 2),
])
def test_cocycle_cylinder_reports_the_cylinder_level(capsys, argv, level):
    """The value is sigma on C_W, so the level is |W|, whatever |g| is."""
    code, out, _ = run_cli(capsys, "cocycle", "--k", "2", *argv)
    assert code == 0
    assert json.loads(out)["level"] == level


@pytest.mark.parametrize("argv", [
    ("--g", "a", "--cylinder", "ab", "--level", "7"),
    ("--g", "ab", "--cylinder", "aba", "--level", "2"),
    ("--g", "e", "--cylinder", "e"),
], ids=["level-above", "level-below", "empty-word"])
def test_cocycle_cylinder_refuses_other_levels_and_the_empty_word(capsys,
                                                                  argv):
    """A nonzero --level other than |W|, and the empty word, are refused."""
    code, out, err = run_cli(capsys, "cocycle", "--k", "2", *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "precondition"


def test_poisson_norm_and_cseq(capsys):
    import math
    _, out, _ = run_cli(capsys, "poisson-norm", "--k", "2", "--g", "aBa")
    report = json.loads(out)
    assert report["exponent"] == 3
    assert report["value"] == pytest.approx(3 * math.log(3))
    _, out, _ = run_cli(capsys, "c-seq", "--k", "2", "--n-max", "4")
    cs = json.loads(out)
    assert cs["coefficients"] == ["-1/2", "-1/1", "-3/2", "-2/1"]
    assert cs["additive"] is True


@pytest.mark.parametrize("k,n_max", [(2, 12), (26, 3)])
def test_cseq_past_the_convolution_sizes(capsys, k, n_max):
    """Sizes the atom-by-atom convolution route did not finish in 60 s."""
    code, out, _ = run_cli(capsys, "c-seq", "--k", str(k),
                           "--n-max", str(n_max))
    cs = json.loads(out)
    assert code == 0 and cs["additive"] is True
    assert len(cs["coefficients"]) == n_max
    assert cs["coefficients"][0] == f"{1 - k}/{k}"


def test_stationary_and_ergodicity(capsys, tmp_path):
    space = tmp_path / "two.gsp"
    space.write_text("size 5\ngen t (0 1)(2 3 4)\n")
    _, out, _ = run_cli(capsys, "stationary", "--space", str(space))
    report = json.loads(out)
    assert report["orbits"] == [[0, 1], [2, 3, 4]]
    assert report["nu"] == [0.2, 0.2, 0.2, 0.2, 0.2]
    # a measure on t alone moves only within the orbits of <t>
    space.write_text("size 4\ngen t (0 1)(2 3)\ngen s (1 2)\n")
    _, out, _ = run_cli(capsys, "stationary", "--space", str(space),
                        "--measure", "t=1")
    report = json.loads(out)
    assert report["orbits"] == [[0, 1], [2, 3]]
    assert report["nu"] == [0.25, 0.25, 0.25, 0.25]
    _, out, _ = run_cli(capsys, "ergodicity", "--space", "preset:cycle:2",
                        "--space2", "preset:cycle:3")
    assert json.loads(out)["ergodic"] is True
    _, out, _ = run_cli(capsys, "ergodicity", "--space", "preset:cycle:2",
                        "--space2", "preset:cycle:2")
    report = json.loads(out)
    assert report["ergodic"] is False
    assert report["orbit_count"] == 2


def test_factor_subcommand(capsys):
    _, out, _ = run_cli(capsys, "factor", "--space", "preset:cycle:4",
                        "--space2", "preset:cycle:2")
    report = json.loads(out)
    assert report["found"] is True
    assert len(report["vectors"]) == 2
    assert report["gram_preserved"] is True
    _, out, _ = run_cli(capsys, "factor", "--space", "preset:cycle:2",
                        "--space2", "preset:cycle:3")
    assert json.loads(out)["found"] is False


@pytest.mark.usefixtures("fork_every_span")
def test_error_exit_codes(capsys, tmp_path, monkeypatch):
    code, out, err = run_cli(capsys, "drift", "--group", "nope:7")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "precondition"
    # missing required option
    code, _, err = run_cli(capsys, "drift", "--measure", "srw")
    assert code == 1
    # malformed group rank, letter, threshold, weight (also a non-finite
    # float64 one), negative seed, config value, g-space size (also a second
    # one), generator label, cycle point, g-space measure weight and repeated
    # g-space measure atom are domain errors, and so is an input file that
    # is not UTF-8
    bad_size = tmp_path / "bad_size.gspace"
    bad_size.write_text("size x\ngen t (0 1)\n")
    two_sizes = tmp_path / "two_sizes.gspace"
    two_sizes.write_text("size 3\ngen t (0 1 2)\nsize 4\n")
    inverse_label = tmp_path / "inverse_label.gspace"
    inverse_label.write_text("size 3\ngen t (0 1 2)\ngen t^-1 (0 1)\n")
    bad_point = tmp_path / "bad_point.gspace"
    bad_point.write_text("size 2\ngen t (0 x)\n")
    bad_seed = tmp_path / "bad_seed.cfg"
    bad_seed.write_text("seed=abc\n")
    bad_trajectories = tmp_path / "bad_trajectories.cfg"
    bad_trajectories.write_text("trajectories=x\n")
    binary_config = tmp_path / "binary.cfg"
    binary_config.write_bytes(b"\xffseed=1\n")
    binary_space = tmp_path / "binary.gspace"
    binary_space.write_bytes(b"\xffsize 2\ngen t (0 1)\n")
    for argv in (("drift", "--group", "free:x"),
                 ("drift", "--group", "free:2", "--measure=\u00e9=1"),
                 ("drift", "--group", "free:2", "--truncation", "abc"),
                 ("drift", "--group", "zd:1", "--measure", "1=x"),
                 ("drift", "--group", "zd:1",
                  "--measure=1=1e-99999999;-1=1"),
                 ("drift", "--group", "zd:1", "--mode", "float64",
                  "--measure=1=nan;-1=0.5", "--n-max", "3"),
                 ("drift", "--group", "zd:1", "--mode", "float64",
                  "--measure=1=inf;-1=0.5", "--n-max", "3"),
                 ("drift", "--group", "zd:1", "--measure", "srw",
                  "--n-max", "0", "--trajectories", "5", "--steps", "3",
                  "--seed=-1"),
                 ("drift", "--group", "zd:1", "--config", str(bad_seed)),
                 ("drift", "--group", "zd:1", "--config",
                  str(bad_trajectories)),
                 ("drift", "--group", "zd:1", "--config", str(binary_config)),
                 ("stationary", "--space", str(binary_space)),
                 ("factor", "--space", "preset:cycle:2", "--space2",
                  str(binary_space)),
                 ("stationary", "--space", "preset:cycle:x"),
                 ("stationary", "--space", "preset:cycle:0"),
                 ("stationary", "--space", "preset:trivial:-1"),
                 ("stationary", "--space", str(bad_size)),
                 ("stationary", "--space", str(two_sizes)),
                 ("stationary", "--space", str(inverse_label)),
                 ("stationary", "--space", str(bad_point)),
                 ("stationary", "--space", "preset:cycle:3",
                  "--measure", "t=1/0"),
                 ("stationary", "--space", "preset:cycle:3",
                  "--measure", "t=x"),
                 ("stationary", "--space", "preset:cycle:3",
                  "--measure", "t=nan"),
                 ("stationary", "--space", "preset:cycle:3",
                  "--measure", "t=1;t=1"),
                 ("stationary", "--space", "preset:cycle:3",
                  "--measure", "t=1/2;t=1/2"),
                 ("ergodicity", "--space", "preset:cycle:3", "--space2",
                  "preset:cycle:2", "--measure", "t t=1/2;t  t=1/2"),
                 # the radial route is for the exact free-group SRW only
                 ("phi", "--group", "free:2", "--measure=a=1/2;A=1/2",
                  "--method", "radial", "--n", "3"),
                 ("phi", "--group", "free:2", "--mode", "float64",
                  "--method", "radial", "--n", "3"),
                 ("phi", "--group", "zd:1", "--method", "radial",
                  "--n", "3"),
                 # ... and does not truncate
                 ("phi", "--group", "free:2", "--truncation", "1/20",
                  "--n", "4", "--r-eval", "1", "--method", "radial"),
                 # a Cesaro length of 0 on the radial route
                 ("phi", "--group", "free:2", "--n", "0"),
                 # an empty c sequence
                 ("c-seq", "--n-max", "0"),
                 ("c-seq", "--n-max", "-3"),
                 # a free rank past the 26 letters, as in every boundary entry
                 ("c-seq", "--k", "27"),
                 # negative drift lengths (0 skips a section)
                 ("drift", "--group", "zd:1", "--n-max", "-1"),
                 ("drift", "--group", "zd:1", "--n-max", "0",
                  "--trajectories", "-5", "--steps", "3"),
                 # a preset takes no suffix it does not read
                 ("stationary", "--space", "preset:two-orbits:junk"),
                 # malformed flag values, past int's digit limit too, an
                 # unknown flag and an unknown or missing subcommand
                 ("cocycle", "--k", "2", "--g", "a", "--level", "x"),
                 ("cocycle", "--k", "2", "--g", "a", "--level", "9" * 5000),
                 ("drift", "--group", "zd:1", "--n-max", "1.5"),
                 ("drift", "--group", "zd:1", "--bogus", "1"),
                 ("nosuch",),
                 ()):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "precondition"
    # a bad flag value is named by its option
    code, _, err = run_cli(capsys, "drift", "--group", "zd:1",
                           "--n-max", "1.5")
    assert "--n-max" in json.loads(err)["error"]["message"]
    # an unknown phi method is a domain error naming the three methods
    code, out, err = run_cli(capsys, "phi", "--group", "free:2", "--method",
                             "foo", "--n", "3")
    assert (code, out) == (1, "")
    message = json.loads(err)["error"]["message"]
    assert all(m in message for m in ("auto", "convolution", "radial"))
    # resource errors -> exit 2, also for an exact value too long to print
    # (a cylinder count past int's digit limit is one)
    zeros = "0" * 600
    for argv in (("cocycle", "--k", "2", "--g", "a", "--level", "100000"),
                 ("cocycle", "--k", "2", "--g", "a", "--level", f"1{zeros}"),
                 ("drift", "--group", "zd:1", "--n-max", "8",
                  f"--measure=1=1/1{zeros};-1={'9' * 600}/1{zeros}")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "resource"
    # the histogram is counted, not enumerated: level 15 is answered
    code, out, _ = run_cli(capsys, "cocycle", "--k", "2", "--g", "a",
                           "--level", "15")
    assert code == 0
    assert (sum(row["cylinders"]
                for row in json.loads(out)["exponent_histogram"])
            == 4 * 3 ** 14)
    # the radial routes refuse a walk past MAX_RADIAL_STEPS before any path
    # count is built, also with --emit-series; so does exact srw drift on
    # free:k, k >= 2, whose joint law could only end at the atom budget
    over = str(freewalk.MAX_RADIAL_STEPS + 1)
    for argv in (("phi", "--group", "free:2", "--n", "5000", "--r-eval", "0"),
                 ("phi", "--group", "free:3", "--n", over, "--r-eval", "1",
                  "--method", "radial", "--emit-series", "-"),
                 ("c-seq", "--n-max", "5000"),
                 ("c-seq", "--k", "26", "--n-max", over),
                 ("drift", "--group", "free:2", "--n-max", over),
                 ("drift", "--group", "free:26", "--n-max", over,
                  "--emit-series", "-")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "resource"
        assert "MAX_RADIAL_STEPS" in error["message"]
    monkeypatch.setattr(freewalk, "MAX_RADIAL_STEPS", 3)
    assert run_cli(capsys, "c-seq", "--n-max", "3")[0] == 0
    assert run_cli(capsys, "phi", "--group", "free:2", "--n", "3")[0] == 0
    assert run_cli(capsys, "c-seq", "--n-max", "4")[0] == 2
    assert run_cli(capsys, "phi", "--group", "free:2", "--n", "4")[0] == 2
    assert run_cli(capsys, "drift", "--group", "free:2", "--n-max",
                   "3")[0] == 0
    assert run_cli(capsys, "drift", "--group", "free:2", "--n-max",
                   "4")[0] == 2
    # free:1 keeps its joint law past the cap
    assert run_cli(capsys, "drift", "--group", "free:1", "--n-max",
                   "4")[0] == 0
    # the lamplighter lamp window budget is per trajectory, so it fails
    # alike at any worker count
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 2)
    lamp = ("drift", "--group", "lamplighter", "--measure={0,20000000}|1=1",
            "--n-max", "0", "--trajectories", "2", "--steps", "1")
    runs = [run_cli(capsys, *lamp, "--workers", w) for w in ("1", "2")]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "resource"


def _heisenberg_drift(trajectories: int) -> tuple:
    """Trajectory 0 of seed 3 stays in the heisenberg ball of radius 3 for
    four steps and trajectory 1 leaves it; neither needs the ball."""
    return ("drift", "--group", "heisenberg", "--ball-radius", "3",
            "--n-max", "0", "--steps", "4", "--seed", "3",
            "--trajectories", str(trajectories))


@pytest.mark.usefixtures("fork_every_span")
def test_error_in_a_forked_chunk_matches_one_worker(capsys, monkeypatch):
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 2)
    code, out, _ = run_cli(capsys, *_heisenberg_drift(1))
    assert code == 0 and json.loads(out)["monte_carlo"]["trajectories"] == 1
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    # trajectory 1 leaves the radius-3 ball, and both worker counts agree
    runs = [run_cli(capsys, *_heisenberg_drift(2), "--workers", w)
            for w in ("1", "2")]
    assert len(forks) == 1
    code, out, _ = runs[0]
    assert code == 0 and json.loads(out)["monte_carlo"]["trajectories"] == 2
    assert runs[1] == (0, out.replace('"workers": 1', '"workers": 2'), "")
    # a chunk holding trajectory 1 raises: at two workers the inline chunk
    # succeeds and the forked one raises
    norm_chunk = sampler._norm_chunk

    def chunk(*args):
        if args[-1][1] > 1:
            raise OutOfRangeError("trajectory 1 out of range", required=4)
        return norm_chunk(*args)

    monkeypatch.setattr(sampler, "_norm_chunk", chunk)
    forks.clear()
    runs = [run_cli(capsys, *_heisenberg_drift(2), "--workers", w)
            for w in ("1", "2")]
    assert len(forks) == 1
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["message"] == "trajectory 1 out of range"


def test_small_drift_at_two_workers_forks_nothing(capsys, monkeypatch):
    """175,750 draws are below sampler.FORK_DRAWS: --workers 2 runs them
    in this process, with the --workers 1 report."""
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 2)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    argv = ("drift", "--group", "zd:1", "--n-max", "0", "--trajectories",
            "950", "--steps", "185")
    runs = [run_cli(capsys, *argv, "--workers", w) for w in ("1", "2")]
    assert forks == []
    code, out, _ = runs[0]
    assert code == 0 and json.loads(out)["monte_carlo"]["trajectories"] == 950
    assert runs[1] == (0, out.replace('"workers": 1', '"workers": 2'), "")


def test_heisenberg_drift_ignores_ball_radius(capsys):
    """--ball-radius is echoed in the config and otherwise ignored: a
    60-step walk runs past a radius-3 ball, and the report is the same
    without the flag, with a smaller and with a larger radius."""
    argv = ("drift", "--group", "heisenberg", "--n-max", "0",
            "--trajectories", "40", "--steps", "60", "--seed", "2")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(plain)["config"]["ball-radius"] == 0
    for radius in ("3", "60"):
        code, out, _ = run_cli(capsys, *argv, "--ball-radius", radius)
        assert code == 0
        assert json.loads(out)["config"]["ball-radius"] == int(radius)
        assert out.replace(f'"ball-radius": {radius}',
                           '"ball-radius": 0') == plain


@pytest.mark.usefixtures("fork_every_span")
@pytest.mark.parametrize("failure", ["silent", "cut short"])
def test_forked_chunk_without_a_result_is_a_resource_error(capsys,
                                                          monkeypatch,
                                                          failure):
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 2)
    if failure == "silent":
        norm_chunk = sampler._norm_chunk

        def chunk(*args):
            start, _ = args[-1]
            if start > 0:               # the forked chunk writes nothing
                os._exit(0)
            return norm_chunk(*args)

        monkeypatch.setattr(sampler, "_norm_chunk", chunk)
    else:                               # the child's pickle loses its end
        dumps = pickle.dumps
        monkeypatch.setattr(pickle, "dumps", lambda *a: dumps(*a)[:-3])
    code, out, err = run_cli(capsys, "drift", "--group", "zd:2", "--n-max",
                             "0", "--trajectories", "10", "--steps", "3",
                             "--workers", "2")
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "resource"
    assert "without a result" in error["message"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_gspace_point_budget_exit_code(capsys, tmp_path, monkeypatch):
    """A G-space over the point budget fails with exit code 2, names the
    limit and prints no report: a 25-byte file, the presets and the
    diagonal products of ergodicity and factor."""
    big = tmp_path / "big.gspace"
    big.write_bytes(b"size 2000000\ngen t (0 1)\n")
    assert big.stat().st_size == 25
    limit = str(gspaces.MAX_POINTS)
    over = f"{gspaces.MAX_POINTS + 1}"
    cases = [("stationary", "--space", str(big)),
             ("stationary", "--space", f"preset:cycle:{over}"),
             ("stationary", "--space", f"preset:trivial:{over}"),
             ("ergodicity", "--space", str(big), "--space2",
              "preset:cycle:2")]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "resource"
        assert limit in error["message"]
    monkeypatch.setattr(gspaces, "MAX_POINTS", 8)
    for sub in ("ergodicity", "factor"):
        code, out, err = run_cli(capsys, sub, "--space", "preset:cycle:3",
                                 "--space2", "preset:cycle:3")
        assert (code, out) == (2, "")
        assert "limit of 8 points" in json.loads(err)["error"]["message"]
        code, out, _ = run_cli(capsys, sub, "--space", "preset:cycle:2",
                               "--space2", "preset:cycle:4")
        assert code == 0
        assert json.loads(out)["schema"] == "groupwalk/1"


@pytest.mark.parametrize("argv", [
    ("drift", "--group", "free:2", "--n-max", "3"),
    ("entropy", "--group", "free:2", "--n-max", "3"),
    ("phi", "--group", "zd:1", "--n", "3", "--r-eval", "1"),
], ids=lambda argv: argv[0])
def test_float_truncation_rejected_in_exact_mode(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--truncation", "0.05")
    assert code == 1
    assert out == ""
    assert "float truncation" in json.loads(err)["error"]["message"]
    code, out, _ = run_cli(capsys, *argv, "--truncation", "0.05",
                           "--mode", "float64")
    assert code == 0
    assert json.loads(out)["config"]["truncation"] == "0.05"


@pytest.mark.parametrize("truncation,mode", [
    ("-1", "exact"), ("-1/100", "exact"), ("-0.01", "float64"),
])
@pytest.mark.parametrize("argv", [
    ("drift", "--group", "free:2", "--n-max", "3"),
    ("entropy", "--group", "free:2", "--n-max", "3"),
    ("phi", "--group", "free:2", "--n", "3", "--r-eval", "1"),
], ids=lambda argv: argv[0])
def test_negative_truncation_rejected(capsys, argv, truncation, mode):
    """A threshold below 0 drops nothing but would switch off every rule
    that branches on a nonzero threshold; it is refused at the edge."""
    code, out, err = run_cli(capsys, *argv, f"--truncation={truncation}",
                             "--mode", mode)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["message"] == (
        f"negative truncation threshold {truncation!r}")


def test_measure_with_a_leading_minus_needs_the_equals_form(capsys):
    """argparse reads a spaced value that starts with '-' as a flag; the
    '--measure=' form hands it to the parser."""
    spec = "-1=1/2;1=1/2"
    code, out, err = run_cli(capsys, "entropy", "--group", "zd:1",
                             "--measure", spec, "--n-max", "2")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "message": "groupwalk entropy: argument --measure: expected one "
                   "argument",
        "type": "precondition"}
    code, out, _ = run_cli(capsys, "entropy", "--group", "zd:1",
                           f"--measure={spec}", "--n-max", "2")
    report = json.loads(out)
    assert code == 0
    assert report["config"]["measure"] == spec
    assert report["h_values"] == pytest.approx([math.log(2),
                                                1.5 * math.log(2)])


def test_config_file_merging(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group=free:2\nn-max=3\n")
    code, out, _ = run_cli(capsys, "drift", "--config", str(cfg))
    report = json.loads(out)
    assert code == 0
    assert report["config"]["group"] == "free:2"
    assert report["config"]["n-max"] == 3
    # flags win over the file
    code, out, _ = run_cli(capsys, "drift", "--config", str(cfg),
                           "--n-max", "2")
    assert json.loads(out)["config"]["n-max"] == 2
    # unknown keys rejected
    bad = tmp_path / "bad.cfg"
    bad.write_text("group=free:2\nwhat=ever\n")
    code, _, err = run_cli(capsys, "drift", "--config", str(bad))
    assert code == 1
    assert "unknown config keys" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv", [("--help",), ("drift", "--help")])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: groupwalk")


def test_free5_identity_is_not_the_fifth_letter(capsys):
    # "e" is the 5th letter from rank 5 on; the identity prints as "1"
    code, out, _ = run_cli(capsys, "drift", "--group", "free:5",
                           "--measure=e=1/2;E=1/2", "--n-max", "1")
    assert code == 0
    assert json.loads(out)["exact"]["a_values"] == ["1/1"]
    code, out, _ = run_cli(capsys, "phi", "--group", "free:5", "--n", "2",
                           "--r-eval", "1")
    assert code == 0
    elements = [v["element"] for v in json.loads(out)["values"]]
    assert len(elements) == len(set(elements)) == 11
    assert "1" in elements and "e" in elements


def test_emit_series(capsys, tmp_path):
    target = tmp_path / "series.csv"
    run_cli(capsys, "drift", "--group", "zd:1", "--n-max", "4",
            "--emit-series", str(target))
    lines = target.read_text().splitlines()
    assert lines[0] == "n,a_n_over_n"
    assert lines[1] == "1,1.0"
    assert len(lines) == 5


def test_emit_series_to_stderr(capsys):
    code, out, err = run_cli(capsys, "drift", "--group", "zd:1",
                             "--n-max", "3", "--emit-series", "-")
    assert code == 0
    json.loads(out)                      # stdout stays pure JSON
    assert err.startswith("n,a_n_over_n")


def test_phi_emit_series_convolution(capsys, tmp_path):
    target = tmp_path / "phi.csv"
    code, out, _ = run_cli(capsys, "phi", "--group", "zd:1", "--n", "6",
                           "--r-eval", "2", "--method", "convolution",
                           "--emit-series", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "n,distortion_at_e"
    assert len(lines) == 7
    # the distortion-at-e series is a_n/n (telescoping)
    report = json.loads(out)
    assert report["n"] == 6
    group = group_from_id("zd:1")
    exact = drift_exact_partial(srw(group), norm_evaluator(group), 6)
    for line, m, a_m in zip(lines[1:], exact.ns, exact.a_values):
        assert line == f"{m},{float(a_m / m)}"
    # the series reads f_k at supp mu with the closed-form norm, so supp mu
    # may leave the --r-eval ball
    mu = parse_measure_spec(group, "3=1/2;-3=1/2")
    exact = drift_exact_partial(mu, norm_evaluator(group), 3)
    telescoped = "n,distortion_at_e\n" + "".join(
        f"{m},{float(a_m / m)}\n" for m, a_m in zip(exact.ns, exact.a_values))
    for r_eval in ("1", "4"):
        code, _, err = run_cli(capsys, "phi", "--group", "zd:1", "--measure",
                               "3=1/2;-3=1/2", "--n", "3", "--r-eval",
                               r_eval, "--emit-series", "-")
        assert (code, err) == (0, telescoped)


@pytest.mark.parametrize("gid,spec,n,truncation,radii", [
    ("heisenberg", "srw", 5, "0", (0, 2)),
    ("free:2", "a=1/3;B=1/6;ab=1/4;A=1/4", 6, "1/100", (0, 3)),
])
def test_phi_series_does_not_depend_on_the_r_eval_ball(capsys, gid, spec, n,
                                                       truncation, radii):
    """The distortion series is the same whether or not supp mu lies in
    the --r-eval ball, and equals the running sums of f_k tables that
    cover supp mu; the truncated walk keeps nonzero deficits, where the
    series is not a_m/m."""
    series = []
    for r_eval in radii:
        code, _, err = run_cli(capsys, "phi", "--group", gid,
                               f"--measure={spec}", "--n", str(n),
                               "--r-eval", str(r_eval), "--truncation",
                               truncation, "--emit-series", "-")
        assert code == 0
        series.append(err)
    group = group_from_id(gid)
    mu = parse_measure_spec(group, spec)
    assert series[0] == series[1] == _series_from_tables(
        mu, norm_evaluator(group), n, radii[1], Fraction(truncation))


def _series_from_tables(mu, norm_fn, n, r_eval, threshold):
    """The distortion series as running sums of the f_k tables, in
    phi_from_fk's order, texted as ``--emit-series`` writes it."""
    tables = quasiharmonic.compute_fk_tables(mu, norm_fn, n - 1, r_eval,
                                             threshold)
    atoms = mu.atoms
    sums = dict.fromkeys(atoms, 0)
    rows = []
    for m, table in enumerate(tables, start=1):
        for s in sums:
            sums[s] += table.values[s]
        d_e = sum(sums[s] / m * w for s, w in atoms.items())
        rows.append(f"{m},{float(d_e)}")
    return "n,distortion_at_e\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("gid,spec,n,mode", [
    ("heisenberg", "srw", 6, "exact"),
    ("lamplighter", "srw", 6, "exact"),
    ("heisenberg", "1,0,0=1/2;0,-1,0=1/3;1,1,1=1/6", 5, "exact"),
    ("free:2", "a=1/3;B=1/6;ab=1/4;A=1/4", 9, "exact"),
    ("free:2", "BA=5/6;BB=1/6", 8, "exact"),
    ("free:2", "A=1/2;B=1/2", 8, "float64"),
    ("lamplighter", "srw", 6, "float64"),
])
@pytest.mark.parametrize("truncation", ["0", "1/100"])
def test_phi_series_equals_the_tables_oracle(capsys, gid, spec, n, mode,
                                             truncation):
    """--emit-series reads f_k at supp mu alone, on integer running sums in
    exact mode: the same bytes as running sums of the whole f_k tables, on
    the joint and the prefix routes, untruncated and truncated."""
    argv = ["phi", "--group", gid, f"--measure={spec}", "--n", str(n),
            "--r-eval", "2", "--method", "convolution", "--mode", mode,
            "--truncation", truncation, "--emit-series", "-"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    group = group_from_id(gid)
    mu = parse_measure_spec(group, spec, mode=mode)
    threshold = (Fraction(truncation) if mode == "exact"
                 else float(Fraction(truncation)))
    assert err == _series_from_tables(mu, norm_evaluator(group), n, 2,
                                      threshold)


def test_cocycle_level_too_shallow(capsys):
    code, _, err = run_cli(capsys, "cocycle", "--k", "2", "--g", "ab",
                           "--cylinder", "a")
    assert code == 1
    assert "level" in json.loads(err)["error"]["message"]


def test_entropy_float_mode(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--group", "zd:1",
                           "--n-max", "4", "--mode", "float64")
    assert code == 0
    assert len(json.loads(out)["h_values"]) == 4


def test_selftest_passes(capsys):
    code, out, err = run_cli(capsys, "selftest")
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert all(c["passed"] for c in report["checks"])
    assert "[PASS]" in err


@pytest.mark.parametrize("argv, radius", [
    pytest.param(("drift", "--group", "heisenberg", "--n-max", "3",
                  "--ball-radius", "4"), 4, id="drift"),
    pytest.param(("phi", "--group", "heisenberg", "--n", "3",
                  "--r-eval", "1"), 4, id="phi"),
])
def test_heisenberg_cli_ignores_cache_dir(tmp_path, capsys, monkeypatch,
                                          argv, radius):
    """--cache-dir is echoed in the config and otherwise ignored, and
    $GROUPWALK_CACHE_DIR is not read: the CLI neither writes a file into
    the directory nor reads one from it."""
    empty = tmp_path / "empty"
    empty.mkdir()
    poisoned = tmp_path / "poisoned"
    poisoned.mkdir()
    (poisoned / f"ball-heisenberg-{radius}.txt").write_text(
        "not a ball\n", encoding="ascii")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    for where in (empty, poisoned):
        code, out, _ = run_cli(capsys, *argv, "--cache-dir", str(where))
        assert code == 0
        assert json.loads(out)["config"]["cache-dir"] == str(where)
        assert out.replace(json.dumps(str(where)), '""') == plain
        monkeypatch.setenv("GROUPWALK_CACHE_DIR", str(where))
        assert run_cli(capsys, *argv)[1] == plain
        monkeypatch.delenv("GROUPWALK_CACHE_DIR")
    assert os.listdir(empty) == []
    assert len(os.listdir(poisoned)) == 1


@pytest.mark.parametrize("env", [False, True], ids=["plain", "env-var"])
def test_cached_ball_is_bfs_and_stores_nothing(tmp_path, monkeypatch, env):
    if env:
        monkeypatch.setenv("GROUPWALK_CACHE_DIR", str(tmp_path))
    group = FreeGroup(2)
    for cache_dir in (None, str(tmp_path)):
        assert (cached_ball(group, 3, cache_dir=cache_dir).norms
                == build_ball(group, 3).norms)
    assert os.listdir(tmp_path) == []


def test_ball_cache_roundtrip_and_stability(tmp_path):
    group = FreeGroup(2)
    first = cached_ball(group, 3, cache_dir=str(tmp_path))
    again = cached_ball(group, 3, cache_dir=str(tmp_path))
    assert again.norms == first.norms == build_ball(group, 3).norms
    assert os.listdir(tmp_path) == []


def _stale_ball_file(group, radius):
    """A file in the former ball cache format whose norms are all wrong."""
    body = sorted((group.format_element(g), min(n + 1, radius))
                  for g, n in build_ball(group, radius).norms.items())
    return (f"# groupwalk-ball v1\ngroup {group.id_string}\nradius {radius}\n"
            f"count {len(body)}\n" + "".join(f"{s}\t{n}\n" for s, n in body))


@pytest.mark.parametrize("corrupt", [
    lambda text: "garbage\n",
    lambda text: text[:len(text) // 2],
    lambda text: text.replace("free:2", "free:3"),
    lambda text: text.replace("radius 3", "radius 4"),
    lambda text: "\u00e9",
], ids=["corrupt", "truncated", "other-group", "other-radius", "non-ascii"])
def test_ball_cache_rebuilds_bad_file(tmp_path, corrupt):
    """Whatever file sits in the directory, even one of the former cache
    format, cached_ball neither reads it nor rewrites it."""
    group = FreeGroup(2)
    path = tmp_path / "ball-free2-3.txt"
    stale = corrupt(_stale_ball_file(group, 3))
    path.write_text(stale, encoding="utf-8")
    table = cached_ball(group, 3, cache_dir=str(tmp_path))
    assert table.norms == build_ball(group, 3).norms
    assert path.read_text(encoding="utf-8") == stale
    assert os.listdir(tmp_path) == [path.name]


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("GROUPWALK_CACHE_DIR", str(tmp_path))
    (tmp_path / "ball.txt").write_text(_stale_ball_file(FreeGroup(2), 2),
                                       encoding="ascii")
    assert cached_ball(FreeGroup(2), 2).norms == build_ball(FreeGroup(2),
                                                            2).norms
    assert os.listdir(tmp_path) == ["ball.txt"]


def test_heisenberg_monte_carlo_drift_builds_no_cli_ball(capsys, monkeypatch):
    import groupwalk.cli as cli
    radii = []

    def counting_build_ball(group, radius, *args, **kwargs):
        radii.append(radius)
        return build_ball(group, radius, *args, **kwargs)

    monkeypatch.setattr(cli, "build_ball", counting_build_ball)
    mc = ("drift", "--group", "heisenberg", "--ball-radius", "6",
          "--trajectories", "20", "--steps", "6", "--seed", "3")
    code, out, _ = run_cli(capsys, *mc, "--n-max", "0")
    assert code == 0
    assert "monte_carlo" in json.loads(out)
    # the exact route reads closed-form norms too
    code, out, _ = run_cli(capsys, *mc, "--n-max", "2")
    assert code == 0
    assert "exact" in json.loads(out)
    assert radii == []
    # and neither route needs --ball-radius
    code, out, _ = run_cli(capsys, "drift", "--group", "heisenberg",
                           "--n-max", "2", "--trajectories", "2",
                           "--steps", "2")
    assert code == 0
    assert {"exact", "monte_carlo"} <= set(json.loads(out))


def test_cli_import_leaves_ball_cache_module_unloaded():
    package_root = os.path.dirname(os.path.dirname(groupwalk.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    probe = ("import sys, groupwalk.cli; "
             "print('groupwalk.cache' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


# -- hypothesis: the sampler-facing drift flags ----------------------------------

def _flag(values):
    """A flag value: one of `values` as text, or one time in eight any
    text."""
    return st.integers(0, 7).flatmap(
        lambda pick: st.text(max_size=8) if pick == 0 else values.map(str))


_DRIFT_FLAGS = {
    "--trajectories": _flag(st.integers(-1, 40)),
    "--steps": _flag(st.integers(-1, 30)),
}
_OPTIONAL_DRIFT_FLAGS = {
    "--seed": _flag(st.one_of(st.integers(-3, 9), st.integers(0, 2 ** 130))),
    "--checkpoints": _flag(st.lists(st.integers(-1, 30), min_size=1,
                                    max_size=3).map(
        lambda cps: ",".join(map(str, cps)))),
    "--workers": _flag(st.integers(-1, 2)),
    "--measure": _flag(st.sampled_from(
        ["srw", "a=1/2;A=1/2", "1=1/2;-1=1/2", "a=1", "b=1/3;B=2/3",
         "e=1"])),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["zd:1", "free:2"]),
       st.fixed_dictionaries(_DRIFT_FLAGS, optional=_OPTIONAL_DRIFT_FLAGS))
@example("zd:1", {"--trajectories": "1", "--steps": "0",
                  "--checkpoints": ":"})
def test_drift_sampler_flags_fuzz(group, flags):
    argv = ["drift", "--group", group, "--n-max", "0"]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    _assert_clean_exit(argv)


def _assert_clean_exit(argv):
    """Run the CLI: it returns (no SystemExit) exit code 0, 1 or 2, no
    traceback, stdout empty or one groupwalk/1 report, and a JSON error
    with exit code 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        assert code == 0
        assert json.loads(out.getvalue())["schema"] == "groupwalk/1"
    if code == 1:
        assert "error" in json.loads(err.getvalue())


# -- hypothesis: config files and G-space files ------------------------------

# text without decimal digits never parses as an int, so no fuzzed size
# grows past the small ranges drawn below
_WORDS = st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=8)


def _text_or(values):
    """One of `values` as text, or one time in four digit-free text."""
    return st.integers(0, 3).flatmap(
        lambda pick: _WORDS if pick == 0 else values.map(str))


_CONFIG_VALUES = {
    "group": _text_or(st.sampled_from(
        ["zd:1", "zd:2", "free:2", "lamplighter", "heisenberg", "free:x"])),
    "measure": _text_or(st.sampled_from(
        ["srw", "a=1/2;A=1/2", "1=1/2;-1=1/2", "a=1", "1=x", ""])),
    "mode": _text_or(st.sampled_from(["exact", "float64"])),
    "truncation": _text_or(st.sampled_from(["0", "1/10", "0.1", "1/0"])),
    "n-max": _text_or(st.integers(-1, 3)),
    "trajectories": _text_or(st.integers(-1, 4)),
    "steps": _text_or(st.integers(-1, 4)),
    "checkpoints": _text_or(st.sampled_from(["", "1", "1,2", ":", "0,-1"])),
    "seed": _text_or(st.integers(-2, 9)),
    "workers": _text_or(st.integers(-1, 1)),
    "ball-radius": _text_or(st.integers(-1, 3)),
    # a fuzzed path would write files into the working directory
    "emit-series": st.sampled_from(["", "-"]),
    "cache-dir": st.just(""),
}
_REQUIRED_KEYS = ("group", "n-max")    # n-max defaults to 8: always set
_NOISE_LINE = st.one_of(
    st.tuples(st.sampled_from(["n_max", "k", "space", "config", ""]),
              _WORDS).map("=".join),
    _WORDS,
    st.just("# comment"),
)
_CONFIG_FILES = st.one_of(
    st.tuples(
        st.fixed_dictionaries(
            {key: _CONFIG_VALUES[key] for key in _REQUIRED_KEYS},
            optional={key: values for key, values in _CONFIG_VALUES.items()
                      if key not in _REQUIRED_KEYS}),
        st.lists(_NOISE_LINE, max_size=2),
    ).map(lambda parts: "\n".join(
        [f"{key}={value}" for key, value in parts[0].items()]
        + parts[1]).encode()),
    st.binary(max_size=64),
)


@settings(max_examples=150, deadline=None)
@given(_CONFIG_FILES)
@example(b"seed=abc\nn-max=0\ngroup=zd:1\n")
@example(b"\xffn-max=0\n")
def test_drift_config_file_fuzz(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "wb") as fh:
            fh.write(content)
        _assert_clean_exit(["drift", "--config", path])


_LABELS = st.one_of(st.sampled_from(["t", "s", "u", "t^-1"]), _WORDS)


def _gspace_text(size):
    """A G-space file of `size` points: gen lines whose cycles mostly stay
    in range, then relator or noise lines."""
    cycle = st.lists(st.integers(0, max(size, 1)), unique=True,
                     max_size=6).map(
        lambda points: "(" + " ".join(map(str, points)) + ")")
    cycles = st.one_of(st.lists(cycle, max_size=3).map("".join),
                       st.sampled_from(["()", "id", "(0 1", "(0,1)"]),
                       _WORDS)
    gen = st.tuples(_LABELS, cycles).map(lambda g: f"gen {g[0]} {g[1]}")
    extra = st.one_of(
        st.lists(_LABELS, max_size=5).map(
            lambda word: "relator " + " ".join(word)),
        st.sampled_from(["", "# comment", "gen", "size"]),
        _WORDS)
    return st.tuples(_text_or(st.just(size)), st.lists(gen, max_size=3),
                     st.lists(extra, max_size=2)).map(
        lambda parts: "\n".join([f"size {parts[0]}"] + parts[1]
                                + parts[2]).encode())


_GSPACE_FILES = st.one_of(
    # at most 50 points: no fuzzed file allocates at scale
    st.integers(-1, 50).flatmap(_gspace_text),
    st.binary(max_size=64),
)


@settings(max_examples=150, deadline=None)
@given(_GSPACE_FILES, st.sampled_from(
    ["uniform", "t=1", "t=1/2;t^-1=1/2", "t=1/2; s t=1/2", "t=x"]))
@example(b"size 3\ngen t (0 1 2)\n", "uniform")
@example(b"\xffsize 2\ngen t (0 1)\n", "uniform")
def test_stationary_gspace_file_fuzz(content, measure):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.gspace")
        with open(path, "wb") as fh:
            fh.write(content)
        _assert_clean_exit(["stationary", "--space", path,
                            "--measure", measure])


# -- hypothesis: measure specs in lamplighter and heisenberg syntax ----------

_COORD = st.one_of(st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6))
_LAMP_ELEMENTS = st.tuples(st.lists(_COORD, max_size=3), _COORD).map(
    lambda g: "{" + ",".join(map(str, g[0])) + "}|" + str(g[1]))
_HEIS_ELEMENTS = st.lists(_COORD, min_size=2, max_size=4).map(
    lambda xs: ",".join(map(str, xs)))
_WEIGHT_TEXT = st.sampled_from(
    ["1", "1/2", "1/3", "2/3", "0", "-1/2", "1/0", "x", "", "0.5", "1e-3",
     "nan", "inf", "1e-99999999"])


def _measure_specs(elements):
    """'elem=w;...' over 1-3 atoms: weights 1/k (often summing to 1) or
    drawn text; one time in eight, element-free text."""
    def spec(atoms):
        k = len(atoms)
        return ";".join(f"{elem}={f'1/{k}' if w is None else w}"
                        for elem, w in atoms)
    atoms = st.lists(st.tuples(st.one_of(elements, _WORDS, st.just("e")),
                               st.one_of(st.none(), _WEIGHT_TEXT)),
                     min_size=1, max_size=3)
    return st.integers(0, 7).flatmap(
        lambda pick: st.text(max_size=12) if pick == 0 else atoms.map(spec))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.tuples(st.just("lamplighter"), _measure_specs(_LAMP_ELEMENTS)),
    st.tuples(st.just("heisenberg"), _measure_specs(_HEIS_ELEMENTS))),
    st.integers(0, 3), st.sampled_from(["exact", "float64"]))
@example(("lamplighter", "{0,1000000}|1=1/2;{}|-1=1/2"), 3, "exact")
@example(("heisenberg", "1,0,0=1/2;0,0,1=1/2"), 3, "exact")
@example(("lamplighter", "{1,1}|0=1"), 1, "exact")
@example(("heisenberg", "e=1e-99999999"), 1, "exact")
def test_drift_measure_spec_fuzz(group_spec, n_max, mode):
    group, spec = group_spec
    _assert_clean_exit(["drift", "--group", group, f"--measure={spec}",
                        "--n-max", str(n_max), "--mode", mode,
                        "--ball-radius", "3"])


def old_jsonable(value):
    """The recursive JSON-safe copy reports were encoded through before
    `cli.dumps` took json's `default` hook: the reference for its bytes.
    Rows texted ahead (`cli.RowTexts`) are read back into the values they
    stand for."""
    if isinstance(value, cli.RowTexts):
        return [json.loads(row) for row in value.texts]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [old_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): old_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [old_jsonable(v) for v in value]
    return value


class _Half(Fraction):
    pass


# the README's CLI block (the phi series on stderr), then radial and
# convolution phi, Monte Carlo drift (one trajectory: an infinite CI) and
# ergodicity with a witness
_EVERY_SUBCOMMAND = [line.split() for line in """\
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
selftest
phi --group free:3 --n 6 --r-eval 4
phi --group lamplighter --n 4 --r-eval 2
drift --group heisenberg --n-max 0 --trajectories 50 --steps 40 --seed 3
drift --group zd:1 --n-max 0 --trajectories 1 --steps 2 --checkpoints 1,2
cocycle --k 3 --g aBc
ergodicity --space preset:cycle:2 --space2 preset:cycle:2""".splitlines()]


def _keys_are_text(value) -> bool:
    if isinstance(value, dict):
        return all(type(k) is str and _keys_are_text(v)
                   for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(map(_keys_are_text, value))
    return True


def test_dumps_matches_the_recursive_copy_on_every_report(capsys,
                                                         monkeypatch):
    """Each report `run` hands to `emit`, of every subcommand, encodes to
    the bytes of the old recursive copy, and keys only strings."""
    reports = []
    emit = cli.emit

    def capture(report):
        reports.append(report)
        emit(report)

    monkeypatch.setattr(cli, "emit", capture)
    for argv in _EVERY_SUBCOMMAND:
        assert run(argv) == 0, argv
        capsys.readouterr()
    assert ({r["subcommand"] for r in reports}
            == set(cli._RUNNERS) and len(reports) == len(_EVERY_SUBCOMMAND))
    assert [r["method"] for r in reports if r["subcommand"] == "phi"] == [
        "radial", "radial", "convolution"]
    assert sum("monte_carlo" in r for r in reports) == 3
    assert sum("witness" in r for r in reports) == 1
    for r in reports:
        assert cli.dumps(r) == json.dumps(old_jsonable(r), sort_keys=True)
        assert _keys_are_text(r), r["subcommand"]


def test_dumps_matches_the_recursive_copy_on_odd_values():
    shared = Fraction(-7, 3)
    report = {
        "shared": [shared, shared, {"again": (shared, [shared])}],
        "distinct": [Fraction(1, 3), Fraction(1, 3), Fraction(0),
                     Fraction(10 ** 40, 3), _Half(1, 2)],
        "numpy": [np.float64(0.1), np.float32(2.5), np.int64(-3),
                  np.int8(7), np.uint64(2 ** 63)],
        "arrays": [np.arange(4), np.array([[0.5, 1.5], [2.0, -1.0]]),
                   np.zeros(0)],
        "nested": ((1, (2, (3, ()))), [(), [()]]),
        "bools": [True, False], "none": None,
        "counter": Counter({"a": 3, "b": 1}),
        "floats": [0.0, -0.0, 1e300, 5e-324],
        "text": "p/q",
    }
    assert cli.dumps(report) == json.dumps(old_jsonable(report),
                                           sort_keys=True)


@pytest.mark.parametrize("value", [
    {(1, 2): "tuple key"}, [object()], {"x": {1j}}, np.bool_(True)])
def test_dumps_refuses_what_json_does_not_know(value):
    with pytest.raises(TypeError):
        cli.dumps(value)


@pytest.mark.parametrize("value", [
    float("inf"), -math.inf, math.nan, [1.0, {"x": math.inf}],
    np.float64("nan")])
def test_dumps_refuses_non_finite_floats(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.dumps(value)


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


def test_one_trajectory_drift_is_strict_json(capsys):
    """One trajectory has no confidence interval: null, not Infinity."""
    code, out, err = run_cli(capsys, "drift", "--group", "zd:1", "--n-max",
                             "0", "--trajectories", "1", "--steps", "2")
    assert (code, err) == (0, "")
    mc = json.loads(out, parse_constant=_refuse_constant)["monte_carlo"]
    assert mc["ci_half_widths"] == [None]
    assert mc["trajectories"] == 1 and len(mc["means"]) == 1


def test_a_non_finite_report_value_is_a_json_error(capsys, monkeypatch):
    """emit renders the whole text first: a value strict JSON cannot hold
    leaves stdout empty and is one JSON error line on stderr."""
    monkeypatch.setitem(cli._RUNNERS, "span-rank",
                        lambda cfg: {"rank": math.nan})
    code, out, err = run_cli(capsys, "span-rank", "--level", "2",
                             "--radius", "2")
    assert (code, out) == (1, "")
    error = json.loads(err, parse_constant=_refuse_constant)["error"]
    assert error["type"] == "error"
    assert "not JSON" in error["message"]


def test_dumps_digit_limit_is_a_resource_error():
    huge = Fraction(10 ** (sys.get_int_max_str_digits() + 1), 3)
    for value in (huge, [huge, huge], {"x": (huge,)}, _Half(huge)):
        with pytest.raises(ResourceLimitError, match="digits"):
            cli.dumps(value)


# -- phi rows texted ahead of the encoder ---------------------------------------

def _old_phi_report(argv, method, rows):
    """The phi report as `run` built it from dict rows: `rows` are
    (element text, value, error) triples, Fractions as p/q strings."""
    args = cli._parser().parse_args(argv)
    cfg = cli.resolve_config("phi", args)

    def plain(v):
        return f"{v.numerator}/{v.denominator}" if isinstance(
            v, Fraction) else v

    return {"schema": cli.SCHEMA, "subcommand": "phi", "config": cfg,
            "n": cfg["n"], "r_eval": cfg["r-eval"], "mode": cfg["mode"],
            "method": method,
            "values": [{"element": e, "value": plain(v), "error": plain(err)}
                       for e, v, err in sorted(rows)]}


def _assert_same_text(out, expected):
    """out == expected, reported at the first differing offset: pytest's
    diff of two long reports would take minutes."""
    if out != expected:
        at = next((i for i, (a, b) in enumerate(zip(out, expected))
                   if a != b), min(len(out), len(expected)))
        pytest.fail(f"texts differ at offset {at}: "
                    f"{out[max(at - 60, 0):at + 60]!r} against "
                    f"{expected[max(at - 60, 0):at + 60]!r}")


@pytest.mark.parametrize("k,n,r_eval", [
    (1, 9, 7), (2, 6, 4), (3, 5, 3), (4, 3, 2), (5, 4, 2),
    (2, 5, 0), (3, 2, 6), (2, 1, 3), (5, 1, 0)])
def test_radial_phi_rows_are_the_bytes_of_dict_rows(capsys, k, n, r_eval):
    """Radial rows texted per sphere, in text order, are the bytes json
    wrote from sorted dict rows (free:5 prints the identity "1", which
    sorts first), at --r-eval 0, past --n and at --n 1."""
    argv = ["phi", "--group", f"free:{k}", "--n", str(n),
            "--r-eval", str(r_eval)]
    group = FreeGroup(k)
    radial = radial_phi_full_rows(k, n, r_eval)
    report = _old_phi_report(argv, "radial", [
        (group.format_element(s), radial[len(s)], Fraction(0))
        for s in build_ball(group, r_eval).norms])
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    _assert_same_text(
        out, json.dumps(report, sort_keys=True, allow_nan=False) + "\n")
    if k == 5:
        assert report["values"][0]["element"] == "1"


@pytest.mark.parametrize("gid,n,r_eval", [
    ("zd:2", 5, 3), ("heisenberg", 3, 3), ("lamplighter", 4, 2),
    ("free:2", 4, 2)])
@pytest.mark.parametrize("mode", ["exact", "float64"])
@pytest.mark.parametrize("truncation", ["0", "1/100"])
def test_convolution_phi_rows_are_the_bytes_of_dict_rows(
        capsys, gid, n, r_eval, mode, truncation):
    """Convolution rows, Fractions as p/q and floats as json's float text,
    are the bytes json wrote from sorted dict rows."""
    argv = ["phi", "--group", gid, "--n", str(n), "--r-eval", str(r_eval),
            "--mode", mode, "--method", "convolution",
            "--truncation", truncation]
    group = group_from_id(gid)
    mu = parse_measure_spec(group, "srw", mode=mode)
    threshold = cli._parse_threshold(truncation, mode)
    phi = quasiharmonic.compute_phi(mu, norm_evaluator(group), n, r_eval,
                                    threshold=threshold)
    report = _old_phi_report(argv, "convolution", [
        (group.format_element(s), v, phi.error_bars[s])
        for s, v in phi.values.items()])
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    _assert_same_text(
        out, json.dumps(report, sort_keys=True, allow_nan=False) + "\n")
    assert len(report["values"]) == len(build_ball(group, r_eval).norms)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_float_rows_are_a_json_error(capsys, monkeypatch, bad):
    """A float64 row strict JSON cannot hold is the error json raised on
    dict rows: "report is not JSON", exit 1, stdout empty."""
    group = group_from_id("zd:1")
    values = {(0,): 0.0, (1,): bad, (-1,): 0.5}
    errors = {(0,): 0.0, (1,): 0.0, (-1,): bad}
    monkeypatch.setattr(
        quasiharmonic, "compute_phi",
        lambda *a, **kw: quasiharmonic.PhiTable(
            n=2, values=values, error_bars=errors, r_eval=1,
            mode="float64"))
    argv = ["phi", "--group", "zd:1", "--n", "2", "--r-eval", "1",
            "--mode", "float64"]
    report = _old_phi_report(argv, "convolution", [
        (group.format_element(s), v, errors[s]) for s, v in values.items()])
    with pytest.raises(ValueError) as old:
        json.dumps(report, sort_keys=True, allow_nan=False)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "error", "message": f"report is not JSON: {old.value}"}


def test_row_texts_join_as_an_array_in_key_order():
    """dumps writes RowTexts texts as they are, alone or among a dict's
    sorted keys, as json would write the values they stand for; deeper
    down they are not JSON."""
    rows = [{"element": "a", "value": "1/2"}, {"element": "b", "value": 0.5}]
    texts = cli.RowTexts([json.dumps(row, sort_keys=True) for row in rows])
    assert cli.dumps(texts) == json.dumps(rows)
    assert cli.dumps(cli.RowTexts([])) == "[]"
    for value in ({"values": texts, "n": 3, "config": {"z": 1, "a": [1]}},
                  {"a": cli.RowTexts([]), "b": Fraction(1, 3), "c": texts}):
        assert cli.dumps(value) == json.dumps(old_jsonable(value),
                                              sort_keys=True)
    with pytest.raises(TypeError):
        cli.dumps({"report": {"values": texts}})
