"""CLI: JSON schemas, exit codes, determinism, config merging, caching."""

import contextlib
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import groupwalk
from groupwalk import gspaces, sampler
from groupwalk.cache import CACHE_ENV_VAR, ball_path, cached_ball
from groupwalk.cli import run
from groupwalk.drift import drift_exact_partial
from groupwalk.groups import FreeGroup, group_from_id
from groupwalk.measures import srw
from groupwalk.wordmetric import (BallTable, ball_to_text, build_ball,
                                  norm_evaluator)


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


def test_drift_exact_report(capsys):
    code, out, _ = run_cli(capsys, "drift", "--group", "free:2",
                           "--measure", "srw", "--n-max", "4",
                           "--mode", "exact")
    assert code == 0
    report = json.loads(out)
    assert report["exact"]["a_values"] == ["1/1", "3/2", "17/8", "21/8"]
    assert report["exact"]["certified_bound"] == 21 / 32
    assert report["config"]["group"] == "free:2"


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


def test_phi_convolution_report(capsys):
    code, out, _ = run_cli(capsys, "phi", "--group", "zd:1", "--n", "4",
                           "--r-eval", "2", "--method", "convolution")
    report = json.loads(out)
    assert code == 0
    assert report["method"] == "convolution"


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


def test_stationary_and_ergodicity(capsys, tmp_path):
    space = tmp_path / "two.gsp"
    space.write_text("size 5\ngen t (0 1)(2 3 4)\n")
    _, out, _ = run_cli(capsys, "stationary", "--space", str(space))
    report = json.loads(out)
    assert report["orbits"] == [[0, 1], [2, 3, 4]]
    assert report["nu"] == [0.2, 0.2, 0.2, 0.2, 0.2]
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


def test_error_exit_codes(capsys, tmp_path, monkeypatch):
    code, out, err = run_cli(capsys, "drift", "--group", "nope:7")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "precondition"
    # missing required option
    code, _, err = run_cli(capsys, "drift", "--measure", "srw")
    assert code == 1
    # malformed group rank, letter, threshold, weight (also a non-finite
    # float64 one), negative seed, config value, g-space size, cycle point
    # and g-space measure weight are domain errors, and so is an input file
    # that is not UTF-8
    bad_size = tmp_path / "bad_size.gspace"
    bad_size.write_text("size x\ngen t (0 1)\n")
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
                 ("stationary", "--space", str(bad_point)),
                 ("stationary", "--space", "preset:cycle:3",
                  "--measure", "t=1/0"),
                 ("stationary", "--space", "preset:cycle:3",
                  "--measure", "t=x"),
                 ("stationary", "--space", "preset:cycle:3",
                  "--measure", "t=nan"),
                 # the radial route is for the exact free-group SRW only
                 ("phi", "--group", "free:2", "--measure=a=1/2;A=1/2",
                  "--method", "radial", "--n", "3"),
                 ("phi", "--group", "free:2", "--mode", "float64",
                  "--method", "radial", "--n", "3"),
                 ("phi", "--group", "zd:1", "--method", "radial",
                  "--n", "3")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "precondition"
    # an unknown phi method is a domain error naming the three methods
    code, out, err = run_cli(capsys, "phi", "--group", "free:2", "--method",
                             "foo", "--n", "3")
    assert (code, out) == (1, "")
    message = json.loads(err)["error"]["message"]
    assert all(m in message for m in ("auto", "convolution", "radial"))
    # resource errors -> exit 2, also for an exact value too long to print
    zeros = "0" * 600
    for argv in (("cocycle", "--k", "2", "--g", "a", "--level", "15"),
                 ("drift", "--group", "zd:1", "--n-max", "8",
                  f"--measure=1=1/1{zeros};-1={'9' * 600}/1{zeros}")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "resource"
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
    four steps and trajectory 1 leaves it."""
    return ("drift", "--group", "heisenberg", "--ball-radius", "3",
            "--n-max", "0", "--steps", "4", "--seed", "3",
            "--trajectories", str(trajectories))


def test_error_in_a_forked_chunk_matches_one_worker(capsys, monkeypatch):
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 2)
    code, out, _ = run_cli(capsys, *_heisenberg_drift(1))
    assert code == 0 and json.loads(out)["monte_carlo"]["trajectories"] == 1
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    # at two workers the inline chunk succeeds and the forked one raises
    runs = [run_cli(capsys, *_heisenberg_drift(2), "--workers", w)
            for w in ("1", "2")]
    assert len(forks) == 1
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["message"] == (
        "element outside ball of radius 3; rebuild with a larger radius")


@pytest.mark.parametrize("failure", ["silent", "cut short"])
def test_forked_chunk_without_a_result_is_a_resource_error(capsys,
                                                          monkeypatch,
                                                          failure):
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 2)
    if failure == "silent":
        norm_chunk = sampler._CHUNK_FNS["norm"]

        def chunk(payload):
            if payload["start"] > 0:    # the forked chunk writes nothing
                os._exit(0)
            return norm_chunk(payload)

        monkeypatch.setitem(sampler._CHUNK_FNS, "norm", chunk)
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
    # the series reads f_k on supp mu, which must lie in the --r-eval ball
    code, out, err = run_cli(capsys, "phi", "--group", "zd:1", "--measure",
                             "3=1/2;-3=1/2", "--n", "3", "--r-eval", "1",
                             "--emit-series", str(target))
    assert (code, out) == (1, "")
    assert "r-eval" in json.loads(err)["error"]["message"]


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


def test_ball_cache_roundtrip_and_stability(tmp_path):
    group = FreeGroup(2)
    first = cached_ball(group, 3, cache_dir=str(tmp_path))
    path = ball_path(str(tmp_path), group, 3)
    assert os.path.exists(path)
    again = cached_ball(group, 3, cache_dir=str(tmp_path))
    assert again.norms == first.norms


@pytest.mark.parametrize("argv, radius", [
    pytest.param(("drift", "--group", "heisenberg", "--n-max", "3",
                  "--ball-radius", "4"), 4, id="drift"),
    pytest.param(("phi", "--group", "heisenberg", "--n", "3",
                  "--r-eval", "1"), 4, id="phi"),     # ball radius n + r-eval
])
def test_heisenberg_cli_ignores_cache_dir(tmp_path, capsys, monkeypatch,
                                          argv, radius):
    """--cache-dir is echoed in the config and otherwise ignored, and
    $GROUPWALK_CACHE_DIR is not read: the CLI neither writes a ball file
    nor reads one, even a well-formed file with wrong norms."""
    empty = tmp_path / "empty"
    empty.mkdir()
    poisoned = tmp_path / "poisoned"
    poisoned.mkdir()
    group = group_from_id("heisenberg")
    table = build_ball(group, radius)
    fake = BallTable(group=group, radius=radius,
                     norms={g: min(n + 1, radius)
                            for g, n in table.norms.items()})
    (poisoned / os.path.basename(ball_path(str(poisoned), group, radius))
     ).write_text(ball_to_text(fake), encoding="ascii")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    for where in (empty, poisoned):
        code, out, _ = run_cli(capsys, *argv, "--cache-dir", str(where))
        assert code == 0
        assert json.loads(out)["config"]["cache-dir"] == str(where)
        assert out.replace(json.dumps(str(where)), '""') == plain
        monkeypatch.setenv(CACHE_ENV_VAR, str(where))
        assert run_cli(capsys, *argv)[1] == plain
        monkeypatch.delenv(CACHE_ENV_VAR)
    assert os.listdir(empty) == []
    assert len(os.listdir(poisoned)) == 1


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
    assert radii == []
    # the exact route builds the ball it reads, once
    code, out, _ = run_cli(capsys, *mc, "--n-max", "2")
    assert code == 0
    assert "exact" in json.loads(out)
    assert radii == [6]
    # the precondition holds on either route
    code, _, err = run_cli(capsys, "drift", "--group", "heisenberg",
                           "--n-max", "0", "--trajectories", "2",
                           "--steps", "2")
    assert code == 1
    assert "--ball-radius" in json.loads(err)["error"]["message"]


def test_cli_import_leaves_ball_cache_module_unloaded():
    package_root = os.path.dirname(os.path.dirname(groupwalk.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    probe = ("import sys, groupwalk.cli; "
             "print('groupwalk.cache' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("corrupt", [
    lambda text: "garbage\n",
    lambda text: text[:len(text) // 2],
    lambda text: text.replace("free:2", "free:3"),
    lambda text: text.replace("radius 3", "radius 4"),
    lambda text: "\u00e9",
], ids=["corrupt", "truncated", "other-group", "other-radius", "non-ascii"])
def test_ball_cache_rebuilds_bad_file(tmp_path, corrupt):
    group = FreeGroup(2)
    path = ball_path(str(tmp_path), group, 3)
    good = ball_to_text(build_ball(group, 3))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(corrupt(good))
    table = cached_ball(group, 3, cache_dir=str(tmp_path))
    assert table.norms == build_ball(group, 3).norms
    with open(path, encoding="ascii") as fh:
        assert fh.read() == good
    assert os.listdir(tmp_path) == [os.path.basename(path)]


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    group = FreeGroup(2)
    cached_ball(group, 2)
    assert os.path.exists(ball_path(str(tmp_path), group, 2))


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
    """Run the CLI: exit code 0, 1 or 2, no traceback, stdout empty or one
    groupwalk/1 report, and a JSON error with exit code 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:       # argparse rejects a malformed value
            code = exc.code
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
