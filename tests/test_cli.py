"""CLI: JSON schemas, exit codes, determinism, config merging, caching."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupwalk.cache import CACHE_ENV_VAR, ball_path, cached_ball
from groupwalk.cli import run
from groupwalk.drift import drift_exact_partial
from groupwalk.groups import FreeGroup, group_from_id
from groupwalk.measures import srw
from groupwalk.wordmetric import ball_to_text, build_ball, norm_evaluator


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


def test_error_exit_codes(capsys, tmp_path):
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
                  "--measure", "t=nan")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "precondition"
    # resource error -> exit 2
    code, _, err = run_cli(capsys, "cocycle", "--k", "2", "--g", "a",
                           "--level", "15")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "resource"


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


def test_ball_cache_roundtrip_and_stability(tmp_path, capsys):
    group = FreeGroup(2)
    first = cached_ball(group, 3, cache_dir=str(tmp_path))
    path = ball_path(str(tmp_path), group, 3)
    assert os.path.exists(path)
    again = cached_ball(group, 3, cache_dir=str(tmp_path))
    assert again.norms == first.norms
    # cache hits leave CLI output unchanged (heisenberg drift uses the ball)
    args = ("drift", "--group", "heisenberg", "--n-max", "3",
            "--ball-radius", "4", "--cache-dir", str(tmp_path))
    _, cold, _ = run_cli(capsys, *args)
    _, warm, _ = run_cli(capsys, *args)
    assert cold == warm


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
