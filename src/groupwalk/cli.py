"""Command-line front-end: JSON reports on stdout, structured errors on
stderr, deterministic byte-for-byte output for a fixed (config, seed).

Subcommands: drift, entropy, phi, cocycle, poisson-norm, c-seq, span-rank,
stationary, ergodicity, factor, selftest. Exit codes: 0 success, 1 domain or
precondition error, 2 resource error.

A config file (plain key=value lines, keys as the long option names without
the leading dashes) can supply any option; explicit flags win. Unknown keys
are rejected. Every report embeds its fully resolved config.

This module is the edge: the parser keeps every option as text, and
`resolve_config` converts each value once, from a flag or the config file,
with the option's type in `_OPTIONS`. The runners read the typed config.
A malformed value, an unknown flag and an unknown or missing subcommand are
DomainErrors like any other bad input: one JSON error line on stderr and
exit code 1. Only ``--help`` leaves `run` by SystemExit (code 0).
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional

import numpy as np

from . import boundary, drift, freewalk, gspaces, quasiharmonic
from .errors import (DomainError, GroupwalkError, PreconditionError,
                     ResourceLimitError)
from .freewalk import MAX_RADIAL_STEPS    # radial phi's radius cap
from .groups import FreeGroup, group_from_id
from .measures import MODE_EXACT, fraction_text, parse_measure_spec, srw
from .sampler import SamplerConfig
from .wordmetric import (DEFAULT_MAX_ELEMENTS, build_ball,
                         check_value_seminorm, fk_numerators, norm_evaluator)

SCHEMA = "groupwalk/1"


@dataclasses.dataclass(frozen=True)
class RowTexts:
    """The items of a JSON array as JSON texts, which `dumps` writes as
    they are: rows texted once by their runner, not built as dicts for the
    encoder to walk."""
    texts: List[str]


def dumps(value) -> str:
    """`value` as JSON text with sorted keys, by json's own encoder.

    Fractions (subclasses too) become p/q strings, numpy integer and
    floating scalars Python numbers, arrays lists; any other type json does
    not know is a TypeError, and a non-finite float, which strict JSON has
    no text for, a ValueError. `RowTexts` are written as arrays of their
    texts, at the top or as values of a top-level dict with text keys,
    whose items are then encoded one by one and joined as json joins them
    (deeper down, json does not know them).
    """
    if isinstance(value, RowTexts):
        return "[" + ", ".join(value.texts) + "]"
    if isinstance(value, dict) and any(
            isinstance(v, RowTexts) for v in value.values()):
        return "{" + ", ".join([f"{_dumps(key)}: {dumps(item)}"
                                for key, item in sorted(value.items())]) + "}"
    return _dumps(value)


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, default=_json_default,
                      allow_nan=False)


def _json_default(v):
    if isinstance(v, Fraction):
        return fraction_text(v)
    if isinstance(v, (np.floating, np.integer, np.ndarray)):
        return v.tolist()
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def _strict_text(value) -> str:
    """`dumps(value)`; a non-finite float is the GroupwalkError of a
    report that is not JSON."""
    try:
        return dumps(value)
    except ValueError as exc:           # a non-finite float
        raise GroupwalkError(f"report is not JSON: {exc}") from None


def _value_text(value) -> str:
    """json's text of one row value: a Fraction's p/q string, a finite
    float's repr, else `_strict_text`."""
    if isinstance(value, Fraction):
        return f'"{fraction_text(value)}"'
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return _strict_text(value)


def emit(report: dict) -> None:
    """Write the report's JSON line. The text is whole before the first
    write, so a value that is not JSON leaves stdout empty."""
    text = _strict_text(report)
    sys.stdout.write(text)              # two writes: no copy of a long text
    sys.stdout.write("\n")


def emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps(
        {"error": {"type": kind, "message": message}}, sort_keys=True) + "\n")


# -- option plumbing ------------------------------------------------------------

# name -> (type, default, help); every option takes a value so the config
# file can supply any of them.
_OPTIONS: Dict[str, Dict[str, tuple]] = {
    "drift": {
        "group": (str, None, "group id, e.g. free:2 / zd:2 / lamplighter"),
        "measure": (str, "srw", "srw or 'elem=w;elem=w' atoms"),
        "mode": (str, MODE_EXACT, "exact or float64"),
        "truncation": (str, "0", "drop atoms below this weight"),
        "n-max": (int, 8, "exact partial sums up to this n (0 = skip)"),
        "trajectories": (int, 0, "Monte Carlo trajectories (0 = skip)"),
        "steps": (int, 0, "Monte Carlo walk length"),
        "checkpoints": (str, "", "comma list of checkpoint steps"),
        "seed": (int, 0, "Monte Carlo seed"),
        "workers": (int, 1, "at most this many Monte Carlo worker processes, "
                              "one per 2^21 draws; same output"),
        "ball-radius": (int, 0, "accepted and ignored (closed-form norms)"),
        "emit-series": (str, "", "write (n, a_n/n) CSV here ('-' = stderr)"),
        "cache-dir": (str, "", "accepted and ignored (balls are rebuilt)"),
    },
    "entropy": {
        "group": (str, None, "group id"),
        "measure": (str, "srw", "measure spec"),
        "mode": (str, MODE_EXACT, "exact or float64"),
        "truncation": (str, "0", "drop atoms below this weight"),
        "n-max": (int, 8, "entropies up to this n"),
    },
    "phi": {
        "group": (str, None, "group id"),
        "measure": (str, "srw", "measure spec"),
        "mode": (str, MODE_EXACT, "exact or float64"),
        "truncation": (str, "0", "drop atoms below this weight"),
        "n": (int, 32, "Cesaro length"),
        "r-eval": (int, 6, "evaluation ball radius"),
        "method": (str, "auto", "auto, convolution, or radial"),
        "emit-series": (str, "", "write (m, distortion at e) CSV here"),
        "cache-dir": (str, "", "accepted and ignored (balls are rebuilt)"),
    },
    "cocycle": {
        "k": (int, 2, "free rank"),
        "g": (str, None, "group element, e.g. ab or aB"),
        "level": (int, 0, "cylinder level (default |g|, or |W| of "
                          "--cylinder W)"),
        "cylinder": (str, "", "specific cylinder prefix word"),
    },
    "poisson-norm": {
        "k": (int, 2, "free rank"),
        "g": (str, None, "group element"),
    },
    "c-seq": {
        "k": (int, 2, "free rank"),
        "n-max": (int, 5, "sequence length"),
    },
    "span-rank": {
        "k": (int, 2, "free rank"),
        "level": (int, None, "cylinder level"),
        "radius": (int, None, "ball radius"),
    },
    "stationary": {
        "space": (str, None, "g-space file or preset:name"),
        "measure": (str, "uniform", "measure on generator words"),
    },
    "ergodicity": {
        "space": (str, None, "first g-space"),
        "space2": (str, None, "second g-space"),
        "measure": (str, "uniform", "measure used to solve stationarity"),
    },
    "factor": {
        "space": (str, None, "first g-space"),
        "space2": (str, None, "second g-space"),
        "measure": (str, "uniform", "measure used to solve stationarity"),
    },
    "selftest": {},
}


def _read_text(path: str, what: str) -> str:
    """The file's text; a file that is not UTF-8 is a DomainError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(
            f"{what} {path!r} is not UTF-8 text: {exc}") from None


def _parse_config_file(path: str) -> Dict[str, str]:
    out = {}
    for raw in _read_text(path, "config file").split("\n"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(f"bad config line {line!r} (want key=value)")
        out[key.strip()] = value.strip()
    return out


def resolve_config(subcommand: str, args: argparse.Namespace) -> Dict[str, object]:
    """Merge flag values over config-file values over defaults, converting
    each given text once with its option's type."""
    options = _OPTIONS[subcommand]
    file_values: Dict[str, str] = {}
    if args.config:
        file_values = _parse_config_file(args.config)
        unknown = set(file_values) - set(options)
        if unknown:
            raise DomainError(
                f"unknown config keys for {subcommand}: {sorted(unknown)}")
    resolved: Dict[str, object] = {}
    for name, (typ, default, _help) in options.items():
        text = getattr(args, name.replace("-", "_"))
        source = f"--{name}"
        if text is None and name in file_values:
            text, source = file_values[name], f"config key {name!r}"
        if text is None:
            value = default
        else:
            try:
                value = typ(text)
            except ValueError:      # also an int past the digit limit
                raise DomainError(
                    f"bad value {text!r} for {source} "
                    f"(want {typ.__name__})") from None
        if value is None:
            raise DomainError(f"missing required option --{name}")
        resolved[name] = value
    return resolved


def _parse_threshold(text: str, mode: str):
    """--truncation as a Fraction (p/q or integer) or a float; a negative
    value, and a nonzero float in exact mode, are rejected."""
    text = text.strip()
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            threshold = Fraction(int(num), int(den))
        elif "." in text or "e" in text or "E" in text:
            threshold = float(text)
        else:
            threshold = Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"bad truncation threshold {text!r}")
    if threshold < 0:
        raise DomainError(f"negative truncation threshold {text!r}")
    if mode == MODE_EXACT and isinstance(threshold, float) and threshold:
        raise DomainError("float truncation threshold in exact mode")
    return threshold


def _parse_space(arg: str) -> gspaces.FiniteGSpace:
    if arg.startswith("preset:"):
        name = arg[len("preset:"):]
        kind, _, param = name.partition(":")
        if kind in ("cycle", "trivial"):
            try:
                size = int(param)
            except ValueError:
                raise DomainError(f"bad size {param!r} in preset {name!r}")
            if kind == "cycle":
                return gspaces.cycle_space(size)
            return gspaces.trivial_space(size)
        if name == "two-orbits":
            return gspaces.two_orbit_space()
        raise DomainError(f"unknown g-space preset {name!r}")
    return gspaces.parse_gspace(_read_text(arg, "g-space file"))


def _write_series(target: str, rows: List[tuple], header: str) -> None:
    if not target:
        return
    text = header + "\n" + "\n".join(f"{a},{b}" for a, b in rows) + "\n"
    if target == "-":
        sys.stderr.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- subcommand bodies -----------------------------------------------------------

def _walk_inputs(cfg: Dict[str, object]) -> tuple:
    """(group, mu, truncation threshold) of drift, entropy and phi, checked
    in that order."""
    group = group_from_id(cfg["group"])
    mu = parse_measure_spec(group, cfg["measure"], mode=cfg["mode"])
    return group, mu, _parse_threshold(cfg["truncation"], cfg["mode"])


def _run_drift(cfg: Dict[str, object]) -> dict:
    if min(cfg["n-max"], cfg["trajectories"]) < 0:
        raise DomainError("--n-max and --trajectories must be >= 0 (0 = skip)")
    group, mu, threshold = _walk_inputs(cfg)
    report: dict = {}
    series = []
    if cfg["n-max"] >= 1:
        exact = drift.drift_exact_partial(mu, norm_evaluator(group),
                                          cfg["n-max"], threshold=threshold)
        report["exact"] = dataclasses.asdict(exact)
        series = [(n, float(a) / n)
                  for n, a in zip(exact.ns, exact.a_values)]
    if cfg["trajectories"] >= 1:
        checkpoints = None
        if cfg["checkpoints"]:
            try:
                checkpoints = [int(x) for x in cfg["checkpoints"].split(",")]
            except ValueError:
                raise DomainError(
                    f"bad --checkpoints {cfg['checkpoints']!r} (want a comma "
                    f"list of steps)") from None
        config = SamplerConfig(seed=cfg["seed"],
                               trajectories=cfg["trajectories"],
                               steps=cfg["steps"], workers=cfg["workers"])
        mc = drift.drift_monte_carlo(mu, config, checkpoints=checkpoints)
        report["monte_carlo"] = dataclasses.asdict(mc)
    _write_series(cfg["emit-series"], series, "n,a_n_over_n")
    return report


def _run_entropy(cfg: Dict[str, object]) -> dict:
    _group, mu, threshold = _walk_inputs(cfg)
    rep = drift.entropy_partial(mu, cfg["n-max"], threshold=threshold)
    return dataclasses.asdict(rep)


def _run_phi(cfg: Dict[str, object]) -> dict:
    method = cfg["method"]
    if method not in ("auto", "convolution", "radial"):
        raise DomainError(f"unknown phi method {method!r}: use auto, "
                          f"convolution or radial")
    group, mu, threshold = _walk_inputs(cfg)
    n = cfg["n"]
    r_eval = cfg["r-eval"]
    if method != "convolution":
        # the radial route computes the exact simple random walk's phi
        is_free_srw = freewalk.is_srw(mu)
        if method == "auto":
            # the radial formulas are untruncated
            method = ("radial" if is_free_srw and not threshold
                      else "convolution")
        elif not is_free_srw:
            raise PreconditionError(
                "radial phi needs the exact simple random walk on a free "
                "group (--mode exact, --measure srw); use --method "
                "convolution")
        elif threshold:
            raise PreconditionError(
                "radial phi does not truncate; use --method convolution "
                "with --truncation")
    series: List[tuple] = []
    if method == "radial":
        rows = _radial_rows(group, n, r_eval)
        if cfg["emit-series"]:
            a_vals = freewalk.expected_norms(group.k, n)
            series = [(m, float(a_vals[m]) / m) for m in range(1, n + 1)]
    else:
        norm_fn = norm_evaluator(group)
        phi = quasiharmonic.compute_phi(mu, norm_fn, n, r_eval,
                                        threshold=threshold)
        if cfg["emit-series"]:
            series = _distortion_series(mu, norm_fn, n, threshold)
    _write_series(cfg["emit-series"], series, "n,distortion_at_e")
    if method != "radial":
        # after the series is written, where emit met a bad float before
        rows = _phi_rows(group, phi)
    return {"n": n, "r_eval": r_eval, "mode": mu.mode, "method": method,
            "values": rows}


def _phi_rows(group, phi: quasiharmonic.PhiTable) -> RowTexts:
    """The report rows of a phi table, in the order of the element texts.
    A row's error is texted before its value, the order in which json met
    a non-finite float in a dict row."""
    texts = {group.format_element(s): s for s in phi.values}
    return RowTexts([
        f'{{"element": {encode_basestring_ascii(text)}, "error": '
        f'{_value_text(phi.error_bars[s])}, "value": '
        f'{_value_text(phi.values[s])}}}'
        for text, s in sorted(texts.items())])


def _distortion_series(mu, norm_fn, n: int, threshold) -> List[tuple]:
    """(m, d_m(e) as a float) for m = 1..n, d_m(e) = sum_s phi_m(s) mu(s),
    from running sums of f_k over supp mu alone, over the k-th law's
    denominator (1 in float64, where f_0..f_{m-1} add in order, as
    ``phi_from_fk`` does); one Fraction per m in exact mode."""
    weights = list(mu.weights.values())
    sums, last, series = [0] * len(weights), 1, []
    rows = fk_numerators(mu, norm_fn, list(mu.weights), n - 1, threshold)
    for m, (nums, den, _) in enumerate(rows, start=1):
        sums = [a * (den // last) + c for a, c in zip(sums, nums)]
        last = den
        if mu.mode == MODE_EXACT:
            d_e = Fraction(sum(a * w for a, w in zip(sums, weights)),
                           den * m * mu.den)
        else:
            d_e = sum(a / m * w for a, w in zip(sums, weights))
        series.append((m, float(d_e)))
    return series


def _radial_rows(group: FreeGroup, n: int, r_eval: int) -> RowTexts:
    """The report rows of each element of the radius-r_eval ball, in the
    order of the element texts, with phi_n and its zero error as p/q text:
    phi_n of the exact simple random walk is constant on spheres, so each
    sphere's row tail is texted once and each row once.

    The words come texted in text order (``boundary.sorted_word_texts``),
    so no ball is built and nothing is sorted; the ball's element budget
    and MAX_RADIAL_STEPS (the report grows as r_eval^2 on free:1) bound
    r_eval, checked before any value is computed.
    """
    freewalk.check_cesaro_length(n)
    if r_eval < 0:
        raise DomainError("radius must be >= 0")
    k, size = group.k, 1
    for r in range(1, r_eval + 1):
        size += boundary.cylinder_count(k, r)
        if size > DEFAULT_MAX_ELEMENTS:
            raise ResourceLimitError(
                f"ball of {group.id_string} exceeded {DEFAULT_MAX_ELEMENTS} "
                f"elements; completed radius {r - 1}")
        if r > MAX_RADIAL_STEPS:
            raise ResourceLimitError(
                f"refusing radial phi at radius {r_eval}: past "
                f"MAX_RADIAL_STEPS = {MAX_RADIAL_STEPS}")
    radial = [fraction_text(v) for v in freewalk.radial_phi(k, n, r_eval)]
    # phi_n(e) = 0 = every error bar; one symbol a letter, so a word's
    # text is as long as its norm
    tails = [f'", "error": "{radial[0]}", "value": "{value}"}}'
             for value in radial]
    words = boundary.sorted_word_texts(k, r_eval)
    rows = ['{"element": "' + w + tails[len(w)] for w in words]
    identity = group.format_element(())
    rows.insert(bisect.bisect(words, identity),
                '{"element": "' + identity + tails[0])
    return RowTexts(rows)


def _run_cocycle(cfg: Dict[str, object]) -> dict:
    k = cfg["k"]
    group = FreeGroup(k)
    g = group.parse_element(cfg["g"])
    report = {"k": k, "g": group.format_element(g)}
    if cfg["cylinder"]:
        # the value is sigma on C_W, whose level is |W|
        w = group.parse_element(cfg["cylinder"])
        if not w:
            raise DomainError("cylinders are indexed by nonempty reduced "
                              "words")
        if cfg["level"] not in (0, len(w)):
            raise DomainError(f"--level {cfg['level']} is not the level "
                              f"{len(w)} of the cylinder {cfg['cylinder']}")
        expo = boundary.cocycle_exponent(k, g, w)
        report["level"] = len(w)
        report["exponent"] = expo
        report["value"] = Fraction(2 * k - 1) ** expo
    else:
        level = report["level"] = cfg["level"] or max(1, len(g))
        report["exponent_histogram"] = [
            {"exponent": e, "value": Fraction(2 * k - 1) ** e, "cylinders": c}
            for e, c in boundary.cocycle_histogram(k, g, level)]
    return report


def _run_poisson_norm(cfg: Dict[str, object]) -> dict:
    k = cfg["k"]
    group = FreeGroup(k)
    g = group.parse_element(cfg["g"])
    expo = boundary.poisson_seminorm_exponent(k, g)
    return {"k": k, "g": group.format_element(g), "exponent": expo,
            "log_factor": f"log({2 * k - 1})",
            "value": boundary.poisson_seminorm(k, g)}


def _run_c_seq(cfg: Dict[str, object]) -> dict:
    k = cfg["k"]
    coeffs = boundary.c_sequence(k, cfg["n-max"])
    log_q = math.log(2 * k - 1)
    additive = all(coeffs[i] == (i + 1) * coeffs[0]
                   for i in range(len(coeffs)))
    return {"k": k, "coefficients": coeffs,
            "log_factor": f"log({2 * k - 1})",
            "values": [float(c) * log_q for c in coeffs],
            "additive": additive}


def _run_span_rank(cfg: Dict[str, object]) -> dict:
    k, level = cfg["k"], cfg["level"]
    rank = boundary.span_rank(k, level, cfg["radius"])
    boundary.check_count_digits(k, level)   # the report prints the count
    cylinders = boundary.cylinder_count(k, level)
    return {"rank": rank, "full": rank == cylinders, "cylinders": cylinders}


def _run_stationary(cfg: Dict[str, object]) -> dict:
    space = _parse_space(cfg["space"])
    result = gspaces.solve_stationary(space, cfg["measure"])
    return {"size": space.size, "nu": list(result.nu),
            "residual": result.residual, "iterations": result.iterations,
            "orbits": result.orbit_decomposition}


def _solved_pair(cfg: Dict[str, object]) -> tuple:
    """(X, nu_X, Y, nu_Y): both spaces, each with its stationary measure."""
    space_x = _parse_space(cfg["space"])
    space_y = _parse_space(cfg["space2"])
    return (space_x, gspaces.solve_stationary(space_x, cfg["measure"]).nu,
            space_y, gspaces.solve_stationary(space_y, cfg["measure"]).nu)


def _run_ergodicity(cfg: Dict[str, object]) -> dict:
    result = gspaces.diagonal_ergodicity(*_solved_pair(cfg))
    report = {"ergodic": result.ergodic, "orbit_count": result.orbit_count}
    if result.witness is not None:
        report["witness"] = result.witness
    return report


def _run_factor(cfg: Dict[str, object]) -> dict:
    witness = gspaces.isometric_factor_witness(*_solved_pair(cfg))
    report = {"found": witness is not None}
    if witness is not None:
        report.update(dataclasses.asdict(witness))
    return report


def _selftest_checks() -> List[dict]:
    """The exact-identity battery (all residuals must be exactly zero)."""
    checks: List[dict] = []

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append({"name": name, "passed": bool(passed),
                       "detail": detail})

    rep = boundary.check_cocycle_identity_ball(2, 3, 8)
    add("cocycle-identity f2 ball3 level8", rep.violations == 0,
        f"{rep.cylinders_checked} cylinder checks")
    worst = max(boundary.check_cocycle_normalization(2, kp, kp + 2).violations
                for kp in (1, 2, 3))
    add("cocycle-normalization f2 k<=3", worst == 0)
    coeffs = boundary.c_sequence(2, 5)
    add("c-sequence additivity n<=5",
        all(coeffs[i] == (i + 1) * coeffs[0] for i in range(5))
        and coeffs[0] == Fraction(-1, 2), f"c1 coefficient {coeffs[0]}")
    group2 = FreeGroup(2)
    # the closed form |g| against the largest exponent over the level-5
    # cylinders, enumerated
    ball5 = list(build_ball(group2, 5).norms)
    tops = boundary._exponents(ball5, boundary._cylinder_array(2, 5)).max(0)
    add("poisson-seminorm = |g| log 3 on ball 5",
        all(boundary.poisson_seminorm_exponent(2, g) == top
            for g, top in zip(ball5, tops.tolist())))
    exponents = {g: boundary.poisson_seminorm_exponent(2, g)
                 for g in build_ball(group2, 3).norms}
    semi = check_value_seminorm(group2, exponents)
    add("poisson-seminorm axioms", semi.ok,
        f"{semi.pairs_checked} pairs")
    f_ind = boundary.CylinderFunction.indicator(2, (1,))
    add("harmonicity of Poisson integrals",
        boundary.check_harmonicity(f_ind, 2) == 0)
    add("boundary stationarity level 3",
        boundary.check_boundary_stationarity(2, 3) == 0)
    for gid in ("free:2", "zd:2"):
        grp = group_from_id(gid)
        mu = srw(grp)
        norm_fn = norm_evaluator(grp)
        tables = quasiharmonic.compute_fk_tables(mu, norm_fn, 5, 2)
        ok = True
        for kk in range(5):
            drep = quasiharmonic.check_diag_recursion(
                mu, tables[kk], tables[kk + 1],
                [s for s in tables[kk].values if norm_fn(s) <= 1])
            ok = ok and drep.max_residual == 0
        add(f"diag recursion k<=4 on {gid}", ok)
    add("span-rank level1", boundary.span_rank(2, 1, 1) == 4)
    add("span-rank level2", boundary.span_rank(2, 2, 2) == 12)
    zgroup = group_from_id("zd:1")
    mu_z = parse_measure_spec(zgroup, "1=2/3;-1=1/3")
    arep = drift.adjoint_drift_equality(mu_z, norm_evaluator(zgroup), 12)
    add("adjoint drift equality on z", arep.equal)
    return checks


def _run_selftest(cfg: Dict[str, object]) -> dict:
    checks = _selftest_checks()
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        sys.stderr.write(f"[{status}] {check['name']}"
                         + (f" ({check['detail']})" if check["detail"] else "")
                         + "\n")
    all_passed = all(c["passed"] for c in checks)
    return {"checks": checks, "all_passed": all_passed}


_RUNNERS = {
    "drift": _run_drift,
    "entropy": _run_entropy,
    "phi": _run_phi,
    "cocycle": _run_cocycle,
    "poisson-norm": _run_poisson_norm,
    "c-seq": _run_c_seq,
    "span-rank": _run_span_rank,
    "stationary": _run_stationary,
    "ergodicity": _run_ergodicity,
    "factor": _run_factor,
    "selftest": _run_selftest,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are DomainErrors, reported
    like any other bad input instead of by argparse's own exit."""

    def error(self, message: str):
        raise DomainError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """Every option as text (or None when absent); `resolve_config` types
    it."""
    parser = _Parser(
        prog="groupwalk",
        description="random walks on groups: exact identities, drift, "
                    "boundary cocycles, finite stationary spaces")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, options in _OPTIONS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="key=value config file (flags win)")
        for opt, (_typ, _default, help_text) in options.items():
            p.add_argument(f"--{opt}", dest=opt.replace("-", "_"),
                           default=None, help=help_text)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()         # built on the first run, then reused


def run(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        name = args.subcommand
        cfg = resolve_config(name, args)
        report = {"schema": SCHEMA, "subcommand": name, "config": cfg,
                  **_RUNNERS[name](cfg)}
        emit(report)
        if name == "selftest" and not report["all_passed"]:
            return 1
        return 0
    except ResourceLimitError as exc:
        emit_error("resource", str(exc))
        return 2
    except MemoryError as exc:       # an allocation past every budget
        emit_error("resource", str(exc) or "out of memory")
        return 2
    except (DomainError, PreconditionError) as exc:
        emit_error("precondition", str(exc))
        return 1
    except GroupwalkError as exc:
        emit_error("error", str(exc))
        return 1
    except OSError as exc:
        emit_error("io", str(exc))
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
