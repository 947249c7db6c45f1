"""Command-line front-end: JSON reports on stdout, structured errors on
stderr, deterministic byte-for-byte output for a fixed (config, seed).

Subcommands: drift, entropy, phi, cocycle, poisson-norm, c-seq, span-rank,
stationary, ergodicity, factor, selftest. Exit codes: 0 success, 1 domain or
precondition error, 2 resource error.

A config file (plain key=value lines, keys as the long option names without
the leading dashes) can supply any option; explicit flags win. Unknown keys
are rejected. Every report embeds its fully resolved config.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from . import boundary, drift, freewalk, gspaces, quasiharmonic
from .errors import (DomainError, GroupwalkError, OutOfRangeError,
                     PreconditionError, ResourceLimitError)
from .groups import FreeGroup, group_from_id
from .measures import MODE_EXACT, parse_measure_spec, srw
from .sampler import SamplerConfig
from .wordmetric import build_ball, check_value_seminorm, norm_evaluator

SCHEMA = "groupwalk/1"


def jsonable(value):
    """Recursively convert report values to JSON-safe types (p/q strings)."""
    if isinstance(value, Fraction):
        try:
            return f"{value.numerator}/{value.denominator}"
        except ValueError:          # past int's digit limit for text
            raise ResourceLimitError(
                f"an exact value has more than "
                f"{sys.get_int_max_str_digits()} digits") from None
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def emit(report: dict) -> None:
    sys.stdout.write(json.dumps(jsonable(report), sort_keys=True) + "\n")


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
        "workers": (int, 1, "Monte Carlo worker processes"),
        "ball-radius": (int, 0, "norm ball radius (heisenberg only)"),
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
        "level": (int, 0, "cylinder level (default |g|)"),
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
    """Merge flag values over config-file values over defaults."""
    options = _OPTIONS[subcommand]
    file_values: Dict[str, str] = {}
    if getattr(args, "config", None):
        file_values = _parse_config_file(args.config)
        unknown = set(file_values) - set(options)
        if unknown:
            raise DomainError(
                f"unknown config keys for {subcommand}: {sorted(unknown)}")
    resolved: Dict[str, object] = {}
    for name, (typ, default, _help) in options.items():
        flag_value = getattr(args, name.replace("-", "_"))
        if flag_value is not None:
            resolved[name] = flag_value
        elif name in file_values:
            try:
                resolved[name] = typ(file_values[name])
            except ValueError:
                raise DomainError(
                    f"bad value {file_values[name]!r} for config key "
                    f"{name!r} (want {typ.__name__})") from None
        else:
            resolved[name] = default
        if resolved[name] is None:
            raise DomainError(f"missing required option --{name}")
    return resolved


def _parse_threshold(text: str, mode: str):
    """--truncation as a Fraction (p/q or integer) or a float; a nonzero
    float is rejected in exact mode."""
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
        if kind == "two-orbits":
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

def _run_drift(cfg: Dict[str, object]) -> dict:
    group = group_from_id(cfg["group"])
    mode = cfg["mode"]
    mu = parse_measure_spec(group, cfg["measure"], mode=mode)
    threshold = _parse_threshold(str(cfg["truncation"]), mode)
    ball_radius = int(cfg["ball-radius"]) or None
    heisenberg = group.id_string == "heisenberg"
    if heisenberg and ball_radius is None:
        raise PreconditionError("heisenberg drift needs --ball-radius")
    report: dict = {"schema": SCHEMA, "subcommand": "drift", "config": cfg}
    series = []
    if int(cfg["n-max"]) >= 1:
        # the Monte Carlo chunks build their own ball, so only this route
        # needs one here
        ball = build_ball(group, ball_radius) if heisenberg else None
        norm_fn = norm_evaluator(group, ball=ball)
        exact = drift.drift_exact_partial(mu, norm_fn, int(cfg["n-max"]),
                                          threshold=threshold)
        report["exact"] = {
            "ns": exact.ns,
            "a_values": exact.a_values,
            "error_bars": exact.error_bars,
            "certified_bound": exact.certified_bound,
            "mode": exact.mode,
        }
        series = [(n, float(a) / n)
                  for n, a in zip(exact.ns, exact.a_values)]
    if int(cfg["trajectories"]) >= 1:
        checkpoints = None
        if cfg["checkpoints"]:
            try:
                checkpoints = [int(x)
                               for x in str(cfg["checkpoints"]).split(",")]
            except ValueError:
                raise DomainError(
                    f"bad --checkpoints {cfg['checkpoints']!r} (want a comma "
                    f"list of steps)") from None
        config = SamplerConfig(seed=int(cfg["seed"]),
                               trajectories=int(cfg["trajectories"]),
                               steps=int(cfg["steps"]),
                               workers=int(cfg["workers"]))
        mc = drift.drift_monte_carlo(mu, config, checkpoints=checkpoints,
                                     ball_radius=ball_radius)
        report["monte_carlo"] = {
            "checkpoints": mc.checkpoints,
            "means": mc.means,
            "ci_half_widths": mc.ci_half_widths,
            "trajectories": mc.trajectories,
            "seed": mc.seed,
            "norm_sums": mc.norm_sums,
            "norm_sq_sums": mc.norm_sq_sums,
        }
    _write_series(str(cfg["emit-series"]), series, "n,a_n_over_n")
    return report


def _run_entropy(cfg: Dict[str, object]) -> dict:
    group = group_from_id(cfg["group"])
    mu = parse_measure_spec(group, cfg["measure"], mode=cfg["mode"])
    threshold = _parse_threshold(str(cfg["truncation"]), cfg["mode"])
    rep = drift.entropy_partial(mu, int(cfg["n-max"]), threshold=threshold)
    return {"schema": SCHEMA, "subcommand": "entropy", "config": cfg,
            "ns": rep.ns, "h_values": rep.h_values,
            "rate_estimate": rep.rate_estimate,
            "error_bars": rep.error_bars}


def _run_phi(cfg: Dict[str, object]) -> dict:
    method = cfg["method"]
    if method not in ("auto", "convolution", "radial"):
        raise DomainError(f"unknown phi method {method!r}: use auto, "
                          f"convolution or radial")
    group = group_from_id(cfg["group"])
    mode = cfg["mode"]
    mu = parse_measure_spec(group, cfg["measure"], mode=mode)
    threshold = _parse_threshold(str(cfg["truncation"]), mode)
    n = int(cfg["n"])
    r_eval = int(cfg["r-eval"])
    if method != "convolution":
        # the radial route computes the exact simple random walk's phi
        is_free_srw = (isinstance(group, FreeGroup)
                       and mode == MODE_EXACT
                       and mu.atoms == srw(group).atoms)
        if method == "auto":
            method = "radial" if is_free_srw else "convolution"
        elif not is_free_srw:
            raise PreconditionError(
                "radial phi needs the exact simple random walk on a free "
                "group (--mode exact, --measure srw); use --method "
                "convolution")
    series: List[tuple] = []
    if method == "radial":
        phi = quasiharmonic.phi_table_free_srw(group.k, n, r_eval)
        if cfg["emit-series"]:
            a_vals = freewalk.expected_norms(group.k, n)
            series = [(m, float(a_vals[m]) / m) for m in range(1, n + 1)]
    else:
        ball = None
        if group.id_string == "heisenberg":
            ball = build_ball(group, r_eval + n)
        norm_fn = norm_evaluator(group, ball=ball)
        tables = quasiharmonic.compute_fk_tables(mu, norm_fn, n - 1, r_eval,
                                                 threshold=threshold)
        phi = quasiharmonic.phi_from_fk(tables, n)
        if cfg["emit-series"]:
            # running sums of f_k over supp mu, in phi_from_fk's order
            atoms = mu.atoms
            sums = {s: 0 for s in atoms}
            if any(s not in phi.values for s in sums):
                raise OutOfRangeError(
                    "the distortion series needs supp mu inside the "
                    "--r-eval ball")
            for m, table in enumerate(tables[:n], start=1):
                for s in sums:
                    sums[s] += table.values[s]
                d_e = sum(sums[s] / m * w for s, w in atoms.items())
                series.append((m, float(d_e)))
    entries = sorted(
        (group.format_element(s), v, phi.error_bars[s])
        for s, v in phi.values.items())
    _write_series(str(cfg["emit-series"]), series, "n,distortion_at_e")
    return {"schema": SCHEMA, "subcommand": "phi", "config": cfg,
            "n": phi.n, "r_eval": phi.r_eval, "mode": phi.mode,
            "method": method,
            "values": [{"element": e, "value": v, "error": err}
                       for e, v, err in entries]}


def _run_cocycle(cfg: Dict[str, object]) -> dict:
    k = int(cfg["k"])
    group = FreeGroup(k)
    g = group.parse_element(str(cfg["g"]))
    level = int(cfg["level"]) or max(1, len(g))
    report = {"schema": SCHEMA, "subcommand": "cocycle", "config": cfg,
              "k": k, "g": group.format_element(g), "level": level}
    if cfg["cylinder"]:
        w = group.parse_element(str(cfg["cylinder"]))
        expo = boundary.cocycle_exponent(k, g, w)
        report["exponent"] = expo
        report["value"] = Fraction(2 * k - 1) ** expo
    else:
        report["exponent_histogram"] = [
            {"exponent": e, "value": Fraction(2 * k - 1) ** e, "cylinders": c}
            for e, c in boundary.cocycle_histogram(k, g, level)]
    return report


def _run_poisson_norm(cfg: Dict[str, object]) -> dict:
    k = int(cfg["k"])
    group = FreeGroup(k)
    g = group.parse_element(str(cfg["g"]))
    expo = boundary.poisson_seminorm_exponent(k, g)
    return {"schema": SCHEMA, "subcommand": "poisson-norm", "config": cfg,
            "k": k, "g": group.format_element(g), "exponent": expo,
            "log_factor": f"log({2 * k - 1})",
            "value": boundary.poisson_seminorm(k, g)}


def _run_c_seq(cfg: Dict[str, object]) -> dict:
    k = int(cfg["k"])
    coeffs = boundary.c_sequence(k, int(cfg["n-max"]))
    import math as _math
    log_q = _math.log(2 * k - 1)
    additive = all(coeffs[i] == (i + 1) * coeffs[0]
                   for i in range(len(coeffs)))
    return {"schema": SCHEMA, "subcommand": "c-seq", "config": cfg, "k": k,
            "coefficients": coeffs,
            "log_factor": f"log({2 * k - 1})",
            "values": [float(c) * log_q for c in coeffs],
            "additive": additive}


def _run_span_rank(cfg: Dict[str, object]) -> dict:
    k = int(cfg["k"])
    level = int(cfg["level"])
    radius = int(cfg["radius"])
    rank = boundary.span_rank(k, level, radius)
    return {"schema": SCHEMA, "subcommand": "span-rank", "config": cfg,
            "rank": rank, "full": rank == boundary.cylinder_count(k, level),
            "cylinders": boundary.cylinder_count(k, level)}


def _run_stationary(cfg: Dict[str, object]) -> dict:
    space = _parse_space(str(cfg["space"]))
    result = gspaces.solve_stationary(space, cfg["measure"])
    return {"schema": SCHEMA, "subcommand": "stationary", "config": cfg,
            "size": space.size, "nu": list(result.nu),
            "residual": result.residual, "iterations": result.iterations,
            "orbits": result.orbit_decomposition}


def _run_ergodicity(cfg: Dict[str, object]) -> dict:
    space_x = _parse_space(str(cfg["space"]))
    space_y = _parse_space(str(cfg["space2"]))
    nu_x = gspaces.solve_stationary(space_x, cfg["measure"]).nu
    nu_y = gspaces.solve_stationary(space_y, cfg["measure"]).nu
    result = gspaces.diagonal_ergodicity(space_x, nu_x, space_y, nu_y)
    report = {"schema": SCHEMA, "subcommand": "ergodicity", "config": cfg,
              "ergodic": result.ergodic, "orbit_count": result.orbit_count}
    if result.witness is not None:
        report["witness"] = result.witness
    return report


def _run_factor(cfg: Dict[str, object]) -> dict:
    space_x = _parse_space(str(cfg["space"]))
    space_y = _parse_space(str(cfg["space2"]))
    nu_x = gspaces.solve_stationary(space_x, cfg["measure"]).nu
    nu_y = gspaces.solve_stationary(space_y, cfg["measure"]).nu
    witness = gspaces.isometric_factor_witness(space_x, nu_x, space_y, nu_y)
    report = {"schema": SCHEMA, "subcommand": "factor", "config": cfg,
              "found": witness is not None}
    if witness is not None:
        report.update({
            "vectors": witness.vectors,
            "weights": witness.weights,
            "actions": witness.actions,
            "gram": witness.gram,
            "gram_preserved": witness.gram_preserved,
        })
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
    add("poisson-seminorm = |g| log 3 on ball 5",
        all(boundary.poisson_seminorm_exponent(2, g) == len(g)
            for g in build_ball(group2, 5).norms))
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
    return {"schema": SCHEMA, "subcommand": "selftest", "config": cfg,
            "checks": checks, "all_passed": all_passed}


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupwalk",
        description="random walks on groups: exact identities, drift, "
                    "boundary cocycles, finite stationary spaces")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, options in _OPTIONS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="key=value config file (flags win)")
        for opt, (typ, _default, help_text) in options.items():
            p.add_argument(f"--{opt}", dest=opt.replace("-", "_"),
                           type=typ, default=None, help=help_text)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()         # built on the first run, then reused


def run(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    sub = args.subcommand
    try:
        cfg = resolve_config(sub, args)
        report = _RUNNERS[sub](cfg)
        emit(report)
        if sub == "selftest" and not report["all_passed"]:
            return 1
        return 0
    except ResourceLimitError as exc:
        emit_error("resource", str(exc))
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
