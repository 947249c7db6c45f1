"""Result checks: canonical digests, recorded digests for the default seed,
and independent routes to the same numbers.

Every job result is reduced to a canonical JSON value (report without its
``config``, Fractions as ``p/q``, floats to 10 significant digits) and
hashed. On the default seed the digest must equal the one recorded in
``digests/<workload>.json``; on every seed the job-specific checks below
must hold:

* free:k SRW exact ``a_n`` equals ``freewalk.expected_norms``;
* radial ``phi`` equals convolution ``phi`` (twin jobs at small n);
* Monte Carlo twins at ``--workers 1`` and ``--workers 2`` give identical
  reports, integer aggregates included;
* every exact identity residual is exactly ``0``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
from collections import Counter
from fractions import Fraction
from typing import Callable, ContextManager, Dict, Optional

from workloads import Job

DEFAULT_SEED = 0
DIGEST_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "digests")
ZERO = "0/1"


def canonical(value):
    """JSON-safe canonical form of a report or library result."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float) or hasattr(value, "dtype"):
        if hasattr(value, "tolist"):
            value = value.tolist()
            if isinstance(value, list):
                return [canonical(v) for v in value]
            if isinstance(value, int):
                return value
        x = float(value)
        if math.isnan(x) or math.isinf(x):
            return repr(x)
        text = f"{x:.10g}"
        return "0" if text == "-0" else text
    if dataclasses.is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(canonical(k)): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Recorded digests by job key, or None when none exist for the seed."""
    path = os.path.join(DIGEST_DIR, f"{workload}.json")
    if seed != DEFAULT_SEED or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def parse_result(job: Job, code: int, out, err: str) -> dict:
    """The canonical result of one job; raises CheckError on a bad run."""
    if job.kind != "cli":
        return canonical(out)
    if code != 0:
        raise CheckError(f"exit code {code}: {err.strip()[:200]}")
    if err:
        raise CheckError(f"unexpected stderr: {err.strip()[:200]}")
    report = json.loads(out)
    if report.get("schema") != "groupwalk/1":
        raise CheckError("report without groupwalk/1 schema")
    report.pop("config")
    return canonical(report)


class CheckError(Exception):
    """A job's result is wrong."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _arg(job: Job, flag: str) -> str:
    return job.args[job.args.index(flag) + 1]


def _identity_string(group_id: str) -> str:
    if group_id.startswith("zd:"):
        return ",".join(["0"] * int(group_id[3:]))
    return {"lamplighter": "{}|0", "heisenberg": "0,0,0"}.get(group_id, "e")


def _check_drift_exact(job, r):
    ex = r["exact"]
    _require(len(ex["a_values"]) == int(_arg(job, "--n-max")),
             "wrong number of a_n")
    _require(all(e == ZERO for e in ex["error_bars"]),
             "untruncated exact drift has a nonzero error bar")


def _check_drift_free_srw(job, r):
    from groupwalk import freewalk

    _check_drift_exact(job, r)
    k = int(_arg(job, "--group")[5:])
    n = int(_arg(job, "--n-max"))
    expected = canonical(freewalk.expected_norms(k, n)[1:])
    _require(r["exact"]["a_values"] == expected,
             "convolution a_n differs from freewalk.expected_norms")


def _check_entropy(job, r):
    _require(len(r["h_values"]) == int(_arg(job, "--n-max")),
             "wrong number of entropies")
    _require(all(float(h) >= 0 for h in r["h_values"]), "negative entropy")
    if _arg(job, "--mode") == "exact":
        _require(all(float(e) == 0 for e in r["error_bars"]),
                 "untruncated entropy has a nonzero error bar")


def _check_phi(job, r):
    e = _identity_string(_arg(job, "--group"))
    at_e = [v["value"] for v in r["values"] if v["element"] == e]
    _require(at_e and at_e[0] in (ZERO, "0"), "phi_n(e) is not exactly 0")


def _check_c_seq(job, r):
    k = int(_arg(job, "--k"))
    _require(r["additive"] is True, "c_n = n c_1 fails")
    _require(r["coefficients"][0] == canonical(Fraction(1 - k, k)),
             "c_1 coefficient is not -(k-1)/k")


def _check_span_rank(job, r):
    _require(r["rank"] <= r["cylinders"], "rank exceeds cylinder count")
    if _arg(job, "--level") == _arg(job, "--radius"):
        _require(r["full"] is True, "span of derivatives is not full")


def _check_identity(job, r):
    _require(r["violations"] == 0 and r["max_residual"] == ZERO,
             "exact cocycle identity residual is not 0")


def _check_zero(job, r):
    _require(r == ZERO, f"exact residual {r} is not 0")


def _check_adjoint(job, r):
    _require(r["equal"] is True and r["max_difference"] == ZERO,
             "adjoint drift equality residual is not 0")


def _check_seminorm(job, r):
    _require(r["max_triangle_violation"] == 0
             and r["max_symmetry_violation"] == 0
             and r["norm_of_identity"] == 0, "word norm fails an axiom")


def _check_gspace(job, r):
    sub = r["subcommand"]
    if sub == "stationary":
        _require(float(r["residual"]) <= 1e-12, "stationary residual")
        _require(abs(sum(float(x) for x in r["nu"]) - 1) <= 1e-9,
                 "stationary measure mass")
    elif sub == "ergodicity":
        _require(r["ergodic"] == (r["orbit_count"] <= 1),
                 "ergodicity verdict contradicts the orbit count")
    elif r["found"]:
        _require(r["gram_preserved"] is True, "isometric factor not isometric")


def _check_mc(job, r):
    mc = r["monte_carlo"]
    _require(mc["trajectories"] == int(_arg(job, "--trajectories")),
             "trajectory count")
    _require(len(mc["means"]) == len(mc["checkpoints"])
             == len(mc["norm_sums"]), "checkpoint lists disagree")
    _require(all(isinstance(s, int) for s in mc["norm_sums"]),
             "norm sums are not integers")


def _check_hitting(job, r):
    n = r["trajectories"]
    mass = (sum(float(f) for f in r["frequencies"].values())
            + r["undefined"] / n)
    _require(abs(mass - 1) <= 1e-9, "prefix frequencies do not sum to 1")
    _require(0 <= float(r["tv_distance"]) <= 1, "TV distance out of range")


def _check_endpoints(job, r):
    _require(sum(r.values()) == dict(job.args)["trajectories"],
             "endpoint tallies do not sum to the trajectory count")


def _check_drift_float(job, r):
    ex = r["exact"]
    _require(all(float(e) >= 0 for e in ex["error_bars"]),
             "negative error bar")
    _require(math.isfinite(float(ex["certified_bound"])), "bound not finite")


CHECKS = {
    "drift_exact": _check_drift_exact, "drift_free_srw": _check_drift_free_srw,
    "entropy": _check_entropy, "phi": _check_phi, "c_seq": _check_c_seq,
    "span_rank": _check_span_rank, "identity": _check_identity,
    "zero": _check_zero, "adjoint": _check_adjoint,
    "seminorm": _check_seminorm, "gspace": _check_gspace, "mc": _check_mc,
    "hitting": _check_hitting, "endpoints": _check_endpoints,
    "drift_float": _check_drift_float,
}


def twin_projection(job: Job, result) -> str:
    """What twins must agree on: phi values across methods, or the whole
    Monte Carlo report across worker counts."""
    if job.check == "phi":
        result = {k: result[k] for k in ("n", "r_eval", "mode", "values")}
    return digest(result)


class Checker:
    """Checks results as they arrive; keeps only digests, not reports.

    `untraced` is entered around each check, so a tracer can keep the
    checks' own calls into the program out of its counts."""

    def __init__(self, recorded: Optional[Dict[str, str]],
                 untraced: Callable[[], ContextManager] =
                 contextlib.nullcontext):
        self.recorded = recorded
        self.untraced = untraced
        self.pending_twins: Dict[str, str] = {}
        self.errors: Counter = Counter()

    def check(self, job: Job, code: int, out, err: str) -> Optional[str]:
        """Digest of a correct result, or None (the reason is counted)."""
        with self.untraced():
            return self._check(job, code, out, err)

    def _check(self, job: Job, code: int, out, err: str) -> Optional[str]:
        try:
            result = parse_result(job, code, out, err)
            CHECKS[job.check](job, result)
            value = digest(result)
            if self.recorded is not None:
                _require(self.recorded.get(job.key) == value,
                         "digest differs from the recorded one")
            if job.twin:
                proj = twin_projection(job, result)
                first = self.pending_twins.pop(job.twin, None)
                if first is None:
                    self.pending_twins[job.twin] = proj
                else:
                    _require(first == proj, "twin jobs disagree")
            return value
        except (CheckError, ValueError, KeyError, TypeError,
                IndexError) as exc:
            self.errors[f"{job.check}: {exc}"] += 1
            return None
