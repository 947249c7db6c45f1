"""Quasi-harmonic tables: the one-step norm averages f_k, their Cesaro
averages phi_n, and the identities tying them to the drift.

    f_k(s)   = sum_t (rho(st) - rho(t)) mu^{*k}(t)
    phi_n(s) = (1/n) sum_{k<n} f_k(s)

Key exact identities (exactly zero in untruncated rational mode):

* recursion: sum_s f_k(gs) mu(s) = f_{k+1}(g) + sum_s f_k(s) mu(s),
  checked here by ``check_diag_recursion`` (``selftest`` runs it);
* telescoping: sum_s phi_n(s) mu(s) = a_n / n, the partial drift average;
* bounds: |f_k(s)| <= rho(s) (triangle inequality), and
  |phi_n(gs) - phi_n(s)| <= rho(g) for all g, s.

The test suite holds the tables to the last two, and to the trend of the
homomorphism defect, with the reference checks of ``tests/references.py``.
The distortion d_n(g) = sum_s phi_n(gs) mu(s) - phi_n(g) approaches the
drift; no subsequence is chosen here: the full sequence phi_n is computed
on a finite ball, and the CLI's ``--emit-series`` prints d_n(e) along n.

Per-entry truncation error: dropping mass d from mu^{*k} perturbs f_k(s) by
at most d * rho(s) (each dropped term is bounded by rho(s)); this is tighter
than the coarse d * (R_eval + k * max-generator-norm) bound and is the one
stored in the tables. The numerators of f_k come from
``wordmetric.fk_numerators``. f_k is linear in mu^{*k}, so exact
``compute_phi`` evaluates the Cesaro law sum_{k<n} mu^{*k} once
(``wordmetric.phi_numerators``); float64 averages f_0..f_{n-1} in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence

from .errors import DomainError, OutOfRangeError
from .groups import Group
from .measures import MODE_EXACT, FiniteMeasure, from_numerator
from .wordmetric import build_ball, fk_numerators, phi_numerators

@dataclass(frozen=True)
class FkTable:
    k: int
    values: Dict[object, object]
    error_bars: Dict[object, object]
    r_eval: int
    mode: str


@dataclass(frozen=True)
class PhiTable:
    n: int
    values: Dict[object, object]
    error_bars: Dict[object, object]
    r_eval: int
    mode: str


def _eval_points(group: Group, r_eval: int) -> List:
    return list(build_ball(group, r_eval).norms.keys())


def compute_fk_tables(mu: FiniteMeasure, norm_fn: Callable, k_max: int,
                      r_eval: int, threshold=0) -> List[FkTable]:
    """f_k on the ball of radius r_eval for k = 0..k_max (shared power chain).

    norm_fn must cover the ball shifted by supp mu^{*k}: the closed forms of
    ``norm_evaluator`` are total, and a lookup in a ball table raises
    OutOfRangeError outside it.
    Exact entries are summed on integer numerators (one Fraction each), by
    the route ``wordmetric.fk_numerators`` chooses; every route gives the
    same values. A zero deficit is its own error bar.
    """
    points = _eval_points(mu.group, r_eval)
    point_norms = None
    tables = []
    for k, (nums, den, deficit) in enumerate(
            fk_numerators(mu, norm_fn, points, k_max, threshold)):
        values = {s: from_numerator(c, den, mu.mode)
                  for s, c in zip(points, nums)}
        if deficit:
            point_norms = point_norms or [norm_fn(s) for s in points]
            errors = {s: deficit * r for s, r in zip(points, point_norms)}
        else:
            errors = dict.fromkeys(points, deficit)
        tables.append(FkTable(k=k, values=values, error_bars=errors,
                              r_eval=r_eval, mode=mu.mode))
    return tables


def phi_from_fk(tables: Sequence[FkTable], n: int) -> PhiTable:
    """Pointwise Cesaro average of f_0..f_{n-1}; phi_n(e) = 0 exactly."""
    if n < 1:
        raise DomainError("Cesaro length must be >= 1")
    if n > len(tables):
        raise DomainError("Cesaro length exceeds computed f_k range")
    head = tables[:n]
    values, errors = {}, {}
    for s in head[0].values:
        values[s] = sum(t.values[s] for t in head) / n
        errors[s] = sum(t.error_bars[s] for t in head) / n
    return PhiTable(n=n, values=values, error_bars=errors,
                    r_eval=head[0].r_eval, mode=head[0].mode)


def compute_phi(mu: FiniteMeasure, norm_fn: Callable, n: int, r_eval: int,
                threshold=0) -> PhiTable:
    """phi_n on the ball of radius r_eval, equal to ``phi_from_fk`` over
    ``compute_fk_tables`` (key order and types included). Exact mode
    builds one Fraction per point; float64 averages the tables."""
    if mu.mode != MODE_EXACT:
        return phi_from_fk(compute_fk_tables(mu, norm_fn, n - 1, r_eval,
                                             threshold), n)
    points = _eval_points(mu.group, r_eval)
    nums, den, deficit = phi_numerators(mu, norm_fn, points, n, threshold)
    values = {s: Fraction(c, n * den) for s, c in zip(points, nums)}
    if deficit:
        errors = {s: deficit * norm_fn(s) / n for s in points}
    else:
        errors = dict.fromkeys(points, deficit / n)
    return PhiTable(n=n, values=values, error_bars=errors, r_eval=r_eval,
                    mode=mu.mode)


@dataclass(frozen=True)
class DiagRecursionReport:
    k: int
    max_residual: object
    error_allowance: object
    points_checked: int


def check_diag_recursion(mu: FiniteMeasure, fk: FkTable, fk1: FkTable,
                         test_set: Iterable) -> DiagRecursionReport:
    """Residual of the one-step recursion on each test point.

    Exactly zero in untruncated rational mode; otherwise bounded by the
    tables' combined error bars.
    """
    if fk1.k != fk.k + 1:
        raise DomainError("need consecutive f_k tables")
    group = mu.group
    steps = mu.atoms.items()
    mean_fk = sum(fk.values[s] * w for s, w in steps)
    worst = 0
    allowance = 0
    count = 0
    for g in test_set:
        try:
            lhs = sum(fk.values[group.mul(g, s)] * w for s, w in steps)
            rhs = fk1.values[g] + mean_fk
            allow = (fk1.error_bars[g]
                     + sum(fk.error_bars[group.mul(g, s)] * w
                           for s, w in steps)
                     + sum(fk.error_bars[s] * w for s, w in steps))
        except KeyError as exc:
            raise OutOfRangeError(
                f"f_k tables do not cover {exc} (grow r_eval)")
        res = abs(lhs - rhs)
        if res > worst:
            worst = res
        if allow > allowance:
            allowance = allow
        count += 1
    return DiagRecursionReport(k=fk.k, max_residual=worst,
                               error_allowance=allowance,
                               points_checked=count)
