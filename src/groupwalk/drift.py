"""Drift and entropy of random walks: exact partial sums with certified
bounds, Monte Carlo estimates with confidence intervals, and the adjoint
drift equality.

The drift is the limit of a_n / n where a_n = sum_s rho(s) mu^{*n}(s); the
sequence (a_n) is subadditive, so every a_n / n is a certified upper bound
for the limit and min_n a_n / n only improves as n grows. Truncated
convolutions contribute at most deficit * n * max-generator-norm to a_n,
which is carried as an explicit error bar. The numerators of a_n come
from ``wordmetric.norm_sums``, the one place where their route is chosen.
Monte Carlo estimates use the normal-approximation 95% confidence interval
(sample standard deviation); this is fixed, not configurable.

Nothing here asserts "drift = 0": zero drift is a limit statement invisible
at finite n, so Liouville examples are tested as decreasing trends plus a
threshold (see the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from . import freewalk
from .errors import DomainError
from .groups import FreeGroup
from .measures import (FiniteMeasure, adjoint, from_numerator, power_sequence,
                       shannon_entropy)
from .sampler import SamplerConfig, norm_statistics
from .wordmetric import norm_sums

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class ExactDriftReport:
    ns: List[int]
    a_values: List[object]          # exact Fraction (or float in float mode)
    error_bars: List[object]        # deficit-derived upper error on each a_n
    certified_bound: float          # min over n of (a_n + err_n) / n
    mode: str


@dataclass(frozen=True)
class MonteCarloDriftReport:
    checkpoints: List[int]
    means: List[float]              # mean of rho(X_n)/n per checkpoint
    ci_half_widths: List[Optional[float]]   # None from one trajectory
    trajectories: int
    seed: int
    norm_sums: List[int]            # integer aggregates (reproducibility)
    norm_sq_sums: List[int]


@dataclass(frozen=True)
class EntropyReport:
    ns: List[int]
    h_values: List[float]           # Shannon entropy of mu^{*n}, nats
    rate_estimate: float            # inf H_n / n over the computed range
    error_bars: List[float]


def max_generator_norm(mu: FiniteMeasure, norm_fn: Callable) -> int:
    return max(norm_fn(s) for s in mu.support())


def drift_exact_partial(mu: FiniteMeasure, norm_fn: Callable, n_max: int,
                        threshold=0) -> ExactDriftReport:
    """Exact a_n for n = 1..n_max and the Fekete-certified upper bound.

    Each a_n is the norm average over the retained atoms of mu^{*n}; the
    truncated mass can sit at norm up to n * max-generator-norm, giving the
    error bar deficit * n * g_max. ``wordmetric.norm_sums`` chooses the
    route to a_n; every route gives the same values.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    g_max = max_generator_norm(mu, norm_fn)
    ns, a_values, errors = [], [], []
    bound = math.inf
    for n, total, den, deficit in norm_sums(mu, norm_fn, n_max, threshold):
        a = from_numerator(total, den, mu.mode)
        err, top = deficit, a   # a zero deficit is its own error bar
        if deficit:
            err = deficit * n * g_max
            top = a + err
        ns.append(n)
        a_values.append(a)
        errors.append(err)
        bound = min(bound, float(top) / n)
    return ExactDriftReport(ns=ns, a_values=a_values, error_bars=errors,
                            certified_bound=bound, mode=mu.mode)


def drift_monte_carlo(mu: FiniteMeasure, config: SamplerConfig,
                      checkpoints: Optional[Sequence[int]] = None
                      ) -> MonteCarloDriftReport:
    """Mean and 95% CI of rho(X_n)/n at each checkpoint (norms by each
    group's closed form, on the sampler's arrays); one trajectory has no
    CI, given as None."""
    stats = norm_statistics(mu, config, checkpoints=checkpoints)
    cps = sorted(stats)
    means, cis, sums, sqs = [], [], [], []
    for cp in cps:
        count, s, s2 = stats[cp]
        mean = s / count / cp
        ci = None               # no interval from one trajectory
        if count > 1:
            var = (s2 - s * s / count) / (count - 1)
            ci = _Z95 * math.sqrt(max(var, 0.0) / count) / cp
        means.append(mean)
        cis.append(ci)
        sums.append(s)
        sqs.append(s2)
    return MonteCarloDriftReport(
        checkpoints=cps, means=means, ci_half_widths=cis,
        trajectories=config.trajectories, seed=config.seed,
        norm_sums=sums, norm_sq_sums=sqs)


@dataclass(frozen=True)
class AdjointDriftReport:
    ns: List[int]
    a_mu: List[object]
    a_adjoint: List[object]
    max_difference: object
    equal: bool


def adjoint_drift_equality(mu: FiniteMeasure, norm_fn: Callable,
                           n_max: int) -> AdjointDriftReport:
    """a_n(mu) vs a_n(mu-check), term by term.

    Equality holds exactly because rho(s) = rho(s^-1) and the n-step law of
    the adjoint walk is the inversion pushforward of the n-step law.
    """
    left = drift_exact_partial(mu, norm_fn, n_max)
    right = drift_exact_partial(adjoint(mu), norm_fn, n_max)
    diffs = [abs(a - b) for a, b in zip(left.a_values, right.a_values)]
    max_diff = max(diffs) if diffs else 0
    return AdjointDriftReport(ns=left.ns, a_mu=left.a_values,
                              a_adjoint=right.a_values,
                              max_difference=max_diff,
                              equal=(max_diff == 0))


def entropy_partial(mu: FiniteMeasure, n_max: int,
                    threshold=0) -> EntropyReport:
    """Shannon entropies H_n = H(mu^{*n}) and the rate estimate inf H_n/n.

    Exact-mode weights are evaluated in float only inside the log. With
    truncation, the entropy of the true law differs from the retained part
    by at most -d log d + d * n * log |supp mu| (d = deficit), reported as a
    crude error bar; the acceptance paths run untruncated where it is 0.
    On a free group the chain runs with letters moved apart
    (``freewalk._letters_apart``): the entropy needs only the weights.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    ns, hs, errs = [], [], []
    rate = math.inf
    supp = max(len(mu), 2)
    if isinstance(mu.group, FreeGroup):
        mu = freewalk._letters_apart(mu)
    for n, mun in power_sequence(mu, n_max, threshold=threshold):
        h = shannon_entropy(mun)
        d = float(mun.deficit)
        err = (-d * math.log(d) + d * n * math.log(supp)) if d > 0 else 0.0
        ns.append(n)
        hs.append(h)
        errs.append(err)
        rate = min(rate, h / n)
    return EntropyReport(ns=ns, h_values=hs, rate_estimate=rate,
                         error_bars=errs)
