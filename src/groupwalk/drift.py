"""Drift and entropy of random walks: exact partial sums with certified
bounds, Monte Carlo estimates with confidence intervals, and the adjoint
drift equality.

The drift is the limit of a_n / n where a_n = sum_s rho(s) mu^{*n}(s); the
sequence (a_n) is subadditive, so every a_n / n is a certified upper bound
for the limit and min_n a_n / n only improves as n grows. Truncated
convolutions contribute at most deficit * n * max-generator-norm to a_n,
which is carried as an explicit error bar. The numerators of a_n come
from ``wordmetric.norm_sums``, the one place where their route is chosen.
The entropy H_n needs only the weights of mu^{*n}, so its chain runs on
an injective homomorphic image of the group (``_entropy_image``): ints on
``zd``, lamp bitmasks on the lamplighter, moved letters on free groups.
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
from .groups import FreeAbelian, FreeGroup, Group, Lamplighter
from .measures import (FiniteMeasure, adjoint, from_numerator, power_sequence,
                       shannon_entropy)
from .sampler import SamplerConfig, norm_statistics
from .wordmetric import _IntLine, norm_sums

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


@dataclass(frozen=True)
class _LampBits(Group):
    """The lamplighter with each lamp set packed into an int: an element
    is (mask, position), lamp u at bit u + off, with the offset chosen by
    ``_lamp_bits``. Only the entropy chain sees it."""

    @property
    def id_string(self) -> str:
        return "lamplighter"

    def identity(self):
        return (0, 0)

    def check_element(self, g) -> None:
        if not (isinstance(g, tuple) and len(g) == 2
                and isinstance(g[0], int) and g[0] >= 0
                and isinstance(g[1], int)):
            raise DomainError(f"not a lamp-bitmask element: {g!r}")

    def _mul(self, g, h):
        (lamps_g, p), (lamps_h, q) = g, h
        # a right shift drops no lamp: every reachable lamp sits at bit >= 0
        # (see _lamp_bits)
        return (lamps_g ^ (lamps_h << p if p >= 0 else lamps_h >> -p), p + q)


def _packed_zd(mu: FiniteMeasure, n_max: int) -> FiniteMeasure:
    """mu on zd:d with each element packed into one int, sum_i x_i B^i.

    With M = max(1, max |x_i| over the atoms), every coordinate of an
    element the walk reaches by n_max steps has |x_i| <= n_max M < B / 2
    for B = 2 n_max M + 1, and signed digits below B / 2 are unique: the
    map is injective on that box and a homomorphism into (Z, +)."""
    m = max(1, max((abs(x) for g in mu.weights for x in g), default=0))
    base = 2 * n_max * m + 1
    weights = {}
    for g, c in mu.weights.items():
        packed = 0
        for x in reversed(g):
            packed = packed * base + x
        weights[packed] = c
    return FiniteMeasure(group=_IntLine(mu.group.id_string),
                         weights=weights, den=mu.den, deficit=mu.deficit,
                         mode=mu.mode)


def _lamp_bits(mu: FiniteMeasure, n_max: int) -> FiniteMeasure:
    """mu on the lamplighter with each lamp set as a bitmask, lamp u at bit
    u + off, off = n_max M, M = max |position| and |lamp| over the atoms.

    The chain multiplies mu^{*(n-1)} by an atom of mu, whose lamps u
    (|u| <= M) move to u + p with |p| <= (n - 1) M, so every lamp the
    walk lights by n_max steps sits at bit u + p + off >= 0: no right
    shift of ``_LampBits._mul`` drops a lamp, and the map is injective."""
    m = max((abs(x) for lamps, p in mu.weights for x in (p, *lamps)),
            default=0)
    off = n_max * m
    weights = {(sum(1 << (u + off) for u in lamps), p): c
               for (lamps, p), c in mu.weights.items()}
    return FiniteMeasure(group=_LampBits(), weights=weights, den=mu.den,
                         deficit=mu.deficit, mode=mu.mode)


def _entropy_image(mu: FiniteMeasure, n_max: int) -> FiniteMeasure:
    """The measure whose chain ``entropy_partial`` runs: mu carried to an
    injective homomorphic image of its group on the elements the walk
    reaches by n_max steps. Products, dict insertion order, threshold drops
    and so the weights of every power are those of mu's own chain; only
    the elements are cheaper. Free groups move their letters apart
    (``freewalk._letters_apart``), ``zd`` packs into one int, the
    lamplighter's lamps become a bitmask, and heisenberg keeps its
    tuples."""
    group = mu.group
    if isinstance(group, FreeGroup):
        return freewalk._letters_apart(mu)
    if isinstance(group, FreeAbelian):
        return _packed_zd(mu, n_max)
    if isinstance(group, Lamplighter):
        return _lamp_bits(mu, n_max)
    return mu


def entropy_partial(mu: FiniteMeasure, n_max: int,
                    threshold=0) -> EntropyReport:
    """Shannon entropies H_n = H(mu^{*n}) and the rate estimate inf H_n/n.

    Exact-mode weights are evaluated in float only inside the log. With
    truncation, the entropy of the true law differs from the retained part
    by at most -d log d + d * n * log |supp mu| (d = deficit), reported as a
    crude error bar; the acceptance paths run untruncated where it is 0.
    The entropy needs only the weights, so the chain runs on the image of
    mu that ``_entropy_image`` chooses, with the same weights at each n.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    ns, hs, errs = [], [], []
    rate = math.inf
    supp = max(len(mu), 2)
    mu = _entropy_image(mu, n_max)
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
