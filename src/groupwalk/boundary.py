"""Exact model of the boundary of a free group under simple random walk.

The boundary of F_k is the space of infinite reduced words; the hitting
measure of SRW gives the cylinder over a reduced prefix w the mass

    m(C_w) = 1/(2k) * (1/(2k-1))^(|w|-1),

i.e. the first letter is uniform and each further letter is uniform over the
2k-1 non-backtracking continuations. That formula is the model definition
here and is validated two independent ways: exact stationarity of the
cylinder masses under the walk, and Monte Carlo prefix frequencies of long
sampled walks (the module's only statistical check).

The Radon-Nikodym cocycle of the translation action is

    sigma(g, z) = (2k-1)^(2 p(g, z) - |g|),

where p(g, z) is the length of the common prefix of g's reduced word and z.
It is constant on any cylinder of level >= |g|, so all computations happen
on finite cylinder tables; cylinders of sufficient level stand in for the
conull set on which the cocycle is classically defined. Values are carried
as integer exponents of (2k-1) wherever additivity matters and only turned
into logs at the reporting layer.

Everything in this module is exact-rational; only SRW is admitted (for any
other nearest-neighbor measure the hitting measure is not this simple, and
requests are rejected loudly).

Validation happens once, at the public entry, which checks each
caller-supplied word (DomainError); inner loops then use the unchecked
``FreeGroup._mul`` on words valid by construction (cylinders, ball elements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

from .errors import DomainError, OutOfRangeError, PreconditionError, \
    ResourceLimitError
from .groups import FreeGroup
from .measures import (MODE_EXACT, FiniteMeasure, adjoint, power_sequence,
                       srw)
from .wordmetric import build_ball

MAX_ENUMERATION_LEVEL = 14  # 4*3^13 ~ 6.4M cylinders; beyond that, refuse
MAX_SEMINORM_SCAN_LENGTH = 10


def _check_rank(k: int) -> None:
    if k < 2:
        raise DomainError("boundary model needs free rank >= 2")


def require_srw(mu: FiniteMeasure, k: int) -> None:
    """Reject measures other than uniform-on-generators (see module doc)."""
    group = FreeGroup(k)
    expected = srw(group).atoms
    if mu.group != group or mu.mode != MODE_EXACT or dict(mu.atoms) != dict(expected):
        raise PreconditionError(
            "boundary computations are defined for the exact-mode SRW only")


def _level_mass(k: int, level: int) -> Fraction:
    return Fraction(1, 2 * k) * Fraction(1, 2 * k - 1) ** (level - 1)


def cylinder_mass(k: int, word: Tuple[int, ...]) -> Fraction:
    """m(C_w) for a nonempty reduced word w."""
    _check_rank(k)
    if not word:
        raise DomainError("cylinders are indexed by nonempty reduced words")
    return _level_mass(k, len(word))


def cylinders(k: int, level: int) -> Iterator[Tuple[int, ...]]:
    """All level-`level` cylinders, i.e. reduced words of that length."""
    _check_rank(k)
    if level < 1:
        raise DomainError("cylinder level must be >= 1")
    if level > MAX_ENUMERATION_LEVEL:
        raise ResourceLimitError(
            f"refusing to enumerate 2k(2k-1)^{level - 1} cylinders")
    letters = [i for i in range(1, k + 1)] + [-i for i in range(1, k + 1)]
    word: List[int] = []

    def rec():
        if len(word) == level:
            yield tuple(word)
            return
        for x in letters:
            if word and word[-1] == -x:
                continue
            word.append(x)
            yield from rec()
            word.pop()

    yield from rec()


def cylinder_count(k: int, level: int) -> int:
    return 2 * k * (2 * k - 1) ** (level - 1)


def _exponent(g: Tuple[int, ...], w: Tuple[int, ...]) -> int:
    """2 p(g, w) - |g|, p the common prefix length (unchecked)."""
    p = 0
    for a, b in zip(g, w):
        if a != b:
            break
        p += 1
    return 2 * p - len(g)


def cocycle_exponent(k: int, g: Tuple[int, ...], w: Tuple[int, ...]) -> int:
    """Exponent e with sigma(g, C_w) = (2k-1)^e; needs level(w) >= |g|."""
    _check_rank(k)
    if len(w) < len(g):
        raise OutOfRangeError(
            f"sigma({len(g)}-letter element) needs cylinders of level >= "
            f"{len(g)}, got {len(w)}", required=len(g))
    return _exponent(g, w)


def cocycle_value(k: int, g: Tuple[int, ...], w: Tuple[int, ...]) -> Fraction:
    return Fraction(2 * k - 1) ** cocycle_exponent(k, g, w)


def cocycle_mass_ratio(k: int, g: Tuple[int, ...],
                       w: Tuple[int, ...]) -> Fraction:
    """sigma(g, C_w) as the cylinder ratio m(C_{g^-1 w}) / m(C_w).

    The ratio stabilizes once the translated word is nonempty; callers pass
    a deep enough w. This is the limit definition of the derivative and is
    the independent route against which the exponent formula is tested.
    """
    group = FreeGroup(k)
    group.check_element(w)
    translated = group._mul(group.inv(g), w)
    if not translated:
        raise OutOfRangeError("cylinder too shallow for the mass ratio",
                              required=len(g) + 1)
    return cylinder_mass(k, translated) / cylinder_mass(k, w)


def translated_cylinder_mass(k: int, g: Tuple[int, ...],
                             w: Tuple[int, ...]) -> Fraction:
    """m(g^-1 C_w), by deepening w until translation maps cylinders to
    cylinders (level > |g| suffices)."""
    group = FreeGroup(k)
    group.check_element(w)
    g_inv = group.inv(g)
    if len(w) > len(g):
        return cylinder_mass(k, group._mul(g_inv, w))
    return sum((cylinder_mass(k, group._mul(g_inv, ext))
                for ext in cylinders(k, len(g) + 1)
                if ext[:len(w)] == w), Fraction(0))


# -- cocycle identities -------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    cylinders_checked: int
    max_residual: Fraction
    violations: int


def check_cocycle_identity(k: int, s: Tuple[int, ...], t: Tuple[int, ...],
                           level: int) -> IdentityCheck:
    """Residual of sigma(st, C) = sigma(s, C) sigma(t, s^-1 C) over all
    level-`level` cylinders C.

    sigma(g, C_w) with |g| <= L only depends on the first L letters of w, so
    the check enumerates cylinders at the effective level |s| + |t| and
    accounts each for its (2k-1)^(level - effective) extensions; this is an
    exact evaluation of the full level-`level` check (the constancy it rests
    on is unit-tested separately by full enumeration at small levels).
    """
    _check_rank(k)
    group = FreeGroup(k)
    if level < max(1, len(s) + len(t)):
        raise OutOfRangeError(
            f"identity check needs level >= max(1, |s|+|t|) = "
            f"{max(1, len(s) + len(t))}", required=max(1, len(s) + len(t)))
    st = group.mul(s, t)          # validates s and t
    s_inv = group.inv(s)
    effective = max(1, min(level, len(s) + len(t)))
    multiplicity = (2 * k - 1) ** (level - effective)
    worst = Fraction(0)
    violations = 0
    checked = 0
    q = 2 * k - 1
    for w in cylinders(k, effective):
        e_st = _exponent(st, w)
        e_s = _exponent(s, w)
        e_t = _exponent(t, group._mul(s_inv, w))
        checked += multiplicity
        if e_st != e_s + e_t:
            violations += multiplicity
            res = abs(Fraction(q) ** e_st - Fraction(q) ** (e_s + e_t))
            if res > worst:
                worst = res
    return IdentityCheck(cylinders_checked=checked, max_residual=worst,
                         violations=violations)


def check_cocycle_identity_ball(k: int, radius: int,
                                level: int) -> IdentityCheck:
    """Aggregate identity check over every pair s, t in the radius ball."""
    ball = build_ball(FreeGroup(k), radius).norms
    total = 0
    worst = Fraction(0)
    violations = 0
    for s in ball:
        for t in ball:
            rep = check_cocycle_identity(k, s, t, level)
            total += rep.cylinders_checked
            violations += rep.violations
            if rep.max_residual > worst:
                worst = rep.max_residual
    return IdentityCheck(cylinders_checked=total, max_residual=worst,
                         violations=violations)


def check_cocycle_normalization(k: int, k_power: int,
                                level: int) -> IdentityCheck:
    """Residual of sum_s sigma(s, C) mu^{*k_power}(s) = 1 over level
    cylinders (mu = SRW; exact rationals; same effective-level accounting
    as the identity check)."""
    _check_rank(k)
    if k_power < 1:
        raise DomainError("k_power must be >= 1")
    if level < k_power:
        raise OutOfRangeError(
            f"normalization at power {k_power} needs level >= {k_power}",
            required=k_power)
    group = FreeGroup(k)
    mu_k = None
    for _, mun in power_sequence(srw(group), k_power):
        mu_k = mun
    atoms = list(mu_k.atoms.items())
    effective = max(1, min(level, k_power))
    multiplicity = (2 * k - 1) ** (level - effective)
    q = Fraction(2 * k - 1)
    worst = Fraction(0)
    violations = 0
    checked = 0
    for w in cylinders(k, effective):
        acc = Fraction(0)
        for s, wgt in atoms:
            acc += wgt * q ** _exponent(s, w)
        checked += multiplicity
        res = abs(acc - 1)
        if res != 0:
            violations += multiplicity
            if res > worst:
                worst = res
    return IdentityCheck(cylinders_checked=checked, max_residual=worst,
                         violations=violations)


# -- Poisson semi-norm and the c sequence -------------------------------------

def poisson_seminorm_exponent(k: int, g: Tuple[int, ...]) -> int:
    """max over deep cylinders of the sigma(g, .) exponent.

    Enumerates all level-|g| cylinders up to MAX_SEMINORM_SCAN_LENGTH
    letters; for longer elements the maximizing cylinder is the one
    extending g itself (any other word shares a shorter prefix), which is
    used directly.
    """
    _check_rank(k)
    if not g:
        return 0
    if len(g) <= MAX_SEMINORM_SCAN_LENGTH:
        return max(_exponent(g, w) for w in cylinders(k, len(g)))
    return len(g)


def poisson_seminorm(k: int, g: Tuple[int, ...]) -> float:
    """log of the essential supremum of sigma(g, .); equals the exponent
    times log(2k-1)."""
    return poisson_seminorm_exponent(k, g) * math.log(2 * k - 1)


def integral_log_cocycle(k: int, g: Tuple[int, ...]) -> Fraction:
    """Exact coefficient c with  int log sigma(g, z) dm(z) = c log(2k-1)."""
    _check_rank(k)
    if not g:
        return Fraction(0)
    return _level_mass(k, len(g)) * sum(_exponent(g, w)
                                        for w in cylinders(k, len(g)))


def c_sequence(k: int, n_max: int) -> List[Fraction]:
    """Coefficients q_n with c_n = q_n log(2k-1), for n = 1..n_max.

    c_n integrates log sigma(s, .) against the n-step law of the adjoint
    walk; additivity c_n = n c_1 holds exactly at the coefficient level and
    is what tests assert.
    """
    _check_rank(k)
    group = FreeGroup(k)
    mu_adj = adjoint(srw(group))
    coeffs = []
    cache: Dict[Tuple[int, ...], Fraction] = {}
    for _, mun in power_sequence(mu_adj, n_max):
        acc = Fraction(0)
        for s, w in mun.atoms.items():
            if s not in cache:
                cache[s] = integral_log_cocycle(k, s)
            acc += cache[s] * w
        coeffs.append(acc)
    return coeffs


# -- Poisson integrals of cylinder functions ----------------------------------

@dataclass(frozen=True)
class CylinderFunction:
    """Function on the boundary depending on the first `level` letters."""
    k: int
    level: int
    values: Dict[Tuple[int, ...], Fraction]

    def __post_init__(self):
        expected = cylinder_count(self.k, self.level)
        if len(self.values) != expected:
            raise DomainError(
                f"level-{self.level} function needs values on all "
                f"{expected} cylinders")

    @classmethod
    def constant(cls, k: int, level: int, value) -> "CylinderFunction":
        return cls(k, level, {w: Fraction(value)
                              for w in cylinders(k, level)})

    @classmethod
    def indicator(cls, k: int, word: Tuple[int, ...]) -> "CylinderFunction":
        return cls(k, len(word),
                   {w: Fraction(1 if w == word else 0)
                    for w in cylinders(k, len(word))})


def poisson_integral(f: CylinderFunction, g: Tuple[int, ...]) -> Fraction:
    """P_m f(g) = int f(g z) dm(z), exact.

    Decomposes the boundary into cylinders of level |g| + level(f); on each,
    g z lies in a single level(f) cylinder read off from the reduced product.
    """
    k = f.k
    group = FreeGroup(k)
    group.check_element(g)
    depth = len(g) + f.level
    if depth > MAX_ENUMERATION_LEVEL:
        raise ResourceLimitError(
            f"Poisson integral would enumerate level-{depth} cylinders")
    total = sum((f.values[group._mul(g, w)[:f.level]]
                 for w in cylinders(k, depth)), Fraction(0))
    return _level_mass(k, depth) * total


def check_harmonicity(f: CylinderFunction, radius: int) -> Fraction:
    """max over the radius ball of |sum_s P_m f(gs) mu(s) - P_m f(g)|
    (mu = SRW; exactly 0: the hitting measure is stationary)."""
    k = f.k
    group = FreeGroup(k)
    mu = srw(group)
    worst = Fraction(0)
    for g in build_ball(group, radius).norms:
        lhs = sum(poisson_integral(f, group._mul(g, s)) * w
                  for s, w in mu.atoms.items())
        res = abs(lhs - poisson_integral(f, g))
        if res > worst:
            worst = res
    return worst


def check_boundary_stationarity(k: int, level: int) -> Fraction:
    """max over level cylinders of |sum_s mu(s) m(s^-1 C) - m(C)|.

    Exact internal validation that the cylinder-mass formula really is the
    hitting measure of SRW (it must be the stationary measure of the walk).
    """
    group = FreeGroup(k)
    mu = srw(group)
    mass = _level_mass(k, level)
    worst = Fraction(0)
    for w in cylinders(k, level):
        acc = sum(wgt * translated_cylinder_mass(k, s, w)
                  for s, wgt in mu.atoms.items())
        res = abs(acc - mass)
        if res > worst:
            worst = res
    return worst


# -- span of the derivatives ---------------------------------------------------

def exact_rank(rows: List[List[Fraction]]) -> int:
    """Rank over the rationals by fraction-free-ish Gaussian elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows))
                      if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / pv
                rows[i] = [x - factor * y
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def span_rank(k: int, level: int, radius: int) -> int:
    """Rank of the matrix of sigma(s, .) over level cylinders, s in the
    radius ball. Full rank 2k(2k-1)^(level-1) certifies finite-scale density
    of the translated-measure derivatives."""
    _check_rank(k)
    if radius > level:
        raise PreconditionError("span_rank needs radius <= level")
    cyls = list(cylinders(k, level))
    q = Fraction(2 * k - 1)
    rows = [[q ** _exponent(s, w) for w in cyls]
            for s in build_ball(FreeGroup(k), radius).norms]
    return exact_rank(rows)


def span_is_full(k: int, level: int, radius: int) -> bool:
    return span_rank(k, level, radius) == cylinder_count(k, level)


# -- Monte Carlo validation of the hitting measure -----------------------------

@dataclass(frozen=True)
class HittingMeasureReport:
    level: int
    trajectories: int
    steps: int
    seed: int
    tv_distance: float
    undefined: int                 # endpoints shorter than the level
    frequencies: Dict[str, float]


def validate_hitting_measure(k: int, level: int, config) -> HittingMeasureReport:
    """Compare sampled endpoint-prefix frequencies to the cylinder masses.

    Long SRW trajectories have norm ~ steps/2, so the level-`level` prefix
    of the endpoint coincides with the limiting ray's prefix up to an
    exponentially small event; trajectories that end shorter than `level`
    are tallied separately and count toward the TV distance.
    """
    from .sampler import prefix_counts

    group = FreeGroup(k)
    mu = srw(group)
    counts = prefix_counts(mu, level, config)
    n = config.trajectories
    undefined = counts.pop("-", 0)
    freqs = {w_s: c / n for w_s, c in counts.items()}
    mass = float(_level_mass(k, level))
    tv = 0.0
    for w in cylinders(k, level):
        tv += abs(freqs.get(group.format_element(w), 0.0) - mass)
    tv = 0.5 * (tv + undefined / n)
    return HittingMeasureReport(level=level, trajectories=n,
                                steps=config.steps, seed=config.seed,
                                tv_distance=tv, undefined=undefined,
                                frequencies=freqs)
