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
It is constant on any cylinder of level >= |g|, so cylinders of sufficient
level stand in for the conull set on which the cocycle is classically
defined. Values are carried as integer exponents of (2k-1) wherever
additivity matters and only turned into logs at the reporting layer.

Closed forms read word lengths and common prefixes only: the Poisson
semi-norm exponent of g is |g|, the integral of its exponent depends on |g|
alone, the c sequence sums it against the radial law ``freewalk.path_counts``,
and m(g^-1 C_u) = m(C_u) W(p) / (2k-1)^|g| with one integer weight per common
prefix length p of g and u makes Poisson integrals O(|g|) sums over the
prefix sums of f; span ranks are cylinder counts
(the proof is in ``span_rank``; Bareiss elimination, ``exact_rank``, is
the reference the tests hold them to). The cocycle histogram counts the
cylinders on each common prefix with g, and the stationarity check
tallies the level-2 words, whose tallies every deeper cylinder shares.
These counted levels are bounded only by ``check_count_digits``. The
identity and normalization checks and the hitting-measure check enumerate
cylinders with ``_cylinder_array`` (the reduced words of a level as rows
of an int8 array, in lexicographic order, built by ``word_rows``), which
alone is bounded by ``MAX_ENUMERATION_LEVEL``; ``format_word_rows`` texts
such rows, and ``sorted_word_texts`` texts a ball's words in text order
without them. Exact checks are integer sums over one common denominator, and
a ``Fraction`` is only built for a reported value or residual.

Everything is exact-rational, and every entry takes the rank k and uses
the SRW of F_k (for any other nearest-neighbor measure the hitting
measure is not this simple). Validation happens once, at the public
entry, which checks each caller-supplied word (DomainError); inner loops
then use the unchecked ``FreeGroup._mul`` and array kernels on words valid
by construction (cylinders, ball elements).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from . import freewalk
from .errors import DomainError, OutOfRangeError, PreconditionError, \
    ResourceLimitError
from .groups import _SYMBOLS, FreeGroup
from .measures import power, srw
from .wordmetric import build_ball

MAX_ENUMERATION_LEVEL = 14  # 4*3^13 ~ 6.4M cylinders; beyond that, refuse


def _check_rank(k: int, *words: Tuple[int, ...]) -> None:
    """DomainError unless F_k is a free group of rank >= 2 and each word is
    one of its reduced words."""
    if k < 2:
        raise DomainError("boundary model needs free rank >= 2")
    group = FreeGroup(k)            # caps the rank
    for word in words:
        group.check_element(word)


def _level_mass(k: int, level: int) -> Fraction:
    return Fraction(1, 2 * k) * Fraction(1, 2 * k - 1) ** (level - 1)


def cylinder_count(k: int, level: int) -> int:
    if level < 1:
        raise DomainError("cylinder level must be >= 1")
    return 2 * k * (2 * k - 1) ** (level - 1)


def check_count_digits(k: int, level: int) -> None:
    """Refuse a level whose cylinder count has more digits than int prints
    (ResourceLimitError), before the count is built."""
    limit = sys.get_int_max_str_digits()
    # an int compares with a float exactly, however many digits it has
    if limit and level - 1 >= ((limit - math.log10(2 * k))
                               / math.log10(2 * k - 1)):
        raise ResourceLimitError(
            f"the cylinder count 2k(2k-1)^{level - 1} has more than "
            f"{limit} digits")


# at most as many rows as the deepest level F_2 may enumerate
MAX_CYLINDERS = cylinder_count(2, MAX_ENUMERATION_LEVEL)


def _check_level(k: int, level: int) -> None:
    _check_rank(k)
    # cylinder_count refuses a level below 1
    if level > MAX_ENUMERATION_LEVEL or cylinder_count(k, level) > MAX_CYLINDERS:
        raise ResourceLimitError(
            f"refusing to enumerate 2k(2k-1)^{level - 1} cylinders")


def word_rows(k: int, max_length: int) -> Iterator[np.ndarray]:
    """The reduced words of F_k of each length 1..max_length, as rows of an
    (N, length) int8 array in lexicographic order over the letters 1..k,
    -1..-k (unchecked, unbounded: callers keep their own budget).

    Built one letter at a time: every row is repeated once per letter, and
    the rows whose new letter cancels their last one are dropped, so the
    children of a row stay contiguous and in letter order.
    """
    letters = np.array([*range(1, k + 1), *range(-1, -k - 1, -1)],
                       dtype=np.int8)
    words = letters[:, None]
    for length in range(1, max_length + 1):
        if length > 1:
            rows = np.repeat(words, 2 * k, axis=0)
            new = np.tile(letters, len(words))
            keep = new != -rows[:, -1]
            words = np.column_stack((rows[keep], new[keep]))
        yield words


def _cylinder_array(k: int, level: int) -> np.ndarray:
    """All level-`level` reduced words as the rows of an (N, level) int8
    array, in ``word_rows`` order."""
    _check_level(k, level)
    for words in word_rows(k, level):
        pass                        # keep the last level's rows
    return words


_CODES = np.array([ord(c) if c else 0 for c in _SYMBOLS], dtype="<u4")


def format_word_rows(k: int, rows: np.ndarray) -> List[str]:
    """``FreeGroup(k).format_element`` of each row of an int8 array of
    reduced words padded with trailing 0s (unchecked).

    The rows index a table of code points, where a negative letter wraps
    to its capital as in ``_SYMBOLS``; the codes read as fixed-width text
    drop their trailing NULs, and empty rows read as the identity.
    """
    identity = FreeGroup(k).format_element(())
    width = rows.shape[1]
    if not width:
        return [identity] * len(rows)
    texts = _CODES[rows].view(f"<U{width}").ravel().tolist()
    for i in np.flatnonzero(rows[:, 0] == 0).tolist():
        texts[i] = identity
    return texts


def sorted_word_texts(k: int, max_length: int) -> List[str]:
    """``FreeGroup(k).format_element`` of every reduced word of length
    1..max_length, in text order (unchecked, unbounded: callers keep their
    own budget).

    Text order is a pre-order walk of the Cayley tree that visits each
    word's children in the order of their letters' symbols, the capitals
    first. The suffixes below a word depend only on its last letter and its
    length, so they are texted once per (letter, length), from the deepest
    length up, and a word's list is its children's lists joined.
    """
    if not max_length:
        return []
    letters = sorted([*range(1, k + 1), *range(-1, -k - 1, -1)],
                     key=_SYMBOLS.__getitem__)
    below = dict.fromkeys(letters, [""])    # suffixes below a deepest word
    for _ in range(max_length - 1):
        grown = {y: [_SYMBOLS[y] + t for t in below[y]] for y in letters}
        below = {x: [""] + list(chain.from_iterable(
            grown[y] for y in letters if y != -x)) for x in letters}
    return [_SYMBOLS[y] + t for y in letters for t in below[y]]


def cylinders(k: int, level: int) -> Iterator[Tuple[int, ...]]:
    """All level-`level` cylinders, i.e. reduced words of that length, in
    lexicographic order."""
    yield from map(tuple, _cylinder_array(k, level).tolist())


def _exponents(gs: Sequence[Sequence[int]], words: np.ndarray) -> np.ndarray:
    """E[i, j] = 2 p(gs[j], w_i) - |gs[j]| for each row w_i, p the common
    prefix length (unchecked; rows need at least max |g| letters).

    p is the sum over letter positions of the running AND of the matches
    (the cumprod of the match matrix), taken one position at a time. The
    words are padded with 0, which matches no letter, so a prefix never
    runs past the end of its word.
    """
    width = max(map(len, gs), default=0)
    padded = np.zeros((len(gs), width), dtype=words.dtype)
    for j, g in enumerate(gs):
        padded[j, :len(g)] = g
    alive = np.ones((len(words), len(gs)), dtype=bool)
    p = np.zeros((len(words), len(gs)), dtype=np.int64)
    for j in range(width):
        alive &= words[:, j, None] == padded[:, j]
        p += alive
    return 2 * p - np.array([len(g) for g in gs], dtype=np.int64)


def _exponent(g: Sequence[int], words: np.ndarray) -> np.ndarray:
    """2 p(g, w) - |g| for each row w."""
    return _exponents([g], words)[:, 0]


def _translate(s: Sequence[int], words: np.ndarray, width: int) -> np.ndarray:
    """First `width` letters of s^-1 w for each row w (unchecked; rows need
    at least |s| + width letters).

    The common prefix of s and w cancels: with p its length, s^-1 w is the
    reduced word inv(s[p:]) + w[p:].
    """
    n = len(s)
    p = (_exponent(s, words) + n) // 2
    out = np.empty((len(words), width), dtype=words.dtype)
    for j in range(n + 1):
        rows = p == j
        head = [-x for x in reversed(s[j:])][:width]
        out[rows, :len(head)] = head
        out[rows, len(head):] = words[rows, j:j + width - len(head)]
    return out


def _distinct_totals(tallies: np.ndarray, scale: Sequence[int]):
    """sum_j tallies[row, j] * scale[j] in Python ints, once per distinct
    row of the integer tally matrix; returns (totals, rows having each)."""
    patterns, counts = np.unique(tallies, axis=0, return_counts=True)
    totals = [sum(c * v for c, v in zip(row, scale))
              for row in patterns.tolist()]
    return totals, counts.tolist()


def _numerators(weights: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Integer numerators of `weights` over their least common denominator."""
    den = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (den // w.denominator) for w in weights], den


def cocycle_exponent(k: int, g: Tuple[int, ...], w: Tuple[int, ...]) -> int:
    """Exponent e with sigma(g, C_w) = (2k-1)^e; needs level(w) >= |g|."""
    _check_rank(k, g, w)
    if len(w) < len(g):
        raise OutOfRangeError(
            f"sigma({len(g)}-letter element) needs cylinders of level >= "
            f"{len(g)}, got {len(w)}", required=len(g))
    return int(_exponent(g, np.array([w[:len(g)]], dtype=np.int64))[0])


def cocycle_histogram(k: int, g: Tuple[int, ...],
                      level: int) -> List[Tuple[int, int]]:
    """(exponent, number of level cylinders) pairs of sigma(g, .), sorted by
    exponent; needs level >= |g|.

    A level-L cylinder C_w has exponent 2p - n, n = |g| and p the common
    prefix of g and w. With q = 2k-1 and n >= 1, q^L cylinders have p = 0
    (w[0] != g[0]), (q-1) q^(L-p-1) have 0 < p < n (w[p] is neither g[p]
    nor the inverse of g[p-1]) and q^(L-n) have p = n.
    """
    _check_rank(k, g)
    check_count_digits(k, level)
    total = cylinder_count(k, level)
    n = len(g)
    if level < n:
        raise OutOfRangeError(
            f"sigma({n}-letter element) needs cylinders of level >= "
            f"{n}, got {level}", required=n)
    if not g:
        return [(0, total)]
    q = 2 * k - 1
    counts = ([q ** level]
              + [(q - 1) * q ** (level - p - 1) for p in range(1, n)]
              + [q ** (level - n)])
    return [(2 * p - n, c) for p, c in enumerate(counts)]


# -- cocycle identities -------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    cylinders_checked: int
    max_residual: Fraction
    violations: int


def _identity_check(k: int, level: int, ss: Sequence[Tuple[int, ...]],
                    ts: Sequence[Tuple[int, ...]]) -> IdentityCheck:
    """sigma(st, C) = sigma(s, C) sigma(t, s^-1 C) for every pair of valid
    words s in ss, t in ts over all level-`level` cylinders C.

    sigma(g, C_w) with |g| <= L only depends on the first L letters of w, so
    every pair is checked on the cylinders of one effective level
    max|s| + max|t| <= level, each standing for its (2k-1)^(level -
    effective) extensions. Exponents are compared as integer arrays.
    """
    group = FreeGroup(k)
    q = 2 * k - 1
    width = max(map(len, ts))
    effective = max(1, max(map(len, ss)) + width)
    words = _cylinder_array(k, effective)
    multiplicity = q ** (level - effective)
    worst = Fraction(0)
    violations = 0
    for s in ss:
        lhs = _exponents([group._mul(s, t) for t in ts], words)
        rhs = (_exponent(s, words)[:, None]
               + _exponents(ts, _translate(s, words, width)))
        bad = lhs != rhs
        if not bad.any():
            continue
        violations += int(bad.sum()) * multiplicity
        for a, b in set(zip(lhs[bad].tolist(), rhs[bad].tolist())):
            worst = max(worst, abs(Fraction(q) ** a - Fraction(q) ** b))
    return IdentityCheck(
        cylinders_checked=len(ss) * len(ts) * cylinder_count(k, level),
        max_residual=worst, violations=violations)


def check_cocycle_identity_ball(k: int, radius: int,
                                level: int) -> IdentityCheck:
    """Aggregate identity check over every pair s, t in the radius ball
    (rank, radius and level are checked before the ball is built)."""
    _check_rank(k)
    check_count_digits(k, level)
    if radius < 0:
        raise DomainError("radius must be >= 0")
    if level < max(1, 2 * radius):
        # the first pair in ball order that is too deep needs level + 1
        need = max(1, level + 1)
        raise OutOfRangeError(
            f"identity check needs level >= max(1, |s|+|t|) = {need}",
            required=need)
    ball = list(build_ball(FreeGroup(k), radius).norms)
    return _identity_check(k, level, ball, ball)


def check_cocycle_normalization(k: int, k_power: int,
                                level: int) -> IdentityCheck:
    """Residual of sum_s sigma(s, C) mu^{*k_power}(s) = 1 over level
    cylinders (mu = SRW; same effective-level accounting as the identity
    check).

    With mu^{*k_power}(s) = a_s / D over one common denominator, the check
    is sum_s a_s (2k-1)^(e(s, C) + k_power) = D (2k-1)^k_power in integers;
    each cylinder is tallied by how much numerator lands on each exponent.
    """
    _check_rank(k)
    check_count_digits(k, level)
    if k_power < 1:
        raise DomainError("k_power must be >= 1")
    if level < k_power:
        raise OutOfRangeError(
            f"normalization at power {k_power} needs level >= {k_power}",
            required=k_power)
    mu_k = power(srw(FreeGroup(k)), k_power)
    den = mu_k.den
    words = _cylinder_array(k, k_power)
    multiplicity = (2 * k - 1) ** (level - k_power)
    # a row's tallies sum to D = (2k)^k_power < 2^63 (power's atom budget)
    tallies = np.zeros((len(words), 2 * k_power + 1), dtype=np.int64)
    rows = np.arange(len(words))
    for s, a in mu_k.weights.items():
        tallies[rows, _exponent(s, words) + k_power] += a
    q = 2 * k - 1
    target = den * q ** k_power
    totals, counts = _distinct_totals(
        tallies, [q ** j for j in range(2 * k_power + 1)])
    worst = Fraction(0)
    violations = 0
    for total, count in zip(totals, counts):
        if total != target:
            violations += count * multiplicity
            worst = max(worst, abs(Fraction(total, target) - 1))
    return IdentityCheck(cylinders_checked=cylinder_count(k, level),
                         max_residual=worst, violations=violations)


# -- Poisson semi-norm and the c sequence -------------------------------------

def poisson_seminorm_exponent(k: int, g: Tuple[int, ...]) -> int:
    """max of the sigma(g, .) exponent 2 p - |g|: |g|, where p = |g| (C_g)."""
    _check_rank(k, g)
    return len(g)


def poisson_seminorm(k: int, g: Tuple[int, ...]) -> float:
    """log of the essential supremum of sigma(g, .); equals the exponent
    times log(2k-1)."""
    return poisson_seminorm_exponent(k, g) * math.log(2 * k - 1)


def _log_cocycle_numerator(k: int, length: int) -> int:
    """N_L = 2k q^L int (2 p - L) dm for |g| = L, q = 2k-1 and p the common
    prefix of g and z: m(p >= i) = 1 / (2k q^(i-1)) for i = 1..L."""
    q = 2 * k - 1
    return (2 * q * (q ** length - 1) // (q - 1)
            - 2 * k * length * q ** length)


def c_sequence(k: int, n_max: int) -> List[Fraction]:
    """Coefficients q_n with c_n = q_n log(2k-1), n = 1..n_max: c_n
    integrates log sigma(s, .) against the n-step law of the adjoint walk,
    and c_n = n c_1 holds exactly (what tests assert).

    The adjoint of SRW is SRW and the integral of s depends on |s| alone:
    with q = 2k-1 and the path counts c_n[L] of ``freewalk.path_counts``,
    q_n is the Horner sum of c_n[L] N_L q^(n-L) over (2k)^(n+1) q^n.
    """
    _check_rank(k)
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    freewalk.check_radial_steps(n_max)
    q = 2 * k - 1
    numerators = [_log_cocycle_numerator(k, m) for m in range(n_max + 1)]
    rows = freewalk.path_counts(k, n_max)
    next(rows)                      # n = 0
    coeffs = []
    for n, counts in enumerate(rows, start=1):
        acc = 0
        for c, num in zip(counts, numerators):
            acc = q * acc + c * num
        coeffs.append(Fraction(acc, (2 * k) ** (n + 1) * q ** n))
    return coeffs


# -- Poisson integrals of cylinder functions ----------------------------------

@dataclass(frozen=True)
class CylinderFunction:
    """Function on the boundary depending on the first `level` letters."""
    k: int
    level: int
    values: Dict[Tuple[int, ...], Fraction]

    def __post_init__(self):
        _check_rank(self.k)
        group = FreeGroup(self.k)
        expected = cylinder_count(self.k, self.level)
        if len(self.values) != expected:
            raise DomainError(
                f"level-{self.level} function needs values on all "
                f"{expected} cylinders")
        for word, value in self.values.items():
            group.check_element(word)
            if len(word) != self.level:
                raise DomainError(f"not a level-{self.level} word: {word!r}")
            if not isinstance(value, (int, Fraction)):
                raise DomainError(
                    f"cylinder function values must be int or Fraction, "
                    f"got {value!r}")

    @classmethod
    def indicator(cls, k: int, word: Tuple[int, ...]) -> "CylinderFunction":
        FreeGroup(k).check_element(word)
        return cls(k, len(word),
                   {w: Fraction(1 if w == word else 0)
                    for w in cylinders(k, len(word))})


def _prefix_weights(k: int, n: int, level: int) -> List[int]:
    """W(p), p = 0..min(n, level): m(g^-1 C_u) = m(C_u) W(p) / q^n for
    |g| = n, |u| = level, q = 2k-1 and p the common prefix of g and u;
    sigma(g, .) = q^(2p - n) is constant on C_u unless u is a proper prefix
    of g, and past such a u each letter of z follows g with chance 1/q."""
    q = 2 * k - 1
    weights = [q ** (2 * p) for p in range(min(n, level) + 1)]
    if level < n:
        weights[level] = q ** (n + level - 1) * (q + 1) - q ** (2 * level - 1)
    return weights


def _prefix_sums(f: CylinderFunction) -> Tuple[Dict[tuple, int], int]:
    """S(v), the sum of f over the level cylinders that extend v, for every
    prefix v of length <= level, as integer numerators over the returned
    common denominator."""
    numerators, den = _numerators(list(f.values.values()))
    sums: Dict[tuple, int] = {}
    for u, a in zip(f.values, numerators):
        for i in range(f.level + 1):
            sums[u[:i]] = sums.get(u[:i], 0) + a
    return sums, den


def _poisson_sum(k: int, level: int, sums: Dict[tuple, int], den: int,
                 g: Tuple[int, ...]) -> Fraction:
    """P f(g) = m_level q^-n sum_{i <= min(n, level)} (W(i) - W(i-1))
    S(g[:i]) / den, W(-1) = 0, n = |g|: u has common prefix >= i with g
    exactly when it extends g[:i]. Prefixes missing from `sums` count 0."""
    total = previous = 0
    for i, weight in enumerate(_prefix_weights(k, len(g), level)):
        total += (weight - previous) * sums.get(g[:i], 0)
        previous = weight
    return Fraction(total, den * 2 * k * (2 * k - 1) ** (len(g) + level - 1))


def poisson_integral(f: CylinderFunction, g: Tuple[int, ...]) -> Fraction:
    """P_m f(g) = int f(g z) dm(z) = sum_u f(u) m(g^-1 C_u), exact, in
    O(|g|) from the prefix sums of f."""
    FreeGroup(f.k).check_element(g)
    sums, den = _prefix_sums(f)
    return _poisson_sum(f.k, f.level, sums, den, g)


def check_harmonicity(f: CylinderFunction, radius: int) -> Fraction:
    """max over the radius ball of |sum_s P_m f(gs) mu(s) - P_m f(g)|
    (mu = SRW; exactly 0: the hitting measure is stationary), with the
    prefix sums of f built once for all the Poisson sums."""
    group = FreeGroup(f.k)
    mu = srw(group)
    sums, den = _prefix_sums(f)
    worst = Fraction(0)
    for g in build_ball(group, radius).norms:
        lhs = sum(_poisson_sum(f.k, f.level, sums, den, group._mul(g, s)) * w
                  for s, w in mu.atoms.items())
        worst = max(worst, abs(lhs - _poisson_sum(f.k, f.level, sums, den, g)))
    return worst


def check_boundary_stationarity(k: int, level: int) -> Fraction:
    """max over level cylinders of |sum_s mu(s) m(s^-1 C) - m(C)|.

    Exact internal validation that the cylinder-mass formula really is the
    hitting measure of SRW (it must be the stationary measure of the walk).
    Translates of cylinders of level >= 2 by a generator are cylinders, of
    length depth - e(s, w), depth = max(level, 2); a level-1 cylinder is
    split into its level-2 extensions. Each cylinder is tallied by how much
    mu lands on each translated length, and the tallies are weighed with
    the mass formula over one common denominator. e(s, w) reads only w's
    first letter, so a cylinder of level >= 2 has the tallies of its
    level-2 prefix: only the level-2 words are tallied.
    """
    _check_rank(k)
    check_count_digits(k, level)
    prefixes = cylinder_count(k, min(level, 2))     # refuses level < 1
    mu = srw(FreeGroup(k))
    depth = max(level, 2)
    words = _cylinder_array(k, 2)
    # generators: translated lengths depth - e with e in {-1, 0, 1}
    tallies = np.zeros((len(words), 3), dtype=np.int64)
    rows = np.arange(len(words))
    for s, a in mu.weights.items():
        tallies[rows, 1 - _exponent(s, words)] += a
    tallies = tallies.reshape(prefixes, -1, 3).sum(axis=1)
    target = _level_mass(k, level)
    masses = [_level_mass(k, length) for length in (depth - 1, depth,
                                                    depth + 1)]
    scale, den = _numerators(masses + [target])
    totals, _ = _distinct_totals(tallies, scale[:3])
    return max((abs(Fraction(total, den * mu.den) - target)
                for total in totals), default=Fraction(0))


# -- span of the derivatives ---------------------------------------------------

def exact_rank(rows: List[List[Fraction]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    Each row (ints or Fractions) is scaled to integers by the lcm of its
    denominators. Bareiss keeps every entry an integer minor of the matrix,
    so the division by the previous pivot is exact and numbers stay the
    size of determinants.
    """
    matrix = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        matrix.append([x.numerator * (den // x.denominator) for x in row])
    if not matrix:
        return 0
    ncols = len(matrix[0])
    rank = 0
    previous = 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(matrix))
                      if matrix[i][col] != 0), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = matrix[rank]
        p = top[col]
        tail = top[col + 1:]
        for i in range(rank + 1, len(matrix)):
            row = matrix[i]
            a = row[col]
            row[col:] = [0] + [(p * x - a * y) // previous
                               for x, y in zip(row[col + 1:], tail)]
        previous = p
        rank += 1
        if rank == len(matrix):
            break
    return rank


def span_rank(k: int, level: int, radius: int) -> int:
    """Rank of the matrix of sigma(s, .) over level cylinders, s in the
    radius ball: 1 at radius 0, else the level-radius cylinder count. Full
    rank (radius = level) certifies finite-scale density of the
    translated-measure derivatives.

    sigma(s, C_w) for |s| <= r depends only on w's first r letters, so the
    rank is at most the level-r cylinder count (at r = 0, one all-ones
    row). Scaled by q^r (q = 2k-1), the rows of the radius-r sphere are
    q^(2p(s, w)), p the common prefix, and q^(2p) = sum_{i <= p} d_i with
    d_0 = 1, d_i = q^(2i) - q^(2i-2) > 0. So this square block is
    sum_{i <= r} d_i A_i, A_i[s, w] = [s[:i] = w[:i]]: each A_i is block
    diagonal with all-ones blocks (positive semidefinite) and A_r is the
    identity, so the block is positive definite (smallest eigenvalue
    q^(2r-2)(q^2-1)) and the bound is reached.
    """
    _check_rank(k)
    if radius > level:
        raise PreconditionError("span_rank needs radius <= level")
    if level < 1:
        raise DomainError("cylinder level must be >= 1")
    if radius < 0:
        raise DomainError("radius must be >= 0")
    if radius == 0:
        return 1
    check_count_digits(k, radius)
    return cylinder_count(k, radius)


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

    _check_level(k, level)          # before the sampling run
    counts = prefix_counts(srw(FreeGroup(k)), level, config)
    n = config.trajectories
    undefined = counts.pop("-", 0)
    freqs = {w_s: c / n for w_s, c in counts.items()}
    mass = float(_level_mass(k, level))
    tv = 0.0
    for text in format_word_rows(k, _cylinder_array(k, level)):
        tv += abs(freqs.get(text, 0.0) - mass)
    tv = 0.5 * (tv + undefined / n)
    return HittingMeasureReport(level=level, trajectories=n,
                                steps=config.steps, seed=config.seed,
                                tv_distance=tv, undefined=undefined,
                                frequencies=freqs)
