"""Exact radial computations for the simple random walk on a free group.

The word norm of SRW on F_k is a birth-death chain on the non-negative
integers: from m >= 1 it steps +1 with probability (2k-1)/(2k) and -1 with
probability 1/(2k); from 0 it steps to 1. Because the n-step law is invariant
under every automorphism of the Cayley tree fixing the identity, mu^{*n} is
uniform on each sphere, and several quantities that are hopeless to reach by
generic convolution (the support grows like 3^n) have exact rational radial
formulas:

* expected norms a_n = E|X_n|,
* the Cesaro averages phi_n of the one-step averages
  f_j(s) = sum_t (|st| - |t|) mu^{*j}(t), which are radial with
      f_j(r) = r - 2 * sum_{i=1}^{r} P(|X_j| >= i) * (2k-1)^{1-i} / (2k),
  since P(X_j extends a fixed reduced prefix of length i) =
  P(|X_j| >= i) * (2k-1)^{1-i} / (2k)  (uniformity on spheres).

The law is carried as integer path counts: c_n[m] is the number of the
(2k)^n generator paths of length n that end at norm m, and one step sends
c (2k-1) up and c down from m >= 1 and c 2k out of 0. Every exact value is
an integer sum over one common denominator, a power of 2k times a power of
2k-1; a ``Fraction`` is only built for a returned value. ``radial_phi``
reads the weighted counts below its radius and their total, a closed
form, so it carries only the band of each row that can still reach them.

``is_srw`` is the one test for that measure; the radial a_n route of
``wordmetric.norm_sums``, radial ``phi`` and the boundary model share it.

``_letters_apart`` serves the exact chains that run on the words
themselves. In CPython ``hash(-1) == hash(-2)``, so the letters A (-1) and
B (-2) share a hash, and so does every pair of words that differ only by
A <-> B: the 256 atoms of mu^{*8} for ``BA=5/6;BB=1/6`` all share one, and
each dict insert of the convolution probes a chain that long. Moving each
letter x to x + sign(x) leaves out -1, so every letter hashes apart. The
map is odd and injective, so ``FreeGroup._mul``'s cancellation test and
every product, word length, dict insertion order and float sum carry over
unchanged. The routes that need only weights, lengths or prefix masses
(``drift.entropy_partial``, the free-norm joint laws of
``wordmetric.norm_sums`` and ``wordmetric.fk_numerators``, the latter with
its points moved too, and the prefix route of f_k) run on the relabelled
copy, after the route is chosen on the original measure; the public words
never change.

These routines are an alternative route to the same numbers the convolution
pipeline produces; the two are cross-checked against each other (and against
brute-force path enumeration) in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, Optional

from .errors import DomainError, ResourceLimitError
from .groups import FreeGroup
from .measures import MODE_EXACT, FiniteMeasure

# longest walk of radial_phi and boundary.c_sequence: at n = 1000 on a 2-core
# x86-64 box c_sequence took 0.61 s (k = 2) to 3.3 s (k = 26)
MAX_RADIAL_STEPS = 1000


def _check_rank(k: int) -> None:
    if k < 1:
        raise DomainError("free rank must be >= 1")


def check_radial_steps(n: int) -> None:
    if n > MAX_RADIAL_STEPS:
        raise ResourceLimitError(f"refusing a {n}-step radial walk: past "
                                 f"MAX_RADIAL_STEPS = {MAX_RADIAL_STEPS}")


def check_cesaro_length(n: int) -> None:
    """Refuse a Cesaro length below 1 (DomainError) or past
    MAX_RADIAL_STEPS (ResourceLimitError)."""
    if n < 1:
        raise DomainError("Cesaro length must be >= 1")
    check_radial_steps(n)


def is_srw(mu: FiniteMeasure) -> bool:
    """True iff mu is the exact simple random walk on a free group: the
    same numerator, den / 2k, on each of the 2k generators, and no
    deficit. Reads the stored numerators; builds no Fraction."""
    group = mu.group
    if (not isinstance(group, FreeGroup) or mu.mode != MODE_EXACT
            or mu.deficit or len(mu.weights) != 2 * group.k):
        return False
    share, rest = divmod(mu.den, 2 * group.k)
    get = mu.weights.get
    return not rest and all(get(s) == share for s in group.generators())


def _apart(g: tuple) -> tuple:
    """The word g with each letter x moved to x + sign(x)."""
    return tuple([x + 1 if x > 0 else x - 1 for x in g])


def _letters_apart(mu: FiniteMeasure) -> FiniteMeasure:
    """mu on a free group with every letter moved by ``_apart``: the same
    numerators in the same order, on letters whose hashes differ. Its
    atoms are no longer elements of mu.group; only ``_mul`` may see them."""
    weights = {_apart(g): c for g, c in mu.weights.items()}
    return FiniteMeasure(group=mu.group, weights=weights, den=mu.den,
                         deficit=mu.deficit, mode=mu.mode)


def path_counts(k: int, n_max: int,
                stop: Optional[int] = None) -> Iterator[List[int]]:
    """c_n for n = 0..n_max: c_n[m] counts the (2k)^n paths of length n
    ending at norm m, m = 0..n (unchecked k).

    With ``stop``, row n keeps only m < stop - n: one step moves the norm
    by one, so a count past that cannot come back below stop - n_max by
    step n_max, and every kept count is exact.
    """
    q = 2 * k - 1
    row = [1][:stop]
    yield row
    for n in range(1, n_max + 1):
        pad = row + [0, 0, 0]
        row = [pad[1], 2 * k * pad[0] + pad[2]]
        row += [q * a + b for a, b in zip(pad[1:-3], pad[3:])]
        if stop is not None:
            del row[max(stop - n, 0):]
        yield row


def norm_distributions(k: int, n_max: int) -> List[List[Fraction]]:
    """dist[n][m] = P(|X_n| = m) for SRW on F_k, exact, n = 0..n_max."""
    _check_rank(k)
    return [[Fraction(c, (2 * k) ** n) for c in row]
            for n, row in enumerate(path_counts(k, n_max))]


def expected_norms(k: int, n_max: int) -> List[Fraction]:
    """a_n = E|X_n| for n = 0..n_max (exact)."""
    _check_rank(k)
    return [Fraction(sum(m * c for m, c in enumerate(row)), (2 * k) ** n)
            for n, row in enumerate(path_counts(k, n_max))]


def _radial_values(counts: List[int], total: int, den: int, q: int,
                   r_max: int) -> List[Fraction]:
    """r - 2 sum_{i=1}^{r} T_i q^(r-i) / (den q^(r-1)) for r = 0..r_max,
    with T_i = total - sum_{m < i} counts[m]; r = 0 gives 0. Reads
    counts[m] for m < r_max only (a missing one is 0)."""
    tail = total - (counts[0] if counts else 0)
    acc = 0
    out = [Fraction(0)]
    for r in range(1, r_max + 1):
        acc = q * acc + tail
        scale = den * q ** (r - 1)
        out.append(Fraction(r * scale - 2 * acc, scale))
        if r < len(counts):
            tail -= counts[r]
    return out


def radial_phi(k: int, n: int, r_max: int) -> List[Fraction]:
    """phi_n on spheres 0..r_max: the Cesaro average of f_0..f_{n-1}.

    Over the common denominator n (2k)^n (2k-1)^(r-1), the sum of the f_j
    numerators is the f formula applied to the weighted counts
    W = sum_j (2k)^(n-1-j) c_j, accumulated by Horner's rule along the path
    counts. The formula reads W[m] for m < r_max and the total, which is
    n (2k)^(n-1) since c_j sums to (2k)^j: the sum keeps r_max entries,
    and each row c_j only its band below r_max + n - 1 - j, the counts
    that can still reach W[:r_max] (``path_counts`` with ``stop``).
    """
    check_cesaro_length(n)
    _check_rank(k)
    two_k = 2 * k
    weighted: List[int] = [0] * r_max
    for row in path_counts(k, n - 1, stop=r_max + n - 1):
        head = [two_k * b + c for b, c in zip(weighted, row)]
        weighted = head + [two_k * b for b in weighted[len(head):]]
    return _radial_values(weighted, n * two_k ** (n - 1), n * two_k ** n,
                          2 * k - 1, r_max)
