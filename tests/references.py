"""Reference definitions that only the tests use: oracles, independent
routes and small checks that the tests hold the program to. Each one
guards a program path:

* ``cylinder_mass``, ``cocycle_value``, ``translated_cylinder_mass``,
  ``cocycle_mass_ratio``, ``require_srw`` and ``span_is_full`` guard the
  free-group boundary: ``cocycle``, ``poisson-norm``, ``c-seq``,
  ``span-rank`` and the identity, normalization and stationarity checks
  of ``selftest``;
* ``word_norm``, the BFS table lookup, is the oracle of the closed-form
  norms of ``norm_evaluator``, which ``drift`` and ``phi`` use;
* ``radial_fk``, ``radial_phi_full_rows`` and ``shannon_entropy`` are the
  radial oracles of ``freewalk.radial_phi`` (radial ``phi``) and of
  exact ``entropy`` on free groups (the 2d check);
* ``entropy_on_elements`` is ``entropy``'s report from the chain on the
  group's own elements, the oracle of the images that
  ``drift.entropy_partial`` runs on;
* ``compute_fk`` and ``phi_table_free_srw`` build quasi-harmonic tables,
  and ``check_quasi_harmonicity``, ``check_lipschitz`` and
  ``homomorphism_defect`` check the ``compute_phi`` tables of ``phi``
  (acceptance item 3);
* ``check_statinv`` checks the stationary measures of ``stationary``
  (``gspaces.solve_stationary``) against the harmonic-implies-invariant
  identity (acceptance item 4);
* ``sample_trajectory``, the checked reference walk, and
  ``empirical_endpoint_distribution`` with ``try_power`` and
  ``total_variation`` guard the sampler behind Monte Carlo ``drift`` and
  the boundary's hitting-measure check.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from groupwalk import boundary, freewalk, gspaces
from groupwalk.drift import EntropyReport
from groupwalk.errors import (DomainError, OutOfRangeError,
                              PreconditionError, ResourceLimitError)
from groupwalk.groups import FreeGroup, Group
from groupwalk.measures import (DEFAULT_MAX_ATOMS, FiniteMeasure, power,
                                power_sequence)
from groupwalk.measures import shannon_entropy as measure_entropy
from groupwalk.quasiharmonic import FkTable, PhiTable, compute_fk_tables
from groupwalk.sampler import SamplerConfig, atom_table, endpoint_counts
from groupwalk.wordmetric import BallTable, build_ball


# -- the free-group boundary --------------------------------------------------

def require_srw(mu: FiniteMeasure, k: int) -> None:
    """Reject measures other than uniform-on-generators: the boundary model
    is that of the simple random walk."""
    if mu.group != FreeGroup(k) or not freewalk.is_srw(mu):
        raise PreconditionError(
            "boundary computations are defined for the exact-mode SRW only")


def cylinder_mass(k: int, word: Tuple[int, ...]) -> Fraction:
    """m(C_w) for a nonempty reduced word w."""
    boundary._check_rank(k, word)
    if not word:
        raise DomainError("cylinders are indexed by nonempty reduced words")
    return boundary._level_mass(k, len(word))


def cocycle_value(k: int, g: Tuple[int, ...], w: Tuple[int, ...]) -> Fraction:
    """sigma(g, C_w) = (2k-1)^e from the exponent of ``cocycle_exponent``."""
    return Fraction(2 * k - 1) ** boundary.cocycle_exponent(k, g, w)


def translated_cylinder_mass(k: int, g: Tuple[int, ...],
                             w: Tuple[int, ...]) -> Fraction:
    """m(g^-1 C_w): the Poisson sum of the indicator of C_w, whose prefix
    sums are 1 on the prefixes of w (1 for the empty w)."""
    boundary._check_rank(k, g, w)
    if not w:
        return Fraction(1)
    return boundary._poisson_sum(
        k, len(w), {w[:i]: 1 for i in range(len(w) + 1)}, 1, g)


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


def span_is_full(k: int, level: int, radius: int) -> bool:
    boundary.span_rank(k, level, radius)    # its checks; the rank is the
    return radius == level                  # level's count iff radius = level


# -- word norms ---------------------------------------------------------------

def word_norm(table: BallTable, g) -> int:
    """Exact word norm from a ball table; OutOfRangeError beyond its radius."""
    try:
        return table.norms[g]
    except KeyError:
        raise OutOfRangeError(
            f"element outside ball of radius {table.radius}; rebuild with a "
            f"larger radius", required=table.radius + 1)


# -- quasi-harmonic tables and the radial law ---------------------------------


def compute_fk(mu: FiniteMeasure, norm_fn, k: int, r_eval: int,
               threshold=0) -> FkTable:
    return compute_fk_tables(mu, norm_fn, k, r_eval, threshold)[k]


def phi_table_free_srw(k_rank: int, n: int, r_eval: int) -> PhiTable:
    """Exact phi_n for SRW on F_k via the radial route (any n).

    Generic convolution is infeasible beyond small n on free groups; the
    radial birth-death computation gives the same exact rationals (the two
    routes are cross-checked in tests for small n).
    """
    radial = freewalk.radial_phi(k_rank, n, r_eval)
    values = {s: radial[len(s)]
              for s in build_ball(FreeGroup(k_rank), r_eval).norms}
    zero = radial[0] * 0
    return PhiTable(n=n, values=values,
                    error_bars={s: zero for s in values},
                    r_eval=r_eval, mode="exact")


def radial_phi_full_rows(k: int, n: int, r_max: int) -> List[Fraction]:
    """phi_n of SRW on F_k on spheres 0..r_max by Horner's rule over the
    full path-count rows: the weighted counts W = sum_j (2k)^(n-1-j) c_j at
    every norm 0..n-1, then r - 2 sum_{i=1}^{r} T_i q^(r-i) /
    (n (2k)^n q^(r-1)) with T_i = sum_{m >= i} W[m], accumulated in r."""
    weighted: List[int] = []
    for row in freewalk.path_counts(k, n - 1):
        weighted = [2 * k * b + c for b, c in zip(weighted + [0], row)]
    den, q = n * (2 * k) ** n, 2 * k - 1
    tail, acc = sum(weighted[1:]), 0
    out = [Fraction(0)]
    for r in range(1, r_max + 1):
        acc = q * acc + tail
        scale = den * q ** (r - 1)
        out.append(Fraction(r * scale - 2 * acc, scale))
        if r < len(weighted):
            tail -= weighted[r]
    return out


def radial_fk(k: int, steps: int, r_max: int) -> List[List[Fraction]]:
    """table[j][r] = f_j of SRW on F_k on the sphere of radius r, for j =
    0..steps-1.

    f_j(e) = 0 is included at r = 0. With P(|X_j| >= i) = T_i / (2k)^j,
    f_j(r) has the common denominator (2k)^(j+1) (2k-1)^(r-1).
    """
    freewalk._check_rank(k)
    q = 2 * k - 1
    rows = freewalk.path_counts(k, max(steps - 1, 0))
    return [freewalk._radial_values(row, (2 * k) ** j, (2 * k) ** (j + 1), q,
                                    r_max)
            for j, row in zip(range(steps), rows)]


def shannon_entropy(k: int, n: int) -> float:
    """H(mu^{*n}) in nats of SRW on F_k, via the exact radial law (uniform
    on spheres)."""
    freewalk._check_rank(k)
    for row in freewalk.path_counts(k, n):
        pass                      # keep the last row, c_n
    total = sum(row)              # (2k)^n paths
    h = 0.0
    for m, c in enumerate(row):
        p = c / total
        if p == 0.0:
            # c = 0, or p below the least float (from n = 2592 for k = 2):
            # its term rounds to 0 and log(p) would fail
            continue
        if m == 0:
            h -= p * math.log(p)
        else:
            sphere = 2 * k * (2 * k - 1) ** (m - 1)
            h -= p * (math.log(p) - math.log(sphere))
    return h


def entropy_on_elements(mu: FiniteMeasure, n_max: int, threshold=0,
                        max_atoms: int = DEFAULT_MAX_ATOMS) -> EntropyReport:
    """``entropy_partial``'s report, with the power chain run on mu's own
    elements (no image) under the atom budget `max_atoms`."""
    ns, hs, errs = [], [], []
    rate = math.inf
    supp = max(len(mu), 2)
    for n, mun in power_sequence(mu, n_max, threshold=threshold,
                                 max_atoms=max_atoms):
        h = measure_entropy(mun)
        d = float(mun.deficit)
        ns.append(n)
        hs.append(h)
        errs.append((-d * math.log(d) + d * n * math.log(supp)) if d > 0
                    else 0.0)
        rate = min(rate, h / n)
    return EntropyReport(ns=ns, h_values=hs, rate_estimate=rate,
                         error_bars=errs)


@dataclass(frozen=True)
class QuasiHarmonicReport:
    n: int
    distortions: Dict[object, object]   # d_n(g) per test point
    sup_distortion: object
    mean_identity_residual: object      # |sum_s phi_n(s) mu(s) - a_n / n|


def check_quasi_harmonicity(mu: FiniteMeasure, phi: PhiTable, a_n,
                            test_set: Iterable) -> QuasiHarmonicReport:
    """Distortion table d_n(g) and the exact telescoping identity.

    a_n is the exact partial drift sum at the same n and truncation as phi
    (from drift_exact_partial); in untruncated rational mode the identity
    residual is exactly 0.
    """
    group = mu.group
    steps = mu.atoms.items()
    dist = {}
    for g in test_set:
        try:
            d = sum(phi.values[group.mul(g, s)] * w
                    for s, w in steps) - phi.values[g]
        except KeyError as exc:
            raise OutOfRangeError(f"phi table does not cover {exc}")
        dist[g] = d
    mean_phi = sum(phi.values[s] * w for s, w in steps)
    residual = abs(mean_phi - a_n / phi.n)
    sup = max((abs(d) for d in dist.values()), default=0)
    return QuasiHarmonicReport(n=phi.n, distortions=dist, sup_distortion=sup,
                               mean_identity_residual=residual)


def check_lipschitz(phi: PhiTable, group: Group, norm_fn: Callable,
                    pairs: Iterable) -> object:
    """max over (g, s) of |phi(gs) - phi(s)| - rho(g); <= 0 means the left
    Lipschitz bound holds (up to the tables' error bars)."""
    worst = None
    for g, s in pairs:
        gs = group.mul(g, s)
        if gs not in phi.values or s not in phi.values:
            raise OutOfRangeError(f"phi table does not cover pair {(g, s)}")
        excess = (abs(phi.values[gs] - phi.values[s]) - norm_fn(g)
                  - phi.error_bars[gs] - phi.error_bars[s])
        if worst is None or excess > worst:
            worst = excess
    return worst


def homomorphism_defect(phi: PhiTable, group: Group,
                        pairs: Iterable) -> object:
    """max over (g, h) of |phi(gh) - phi(g) - phi(h)|.

    Tends to 0 along n for symmetric walks on abelian groups; no smallness
    holds in general (and none is asserted here).
    """
    worst = 0
    for g, h in pairs:
        gh = group.mul(g, h)
        try:
            defect = abs(phi.values[gh] - phi.values[g] - phi.values[h])
        except KeyError as exc:
            raise OutOfRangeError(f"phi table does not cover {exc}")
        if defect > worst:
            worst = defect
    return worst


# -- stationary G-spaces ------------------------------------------------------

@dataclass(frozen=True)
class StatInvReport:
    harmonic_residual: float
    identity_residuals: List[float]   # proof identity per k = 1..k_max
    vanishing: List[float]            # left side per k (should be ~0)
    invariance_defect: float          # max |f(s x) - f(x)| on positive mass
    is_invariant: bool


def _markov_operator(atoms, f: np.ndarray) -> np.ndarray:
    """(P f)(x) = sum_s mu(s) f(s x)."""
    out = np.zeros_like(f, dtype=float)
    for _, perm, w in atoms:
        out += w * f[np.array(perm)]
    return out


def _word_power_measures(atoms,
                         k_max: int) -> List[Dict[Tuple[int, ...], float]]:
    """Laws of the k-step word composition as measures on permutations."""
    out = []
    current = {tuple(range(len(atoms[0][1]))): 1.0}
    for _ in range(k_max):
        nxt: Dict[Tuple[int, ...], float] = {}
        for perm, w in current.items():
            for _, step, wt in atoms:
                composed = tuple(perm[p] for p in step)
                nxt[composed] = nxt.get(composed, 0.0) + w * wt
        current = nxt
        out.append(current)
    return out


def check_statinv(space: gspaces.FiniteGSpace, nu: np.ndarray, mu_spec,
                  f: np.ndarray, k_max: int = 4) -> StatInvReport:
    """Harmonic functions on a stationary space are invariant; checked via
    the expanding-the-square identity

        sum_s int (f(sx) - f(x))^2 dnu mu^{*k}(s)
            = 2 ( int f^2 dnu - int f (P^k f) dnu )

    for k <= k_max, followed by the vanishing of the left side and direct
    per-generator invariance on positive-mass atoms.
    """
    f, nu = gspaces._finite("f", f), gspaces._finite("nu", nu)
    atoms = gspaces.parse_word_measure(space, mu_spec)
    pf = _markov_operator(atoms, f)
    harmonic_residual = float(np.abs(pf - f).max())
    if harmonic_residual > gspaces.COMPOSED_TOL:
        raise PreconditionError(
            f"f is not harmonic: residual {harmonic_residual}")
    identity_residuals = []
    vanishing = []
    pkf = f.copy()
    for k, law in enumerate(_word_power_measures(atoms, k_max), start=1):
        pkf = _markov_operator(atoms, pkf)   # P^k f, iterated route
        lhs = 0.0
        for perm, w in law.items():
            diff = f[np.array(perm)] - f
            lhs += w * float(nu @ (diff * diff))
        rhs = 2.0 * float(nu @ (f * f) - nu @ (f * pkf))
        identity_residuals.append(abs(lhs - rhs))
        vanishing.append(abs(lhs))
    defect = gspaces._invariance_defect(f, nu > 0,
                                        map(np.array, space.gens.values()))
    return StatInvReport(harmonic_residual=harmonic_residual,
                         identity_residuals=identity_residuals,
                         vanishing=vanishing,
                         invariance_defect=defect,
                         is_invariant=defect <= gspaces.COMPOSED_TOL)


# -- the sampler --------------------------------------------------------------


def sample_trajectory(group: Group, mu: FiniteMeasure, steps: int,
                      rng: np.random.Generator) -> List:
    """Positions X_1..X_n of the walk with i.i.d. mu increments (X_0 = e),
    each double of ``rng`` mapped to an atom by ``searchsorted``."""
    elems, cdf = atom_table(mu)
    x = group.identity()
    out = []
    for i in np.searchsorted(cdf, rng.random(steps), side="right"):
        x = group.mul(x, elems[int(i)])
        out.append(x)
    return out


def try_power(mu: FiniteMeasure, n: int,
              atom_budget: int = 200_000) -> Optional[FiniteMeasure]:
    """Exact mu^{*n} when affordable, else None: past 64 steps, or when a
    law's support outgrows `atom_budget` atoms."""
    if n > 64:
        return None
    try:
        return power(mu, n, max_atoms=atom_budget)
    except ResourceLimitError:
        return None


def total_variation(mu: FiniteMeasure, nu: FiniteMeasure) -> float:
    """TV distance between the retained parts (evaluated in float)."""
    if mu.group != nu.group:
        raise DomainError("TV distance needs measures on one group")
    # c / den is one correctly rounded division, the same double as
    # float(Fraction(c, den)); a float weight over den = 1 is unchanged
    left = {g: c / mu.den for g, c in mu.weights.items()}
    right = {g: c / nu.den for g, c in nu.weights.items()}
    acc = 0.0
    for g in set(left) | set(right):
        acc += abs(left.get(g, 0.0) - right.get(g, 0.0))
    return 0.5 * acc


def empirical_endpoint_distribution(
        mu: FiniteMeasure, config: SamplerConfig
) -> Tuple[FiniteMeasure, Optional[float]]:
    """Empirical law of X_n from ``endpoint_counts``, plus TV distance to
    the exact mu^{*n} when the exact convolution is affordable
    (``try_power``'s budgets)."""
    counts = endpoint_counts(mu, config)
    group = mu.group
    n = config.trajectories
    weights = {group.parse_element(s): c / n for s, c in counts.items()}
    empirical = FiniteMeasure(group=group, weights=weights, den=1,
                              deficit=0.0, mode="float64")
    exact = try_power(mu, config.steps)
    tv = total_variation(empirical, exact) if exact is not None else None
    return empirical, tv
