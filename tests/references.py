"""Reference definitions that only the tests use: independent routes and
small helpers that the tests check the library against.

* ``require_srw``, ``cocycle_mass_ratio`` and ``span_is_full`` for the
  free-group boundary;
* ``compute_fk`` and ``phi_table_free_srw`` for the quasi-harmonic tables,
  and ``radial_phi_full_rows``, the oracle of ``freewalk.radial_phi``;
* ``sample_trajectory``, the checked reference walk of the sampler.
"""

from fractions import Fraction
from typing import List, Tuple

import numpy as np

from groupwalk import boundary, freewalk
from groupwalk.errors import OutOfRangeError, PreconditionError
from groupwalk.groups import FreeGroup, Group
from groupwalk.measures import FiniteMeasure
from groupwalk.quasiharmonic import FkTable, PhiTable, compute_fk_tables
from groupwalk.sampler import atom_table
from groupwalk.wordmetric import build_ball


def require_srw(mu: FiniteMeasure, k: int) -> None:
    """Reject measures other than uniform-on-generators: the boundary model
    is that of the simple random walk."""
    if mu.group != FreeGroup(k) or not freewalk.is_srw(mu):
        raise PreconditionError(
            "boundary computations are defined for the exact-mode SRW only")


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
    return (boundary.cylinder_mass(k, translated)
            / boundary.cylinder_mass(k, w))


def span_is_full(k: int, level: int, radius: int) -> bool:
    boundary.span_rank(k, level, radius)    # its checks; the rank is the
    return radius == level                  # level's count iff radius = level


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
