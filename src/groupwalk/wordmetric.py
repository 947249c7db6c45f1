"""Word norms from Cayley-graph BFS, ball tables, semi-norm checks, and
the exact norm laws a_n and f_k.

A BallTable holds every element of word norm <= R together with its exact
norm, found by BFS. Every group has a closed-form evaluator
(``norm_evaluator``) that agrees with BFS everywhere both are defined; this
agreement is itself under test, and the semi-norm checks read BFS norms
(``check_value_seminorm(table.group, table.norms)``), so they stay
independent of it. A norm function that fails outside its table raises
OutOfRangeError, which the exact laws pass on with the step they reached.

Validation happens once, at the edge: ``build_ball`` multiplies valid
elements with the unchecked ``Group._mul``; ``check_value_seminorm`` checks
every key through the checked ``Group.inv`` before its unchecked pair loop.

The exact laws built on these norms have their entries here:
``norm_sums`` for the numerators of a_n, and ``fk_numerators`` and
``phi_numerators`` for those of f_k and of n phi_n. ``norm_sums`` and
``_fk_route`` are the one place where each law chooses its route. An f_k
route is a chain of laws and one evaluator of a law at a list of points;
f_k is linear in the law, so ``fk_numerators`` evaluates each mu^{*k} and
``phi_numerators`` evaluates their sum G_n = sum_{k<n} mu^{*k} once. The
L1 norm of ``zd`` is a sum over coordinates, so a_n and f_k need only the
d one-dimensional marginal laws, which live on a bare integer line
(elements plain ints, product ``operator.add``); on a free group |st| -
|t| = |s| - 2 (common prefix of s^-1 and t), so f_k needs only the prefix
masses of mu^{*k}, while a_n of the simple random walk needs only its
radial law (``freewalk.expected_norms``). a_n of any other exact
free-group measure needs only the length of each word of mu^{*n}, and the
steps after step n read no deeper into a word than the letters they can
cancel: the tail route lumps the law after n steps into (length, last
L (n_max - n) letters) states, L the longest atom, in the one convolution
engine (``_tail_norm_sums``). Every other norm, float64 mode and
truncated a_n take the loops over the atoms of the joint law. Under the free
norm, the tail states, the joint laws of a_n and f_k and the prefix masses
of f_k run on a copy of mu whose letters are moved apart
(``freewalk._letters_apart``): in CPython the letters A and B share a
hash, and so would whole supports of mu^{*n}. Lengths, prefix masses,
insertion order and float sums are those of the original words.
"""

from __future__ import annotations

import inspect
from collections import Counter
from dataclasses import dataclass, replace
from math import gcd, isqrt
from operator import add
from typing import Callable, Dict, Iterator, List, Optional

from . import freewalk
from .errors import DomainError, OutOfRangeError, ResourceLimitError
from .groups import FreeAbelian, FreeGroup, Group, Heisenberg, Lamplighter
from .measures import (DEFAULT_MAX_ATOMS, MODE_EXACT, FiniteMeasure,
                       convolve, dirac, power_sequence)

DEFAULT_MAX_ELEMENTS = 2_000_000


@dataclass(frozen=True)
class BallTable:
    group: Group
    radius: int
    norms: Dict[object, int]

    def __len__(self) -> int:
        return len(self.norms)


def build_ball(group: Group, radius: int,
               max_elements: int = DEFAULT_MAX_ELEMENTS) -> BallTable:
    """BFS ball of the given radius over the standard generators.

    The table content is a pure function of (group, radius); traversal order
    never leaks into it. Exceeding max_elements raises ResourceLimitError
    naming the last completed radius.
    """
    if radius < 0:
        raise DomainError("radius must be >= 0")
    gens = group.generators()
    e = group.identity()
    norms = {e: 0}
    frontier = [e]
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for s in gens:
                h = group._mul(g, s)
                if h not in norms:
                    norms[h] = r
                    nxt.append(h)
                    if len(norms) > max_elements:
                        raise ResourceLimitError(
                            f"ball of {group.id_string} exceeded "
                            f"{max_elements} elements; completed radius {r - 1}"
                        )
        frontier = nxt
    return BallTable(group=group, radius=radius, norms=norms)


def free_norm(g) -> int:
    return len(g)


def l1_norm(g) -> int:
    return sum(map(abs, g))


def lamplighter_norm(g) -> int:
    """Closed-form lamplighter word norm.

    One switch per ON lamp, plus the shortest walk from 0 that visits every
    ON lamp and ends at the walker position: sweep to the near extreme first
    or to the far extreme first, whichever is cheaper.
    """
    lamps, pos = g
    if not lamps:
        return abs(pos)
    lo = min(0, pos, lamps[0])
    hi = max(0, pos, lamps[-1])
    left_first = (0 - lo) + (hi - lo) + (hi - pos)
    right_first = (hi - 0) + (hi - lo) + (pos - lo)
    return len(lamps) + min(left_first, right_first)


def heisenberg_norm(g) -> int:
    """Closed-form heisenberg word norm, after S. Blachere, "Word distance
    on the discrete Heisenberg group", Colloq. Math. 95 (2003).

    Each reduction is an automorphism that permutes {a^+-1, b^+-1}, or
    one composed with g -> g^-1, so it keeps the norm: x < 0 takes
    (-x, y, -z), then y < 0 takes (x, -y, -z); 2z < xy then takes z to
    xy - z, and x and y are swapped so that x <= y. Then 0 <= x <= y and
    2z >= xy, and the norm is x + y while z <= xy, 2 ceil(z / y) + y - x
    while z <= y^2, and 2 ceil(2 sqrt z) - x - y past that. The tests pin
    this to BFS on whole balls.
    """
    x, y, z = g
    if x < 0:
        x, z = -x, -z
    if y < 0:
        y, z = -y, -z
    if 2 * z < x * y:
        z = x * y - z
    if x > y:
        x, y = y, x
    if z <= x * y:
        return x + y
    if y * y >= z:
        return 2 * -(-z // y) + y - x
    # ceil(2 sqrt z) for z >= 1
    return 2 * (isqrt(4 * z - 1) + 1) - x - y


_CLOSED_FORMS = {FreeGroup: free_norm, FreeAbelian: l1_norm,
                 Lamplighter: lamplighter_norm, Heisenberg: heisenberg_norm}


def norm_evaluator(group: Group) -> Callable:
    """The total closed-form word norm function of `group`."""
    try:
        return _CLOSED_FORMS[type(group)]
    except KeyError:
        raise DomainError(f"no norm evaluator for {group.id_string}") from None


# -- exact laws by the norm's structure ---------------------------------------

@dataclass(frozen=True)
class _IntLine(Group):
    """Z with bare int elements, the group of the coordinate laws and of
    the packed ``zd`` entropy chain: the product is ``operator.add``, with
    no Python frame and no tuple. Its id is the group it stands for,
    ``zd:1`` unless told otherwise, so atom-budget messages read as on
    that group."""

    name: str = "zd:1"

    _mul = staticmethod(add)

    @property
    def id_string(self) -> str:
        return self.name

    def identity(self):
        return 0

    def check_element(self, g) -> None:
        if not isinstance(g, int):
            raise DomainError(f"not an integer-line element: {g!r}")


_LINE = _IntLine()


def _coordinate_laws(mu: FiniteMeasure) -> tuple:
    """(laws, maps): coordinate i of a mu-walk after n steps is a Y_n +
    n b, where (j, a, b) = maps[i] and Y_n follows laws[j]^{*n}.

    Each coordinate's law is put in a normal form that starts at 0 with
    coprime gaps, read forwards or backwards, so coordinates whose laws
    differ by a shift, a scale or a reflection share one power chain (on
    a 2-atom measure every coordinate does); a constant coordinate rides
    on any chain with a = 0. The laws are measures on the integer line
    (``_IntLine``: int elements) over mu.den that keep mu's deficit, so
    their powers share the joint law's denominator and deficit.
    """
    index: Dict[tuple, int] = {}
    maps = []
    for i in range(mu.group.d):
        weights: Dict[int, int] = {}
        for g, c in mu.weights.items():
            weights[g[i]] = weights.get(g[i], 0) + c
        lo, hi = min(weights), max(weights)
        if lo == hi:            # a constant coordinate is 0 Y_n + n lo
            maps.append((0, 0, lo))
            continue
        step = gcd(*(x - lo for x in weights))
        forward = tuple(sorted(((x - lo) // step, c)
                               for x, c in weights.items()))
        backward = tuple(sorted(((hi - x) // step, c)
                                for x, c in weights.items()))
        key, a, b = min((forward, step, lo), (backward, -step, hi))
        maps.append((index.setdefault(key, len(index)), a, b))
    if not index:               # mu is a point mass: law 0 is one atom
        index[((0, sum(mu.weights.values())),)] = 0
    laws = [FiniteMeasure(group=_LINE, weights=dict(key), den=mu.den,
                          deficit=mu.deficit, mode=mu.mode)
            for key in index]
    return laws, maps


def _marginal_norm_sums(mu: FiniteMeasure, n_max: int) -> Iterator[tuple]:
    """(n, numerator of a_n, den, deficit) for n = 1..n_max under the L1
    norm: a_n = sum_i E|S_n^(i)|, one power chain per distinct law."""
    laws, maps = _coordinate_laws(mu)
    shares = Counter(maps)
    for steps in zip(*(power_sequence(law, n_max) for law in laws)):
        n, first = steps[0]
        total = sum(m * sum(abs(a * y + n * b) * c
                            for y, c in steps[j][1].weights.items())
                    for (j, a, b), m in shares.items())
        yield n, total, first.den, first.deficit


def _powers(mu: FiniteMeasure, k_max: int, threshold) -> Iterator[tuple]:
    """(weights, den, deficit) of mu^{*k}, k = 0..k_max, truncated."""
    e = dirac(mu.group, mode=mu.mode)
    yield e.weights, e.den, e.deficit
    for _, mun in power_sequence(mu, k_max, threshold=threshold):
        yield mun.weights, mun.den, mun.deficit


def _marginal_fk_numerators(mu: FiniteMeasure, points: List,
                            k_max: int) -> tuple:
    """(laws, evaluate) under the L1 norm: f_k(s) = sum_i sum_x
    (|s_i + x| - |x|) P(X_k^(i) = x). The law at k maps (m, x) to the
    numerator of a Y_k + k b = x, for (j, a, b) the m-th distinct
    coordinate map and Y_k on laws[j]^{*k}."""
    laws, maps = _coordinate_laws(mu)
    distinct = list(dict.fromkeys(maps))
    slot = [distinct.index(m) for m in maps]
    coords = {x for s in points for x in s}

    def chain_laws():
        for k, steps in enumerate(zip(*(_powers(law, k_max, 0)
                                        for law in laws))):
            law: Dict[tuple, int] = {}
            for m, (j, a, b) in enumerate(distinct):
                for y, c in steps[j][0].items():
                    key = (m, a * y + k * b)
                    law[key] = law.get(key, 0) + c
            yield law, steps[0][1], steps[0][2]

    def evaluate(law: Dict[tuple, int]) -> List:
        xs: List[list] = [[] for _ in distinct]
        for (m, x), c in law.items():
            xs[m].append((x, c))
        shifts = [{v: sum((abs(v + x) - abs(x)) * c for x, c in pairs)
                   for v in coords} for pairs in xs]
        per_coord = [shifts[m] for m in slot]
        return [sum(h[x] for h, x in zip(per_coord, s)) for s in points]

    return chain_laws(), evaluate


def _prefix_fk_numerators(mu: FiniteMeasure, points: List, k_max: int,
                          threshold) -> tuple:
    """(laws, evaluate) under the free-group norm: f_k(s) = |s| M - 2
    sum_{j <= |s|} P_k(s^-1[:j]), with M the retained numerator mass and
    P_k(w) that of the atoms of mu^{*k} starting with w: the law at k maps
    each prefix w, |w| <= max |s|, to P_k(w), so () to M. evaluate fills
    the prefix sums S(w) = S(w[:-1]) + P_k(w) on demand, so a point whose
    parent came first (a ball's points do) costs one new sum, in any
    order. The chain and the points' inverses run on letters moved apart
    (``freewalk._letters_apart``), whose prefixes hash apart too."""
    mu = freewalk._letters_apart(mu)
    inverses = [freewalk._apart(tuple(-x for x in reversed(s)))
                for s in points]
    depth = max(map(len, points), default=0)

    def chain_laws():
        for weights, den, deficit in _powers(mu, k_max, threshold):
            mass: Dict[tuple, int] = {}
            get = mass.get
            for t, c in weights.items():
                for j in range(min(len(t), depth) + 1):
                    w = t[:j]
                    mass[w] = get(w, 0) + c
            yield mass, den, deficit

    def evaluate(mass: Dict[tuple, int]) -> List:
        get = mass.get
        sums = {(): 0}          # w -> sum_{1 <= j <= |w|} P_k(w[:j])

        def prefix_sum(w: tuple) -> int:
            missing = []
            while w not in sums:
                missing.append(w)
                w = w[:-1]
            total = sums[w]
            for v in reversed(missing):     # S(v) = S(v[:-1]) + P_k(v)
                total = sums[v] = total + get(v, 0)
            return total

        mass_e = get((), 0)
        return [len(w) * mass_e - 2 * prefix_sum(w) for w in inverses]

    return chain_laws(), evaluate


def _radial_norm_sums(mu: FiniteMeasure, n_max: int) -> Iterator[tuple]:
    """(n, numerator of a_n, its denominator, deficit) for n = 1..n_max of
    the simple random walk on F_k, by ``freewalk.expected_norms``."""
    a_values = freewalk.expected_norms(mu.group.k, n_max)
    for n in range(1, n_max + 1):
        yield n, a_values[n].numerator, a_values[n].denominator, mu.deficit


def _tail_norm_sums(mu: FiniteMeasure, n_max: int) -> Iterator[tuple]:
    """(n, numerator of a_n, den, deficit) for n = 1..n_max under the free
    norm, exact and untruncated, from a lumped law: after n steps each
    word is kept as its length and its last L (n_max - n) letters
    (``freewalk._FreeTails``), L the longest atom of mu. Each later step
    cancels at most L letters, so words that agree on both have the same
    lengths at every later step, and their weights add. Each step is one
    ``convolve`` with the atom budget, whose numerators, den and deficit
    are those of the joint law. mu comes with its letters moved apart
    (``freewalk._letters_apart``)."""
    name = mu.group.id_string
    atoms = {(len(s), s): c for s, c in mu.weights.items()}
    reach = max(map(len, mu.weights), default=0)
    law = dirac(freewalk._FreeTails(name, reach * n_max))
    for n in range(1, n_max + 1):
        tails = freewalk._FreeTails(name, reach * (n_max - n))
        step = FiniteMeasure(group=tails, weights=atoms, den=mu.den,
                             deficit=mu.deficit, mode=mu.mode)
        try:
            law = convolve(replace(law, group=tails), step,
                           max_atoms=DEFAULT_MAX_ATOMS)
        except ResourceLimitError as exc:
            raise ResourceLimitError(f"{exc}; completed n = {n - 1}") from None
        total = sum(m * c for (m, _), c in law.weights.items())
        yield n, total, law.den, law.deficit


def _joint_norm_sums(mu: FiniteMeasure, norm_fn: Callable, n_max: int,
                     threshold) -> Iterator[tuple]:
    """(n, numerator of a_n, den, deficit) for n = 1..n_max: the norm
    average over the retained atoms of mu^{*n}, on integer numerators in
    exact mode."""
    for n, mun in power_sequence(mu, n_max, threshold=threshold):
        try:
            total = sum(norm_fn(s) * c for s, c in mun.weights.items())
        except OutOfRangeError as exc:
            raise OutOfRangeError(
                f"support of the {n}-step law escapes the norm table: {exc}",
                required=getattr(exc, "required", None))
        yield n, total, mun.den, mun.deficit


def _joint_fk_numerators(mu: FiniteMeasure, norm_fn: Callable, points: List,
                         k_max: int, threshold) -> tuple:
    """(laws, evaluate) by the joint law: the law at k is mu^{*k} itself,
    and evaluate takes one product and norm per (point, atom) pair. Under
    the free norm the chain and the points run on letters moved apart."""
    if _moves_letters(mu, norm_fn):
        mu = freewalk._letters_apart(mu)
        points = [freewalk._apart(s) for s in points]
    mul = mu.group._mul
    zero = 0 if mu.mode == MODE_EXACT else 0.0

    def evaluate(weights: Dict) -> List:
        atom_norms = [(t, c, norm_fn(t)) for t, c in weights.items()]
        values = []
        for s in points:
            acc = zero
            for t, c, nt in atom_norms:
                acc += (norm_fn(mul(s, t)) - nt) * c
            values.append(acc)
        return values

    return _powers(mu, k_max, threshold), evaluate


def _exact_closed_form(mu: FiniteMeasure,
                       norm_fn: Callable) -> Optional[Callable]:
    """The closed-form norm of mu's own group if norm_fn is it, looked up
    through any ``functools.wraps`` wrappers, and mu is exact; else None."""
    norm = inspect.unwrap(norm_fn)
    if mu.mode == MODE_EXACT and _CLOSED_FORMS.get(type(mu.group)) is norm:
        return norm
    return None


def _moves_letters(mu: FiniteMeasure, norm_fn: Callable) -> bool:
    """Whether the joint law runs on letters moved apart."""
    return (isinstance(mu.group, FreeGroup)
            and inspect.unwrap(norm_fn) is free_norm)


def norm_sums(mu: FiniteMeasure, norm_fn: Callable, n_max: int,
              threshold=0) -> Iterator[tuple]:
    """(n, numerator of a_n, den, deficit) for n = 1..n_max, a_n the norm
    average of mu^{*n} truncated at threshold. Untruncated, the exact L1
    norm of zd takes the coordinate marginals, and the free norm of the
    exact simple random walk (``freewalk.is_srw``) the radial law up to
    ``freewalk.MAX_RADIAL_STEPS``; past it free:k with k >= 2 is refused
    (ResourceLimitError), since its states can only end at the atom
    budget. Every other exact untruncated measure under the free norm,
    free:1's simple random walk past the cap among them, takes the
    (length, tail) states (``_tail_norm_sums``). The rest takes the joint
    law. The tail states and the joint law keep the atom budget, and run
    on letters moved apart under the free norm."""
    norm = None if threshold else _exact_closed_form(mu, norm_fn)
    if norm is l1_norm:
        return _marginal_norm_sums(mu, n_max)
    if norm is free_norm:
        if freewalk.is_srw(mu) and (
                mu.group.k > 1 or n_max <= freewalk.MAX_RADIAL_STEPS):
            freewalk.check_radial_steps(n_max)
            return _radial_norm_sums(mu, n_max)
        return _tail_norm_sums(freewalk._letters_apart(mu), n_max)
    if _moves_letters(mu, norm_fn):
        mu = freewalk._letters_apart(mu)
    return _joint_norm_sums(mu, norm_fn, n_max, threshold)


def _fk_route(mu: FiniteMeasure, norm_fn: Callable, points: List,
              k_max: int, threshold) -> tuple:
    """(laws, evaluate): ``laws`` yields (numerators, den, deficit) of the
    route's law of mu^{*k}, k = 0..k_max, truncated at threshold, and
    ``evaluate`` maps a law's numerators, or a sum of them, to f's at
    points. The exact L1 norm of zd takes the coordinate marginals
    untruncated, the exact free norm the prefix masses, the rest the joint
    law."""
    norm = _exact_closed_form(mu, norm_fn)
    if norm is l1_norm and not threshold:
        return _marginal_fk_numerators(mu, points, k_max)
    if norm is free_norm:
        return _prefix_fk_numerators(mu, points, k_max, threshold)
    return _joint_fk_numerators(mu, norm_fn, points, k_max, threshold)


def fk_numerators(mu: FiniteMeasure, norm_fn: Callable, points: List,
                  k_max: int, threshold=0) -> Iterator[tuple]:
    """(numerators of f_k at points, den, deficit) for k = 0..k_max, from
    mu^{*k} truncated at threshold; the route's evaluator runs once per
    k."""
    laws, evaluate = _fk_route(mu, norm_fn, points, k_max, threshold)
    return ((evaluate(law), den, deficit) for law, den, deficit in laws)


def phi_numerators(mu: FiniteMeasure, norm_fn: Callable, points: List,
                   n: int, threshold=0) -> tuple:
    """(numerators of n phi_n at points, den, deficit), so that phi_n(s) =
    nums[i] / (n den) with error bar deficit rho(s) / n: f_k is linear in
    mu^{*k}, so n phi_n is f evaluated once at the Cesaro law G_n =
    sum_{k<n} mu^{*k}, by the route of ``fk_numerators``. G_n's numerators
    are sum_k c_k den / den_k over den = mu.den^(n-1), the last law's
    denominator, and its deficit is the sum of the laws' deficits."""
    if n < 1:
        raise DomainError("Cesaro length must be >= 1")
    laws, evaluate = _fk_route(mu, norm_fn, points, n - 1, threshold)
    den = mu.den ** (n - 1)
    total: Dict = {}
    deficit = 0
    for law, den_k, deficit_k in laws:
        scale = den // den_k
        for w, c in law.items():
            total[w] = total.get(w, 0) + c * scale
        deficit += deficit_k
    return evaluate(total), den, deficit


@dataclass(frozen=True)
class SemiNormReport:
    pairs_checked: int
    max_triangle_violation: int
    max_symmetry_violation: int
    norm_of_identity: int

    @property
    def ok(self) -> bool:
        return (self.max_triangle_violation == 0
                and self.max_symmetry_violation == 0
                and self.norm_of_identity == 0)


def check_value_seminorm(group: Group,
                         values: Dict[object, float]) -> SemiNormReport:
    """Semi-norm axioms for an arbitrary value table keyed by elements.

    Used for pulled-back semi-norms (e.g. boundary log-norm exponents);
    values may be ints, Fractions or floats, and comparisons stay in the
    given type. Both violations are exact: the largest excess of a
    product over the sum of its factors (0 when there is none) and the
    largest |rho(g^-1) - rho(g)|. Every key is validated by the checked
    inverse (DomainError on a foreign element); the pair loop then
    multiplies unchecked.
    """
    e = group.identity()
    sym = 0
    for g, v in values.items():
        w = values.get(group.inv(g))
        if w is not None:
            sym = max(sym, abs(w - v))
    tri = 0
    pairs = 0
    items = list(values.items())
    for g, vg in items:
        for h, vh in items:
            prod = group._mul(g, h)
            vp = values.get(prod)
            if vp is None:
                continue
            pairs += 1
            excess = vp - (vg + vh)
            if excess > tri:
                tri = excess
    return SemiNormReport(
        pairs_checked=pairs,
        max_triangle_violation=tri,
        max_symmetry_violation=sym,
        norm_of_identity=values.get(e, 0),
    )
