"""Finite G-spaces: stationary measures, ergodicity of diagonal products,
and factor maps from invariant functions.

A FiniteGSpace is a finite set acted on by named generators through
permutations, validated against a supplied relator list (a silent non-action
would corrupt every downstream claim, so mismatches are construction
errors). On a finite set with bijective actions the walk's law converges
to its start's mass spread evenly over each orbit of the group generated by
supp mu, so stationary measures are given in closed form and are invariant
under that group: the genuinely non-invariant stationary phenomena live in
the boundary module. "Essentially constant" here always means constant on
atoms of positive mass. The isometric factor of a non-ergodic diagonal
product is exhibited by ``isometric_factor_witness``.

Factor maps work on the distinct rows of f, so their memory stays linear
in |X| |Y|; FactorMapResult.f2, the |X| x |X| eta-gram, is computed on access.

Tolerances are fixed, not configurable: 1e-12 for plain linear-algebra
residuals, 1e-10 for composed checks. A parsed space, a preset and a
diagonal product hold at most MAX_POINTS points; the size is checked before
any per-point list is built, and a larger one raises ResourceLimitError.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, PreconditionError, ResourceLimitError
from .measures import MODE_FLOAT, _parse_weight

LINALG_TOL = 1e-12
COMPOSED_TOL = 1e-10
MAX_POINTS = 100_000


def _check_points(size: int, what: str = "g-space") -> None:
    """ResourceLimitError when a space of `size` points is over MAX_POINTS."""
    if size > MAX_POINTS:
        raise ResourceLimitError(f"{what} of {size} points exceeds the limit "
                                 f"of {MAX_POINTS} points")


# -- spaces and the text format ------------------------------------------------

@dataclass(frozen=True)
class FiniteGSpace:
    size: int
    gens: Dict[str, Tuple[int, ...]]      # label -> permutation image tuple
    relators: Tuple[Tuple[str, ...], ...] = ()

    def __post_init__(self):
        if self.size < 1:
            raise DomainError(f"g-space size must be >= 1, got {self.size}")
        for label, perm in self.gens.items():
            # one token, and no ^-1, which marks an inverse in words
            if label.split() != [label] or label.endswith("^-1"):
                raise DomainError(f"bad generator label {label!r} (want one "
                                  f"token not ending in ^-1)")
            if sorted(perm) != list(range(self.size)):
                raise DomainError(f"generator {label!r} is not a permutation "
                                  f"of 0..{self.size - 1}")
        for rel in self.relators:
            perm = self.word_permutation(rel)
            if perm != tuple(range(self.size)):
                raise DomainError(f"relator {' '.join(rel)} does not act as "
                                  f"the identity")

    def labels(self) -> List[str]:
        return sorted(self.gens)

    def permutation(self, token: str) -> Tuple[int, ...]:
        """Permutation of a generator token, allowing label^-1."""
        label = token[:-3] if token.endswith("^-1") else token
        if label not in self.gens:
            raise DomainError(f"unknown generator {label!r}")
        perm = self.gens[label]
        return perm if label == token else _power(perm, -1)

    def word_permutation(self, tokens: Sequence[str]) -> Tuple[int, ...]:
        """Left action of a word: (s1 s2).x = s1.(s2.x). A run of one
        token is applied as a single power, so the order-n relator of a
        cycle preset costs O(n), not O(n^2)."""
        perm = tuple(range(self.size))
        for token, run in groupby(reversed(tokens)):
            step = _power(self.permutation(token), sum(1 for _ in run))
            perm = tuple(step[p] for p in perm)
        return perm


def _cycles(perm: Sequence[int]) -> Iterator[List[int]]:
    """The cycles of a permutation, fixed points included, each starting
    at its smallest point, in order of those points."""
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        yield cycle


def _power(perm: Sequence[int], exponent: int) -> Tuple[int, ...]:
    """perm composed with itself `exponent` times, cycle by cycle."""
    out = list(perm)
    for cycle in _cycles(perm):
        length = len(cycle)
        for i, p in enumerate(cycle):
            out[p] = cycle[(i + exponent) % length]
    return tuple(out)


def parse_cycles(text: str, size: int) -> Tuple[int, ...]:
    """Parse one-line cycle notation like "(0 1 2)(5 6)"; fixed points may
    be omitted."""
    perm = list(range(size))
    body = text.strip()
    if body in ("()", "id", ""):
        return tuple(perm)
    if not (body.startswith("(") and body.endswith(")")):
        raise DomainError(f"bad cycle notation {text!r}")
    for cycle_s in body[1:-1].split(")("):
        try:
            points = [int(p) for p in cycle_s.replace(",", " ").split()]
        except ValueError:
            raise DomainError(f"bad point in cycle {cycle_s!r}")
        if len(set(points)) != len(points):
            raise DomainError(f"repeated point in cycle {cycle_s!r}")
        for p in points:
            if not 0 <= p < size:
                raise DomainError(f"point {p} outside 0..{size - 1}")
        for a, b in zip(points, points[1:] + points[:1]):
            perm[a] = b
    return tuple(perm)


def parse_gspace(text: str) -> FiniteGSpace:
    """Parse the preset text format::

        size 6
        gen t (0 1 2 3 4 5)
        gen s (0 3)(1 4)(2 5)
        relator t s t^-1 s^-1

    Lines starting with '#' are comments; relator lines are optional.
    """
    size = None
    gens: Dict[str, Tuple[int, ...]] = {}
    relators: List[Tuple[str, ...]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key == "size":
            if size is not None:
                raise DomainError("duplicate size line")
            try:
                size = int(rest)
            except ValueError:
                raise DomainError(f"bad g-space size {rest!r}")
            _check_points(size)
        elif key == "gen":
            if size is None:
                raise DomainError("size must precede gen lines")
            label, _, cycles = rest.strip().partition(" ")
            if label in gens:
                raise DomainError(f"duplicate generator {label!r}")
            gens[label] = parse_cycles(cycles, size)
        elif key == "relator":
            relators.append(tuple(rest.split()))
        else:
            raise DomainError(f"unknown g-space line {line!r}")
    if size is None or not gens:
        raise DomainError("g-space file needs a size and at least one gen")
    return FiniteGSpace(size=size, gens=gens, relators=tuple(relators))


# -- presets -------------------------------------------------------------------

def cycle_space(n: int, label: str = "t") -> FiniteGSpace:
    """Z acting on Z/n by rotation (the order-n relator is validated)."""
    _check_points(n)
    return FiniteGSpace(size=n, gens={label: tuple((i + 1) % n
                                                   for i in range(n))},
                        relators=((label,) * n,))


def trivial_space(n: int) -> FiniteGSpace:
    _check_points(n)
    return FiniteGSpace(size=n, gens={"t": tuple(range(n))})


def two_orbit_space() -> FiniteGSpace:
    """One generator rotating an orbit of size 2 and an orbit of size 3."""
    return FiniteGSpace(size=5, gens={"t": parse_cycles("(0 1)(2 3 4)", 5)})


def product_space(x: FiniteGSpace, y: FiniteGSpace) -> FiniteGSpace:
    """Diagonal action on X x Y; the spaces must share generator labels.
    Point (i, j) is flattened to i * |Y| + j."""
    if set(x.gens) != set(y.gens):
        raise DomainError("product needs matching generator labels")
    size = x.size * y.size
    _check_points(size, "product space")
    gens = {}
    for label in x.gens:
        px, py = x.gens[label], y.gens[label]
        gens[label] = tuple(px[i] * y.size + py[j]
                            for i in range(x.size) for j in range(y.size))
    return FiniteGSpace(size=size, gens=gens)


# -- measures on generators ----------------------------------------------------

def parse_word_measure(space: FiniteGSpace, spec: str) -> List[Tuple[Tuple[str, ...], Tuple[int, ...], float]]:
    """Measure atoms over generator words from the CLI's text spec:
    "uniform", or "a=1/2; a b^-1=1/2" (the empty word is written "=w").
    Returns (tokens, permutation, weight) triples."""
    if not isinstance(spec, str):
        raise DomainError(f"word measure spec {spec!r} is not text")
    if spec == "uniform":
        labels = space.labels()
        pairs = [(label, 1.0 / len(labels)) for label in labels]
    else:
        pairs = []
        for part in filter(None, map(str.strip, spec.split(";"))):
            word_s, sep, w_s = part.partition("=")
            if not sep:
                raise DomainError(f"bad measure atom {part!r}")
            pairs.append((word_s, _parse_weight(w_s.strip(), MODE_FLOAT)))
    atoms = {}
    total = 0.0
    for word, weight in pairs:
        tokens = tuple(word.split())
        if tokens in atoms:
            raise DomainError(f"duplicate atom {' '.join(tokens)!r}")
        if weight <= 0:
            raise DomainError("measure weights must be positive")
        atoms[tokens] = (space.word_permutation(tokens), weight)
        total += weight
    if abs(total - 1.0) > LINALG_TOL:
        raise DomainError(f"measure mass {total} != 1")
    return [(tokens, *atom) for tokens, atom in atoms.items()]


def _transfer(atoms, nu: np.ndarray) -> np.ndarray:
    """sum_s mu(s) s_* nu, where (s_* nu)(x) = nu(s^-1 x)."""
    out = np.zeros_like(nu)
    for _, perm, w in atoms:
        out[np.array(perm)] += w * nu
    return out


def _orbits(size: int, perms: Iterable[Sequence[int]]) -> List[List[int]]:
    """Orbits on 0..size-1 of the group the permutations generate: the
    components of their moves, each sorted, in order of first points."""
    parent = list(range(size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for perm in perms:
        for i, j in enumerate(perm):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: Dict[int, List[int]] = {}
    for i in range(size):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def orbits(space: FiniteGSpace) -> List[List[int]]:
    """Orbits of the generated group (connected components of the moves)."""
    return _orbits(space.size, space.gens.values())


def _live_orbits(space: FiniteGSpace, mass: np.ndarray) -> List[List[int]]:
    """The orbits of `space` holding positive mass."""
    return [orb for orb in orbits(space) if (mass[orb] > 0).any()]


@dataclass(frozen=True)
class StationaryResult:
    nu: np.ndarray
    residual: float
    iterations: int                       # always 0: nu is in closed form
    orbit_decomposition: List[List[int]]  # orbits of <supp mu>


def solve_stationary(space: FiniteGSpace, mu_spec: str = "uniform",
                     start: Optional[np.ndarray] = None) -> StationaryResult:
    """Limit of the lazy walk's law from `start` (default uniform): the
    start's mass on each orbit of <supp mu> spread evenly over it, or kept
    as is where already constant there (the uniform start keeps its bytes).
    Reports the residual |mu * nu - nu|_1 and those orbits."""
    atoms = parse_word_measure(space, mu_spec)
    nu = (np.full(space.size, 1.0 / space.size) if start is None
          else np.array(start, dtype=float))
    if abs(nu.sum() - 1.0) > LINALG_TOL or (nu < 0).any():
        raise DomainError("start vector must be a probability vector")
    orbit_list = _orbits(space.size, [perm for _, perm, _ in atoms])
    sizes = np.array([len(orbit) for orbit in orbit_list])
    points = np.fromiter(chain.from_iterable(orbit_list), np.intp, space.size)
    values, firsts = nu[points], np.cumsum(sizes) - sizes
    constant = (np.minimum.reduceat(values, firsts)
                == np.maximum.reduceat(values, firsts))
    even = np.add.reduceat(values, firsts) / sizes
    nu[points] = np.where(np.repeat(constant, sizes), values,
                          np.repeat(even, sizes))
    residual = float(np.abs(_transfer(atoms, nu) - nu).sum())
    return StationaryResult(nu=nu, residual=residual, iterations=0,
                            orbit_decomposition=orbit_list)


def is_invariant_measure(space: FiniteGSpace, nu: np.ndarray,
                         tol: float = LINALG_TOL) -> bool:
    """max_s |nu(s x) - nu(x)| <= tol: the same values as |s_* nu - nu|."""
    return _invariance_defect(nu, slice(None),
                              map(np.array, space.gens.values())) <= tol


def _finite(name: str, values) -> np.ndarray:
    """`values` as a float array; NaN or infinite entries are a DomainError,
    since every comparison with a tolerance would pass them."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise DomainError(f"{name} must have finite entries")
    return values


def _invariance_defect(f: np.ndarray, support, moves) -> float:
    """max over the moves s of |f(s x) - f(x)| on the support (a mask, or
    slice(None) for every point); f[s] is f(s x) at x."""
    defect = 0.0
    for move in moves:
        defect = max(defect, float(np.abs((f[move] - f)[support]).max()))
    return defect


# -- diagonal products ---------------------------------------------------------

@dataclass(frozen=True)
class ErgodicityResult:
    ergodic: bool
    orbit_count: int
    witness: Optional[np.ndarray]   # invariant non-constant function on X x Y


def diagonal_ergodicity(space_x: FiniteGSpace, nu_x: np.ndarray,
                        space_y: FiniteGSpace,
                        nu_y: np.ndarray) -> ErgodicityResult:
    """Is the diagonal action on (X x Y, nu_x (x) nu_y) ergodic?

    True iff the diagonal permutations are transitive on the positive-mass
    atoms; otherwise the indicator of one orbit is returned as an invariant
    non-constant witness (shape |X| x |Y|).
    """
    for space, nu in ((space_x, nu_x), (space_y, nu_y)):
        if not is_invariant_measure(space, np.asarray(nu, dtype=float),
                                    tol=COMPOSED_TOL):
            raise PreconditionError("factor measures must be invariant")
    prod = product_space(space_x, space_y)
    mass = np.kron(np.asarray(nu_x, float), np.asarray(nu_y, float))
    live_orbits = _live_orbits(prod, mass)
    if len(live_orbits) <= 1:
        return ErgodicityResult(ergodic=True, orbit_count=len(live_orbits),
                                witness=None)
    flat = np.zeros(prod.size)
    flat[live_orbits[0]] = 1.0
    witness = flat.reshape(space_x.size, space_y.size)
    return ErgodicityResult(ergodic=False, orbit_count=len(live_orbits),
                            witness=witness)


# -- factor maps from invariant functions --------------------------------------

def _row_keys(f: np.ndarray) -> List[Tuple[float, ...]]:
    """Rows of f rounded to 12 decimals, as tuples of np.float64."""
    return [tuple(row) for row in np.round(f, 12)]


@dataclass(frozen=True)
class FactorMapResult:
    p_f: np.ndarray                  # row x -> the vector f(x, .)
    pushforward: List[Tuple[Tuple[float, ...], float]]  # distinct vectors
    eta: np.ndarray                  # the invariant measure on Y
    f2_essentially_constant: bool
    f2_constant_value: Optional[float]
    dichotomy_holds: bool            # f nonzero => f2 non-constant
    mean_zero_residual: float        # max_x |int f(x, y) deta(y)|
    lambda_residual: float           # max_y |int f(x, y) dnu(x)|

    @property
    def f2(self) -> np.ndarray:
        """f2(x, z) = <p_f(x), p_f(z)>_eta, |X| x |X|, computed on access."""
        return (self.p_f * self.eta) @ self.p_f.T


def factor_map(f: np.ndarray, space_x: FiniteGSpace, nu_x: np.ndarray,
               space_y: FiniteGSpace, eta: np.ndarray) -> FactorMapResult:
    """Map x to the vector f(x, .) and test the correlation dichotomy.

    Preconditions: f is G-invariant (<= 1e-10 on the support), has zero mean,
    |f| <= 1; eta is invariant; both factors are ergodic (single live
    orbit). The pushforward groups equal rows; f2 is the eta-inner-product
    matrix, tested for constancy on the distinct rows of the support. If f
    does not vanish on the support, f2 must be non-constant.
    """
    f, nu_x = _finite("f", f), _finite("nu_x", nu_x)
    eta = _finite("eta", eta)
    if f.shape != (space_x.size, space_y.size):
        raise DomainError("f must be an |X| x |Y| array")
    if np.abs(f).max() > 1 + LINALG_TOL:
        raise PreconditionError("need sup |f| <= 1")
    if not is_invariant_measure(space_y, eta, tol=COMPOSED_TOL):
        raise PreconditionError("eta must be invariant")
    if set(space_x.gens) != set(space_y.gens):
        raise DomainError("product needs matching generator labels")
    _check_points(f.size, "product space")
    mass = np.kron(nu_x, eta)
    moves = (np.ix_(space_x.gens[s], space_y.gens[s]) for s in space_x.gens)
    defect = _invariance_defect(f, (mass > 0).reshape(f.shape), moves)
    if defect > COMPOSED_TOL:
        raise PreconditionError(f"f is not invariant: defect {defect}")
    mean = float(mass @ f.reshape(-1))
    if abs(mean) > COMPOSED_TOL:
        raise PreconditionError(f"f must have zero mean, got {mean}")
    for space, nu in ((space_x, nu_x), (space_y, eta)):
        if len(_live_orbits(space, nu)) != 1:
            raise PreconditionError("factors must be ergodic")

    mean_zero_residual = float(np.abs(f @ eta)[nu_x > 0].max())
    lambda_residual = float(np.abs(nu_x @ f)[eta > 0].max())
    support_x = nu_x > 0
    rows, counts = np.unique(f[support_x], axis=0, return_counts=True)
    gram = (rows * eta) @ rows.T        # f2 on the distinct support rows
    constant = float(gram.max() - gram.min()) <= COMPOSED_TOL
    constant_value = (float(counts @ gram @ counts) / counts.sum() ** 2
                      if constant else None)
    f_vanishes = float(np.abs(f[support_x][:, eta > 0]).max()) <= COMPOSED_TOL
    dichotomy = f_vanishes or not constant
    weights: Counter = Counter()
    for x, key in enumerate(_row_keys(f)):
        weights[key] += nu_x[x]
    pushforward = sorted((key, w) for key, w in weights.items() if w > 0)
    return FactorMapResult(p_f=f, pushforward=pushforward, eta=eta,
                           f2_essentially_constant=constant,
                           f2_constant_value=constant_value,
                           dichotomy_holds=dichotomy,
                           mean_zero_residual=mean_zero_residual,
                           lambda_residual=lambda_residual)


@dataclass(frozen=True)
class IsometricWitness:
    vectors: List[Tuple[float, ...]]          # distinct image vectors
    weights: List[float]
    actions: Dict[str, Tuple[int, ...]]       # generator -> permutation
    gram: np.ndarray                          # eta inner products
    gram_preserved: bool                      # actions preserve the gram


def isometric_factor_witness(space_x: FiniteGSpace, nu_x: np.ndarray,
                             space_y: FiniteGSpace,
                             nu_y: np.ndarray) -> Optional[IsometricWitness]:
    """If the diagonal product is not ergodic, exhibit the finite isometric
    factor carried by the witness function: the orbit of image vectors with
    the (orthogonal, gram-preserving) generator action. Returns None when
    the product is ergodic."""
    nu_x = np.asarray(nu_x, dtype=float)
    nu_y = np.asarray(nu_y, dtype=float)
    result = diagonal_ergodicity(space_x, nu_x, space_y, nu_y)
    if result.ergodic:
        return None
    raw = result.witness
    mass = np.outer(nu_x, nu_y)
    f0 = raw - float((mass * raw).sum())
    # two live orbits: f0 takes 1 - m and -m for the first one's mass m,
    # so its peak is at least 1/2
    f = f0 / np.abs(f0).max()
    fm = factor_map(f, space_x, nu_x, space_y, nu_y)
    vectors = [key for key, _ in fm.pushforward]
    weights = [w for _, w in fm.pushforward]
    index = {v: i for i, v in enumerate(vectors)}
    keys = _row_keys(f)
    actions = {}
    for label in space_x.labels():
        perm_x = space_x.gens[label]
        mapping = [None] * len(vectors)
        for x in range(space_x.size):
            if nu_x[x] <= 0:
                continue
            # p_f(s x) = Koopman image of p_f(x): reindex by s^-1 on Y
            mapping[index[keys[x]]] = index[keys[perm_x[x]]]
        actions[label] = tuple(mapping)
    arr = np.array(vectors)
    gram = (arr * nu_y) @ arr.T
    moves = (np.ix_(perm, perm) for perm in actions.values())
    preserved = _invariance_defect(gram, slice(None), moves) <= COMPOSED_TOL
    return IsometricWitness(vectors=vectors, weights=weights, actions=actions,
                            gram=gram, gram_preserved=preserved)
