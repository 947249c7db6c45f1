"""Finite G-spaces: stationary measures, ergodicity of diagonal products,
factor maps from invariant functions, and moment-tensor invariance.

A FiniteGSpace is a finite set acted on by named generators through
permutations, validated against a supplied relator list (a silent non-action
would corrupt every downstream claim, so mismatches are construction
errors). On a finite set with bijective actions a stationary measure is
automatically uniform on each reachable orbit, hence invariant: the
genuinely non-invariant stationary phenomena live in the boundary module.
"Essentially constant" here always means constant on atoms of positive
mass.

The moment-tensor check models measures on the unit ball of a
finite-dimensional real representation: sigma_k = sum_i w_i v_i^{(x) k}
is computed as a full tensor, its fixing under the k-fold representation
is checked generator by generator, and invariance of the measure itself is
confirmed by direct atom matching. (The classical statement concerns unit
balls of infinite-dimensional spaces in the weak topology; this module is a
finite-dimensional model of it, by design.)

Tolerances are fixed, not configurable: 1e-12 for plain linear-algebra
residuals, 1e-10 for composed checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NonConvergenceError, PreconditionError
from .measures import MODE_FLOAT, _parse_weight

LINALG_TOL = 1e-12
COMPOSED_TOL = 1e-10


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
        if token.endswith("^-1"):
            perm = self.gens.get(token[:-3])
            if perm is None:
                raise DomainError(f"unknown generator {token[:-3]!r}")
            inv = [0] * self.size
            for i, j in enumerate(perm):
                inv[j] = i
            return tuple(inv)
        perm = self.gens.get(token)
        if perm is None:
            raise DomainError(f"unknown generator {token!r}")
        return perm

    def word_permutation(self, tokens: Sequence[str]) -> Tuple[int, ...]:
        """Left action of a word: (s1 s2).x = s1.(s2.x)."""
        perm = tuple(range(self.size))
        for token in reversed(tokens):
            step = self.permutation(token)
            perm = tuple(step[p] for p in perm)
        return perm


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


def format_cycles(perm: Sequence[int]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(p) for p in cycle) + ")")
    return "".join(parts) or "()"


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
            try:
                size = int(rest)
            except ValueError:
                raise DomainError(f"bad g-space size {rest!r}")
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


def format_gspace(space: FiniteGSpace) -> str:
    lines = [f"size {space.size}"]
    for label in space.labels():
        lines.append(f"gen {label} {format_cycles(space.gens[label])}")
    for rel in space.relators:
        lines.append("relator " + " ".join(rel))
    return "\n".join(lines) + "\n"


# -- presets -------------------------------------------------------------------

def cycle_space(n: int, label: str = "t") -> FiniteGSpace:
    """Z acting on Z/n by rotation (the order-n relator is validated)."""
    return FiniteGSpace(size=n, gens={label: tuple((i + 1) % n
                                                   for i in range(n))},
                        relators=((label,) * n,))


def trivial_space(n: int, label: str = "t") -> FiniteGSpace:
    return FiniteGSpace(size=n, gens={label: tuple(range(n))})


def two_orbit_space(label: str = "t") -> FiniteGSpace:
    """One generator rotating an orbit of size 2 and an orbit of size 3."""
    return FiniteGSpace(size=5,
                        gens={label: parse_cycles("(0 1)(2 3 4)", 5)})


def product_space(x: FiniteGSpace, y: FiniteGSpace) -> FiniteGSpace:
    """Diagonal action on X x Y; the spaces must share generator labels.
    Point (i, j) is flattened to i * |Y| + j."""
    if set(x.gens) != set(y.gens):
        raise DomainError("product needs matching generator labels")
    size = x.size * y.size
    gens = {}
    for label in x.gens:
        px, py = x.gens[label], y.gens[label]
        gens[label] = tuple(px[i] * y.size + py[j]
                            for i in range(x.size) for j in range(y.size))
    return FiniteGSpace(size=size, gens=gens)


# -- measures on generators ----------------------------------------------------

def parse_word_measure(space: FiniteGSpace, spec) -> List[Tuple[Tuple[str, ...], Tuple[int, ...], float]]:
    """Measure atoms over generator words.

    spec: "uniform", or dict {word-or-label: weight}, or a CLI string
    "a=1/2; a b^-1=1/2". Returns (tokens, permutation, weight) triples.
    """
    if spec == "uniform":
        labels = space.labels()
        spec = {label: 1.0 / len(labels) for label in labels}
    if isinstance(spec, str):
        parsed = {}
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            word_s, sep, w_s = part.partition("=")
            if not sep:
                raise DomainError(f"bad measure atom {part!r}")
            parsed[word_s.strip()] = _parse_weight(w_s.strip(), MODE_FLOAT)
        spec = parsed
    atoms = []
    total = 0.0
    for word, weight in spec.items():
        tokens = tuple(word.split()) if isinstance(word, str) else tuple(word)
        weight = float(weight)
        if weight <= 0:
            raise DomainError("measure weights must be positive")
        atoms.append((tokens, space.word_permutation(tokens), weight))
        total += weight
    if abs(total - 1.0) > LINALG_TOL:
        raise DomainError(f"measure mass {total} != 1")
    return atoms


def _push_measure(nu: np.ndarray, perm: Tuple[int, ...]) -> np.ndarray:
    """(s_* nu)(x) = nu(s^-1 x)."""
    out = np.empty_like(nu)
    out[np.array(perm)] = nu
    return out


def _transfer(atoms, nu: np.ndarray) -> np.ndarray:
    """sum_s mu(s) s_* nu."""
    out = np.zeros_like(nu)
    for _, perm, w in atoms:
        out += w * _push_measure(nu, perm)
    return out


def _markov_operator(atoms, f: np.ndarray) -> np.ndarray:
    """(P f)(x) = sum_s mu(s) f(s x)."""
    out = np.zeros_like(f, dtype=float)
    for _, perm, w in atoms:
        out += w * f[np.array(perm)]
    return out


def orbits(space: FiniteGSpace) -> List[List[int]]:
    """Orbits of the generated group (connected components of the moves)."""
    parent = list(range(space.size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for perm in space.gens.values():
        for i, j in enumerate(perm):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: Dict[int, List[int]] = {}
    for i in range(space.size):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


@dataclass(frozen=True)
class StationaryResult:
    nu: np.ndarray
    residual: float
    iterations: int
    orbit_decomposition: List[List[int]]


def solve_stationary(space: FiniteGSpace, mu_spec="uniform",
                     start: Optional[np.ndarray] = None,
                     max_iterations: int = 100_000) -> StationaryResult:
    """Power iteration from the uniform start (lazy kernel for periodic
    chains); verifies the result is stationary to 1e-12 and reports the
    orbit decomposition."""
    atoms = parse_word_measure(space, mu_spec)
    nu = (np.full(space.size, 1.0 / space.size) if start is None
          else np.asarray(start, dtype=float))
    if abs(nu.sum() - 1.0) > LINALG_TOL or (nu < 0).any():
        raise DomainError("start vector must be a probability vector")
    iterations = 0
    while True:
        pushed = _transfer(atoms, nu)
        residual = float(np.abs(pushed - nu).sum())
        if residual <= LINALG_TOL:
            break
        if iterations >= max_iterations:
            raise NonConvergenceError(
                f"stationary iteration residual {residual} after "
                f"{iterations} steps", residual=residual)
        nu = 0.5 * (nu + pushed)   # lazy kernel: same fixed points
        iterations += 1
    return StationaryResult(nu=nu, residual=residual, iterations=iterations,
                            orbit_decomposition=orbits(space))


def is_invariant_measure(space: FiniteGSpace, nu: np.ndarray,
                         tol: float = LINALG_TOL) -> bool:
    return all(np.abs(_push_measure(nu, perm) - nu).max() <= tol
               for perm in space.gens.values())


# -- stationarity => invariance (finite-scale) ---------------------------------

@dataclass(frozen=True)
class StatInvReport:
    harmonic_residual: float
    identity_residuals: List[float]   # proof identity per k = 1..k_max
    vanishing: List[float]            # left side per k (should be ~0)
    invariance_defect: float          # max |f(s x) - f(x)| on positive mass
    is_invariant: bool


def _word_power_measures(atoms, k_max: int) -> List[Dict[Tuple[int, ...], float]]:
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


def check_statinv(space: FiniteGSpace, nu: np.ndarray, mu_spec, f: np.ndarray,
                  k_max: int = 4) -> StatInvReport:
    """Harmonic functions on a stationary space are invariant; checked via
    the expanding-the-square identity

        sum_s int (f(sx) - f(x))^2 dnu mu^{*k}(s)
            = 2 ( int f^2 dnu - int f (P^k f) dnu )

    for k <= k_max, followed by the vanishing of the left side and direct
    per-generator invariance on positive-mass atoms.
    """
    atoms = parse_word_measure(space, mu_spec)
    f = np.asarray(f, dtype=float)
    nu = np.asarray(nu, dtype=float)
    pf = _markov_operator(atoms, f)
    harmonic_residual = float(np.abs(pf - f).max())
    if harmonic_residual > COMPOSED_TOL:
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
    support = nu > 0
    defect = 0.0
    for perm in space.gens.values():
        moved = f[np.array(perm)]
        defect = max(defect, float(np.abs((moved - f)[support]).max()))
    return StatInvReport(harmonic_residual=harmonic_residual,
                         identity_residuals=identity_residuals,
                         vanishing=vanishing,
                         invariance_defect=defect,
                         is_invariant=defect <= COMPOSED_TOL)


# -- diagonal products ---------------------------------------------------------

@dataclass(frozen=True)
class ErgodicityResult:
    ergodic: bool
    orbit_count: int
    witness: Optional[np.ndarray]   # invariant non-constant function on X x Y
    product: FiniteGSpace


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
    support = mass > 0
    live_orbits = [orb for orb in orbits(prod) if support[orb].any()]
    if len(live_orbits) <= 1:
        return ErgodicityResult(ergodic=True, orbit_count=len(live_orbits),
                                witness=None, product=prod)
    flat = np.zeros(prod.size)
    flat[live_orbits[0]] = 1.0
    witness = flat.reshape(space_x.size, space_y.size)
    return ErgodicityResult(ergodic=False, orbit_count=len(live_orbits),
                            witness=witness, product=prod)


# -- factor maps from invariant functions --------------------------------------

@dataclass(frozen=True)
class FactorMapResult:
    p_f: np.ndarray                  # row x -> the vector f(x, .)
    pushforward: List[Tuple[Tuple[float, ...], float]]  # distinct vectors
    f2: np.ndarray                   # f2(x, z) = <p_f(x), p_f(z)>_eta
    f2_essentially_constant: bool
    f2_constant_value: Optional[float]
    dichotomy_holds: bool            # f nonzero => f2 non-constant
    mean_zero_residual: float        # max_x |int f(x, y) deta(y)|
    lambda_residual: float           # max_y |int f(x, y) dnu(x)|


def _invariance_defect(prod: FiniteGSpace, f_flat: np.ndarray,
                       support: np.ndarray) -> float:
    defect = 0.0
    for perm in prod.gens.values():
        moved = f_flat[np.array(perm)]
        defect = max(defect, float(np.abs((moved - f_flat)[support]).max()))
    return defect


def factor_map(f: np.ndarray, space_x: FiniteGSpace, nu_x: np.ndarray,
               space_y: FiniteGSpace, eta: np.ndarray) -> FactorMapResult:
    """Map x to the vector f(x, .) and test the correlation dichotomy.

    Preconditions: f is G-invariant (<= 1e-10 on the support), has zero mean,
    |f| <= 1; eta is invariant; both factors are ergodic (single live
    orbit). The pushforward groups equal rows; f2 is the eta-inner-product
    matrix. If f does not vanish on the support, f2 must be non-constant.
    """
    f = np.asarray(f, dtype=float)
    nu_x = np.asarray(nu_x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if f.shape != (space_x.size, space_y.size):
        raise DomainError("f must be an |X| x |Y| array")
    if np.abs(f).max() > 1 + LINALG_TOL:
        raise PreconditionError("need sup |f| <= 1")
    if not is_invariant_measure(space_y, eta, tol=COMPOSED_TOL):
        raise PreconditionError("eta must be invariant")
    prod = product_space(space_x, space_y)
    mass = np.kron(nu_x, eta)
    support = mass > 0
    defect = _invariance_defect(prod, f.reshape(-1), support)
    if defect > COMPOSED_TOL:
        raise PreconditionError(f"f is not invariant: defect {defect}")
    mean = float(mass @ f.reshape(-1))
    if abs(mean) > COMPOSED_TOL:
        raise PreconditionError(f"f must have zero mean, got {mean}")
    for space, nu in ((space_x, nu_x), (space_y, eta)):
        live = [orb for orb in orbits(space) if (nu[orb] > 0).any()]
        if len(live) != 1:
            raise PreconditionError("factors must be ergodic")

    mean_zero_residual = float(np.abs(f @ eta)[nu_x > 0].max())
    lambda_residual = float(np.abs(nu_x @ f)[eta > 0].max())
    f2 = f @ np.diag(eta) @ f.T
    support_x = nu_x > 0
    vals = f2[np.ix_(support_x, support_x)]
    constant = float(vals.max() - vals.min()) <= COMPOSED_TOL
    constant_value = float(vals.mean()) if constant else None
    f_vanishes = float(np.abs(f[support_x][:, eta > 0]).max()) <= COMPOSED_TOL
    dichotomy = f_vanishes or not constant
    rounded = [tuple(np.round(row, 12)) for row in f]
    weights: Counter = Counter()
    for x, key in enumerate(rounded):
        weights[key] += nu_x[x]
    pushforward = sorted((key, w) for key, w in weights.items() if w > 0)
    return FactorMapResult(p_f=f, pushforward=pushforward, f2=f2,
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
    peak = np.abs(f0).max()
    if peak <= COMPOSED_TOL:
        return None
    f = f0 / peak
    fm = factor_map(f, space_x, nu_x, space_y, nu_y)
    vectors = [key for key, _ in fm.pushforward]
    weights = [w for _, w in fm.pushforward]
    index = {v: i for i, v in enumerate(vectors)}
    actions = {}
    for label in space_x.labels():
        perm_x = space_x.gens[label]
        mapping = [None] * len(vectors)
        for x in range(space_x.size):
            if nu_x[x] <= 0:
                continue
            src = index[tuple(np.round(f[x], 12))]
            # p_f(s x) = Koopman image of p_f(x): reindex by s^-1 on Y
            moved = tuple(np.round(f[perm_x[x]], 12))
            mapping[src] = index[moved]
        actions[label] = tuple(mapping)
    arr = np.array(vectors)
    gram = arr @ np.diag(nu_y) @ arr.T
    preserved = True
    for label, mapping in actions.items():
        perm = np.array(mapping)
        if np.abs(gram[np.ix_(perm, perm)] - gram).max() > COMPOSED_TOL:
            preserved = False
    return IsometricWitness(vectors=vectors, weights=weights, actions=actions,
                            gram=gram, gram_preserved=preserved)


# -- moment tensors on orthogonal representations -------------------------------

@dataclass(frozen=True)
class OrthogonalRep:
    dim: int
    gens: Dict[str, np.ndarray]
    relators: Tuple[Tuple[str, ...], ...] = ()

    def __post_init__(self):
        eye = np.eye(self.dim)
        for label, mat in self.gens.items():
            mat = np.asarray(mat, dtype=float)
            if mat.shape != (self.dim, self.dim):
                raise DomainError(f"generator {label!r} has wrong shape")
            if np.abs(mat.T @ mat - eye).max() > LINALG_TOL:
                raise DomainError(f"generator {label!r} is not orthogonal")
        for rel in self.relators:
            if np.abs(self.word_matrix(rel) - eye).max() > COMPOSED_TOL:
                raise DomainError(f"relator {' '.join(rel)} does not hold")

    def matrix(self, token: str) -> np.ndarray:
        if token.endswith("^-1"):
            base = self.gens.get(token[:-3])
            if base is None:
                raise DomainError(f"unknown generator {token[:-3]!r}")
            return np.asarray(base, dtype=float).T
        mat = self.gens.get(token)
        if mat is None:
            raise DomainError(f"unknown generator {token!r}")
        return np.asarray(mat, dtype=float)

    def word_matrix(self, tokens: Sequence[str]) -> np.ndarray:
        out = np.eye(self.dim)
        for token in tokens:
            out = out @ self.matrix(token)
        return out


def rotation_rep(order: int, label: str = "t") -> OrthogonalRep:
    """Z/order acting on the plane by the 2 pi / order rotation."""
    theta = 2.0 * np.pi / order
    mat = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    return OrthogonalRep(dim=2, gens={label: mat},
                         relators=((label,) * order,))


def moment_tensor(atoms: Iterable[Tuple[np.ndarray, float]],
                  k: int) -> np.ndarray:
    """sigma_k = sum_i w_i v_i^{(x) k}, as a full d^k tensor."""
    atoms = [(np.asarray(v, dtype=float), float(w)) for v, w in atoms]
    dim = atoms[0][0].shape[0]
    out = np.zeros((dim,) * k) if k else np.zeros(())
    for v, w in atoms:
        t = np.array(w)
        for _ in range(k):
            t = np.multiply.outer(t, v)
        out = out + t
    return out


def _apply_tensor(mat: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """pi(s)^{(x) k} applied to a k-tensor (each axis contracted)."""
    out = tensor
    k = tensor.ndim
    for axis in range(k):
        out = np.tensordot(mat, out, axes=([1], [axis]))
        out = np.moveaxis(out, 0, axis)
    return out


@dataclass(frozen=True)
class MomentReport:
    stationarity_residual: float
    tensors: List[np.ndarray]             # sigma_1..sigma_k
    mixture_residuals: List[float]        # | sum_s mu(s) pi(s)^k sigma - sigma |
    generator_residuals: List[float]      # max_s | pi(s)^k sigma - sigma |
    invariance_residual: float            # atom matching per generator
    invariant: bool


def _match_atoms(left: List[Tuple[np.ndarray, float]],
                 right: List[Tuple[np.ndarray, float]]) -> float:
    """Max weight discrepancy after merging atoms by rounded coordinates."""
    def merged(atoms):
        acc: Dict[Tuple[float, ...], float] = {}
        for v, w in atoms:
            key = tuple(np.round(np.asarray(v, dtype=float), 10))
            acc[key] = acc.get(key, 0.0) + float(w)
        return acc

    a, b = merged(left), merged(right)
    keys = set(a) | set(b)
    return max(abs(a.get(kk, 0.0) - b.get(kk, 0.0)) for kk in keys)


def moment_tensor_invariance(rep: OrthogonalRep,
                             xi: List[Tuple[np.ndarray, float]],
                             mu: Dict[str, float],
                             k_max: int = 3) -> MomentReport:
    """Stationary measures on the unit ball are invariant: verify via moment
    tensors sigma_k (strict convexity pins each sigma_k under every
    generator), then confirm invariance of xi itself by atom matching."""
    xi = [(np.asarray(v, dtype=float), float(w)) for v, w in xi]
    total = sum(w for _, w in xi)
    if abs(total - 1.0) > LINALG_TOL:
        raise DomainError(f"xi mass {total} != 1")
    for v, _ in xi:
        if np.linalg.norm(v) > 1 + LINALG_TOL:
            raise PreconditionError("xi atoms must lie in the unit ball")
    mats = {label: rep.matrix(label) for label in mu}
    mixture = []
    for label, w in mu.items():
        mixture.extend((mats[label] @ v, w * wx) for v, wx in xi)
    stationarity = _match_atoms(mixture, xi)
    if stationarity > COMPOSED_TOL:
        raise PreconditionError(
            f"xi is not stationary: atom mismatch {stationarity}")
    tensors, mix_res, gen_res = [], [], []
    for k in range(1, k_max + 1):
        sigma = moment_tensor(xi, k)
        tensors.append(sigma)
        mixed = sum(w * _apply_tensor(mats[label], sigma)
                    for label, w in mu.items())
        mix_res.append(float(np.abs(mixed - sigma).max()))
        gen_res.append(max(float(np.abs(_apply_tensor(mats[label], sigma)
                                        - sigma).max())
                           for label in mu))
    inv_res = max(_match_atoms([(mats[label] @ v, w) for v, w in xi], xi)
                  for label in mu)
    return MomentReport(stationarity_residual=stationarity, tensors=tensors,
                        mixture_residuals=mix_res,
                        generator_residuals=gen_res,
                        invariance_residual=inv_res,
                        invariant=inv_res <= COMPOSED_TOL)
