"""Sparse probability measures on groups and exact convolution powers.

A FiniteMeasure is a finitely supported measure together with the mass lost
to truncation (the "deficit"). Two arithmetic modes exist and never mix
inside a pipeline: "exact" (rational weights, identities hold on the nose)
and "float64". Truncation drops atoms below a weight threshold and adds the
exact lost mass to the deficit, so every downstream quantity can report an
error interval instead of silently drifting.

The stored form is integer numerators over one common denominator: in
exact mode ``weights`` maps each element to an int c and the weight is
c / ``den``; in float64 mode ``weights`` holds the float weights and
``den`` is 1. ``atoms`` is a view built on each access (reduced Fractions
in exact mode), never a stored cache, so loops read ``weights`` or bind
the view once.

Validation happens once, at the edge: ``finite_measure`` (and the parsers
built on it) checks every atom and puts the weights over their lcm, and
convolution then multiplies atoms with the unchecked ``Group._mul`` and
the stored numerators; the product's denominator is ``mu.den * nu.den``,
left unreduced. A Fraction is built only where a caller asks for a weight
(``atoms``, ``from_numerator``). Float weights go through the same loops
over the denominator 1.

Measures are immutable values. Convolution runs single-threaded with a
fixed accumulation order, so float-mode results are bit-identical from run
to run (exact mode is order-independent anyway). Convolution powers have an
atom budget (``DEFAULT_MAX_ATOMS``): exceeding it raises ResourceLimitError
naming the last completed power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, ItemsView, Iterable, Mapping, Optional, Tuple

from .errors import DomainError, ResourceLimitError
from .groups import Group, group_from_id

MODE_EXACT = "exact"
MODE_FLOAT = "float64"
MEASURE_FORMAT_VERSION = 1
DEFAULT_MAX_ATOMS = 2_000_000

_MASS_TOL = 1e-12
_MAX_EXPONENT = 4300        # |decimal exponent| of an exact weight: int()'s
                            # default limit on the digits it parses


@dataclass(frozen=True)
class FiniteMeasure:
    group: Group
    weights: Mapping  # element -> int numerator (exact) or float weight
    den: int          # common denominator; 1 in float mode
    deficit: object   # Fraction in exact mode, float in float mode
    mode: str

    @property
    def atoms(self) -> Dict:
        """element -> weight as a fresh dict: reduced Fractions in exact
        mode, the float weights in float mode."""
        if self.mode == MODE_EXACT:
            den = self.den
            return {g: Fraction(c, den) for g, c in self.weights.items()}
        return dict(self.weights)

    def mass(self):
        total = sum(self.weights.values())
        return from_numerator(total, self.den, self.mode)

    def support(self):
        return self.weights.keys()

    def __len__(self) -> int:
        return len(self.weights)


def _coerce_weight(w, mode: str):
    if mode == MODE_EXACT:
        if isinstance(w, float):
            raise DomainError("float weight in exact mode")
        return Fraction(w)
    return float(w)


def finite_measure(group: Group, atoms: Mapping, deficit=0,
                   mode: str = MODE_EXACT) -> FiniteMeasure:
    """Validated constructor: positive weights, mass + deficit = 1."""
    if mode not in (MODE_EXACT, MODE_FLOAT):
        raise DomainError(f"unknown arithmetic mode {mode!r}")
    clean = {}
    for g, w in atoms.items():
        group.check_element(g)
        w = _coerce_weight(w, mode)
        if w <= 0:
            raise DomainError(f"non-positive weight {w} at {g!r}")
        if g in clean:
            raise DomainError(f"duplicate atom {g!r}")
        clean[g] = w
    deficit = _coerce_weight(deficit, mode)
    total = sum(clean.values()) + deficit
    if mode == MODE_EXACT:
        if total != 1:
            raise DomainError(f"mass {total} != 1 in exact mode")
    elif abs(total - 1.0) > _MASS_TOL:
        raise DomainError(f"mass {total} deviates from 1 beyond {_MASS_TOL}")
    den = 1
    if mode == MODE_EXACT:
        den = math.lcm(*(w.denominator for w in clean.values()))
        clean = {g: w.numerator * (den // w.denominator)
                 for g, w in clean.items()}
    return FiniteMeasure(group=group, weights=clean, den=den, deficit=deficit,
                         mode=mode)


def dirac(group: Group, g=None, mode: str = MODE_EXACT) -> FiniteMeasure:
    if g is None:
        g = group.identity()
    one = Fraction(1) if mode == MODE_EXACT else 1.0
    return finite_measure(group, {group.canonical(g): one}, mode=mode)


def srw(group: Group, mode: str = MODE_EXACT) -> FiniteMeasure:
    """Uniform measure on the standard symmetric generating set."""
    gens = group.generators()
    n = len(gens)
    w = Fraction(1, n) if mode == MODE_EXACT else 1.0 / n
    return finite_measure(group, {s: w for s in gens}, mode=mode)


def _check_compatible(mu: FiniteMeasure, nu: FiniteMeasure) -> None:
    if mu.group != nu.group:
        raise DomainError(
            f"measures on different groups: {mu.group.id_string} vs "
            f"{nu.group.id_string}")
    if mu.mode != nu.mode:
        raise DomainError(f"mixed arithmetic modes: {mu.mode} vs {nu.mode}")


def numerators(mu: FiniteMeasure) -> Tuple[ItemsView, int]:
    """((element, numerator) pairs, common denominator D) of mu's atoms:
    the stored form, read in O(1).

    In exact mode the numerators are ints over D (a common denominator,
    not necessarily the least one); in float mode they are the float
    weights over D = 1.
    """
    return mu.weights.items(), mu.den


def from_numerator(c, den: int, mode: str):
    """The weight c / den: a reduced Fraction in exact mode, c in float."""
    return Fraction(c, den) if mode == MODE_EXACT else c


def convolve(mu: FiniteMeasure, nu: FiniteMeasure, threshold=0,
             max_atoms: Optional[int] = None) -> FiniteMeasure:
    """(mu * nu)(s) = sum over g h = s of mu(g) nu(h), truncated.

    Atoms of the product with weight < threshold are dropped and their total
    mass added to the deficit. The deficit composes super-additively: the
    output deficit is 1 - (1-d_mu)(1-d_nu) plus the newly dropped mass.
    More than max_atoms product atoms (before truncation) raise
    ResourceLimitError while the product is being accumulated.
    """
    _check_compatible(mu, nu)
    mode = mu.mode
    mul = mu.group._mul
    right = list(nu.weights.items())
    den = mu.den * nu.den
    out: Dict = {}
    get = out.get
    for g, a in mu.weights.items():
        for h, b in right:
            s = mul(g, h)
            out[s] = get(s, 0) + a * b
        if max_atoms is not None and len(out) > max_atoms:
            raise ResourceLimitError(
                f"convolution on {mu.group.id_string} exceeded {max_atoms} "
                f"atoms")
    dropped = 0 if mode == MODE_EXACT else 0.0
    if threshold:
        # c / den < t  <=>  c < ceil(t den) for integer c
        cut = (math.ceil(Fraction(threshold) * den) if mode == MODE_EXACT
               else threshold)
        kept = {}
        for s, c in out.items():
            if c < cut:
                dropped += c
            else:
                kept[s] = c
        out = kept
    base = mu.deficit + nu.deficit - mu.deficit * nu.deficit
    return FiniteMeasure(group=mu.group, weights=out, den=den,
                         deficit=base + from_numerator(dropped, den, mode),
                         mode=mode)


def power(mu: FiniteMeasure, n: int, threshold=0,
          max_atoms: int = DEFAULT_MAX_ATOMS) -> FiniteMeasure:
    """n-fold convolution power (the last item of power_sequence); n = 0
    gives the point mass at e."""
    if n < 0:
        raise DomainError("convolution power needs n >= 0")
    acc = dirac(mu.group, mode=mu.mode)
    for _, acc in power_sequence(mu, n, threshold=threshold,
                                 max_atoms=max_atoms):
        pass
    return acc


def power_sequence(mu: FiniteMeasure, n_max: int, threshold=0,
                   max_atoms: int = DEFAULT_MAX_ATOMS
                   ) -> Iterable[Tuple[int, FiniteMeasure]]:
    """Yield (n, mu^{*n}) for n = 1..n_max along the linear chain.

    A step whose product exceeds max_atoms atoms raises ResourceLimitError
    naming the last completed n.
    """
    acc = dirac(mu.group, mode=mu.mode)
    for n in range(1, n_max + 1):
        try:
            acc = convolve(acc, mu, threshold=threshold, max_atoms=max_atoms)
        except ResourceLimitError as exc:
            raise ResourceLimitError(f"{exc}; completed n = {n - 1}") from None
        yield n, acc


def adjoint(mu: FiniteMeasure) -> FiniteMeasure:
    """Weights transported by inversion; an involution."""
    group = mu.group
    weights = {group.inv(g): c for g, c in mu.weights.items()}
    return FiniteMeasure(group=group, weights=weights, den=mu.den,
                         deficit=mu.deficit, mode=mu.mode)


def is_symmetric(mu: FiniteMeasure) -> bool:
    return adjoint(mu).weights == mu.weights


def check_support_generates(mu: FiniteMeasure, targets, depth: int) -> bool:
    """True iff every target appears among products of <= depth support atoms.

    False is inconclusive ("not verified at depth"): the semigroup generated
    by the support may still reach the targets deeper in.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    group = mu.group
    want = {group.canonical(t) for t in targets}
    layer = set(mu.weights)
    reached = set(layer)
    want -= reached
    for _ in range(depth - 1):
        if not want:
            break
        layer = {group.mul(g, s) for g in layer for s in mu.weights}
        reached |= layer
        want -= layer
    return not want


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


def shannon_entropy(mu: FiniteMeasure) -> float:
    """Shannon entropy (natural log) of the retained atoms."""
    h = 0.0
    den = mu.den
    for c in mu.weights.values():
        x = c / den
        if x > 0.0:
            h -= x * math.log(x)
    return h


def _format_weight(w) -> str:
    if isinstance(w, Fraction):
        return f"{w.numerator}/{w.denominator}"
    return repr(w)


def _parse_weight(text: str, mode: str):
    """Exact or float64 weight; DomainError on malformed or non-finite."""
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            w = Fraction(int(num), int(den))
            w = w if mode == MODE_EXACT else float(w)
        elif mode == MODE_EXACT:
            # Fraction("1e-99999999") would build 10**99999999
            exponent = text.lower().partition("e")[2]
            if exponent and abs(int(exponent)) > _MAX_EXPONENT:
                raise ValueError(text)
            w = Fraction(text)
        else:
            w = float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"bad weight {text!r}")
    if isinstance(w, float) and not math.isfinite(w):
        raise DomainError(f"non-finite weight {text!r}")
    return w


def measure_to_text(mu: FiniteMeasure) -> str:
    """Line-delimited serialization: header, then one "element weight" line
    per atom (weights as p/q in exact mode)."""
    lines = [
        f"# groupwalk-measure v{MEASURE_FORMAT_VERSION}",
        f"group {mu.group.id_string}",
        f"mode {mu.mode}",
        f"deficit {_format_weight(mu.deficit)}",
    ]
    body = sorted(
        (mu.group.format_element(g), w) for g, w in mu.atoms.items()
    )
    lines.extend(f"{s} {_format_weight(w)}" for s, w in body)
    return "\n".join(lines) + "\n"


def measure_from_text(text: str) -> FiniteMeasure:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# groupwalk-measure v"):
        raise DomainError("not a measure file")
    version = int(lines[0].rsplit("v", 1)[1])
    if version != MEASURE_FORMAT_VERSION:
        raise DomainError(f"unsupported measure format version {version}")
    header = {}
    idx = 1
    for line in lines[1:]:
        key, _, val = line.partition(" ")
        if key in ("group", "mode", "deficit"):
            header[key] = val
            idx += 1
        else:
            break
    group = group_from_id(header["group"])
    mode = header["mode"]
    atoms = {}
    for line in lines[idx:]:
        elem_s, _, w_s = line.rpartition(" ")
        atoms[group.parse_element(elem_s)] = _parse_weight(w_s, mode)
    return finite_measure(group, atoms,
                          deficit=_parse_weight(header["deficit"], mode),
                          mode=mode)


def parse_measure_spec(group: Group, spec: str,
                       mode: str = MODE_EXACT) -> FiniteMeasure:
    """Parse a CLI measure spec: "srw" or "elem=weight;elem=weight;..."."""
    spec = spec.strip()
    if spec == "srw":
        return srw(group, mode=mode)
    atoms = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        elem_s, sep, w_s = part.partition("=")
        if not sep:
            raise DomainError(f"bad measure atom {part!r} (want elem=weight)")
        g = group.parse_element(elem_s.strip())
        if g in atoms:
            raise DomainError(f"duplicate atom {elem_s!r} in measure spec")
        atoms[g] = _parse_weight(w_s.strip(), mode)
    if not atoms:
        raise DomainError("empty measure spec")
    return finite_measure(group, atoms, mode=mode)
