"""Word norms from Cayley-graph BFS, ball tables, and semi-norm checks.

A BallTable holds every element of word norm <= R together with its exact
norm. Norm queries outside the table fail loudly (OutOfRangeError) instead
of estimating: downstream certified bounds need exact norms. For zd, free
groups and the lamplighter there are closed-form evaluators that agree with
BFS everywhere both are defined (this agreement is itself under test);
heisenberg norms are BFS-only.

Validation happens once, at the edge: ``build_ball`` multiplies valid
elements with the unchecked ``Group._mul``; ``check_value_seminorm`` checks
every key through the checked ``Group.inv`` before its unchecked pair loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .errors import DomainError, OutOfRangeError, ResourceLimitError
from .groups import FreeAbelian, FreeGroup, Group, Heisenberg, Lamplighter

BALL_FORMAT_VERSION = 1
DEFAULT_MAX_ELEMENTS = 2_000_000


@dataclass(frozen=True)
class BallTable:
    group: Group
    radius: int
    norms: Dict[object, int]

    def __contains__(self, g) -> bool:
        return g in self.norms

    def __len__(self) -> int:
        return len(self.norms)

    def sphere_sizes(self) -> list:
        """Number of elements at each exact norm 0..radius."""
        counts = [0] * (self.radius + 1)
        for n in self.norms.values():
            counts[n] += 1
        return counts


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


def word_norm(table: BallTable, g) -> int:
    """Exact word norm from a ball table; OutOfRangeError beyond its radius."""
    try:
        return table.norms[g]
    except KeyError:
        raise ball_miss(table)


def ball_miss(table: BallTable) -> OutOfRangeError:
    """The error of a norm query outside `table`."""
    return OutOfRangeError(
        f"element outside ball of radius {table.radius}; rebuild with a "
        f"larger radius", required=table.radius + 1,
    )


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


def norm_evaluator(group: Group,
                   ball: Optional[BallTable] = None) -> Callable:
    """Total norm function where a closed form exists, else ball-backed.

    For Heisenberg a ball table is required; queries outside it raise
    OutOfRangeError.
    """
    if isinstance(group, FreeGroup):
        return free_norm
    if isinstance(group, FreeAbelian):
        return l1_norm
    if isinstance(group, Lamplighter):
        return lamplighter_norm
    if isinstance(group, Heisenberg):
        if ball is None:
            raise DomainError(
                "heisenberg norms need a ball table (no closed form)")
        return lambda g: word_norm(ball, g)
    raise DomainError(f"no norm evaluator for {group.id_string}")


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


def check_seminorm(table: BallTable) -> SemiNormReport:
    """Verify rho(e)=0, rho(g)=rho(g^-1) and subadditivity on the ball.

    Subadditivity is checked for every pair whose product stays inside the
    ball; violations are exact integers and must be zero for word norms.
    """
    return check_value_seminorm(table.group, table.norms)


def check_value_seminorm(group: Group, values: Dict[object, float],
                         tolerance: float = 0) -> SemiNormReport:
    """Semi-norm axioms for an arbitrary value table keyed by elements.

    Used for pulled-back semi-norms (e.g. boundary log-norm exponents);
    values may be ints, Fractions or floats, and comparisons stay in the
    given type. Violations at most `tolerance` count as zero. Every key is
    validated by the checked inverse (DomainError on a foreign element);
    the pair loop then multiplies unchecked.
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
    tri = tri if tri > tolerance else 0
    sym = sym if sym > tolerance else 0
    return SemiNormReport(
        pairs_checked=pairs,
        max_triangle_violation=tri,
        max_symmetry_violation=sym,
        norm_of_identity=values.get(e, 0),
    )


def ball_to_text(table: BallTable) -> str:
    """Stable line-delimited serialization (cache format, versioned)."""
    group = table.group
    lines = [
        f"# groupwalk-ball v{BALL_FORMAT_VERSION}",
        f"group {group.id_string}",
        f"radius {table.radius}",
        f"count {len(table.norms)}",
    ]
    body = sorted(
        (group.format_element(g), n) for g, n in table.norms.items()
    )
    lines.extend(f"{s}\t{n}" for s, n in body)
    return "\n".join(lines) + "\n"


def ball_from_text(text: str) -> BallTable:
    """Inverse of ball_to_text; DomainError on any malformed text."""
    from .groups import group_from_id

    lines = text.splitlines()
    if not lines or not lines[0].startswith("# groupwalk-ball v"):
        raise DomainError("not a ball table file")
    header = {}
    idx = 1
    while idx < len(lines) and " " in lines[idx] and "\t" not in lines[idx]:
        key, _, val = lines[idx].partition(" ")
        header[key] = val
        idx += 1
    try:
        version = int(lines[0].rsplit("v", 1)[1])
        group = group_from_id(header["group"])
        radius, count = int(header["radius"]), int(header["count"])
        norms = {}
        for line in lines[idx:]:
            if line.strip():
                elem_s, _, n_s = line.partition("\t")
                norms[group.parse_element(elem_s)] = int(n_s)
    except (KeyError, ValueError) as exc:
        raise DomainError(f"malformed ball table ({exc!r})")
    if version != BALL_FORMAT_VERSION:
        raise DomainError(f"unsupported ball format version {version}")
    if len(norms) != count or not all(0 <= n <= radius
                                      for n in norms.values()):
        raise DomainError("ball table count or norms mismatch (corrupt file)")
    return BallTable(group=group, radius=radius, norms=norms)
