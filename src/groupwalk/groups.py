"""Canonical-form arithmetic for the built-in finitely generated groups.

Four groups are supported, each with a fixed symmetric generating set:

* ``zd:d``        free abelian Z^d; generators +-e_i; elements are int
                  d-tuples.
* ``free:k``      free group F_k; generators a_i^{+-1}; elements are reduced
                  words stored as tuples of nonzero ints (letter i as +i,
                  its inverse as -i). The identity is written ``e`` up to
                  rank 4 and ``1`` from rank 5, where ``e`` is a letter;
                  ``1`` parses as the identity on every rank.
* ``lamplighter`` Z/2 wr Z; generators walk +-1 and "switch the lamp at the
                  walker"; elements are (sorted tuple of ON lamp positions,
                  walker position).
* ``heisenberg``  discrete Heisenberg group (3x3 unitriangular over Z);
                  elements are integer triples (x, y, z) with the product
                  (x1,y1,z1)(x2,y2,z2) = (x1+x2, y1+y2, z1+z2+x1*y2).

Elements are plain immutable tuples, so equality and hashing are structural.
All operations go through the owning Group object. Validation happens once,
at the edge, and elements enter by one of two ways: ``parse_element`` reads
the text form and ``check_element`` accepts a tuple already in canonical
form. Both raise DomainError on a malformed element or one of a different
group; nothing rebuilds a canonical form from a non-canonical tuple. The
public ``mul``/``inv`` check their operands before computing. ``_mul`` is
the unchecked product for inner loops whose operands were validated already
(atoms of a FiniteMeasure, ball elements, generators). A failure message
is only formatted when a check fails, so checking an n-letter word costs
O(n). Operations are pure functions; elements are safe to share across
threads and processes.

Integer coordinates are Python ints (arbitrary width): overflow cannot occur,
let alone wrap silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .errors import DomainError

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# letter x >= 1 is _SYMBOLS[x]; its inverse -x indexes from the end to the
# capital
_SYMBOLS = ("", *_LETTERS, *_LETTERS.upper()[::-1])


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


@dataclass(frozen=True)
class Group:
    """Uniform interface over the built-in groups (see module docstring)."""

    @property
    def id_string(self) -> str:
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def mul(self, g, h):
        """Product g h after checking both operands."""
        raise NotImplementedError

    def _mul(self, g, h):
        """Product g h of two elements known to be canonical (no checks)."""
        raise NotImplementedError

    def inv(self, g):
        raise NotImplementedError

    def generators(self) -> tuple:
        """Standard symmetric generating set (closed under inverse, no e)."""
        raise NotImplementedError

    def check_element(self, g) -> None:
        """Raise DomainError unless g is a canonical element of this group."""
        raise NotImplementedError

    def format_element(self, g) -> str:
        raise NotImplementedError

    def parse_element(self, text: str):
        raise NotImplementedError

    def __str__(self) -> str:
        return self.id_string


@dataclass(frozen=True)
class FreeAbelian(Group):
    d: int

    def __post_init__(self):
        _require(self.d >= 1, "zd rank must be >= 1")

    @property
    def id_string(self) -> str:
        return f"zd:{self.d}"

    def identity(self):
        return (0,) * self.d

    def check_element(self, g) -> None:
        if not (isinstance(g, tuple) and len(g) == self.d
                and all(isinstance(x, int) for x in g)):
            raise DomainError(f"not a zd:{self.d} element: {g!r}")

    def mul(self, g, h):
        self.check_element(g)
        self.check_element(h)
        return self._mul(g, h)

    def _mul(self, g, h):
        return tuple(map(add, g, h))

    def inv(self, g):
        self.check_element(g)
        return tuple(-a for a in g)

    def generators(self):
        out = []
        for i in range(self.d):
            for sign in (1, -1):
                v = [0] * self.d
                v[i] = sign
                out.append(tuple(v))
        return tuple(out)

    def format_element(self, g) -> str:
        return ",".join(str(x) for x in g)

    def parse_element(self, text: str):
        if text == "e":
            return self.identity()
        try:
            g = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise DomainError(f"cannot parse zd element {text!r}")
        self.check_element(g)
        return g


def reduce_word(word) -> tuple:
    """Freely reduce a letter sequence (ints, inverse = negation)."""
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class FreeGroup(Group):
    k: int

    def __post_init__(self):
        _require(1 <= self.k <= 26, "free rank must be in 1..26")

    @property
    def id_string(self) -> str:
        return f"free:{self.k}"

    def identity(self):
        return ()

    def check_element(self, g) -> None:
        if not isinstance(g, tuple):
            raise DomainError(f"not a free:{self.k} element: {g!r}")
        prev = 0
        for x in g:
            if not (isinstance(x, int) and x != 0 and abs(x) <= self.k):
                raise DomainError(
                    f"letter {x!r} outside free:{self.k} alphabet")
            if x == -prev:
                raise DomainError(f"word {g!r} is not reduced")
            prev = x

    def mul(self, g, h):
        self.check_element(g)
        self.check_element(h)
        return self._mul(g, h)

    def _mul(self, g, h):
        i = len(g)
        j = 0
        while i > 0 and j < len(h) and g[i - 1] == -h[j]:
            i -= 1
            j += 1
        return g[:i] + h[j:]

    def inv(self, g):
        self.check_element(g)
        return tuple(-x for x in reversed(g))

    def generators(self):
        out = []
        for i in range(1, self.k + 1):
            out.append((i,))
            out.append((-i,))
        return tuple(out)

    def format_element(self, g) -> str:
        if not g:
            return "e" if self.k <= 4 else "1"   # "e" is the 5th letter
        return "".join([_SYMBOLS[x] for x in g])

    def parse_element(self, text: str):
        if text == "1" or (text == "e" and self.k <= 4):
            return ()
        word = []
        for ch in text:
            if ch in _LETTERS:
                x = _LETTERS.index(ch) + 1
            elif ch.lower() in _LETTERS:
                x = -(_LETTERS.index(ch.lower()) + 1)
            else:
                raise DomainError(f"bad letter {ch!r} in free word {text!r}")
            if abs(x) > self.k:
                raise DomainError(f"letter {ch!r} outside free:{self.k}")
            word.append(x)
        g = reduce_word(word)
        return g


@dataclass(frozen=True)
class Lamplighter(Group):
    """Wreath product Z/2 wr Z: finitely many ON lamps plus a walker."""

    @property
    def id_string(self) -> str:
        return "lamplighter"

    def identity(self):
        return ((), 0)

    def check_element(self, g) -> None:
        if not (isinstance(g, tuple) and len(g) == 2
                and isinstance(g[0], tuple) and isinstance(g[1], int)
                and all(isinstance(x, int) for x in g[0])
                and all(g[0][i] < g[0][i + 1]
                        for i in range(len(g[0]) - 1))):
            raise DomainError(f"not a lamplighter element: {g!r}")

    def mul(self, g, h):
        self.check_element(g)
        self.check_element(h)
        return self._mul(g, h)

    def _mul(self, g, h):
        (lamps_g, p), (lamps_h, q) = g, h
        lamps = set(lamps_g)
        for u in lamps_h:
            lamps.symmetric_difference_update((u + p,))
        return (tuple(sorted(lamps)), p + q)

    def inv(self, g):
        self.check_element(g)
        lamps, p = g
        return (tuple(sorted(u - p for u in lamps)), -p)

    def generators(self):
        return (((), 1), ((), -1), ((0,), 0))

    def format_element(self, g) -> str:
        lamps, pos = g
        return "{" + ",".join(str(x) for x in lamps) + "}|" + str(pos)

    def parse_element(self, text: str):
        if text == "e":
            return self.identity()
        try:
            lamp_part, pos_part = text.split("|")
            assert lamp_part.startswith("{") and lamp_part.endswith("}")
            inner = lamp_part[1:-1]
            lamps = tuple(int(x) for x in inner.split(",")) if inner else ()
            g = (tuple(sorted(set(lamps))), int(pos_part))
        except (ValueError, AssertionError):
            raise DomainError(f"cannot parse lamplighter element {text!r}")
        if len(g[0]) != len(lamps):
            raise DomainError(
                f"repeated lamp in lamplighter element {text!r}")
        return g


@dataclass(frozen=True)
class Heisenberg(Group):
    """Discrete Heisenberg group in (x, y, z) coordinates.

    (x, y, z) encodes the unitriangular matrix [[1, x, z], [0, 1, y],
    [0, 0, 1]]; the coordinate product avoids any matrix allocation.
    """

    @property
    def id_string(self) -> str:
        return "heisenberg"

    def identity(self):
        return (0, 0, 0)

    def check_element(self, g) -> None:
        if not (isinstance(g, tuple) and len(g) == 3
                and all(isinstance(x, int) for x in g)):
            raise DomainError(f"not a heisenberg element: {g!r}")

    def mul(self, g, h):
        self.check_element(g)
        self.check_element(h)
        return self._mul(g, h)

    def _mul(self, g, h):
        (x1, y1, z1), (x2, y2, z2) = g, h
        return (x1 + x2, y1 + y2, z1 + z2 + x1 * y2)

    def inv(self, g):
        self.check_element(g)
        x, y, z = g
        return (-x, -y, -z + x * y)

    def generators(self):
        return ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))

    def format_element(self, g) -> str:
        return ",".join(str(x) for x in g)

    def parse_element(self, text: str):
        if text == "e":
            return self.identity()
        try:
            g = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise DomainError(f"cannot parse heisenberg element {text!r}")
        self.check_element(g)
        return g


def _parse_rank(arg: str, id_string: str) -> int:
    try:
        return int(arg)
    except ValueError:
        raise DomainError(f"bad rank {arg!r} in group id {id_string!r}")


def group_from_id(id_string: str) -> Group:
    """Build a group from its string id: "zd:3", "free:2", "lamplighter",
    "heisenberg". "z" and "zd" alone mean zd:1."""
    name, _, arg = id_string.partition(":")
    name = name.strip().lower()
    if name in ("zd", "z"):
        return FreeAbelian(_parse_rank(arg, id_string) if arg else 1)
    if name == "free":
        if not arg:
            raise DomainError("free group needs a rank, e.g. free:2")
        return FreeGroup(_parse_rank(arg, id_string))
    if name == "lamplighter":
        return Lamplighter()
    if name == "heisenberg":
        return Heisenberg()
    raise DomainError(f"unknown group id {id_string!r}")
