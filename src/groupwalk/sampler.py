"""Seeded, reproducible Monte Carlo sampling of random-walk trajectories.

Determinism contract: trajectory i draws from a substream derived from
(seed, i) only (numpy SeedSequence with spawn_key=(i,) feeding PCG64), so
results do not depend on how trajectories are distributed over workers.
Aggregates are kept as integer counters (norm sums, endpoint tallies), which
makes the combined statistics exactly order-independent; floats appear only
in the final reports.

Increments are drawn by inverse CDF over the measure's atoms sorted by their
canonical string form, a fixed cross-platform order. ``sample_trajectory``
is the checked reference walk: it draws ``substream(seed, i).random(steps)``
and maps each double to an atom with ``searchsorted`` (``draw_indices``).

Trajectories are stepped in blocks of up to BLOCK_ROWS rows by one batch
kernel per group. A block draws the next (steps, rows) segment of its rows'
raw 64-bit PCG64 words, at most SEGMENT_DRAWS per block at a time (16 steps
of a full block), with segments also ending at every checkpoint. PCG64 words
come out in sequence, so drawing the segments in turn gives exactly the
words x behind ``substream(seed, i).random(steps)``, whose doubles are
``(x >> 11) * 2^-53``. A guide table (``_GuideTable``) maps each word to
the atom index ``searchsorted`` gives its double, on integer thresholds
only, so every aggregate is the same for any block size, segment size and
worker count. Each numpy pass of the stream and the kernels runs along the
rows of one step. Norm statistics read the kernels' array norms, each a
group's closed-form word norm in numpy; endpoint and prefix tallies count
each block's positions and format each distinct element once.

With several workers the trajectories are split into chunks: chunk 0 runs
in the calling process and every other chunk in one child forked for it,
which inherits the measure and pickles its result, or its exception, into
a pipe. The caller reaps every child on every exit path. Without
``os.fork`` all chunks run in the caller, with the same output.

``substream`` is the reference definition of a trajectory's generator. The
walk runs a block's streams as arrays instead (``_BlockStream``): it runs
SeedSequence's uint32 hashing vectorized over the block's spawn keys, seeds
each row's PCG64 state and increment from the four state words as PCG64
does, and steps all rows' 128-bit states as pairs of uint64 arrays, so every
row gets exactly the words ``PCG64.random_raw`` would give it.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ResourceLimitError
from .groups import FreeAbelian, FreeGroup, Group, Heisenberg, Lamplighter
from .measures import FiniteMeasure, power, total_variation

BLOCK_ROWS = 1024           # trajectories stepped together
SEGMENT_DRAWS = 1 << 14     # words drawn per block per segment
MAX_WINDOW_WIDTH = 1 << 17  # lamplighter lamp window budget per trajectory
_PAD_INVERSE = 127          # outside every free alphabet, and not 0
_TOGGLE = np.uint8(1)


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    trajectories: int
    steps: int
    workers: int = 1

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if self.trajectories < 1:
            raise DomainError("trajectories must be >= 1")
        if self.steps < 0:
            raise DomainError("steps must be >= 0")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")


def substream(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trajectory generator, independent of worker layout.

    This is the reference definition of trajectory `index`'s random stream.
    The walk steps a whole block of these as arrays with ``_BlockStream``,
    which gives the same raw words."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


# SeedSequence's constants (numpy.random.bit_generator): the pool size and
# the multipliers of its hashmix, mix and generate_state steps.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
_U32, _ULOW = np.uint64(32), np.uint64(_M32)


def _uint32_words(n: int) -> List[int]:
    """SeedSequence's split of a non-negative int, least significant first."""
    return [(n >> s) & _M32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hash of the Python int `value` with the running hash
    constant `const`; returns the hash and the next constant."""
    new = const * mult & _M32
    value = (value ^ const) * new & _M32
    return value ^ value >> 16, new


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _absorb(pool: list, words, const: int):
    """Mix entropy words beyond the first _POOL into every pool lane."""
    for w in words:
        for dst in range(_POOL):
            h, const = _hashmix(w, const)
            pool[dst] = _mix(pool[dst], h)
    return pool, const


def _hash_lanes(values: np.ndarray, lanes: int, const: int, mult: int):
    """`lanes` successive ``_hashmix`` calls at once: lane k hashes `values`
    (uint32, broadcast to (lanes, rows)) or its row k with the k-th running
    constant. Returns the hashes and the next constant."""
    xors, mults = [], []
    for _ in range(lanes):
        xors.append(const)
        const = const * mult & _M32
        mults.append(const)
    h = values ^ np.array(xors, dtype=np.uint32)[:, None]
    h *= np.array(mults, dtype=np.uint32)[:, None]
    return h ^ h >> np.uint32(16), const


def _seed_words(seed: int, first: int, stop: int) -> np.ndarray:
    """Row i - first is ``SeedSequence(seed, spawn_key=(i,))
    .generate_state(4, np.uint64)``, for i in first..stop-1.

    SeedSequence hashes the uint32 words of the seed (padded with zeros to
    the pool size) followed by those of the spawn key i. Its hash constants
    advance the same way whatever the words are, so the seed's part is
    computed once in Python ints and only the spawn words are hashed per
    row, as (pool lane, row) uint32 arrays. Rows are grouped by how many
    uint32 words their index takes."""
    run = _uint32_words(seed)
    run += [0] * (_POOL - len(run))
    const, pool = _INIT_A, []
    for w in run[:_POOL]:
        h, const = _hashmix(w, const)
        pool.append(h)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    pool, const = _absorb(pool, run[_POOL:], const)
    blocks = []
    for count in range(len(_uint32_words(first)),
                       len(_uint32_words(stop - 1)) + 1):
        lo = max(first, 1 << 32 * (count - 1) if count > 1 else 0)
        hi = min(stop, 1 << 32 * count)
        lanes = np.repeat(np.array(pool, dtype=np.uint32)[:, None], hi - lo,
                          axis=1)
        # the spawn words of lo..hi-1, by long addition of the row offset
        carry, c = np.arange(hi - lo, dtype=np.uint64), const
        for shift in range(0, 32 * count, 32):
            column = carry + np.uint64((lo >> shift) & _M32)
            h, c = _hash_lanes((column & _ULOW).astype(np.uint32), _POOL, c,
                               _MULT_A)
            lanes = _mix(lanes, h)
            carry = column >> _U32
        # generate_state(4, uint64): eight hashed uint32s, low word first
        h, _ = _hash_lanes(np.concatenate([lanes, lanes]), 2 * _POOL,
                           _INIT_B, _MULT_B)
        h = h.astype(np.uint64)
        blocks.append((h[0::2] | h[1::2] << _U32).T)
    return np.concatenate(blocks)


# PCG64 as numpy.random runs it: a 128-bit LCG stepped by _PCG_MULT, whose
# output is the XSL-RR of the state after each step. All the arithmetic below
# is on uint64 arrays with np.uint64 operands (a state is a hi and a lo
# word), so no numpy version's casting rules can turn it into floats.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1
SLAB_COLUMNS = 32           # steps per row jumped in one array pass
_U1, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 58, 63, 64))


def _limbs(values) -> Tuple[np.ndarray, ...]:
    """128-bit ints as (len(values), 1) uint64 columns: the low word's two
    32-bit halves, the low word and the high word."""
    lo = [v & (1 << 64) - 1 for v in values]
    return tuple(np.array(words, dtype=np.uint64)[:, None] for words in (
        [w & _M32 for w in lo], [w >> 32 for w in lo], lo,
        [v >> 64 for v in values]))


@functools.cache
def _jumps(width: int):
    """Limbs of A_j = M^j and C_j = M^(j-1) + ... + M + 1 for j = 1..width:
    j PCG64 steps take a state s with increment inc to A_j s + C_j inc."""
    a, c, powers, sums = 1, 0, [], []
    for _ in range(width):
        a, c = a * _PCG_MULT & _M128, (c + a) & _M128
        powers.append(a)
        sums.append(c)
    return _limbs(powers), _limbs(sums)


def _split(hi: np.ndarray, lo: np.ndarray) -> Tuple[np.ndarray, ...]:
    """A 128-bit value as the limbs ``_muladd`` adds: the low word's two
    32-bit halves and the high word."""
    return lo & _ULOW, lo >> _U32, hi


def _muladd(hi: np.ndarray, lo: np.ndarray, const, width: int, add=None):
    """(hi, lo) times the first `width` constants of `const`, plus `add`
    (limbs from ``_split``), mod 2^128: a (1, rows) row of states times a
    (width, 1) column of constants, as a (width, rows) hi and lo. The
    product's middle words are summed from 32-bit halves, so no sum can
    wrap before its carry is taken."""
    c0, c1, clo, chi = (limb[:width] for limb in const)
    s0, s1 = lo & _ULOW, lo >> _U32
    low = s0 * c0
    mid = s1 * c0
    top = s1 * c1
    if add is not None:
        low += add[0]
        mid += add[1]
        top += add[2]
    mid += low >> _U32
    cross = s0 * c1
    cross += mid & _ULOW
    top += mid >> _U32
    top += cross >> _U32
    top += lo * chi
    top += hi * clo
    cross <<= _U32
    low &= _ULOW
    cross |= low
    return top, cross


class _BlockStream:
    """The PCG64 streams of trajectories first..stop-1, stepped together.

    Column i - first of the (1, rows) hi and lo state words holds the state
    that PCG64 seeds from ``SeedSequence(seed, spawn_key=(i,))``, and of
    ``inc`` its increment: with the four ``_seed_words`` w0..w3, ``inc =
    (w2 w3) << 1 | 1`` and ``state = ((inc + (w0 w1)) M + inc) mod 2^128``.
    ``raw(n)`` returns the rows' next n raw 64-bit words as an (n, rows)
    array whose column i - first is ``PCG64(SeedSequence(seed,
    spawn_key=(i,))).random_raw(n)``; ``substream(seed, i).random(n)`` is
    that column's ``(x >> 11) * 2^-53``. A slab of up to SLAB_COLUMNS steps
    jumps every step from the rows' states at once, ``state_j = A_j state +
    C_j inc``; the ``C_j inc`` are computed once per stream."""

    def __init__(self, seed: int, first: int, stop: int):
        w0, w1, w2, w3 = _seed_words(seed, first, stop).T[:, None]
        inc_hi, inc_lo = (w2 << _U1) | (w3 >> _U63), (w3 << _U1) | _U1
        self.inc = inc_hi, inc_lo
        start = inc_lo + w1
        # one step from inc + (w0 w1): A_1 = M, C_1 = 1
        self.state = _muladd(inc_hi + w0 + (start < inc_lo), start,
                             _jumps(SLAB_COLUMNS)[0], 1, _split(*self.inc))
        self.rows = w0.shape[1]
        self._offsets = None

    def _increments(self, width: int):
        """Limbs of C_j inc for j = 1..width, widened when a slab needs
        more."""
        if self._offsets is None or len(self._offsets[0]) < width:
            self._offsets = _split(*_muladd(*self.inc, _jumps(SLAB_COLUMNS)[1],
                                            width))
        return tuple(limb[:width] for limb in self._offsets)

    def raw(self, n: int) -> np.ndarray:
        out = np.empty((n, self.rows), dtype=np.uint64)
        powers = _jumps(SLAB_COLUMNS)[0]
        for done in range(0, n, SLAB_COLUMNS):
            width = min(SLAB_COLUMNS, n - done)
            hi, lo = _muladd(*self.state, powers, width,
                             self._increments(width))
            self.state = hi[-1:].copy(), lo[-1:].copy()
            # XSL-RR: rotate hi ^ lo right by the top six bits of the state
            turn = hi >> _U58
            lo ^= hi
            word = out[done:done + width]
            np.right_shift(lo, turn, out=word)
            np.subtract(_U64, turn, out=turn)
            turn &= _U63
            lo <<= turn
            word |= lo
        return out


def atom_table(mu: FiniteMeasure):
    """Atoms in canonical string order with their cumulative distribution."""
    fmt = mu.group.format_element
    atoms = mu.atoms
    elems = sorted(atoms, key=fmt)
    weights = np.array([float(atoms[g]) for g in elems])
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0  # guard the float edge; deficit mass never samples
    return elems, cdf


def draw_indices(rng: np.random.Generator, cdf: np.ndarray,
                 steps: int) -> np.ndarray:
    u = rng.random(steps)
    return np.searchsorted(cdf, u, side="right")


class _GuideTable:
    """``searchsorted(cdf, u, side="right")`` for the raw PCG64 words x
    whose doubles are ``u = (x >> 11) * 2^-53``, on integers only: the
    guide-table inverse CDF of Chen and Asau (1974).

    With ``T_i = ceil(cdf_i 2^53)``, cdf_i <= u exactly when T_i <= x >> 11,
    i.e. when x > ``limits[i] = T_i 2^11 - 1`` (clamped to 2^64 - 1, which
    no x passes; a pad of that value follows the last atom). The top
    `bits` of x pick one of 2^bits buckets; ``base`` holds the count of
    thresholds every x of a bucket reaches, and ``depth`` the most
    thresholds inside one bucket, so `depth` rounds of ``idx += x >
    limits[idx]`` finish every lookup. An atom with T_i = 0 is in every
    bucket's base, so its limit is never read."""

    def __init__(self, cdf: np.ndarray):
        reach = np.minimum(np.ceil(np.ldexp(cdf, 53)), 2.0 ** 53)
        limits = [max(int(t) << 11, 1) - 1 for t in reach.tolist()]
        self.limits = np.array(limits + [(1 << 64) - 1], dtype=np.uint64)
        bits = min(max((len(cdf) - 1).bit_length() + 2, 4), 16)
        self.shift = np.uint64(64 - bits)
        edges = np.ldexp(np.arange((1 << bits) + 1, dtype=np.float64),
                         53 - bits)
        self.base = np.searchsorted(reach, edges[:-1], side="right")
        self.depth = int((np.searchsorted(reach, edges[1:], side="left")
                          - self.base).max())

    def indices(self, x: np.ndarray) -> np.ndarray:
        idx = self.base.take(x >> self.shift)
        for _ in range(self.depth):
            idx += x > self.limits.take(idx)
        return idx


def sample_trajectory(group: Group, mu: FiniteMeasure, steps: int,
                      rng: np.random.Generator) -> List:
    """Positions X_1..X_n of the walk with i.i.d. mu increments (X_0 = e)."""
    elems, cdf = atom_table(mu)
    x = group.identity()
    out = []
    for i in draw_indices(rng, cdf, steps):
        x = group.mul(x, elems[int(i)])
        out.append(x)
    return out


# -- batch walk kernels -------------------------------------------------------
#
# One kernel per group steps a block of trajectories (rows) at once on numpy
# arrays. ``advance(idx)`` applies a segment of atom indices of shape
# (steps, rows); ``positions()`` returns the rows' current positions as
# ordinary group elements (tuples of Python ints), and ``norms()`` their
# word norms as an integer array (int64, or Python ints where int64 could
# wrap), by the closed forms of ``wordmetric.norm_evaluator``. Every
# kernel's memory grows with rows x the range the walk has visited (plus one
# segment), not with steps x the largest move.

def _int_dtype(bound: int):
    """int64 when every value stays below `bound` in magnitude, else Python
    ints in an object array, so coordinates can never wrap."""
    return np.int64 if bound < 2 ** 62 else object


class _ZdWalk:
    """zd: a row is an integer vector; a segment adds its summed increments."""

    def __init__(self, elems, rows: int, steps: int):
        reach = max(steps, 1) * max(abs(c) for g in elems for c in g)
        dtype = _int_dtype(self.bound(reach))
        # (coordinate, atom): ``take`` then gathers a (coordinate, steps,
        # rows) slab, summed over steps along contiguous rows
        self.inc = np.array(elems, dtype=dtype).T.copy()
        self.pos = np.zeros((rows, len(self.inc)), dtype=dtype)

    def advance(self, idx: np.ndarray) -> None:
        self.pos += self.inc.take(idx, axis=1).sum(axis=1).T

    @staticmethod
    def bound(reach: int) -> int:
        """A bound on the values formed from coordinates of magnitude <=
        reach, with room for a norm's sum of coordinates."""
        return reach * (reach + 1)

    def positions(self) -> list:
        return list(map(tuple, self.pos.tolist()))

    def norms(self) -> np.ndarray:
        return np.abs(self.pos).sum(axis=1)


class _HeisenbergWalk(_ZdWalk):
    """heisenberg: (x, y) as in zd, and z += z2 + x_prev * y2 per step."""

    def advance(self, idx: np.ndarray) -> None:
        inc = self.inc.take(idx, axis=1)
        dx, dy = inc[0], inc[1]
        x_prev = np.cumsum(dx, axis=0) - dx + self.pos[:, 0]
        self.pos[:, 2] += (x_prev * dy).sum(axis=0)
        self.pos += inc.sum(axis=1).T

    @staticmethod
    def bound(reach: int) -> int:
        """|x|, |y| <= reach and |z| <= reach (reach + 1); the norm's
        reflection z := xy - z stays below 2 reach (reach + 1), so its 4z
        below 8 reach (reach + 1), which also covers xy, y^2 and the square
        of the root of 4z."""
        return 8 * reach * (reach + 1)

    def norms(self) -> np.ndarray:
        """``heisenberg_norm`` per row: the same reductions and cases as
        whole-array selections. ceil(2 sqrt z) is the float root of 4z - 1
        corrected by one in integers either way (exact for int64 rows
        below the kernel's bound), or ``math.isqrt`` per Python-int row."""
        x, y, z = self.pos.T
        z = np.where(x < 0, -z, z)
        x = np.abs(x)
        z = np.where(y < 0, -z, z)
        y = np.abs(y)
        xy = x * y
        z = np.where(2 * z < xy, xy - z, z)
        x, y = np.minimum(x, y), np.maximum(x, y)
        # the clamps only touch rows whose case is not selected: thin is
        # selected only where y >= 1, and wide only where z >= 1
        square = np.maximum(4 * z - 1, 0)
        if square.dtype == object:
            root = np.frompyfunc(math.isqrt, 1, 1)(square)
        else:
            root = np.sqrt(square).astype(np.int64)
            root -= root * root > square
            root += (root + 1) * (root + 1) <= square
        thin = 2 * -(-z // np.maximum(y, 1)) + y - x
        wide = 2 * (root + 1) - x - y
        return np.where(z <= xy, x + y, np.where(y * y >= z, thin, wide))


class _FreeWalk:
    """free: reduced words as the rows of an int8 stack, with the flat index
    of each row's top letter.

    The last column of every row is never written. An empty word's top index
    is the one before its row, i.e. the last column of the previous row (of
    the last row, for row 0), so it reads 0, which no letter cancels. Atoms
    shorter than the longest are padded with letter 0, whose inverse
    (_PAD_INVERSE) matches no top."""

    def __init__(self, elems, rows: int, steps: int):
        width = max(1, max(len(g) for g in elems))
        letters = np.zeros((width, len(elems)), dtype=np.int8)
        for i, g in enumerate(elems):
            letters[:len(g), i] = g
        self.letters = letters
        self.inverse = np.where(letters != 0, -letters, _PAD_INVERSE
                                ).astype(np.int8)
        self.live = (letters != 0).astype(np.intp)
        self.stack = np.zeros((rows, 1), dtype=np.int8)
        self.top = self._row_starts() - 1

    def _row_starts(self) -> np.ndarray:
        rows, columns = self.stack.shape
        return np.arange(0, rows * columns, columns)

    def _lengths(self) -> np.ndarray:
        return self.top - self._row_starts() + 1

    def _reserve(self, letters: int) -> None:
        """Make room for `letters` more letters on every row."""
        lengths = self._lengths()
        need = int(lengths.max()) + letters
        cap = self.stack.shape[1] - 1
        if need > cap:
            grown = np.zeros((len(lengths), max(2 * cap, need) + 1),
                             dtype=np.int8)
            grown[:, :cap] = self.stack[:, :-1]
            self.stack = grown
            self.top = self._row_starts() + lengths - 1

    def advance(self, idx: np.ndarray) -> None:
        """Push or cancel the segment's letters one at a time, every row at
        once; a padding letter is written past the top and not counted."""
        steps, rows = idx.shape
        self._reserve(steps * len(self.letters))
        flat, top = self.stack.reshape(-1), self.top
        for x, inverse, live in zip(
                *(table.take(idx, axis=1).transpose(1, 0, 2).reshape(-1, rows)
                  for table in (self.letters, self.inverse, self.live))):
            cancel = flat.take(top) == inverse
            flat[top + 1] = x
            top += live
            top -= cancel
            top -= cancel

    def positions(self) -> list:
        lengths = self._lengths().tolist()
        words = self.stack[:, :max(lengths, default=0)].tolist()
        return [tuple(w[:n]) for w, n in zip(words, lengths)]

    def norms(self) -> np.ndarray:
        return self._lengths()


class _LamplighterWalk:
    """lamplighter: walker positions plus a uint8 lamp window over the lamp
    positions toggled so far, widened as the walk reaches new ones."""

    def __init__(self, elems, rows: int, steps: int):
        slots = max(len(lamps) for lamps, _ in elems)
        reach = max(steps, 1) * max(abs(q) for _, q in elems)
        # |walker| and |lit lamp| <= bound; a norm <= 4 * bound + lit lamps
        bound = reach + max((abs(u) for lamps, _ in elems for u in lamps),
                            default=0)
        dtype = _int_dtype(bound)
        self.norm_dtype = _int_dtype(8 * bound)
        self.move = np.array([q for _, q in elems], dtype=dtype)
        self.lamp = np.zeros((len(elems), slots), dtype=dtype)
        self.has_lamp = np.zeros((len(elems), slots), dtype=bool)
        for i, (lamps, _) in enumerate(elems):
            self.lamp[i, :len(lamps)] = lamps
            self.has_lamp[i, :len(lamps)] = True
        self.rows = np.arange(rows)
        self.pos = np.zeros(rows, dtype=dtype)
        self.lo = 0
        self.window = np.zeros((rows, 0), dtype=np.uint8)

    def _cover(self, lo: int, hi: int) -> None:
        """Widen the window to hold lamp positions lo..hi, with half the old
        width to spare on each side, so a drifting walk copies it only
        O(log range) times."""
        old_lo, old_width = self.lo, self.window.shape[1]
        if old_width and lo >= old_lo and hi < old_lo + old_width:
            return
        if old_width:
            slack = old_width // 2
            lo = min(lo, old_lo - slack)
            hi = max(hi, old_lo + old_width - 1 + slack)
        width = hi - lo + 1
        if width > MAX_WINDOW_WIDTH:
            raise ResourceLimitError(
                f"lamplighter lamp window of {width} positions exceeds "
                f"{MAX_WINDOW_WIDTH} positions per trajectory")
        grown = np.zeros((len(self.rows), width), dtype=np.uint8)
        grown[:, old_lo - lo:old_lo - lo + old_width] = self.window
        self.lo, self.window = lo, grown

    def advance(self, idx: np.ndarray) -> None:
        moves = self.move[idx]
        after = np.cumsum(moves, axis=0) + self.pos
        has = self.has_lamp[idx]
        lamps = ((after - moves)[:, :, None] + self.lamp[idx])[has]
        if lamps.size:
            self._cover(int(lamps.min()), int(lamps.max()))
            rows = np.broadcast_to(self.rows[:, None], has.shape)[has]
            cols = (lamps - self.lo).astype(np.intp)
            # a uint8 operand keeps ufunc.at on its fast typed loop
            np.bitwise_xor.at(self.window, (rows, cols), _TOGGLE)
        self.pos = after[-1]

    def positions(self) -> list:
        lo = self.lo
        lamps = [c + lo for c in np.nonzero(self.window)[1].tolist()]
        out, k = [], 0
        for n, p in zip(np.count_nonzero(self.window, axis=1).tolist(),
                        self.pos.tolist()):
            out.append((tuple(lamps[k:k + n]), p))
            k += n
        return out

    def norms(self) -> np.ndarray:
        """``lamplighter_norm`` per row from its first and last lit lamp,
        its lit count and its walker position: with lo and hi the extremes
        of 0, the walker and the lit lamps, the cheaper of its two sweeps
        is 2 (hi - lo) - |pos|. A row with no lit lamp takes both ends at
        0, where the sweep starts anyway."""
        lit = self.window != 0
        count = np.count_nonzero(lit, axis=1)
        dtype, pos = self.norm_dtype, self.pos.astype(self.norm_dtype)
        first = np.zeros(len(pos), dtype=dtype)
        last = first.copy()
        if lit.shape[1]:
            some = count > 0
            ends = (lit.argmax(axis=1),
                    lit.shape[1] - 1 - lit[:, ::-1].argmax(axis=1))
            for end, column in zip((first, last), ends):
                end[some] = column.astype(dtype)[some] + self.lo
        lo = np.minimum(np.minimum(pos, first), 0)
        hi = np.maximum(np.maximum(pos, last), 0)
        return count + 2 * (hi - lo) - np.abs(pos)


_KERNELS = {FreeAbelian: _ZdWalk, FreeGroup: _FreeWalk,
            Lamplighter: _LamplighterWalk, Heisenberg: _HeisenbergWalk}


def _walk_chunk(mu: FiniteMeasure, seed: int, span: Tuple[int, int],
                checkpoints: List[int]):
    """Walk trajectories span[0] .. span[1] - 1 and yield (checkpoint,
    kernel) for each block of rows at each checkpoint, in trajectory order.

    A block's stream draws one (steps, rows) segment of raw words at a
    time; segments end at checkpoints and at the block's draw budget. Each
    row's words come out in sequence, and the guide table maps them to the
    indices ``searchsorted`` gives their doubles, so the row steps exactly
    as ``sample_trajectory`` does on ``substream(seed, i)``."""
    kernel = _KERNELS[type(mu.group)]
    elems, cdf = atom_table(mu)
    table = _GuideTable(cdf)
    start, stop = span
    for first in range(start, stop, BLOCK_ROWS):
        stream = _BlockStream(seed, first, min(first + BLOCK_ROWS, stop))
        walk = kernel(elems, stream.rows, checkpoints[-1])
        segment = max(1, SEGMENT_DRAWS // stream.rows)
        done = 0
        for cp in checkpoints:
            while done < cp:
                x = stream.raw(min(segment, cp - done))
                walk.advance(table.indices(x))
                done += len(x)
            yield cp, walk


# -- statistics runners -------------------------------------------------------

def _norm_chunk(mu: FiniteMeasure, seed: int, cps: List[int],
                span: Tuple[int, int]) -> Dict[int, List[int]]:
    """Integer norm statistics per checkpoint (sorted `cps`) for the
    trajectory indices of `span`."""
    stats = {cp: [0, 0, 0] for cp in cps}  # count, sum rho, sum rho^2
    for cp, walk in _walk_chunk(mu, seed, span, cps):
        r = walk.norms()
        # sum in Python ints where an int64 sum of squares could wrap
        if r.dtype != object and int(r.max()) ** 2 * len(r) >= 1 << 63:
            r = r.astype(object)
        acc = stats[cp]
        acc[0] += len(r)
        acc[1] += int(r.sum())
        acc[2] += int((r * r).sum())
    return stats


def _tally(counts: Counter, elements, fmt) -> None:
    """Count a block's elements by their text, formatting each distinct
    element once; new keys enter `counts` in first-occurrence order."""
    for g, n in Counter(elements).items():
        counts[fmt(g)] += n


def _endpoint_chunk(mu: FiniteMeasure, seed: int, steps: int,
                    span: Tuple[int, int]) -> Counter:
    counts: Counter = Counter()
    for _, walk in _walk_chunk(mu, seed, span, [steps]):
        _tally(counts, walk.positions(), mu.group.format_element)
    return counts


def _prefix_chunk(mu: FiniteMeasure, seed: int, steps: int, level: int,
                  span: Tuple[int, int]) -> Counter:
    """Tally the level-l prefix of the endpoint's reduced word ("-" if the
    endpoint is shorter than l)."""
    fmt = mu.group.format_element
    counts: Counter = Counter()
    for _, walk in _walk_chunk(mu, seed, span, [steps]):
        _tally(counts, (w[:level] if len(w) >= level else None
                        for w in walk.positions()),
               lambda w: "-" if w is None else fmt(w))
    return counts


def _chunks(total: int, workers: int):
    size, extra = divmod(total, workers)
    start = 0
    for i in range(workers):
        stop = start + size + (1 if i < extra else 0)
        if stop > start:
            yield start, stop
        start = stop


def _run_chunked(chunk, config: SamplerConfig, combine):
    """Split the trajectories into min(workers, trajectories, CPUs) spans
    and run ``chunk(span)`` on each. Span 0 runs in this process, each
    other span in a forked child, which inherits the chunk's arguments;
    without ``os.fork`` every span runs here, which gives the same output
    by design."""
    workers = min(config.workers, config.trajectories, os.cpu_count() or 1)
    spans = list(_chunks(config.trajectories, workers))
    if len(spans) == 1 or not hasattr(os, "fork"):
        return combine([chunk(span) for span in spans])
    return combine(_fork_chunks(chunk, spans))


def _fork_chunks(fn, spans: List[Tuple[int, int]]) -> list:
    """``fn`` of every span: spans[1:] in one forked child each, spans[0]
    here meanwhile. A child's exception is re-raised here, and every child
    is reaped on every exit path."""
    children = []                       # (pid, read end of its pipe)
    try:
        for span in spans[1:]:
            children.append(_fork_chunk(fn, span, children))
        results = [fn(spans[0])]
        for _, reader in children:
            try:
                ok, value = pickle.loads(reader.read())
            except (EOFError, pickle.UnpicklingError):  # none, or cut short
                raise ResourceLimitError(
                    "a sampler worker process exited without a result"
                ) from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        # closed read ends let a child still writing fail and exit
        for _, reader in children:
            reader.close()
        for pid, _ in children:
            os.waitpid(pid, 0)


def _fork_chunk(fn, span: Tuple[int, int], siblings: list):
    """Fork a child that pickles ``(True, fn(span))``, or ``(False,
    exception)``, into a pipe and leaves through ``os._exit``; returns its
    pid and the pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read)
        os.close(write)
        raise ResourceLimitError(
            f"cannot start a sampler worker process ({exc})") from None
    if pid == 0:
        status = 1
        try:
            os.close(read)
            for _, reader in siblings:
                reader.close()
            try:
                message = (True, fn(span))
            except BaseException as exc:
                message = (False, exc)
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            with open(write, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def _combine_norm_stats(parts):
    out: Dict[int, List[int]] = {}
    for part in parts:
        for cp, (c, s, s2) in part.items():
            acc = out.setdefault(cp, [0, 0, 0])
            acc[0] += c
            acc[1] += s
            acc[2] += s2
    return out


def _combine_counters(parts):
    total: Counter = Counter()
    for part in parts:
        total.update(part)
    return total


def norm_statistics(mu: FiniteMeasure, config: SamplerConfig,
                    checkpoints: Optional[Sequence[int]] = None
                    ) -> Dict[int, List[int]]:
    """Integer (count, sum, sum of squares) of endpoint norms per checkpoint.

    Checkpoints default to [config.steps]; each trajectory is sampled once
    and measured at every checkpoint along the way.
    """
    cps = sorted(set(checkpoints or [config.steps]))
    if not cps or cps[-1] > config.steps or cps[0] < 1:
        raise DomainError("checkpoints must lie in 1..steps")
    chunk = functools.partial(_norm_chunk, mu, config.seed, cps)
    return _run_chunked(chunk, config, _combine_norm_stats)


def endpoint_counts(mu: FiniteMeasure, config: SamplerConfig) -> Counter:
    chunk = functools.partial(_endpoint_chunk, mu, config.seed, config.steps)
    return _run_chunked(chunk, config, _combine_counters)


def prefix_counts(mu: FiniteMeasure, level: int,
                  config: SamplerConfig) -> Counter:
    if not isinstance(mu.group, FreeGroup):
        raise DomainError("prefix statistics are for free groups only")
    if level < 1:
        raise DomainError(f"prefix level must be >= 1, got {level}")
    chunk = functools.partial(_prefix_chunk, mu, config.seed, config.steps,
                              level)
    return _run_chunked(chunk, config, _combine_counters)


def try_power(mu: FiniteMeasure, n: int, atom_budget: int = 200_000,
              step_budget: int = 64) -> Optional[FiniteMeasure]:
    """Exact mu^{*n} when affordable, else None (support or step budget)."""
    if n > step_budget:
        return None
    try:
        return power(mu, n, max_atoms=atom_budget)
    except ResourceLimitError:
        return None


def empirical_endpoint_distribution(
        mu: FiniteMeasure, config: SamplerConfig,
        exact_atom_budget: int = 200_000) -> Tuple[FiniteMeasure, Optional[float]]:
    """Empirical law of X_n, plus TV distance to the exact mu^{*n} when the
    exact convolution is affordable (support stays within the atom budget)."""
    counts = endpoint_counts(mu, config)
    group = mu.group
    n = config.trajectories
    weights = {group.parse_element(s): c / n for s, c in counts.items()}
    empirical = FiniteMeasure(group=group, weights=weights, den=1,
                              deficit=0.0, mode="float64")
    exact = try_power(mu, config.steps, exact_atom_budget)
    tv = total_variation(empirical, exact) if exact is not None else None
    return empirical, tv
