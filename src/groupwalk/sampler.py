"""Seeded, reproducible Monte Carlo sampling of random-walk trajectories.

Determinism contract: trajectory i draws from a substream derived from
(seed, i) only (numpy SeedSequence with spawn_key=(i,) feeding PCG64), so
results do not depend on how trajectories are distributed over workers.
Aggregates are kept as integer counters (norm sums, endpoint tallies), which
makes the combined statistics exactly order-independent; floats appear only
in the final reports.

Increments are drawn by inverse CDF over the measure's atoms sorted by their
canonical string form, a fixed cross-platform order.

Trajectories are stepped in blocks of up to BLOCK_ROWS rows by one batch
kernel per group. A block draws the next segment of its rows' uniforms, at
most SEGMENT_DRAWS per block at a time (16 columns of a full block), with
segments also ending at every checkpoint. PCG64 doubles come out in
sequence, so drawing the segments in turn gives exactly the
``substream(seed, i).random(steps)`` of trajectory i: every aggregate is the
same for any block size, segment size and worker count.
``sample_trajectory`` is the checked reference walk the kernels are tested
against. Norm statistics read the kernels' array norms (heisenberg rows by
one ``searchsorted`` in the ball's sorted codes, ``_BallCodes``); endpoint
and prefix tallies count each block's positions and format each distinct
element once.

With several workers the trajectories are split into chunks: chunk 0 runs
in the calling process and every other chunk in one child forked for it,
which pickles its result, or its exception, into a pipe. The caller reaps
every child on every exit path. Without ``os.fork`` all chunks run in the
caller, with the same output.

``substream`` is the reference definition of a trajectory's generator. The
walk runs a block's streams as arrays instead (``_BlockStream``): it runs
SeedSequence's uint32 hashing vectorized over the block's spawn keys, seeds
each row's PCG64 state and increment from the four state words as PCG64
does, and steps all rows' 128-bit states as pairs of uint64 arrays, so every
row gets exactly the doubles ``substream(seed, i)`` would give it.
"""

from __future__ import annotations

import functools
import os
import pickle
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ResourceLimitError
from .groups import FreeAbelian, FreeGroup, Group, Heisenberg, Lamplighter
from .measures import (FiniteMeasure, measure_from_text, measure_to_text,
                       power, total_variation)
from .wordmetric import BallTable, ball_miss, build_ball

BLOCK_ROWS = 1024           # trajectories stepped together
SEGMENT_DRAWS = 1 << 14     # uniforms drawn per block per segment
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
    which gives the same doubles."""
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
SLAB_COLUMNS = 32           # draws per row stepped in one array pass
_U1, _U11 = np.uint64(1), np.uint64(11)
_U58, _U63, _U64 = np.uint64(58), np.uint64(63), np.uint64(64)
_TO_UNIT = np.float64(1.0 / (1 << 53))


def _limbs(values) -> Tuple[np.ndarray, ...]:
    """128-bit ints as uint64 arrays: the low word's two 32-bit halves, the
    low word and the high word."""
    lo = [v & (1 << 64) - 1 for v in values]
    return tuple(np.array(words, dtype=np.uint64) for words in (
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
    (limbs from ``_split``), mod 2^128: a column of rows times a row of
    constants, as a (rows, width) hi and lo. The product's middle words
    are summed from 32-bit halves, so no sum can wrap before its carry is
    taken."""
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

    Row i - first holds the state and increment that PCG64 seeds from
    ``SeedSequence(seed, spawn_key=(i,))``: with the four ``_seed_words``
    w0..w3, ``inc = (w2 w3) << 1 | 1`` and ``state = ((inc + (w0 w1)) M +
    inc) mod 2^128``. ``random(n)`` returns each row's next n doubles, the
    ones ``substream(seed, i).random(n)`` would return. A slab of up to
    SLAB_COLUMNS draws jumps every column from the row's state at once,
    ``state_j = A_j state + C_j inc``; the ``C_j inc`` are computed once
    per stream."""

    def __init__(self, seed: int, first: int, stop: int):
        words = _seed_words(seed, first, stop)
        w0, w1, w2, w3 = (words[:, k:k + 1] for k in range(4))
        inc_hi, inc_lo = (w2 << _U1) | (w3 >> _U63), (w3 << _U1) | _U1
        self.inc = inc_hi, inc_lo
        start = inc_lo + w1
        # one step from inc + (w0 w1): A_1 = M, C_1 = 1
        self.state = _muladd(inc_hi + w0 + (start < inc_lo), start,
                             _jumps(SLAB_COLUMNS)[0], 1, _split(*self.inc))
        self.rows = len(words)
        self._offsets = None

    def _increments(self, width: int):
        """Limbs of C_j inc for j = 1..width, widened when a slab needs
        more."""
        if self._offsets is None or self._offsets[0].shape[1] < width:
            self._offsets = _split(*_muladd(*self.inc, _jumps(SLAB_COLUMNS)[1],
                                            width))
        return tuple(limb[:, :width] for limb in self._offsets)

    def random(self, n: int) -> np.ndarray:
        out = np.empty((self.rows, n))
        powers = _jumps(SLAB_COLUMNS)[0]
        for done in range(0, n, SLAB_COLUMNS):
            width = min(SLAB_COLUMNS, n - done)
            hi, lo = _muladd(*self.state, powers, width,
                             self._increments(width))
            self.state = hi[:, -1:].copy(), lo[:, -1:].copy()
            # XSL-RR: rotate hi ^ lo right by the top six bits of the state
            turn = hi >> _U58
            lo ^= hi
            hi = lo >> turn
            turn = (_U64 - turn) & _U63
            hi |= lo << turn
            hi >>= _U11
            unit = out[:, done:done + width]
            unit[...] = hi
            unit *= _TO_UNIT
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
# (rows, length); ``positions()`` returns the rows' current positions as
# ordinary group elements (tuples of Python ints), and ``norms(ball)`` their
# word norms as an integer array (int64, or Python ints where int64 could
# wrap). Only heisenberg, which has no closed form, reads `ball`, a
# ``_BallCodes``. Every kernel's memory grows
# with rows x the range the walk has visited (plus one segment), not with
# steps x the largest move.

def _int_dtype(bound: int):
    """int64 when every value stays below `bound` in magnitude, else Python
    ints in an object array, so coordinates can never wrap."""
    return np.int64 if bound < 2 ** 62 else object


class _ZdWalk:
    """zd: a row is an integer vector; a segment adds its summed increments."""

    def __init__(self, elems, rows: int, steps: int):
        reach = max(steps, 1) * max(abs(c) for g in elems for c in g)
        # |coordinate| <= reach; the heisenberg z also <= reach * (reach + 1)
        dtype = _int_dtype(reach * (reach + 1))
        # (coordinate, atom): ``take`` then gathers and sums each coordinate
        # along contiguous rows
        self.inc = np.array(elems, dtype=dtype).T.copy()
        self.pos = np.zeros((rows, len(self.inc)), dtype=dtype)

    def advance(self, idx: np.ndarray) -> None:
        self.pos += self.inc.take(idx, axis=1).sum(axis=2).T

    def positions(self) -> list:
        return list(map(tuple, self.pos.tolist()))

    def norms(self, ball) -> np.ndarray:
        return np.abs(self.pos).sum(axis=1)


class _HeisenbergWalk(_ZdWalk):
    """heisenberg: (x, y) as in zd, and z += z2 + x_prev * y2 per step."""

    def advance(self, idx: np.ndarray) -> None:
        inc = self.inc.take(idx, axis=1)
        dx, dy = inc[0], inc[1]
        x_prev = np.cumsum(dx, axis=1) - dx + self.pos[:, :1]
        self.pos[:, 2] += (x_prev * dy).sum(axis=1)
        self.pos += inc.sum(axis=2).T

    def norms(self, ball) -> np.ndarray:
        """No closed form: the rows are looked up in `ball`."""
        return ball.norms(self.pos)


class _BallCodes:
    """A heisenberg ball as the sorted int64 codes of its (x, y, z) rows,
    each coordinate offset by the ball's bound (its largest |coordinate|),
    and the rows' norms in the same order. A ball within ``build_ball``'s
    element budget has a bound below 2^12, so the codes cannot wrap."""

    def __init__(self, ball: BallTable):
        self.ball = ball
        rows = np.array(list(ball.norms), dtype=np.int64).reshape(-1, 3)
        self.bound = int(np.abs(rows).max())
        codes = self._encode(rows)
        order = np.argsort(codes)
        self.codes = codes[order]
        self.values = np.fromiter(ball.norms.values(), dtype=np.int64,
                                  count=len(rows))[order]

    def _encode(self, rows: np.ndarray) -> np.ndarray:
        side = 2 * self.bound + 1
        rows = rows + self.bound
        return (rows[:, 0] * side + rows[:, 1]) * side + rows[:, 2]

    def norms(self, pos: np.ndarray) -> np.ndarray:
        """The norms of the rows of `pos` by one ``searchsorted``; a row
        beyond the bound or missing from the ball raises the OutOfRangeError
        of ``word_norm``. Python-int rows are bound-checked before the cast
        to int64."""
        if (np.abs(pos) <= self.bound).all():
            codes = self._encode(pos.astype(np.int64))
            at = np.searchsorted(self.codes, codes)
            np.minimum(at, len(self.codes) - 1, out=at)
            if (self.codes[at] == codes).all():
                return self.values[at]
        raise ball_miss(self.ball)


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
        self._reserve(idx.shape[1] * len(self.letters))
        flat, top = self.stack.reshape(-1), self.top
        rows = len(idx)
        cols = idx.T
        for x, inverse, live in zip(
                *(table[:, cols].transpose(1, 0, 2).reshape(-1, rows)
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

    def norms(self, ball) -> np.ndarray:
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
        after = np.cumsum(moves, axis=1) + self.pos[:, None]
        has = self.has_lamp[idx]
        lamps = ((after - moves)[:, :, None] + self.lamp[idx])[has]
        if lamps.size:
            self._cover(int(lamps.min()), int(lamps.max()))
            rows = np.broadcast_to(self.rows[:, None, None], has.shape)[has]
            cols = (lamps - self.lo).astype(np.intp)
            # a uint8 operand keeps ufunc.at on its fast typed loop
            np.bitwise_xor.at(self.window, (rows, cols), _TOGGLE)
        self.pos = after[:, -1]

    def positions(self) -> list:
        lo = self.lo
        lamps = [c + lo for c in np.nonzero(self.window)[1].tolist()]
        out, k = [], 0
        for n, p in zip(np.count_nonzero(self.window, axis=1).tolist(),
                        self.pos.tolist()):
            out.append((tuple(lamps[k:k + n]), p))
            k += n
        return out

    def norms(self, ball) -> np.ndarray:
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


def _walk_chunk(mu: FiniteMeasure, payload: dict, checkpoints: List[int]):
    """Walk trajectories payload["start"] .. payload["stop"] - 1 and yield
    (checkpoint, kernel) for each block of rows at each checkpoint, in
    trajectory order.

    A block's stream draws one segment of uniforms for all its rows at a
    time; segments end at checkpoints and at the block's draw budget. Each
    row's doubles come out in sequence, so the row draws exactly what
    ``substream(seed, i).random(steps)`` draws."""
    kernel = _KERNELS[type(mu.group)]
    elems, cdf = atom_table(mu)
    seed, stop = payload["seed"], payload["stop"]
    for first in range(payload["start"], stop, BLOCK_ROWS):
        stream = _BlockStream(seed, first, min(first + BLOCK_ROWS, stop))
        walk = kernel(elems, stream.rows, checkpoints[-1])
        segment = max(1, SEGMENT_DRAWS // stream.rows)
        done = 0
        for cp in checkpoints:
            while done < cp:
                u = stream.random(min(segment, cp - done))
                walk.advance(np.searchsorted(cdf, u, side="right"))
                done += u.shape[1]
            yield cp, walk


# -- statistics runners -------------------------------------------------------

def _norm_chunk(payload: dict) -> Dict[int, List[int]]:
    """Integer norm statistics per checkpoint for a range of trajectory
    indices."""
    mu = measure_from_text(payload["measure"])
    ball = None
    if payload["ball_radius"] is not None:
        ball = _BallCodes(build_ball(mu.group, payload["ball_radius"]))
    cps = sorted(payload["checkpoints"])
    stats = {cp: [0, 0, 0] for cp in cps}  # count, sum rho, sum rho^2
    for cp, walk in _walk_chunk(mu, payload, cps):
        r = walk.norms(ball)
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


def _endpoint_chunk(payload: dict) -> Counter:
    mu = measure_from_text(payload["measure"])
    counts: Counter = Counter()
    for _, walk in _walk_chunk(mu, payload, [payload["steps"]]):
        _tally(counts, walk.positions(), mu.group.format_element)
    return counts


def _prefix_chunk(payload: dict) -> Counter:
    """Tally the level-l prefix of the endpoint's reduced word ("-" if the
    endpoint is shorter than l)."""
    mu = measure_from_text(payload["measure"])
    fmt, level = mu.group.format_element, payload["level"]
    counts: Counter = Counter()
    for _, walk in _walk_chunk(mu, payload, [payload["steps"]]):
        _tally(counts, (w[:level] if len(w) >= level else None
                        for w in walk.positions()),
               lambda w: "-" if w is None else fmt(w))
    return counts


_CHUNK_FNS = {"norm": _norm_chunk, "endpoint": _endpoint_chunk,
              "prefix": _prefix_chunk}


def _chunks(total: int, workers: int):
    size, extra = divmod(total, workers)
    start = 0
    for i in range(workers):
        stop = start + size + (1 if i < extra else 0)
        if stop > start:
            yield start, stop
        start = stop


def _run_chunked(kind: str, base_payload: dict, config: SamplerConfig,
                 combine):
    """Split the trajectories into min(workers, trajectories, CPUs) chunks.
    Chunk 0 runs in this process, each other chunk in a forked child;
    without ``os.fork`` every chunk runs here, which gives the same output
    by design."""
    workers = min(config.workers, config.trajectories, os.cpu_count() or 1)
    payloads = [dict(base_payload, start=start, stop=stop, seed=config.seed)
                for start, stop in _chunks(config.trajectories, workers)]
    fn = _CHUNK_FNS[kind]
    if len(payloads) == 1 or not hasattr(os, "fork"):
        return combine([fn(payload) for payload in payloads])
    return combine(_fork_chunks(fn, payloads))


def _fork_chunks(fn, payloads: List[dict]) -> list:
    """``fn`` of every payload: payloads[1:] in one forked child each,
    payloads[0] here meanwhile. A child's exception is re-raised here, and
    every child is reaped on every exit path."""
    children = []                       # (pid, read end of its pipe)
    try:
        for payload in payloads[1:]:
            children.append(_fork_chunk(fn, payload, children))
        results = [fn(payloads[0])]
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


def _fork_chunk(fn, payload: dict, siblings: list):
    """Fork a child that pickles ``(True, fn(payload))``, or ``(False,
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
                message = (True, fn(payload))
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
                    checkpoints: Optional[Sequence[int]] = None,
                    ball_radius: Optional[int] = None) -> Dict[int, List[int]]:
    """Integer (count, sum, sum of squares) of endpoint norms per checkpoint.

    Checkpoints default to [config.steps]; each trajectory is sampled once
    and measured at every checkpoint along the way. Only heisenberg norms
    read a ball of `ball_radius`; the other groups ignore it.
    """
    cps = sorted(set(checkpoints or [config.steps]))
    if not cps or cps[-1] > config.steps or cps[0] < 1:
        raise DomainError("checkpoints must lie in 1..steps")
    if not isinstance(mu.group, Heisenberg):
        ball_radius = None
    elif ball_radius is None:
        raise DomainError(
            "heisenberg norms need a ball table (no closed form)")
    payload = {"measure": measure_to_text(mu), "checkpoints": cps,
               "ball_radius": ball_radius}
    return _run_chunked("norm", payload, config, _combine_norm_stats)


def endpoint_counts(mu: FiniteMeasure, config: SamplerConfig) -> Counter:
    payload = {"measure": measure_to_text(mu), "steps": config.steps}
    return _run_chunked("endpoint", payload, config, _combine_counters)


def prefix_counts(mu: FiniteMeasure, level: int,
                  config: SamplerConfig) -> Counter:
    if not isinstance(mu.group, FreeGroup):
        raise DomainError("prefix statistics are for free groups only")
    payload = {"measure": measure_to_text(mu), "steps": config.steps,
               "level": level}
    return _run_chunked("prefix", payload, config, _combine_counters)


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
