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
kernel per group. Each row keeps its substream open and draws the next
segment of its uniforms, at most SEGMENT_DRAWS per block at a time, with
segments also ending at every checkpoint. PCG64 doubles come out in
sequence, so drawing the segments in turn gives exactly the
``substream(seed, i).random(steps)`` of trajectory i: every aggregate is the
same for any block size, segment size and worker count.
``sample_trajectory`` is the checked reference walk the kernels are tested
against.

``substream`` is the reference definition of a trajectory's generator. The
walk opens a block's generators in one pass instead (``_block_generators``):
it runs SeedSequence's uint32 hashing vectorized over the block's spawn keys
and hands each row's four state words to PCG64, so every row gets exactly
the bits ``substream(seed, i)`` would give it.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ResourceLimitError
from .groups import FreeAbelian, FreeGroup, Group, Heisenberg, Lamplighter
from .measures import (FiniteMeasure, measure_from_text, measure_to_text,
                       power, total_variation)
from .wordmetric import build_ball, norm_evaluator

BLOCK_ROWS = 256            # trajectories stepped together
SEGMENT_DRAWS = 1 << 14     # uniforms drawn per block per segment
MAX_WINDOW_CELLS = 1 << 25  # lamplighter lamp window budget per block
_PAD_INVERSE = 127          # outside every free alphabet, and not 0


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
    The walk kernels open a whole block of these in one pass with
    ``_block_generators``, which gives the same bits."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


# SeedSequence's constants (numpy.random.bit_generator): the pool size and
# the multipliers of its hashmix, mix and generate_state steps.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _uint32_words(n: int) -> List[int]:
    """SeedSequence's split of a non-negative int, least significant first."""
    return [(n >> s) & _M32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hash of `value` (a Python int or a uint32 array) with
    the running hash constant `const`; returns the hash and the next
    constant."""
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


@functools.cache
def _state_words_type() -> type:
    """A seed sequence that hands PCG64 the four uint64 words a SeedSequence
    would generate. Built on first use: importing this module does not
    import numpy.random."""

    class StateWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def _seed_words(seed: int, first: int, stop: int) -> np.ndarray:
    """Row i - first is ``SeedSequence(seed, spawn_key=(i,))
    .generate_state(4, np.uint64)``, for i in first..stop-1.

    SeedSequence hashes the uint32 words of the seed (padded with zeros to
    the pool size) followed by those of the spawn key i. Its hash constants
    advance the same way whatever the words are, so the seed's part is
    computed once in Python ints and only the spawn words are hashed per
    row, as uint32 arrays. Rows are grouped by how many uint32 words their
    index takes."""
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
        # the spawn words of lo..hi-1, by long addition of the row offset
        carry, words = np.arange(hi - lo, dtype=np.uint64), []
        for shift in range(0, 32 * count, 32):
            column = carry + ((lo >> shift) & _M32)
            words.append((column & _M32).astype(np.uint32))
            carry = column >> 32
        lanes, _ = _absorb([np.full(hi - lo, p, dtype=np.uint32)
                            for p in pool], words, const)
        # generate_state(4, uint64): eight hashed uint32s, low word first
        out, c = [], _INIT_B
        for k in range(2 * _POOL):
            h, c = _hashmix(lanes[k % _POOL], c, _MULT_B)
            out.append(h.astype(np.uint64))
        blocks.append(np.stack([out[k] | out[k + 1] << 32
                                for k in range(0, 2 * _POOL, 2)], axis=1))
    return np.concatenate(blocks)


def _block_generators(seed: int, first: int,
                      stop: int) -> List[np.random.Generator]:
    """``substream(seed, i)`` for i in first..stop-1, seeded in one pass:
    PCG64's own seeding runs on each row of ``_seed_words``."""
    state_words = _state_words_type()
    return [np.random.Generator(np.random.PCG64(state_words(row)))
            for row in _seed_words(seed, first, stop)]


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
# ordinary group elements (tuples of Python ints). Every kernel's memory grows
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
        self.inc = np.array(elems, dtype=dtype)
        self.pos = np.zeros((rows, self.inc.shape[1]), dtype=dtype)

    def advance(self, idx: np.ndarray) -> None:
        self.pos += self.inc[idx].sum(axis=1)

    def positions(self) -> list:
        return list(map(tuple, self.pos.tolist()))


class _HeisenbergWalk(_ZdWalk):
    """heisenberg: (x, y) as in zd, and z += z2 + x_prev * y2 per step."""

    def advance(self, idx: np.ndarray) -> None:
        inc = self.inc[idx]
        dx, dy = inc[:, :, 0], inc[:, :, 1]
        x_prev = np.cumsum(dx, axis=1) - dx + self.pos[:, :1]
        self.pos[:, 2] += (x_prev * dy).sum(axis=1)
        self.pos += inc.sum(axis=1)


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


class _LamplighterWalk:
    """lamplighter: walker positions plus a uint8 lamp window over the lamp
    positions toggled so far, widened as the walk reaches new ones."""

    def __init__(self, elems, rows: int, steps: int):
        slots = max(len(lamps) for lamps, _ in elems)
        reach = max(steps, 1) * max(abs(q) for _, q in elems)
        dtype = _int_dtype(reach + max((abs(u) for lamps, _ in elems
                                        for u in lamps), default=0))
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
        if len(self.rows) * width > MAX_WINDOW_CELLS:
            raise ResourceLimitError(
                f"lamplighter lamp window of {width} positions x "
                f"{len(self.rows)} trajectories exceeds {MAX_WINDOW_CELLS} "
                f"cells")
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
            np.bitwise_xor.at(self.window, (rows, cols), 1)
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


_KERNELS = {FreeAbelian: _ZdWalk, FreeGroup: _FreeWalk,
            Lamplighter: _LamplighterWalk, Heisenberg: _HeisenbergWalk}


def _walk_chunk(mu: FiniteMeasure, payload: dict, checkpoints: List[int]):
    """Walk trajectories payload["start"] .. payload["stop"] - 1 and yield
    (checkpoint, positions) for each block of rows at each checkpoint, in
    trajectory order.

    Each row keeps its substream open and draws one segment of uniforms at a
    time; segments end at checkpoints and at the block's draw budget. PCG64
    doubles are sequential, so the row draws exactly what
    ``substream(seed, i).random(steps)`` draws."""
    kernel = _KERNELS[type(mu.group)]
    elems, cdf = atom_table(mu)
    seed, stop = payload["seed"], payload["stop"]
    for first in range(payload["start"], stop, BLOCK_ROWS):
        rngs = _block_generators(seed, first, min(first + BLOCK_ROWS, stop))
        walk = kernel(elems, len(rngs), checkpoints[-1])
        segment = max(1, SEGMENT_DRAWS // len(rngs))
        done = 0
        for cp in checkpoints:
            while done < cp:
                u = np.empty((len(rngs), min(segment, cp - done)))
                for row, rng in zip(u, rngs):
                    rng.random(out=row)
                walk.advance(np.searchsorted(cdf, u, side="right"))
                done += u.shape[1]
            yield cp, walk.positions()


# -- statistics runners -------------------------------------------------------

def _norm_chunk(payload: dict) -> Dict[int, List[int]]:
    """Worker body: integer norm statistics per checkpoint for a range of
    trajectory indices. Importable at top level so process pools can use it."""
    mu = measure_from_text(payload["measure"])
    ball = None
    if payload.get("ball_radius") is not None:
        ball = build_ball(mu.group, payload["ball_radius"])
    norm = norm_evaluator(mu.group, ball=ball)
    cps = sorted(payload["checkpoints"])
    stats = {cp: [0, 0, 0] for cp in cps}  # count, sum rho, sum rho^2
    for cp, positions in _walk_chunk(mu, payload, cps):
        acc = stats[cp]
        for g in positions:
            r = norm(g)
            acc[0] += 1
            acc[1] += r
            acc[2] += r * r
    return stats


def _endpoint_chunk(payload: dict) -> Counter:
    mu = measure_from_text(payload["measure"])
    counts: Counter = Counter()
    for _, positions in _walk_chunk(mu, payload, [payload["steps"]]):
        counts.update(map(mu.group.format_element, positions))
    return counts


def _prefix_chunk(payload: dict) -> Counter:
    """Tally the level-l prefix of the endpoint's reduced word ("-" if the
    endpoint is shorter than l)."""
    mu = measure_from_text(payload["measure"])
    fmt, level = mu.group.format_element, payload["level"]
    counts: Counter = Counter()
    for _, positions in _walk_chunk(mu, payload, [payload["steps"]]):
        counts.update("-" if len(w) < level else fmt(w[:level])
                      for w in positions)
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
    """Split the trajectories over at most min(workers, trajectories, CPUs)
    processes; one worker runs in this process."""
    workers = min(config.workers, config.trajectories, os.cpu_count() or 1)
    payloads = [dict(base_payload, start=start, stop=stop, seed=config.seed)
                for start, stop in _chunks(config.trajectories, workers)]
    fn = _CHUNK_FNS[kind]
    if workers == 1:
        parts = [fn(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(fn, payloads))
    return combine(parts)


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
    and measured at every checkpoint along the way.
    """
    cps = sorted(set(checkpoints or [config.steps]))
    if not cps or cps[-1] > config.steps or cps[0] < 1:
        raise DomainError("checkpoints must lie in 1..steps")
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
