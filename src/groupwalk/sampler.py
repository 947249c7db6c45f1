"""Seeded, reproducible Monte Carlo sampling of random-walk trajectories.

Determinism contract: trajectory i draws from a substream derived from
(seed, i) only (numpy SeedSequence with spawn_key=(i,)), so results do not
depend on how trajectories are distributed over workers. Aggregates are kept
as integer counters (norm sums, endpoint tallies), which makes the combined
statistics exactly order-independent; floats appear only in the final
reports.

Increments are drawn by inverse CDF over the measure's atoms sorted by their
canonical string form, a fixed cross-platform order.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    trajectories: int
    steps: int
    workers: int = 1

    def __post_init__(self):
        if self.trajectories < 1:
            raise DomainError("trajectories must be >= 1")
        if self.steps < 0:
            raise DomainError("steps must be >= 0")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")


def substream(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trajectory generator, independent of worker layout."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def atom_table(mu: FiniteMeasure):
    """Atoms in canonical string order with their cumulative distribution."""
    fmt = mu.group.format_element
    elems = sorted(mu.atoms.keys(), key=fmt)
    weights = np.array([float(mu.atoms[g]) for g in elems])
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


# -- fast walk states ---------------------------------------------------------
#
# The generic trajectory above materializes every position; the statistics
# runners below keep a small mutable state per group instead, so a 2000-step
# free-group walk costs O(n) instead of O(n^2) tuple copying.

class _WalkState:
    def reset(self):
        raise NotImplementedError

    def step(self, payload):
        raise NotImplementedError

    def element(self):
        raise NotImplementedError


class _FreeState(_WalkState):
    def __init__(self):
        self.word = []

    def reset(self):
        self.word.clear()

    def step(self, payload):
        word = self.word
        for x in payload:
            if word and word[-1] == -x:
                word.pop()
            else:
                word.append(x)

    def element(self):
        return tuple(self.word)


class _AbelianState(_WalkState):
    def __init__(self, d):
        self.d = d
        self.vec = [0] * d

    def reset(self):
        self.vec = [0] * self.d

    def step(self, payload):
        vec = self.vec
        for i, x in enumerate(payload):
            vec[i] += x

    def element(self):
        return tuple(self.vec)


class _LamplighterState(_WalkState):
    def __init__(self):
        self.lamps = set()
        self.pos = 0

    def reset(self):
        self.lamps.clear()
        self.pos = 0

    def step(self, payload):
        lamps_h, q = payload
        p = self.pos
        for u in lamps_h:
            self.lamps.symmetric_difference_update((u + p,))
        self.pos = p + q

    def element(self):
        return (tuple(sorted(self.lamps)), self.pos)


class _HeisenbergState(_WalkState):
    def __init__(self):
        self.x = self.y = self.z = 0

    def reset(self):
        self.x = self.y = self.z = 0

    def step(self, payload):
        x2, y2, z2 = payload
        self.z += z2 + self.x * y2
        self.x += x2
        self.y += y2

    def element(self):
        return (self.x, self.y, self.z)


def _make_state(group: Group) -> _WalkState:
    if isinstance(group, FreeGroup):
        return _FreeState()
    if isinstance(group, FreeAbelian):
        return _AbelianState(group.d)
    if isinstance(group, Lamplighter):
        return _LamplighterState()
    if isinstance(group, Heisenberg):
        return _HeisenbergState()
    raise DomainError(f"no walk state for {group.id_string}")


# -- statistics runners -------------------------------------------------------

def _norm_chunk(payload: dict) -> Dict[int, List[int]]:
    """Worker body: integer norm statistics per checkpoint for a range of
    trajectory indices. Importable at top level so process pools can use it."""
    mu = measure_from_text(payload["measure"])
    group = mu.group
    checkpoints = payload["checkpoints"]
    ball = None
    if payload.get("ball_radius") is not None:
        ball = build_ball(group, payload["ball_radius"])
    norm = norm_evaluator(group, ball=ball)
    elems, cdf = atom_table(mu)
    state = _make_state(group)
    cps = sorted(checkpoints)
    stats = {cp: [0, 0, 0] for cp in cps}  # count, sum rho, sum rho^2
    for index in range(payload["start"], payload["stop"]):
        rng = substream(payload["seed"], index)
        idx = draw_indices(rng, cdf, cps[-1])
        state.reset()
        done = 0
        for cp in cps:
            for i in idx[done:cp]:
                state.step(elems[int(i)])
            done = cp
            r = norm(state.element())
            acc = stats[cp]
            acc[0] += 1
            acc[1] += r
            acc[2] += r * r
    return stats


def _endpoint_chunk(payload: dict) -> Counter:
    mu = measure_from_text(payload["measure"])
    group = mu.group
    elems, cdf = atom_table(mu)
    state = _make_state(group)
    counts: Counter = Counter()
    for index in range(payload["start"], payload["stop"]):
        rng = substream(payload["seed"], index)
        state.reset()
        for i in draw_indices(rng, cdf, payload["steps"]):
            state.step(elems[int(i)])
        counts[group.format_element(state.element())] += 1
    return counts


def _prefix_chunk(payload: dict) -> Counter:
    """Tally the level-l prefix of the endpoint's reduced word ("-" if the
    endpoint is shorter than l)."""
    mu = measure_from_text(payload["measure"])
    group = mu.group
    level = payload["level"]
    elems, cdf = atom_table(mu)
    state = _FreeState()
    counts: Counter = Counter()
    for index in range(payload["start"], payload["stop"]):
        rng = substream(payload["seed"], index)
        state.reset()
        for i in draw_indices(rng, cdf, payload["steps"]):
            state.step(elems[int(i)])
        word = state.word
        if len(word) < level:
            counts["-"] += 1
        else:
            counts[group.format_element(tuple(word[:level]))] += 1
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
    payloads = []
    for start, stop in _chunks(config.trajectories, config.workers):
        p = dict(base_payload)
        p.update(start=start, stop=stop, seed=config.seed)
        payloads.append(p)
    fn = _CHUNK_FNS[kind]
    if config.workers == 1 or len(payloads) == 1:
        parts = [fn(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
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
    atoms = {group.parse_element(s): c / n for s, c in counts.items()}
    empirical = FiniteMeasure(group=group, atoms=atoms, deficit=0.0,
                              mode="float64")
    exact = try_power(mu, config.steps, exact_atom_budget)
    tv = total_variation(empirical, exact) if exact is not None else None
    return empirical, tv
