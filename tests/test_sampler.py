"""Seed discipline, worker invariance, and endpoint laws of the sampler."""

import math
import os
import random
from collections import Counter

import numpy as np
import pytest

from groupwalk import sampler
from groupwalk.errors import DomainError, OutOfRangeError, ResourceLimitError
from groupwalk.groups import FreeGroup, Heisenberg, group_from_id
from groupwalk.measures import dirac, parse_measure_spec, power, srw
from groupwalk.sampler import (SamplerConfig, atom_table, endpoint_counts,
                               norm_statistics, prefix_counts, substream)
from groupwalk.wordmetric import (BallTable, heisenberg_norm,
                                  lamplighter_norm, norm_evaluator)
from references import (empirical_endpoint_distribution, sample_trajectory,
                        total_variation)


def test_zero_steps_gives_empty_trajectory():
    z = group_from_id("zd:1")
    assert sample_trajectory(z, srw(z), 0, substream(0, 0)) == []


def test_deterministic_walk():
    z = group_from_id("zd:1")
    mu = dirac(z, (1,))
    traj = sample_trajectory(z, mu, 3, substream(0, 0))
    assert traj == [(1,), (2,), (3,)]


def test_same_seed_same_trajectory():
    f2 = FreeGroup(2)
    mu = srw(f2)
    t1 = sample_trajectory(f2, mu, 50, substream(42, 7))
    t2 = sample_trajectory(f2, mu, 50, substream(42, 7))
    assert t1 == t2
    t3 = sample_trajectory(f2, mu, 50, substream(42, 8))
    assert t1 != t3


def test_atom_order_is_canonical_string_order():
    f2 = FreeGroup(2)
    elems, cdf = atom_table(srw(f2))
    names = [f2.format_element(g) for g in elems]
    assert names == sorted(names)
    assert cdf[-1] == 1.0


@pytest.mark.usefixtures("fork_every_span")
def test_norm_statistics_worker_invariance():
    z2 = group_from_id("zd:2")
    mu = srw(z2)
    runs = []
    for workers in (1, 2, 5):
        cfg = SamplerConfig(seed=99, trajectories=300, steps=64,
                            workers=workers)
        runs.append(norm_statistics(mu, cfg, checkpoints=[16, 64]))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][16][0] == 300
    assert all(isinstance(v, int) for v in runs[0][64])


def test_norm_statistics_repeatable_across_runs():
    lam = group_from_id("lamplighter")
    cfg = SamplerConfig(seed=3, trajectories=100, steps=50)
    a = norm_statistics(srw(lam), cfg)
    b = norm_statistics(srw(lam), cfg)
    assert a == b


@pytest.mark.usefixtures("fork_every_span")
def test_endpoint_counts_worker_invariance():
    f2 = FreeGroup(2)
    cfg1 = SamplerConfig(seed=5, trajectories=200, steps=3, workers=1)
    cfg2 = SamplerConfig(seed=5, trajectories=200, steps=3, workers=3)
    assert endpoint_counts(srw(f2), cfg1) == endpoint_counts(srw(f2), cfg2)


def test_empirical_endpoint_tv_small():
    z = group_from_id("zd:1")
    mu = srw(z)
    emp, tv = empirical_endpoint_distribution(
        mu, SamplerConfig(seed=11, trajectories=100_000, steps=2))
    assert tv is not None and tv < 0.01
    exact = power(mu, 2)
    assert total_variation(emp, exact) == tv


def test_empirical_point_mass_for_deterministic_walk():
    z = group_from_id("zd:1")
    emp, tv = empirical_endpoint_distribution(
        dirac(z, (1,)), SamplerConfig(seed=0, trajectories=500, steps=5))
    assert dict(emp.atoms) == {(5,): 1.0}
    assert tv == 0


def test_free2_one_step_frequencies():
    f2 = FreeGroup(2)
    emp, tv = empirical_endpoint_distribution(
        srw(f2), SamplerConfig(seed=2, trajectories=100_000, steps=1))
    for g in f2.generators():
        assert emp.atoms[g] == pytest.approx(0.25, abs=0.01)


def test_free5_endpoints_keep_the_identity_and_the_fifth_letter_apart():
    f5 = FreeGroup(5)
    config = SamplerConfig(seed=1, trajectories=2000, steps=1)
    mu = parse_measure_spec(f5, "1=1/2;e=1/2")
    assert set(mu.atoms) == {(), (5,)}
    counts = endpoint_counts(mu, config)
    assert sorted(map(f5.parse_element, counts)) == [(), (5,)]
    assert sum(counts.values()) == 2000
    emp, tv = empirical_endpoint_distribution(srw(f5), config)
    assert set(emp.atoms) == set(f5.generators())
    assert tv < 0.05


@pytest.mark.parametrize("gid", ["zd:1", "free:2"])
def test_endpoint_law_converges_at_four_steps(gid):
    group = group_from_id(gid)
    mu = srw(group)
    tvs = []
    for trajectories in (2000, 50_000):
        _, tv = empirical_endpoint_distribution(
            mu, SamplerConfig(seed=8, trajectories=trajectories, steps=4))
        tvs.append(tv)
    assert tvs[1] < tvs[0]
    assert tvs[1] < 0.02


def test_prefix_counts_free_only():
    with pytest.raises(DomainError):
        prefix_counts(srw(group_from_id("zd:2")), 2,
                      SamplerConfig(seed=0, trajectories=10, steps=4))
    counts = prefix_counts(srw(FreeGroup(2)), 1,
                           SamplerConfig(seed=0, trajectories=400, steps=30))
    assert sum(counts.values()) == 400
    assert set(counts) <= {"a", "A", "b", "B", "-"}


@pytest.mark.parametrize("level", [0, -2])
def test_prefix_counts_rejects_levels_below_one(level):
    with pytest.raises(DomainError, match="prefix level"):
        prefix_counts(srw(FreeGroup(2)), level,
                      SamplerConfig(seed=0, trajectories=10, steps=4))


def test_heisenberg_norm_stats_need_no_ball():
    h = Heisenberg()
    cfg = SamplerConfig(seed=1, trajectories=50, steps=4)
    stats = norm_statistics(srw(h), cfg)
    assert stats[4][0] == 50
    assert stats == _reference(h, srw(h), cfg, [4], 0)[0]


def test_heisenberg_norm_statistics_build_no_ball(monkeypatch):
    """Heisenberg norms are closed forms: no ball table is made, and a
    walk of 300 steps, far past the largest ball BFS can build (radius
    46), is measured."""
    def no_ball(*args, **kwargs):
        raise AssertionError("a ball table was built")

    monkeypatch.setattr(BallTable, "__init__", no_ball)
    mu = srw(Heisenberg())
    cfg = SamplerConfig(seed=4, trajectories=30, steps=300)
    stats = norm_statistics(mu, cfg, checkpoints=[7, 300])
    assert stats[300][0] == 30
    monkeypatch.undo()
    assert stats == _reference(Heisenberg(), mu, cfg, [7, 300], 0)[0]


def test_config_validation():
    with pytest.raises(DomainError):
        SamplerConfig(seed=0, trajectories=0, steps=1)
    with pytest.raises(DomainError):
        SamplerConfig(seed=0, trajectories=1, steps=-1)
    with pytest.raises(DomainError):
        SamplerConfig(seed=-1, trajectories=1, steps=1)
    with pytest.raises(DomainError):
        norm_statistics(srw(FreeGroup(2)),
                        SamplerConfig(seed=0, trajectories=1, steps=4),
                        checkpoints=[9])


def test_substream_is_default_rng_of_the_seed_sequence():
    for seed, index in ((0, 0), (7, 12345), (2 ** 40 + 3, 2 ** 31)):
        expected = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        assert np.array_equal(substream(seed, index).random(50),
                              expected.random(50))


# -- the block stream against substream -------------------------------------------

SEEDER_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1, 2 ** 128 - 1, 2 ** 128,
                *(random.Random(2024).getrandbits(128) for _ in range(3))]
# uneven segments of 1,000 draws, crossing slab boundaries (and the slab
# width itself, as one segment and as a sum of two)
SEGMENTS = [1, 13, 64, 17, 128, 63, 65, 200, 449]


@pytest.mark.parametrize("seed", SEEDER_SEEDS)
# one-word spawn keys; keys straddling two words, a carry within two words
# and three words
@pytest.mark.parametrize("first, stop", [(0, 301),
                                         (2 ** 32 - 3, 2 ** 32 + 4),
                                         (2 ** 33 - 3, 2 ** 33 + 4),
                                         (2 ** 64 - 2, 2 ** 64 + 2)])
def test_block_seeder_matches_substream(seed, first, stop):
    """Each column of ``raw`` is the row's PCG64 ``random_raw``, and its
    top 53 bits scaled by 2^-53 are the row's ``substream`` doubles: the
    guide table's thresholds rest on that convention."""
    words = sampler._seed_words(seed, first, stop)
    assert words.dtype == np.uint64 and words.shape == (stop - first, 4)
    whole = sampler._BlockStream(seed, first, stop).raw(1000)
    stream = sampler._BlockStream(seed, first, stop)
    pieces = np.concatenate([stream.raw(n) for n in SEGMENTS])
    assert stream.rows == stop - first
    assert whole.dtype == pieces.dtype == np.uint64
    assert whole.shape == pieces.shape == (1000, stop - first)
    for i, row, one, split in zip(range(first, stop), words, whole.T,
                                  pieces.T):
        expected = np.random.SeedSequence(seed, spawn_key=(i,))
        assert np.array_equal(row, expected.generate_state(4, np.uint64))
        raw = np.random.PCG64(expected).random_raw(1000)
        assert np.array_equal(one, raw)
        assert np.array_equal(split, raw)
        assert np.array_equal((one >> np.uint64(11)) * 2.0 ** -53,
                              substream(seed, i).random(1000))


# -- atom indices from raw words against searchsorted on their doubles -------

def _cdf(weights) -> np.ndarray:
    """The cumulative distribution ``atom_table`` builds from `weights`
    scaled to mass 1."""
    weights = np.asarray(weights, dtype=float)
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    return cdf


GUIDE_CDFS = {
    "one atom": _cdf([1.0]),
    # weights from 1 down to 1e-300: many thresholds share a bucket
    "tiny weights": _cdf(np.logspace(0, -300, 40)),
    # the last atom's weight is lost to rounding: two thresholds at 1.0
    "early one": _cdf([0.5, 0.5, 1e-17]),
    # an exact weight below 2^-1074 is 0.0 as a double: a threshold of 0,
    # which every word reaches
    "zero first": _cdf([0.0, 0.5, 0.5]),
}


@pytest.mark.parametrize("case", sorted(GUIDE_CDFS))
def test_guide_table_matches_searchsorted(case):
    """Words at and around every threshold T * 2^11, and at both ends of
    the word range, index as ``searchsorted`` indexes their doubles."""
    cdf = GUIDE_CDFS[case]
    table = sampler._GuideTable(cdf)
    words = {0, 2 ** 64 - 1}
    for c in cdf.tolist():
        threshold = math.ceil(c * 2 ** 53)
        words.update(w for w in (threshold * 2 ** 11 + d
                                 for d in (-1, 0, 1, 2047))
                     if 0 <= w < 2 ** 64)
    words.update(random.Random(case).getrandbits(64) for _ in range(500))
    x = np.array(sorted(words), dtype=np.uint64)
    expected = np.searchsorted(cdf, (x >> np.uint64(11)) * 2.0 ** -53,
                               side="right")
    assert table.indices(x).tolist() == expected.tolist()
    assert table.indices(x.reshape(-1, 1)).shape == (len(x), 1)
    if case == "tiny weights":
        assert table.depth >= 2
    if case == "early one":
        assert cdf[-2] == 1.0


@pytest.mark.usefixtures("fork_every_span")
def test_walks_with_small_blocks_match_default_blocks(monkeypatch):
    mu = srw(FreeGroup(2))
    runs = {}
    for seed in (0, 2 ** 128 + 5):
        config = SamplerConfig(seed=seed, trajectories=30, steps=40)
        runs[seed] = norm_statistics(mu, config, checkpoints=[7, 40])
    monkeypatch.setattr(sampler, "BLOCK_ROWS", 8)
    for seed, expected in runs.items():
        for workers in (1, 2):
            config = SamplerConfig(seed=seed, trajectories=30, steps=40,
                                   workers=workers)
            assert norm_statistics(mu, config,
                                   checkpoints=[7, 40]) == expected


# -- batch kernels against the checked reference walk -------------------------

KERNEL_CASES = {
    "zd:1": ("zd:1", "1=1/2;-1=1/4;3=1/4"),
    "zd:3": ("zd:3", "srw"),
    # seven thresholds inside one guide-table bucket: deep index lookups
    "zd:1-clustered": ("zd:1", "-1=1/2;" + "".join(
        f"{k}=1/512;" for k in range(1, 9)) + "9=31/64"),
    # coordinates beyond int64 take the Python-int path
    "zd:1-wide": ("zd:1", "10000000000000000000=1/2;-3=1/2"),
    # int64 coordinates and norms whose squares pass 2^63
    "zd:3-squares": ("zd:3", "90000000,90000000,90000000=1/2;"
                             "-90000000,90000000,-90000000=1/2"),
    "free:2": ("free:2", "ab=1/4;Ba=1/4;a=1/8;A=1/8;e=1/8;bAB=1/8"),
    "free:3": ("free:3", "srw"),
    "lamplighter": ("lamplighter",
                    "{-1,0,2}|1=1/4;{}|-2=1/4;{0}|0=1/4;{1}|2=1/4"),
    "lamplighter-wide": ("lamplighter",
                         "{10000000000000000000}|1=1/2;{}|-1=1/2"),
    "heisenberg": ("heisenberg", "srw"),
    # steps moving x and y at once
    "heisenberg-diagonal": ("heisenberg",
                            "1,1,0=1/4;-1,-1,0=1/4;1,-1,2=1/4;-1,1,-1=1/4"),
    "heisenberg-wide": ("heisenberg",
                        "100000000000,100000000000,0=1/2;-3,1,0=1/2"),
}


def _reference(group, mu, config, checkpoints, level):
    """norm_statistics, endpoint_counts and prefix_counts rebuilt from
    sample_trajectory, which multiplies with the checked Group.mul."""
    norm = norm_evaluator(group)
    stats = {cp: [0, 0, 0] for cp in checkpoints}
    ends, prefixes = Counter(), Counter()
    for i in range(config.trajectories):
        walk = [group.identity()] + sample_trajectory(
            group, mu, config.steps, substream(config.seed, i))
        for cp in checkpoints:
            r = norm(walk[cp])
            stats[cp][0] += 1
            stats[cp][1] += r
            stats[cp][2] += r * r
        ends[group.format_element(walk[-1])] += 1
        if len(walk[-1]) < level:
            prefixes["-"] += 1
        else:
            prefixes[group.format_element(walk[-1][:level])] += 1
    return stats, ends, prefixes


@pytest.mark.usefixtures("fork_every_span")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("steps", [0, 23])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernels_match_reference_walk(monkeypatch, case, steps, workers):
    # small blocks and segments: 30 trajectories span four blocks, and
    # 23 steps span five segments of a full block
    monkeypatch.setattr(sampler, "BLOCK_ROWS", 8)
    monkeypatch.setattr(sampler, "SEGMENT_DRAWS", 40)
    gid, spec = KERNEL_CASES[case]
    group = group_from_id(gid)
    mu = parse_measure_spec(group, spec)
    config = SamplerConfig(seed=31, trajectories=30, steps=steps,
                           workers=workers)
    checkpoints = [1, 4, 5, 12, 23] if steps else []
    stats, ends, prefixes = _reference(group, mu, config, checkpoints, 2)
    if steps:
        assert norm_statistics(mu, config, checkpoints=checkpoints) == stats
    got = endpoint_counts(mu, config)
    assert list(got.items()) == list(ends.items())
    if isinstance(group, FreeGroup):
        got = prefix_counts(mu, 2, config)
        assert list(got.items()) == list(prefixes.items())


def test_kernel_matches_reference_walk_at_default_sizes():
    # more trajectories than one block, more steps than one segment
    group = FreeGroup(2)
    mu = parse_measure_spec(group, "ab=1/4;A=1/4;B=1/4;b=1/4")
    steps = sampler.SEGMENT_DRAWS // sampler.BLOCK_ROWS + 3
    config = SamplerConfig(seed=4, trajectories=sampler.BLOCK_ROWS + 20,
                           steps=steps)
    checkpoints = [1, steps // 2, steps]
    stats, ends, prefixes = _reference(group, mu, config, checkpoints, 3)
    assert norm_statistics(mu, config, checkpoints=checkpoints) == stats
    assert list(endpoint_counts(mu, config).items()) == list(ends.items())
    assert list(prefix_counts(mu, 3, config).items()) == \
        list(prefixes.items())


def _tuple_tallies(mu, seed, steps, level, span):
    """Endpoint and prefix tallies of a span the way they were taken
    before the free walk texted its word rows: each block's positions()
    as tuples, each distinct one formatted once. Also whether some block
    held stale letters past a row's top."""
    fmt = mu.group.format_element
    ends, prefixes, stale = Counter(), Counter(), False
    for _, walk in sampler._walk_chunk(mu, seed, span, [steps]):
        positions = walk.positions()
        for g, n in Counter(positions).items():
            ends[fmt(g)] += n
        cut = Counter(w[:level] if len(w) >= level else None
                      for w in positions)
        for w, n in cut.items():
            prefixes["-" if w is None else fmt(w)] += n
        lengths = walk.norms()
        past = np.arange(walk.stack.shape[1]) >= lengths[:, None]
        stale |= bool((walk.stack[past] != 0).any())
    return ends, prefixes, stale


@pytest.mark.parametrize("level", [1, 3, 40])
@pytest.mark.parametrize("steps", [0, 5, 31])
@pytest.mark.parametrize("case", ["free:2", "free:3"])
def test_free_tallies_match_tuple_reference(case, steps, level):
    """Counters equal the tuple reference, key order included, over more
    than one block; short walks leave rows shorter than the level (every
    row, past the stack's width, when no walk can reach it), and
    cancelling steps leave stale letters on the stack."""
    gid, spec = KERNEL_CASES[case]
    mu = parse_measure_spec(group_from_id(gid), spec)
    span = (0, sampler.BLOCK_ROWS + 77)
    ends, prefixes, stale = _tuple_tallies(mu, 12, steps, level, span)
    assert stale == (steps > 0)
    got = sampler._endpoint_chunk(mu, 12, steps, span)
    assert list(got.items()) == list(ends.items())
    got = sampler._prefix_chunk(mu, 12, steps, level, span)
    assert list(got.items()) == list(prefixes.items())
    if level > steps * max(map(len, mu.atoms)):
        assert got == {"-": span[1]}


def test_clustered_kernel_case_runs_deep_lookups():
    gid, spec = KERNEL_CASES["zd:1-clustered"]
    _, cdf = atom_table(parse_measure_spec(group_from_id(gid), spec))
    assert sampler._GuideTable(cdf).depth >= 2


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_norms_match_norm_evaluator(case):
    """Array norms against the scalar closed forms."""
    gid, spec = KERNEL_CASES[case]
    group = group_from_id(gid)
    mu = parse_measure_spec(group, spec)
    norm = norm_evaluator(group)
    for _, walk in sampler._walk_chunk(mu, 31, (0, 30), [1, 4, 12, 23]):
        got = walk.norms()
        assert got.tolist() == [norm(g) for g in walk.positions()]
        assert got.dtype == (object if case.endswith("-wide") else np.int64)


@pytest.mark.parametrize("far", [0, 10 ** 19])
def test_lamplighter_norms_on_chosen_rows(far):
    """Rows with no lit lamp (never toggled, or toggled twice), lamps on
    both sides of 0, and a walker beyond its lamps on either side. A
    nonzero `far` moves every lamp by `far`, out of int64 range."""
    elems = [((), 1), ((), -1), ((far,), 0)]
    rows = [[0, 0, 0, 0, 0, 0],
            [2, 0, 0, 2, 1, 1],
            [1, 1, 2, 0, 0, 0],
            [1, 2, 0, 0, 2, 0],
            [2, 2, 0, 0, 0, 0],
            [1, 1, 1, 2, 0, 0],
            [0, 0, 2, 1, 1, 1],
            [2, 1, 1, 1, 1, 1]]
    walk = sampler._LamplighterWalk(elems, len(rows), 6)
    assert walk.norms().tolist() == [0] * len(rows)
    for cut in (1, 4):
        walk = sampler._LamplighterWalk(elems, len(rows), 6)
        # indices are (steps, rows)
        walk.advance(np.array([r[:cut] for r in rows]).T)
        walk.advance(np.array([r[cut:] for r in rows]).T)
        positions = walk.positions()
        assert positions[0] == ((), 6) and positions[4] == ((), 4)
        assert positions[3] == ((far - 1, far + 1), 2)
        norms = walk.norms()
        assert norms.tolist() == list(map(lamplighter_norm, positions))
        assert norms.dtype == (object if far else np.int64)
    # no row has ever toggled a lamp: an empty lamp window
    walk = sampler._LamplighterWalk(elems[:2], 3, 4)
    walk.advance(np.array([[0, 0, 1, 0], [1, 1, 1, 1], [0, 1, 1, 0]]).T)
    assert walk.window.shape[1] == 0
    assert walk.norms().tolist() == [2, 4, 0]


def _heisenberg_rows(rows, dtype) -> np.ndarray:
    """Heisenberg kernel norms of `rows`, set as its positions."""
    walk = sampler._HeisenbergWalk([(1, 0, 0)], len(rows), 1)
    walk.pos = np.array(rows, dtype=dtype).reshape(-1, 3)
    return walk.norms()


def test_heisenberg_array_norms_match_scalar_on_random_rows():
    """The array form against ``heisenberg_norm``: random int64 rows in
    every case of the formula, out to the largest reach the kernel keeps
    in int64, and the same rows as Python ints."""
    rng = np.random.default_rng(5)
    edge = math.isqrt(2 ** 59)          # 8 edge (edge + 1) < 2^62
    while 8 * edge * (edge + 1) >= 2 ** 62:
        edge -= 1
    for reach, dtype in ((edge, np.int64), (edge + 1, object)):
        walk = sampler._HeisenbergWalk([(1, 0, 0)], 1, reach)
        assert walk.pos.dtype == dtype
    for reach in (3, 40, 10 ** 4, edge):
        z_reach = reach * (reach + 1)
        x, y = rng.integers(-reach, reach + 1, size=(2, 2000))
        for z in (rng.integers(-z_reach, z_reach + 1, size=2000),
                  x * y // 2 + rng.integers(-reach, reach + 1, size=2000),
                  x * rng.integers(-reach, reach + 1, size=2000) // reach):
            rows = np.stack([x, y, z], axis=1)
            expected = [heisenberg_norm(g) for g in map(tuple, rows.tolist())]
            got = _heisenberg_rows(rows, np.int64)
            assert got.dtype == np.int64 and got.tolist() == expected
            got = _heisenberg_rows(rows, object)
            assert got.dtype == object and got.tolist() == expected


def test_heisenberg_array_norms_past_2_31_take_python_ints():
    """A walk whose reach makes 8 reach (reach + 1) pass 2^62 keeps Python
    ints, so coordinates past 2^31 and z past 2^63 norm exactly."""
    big = 2 ** 31 + 7
    walk = sampler._HeisenbergWalk([(1, 0, 0)], 1, big)
    assert walk.pos.dtype == object
    rows = [(big, -big, 0), (big, 3, -5 * big), (-big, big, big * big),
            (0, 0, 2 ** 64 + 1), (2 ** 70, 2 ** 69, -(2 ** 140)),
            (-3, 2 ** 40, 2 ** 81 + 1), (1, 1, -(2 ** 100))]
    got = _heisenberg_rows(rows, object)
    assert got.tolist() == [heisenberg_norm(g) for g in rows]


def test_heisenberg_walk_beyond_radius_2_matches_reference():
    """A ten-step walk leaves the radius-2 ball, which no longer matters:
    its norms are those of the reference walk."""
    cfg = SamplerConfig(seed=1, trajectories=20, steps=10)
    mu = srw(Heisenberg())
    assert norm_statistics(mu, cfg) == \
        _reference(Heisenberg(), mu, cfg, [10], 0)[0]


def _count_forks(monkeypatch) -> list:
    """Count the os.fork calls made from this process from now on."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.usefixtures("fork_every_span")
@pytest.mark.parametrize("cpus, trajectories, expected", [
    (3, 100, [2]), (3, 2, [1]), (None, 100, []), (1, 100, [])])
def test_worker_count_is_clamped(monkeypatch, cpus, trajectories, expected):
    """Forked chunks per call: one chunk per worker, less the inline one."""
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: cpus)
    forks = _count_forks(monkeypatch)
    mu = srw(FreeGroup(2))
    one = SamplerConfig(seed=6, trajectories=trajectories, steps=9)
    many = SamplerConfig(seed=6, trajectories=trajectories, steps=9,
                         workers=64)
    sizes, results = [], []
    for config in (many, one):
        forks.clear()
        results.append(norm_statistics(mu, config))
        if forks:
            sizes.append(len(forks))
    assert results[0] == results[1]
    assert sizes == expected


def test_a_span_forks_only_past_fork_draws(monkeypatch):
    """At FORK_DRAWS = 100, 10 x 10 draws run in one span and 101 x 1
    draws in two, and either report is the one-worker report."""
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sampler, "FORK_DRAWS", 100)
    forks = _count_forks(monkeypatch)
    mu = srw(group_from_id("zd:2"))
    for (trajectories, steps), expected in (((10, 10), 0), ((101, 1), 1)):
        one, two = (SamplerConfig(seed=4, trajectories=trajectories,
                                  steps=steps, workers=w) for w in (1, 2))
        inline = norm_statistics(mu, one)
        forks.clear()
        assert norm_statistics(mu, two) == inline
        assert len(forks) == expected


def test_zero_draws_run_in_one_span(monkeypatch):
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 2)
    forks = _count_forks(monkeypatch)
    config = SamplerConfig(seed=1, trajectories=5, steps=0, workers=2)
    got = endpoint_counts(srw(group_from_id("zd:2")), config)
    assert got == Counter({"0,0": 5})
    assert forks == []


@pytest.mark.usefixtures("fork_every_span")
def test_chunks_run_inline_without_fork(monkeypatch):
    mu = srw(FreeGroup(2))
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 3)
    configs = [SamplerConfig(seed=6, trajectories=50, steps=9, workers=w)
               for w in (1, 3)]
    expected = [endpoint_counts(mu, c) for c in configs]
    assert list(expected[0].items()) == list(expected[1].items())
    monkeypatch.delattr(os, "fork")
    for config in configs:
        got = endpoint_counts(mu, config)
        assert list(got.items()) == list(expected[0].items())


@pytest.mark.usefixtures("fork_every_span")
def test_forked_chunks_leave_no_child_unreaped(monkeypatch):
    """After a fan-out that succeeds and one whose forked chunk raises,
    this process has no child left to wait for."""
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 2)
    forks = _count_forks(monkeypatch)
    mu = srw(Heisenberg())
    inside = SamplerConfig(seed=3, trajectories=1, steps=4)
    assert norm_statistics(mu, inside)[4][0] == 1
    config = SamplerConfig(seed=3, trajectories=2, steps=4, workers=2)
    assert norm_statistics(mu, config)[4][0] == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # the inline chunk succeeds and the forked one raises
    norm_chunk = sampler._norm_chunk

    def chunk(*args):
        if args[-1][0] > 0:
            raise OutOfRangeError("trajectory 1 failed", required=4)
        return norm_chunk(*args)

    monkeypatch.setattr(sampler, "_norm_chunk", chunk)
    with pytest.raises(OutOfRangeError) as raised:
        norm_statistics(mu, config)
    assert raised.value.required == 4
    assert forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 2


def test_lamp_window_over_budget_is_a_resource_error():
    lam = group_from_id("lamplighter")
    mu = parse_measure_spec(lam, "{0,100000000}|1=1")
    with pytest.raises(ResourceLimitError):
        endpoint_counts(mu, SamplerConfig(seed=0, trajectories=1, steps=1))


def test_lamp_window_budget_is_per_trajectory():
    """The widest window fits at any row count, and one position more
    fails at any row count."""
    lam = group_from_id("lamplighter")
    widest = sampler.MAX_WINDOW_WIDTH - 1
    fits = parse_measure_spec(lam, f"{{0,{widest}}}|1=1")
    over = parse_measure_spec(lam, f"{{0,{widest + 1}}}|1=1")
    for trajectories in (1, 3):
        config = SamplerConfig(seed=0, trajectories=trajectories, steps=1)
        assert endpoint_counts(fits, config) == Counter(
            {f"{{0,{widest}}}|1": trajectories})
        with pytest.raises(ResourceLimitError) as raised:
            endpoint_counts(over, config)
        assert str(raised.value) == (
            f"lamplighter lamp window of {widest + 2} positions exceeds "
            f"{sampler.MAX_WINDOW_WIDTH} positions per trajectory")


def _chi2_sf(x, df):
    """P(chi^2 with df degrees of freedom >= x): the regularized upper
    incomplete gamma function Q(df/2, x/2), by its series below x/2 =
    df/2 + 1 and by Lentz's continued fraction above (Numerical Recipes,
    section 6.2)."""
    s, z = df / 2, x / 2
    if z <= 0:
        return 1.0
    front = math.exp(s * math.log(z) - z - math.lgamma(s))
    if z < s + 1:
        term = total = 1 / s
        j = 1
        while term > 1e-17 * total:
            term *= z / (s + j)
            total += term
            j += 1
        return 1 - front * total
    b = z + 1 - s
    c, d = 1e300, 1 / b
    h = d
    for i in range(1, 10_000):
        a = -i * (i - s)
        b += 2
        d = 1 / (a * d + b)
        c = b + a / c
        h *= d * c
        if abs(d * c - 1) < 1e-15:
            break
    return front * h


def _chi_square_p(counts, law, trajectories):
    """Pearson's test of endpoint counts (texts -> tallies) against an exact
    law: cells taken by rising expected count, pooled until each holds at
    least 5, a short last pool merged into the one before."""
    group = law.group
    observed = {group.parse_element(s): c for s, c in counts.items()}
    assert set(observed) <= set(law.weights), "an endpoint outside the law"
    cells = sorted((c * trajectories / law.den, observed.get(g, 0))
                   for g, c in law.weights.items())
    pools = []
    expected = seen = 0
    for e, o in cells:
        expected, seen = expected + e, seen + o
        if expected >= 5:
            pools.append((expected, seen))
            expected = seen = 0
    if expected:
        last_e, last_o = pools.pop()
        pools.append((last_e + expected, last_o + seen))
    stat = sum((o - e) ** 2 / e for e, o in pools)
    return _chi2_sf(stat, len(pools) - 1), len(pools)


CHI_SQUARE_FLOOR = 1e-3


# (group, measure, steps, the measure's atoms under other weights)
@pytest.mark.parametrize("gid,spec,steps,wrong", [
    ("zd:2", "srw", 6, "1,0=3/10;-1,0=1/5;0,1=1/4;0,-1=1/4"),
    ("zd:2", "1,0=1/3;-1,1=1/6;0,-1=1/2", 5, "1,0=1/4;-1,1=1/4;0,-1=1/2"),
    ("free:2", "srw", 4, "a=3/10;A=1/5;b=1/4;B=1/4"),
    ("free:2", "a=1/3;A=1/6;aa=1/4;e=1/4", 5, "a=1/4;A=1/4;aa=1/4;e=1/4")])
def test_endpoint_counts_chi_square_against_the_exact_law(gid, spec, steps,
                                                          wrong):
    """The sampler's endpoint law at a fixed seed against mu^{*n} from the
    exact engine, at sizes inside the atom budget. The same counts fail
    against the law of the same atoms under other weights, so the gate
    can see a biased stream."""
    group = group_from_id(gid)
    mu = parse_measure_spec(group, spec)
    trajectories = 20_000
    counts = endpoint_counts(mu, SamplerConfig(seed=17,
                                               trajectories=trajectories,
                                               steps=steps))
    assert sum(counts.values()) == trajectories
    p, cells = _chi_square_p(counts, power(mu, steps), trajectories)
    assert cells > 10
    assert p > CHI_SQUARE_FLOOR
    off, _ = _chi_square_p(counts, power(parse_measure_spec(group, wrong),
                                         steps), trajectories)
    assert off < CHI_SQUARE_FLOOR
