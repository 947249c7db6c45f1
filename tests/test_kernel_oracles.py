"""Integer and array kernels of the exact free-group routes, pinned to the
per-word ``Fraction`` code they replaced.

Each oracle below is a test-local copy of the earlier implementation: the
recursive cylinder generator, the scalar exponent loop and the exponent
histogram tallied over the cylinders, the cylinder-by-cylinder Poisson
integral and the harmonicity check that calls it (2k+1) times per ball
element, the translated cylinder mass summed over the
deepened cylinders, Gaussian elimination over ``Fraction`` and the
``Fraction`` recursion of the radial norm law (with the f_j, phi_n, a_n and
H_n built on it), and the c sequence summed atom by atom over the
convolution powers of the adjoint walk. ``FreeGroup.format_element`` is
the oracle of the texts of int8 word rows. The last tests break the mass
formula or the step law on purpose and require the exact checks to see
it.
"""

import functools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from groupwalk import boundary, freewalk
from groupwalk.groups import FreeGroup
from groupwalk.measures import adjoint, finite_measure, power_sequence, srw
from groupwalk.wordmetric import build_ball
from references import (cylinder_mass, radial_fk, shannon_entropy,
                        translated_cylinder_mass)


# -- oracles: the earlier per-word code ------------------------------------------

def old_cylinders(k, level):
    letters = [i for i in range(1, k + 1)] + [-i for i in range(1, k + 1)]
    word = []

    def rec():
        if len(word) == level:
            yield tuple(word)
            return
        for x in letters:
            if word and word[-1] == -x:
                continue
            word.append(x)
            yield from rec()
            word.pop()

    yield from rec()


def old_exponent(g, w):
    p = 0
    for a, b in zip(g, w):
        if a != b:
            break
        p += 1
    return 2 * p - len(g)


def old_histogram(g, words):
    """(exponent, count) pairs of sigma(g, .) tallied over `words`."""
    return sorted(Counter(old_exponent(g, w) for w in words).items())


def old_exact_rank(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows))
                      if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / pv
                rows[i] = [x - factor * y
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def old_norm_distributions(k, n_max):
    up = Fraction(2 * k - 1, 2 * k)
    down = Fraction(1, 2 * k)
    dist = [[Fraction(1)]]
    for n in range(n_max):
        cur = dist[-1]
        nxt = [Fraction(0)] * (len(cur) + 1)
        for m, w in enumerate(cur):
            if w == 0:
                continue
            if m == 0:
                nxt[1] += w
            else:
                nxt[m + 1] += w * up
                nxt[m - 1] += w * down
        dist.append(nxt)
    return dist


def old_radial_fk(k, steps, r_max):
    dist = old_norm_distributions(k, max(steps - 1, 0))
    q = 2 * k - 1
    table = []
    for j in range(steps):
        row_j = dist[j]
        tails = [Fraction(0)] * (len(row_j) + 1)
        acc = Fraction(0)
        for m in range(len(row_j) - 1, -1, -1):
            acc += row_j[m]
            tails[m] = acc
        row = [Fraction(0)]
        acc = Fraction(0)
        for r in range(1, r_max + 1):
            tail = tails[r] if r < len(tails) else Fraction(0)
            acc += tail * Fraction(1, 2 * k) * Fraction(1, q) ** (r - 1)
            row.append(Fraction(r) - 2 * acc)
        table.append(row)
    return table


def old_shannon_entropy(k, n):
    row = old_norm_distributions(k, n)[n]
    h = 0.0
    for m, w in enumerate(row):
        if w == 0:
            continue
        if m == 0:
            h -= float(w) * math.log(float(w))
        else:
            sphere = 2 * k * (2 * k - 1) ** (m - 1)
            h -= float(w) * (math.log(float(w)) - math.log(sphere))
    return h


def old_c_sequence(k, n_max):
    """The c sequence through the convolution powers of the adjoint walk and
    a cylinder scan per atom."""
    boundary._check_rank(k)
    group = FreeGroup(k)
    q = 2 * k - 1
    mu_adj = adjoint(srw(group))
    coeffs = []
    tables = {}
    sums = {}
    for _, mun in power_sequence(mu_adj, n_max):
        atoms = [(s, a) for s, a in mun.weights.items() if s]
        top = max((len(s) for s, _ in atoms), default=1)
        acc = 0
        for s, a in atoms:
            if s not in sums:
                if len(s) not in tables:
                    tables[len(s)] = boundary._cylinder_array(k, len(s))
                sums[s] = int(boundary._exponent(s, tables[len(s)]).sum())
            acc += a * q ** (top - len(s)) * sums[s]
        coeffs.append(Fraction(acc, mun.den * 2 * k * q ** (top - 1)))
    return coeffs


# -- cylinders, exponents, translates ----------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 4])
def test_cylinder_order_matches_recursive_enumerator(k):
    for level in range(1, 7):
        words = boundary._cylinder_array(k, level)
        assert words.shape == (boundary.cylinder_count(k, level), level)
        expected = list(old_cylinders(k, level))
        assert [tuple(w) for w in words.tolist()] == expected
        assert list(boundary.cylinders(k, level)) == expected


@pytest.mark.parametrize("k", [1, 2, 26])
def test_word_rows_text_as_format_element(k):
    """``word_rows`` against the recursive enumerator, and
    ``format_word_rows`` against ``format_element`` on every reduced word
    up to length 4, except that k = 26's 6.9M words of length 4 are taken
    every 101st (a stride that cycles through the letters in every
    column); then on rows of several lengths padded with 0s, on empty
    rows, and on arrays with no column or no row."""
    group = FreeGroup(k)
    levels = list(boundary.word_rows(k, 4))
    for length, words in enumerate(levels, start=1):
        assert words.shape == (boundary.cylinder_count(k, length), length)
        if k < 26 or length <= 2:
            assert ([tuple(w) for w in words.tolist()]
                    == list(old_cylinders(k, length)))
        if k == 26 and length == 4:
            words = words[::101]
        expected = [group.format_element(w)
                    for w in map(tuple, words.tolist())]
        assert boundary.format_word_rows(k, words) == expected
    mixed = [()] + [w for words in levels[:3]
                    for w in map(tuple, words[::7].tolist())] + [(), ()]
    padded = np.zeros((len(mixed), 5), dtype=np.int8)
    for i, w in enumerate(mixed):
        padded[i, :len(w)] = w
    assert (boundary.format_word_rows(k, padded)
            == [group.format_element(w) for w in mixed])
    identity = group.format_element(())
    assert (boundary.format_word_rows(k, np.zeros((3, 0), dtype=np.int8))
            == [identity] * 3)
    assert boundary.format_word_rows(k, np.zeros((0, 2), dtype=np.int8)) == []


@pytest.mark.parametrize("k,level", [(2, 3), (2, 5), (3, 3), (3, 4)])
def test_exponent_array_matches_scalar_loop(k, level):
    ball = [g for g in build_ball(FreeGroup(k), 3).norms if len(g) <= level]
    words = boundary._cylinder_array(k, level)
    rows = words.tolist()
    matrix = boundary._exponents(ball, words)
    for j, g in enumerate(ball):
        expected = [old_exponent(g, w) for w in rows]
        assert boundary._exponent(g, words).tolist() == expected
        assert matrix[:, j].tolist() == expected


@pytest.mark.parametrize("k,level", [(2, 5), (3, 4)])
def test_translate_matches_group_product(k, level):
    group = FreeGroup(k)
    words = boundary._cylinder_array(k, level)
    for s in build_ball(group, 2).norms:
        for width in range(0, level - len(s) + 1):
            expected = [group._mul(group.inv(s), tuple(w))[:width]
                        for w in words.tolist()]
            got = boundary._translate(s, words, width)
            assert [tuple(u) for u in got.tolist()] == expected


def test_cocycle_histogram_matches_scalar_tally():
    # the closed form against a tally over every level cylinder: 2,473
    # (k, g, level) cases, every g of the ball at every level >= |g|
    cases = 0
    for k, radius, top in ((2, 4, 8), (3, 3, 5), (4, 3, 4)):
        ball = build_ball(FreeGroup(k), radius).norms
        for level in range(1, top + 1):
            words = list(old_cylinders(k, level))
            for g in ball:
                if len(g) > level:
                    continue
                assert (boundary.cocycle_histogram(k, g, level)
                        == old_histogram(g, words)), (k, g, level)
                cases += 1
    assert cases == 2473


# -- boundary integrals in closed form ------------------------------------------

@pytest.mark.parametrize("k,n_max", [(2, 7), (3, 5), (4, 4), (5, 3), (26, 2)])
def test_c_sequence_matches_convolution_route(k, n_max):
    coeffs = boundary.c_sequence(k, n_max)
    assert coeffs == old_c_sequence(k, n_max)
    assert coeffs[0] == Fraction(1 - k, k)


@pytest.mark.parametrize("k,radius", [(2, 6), (3, 4), (4, 3)])
def test_boundary_integrals_match_cylinder_enumeration(k, radius):
    # the closed forms against the exponents of every level-|g| cylinder
    tables = {}
    for g in build_ball(FreeGroup(k), radius).norms:
        level = max(1, len(g))
        if level not in tables:
            tables[level] = boundary._cylinder_array(k, level)
        exponents = boundary._exponent(g, tables[level])
        assert boundary.poisson_seminorm_exponent(k, g) == exponents.max()
        # the integral of the exponent is N_|g| / (2k (2k-1)^|g|)
        assert Fraction(boundary._log_cocycle_numerator(k, len(g)),
                        2 * k * (2 * k - 1) ** len(g)) == Fraction(
            int(exponents.sum()), len(exponents))


# -- Poisson integrals ------------------------------------------------------------

def old_poisson_integral(f, g):
    """P_m f(g) summed cylinder by cylinder: m(C_w) f(head of g w)."""
    group = FreeGroup(f.k)
    return sum((cylinder_mass(f.k, w)
                * f.values[group._mul(g, w)[:f.level]]
                for w in old_cylinders(f.k, len(g) + f.level)), Fraction(0))


def old_check_harmonicity(f, radius, mu):
    """The per-call route: (2k+1) Poisson integrals per ball element."""
    group = FreeGroup(f.k)
    worst = Fraction(0)
    for g in build_ball(group, radius).norms:
        lhs = sum(old_poisson_integral(f, group._mul(g, s)) * w
                  for s, w in mu.atoms.items())
        worst = max(worst, abs(lhs - old_poisson_integral(f, g)))
    return worst


def _random_cylinder_function(rng, k, level):
    return boundary.CylinderFunction(
        k, level, {w: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                   for w in old_cylinders(k, level)})


def old_translated_cylinder_mass(k, g, w):
    """m(g^-1 C_w), by deepening w until translation maps cylinders to
    cylinders (level > |g| suffices); the level's cylinders and masses are
    cached so that a grid of (g, w) runs in seconds."""
    group = FreeGroup(k)
    group.check_element(w)
    g_inv = group.inv(g)
    if len(w) > len(g):
        return _old_level_mass(k, len(group._mul(g_inv, w)))
    return sum((_old_level_mass(k, len(group._mul(g_inv, ext)))
                for ext in _old_cylinder_list(k, len(g) + 1)
                if ext[:len(w)] == w), Fraction(0))


@functools.lru_cache(maxsize=None)
def _old_cylinder_list(k, level):
    return tuple(old_cylinders(k, level))


@functools.lru_cache(maxsize=None)
def _old_level_mass(k, level):
    return cylinder_mass(k, (1,) * level)


# |g| >= level + 2 reaches the branch where z follows g for more than one
# letter past the cylinder
HARMONIC_CASES = [(2, 2, 2, 0), (2, 3, 1, 1), (3, 2, 1, 2), (3, 3, 0, 3),
                  (2, 1, 3, 4), (3, 1, 2, 5)]


@pytest.mark.parametrize("k,level,radius,seed", HARMONIC_CASES)
def test_poisson_integrals_match_cylinder_sum(k, level, radius, seed):
    f = _random_cylinder_function(random.Random(seed), k, level)
    for g in build_ball(FreeGroup(k), radius + 1).norms:
        assert boundary.poisson_integral(f, g) == old_poisson_integral(f, g)


@pytest.mark.parametrize("k,level,radius,seed", HARMONIC_CASES)
def test_harmonicity_matches_per_call_route(monkeypatch, k, level, radius,
                                            seed):
    f = _random_cylinder_function(random.Random(seed), k, level)
    group = FreeGroup(k)
    assert boundary.check_harmonicity(f, radius) == 0
    # a lopsided step law: P_m f is no longer harmonic for it, and both
    # routes must find the same largest residual
    weights = [Fraction(2, 2 * k + 1)] + [Fraction(1, 2 * k + 1)] * (2 * k - 1)
    lopsided = finite_measure(group, dict(zip(group.generators(), weights)))
    monkeypatch.setattr(boundary, "srw", lambda g: lopsided)
    worst = boundary.check_harmonicity(f, radius)
    assert worst > 0
    assert worst == old_check_harmonicity(f, radius, lopsided)


@pytest.mark.parametrize("k,radius", [(2, 4), (3, 3)])
def test_translated_cylinder_mass_matches_deepened_cylinders(k, radius):
    ws = [()] + [w for level in (1, 2, 3) for w in old_cylinders(k, level)]
    for g in build_ball(FreeGroup(k), radius).norms:
        for w in ws:
            assert (translated_cylinder_mass(k, g, w)
                    == old_translated_cylinder_mass(k, g, w))


def test_translated_cylinder_mass_past_the_deepened_route():
    # the points z with g z outside C_a are exactly C_{g^-1}
    assert translated_cylinder_mass(2, (1, 2) * 20, (1,)) == (
        1 - Fraction(1, 4 * 3 ** 39))


def test_closed_forms_enumerate_no_cylinders(monkeypatch):
    f = _random_cylinder_function(random.Random(6), 2, 2)
    ball = build_ball(FreeGroup(2), 3).norms
    pairs = [(g, w) for g in ball for w in ((), (1,), (1, 2), (-2, 1, 2))]
    integrals = [old_poisson_integral(f, g) for g in ball]
    masses = [old_translated_cylinder_mass(2, g, w) for g, w in pairs]
    histograms = [old_histogram(g, old_cylinders(2, len(g) + 2))
                  for g in ball]
    enumerate_level = boundary._cylinder_array

    def no_enumeration(*args):
        raise AssertionError("a closed form enumerated cylinders")

    for name in ("_cylinder_array", "_translate", "cylinders"):
        monkeypatch.setattr(boundary, name, no_enumeration)
    assert [boundary.poisson_integral(f, g) for g in ball] == integrals
    assert [translated_cylinder_mass(2, g, w)
            for g, w in pairs] == masses
    assert boundary.check_harmonicity(f, 3) == 0
    assert [boundary.cocycle_histogram(2, g, len(g) + 2)
            for g in ball] == histograms
    # past the enumeration limit, the histogram sums to the cylinder count
    top = boundary.cocycle_histogram(2, (1, 2, 1, 2), 30)
    assert sum(c for _, c in top) == boundary.cylinder_count(2, 30)

    def level_two_only(k, level):
        if level > 2:
            raise AssertionError(f"stationarity enumerated level {level}")
        return enumerate_level(k, level)

    monkeypatch.setattr(boundary, "_cylinder_array", level_two_only)
    for k, level in ((2, 1), (2, 2), (2, 12), (3, 30), (4, 200)):
        assert boundary.check_boundary_stationarity(k, level) == 0


# -- Bareiss rank -----------------------------------------------------------------

def _random_matrix(rng, nrows, ncols, rank):
    """nrows x ncols rationals of rank <= rank (a product of two factors)."""
    left = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5))
             for _ in range(rank)] for _ in range(nrows)]
    right = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5))
              for _ in range(ncols)] for _ in range(rank)]
    return [[sum((a * right[t][j] for t, a in enumerate(row)), Fraction(0))
             for j in range(ncols)] for row in left]


@pytest.mark.parametrize("seed", range(40))
def test_bareiss_matches_fraction_elimination(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
    rows = _random_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
    if seed % 3 == 0:
        rows.insert(rng.randint(0, nrows), [Fraction(0)] * ncols)
    if seed % 4 == 1:
        rows = [[int(x) if x.denominator == 1 else x for x in r] for r in rows]
    assert boundary.exact_rank(rows) == old_exact_rank(rows)


@pytest.mark.parametrize("rows", [
    [],
    [[]],
    [[Fraction(0), Fraction(0), Fraction(0)]],
    [[Fraction(0), Fraction(3, 7), Fraction(-2)]],
    [[5], [0], [Fraction(-1, 3)]],
    [[0, 0], [0, 0]],
    [[1, 2, 3], [2, 4, 6], [1, 1, 1], [0, 1, 2]],
    [[3 ** 40, 1], [3 ** 41, 3], [1, Fraction(1, 3 ** 40)]],
], ids=["empty", "no-columns", "zero-row", "one-row", "one-column",
        "all-zero", "deficient", "big-entries"])
def test_bareiss_edge_matrices(rows):
    assert boundary.exact_rank(rows) == old_exact_rank(rows)


# -- radial path counts ----------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_path_counts_match_fraction_recursion(k):
    old = old_norm_distributions(k, 64)
    counts = list(freewalk.path_counts(k, 64))
    for n, row in enumerate(counts):
        assert all(type(c) is int for c in row)
        assert [Fraction(c, (2 * k) ** n) for c in row] == old[n]
    assert freewalk.norm_distributions(k, 64) == old
    assert freewalk.expected_norms(k, 64) == [
        sum(Fraction(m) * w for m, w in enumerate(row)) for row in old]


@pytest.mark.parametrize("k,n,r_max", [(1, 9, 4), (2, 1, 3), (2, 17, 6),
                                       (3, 12, 5), (4, 8, 3)])
def test_radial_tables_match_fraction_route(k, n, r_max):
    old = old_radial_fk(k, n, r_max)
    assert radial_fk(k, n, r_max) == old
    assert freewalk.radial_phi(k, n, r_max) == [
        sum(old[j][r] for j in range(n)) / n for r in range(r_max + 1)]
    assert shannon_entropy(k, n) == old_shannon_entropy(k, n)


@pytest.mark.parametrize("k", [2, 3, 26])
def test_entropy_matches_fraction_route_up_to_n100(k):
    for n in range(0, 101, 10):
        assert shannon_entropy(k, n) == old_shannon_entropy(k, n)


# -- the exact checks see a wrong model ------------------------------------------

def test_wrong_mass_formula_breaks_stationarity(monkeypatch):
    # the uniform mass of all (not only reduced) words of a length
    monkeypatch.setattr(boundary, "_level_mass",
                        lambda k, level: Fraction(1, 2 * k) ** level)
    for level in (1, 2, 4):
        assert boundary.check_boundary_stationarity(2, level) > 0


def test_wrong_step_law_breaks_normalization_and_stationarity(monkeypatch):
    group = FreeGroup(2)
    lopsided = finite_measure(group, {(1,): Fraction(1, 2), (-1,): Fraction(1, 6),
                                      (2,): Fraction(1, 6), (-2,): Fraction(1, 6)})
    monkeypatch.setattr(boundary, "srw", lambda g: lopsided)
    for k_power, level in ((1, 1), (2, 3), (3, 3)):
        rep = boundary.check_cocycle_normalization(2, k_power, level)
        assert rep.violations > 0 and rep.max_residual > 0
        assert rep.cylinders_checked == boundary.cylinder_count(2, level)
    assert boundary.check_boundary_stationarity(2, 3) > 0


def test_wrong_translate_breaks_the_identity_check(monkeypatch):
    # s^-1 w replaced by w itself
    monkeypatch.setattr(boundary, "_translate",
                        lambda s, words, width: words[:, :width])
    rep = boundary.check_cocycle_identity_ball(2, 1, 3)
    assert rep.violations > 0 and rep.max_residual > 0
    assert isinstance(rep.max_residual, Fraction)
    assert type(rep.violations) is int
