"""Boundary cylinder machinery: masses, the cocycle and its identities, the
Poisson semi-norm, the c sequence, Poisson integrals, span ranks.

Oracle discipline: the exponent formula for the cocycle is checked against
the mass-ratio route on deep cylinders; effective-level enumeration is
checked against literal full enumeration at small levels; the hitting
measure is validated by exact stationarity here and by sampling in the
acceptance suite.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupwalk import boundary
from groupwalk.errors import (DomainError, OutOfRangeError,
                              PreconditionError, ResourceLimitError)
from groupwalk.groups import FreeGroup
from groupwalk.measures import finite_measure, srw
from groupwalk.wordmetric import build_ball, check_value_seminorm
from references import (cocycle_mass_ratio, cocycle_value, cylinder_mass,
                        require_srw, span_is_full, translated_cylinder_mass)


F2 = FreeGroup(2)


def words(text):
    return F2.parse_element(text)


# -- cylinders -----------------------------------------------------------------

@pytest.mark.parametrize("k,level", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_cylinder_masses_partition_unity(k, level):
    total = sum(cylinder_mass(k, w) for w in boundary.cylinders(k, level))
    assert total == 1
    assert (len(list(boundary.cylinders(k, level)))
            == boundary.cylinder_count(k, level))


def test_cylinder_mass_values():
    assert cylinder_mass(2, (1,)) == Fraction(1, 4)
    assert cylinder_mass(2, (1, 2)) == Fraction(1, 12)
    with pytest.raises(DomainError):
        cylinder_mass(2, ())


def test_rank_one_rejected():
    with pytest.raises(DomainError):
        cylinder_mass(1, (1,))
    with pytest.raises(DomainError):
        boundary.cocycle_exponent(1, (1,), (1,))


# -- cocycle -------------------------------------------------------------------

def test_cocycle_identity_element_is_one():
    for w in boundary.cylinders(2, 2):
        assert cocycle_value(2, (), w) == 1


def test_cocycle_values_on_level_one():
    a = words("a")
    assert cocycle_value(2, a, (1,)) == 3
    for first in ((-1,), (2,), (-2,)):
        assert cocycle_value(2, a, first) == Fraction(1, 3)


def test_cocycle_level_one_integral_is_one():
    a = words("a")
    total = sum(cylinder_mass(2, w) * cocycle_value(2, a, w)
                for w in boundary.cylinders(2, 1))
    assert total == 1


def test_cocycle_requires_deep_cylinder():
    with pytest.raises(OutOfRangeError):
        boundary.cocycle_exponent(2, words("ab"), (1,))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 587))
def test_cocycle_exponent_matches_mass_ratio_oracle(glen, widx):
    # deep cylinders: the derivative equals the mass ratio of the
    # translated cylinder (the limit is already exact at level |g|+1)
    ball = build_ball(F2, 3).norms
    gs = [g for g in ball if len(g) == glen]
    g = gs[widx % len(gs)] if gs else ()
    deep = list(boundary.cylinders(2, max(1, glen + 1)))
    w = deep[widx % len(deep)]
    assert cocycle_value(2, g, w) == cocycle_mass_ratio(2, g, w)


def test_cocycle_constant_on_deep_cylinders():
    # sigma(g, .) at level >= |g| only sees the level-|g| prefix
    g = words("ab")
    for ext in boundary.cylinders(2, 4):
        assert (boundary.cocycle_exponent(2, g, ext)
                == boundary.cocycle_exponent(2, g, ext[:2]))


def test_identity_check_squared_generator():
    a = words("a")
    rep = boundary._identity_check(2, 4, [a], [a])
    assert rep.violations == 0
    assert cocycle_value(2, words("aa"), (1, 1, 2, 1)) == 9


def test_identity_check_effective_level_matches_full_enumeration():
    s, t = words("ab"), words("B")
    group = F2
    st_word = group.mul(s, t)
    s_inv = group.inv(s)
    worst = Fraction(0)
    count = 0
    for w in boundary.cylinders(2, 5):   # literal deep enumeration
        lhs = cocycle_value(2, st_word, w)
        rhs = (cocycle_value(2, s, w)
               * cocycle_value(2, t, group.mul(s_inv, w)[:len(t)]
                               if len(group.mul(s_inv, w)) >= len(t)
                               else group.mul(s_inv, w)))
        worst = max(worst, abs(lhs - rhs))
        count += 1
    rep = boundary._identity_check(2, 5, [s], [t])
    assert rep.cylinders_checked == count == 324
    assert rep.max_residual == worst == 0


def test_identity_check_level_guard():
    with pytest.raises(OutOfRangeError):
        # the pair ab, ab of the radius-2 ball needs level 4
        boundary.check_cocycle_identity_ball(2, 2, 3)


def test_identity_ball_checks_level_before_the_ball(monkeypatch):
    def no_ball(*args):
        raise AssertionError("built the ball before checking the level")

    monkeypatch.setattr(boundary, "build_ball", no_ball)
    with pytest.raises(OutOfRangeError, match=r"\|s\|\+\|t\|\) = 2"):
        boundary.check_cocycle_identity_ball(2, 11, level=1)
    with pytest.raises(DomainError, match="free rank >= 2"):
        boundary.check_cocycle_identity_ball(1, 1, level=2)
    with pytest.raises(DomainError, match="radius must be >= 0"):
        boundary.check_cocycle_identity_ball(2, -1, level=2)


def test_counted_levels_refuse_unprintable_counts_at_once():
    # the reported cylinder count is refused before q**level is built
    deep = 3 * 10 ** 7
    for call in (
            lambda: boundary.check_cocycle_normalization(2, 1, deep),
            lambda: boundary.check_cocycle_identity_ball(2, 1, deep),
            lambda: boundary.cocycle_histogram(2, (1,), deep),
            lambda: boundary.check_boundary_stationarity(2, deep)):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="digits"):
            call()
        assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("bad", [(1, -1), (3,)],
                         ids=["unreduced", "outside-alphabet"])
def test_entries_reject_malformed_elements(bad):
    # each entry validates caller-supplied words once; its loop is unchecked
    f = boundary.CylinderFunction.indicator(2, (1,))
    calls = [
        lambda: boundary.poisson_integral(f, bad),
        lambda: translated_cylinder_mass(2, bad, (1,)),
        lambda: translated_cylinder_mass(2, (1,), bad),
        lambda: cocycle_mass_ratio(2, (1,), bad),
        lambda: check_value_seminorm(F2, {(): 0, bad: 1}),
        lambda: boundary.cocycle_exponent(2, bad, (1, 1, 1)),
        lambda: boundary.cocycle_exponent(2, (1,), bad),
        lambda: cocycle_value(2, bad, (1, 1, 1)),
        lambda: cocycle_value(2, (1,), bad),
        lambda: boundary.cocycle_histogram(2, bad, 3),
        lambda: cylinder_mass(2, bad),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_identity_ball_radius2_level6():
    rep = boundary.check_cocycle_identity_ball(2, 2, 6)
    assert rep.violations == 0
    assert rep.max_residual == 0


# -- normalization -------------------------------------------------------------

@pytest.mark.parametrize("k_power,level", [(1, 4), (2, 6), (3, 8)])
def test_cocycle_normalization_exact(k_power, level):
    rep = boundary.check_cocycle_normalization(2, k_power, level)
    assert rep.violations == 0
    assert rep.max_residual == 0
    assert rep.cylinders_checked == boundary.cylinder_count(2, level)


def test_normalization_level_one_hand_value():
    # for any boundary point starting with 'a': (1/4)(3 + 1/3 + 1/3 + 1/3) = 1
    a_first = (1,)
    total = sum(Fraction(1, 4) * cocycle_value(2, s, a_first)
                for s in [(1,), (-1,), (2,), (-2,)])
    assert total == 1


# -- Poisson semi-norm ---------------------------------------------------------

def test_seminorm_values():
    assert boundary.poisson_seminorm_exponent(2, ()) == 0
    assert boundary.poisson_seminorm(2, ()) == 0
    assert boundary.poisson_seminorm(2, words("a")) == pytest.approx(math.log(3))
    # the closed form |g| against the largest exponent over the level-5
    # cylinders, enumerated
    ball = list(build_ball(F2, 5).norms)
    tops = boundary._exponents(ball, boundary._cylinder_array(2, 5)).max(0)
    for g, top in zip(ball, tops.tolist()):
        assert boundary.poisson_seminorm_exponent(2, g) == top


def test_seminorm_axioms_via_exponents():
    values = {g: boundary.poisson_seminorm_exponent(2, g)
              for g in build_ball(F2, 4).norms}
    report = check_value_seminorm(F2, values)
    assert report.ok


def test_seminorm_is_log_multiple_of_word_norm():
    # the proportionality constant log(2k-1) realizes the comparison
    # rho_mu <= C rho with C = log 3 for k = 2
    for g in build_ball(F2, 4).norms:
        assert boundary.poisson_seminorm(2, g) == pytest.approx(
            len(g) * math.log(3))


# -- c sequence ----------------------------------------------------------------

def test_c1_is_minus_half():
    # level-1 integral: (1/4) log 3 - (3/4) log 3 per generator
    # N_1 / (2k q) with N_1 = 2k q int (2p - 1) dm
    assert Fraction(boundary._log_cocycle_numerator(2, 1), 4 * 3) == Fraction(
        -1, 2)
    coeffs = boundary.c_sequence(2, 5)
    assert coeffs[0] == Fraction(-1, 2)


def test_c_sequence_additive():
    coeffs = boundary.c_sequence(2, 5)
    for n, c in enumerate(coeffs, start=1):
        assert c == n * coeffs[0]


def test_c_sequence_jensen_window():
    # -c_1 equals the drift of the pulled-back semi-norm: drift * log 3,
    # certified upper bounds from the word norm bracket it from above
    from groupwalk.drift import drift_exact_partial
    from groupwalk.wordmetric import norm_evaluator
    coeffs = boundary.c_sequence(2, 3)
    minus_c1 = -float(coeffs[0]) * math.log(3)
    report = drift_exact_partial(srw(F2), norm_evaluator(F2), 10)
    assert minus_c1 <= report.certified_bound * math.log(3)
    assert minus_c1 == pytest.approx(0.5 * math.log(3))


def test_c_sequence_rejects_rank_one():
    with pytest.raises(DomainError):
        boundary.c_sequence(1, 3)


def test_require_srw_guard():
    lopsided = finite_measure(F2, {(1,): Fraction(1, 2),
                                   (-1,): Fraction(1, 6),
                                   (2,): Fraction(1, 6),
                                   (-2,): Fraction(1, 6)})
    with pytest.raises(PreconditionError):
        require_srw(lopsided, 2)
    require_srw(srw(F2), 2)


# -- Poisson integrals ---------------------------------------------------------

def constant_one(level):
    """The function 1 on the level-`level` cylinders of F_2."""
    return boundary.CylinderFunction(
        2, level, dict.fromkeys(boundary.cylinders(2, level), Fraction(1)))


def test_poisson_integral_of_constant():
    f = constant_one(2)
    for g in build_ball(F2, 2).norms:
        assert boundary.poisson_integral(f, g) == 1


def test_poisson_integral_indicator_values():
    f = boundary.CylinderFunction.indicator(2, (1,))
    assert boundary.poisson_integral(f, ()) == Fraction(1, 4)
    assert boundary.poisson_integral(f, words("a")) == Fraction(3, 4)
    assert boundary.poisson_integral(f, words("A")) == Fraction(1, 12)


def test_poisson_integral_pushforward_route():
    # independent route: P_m f(g) = sum_C f(C) m(g^-1 C)
    f = boundary.CylinderFunction.indicator(2, (1, 2))
    for g in build_ball(F2, 2).norms:
        direct = boundary.poisson_integral(f, g)
        pushed = sum(v * translated_cylinder_mass(2, g, w)
                     for w, v in f.values.items())
        assert direct == pushed


def test_harmonicity_exact():
    assert boundary.check_harmonicity(constant_one(1), 2) == 0
    assert boundary.check_harmonicity(
        boundary.CylinderFunction.indicator(2, (1,)), 3) == 0
    import random
    rng = random.Random(7)
    values = {w: Fraction(rng.randint(-8, 8), rng.randint(1, 9))
              for w in boundary.cylinders(2, 3)}
    f = boundary.CylinderFunction(2, 3, values)
    assert boundary.check_harmonicity(f, 2) == 0


def test_boundary_stationarity_exact():
    for level in (1, 2, 3):
        assert boundary.check_boundary_stationarity(2, level) == 0
    assert boundary.check_boundary_stationarity(3, 2) == 0


def test_cylinder_function_validation():
    level_two = {w: Fraction(1) for w in boundary.cylinders(2, 2)}
    del level_two[(1, 1)]
    bad = [
        (2, {(1,): Fraction(1)}),                           # too few
        (1, {(i,): 1 for i in range(1, 5)}),                # foreign keys
        (2, {**level_two, (1,): Fraction(1)}),              # wrong level
        (2, {w: 0.5 for w in boundary.cylinders(2, 2)}),    # float value
        (2, {w: "1/2" for w in boundary.cylinders(2, 2)}),  # str value
    ]
    for level, values in bad:
        with pytest.raises(DomainError):
            boundary.CylinderFunction(2, level, values)
    # below level 1 there are no cylinders (and no fractional count)
    for call in (lambda: boundary.cylinder_count(2, 0),
                 lambda: boundary.cylinder_count(2, -1),
                 lambda: boundary.CylinderFunction(2, 0, {(): 1})):
        with pytest.raises(DomainError, match="cylinder level must be >= 1"):
            call()
    for word in [(1, -1), (5,), ()]:
        with pytest.raises(DomainError):
            boundary.CylinderFunction.indicator(2, word)
    # int and Fraction values are both accepted
    f = boundary.CylinderFunction(2, 1, {(1,): 1, (2,): Fraction(1, 2),
                                         (-1,): 0, (-2,): -3})
    assert boundary.poisson_integral(f, ()) == Fraction(-3, 8)


def test_poisson_integral_deep_element():
    # the points z with g z outside C_a are exactly C_{g^-1}
    f = boundary.CylinderFunction.indicator(2, (1,))
    assert boundary.poisson_integral(f, tuple([1, 2] * 7)) == (
        1 - Fraction(1, 4 * 3 ** 13))


# -- span ranks ----------------------------------------------------------------

def test_span_rank_values():
    assert boundary.span_rank(2, 1, 1) == 4
    assert boundary.span_rank(2, 2, 2) == 12
    assert boundary.span_rank(2, 2, 0) == 1
    assert span_is_full(2, 3, 3)


def test_span_rank_monotone_in_radius():
    ranks = [boundary.span_rank(2, 2, r) for r in (0, 1, 2)]
    assert ranks == sorted(ranks)
    assert ranks[-1] == 12


def test_span_rank_precondition():
    with pytest.raises(PreconditionError):
        boundary.span_rank(2, 1, 2)


def old_span_rank(k, level, radius):
    """The span rank on one column per level cylinder (no distinct-column
    reduction): sigma(s, C_w) for every level-`level` word w."""
    words = boundary._cylinder_array(k, level)
    powers = [(2 * k - 1) ** j for j in range(2 * radius + 1)]
    rows = [[powers[e] for e in
             (boundary._exponent(s, words) + radius).tolist()]
            for s in build_ball(FreeGroup(k), radius).norms]
    return boundary.exact_rank(rows)


@pytest.mark.parametrize("k,level,radius",
                         [(k, level, radius) for k in (2, 3)
                          for level in range(1, 5)
                          for radius in range(level + 1)
                          # k = 3, radius 4: Bareiss on 937 x 750
                          # reference rows takes minutes
                          if (k, radius) != (3, 4)] + [(4, 2, 2)])
def test_span_rank_on_distinct_columns_matches_full_columns(k, level,
                                                            radius):
    assert boundary.span_rank(k, level, radius) == old_span_rank(
        k, level, radius)


@pytest.mark.parametrize("k,level,radius", [
    (2, 2, 2), (3, 4, 1), (2, 5, 5), (26, 3, 3), (8, 2, 2), (2, 40, 20),
    (2, 15, 0), (2, 10 ** 12, 1)])
def test_span_rank_builds_no_matrix(k, level, radius, monkeypatch):
    def no_matrix(*args):
        raise AssertionError("the closed-form span rank built a matrix")

    for name in ("_cylinder_array", "build_ball", "exact_rank"):
        monkeypatch.setattr(boundary, name, no_matrix)
    expected = boundary.cylinder_count(k, radius) if radius else 1
    assert boundary.span_rank(k, level, radius) == expected
    assert span_is_full(k, level, radius) == (radius == level)


@pytest.mark.parametrize("k,radius", [(2, r) for r in range(1, 5)]
                         + [(3, r) for r in range(1, 4)] + [(4, 1), (4, 2)])
def test_span_rank_sphere_block_is_a_positive_sum(k, radius):
    """The proof in span_rank, in integers: the sphere rows of the scaled
    sigma matrix are sum_i d_i A_i, with A_i[s, w] = [s[:i] = w[:i]],
    d_0 = 1, d_i = q^(2i) - q^(2i-2) > 0, and A_radius the identity; the
    smallest eigenvalue is q^(2 radius - 2)(q^2 - 1)."""
    q = 2 * k - 1
    columns = [tuple(w) for w in boundary.cylinders(k, radius)]
    sphere = [s for s, n in build_ball(FreeGroup(k), radius).norms.items()
              if n == radius]
    assert sorted(sphere) == sorted(columns)        # A_radius = identity
    d = [1] + [q ** (2 * i) - q ** (2 * i - 2) for i in range(1, radius + 1)]
    assert all(x > 0 for x in d)
    # rows in column order, so that the block is symmetric
    block = [[q ** (boundary.cocycle_exponent(k, s, w) + radius)
              for w in columns] for s in columns]
    for s, row in zip(columns, block):
        for w, scaled in zip(columns, row):
            assert scaled == sum(d[i] for i in range(radius + 1)
                                 if s[:i] == w[:i])
    assert np.linalg.eigvalsh(np.array(block, dtype=float))[0] == \
        pytest.approx(q ** (2 * radius - 2) * (q * q - 1), rel=1e-9)


def test_span_rank_errors_keep_their_kind():
    for args in ((1, 2, 1), (2, 0, 0), (2, -1, -2), (2, 1, -1)):
        with pytest.raises(DomainError):
            boundary.span_rank(*args)
    # the rank itself is printed: a radius whose count int cannot print is
    # refused before the count is computed
    with pytest.raises(ResourceLimitError, match="digits"):
        boundary.span_rank(2, 10 ** 12, 10 ** 12)
    # ranks past the free groups' alphabet are refused before any array
    with pytest.raises(DomainError, match="free rank"):
        boundary.span_rank(200, 1, 0)


def test_exact_rank_on_known_matrix():
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)],
            [Fraction(0), Fraction(1)]]
    assert boundary.exact_rank(rows) == 2


# -- sampled validation (small here; the big run is in acceptance) ---------------

def test_hitting_measure_mc_small():
    from groupwalk.sampler import SamplerConfig
    report = boundary.validate_hitting_measure(
        2, 1, SamplerConfig(seed=31, trajectories=4000, steps=60))
    assert report.tv_distance < 0.05
    assert report.undefined <= 4000 * 0.01


def _hitting_measure_by_tuples(k, level, config):
    """validate_hitting_measure as it was: every level cylinder formatted
    from its tuple, summed in `cylinders` order."""
    from groupwalk.sampler import prefix_counts
    counts = prefix_counts(srw(FreeGroup(k)), level, config)
    n = config.trajectories
    undefined = counts.pop("-", 0)
    freqs = {w_s: c / n for w_s, c in counts.items()}
    mass = float(boundary._level_mass(k, level))
    tv = 0.0
    for w in boundary.cylinders(k, level):
        tv += abs(freqs.get(FreeGroup(k).format_element(w), 0.0) - mass)
    return boundary.HittingMeasureReport(
        level=level, trajectories=n, steps=config.steps, seed=config.seed,
        tv_distance=0.5 * (tv + undefined / n), undefined=undefined,
        frequencies=freqs)


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [2, 3])
def test_hitting_measure_equals_the_tuple_loop(k, level, seed):
    """Word rows texted in one pass give the same report, to the last bit
    of the float sum."""
    from groupwalk.sampler import SamplerConfig
    config = SamplerConfig(seed=seed, trajectories=300, steps=12)
    report = boundary.validate_hitting_measure(k, level, config)
    assert report == _hitting_measure_by_tuples(k, level, config)
    assert report.undefined > 0 or level < 3


def test_hitting_measure_deep_level_enumerates_no_tuple(monkeypatch):
    from groupwalk.sampler import SamplerConfig

    def no_tuples(*args):
        raise AssertionError("formatted the cylinders as tuples")

    monkeypatch.setattr(boundary, "cylinders", no_tuples)
    report = boundary.validate_hitting_measure(
        2, 12, SamplerConfig(seed=5, trajectories=10, steps=40))
    # the TV sum in closed form: each sampled prefix, then the rest at mass
    mass = float(boundary._level_mass(2, 12))
    sampled = sum(abs(f - mass) for f in report.frequencies.values())
    unsampled = boundary.cylinder_count(2, 12) - len(report.frequencies)
    assert report.tv_distance == pytest.approx(
        0.5 * (sampled + unsampled * mass + report.undefined / 10),
        rel=1e-9)


@pytest.mark.parametrize("k,level,error", [
    (2, 0, DomainError), (1, 2, DomainError), (2, 15, ResourceLimitError)])
def test_hitting_measure_checks_level_before_sampling(k, level, error,
                                                      monkeypatch):
    from groupwalk import sampler

    def no_sampling(*args):
        raise AssertionError("sampled before the level was checked")

    monkeypatch.setattr(sampler, "prefix_counts", no_sampling)
    with pytest.raises(error):
        boundary.validate_hitting_measure(
            k, level, sampler.SamplerConfig(seed=1, trajectories=10,
                                            steps=5))
