"""Exact drift partial sums, certified bounds, the adjoint equality, Monte
Carlo estimates against independent oracles, and entropy diagnostics.

Oracles: brute-force path enumeration (measures are re-derived from all
|supp|^n tuples in tests/test_measures.py), an independent birth-death
recursion for the free-group norm written inline here, and closed forms on
zd.
"""

import math
from fractions import Fraction

import pytest

from groupwalk import freewalk
from groupwalk.drift import (adjoint_drift_equality, drift_exact_partial,
                             drift_monte_carlo, entropy_partial)
from groupwalk.errors import OutOfRangeError
from groupwalk.groups import FreeGroup, group_from_id
from groupwalk.measures import (MODE_FLOAT, dirac, finite_measure,
                                parse_measure_spec, srw)
from groupwalk.sampler import SamplerConfig
from groupwalk.wordmetric import build_ball, norm_evaluator
from references import word_norm


def birth_death_expected_norm(k, n_max):
    """Independent oracle: E|X_n| for SRW on F_k via the norm chain."""
    up = Fraction(2 * k - 1, 2 * k)
    down = Fraction(1, 2 * k)
    dist = {0: Fraction(1)}
    out = [Fraction(0)]
    for _ in range(n_max):
        nxt = {}
        for m, w in dist.items():
            if m == 0:
                nxt[1] = nxt.get(1, Fraction(0)) + w
            else:
                nxt[m + 1] = nxt.get(m + 1, Fraction(0)) + w * up
                nxt[m - 1] = nxt.get(m - 1, Fraction(0)) + w * down
        dist = nxt
        out.append(sum(m * w for m, w in dist.items()))
    return out


def test_z_srw_first_partials():
    z = group_from_id("zd:1")
    report = drift_exact_partial(srw(z), norm_evaluator(z), 4)
    assert report.a_values[:2] == [Fraction(1), Fraction(1)]
    assert report.certified_bound <= 0.5


def test_deterministic_walk_has_unit_drift():
    z = group_from_id("zd:1")
    report = drift_exact_partial(dirac(z, (1,)), norm_evaluator(z), 6)
    assert report.a_values == [Fraction(n) for n in range(1, 7)]
    assert report.certified_bound == 1.0


def test_free2_partials_match_birth_death_oracle():
    f2 = FreeGroup(2)
    report = drift_exact_partial(srw(f2), norm_evaluator(f2), 7)
    oracle = birth_death_expected_norm(2, 7)
    assert report.a_values == oracle[1:]
    assert report.a_values[0] == 1
    assert report.a_values[1] == Fraction(3, 2)


def test_subadditivity_exact():
    for gid in ("free:2", "zd:2"):
        group = group_from_id(gid)
        report = drift_exact_partial(srw(group), norm_evaluator(group), 8)
        a = {n: v for n, v in zip(report.ns, report.a_values)}
        for m in range(1, 5):
            for n in range(1, 9 - m):
                assert a[m + n] <= a[m] + a[n]


def test_certified_bound_monotone_in_n_max():
    f2 = FreeGroup(2)
    bounds = [drift_exact_partial(srw(f2), norm_evaluator(f2), n).certified_bound
              for n in (2, 4, 6, 8)]
    assert all(x >= y for x, y in zip(bounds, bounds[1:]))


def test_truncation_error_bars_bound_true_value():
    z2 = group_from_id("zd:2")
    exact = drift_exact_partial(srw(z2), norm_evaluator(z2), 8)
    trunc = drift_exact_partial(srw(z2), norm_evaluator(z2), 8,
                                threshold=Fraction(1, 200))
    for a, a_t, err in zip(exact.a_values, trunc.a_values, trunc.error_bars):
        assert a_t <= a <= a_t + err


# one measure per route of a_n: zd coordinate marginals, the free-group
# radial law, and the generic loop (lamplighter, and every route in
# float64 or under a threshold)
@pytest.mark.parametrize("gid", ["zd:2", "free:2", "lamplighter"])
@pytest.mark.parametrize("mode,zero", [("exact", Fraction(0)),
                                       (MODE_FLOAT, 0.0)])
def test_error_bars_zero_untruncated_positive_under_truncation(gid, mode,
                                                              zero):
    group = group_from_id(gid)
    mu = srw(group, mode=mode)
    norm = norm_evaluator(group)
    for threshold in (0, Fraction(1, 100)):
        report = drift_exact_partial(mu, norm, 7, threshold=threshold)
        if threshold:
            assert report.error_bars[-1] > 0
        else:
            assert all(err == zero and type(err) is type(zero)
                       for err in report.error_bars)
        assert report.certified_bound == min(
            float(a + err) / n for n, a, err in
            zip(report.ns, report.a_values, report.error_bars))


def test_norm_table_escape_raises():
    h = group_from_id("heisenberg")
    ball = build_ball(h, 2)
    with pytest.raises(OutOfRangeError):
        drift_exact_partial(srw(h), lambda g: word_norm(ball, g), 5)


def test_adjoint_equality_biased_z():
    z = group_from_id("zd:1")
    mu = parse_measure_spec(z, "1=2/3; -1=1/3")
    report = adjoint_drift_equality(mu, norm_evaluator(z), 12)
    assert report.equal
    assert report.max_difference == 0


def test_adjoint_equality_free_nonsymmetric():
    f2 = FreeGroup(2)
    mu = finite_measure(f2, {(1,): Fraction(1, 2), (1, 2): Fraction(1, 2)})
    report = adjoint_drift_equality(mu, norm_evaluator(f2), 3)
    assert report.equal


def test_adjoint_equality_symmetric_trivial():
    z = group_from_id("zd:1")
    report = adjoint_drift_equality(srw(z), norm_evaluator(z), 6)
    assert report.a_mu == report.a_adjoint


def test_mc_drift_free2_brackets_half():
    f2 = FreeGroup(2)
    cfg = SamplerConfig(seed=1234, trajectories=400, steps=400)
    mc = drift_monte_carlo(srw(f2), cfg)
    mean, ci = mc.means[0], mc.ci_half_widths[0]
    assert abs(mean - 0.5) < 3 * ci


@pytest.mark.parametrize("gid,n,trajectories", [
    ("free:2", 1000, 2000), ("free:3", 1000, 2000), ("zd:1", 400, 2000),
    ("zd:2", 30, 10_000), ("zd:2", 400, 2000), ("zd:3", 300, 2000),
    ("lamplighter", 10, 10_000), ("heisenberg", 10, 10_000)])
def test_mc_drift_within_four_half_widths_of_exact_a_n(gid, n, trajectories):
    """The Monte Carlo mean of rho(X_n)/n at seed 1 against the exact a_n/n
    at the same n (free groups by the radial law, zd by its coordinate
    laws, the others by convolution): a bias of a few percent at finite n
    fails here, where the limit checks above would pass it."""
    group = group_from_id(gid)
    mu = srw(group)
    if isinstance(group, FreeGroup):
        a_n = freewalk.expected_norms(group.k, n)[n]
    else:
        a_n = drift_exact_partial(mu, norm_evaluator(group), n).a_values[-1]
    mc = drift_monte_carlo(mu, SamplerConfig(seed=1, trajectories=trajectories,
                                             steps=n))
    assert mc.checkpoints == [n]
    assert abs(mc.means[0] - float(a_n) / n) <= 4 * mc.ci_half_widths[0]


def test_mc_checkpoints_monotone_for_liouville_lamplighter():
    lam = group_from_id("lamplighter")
    mu = parse_measure_spec(lam, "{}|1=1/4; {}|-1=1/4; {0}|0=1/2",
                            mode=MODE_FLOAT)
    cfg = SamplerConfig(seed=77, trajectories=300, steps=600)
    mc = drift_monte_carlo(mu, cfg, checkpoints=[150, 300, 600])
    assert mc.means[0] > mc.means[1] > mc.means[2]


@pytest.mark.usefixtures("fork_every_span")
def test_mc_integer_aggregates_reproducible():
    z2 = group_from_id("zd:2")
    cfg1 = SamplerConfig(seed=5, trajectories=200, steps=100, workers=1)
    cfg4 = SamplerConfig(seed=5, trajectories=200, steps=100, workers=4)
    a = drift_monte_carlo(srw(z2), cfg1)
    b = drift_monte_carlo(srw(z2), cfg4)
    assert a.norm_sums == b.norm_sums
    assert a.norm_sq_sums == b.norm_sq_sums
    assert a.means == b.means


def test_entropy_examples():
    z = group_from_id("zd:1")
    rep = entropy_partial(srw(z), 3)
    assert rep.h_values[0] == pytest.approx(math.log(2))
    det = entropy_partial(dirac(z, (1,)), 4)
    assert det.h_values == [0.0, 0.0, 0.0, 0.0]
    f2 = FreeGroup(2)
    rep2 = entropy_partial(srw(f2), 5)
    assert rep2.h_values[0] == pytest.approx(math.log(4))
    rates = [h / n for n, h in zip(rep2.ns, rep2.h_values)]
    assert all(x > y for x, y in zip(rates, rates[1:]))
    assert rep2.rate_estimate == pytest.approx(rates[-1])
    # the rate sits above the boundary value it converges to
    assert rep2.rate_estimate > 0.5 * math.log(3)


def test_entropy_subadditive():
    f2 = FreeGroup(2)
    rep = entropy_partial(srw(f2), 6)
    h = {n: v for n, v in zip(rep.ns, rep.h_values)}
    for m in range(1, 4):
        for n in range(1, 7 - m):
            assert h[m + n] <= h[m] + h[n] + 1e-9
