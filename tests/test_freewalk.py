"""Radial route for free-group SRW vs two independent oracles: full path
enumeration (small n) and the generic convolution pipeline."""

from fractions import Fraction
from itertools import product as iproduct

import pytest

from groupwalk import freewalk
from groupwalk.errors import DomainError
from groupwalk.groups import FreeGroup, group_from_id
from groupwalk.measures import (MODE_FLOAT, FiniteMeasure, adjoint,
                                finite_measure, parse_measure_spec,
                                power_sequence, srw)
from groupwalk.quasiharmonic import compute_fk_tables
from groupwalk.wordmetric import free_norm, norm_evaluator
from references import phi_table_free_srw, radial_fk, radial_phi_full_rows
from references import shannon_entropy as radial_entropy


def brute_norm_distribution(k, n):
    """Oracle: all (2k)^n generator paths, tallied by endpoint norm."""
    group = FreeGroup(k)
    gens = group.generators()
    out = {}
    w = Fraction(1, len(gens)) ** n
    for combo in iproduct(gens, repeat=n):
        g = group.identity()
        for s in combo:
            g = group.mul(g, s)
        out[len(g)] = out.get(len(g), Fraction(0)) + w
    return out


@pytest.mark.parametrize("k,n", [(2, 0), (2, 1), (2, 4), (2, 6), (3, 4)])
def test_norm_distribution_matches_path_enumeration(k, n):
    radial = freewalk.norm_distributions(k, n)[n]
    brute = brute_norm_distribution(k, n)
    assert {m: w for m, w in enumerate(radial) if w} == brute


def test_expected_norms_first_values():
    a = freewalk.expected_norms(2, 8)
    assert a[0] == 0
    assert a[1] == 1
    assert a[2] == Fraction(3, 2)
    assert a[8] == Fraction(4821, 1024)


def test_expected_norms_match_convolution():
    a = freewalk.expected_norms(2, 6)
    for n, mun in power_sequence(srw(FreeGroup(2)), 6):
        assert sum(free_norm(s) * w for s, w in mun.atoms.items()) == a[n]


@pytest.mark.parametrize("k", [2, 3])
def test_radial_fk_matches_convolution_route(k):
    group = FreeGroup(k)
    tables = compute_fk_tables(srw(group), norm_evaluator(group), 4, 3)
    radial = radial_fk(k, 5, 3)
    for j in range(5):
        for s, value in tables[j].values.items():
            assert radial[j][len(s)] == value


def test_radial_phi_matches_convolution_route():
    group = FreeGroup(2)
    phi_radial = phi_table_free_srw(2, 5, 3)
    from groupwalk.quasiharmonic import compute_phi
    phi_conv = compute_phi(srw(group), norm_evaluator(group), 5, 3)
    assert phi_radial.values == phi_conv.values


@pytest.mark.parametrize("k", range(1, 6))
def test_banded_radial_phi_matches_the_full_rows(k):
    """The band that radial_phi keeps gives the values of the Horner sum
    over every norm, at thin, long and past-the-walk radii."""
    for n in (1, 2, 3, 40, 151, 1000):
        radii = (0, 1, 2, 6, n + 3)
        full = radial_phi_full_rows(k, n, max(radii))
        for r in radii:
            same = freewalk.radial_phi(k, n, r) == full[:r + 1]
            assert same, (n, r)     # no diff of thousand-digit values


def test_banded_path_counts_keep_exact_heads():
    """Row j of path_counts with stop keeps its first stop - j counts of
    the full row, exact."""
    full = list(freewalk.path_counts(3, 12))
    for stop in (0, 1, 5, 12, 20):
        banded = list(freewalk.path_counts(3, 12, stop=stop))
        assert banded == [row[:max(stop - j, 0)]
                          for j, row in enumerate(full)], stop


@pytest.mark.parametrize("call", [
    lambda: freewalk.radial_phi(2, 0, 1),           # Cesaro length 0
    lambda: freewalk.radial_phi(0, 3, 1),           # rank 0
    lambda: freewalk.norm_distributions(0, 3),
    lambda: freewalk.expected_norms(-1, 3),
    lambda: radial_fk(0, 2, 1),
    lambda: radial_entropy(0, 2),
])
def test_bad_rank_or_length_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_radial_f1_value():
    # four-term sum over the generators gives f_1 = 1/2 on the unit sphere
    assert radial_fk(2, 2, 1)[1][1] == Fraction(1, 2)


def test_f0_is_the_norm():
    radial = radial_fk(2, 1, 5)[0]
    assert radial == [Fraction(r) for r in range(6)]


def test_entropy_values():
    import math
    assert radial_entropy(2, 1) == pytest.approx(math.log(4))
    # exact convolution cross-check at n = 4
    from groupwalk.measures import power, shannon_entropy as measure_entropy
    h4 = measure_entropy(power(srw(FreeGroup(2)), 4))
    assert radial_entropy(2, 4) == pytest.approx(h4, rel=1e-12)


def test_entropy_rate_decreasing_toward_boundary_value():
    import math
    limit = 0.5 * math.log(3)
    rates = [radial_entropy(2, n) / n for n in (1, 2, 4, 8, 16)]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert all(r > limit for r in rates)


@pytest.mark.parametrize("k,n", [(2, 2600), (26, 600)])
def test_entropy_is_finite_where_sphere_masses_underflow(k, n):
    import math
    # the smallest sphere mass, (1/2k)^n, is below the least float
    assert float(Fraction(1, (2 * k) ** n)) == 0.0
    h = radial_entropy(k, n)
    assert math.isfinite(h)
    # h = inf_n H_n / n = ((k-1)/k) log(2k-1)
    assert (k - 1) / k * math.log(2 * k - 1) < h / n < math.log(2 * k)


def test_convolution_and_radial_routes_agree_on_f2_up_to_n10():
    """Exact a_n, the n-step law behind H_n, and phi_n on F_2 by generic
    convolution equal the radial route for n <= 10."""
    from groupwalk.measures import shannon_entropy as measure_entropy
    from groupwalk.quasiharmonic import phi_from_fk
    group = FreeGroup(2)
    mu = srw(group)
    a = freewalk.expected_norms(2, 10)
    dist = freewalk.norm_distributions(2, 10)
    for n, mun in power_sequence(mu, 10):
        assert sum(free_norm(s) * w for s, w in mun.atoms.items()) == a[n]
        # uniform on spheres: every atom carries its sphere's mass / size
        on_sphere = {}
        for s, w in mun.atoms.items():
            size = 4 * 3 ** (len(s) - 1) if s else 1
            assert w * size == dist[n][len(s)]
            on_sphere[len(s)] = on_sphere.get(len(s), 0) + 1
        assert on_sphere == {m: 4 * 3 ** (m - 1) if m else 1
                             for m, p in enumerate(dist[n]) if p}
        assert measure_entropy(mun) == pytest.approx(
            radial_entropy(2, n), rel=1e-12)
    tables = compute_fk_tables(mu, norm_evaluator(group), 9, 2)
    for n in range(1, 11):
        assert (phi_from_fk(tables, n).values
                == phi_table_free_srw(2, n, 2).values)


def test_is_srw_reads_the_numerators():
    """The one test of "exact simple random walk on a free group", shared
    by the radial drift rule, radial phi and the boundary model."""
    for k in (1, 2, 3, 26):
        mu = srw(FreeGroup(k))
        assert freewalk.is_srw(mu)
        assert freewalk.is_srw(adjoint(mu))
        # the same weights over an unreduced denominator, as a power
        # chain's first law stores them
        assert freewalk.is_srw(FiniteMeasure(
            group=mu.group, weights={s: 3 for s in mu.weights},
            den=3 * mu.den, deficit=mu.deficit, mode=mu.mode))
    f2 = FreeGroup(2)
    mu = srw(f2)
    for other in (
            srw(f2, mode=MODE_FLOAT),
            srw(group_from_id("zd:2")),
            parse_measure_spec(f2, "a=1/2;A=1/6;b=1/6;B=1/6"),
            parse_measure_spec(f2, "a=1/5;A=1/5;b=1/5;B=1/5;e=1/5"),
            parse_measure_spec(f2, "a=1/4;A=1/4;b=1/4;ab=1/4"),
            finite_measure(f2, dict.fromkeys(f2.generators(),
                                             Fraction(1, 5)),
                           deficit=Fraction(1, 5)),
            FiniteMeasure(group=f2, weights=dict(mu.weights), den=mu.den,
                          deficit=Fraction(1, 5), mode=mu.mode)):
        assert not freewalk.is_srw(other)
