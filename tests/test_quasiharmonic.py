"""The f_k / phi_n tables and their exact identities.

The zd brute-force oracle: f_k values are recomputed from exact convolution
powers obtained by path enumeration, independent of the table code.
"""

from fractions import Fraction
from itertools import product as iproduct

import pytest

from groupwalk.drift import drift_exact_partial
from groupwalk.errors import OutOfRangeError
from groupwalk.groups import FreeGroup, group_from_id
from groupwalk.measures import finite_measure, power_sequence, srw
from groupwalk.quasiharmonic import (check_diag_recursion, compute_fk_tables,
                                     compute_phi, phi_from_fk)
from groupwalk.wordmetric import norm_evaluator
from references import (check_lipschitz, check_quasi_harmonicity, compute_fk,
                        homomorphism_defect, phi_table_free_srw)


def brute_fk_on_z(k, point):
    """Oracle: f_k(point) on zd:1 SRW via full path enumeration."""
    z = group_from_id("zd:1")
    steps = [(1,), (-1,)]
    w = Fraction(1, 2) ** k
    acc = Fraction(0)
    for combo in iproduct(steps, repeat=k):
        t = sum(s[0] for s in combo)
        acc += (abs(point + t) - abs(t)) * w
    return acc


def test_f0_equals_the_norm():
    f2 = FreeGroup(2)
    table = compute_fk(srw(f2), norm_evaluator(f2), 0, 4)
    for s, v in table.values.items():
        assert v == len(s)


def test_z_srw_f1_vanishes_at_one():
    z = group_from_id("zd:1")
    table = compute_fk(srw(z), norm_evaluator(z), 1, 3)
    assert table.values[(1,)] == 0


def test_z_fk_matches_brute_force_and_return_probability():
    z = group_from_id("zd:1")
    tables = compute_fk_tables(srw(z), norm_evaluator(z), 6, 3)
    for k in range(7):
        for point in (1, 2, 3):
            assert tables[k].values[(point,)] == brute_fk_on_z(k, point)
    # the pattern behind the vanishing: f_k(1) = P(T_k = 0)
    for k, mun in power_sequence(srw(z), 6):
        assert tables[k].values[(1,)] == mun.atoms.get((0,), Fraction(0))


def test_free2_f1_on_generators():
    f2 = FreeGroup(2)
    table = compute_fk(srw(f2), norm_evaluator(f2), 1, 2)
    assert table.values[(1,)] == Fraction(1, 2)


def test_fk_triangle_bound():
    for gid in ("free:2", "zd:2", "lamplighter"):
        group = group_from_id(gid)
        tables = compute_fk_tables(srw(group), norm_evaluator(group), 5, 3)
        norm_fn = norm_evaluator(group)
        for table in tables:
            for s, v in table.values.items():
                assert abs(v) <= norm_fn(s) + table.error_bars[s]


def test_phi_basics():
    z = group_from_id("zd:1")
    tables = compute_fk_tables(srw(z), norm_evaluator(z), 7, 3)
    phi1 = phi_from_fk(tables, 1)
    assert phi1.values == tables[0].values          # phi_1 = f_0 = rho
    phi8 = phi_from_fk(tables, 8)
    assert phi8.values[z.identity()] == 0
    # phi_n(1) = (1/n) (1 + sum of return probabilities)
    returns = [mun.atoms.get((0,), Fraction(0))
               for _, mun in power_sequence(srw(z), 7)]
    assert phi8.values[(1,)] == (1 + sum(returns)) / 8


def test_deterministic_walk_phi_linear():
    z = group_from_id("zd:1")
    mu = finite_measure(z, {(1,): 1})
    phi = compute_phi(mu, norm_evaluator(z), 6, 3)
    assert phi.values[(1,)] == 1
    report = check_quasi_harmonicity(
        mu, phi, drift_exact_partial(mu, norm_evaluator(z), 6).a_values[5],
        [(0,), (1,), (2,)])
    for g, d in report.distortions.items():
        if g[0] >= 0:
            assert d == 1


@pytest.mark.parametrize("gid", ["free:2", "zd:2"])
def test_diag_recursion_exact(gid):
    group = group_from_id(gid)
    mu = srw(group)
    tables = compute_fk_tables(mu, norm_evaluator(group), 5, 3)
    test_set = [s for s in tables[0].values
                if norm_evaluator(group)(s) <= 2]
    for k in range(5):
        report = check_diag_recursion(mu, tables[k], tables[k + 1], test_set)
        assert report.max_residual == 0
        assert report.points_checked == len(test_set)


def test_diag_recursion_truncated_within_allowance():
    z = group_from_id("zd:1")
    mu = srw(z)
    tables = compute_fk_tables(mu, norm_evaluator(z), 10, 3,
                               threshold=Fraction(1, 10**8))
    for k in range(10):
        report = check_diag_recursion(mu, tables[k], tables[k + 1],
                                      [(0,), (1,), (2,)])
        assert report.max_residual <= report.error_allowance


def test_diag_recursion_coverage_error():
    z = group_from_id("zd:1")
    mu = srw(z)
    tables = compute_fk_tables(mu, norm_evaluator(z), 1, 2)
    with pytest.raises(OutOfRangeError):
        check_diag_recursion(mu, tables[0], tables[1], [(2,)])


def test_telescoping_identity_exact():
    for gid in ("zd:1", "zd:2", "free:2"):
        group = group_from_id(gid)
        mu = srw(group)
        n = 6
        phi = compute_phi(mu, norm_evaluator(group), n, 2)
        a_n = drift_exact_partial(mu, norm_evaluator(group), n).a_values[-1]
        report = check_quasi_harmonicity(mu, phi, a_n, [group.identity()])
        assert report.mean_identity_residual == 0
        assert report.distortions[group.identity()] == a_n / n


def test_lipschitz_bound():
    for gid in ("free:2", "zd:2"):
        group = group_from_id(gid)
        mu = srw(group)
        phi = compute_phi(mu, norm_evaluator(group), 6, 3)
        points = list(phi.values)
        pairs = [(g, s) for g in group.generators() for s in points
                 if group.mul(g, s) in phi.values]
        assert check_lipschitz(phi, group, norm_evaluator(group), pairs) <= 0


def test_homomorphism_defect_decreases_on_z():
    z = group_from_id("zd:1")
    mu = srw(z)
    tables = compute_fk_tables(mu, norm_evaluator(z), 63, 4)
    pairs = [(s, t) for s in z.generators() for t in z.generators()]
    defects = [homomorphism_defect(phi_from_fk(tables, n), z, pairs)
               for n in (8, 32, 64)]
    assert defects[0] >= defects[1] >= defects[2]
    assert defects[2] <= 0.2
    # deterministic one-way walk: zero defect on the non-negative orbit
    det = compute_phi(finite_measure(z, {(1,): 1}), norm_evaluator(z), 8, 3)
    assert homomorphism_defect(det, z, [((1,), (1,)), ((1,), (2,))]) == 0


def test_homomorphism_defect_decreases_on_z2():
    from groupwalk.measures import MODE_FLOAT
    z2 = group_from_id("zd:2")
    mu = srw(z2, mode=MODE_FLOAT)
    tables = compute_fk_tables(mu, norm_evaluator(z2), 63, 2)
    pairs = [(s, t) for s in z2.generators() for t in z2.generators()]
    defects = [homomorphism_defect(phi_from_fk(tables, n), z2, pairs)
               for n in (8, 32, 64)]
    assert defects[0] > defects[1] > defects[2]
    # cross-coordinate pairs are exactly additive by independence
    cross = [((1, 0), (0, 1)), ((1, 0), (0, -1))]
    phi64 = phi_from_fk(tables, 64)
    assert homomorphism_defect(phi64, z2, cross) < 1e-12


def test_distortion_trend_toward_drift():
    # |d_n(g) - drift| decreases along n for every test point: toward 1/2
    # on the free group, toward 0 on z
    from groupwalk import freewalk
    f2 = FreeGroup(2)
    mu = srw(f2)
    a = freewalk.expected_norms(2, 32)
    points = [(), (1,), (1, 2)]
    gaps = []
    for n in (8, 16, 32):
        rep = check_quasi_harmonicity(mu, phi_table_free_srw(2, n, 3),
                                      a[n], points)
        gaps.append({g: abs(float(d) - 0.5)
                     for g, d in rep.distortions.items()})
    for g in points:
        assert gaps[0][g] > gaps[1][g] > gaps[2][g]

    z = group_from_id("zd:1")
    muz = srw(z)
    tables = compute_fk_tables(muz, norm_evaluator(z), 63, 3)
    az = drift_exact_partial(muz, norm_evaluator(z), 63).a_values
    zpoints = [(0,), (1,), (2,)]
    zgaps = []
    for n in (8, 32, 63):
        rep = check_quasi_harmonicity(muz, phi_from_fk(tables, n),
                                      az[n - 1], zpoints)
        zgaps.append({g: abs(float(d)) for g, d in rep.distortions.items()})
    for g in zpoints:
        assert zgaps[0][g] > zgaps[1][g] > zgaps[2][g]


def test_free2_radial_phi_large_n():
    # the radial route reaches n = 32 exactly; distortion at e telescopes
    # to a_32/32 and sits within 0.1 of the drift value 1/2
    from groupwalk import freewalk
    f2 = FreeGroup(2)
    mu = srw(f2)
    phi = phi_table_free_srw(2, 32, 3)
    a32 = freewalk.expected_norms(2, 32)[32]
    report = check_quasi_harmonicity(mu, phi, a32, [f2.identity(), (1,)])
    assert report.mean_identity_residual == 0
    d_e = report.distortions[f2.identity()]
    assert d_e == a32 / 32
    assert abs(float(d_e) - 0.5) < 0.1
