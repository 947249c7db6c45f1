"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see the table).

Groups of criteria:
  1  exact identity suite (rational arithmetic, residuals exactly zero)
  2  drift quantitative suite (seeded Monte Carlo + exact bounds)
  3  quasi-harmonic suite (triangle/Lipschitz bounds, defect trends)
  4  finite stationary-space suite
  5  sampled validation of the boundary hitting measure
  6  determinism: identical seed -> identical JSON; workers don't matter

Note on 2d: the entropy rate H_n/n of SRW on F_2 decreases to its infimum
h = 1/2 log 3, so no finite n meets h exactly. The exact rate at n = 8 is
0.8583... (gap 0.309); the gap first drops below 0.05 at n = 77 (0.05047
at n = 76, 0.04991 at n = 77), beyond exact convolution reach. The check
therefore computes H_8 by convolution, asserts that it equals the exact
radial H_8 of `references.shannon_entropy`, and tests the radial rate at n = 256 against
1/2 log 3 with the tolerance 0.05.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from groupwalk import boundary, drift, gspaces, quasiharmonic
from groupwalk.cli import dumps
from groupwalk.groups import FreeGroup, group_from_id
from groupwalk.measures import (MODE_FLOAT, parse_measure_spec, power,
                                shannon_entropy, srw)
from groupwalk.sampler import SamplerConfig, prefix_counts
from groupwalk.wordmetric import (build_ball, check_value_seminorm,
                                  norm_evaluator)
from references import (check_lipschitz, check_statinv, cocycle_value,
                        homomorphism_defect)
from references import shannon_entropy as radial_entropy

F2 = FreeGroup(2)
Z1 = group_from_id("zd:1")
Z2 = group_from_id("zd:2")
LAMP = group_from_id("lamplighter")

SEED = 20240817


def report(name: str, passed: bool, detail: str = "") -> None:
    line = f"[{name}] {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)
    assert passed, line


# -- criterion 1: exact identities ----------------------------------------------

def test_1a_cocycle_identity():
    rep = boundary.check_cocycle_identity_ball(2, 3, 8)
    report("1a cocycle identity, ball 3, level 8",
           rep.violations == 0 and rep.max_residual == 0,
           f"{rep.cylinders_checked} cylinder checks")


def test_1b_cocycle_normalization():
    worst = Fraction(0)
    for k_power, level in ((1, 4), (2, 6), (3, 8)):
        rep = boundary.check_cocycle_normalization(2, k_power, level)
        worst = max(worst, rep.max_residual)
    report("1b cocycle normalization, k <= 3", worst == 0,
           f"max residual {worst}")


def test_1c_c_sequence():
    coeffs = boundary.c_sequence(2, 5)
    ok = (coeffs[0] == Fraction(-1, 2)
          and all(coeffs[n - 1] == n * coeffs[0] for n in range(1, 6)))
    report("1c c_n = n c_1, c_1 = -1/2 log 3", ok,
           f"coefficients {[str(c) for c in coeffs]}")


def test_1d_poisson_seminorm():
    ball5 = list(build_ball(F2, 5).norms)
    # the closed form |g| against the largest exponent over the level-5
    # cylinders, enumerated
    tops = boundary._exponents(ball5, boundary._cylinder_array(2, 5)).max(0)
    proportional = all(boundary.poisson_seminorm_exponent(2, g) == top
                       for g, top in zip(ball5, tops.tolist()))
    axioms = check_value_seminorm(
        F2, {g: boundary.poisson_seminorm_exponent(2, g)
             for g in build_ball(F2, 4).norms})
    report("1d poisson semi-norm = |g| log 3 + axioms",
           proportional and axioms.ok,
           f"{len(ball5)} elements, {axioms.pairs_checked} axiom pairs")


def test_1e_harmonicity_of_poisson_integrals():
    import random
    rng = random.Random(5)
    worst = Fraction(0)
    fs = [boundary.CylinderFunction.indicator(2, (1, 2, 1)),
          boundary.CylinderFunction(2, 3, {
              w: Fraction(rng.randint(-6, 6), rng.randint(1, 7))
              for w in boundary.cylinders(2, 3)})]
    for f in fs:
        worst = max(worst, boundary.check_harmonicity(f, 2))
    report("1e harmonicity of Poisson integrals, level 3, ball 2",
           worst == 0, f"max residual {worst}")


def test_1f_diag_recursion():
    worst = Fraction(0)
    for group in (F2, Z2):
        mu = srw(group)
        norm_fn = norm_evaluator(group)
        tables = quasiharmonic.compute_fk_tables(mu, norm_fn, 5, 3)
        points = [s for s in tables[0].values if norm_fn(s) <= 2]
        for k in range(5):
            rep = quasiharmonic.check_diag_recursion(
                mu, tables[k], tables[k + 1], points)
            worst = max(worst, rep.max_residual)
    report("1f recursion residual, k <= 4, F2 and Z^2", worst == 0,
           f"max residual {worst}")


def test_1g_span_rank_full():
    # the rank of the built sigma matrix, not the closed form span_rank
    # returns, certifies the span
    ranks = []
    for level in (1, 2):
        ball = build_ball(F2, level).norms
        rows = [[cocycle_value(2, s, w)
                 for w in boundary.cylinders(2, level)] for s in ball]
        ranks.append(boundary.exact_rank(rows))
    closed = [boundary.span_rank(2, level, level) for level in (1, 2)]
    report("1g span rank full (4 at level 1, 12 at level 2)",
           ranks == closed == [4, 12], f"ranks {ranks[0]}, {ranks[1]}")


def test_1h_adjoint_drift_equality():
    mu = parse_measure_spec(Z1, "1=2/3; -1=1/3")
    rep = drift.adjoint_drift_equality(mu, norm_evaluator(Z1), 12)
    report("1h a_n(mu) = a_n(mu-check), n <= 12, biased walk on Z",
           rep.equal and rep.max_difference == 0,
           f"a_12 = {rep.a_mu[-1]}")


# -- criterion 2: drift quantitative suite ---------------------------------------

@pytest.fixture(scope="module")
def mc_free2():
    cfg = SamplerConfig(seed=SEED, trajectories=2000, steps=2000)
    return drift.drift_monte_carlo(srw(F2, mode=MODE_FLOAT), cfg)


@pytest.fixture(scope="module")
def mc_z2():
    cfg = SamplerConfig(seed=SEED + 1, trajectories=2000, steps=2000)
    return drift.drift_monte_carlo(srw(Z2, mode=MODE_FLOAT), cfg)


@pytest.fixture(scope="module")
def lamp_measure():
    return parse_measure_spec(
        LAMP, "{}|1=1/4; {}|-1=1/4; {0}|0=1/2", mode=MODE_FLOAT)


@pytest.fixture(scope="module")
def mc_lamplighter(lamp_measure):
    cfg = SamplerConfig(seed=SEED + 2, trajectories=2000, steps=2000)
    return drift.drift_monte_carlo(lamp_measure, cfg,
                                   checkpoints=[500, 1000, 2000])


def test_2a_free2_mc_drift(mc_free2):
    mean = mc_free2.means[0]
    report("2a F2 SRW MC drift in [0.48, 0.52] at n = 2000",
           0.48 <= mean <= 0.52,
           f"estimate {mean:.5f} +- {mc_free2.ci_half_widths[0]:.5f}")


def test_2b_z2_bounds_and_mc(mc_z2):
    exact = drift.drift_exact_partial(srw(Z2), norm_evaluator(Z2), 8)
    a = {n: v for n, v in zip(exact.ns, exact.a_values)}
    ratios = [float(a[n]) / n for n in (1, 2, 4, 8)]
    decreasing = all(x > y for x, y in zip(ratios, ratios[1:]))
    mean = mc_z2.means[0]
    report("2b Z^2 bounds strictly decreasing + MC <= 0.06",
           decreasing and mean <= 0.06,
           f"a_n/n {['%.4f' % r for r in ratios]}, MC {mean:.5f}")


def test_2c_lamplighter_zero_drift_trend(mc_lamplighter):
    means = mc_lamplighter.means
    ok = means[0] > means[1] > means[2] and means[2] <= 0.15
    report("2c lamplighter MC drift decreasing, final <= 0.15", ok,
           f"estimates {['%.4f' % m for m in means]} at n = 500/1000/2000")


def test_2d_entropy_rate_vs_boundary_value():
    # convolution reaches only n = 8, where H_n/n is still 0.309 above its
    # infimum (see the module docstring); the radial route carries it on
    h8 = shannon_entropy(power(srw(F2), 8))
    bridged = h8 == pytest.approx(radial_entropy(2, 8), rel=1e-12)
    target = 0.5 * math.log(3)
    rate = radial_entropy(2, 256) / 256
    gap = abs(rate - target)
    report("2d F2 entropy H_256/256 within 0.05 of (1/2) log 3",
           bridged and gap <= 0.05,
           f"convolution H_8/8 = {h8 / 8:.4f} (= radial: {bridged}), "
           f"radial H_256/256 = {rate:.4f}, target {target:.4f}, "
           f"gap {gap:.4f}")


def test_2d_entropy_cross_module_consistency():
    # the true consistency statement behind 2d: the boundary value -c_1
    # equals the drift times log 3, and H_n/n decreases toward it
    minus_c1 = -float(boundary.c_sequence(2, 1)[0]) * math.log(3)
    rates = [radial_entropy(2, n) / n for n in (2, 4, 8)]
    ok = (minus_c1 == pytest.approx(0.5 * math.log(3))
          and all(x > y for x, y in zip(rates, rates[1:]))
          and rates[-1] > minus_c1)
    report("2d' -c_1 = (1/2) log 3 and H_n/n decreasing toward it", ok,
           f"-c_1 = {minus_c1:.4f}, rates {['%.4f' % r for r in rates]}")


# -- criterion 3: quasi-harmonic suite --------------------------------------------

@pytest.fixture(scope="module")
def z1_tables():
    return quasiharmonic.compute_fk_tables(srw(Z1), norm_evaluator(Z1),
                                           63, 4)


@pytest.fixture(scope="module")
def z2_tables():
    return quasiharmonic.compute_fk_tables(
        srw(Z2, mode=MODE_FLOAT), norm_evaluator(Z2), 63, 2)


def test_3_triangle_bound(z1_tables, z2_tables):
    ok = True
    for group, tables in ((Z1, z1_tables), (Z2, z2_tables)):
        norm_fn = norm_evaluator(group)
        for table in tables:
            for s, v in table.values.items():
                if abs(v) > norm_fn(s) + table.error_bars[s] + 1e-12:
                    ok = False
    f2_tables = quasiharmonic.compute_fk_tables(srw(F2), norm_evaluator(F2),
                                                6, 3)
    for table in f2_tables:
        for s, v in table.values.items():
            if abs(v) > len(s):
                ok = False
    report("3 |f_k(s)| <= rho(s) on all computed entries", ok,
           f"{sum(len(t.values) for t in z1_tables + z2_tables + f2_tables)}"
           " entries")


def test_3_lipschitz_bound(z1_tables, z2_tables):
    worst = -math.inf
    for group, tables in ((Z1, z1_tables), (Z2, z2_tables)):
        norm_fn = norm_evaluator(group)
        for n in (8, 32, 64):
            phi = quasiharmonic.phi_from_fk(tables, n)
            pairs = [(g, s) for g in group.generators()
                     for s in phi.values if group.mul(g, s) in phi.values]
            worst = max(worst, float(check_lipschitz(
                phi, group, norm_fn, pairs)))
    report("3 |phi_n(gs) - phi_n(s)| <= rho(g) on sampled pairs",
           worst <= 1e-12, f"max excess {worst:.2e}")


def test_3_homomorphism_defect_trend(z1_tables, z2_tables):
    defects = {}
    for gid, group, tables in (("z", Z1, z1_tables), ("z2", Z2, z2_tables)):
        pairs = [(s, t) for s in group.generators()
                 for t in group.generators()]
        defects[gid] = [float(homomorphism_defect(
            quasiharmonic.phi_from_fk(tables, n), group, pairs))
            for n in (8, 32, 64)]
    trend = all(d[0] > d[1] > d[2] for d in defects.values())
    threshold = defects["z"][2] <= 0.2
    report("3 homomorphism defect decreasing (Z, Z^2), <= 0.2 on Z at 64",
           trend and threshold,
           f"Z {['%.4f' % d for d in defects['z']]}, "
           f"Z^2 {['%.4f' % d for d in defects['z2']]}")


# -- criterion 4: stationary spaces -----------------------------------------------

def test_4_statinv_randomized():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 12))
        space = gspaces.FiniteGSpace(
            size=n, gens={"a": tuple(int(x) for x in rng.permutation(n)),
                          "b": tuple(int(x) for x in rng.permutation(n))})
        nu = gspaces.solve_stationary(space).nu
        f = np.empty(n)
        for orbit in gspaces.orbits(space):
            f[orbit] = rng.normal()
        rep = check_statinv(space, nu, "uniform", f, k_max=4)
        worst = max(worst, max(rep.identity_residuals), max(rep.vanishing))
        assert rep.is_invariant
    report("4 statinv identity residual <= 1e-10, 20 random spaces",
           worst <= 1e-10, f"max residual {worst:.2e}")


def test_4_dichotomy_randomized():
    rng = np.random.default_rng(123)
    cases = 0
    ok = True
    while cases < 20:
        g = int(rng.integers(2, 5))
        a, b = g * int(rng.integers(1, 4)), g * int(rng.integers(1, 4))
        x, y = gspaces.cycle_space(a), gspaces.cycle_space(b)
        nu_x = gspaces.solve_stationary(x).nu
        nu_y = gspaces.solve_stationary(y).nu
        if gspaces.diagonal_ergodicity(x, nu_x, y, nu_y).ergodic:
            continue
        gg = math.gcd(a, b)
        vals = rng.normal(size=gg)
        f = np.array([[vals[(i - j) % gg] for j in range(b)]
                      for i in range(a)])
        f -= f.mean()
        if np.abs(f).max() <= 1e-9:
            continue
        f /= np.abs(f).max()
        fm = gspaces.factor_map(f, x, nu_x, y, nu_y)
        ok = ok and fm.dichotomy_holds and not fm.f2_essentially_constant
        cases += 1
    report("4 nonzero invariant f => f_2 non-constant, 20 products", ok)


# -- criterion 5: hitting-measure validation ---------------------------------------

@pytest.fixture(scope="module")
def hitting_report():
    cfg = SamplerConfig(seed=SEED + 5, trajectories=100_000, steps=200)
    return boundary.validate_hitting_measure(2, 2, cfg)


def test_5_cylinder_frequencies(hitting_report):
    report("5 boundary frequencies vs hitting measure, TV <= 0.02",
           hitting_report.tv_distance <= 0.02,
           f"TV = {hitting_report.tv_distance:.5f} over "
           f"{hitting_report.trajectories} walks of length "
           f"{hitting_report.steps}")


# -- criterion 6: determinism ------------------------------------------------------

def test_6_identical_seed_identical_json(mc_free2, hitting_report):
    cfg = SamplerConfig(seed=SEED, trajectories=2000, steps=2000)
    again = drift.drift_monte_carlo(srw(F2, mode=MODE_FLOAT), cfg)
    json_a = dumps(mc_free2.__dict__)
    json_b = dumps(again.__dict__)
    cfg5 = SamplerConfig(seed=SEED + 5, trajectories=100_000, steps=200)
    rerun = boundary.validate_hitting_measure(2, 2, cfg5)
    json_c = dumps(hitting_report.__dict__)
    json_d = dumps(rerun.__dict__)
    report("6 identical seed -> identical JSON (criteria 2 and 5)",
           json_a == json_b and json_c == json_d,
           f"{len(json_a)} + {len(json_c)} bytes compared")


@pytest.mark.usefixtures("fork_every_span")
def test_6_worker_count_invariance(mc_z2, lamp_measure):
    cfg = SamplerConfig(seed=SEED + 1, trajectories=2000, steps=2000,
                        workers=3)
    again = drift.drift_monte_carlo(srw(Z2, mode=MODE_FLOAT), cfg)
    mc_same = (again.norm_sums == mc_z2.norm_sums
               and again.norm_sq_sums == mc_z2.norm_sq_sums
               and again.means == mc_z2.means)
    counts_1 = prefix_counts(srw(F2), 2, SamplerConfig(
        seed=SEED + 6, trajectories=5000, steps=120, workers=1))
    counts_4 = prefix_counts(srw(F2), 2, SamplerConfig(
        seed=SEED + 6, trajectories=5000, steps=120, workers=4))
    report("6 worker count leaves aggregate statistics unchanged",
           mc_same and counts_1 == counts_4,
           "MC sums and prefix tallies identical across 1/3/4 workers")
