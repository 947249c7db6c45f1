"""Exact laws by the norm's structure (``wordmetric.law_rule``): zd
coordinate marginals for a_n and f_k, free-group prefix masses for f_k,
and the radial law for a_n of the free-group simple random walk.

The oracle is the generic loop over (point, atom) pairs of the joint law.
A norm function that is not the group's closed form takes that loop, so
``lambda g: l1_norm(g)`` forces it on the same measure. Values and error
bars must match exactly, types included: an untruncated error bar stays
``Fraction(0)``.
"""

import functools
from fractions import Fraction

import pytest

from groupwalk import freewalk, wordmetric
from groupwalk.drift import adjoint_drift_equality, drift_exact_partial
from groupwalk.errors import ResourceLimitError
from groupwalk.groups import FreeAbelian, group_from_id
from groupwalk.measures import (MODE_FLOAT, FiniteMeasure, finite_measure,
                                parse_measure_spec, power_sequence, srw)
from groupwalk.quasiharmonic import compute_fk_tables
from groupwalk.wordmetric import free_norm, l1_norm, law_rule, norm_evaluator

# srw, a skewed 3-atom measure, a 2-atom diagonal measure (every coordinate
# has the same law), an atom with a zero coordinate, then constant
# coordinates, a point mass, and a 2-atom measure whose coordinate laws
# differ by a shift, a scale or a reflection
ZD_MEASURES = {
    "zd:1": ["srw", "2=1/3;-1=1/6;0=1/2", "1=1/2;-1=1/2", "0=1/4;1=3/4",
             "-3=1"],
    "zd:2": ["srw", "1,0=1/3;-1,1=1/6;0,-1=1/2", "1,1=1/2;-1,-1=1/2",
             "0,1=1/4;2,0=3/4", "2,1=1/3;2,-2=2/3"],
    "zd:3": ["srw", "1,0,2=1/3;-1,1,0=1/6;0,-1,-1=1/2",
             "1,1,1=1/2;-1,-1,-1=1/2", "0,1,0=1/4;1,0,-2=3/4",
             "0,0,-1=1/5;0,0,2=4/5", "1,0,-2=1", "-1,0,-1=2/3;1,1,0=1/3"],
}
FREE_MEASURES = ["srw", "a=1/3;A=1/6;aa=1/4;e=1/4"]


def _zd_cases():
    return [(gid, spec) for gid, specs in ZD_MEASURES.items()
            for spec in specs]


def _generic(norm_fn):
    return lambda g: norm_fn(g)


def _types(values):
    return [type(v) for v in values]


def _assert_same_tables(tables, oracle):
    assert len(tables) == len(oracle)
    for table, expected in zip(tables, oracle):
        assert table == expected
        assert list(table.values) == list(expected.values)
        assert _types(table.values.values()) == \
            _types(expected.values.values())
        assert _types(table.error_bars.values()) == \
            _types(expected.error_bars.values())


@pytest.mark.parametrize("gid,spec", _zd_cases())
def test_zd_drift_by_marginals_equals_the_joint_law(gid, spec):
    group = group_from_id(gid)
    mu = parse_measure_spec(group, spec)
    assert law_rule(mu, l1_norm) is not None
    report = drift_exact_partial(mu, l1_norm, 12)
    oracle = drift_exact_partial(mu, _generic(l1_norm), 12)
    assert report == oracle
    assert report.certified_bound == oracle.certified_bound
    assert _types(report.a_values) == _types(oracle.a_values)
    assert _types(report.error_bars) == _types(oracle.error_bars)
    assert all(err == 0 and type(err) is Fraction
               for err in report.error_bars)


@pytest.mark.parametrize("gid,spec", _zd_cases())
def test_zd_fk_tables_by_marginals_equal_the_joint_law(gid, spec):
    group = group_from_id(gid)
    mu = parse_measure_spec(group, spec)
    r_eval = 3 if gid != "zd:3" else 2
    _assert_same_tables(compute_fk_tables(mu, l1_norm, 6, r_eval),
                        compute_fk_tables(mu, _generic(l1_norm), 6, r_eval))


def test_zd_coordinates_share_chains_up_to_shift_scale_and_reflection():
    z3 = group_from_id("zd:3")
    for spec, chains in (("-1,0,-1=2/3;1,1,0=1/3", 1),
                         ("0,0,-1=1/5;0,0,2=4/5", 1), ("1,0,-2=1", 1),
                         (ZD_MEASURES["zd:3"][1], 3)):
        laws, _ = wordmetric._coordinate_laws(parse_measure_spec(z3, spec))
        assert len(laws) == chains


def _deficit_measure():
    z2 = group_from_id("zd:2")
    return finite_measure(z2, {(1, 0): Fraction(1, 2),
                               (-1, 2): Fraction(1, 3)},
                          deficit=Fraction(1, 6))


def test_zd_coordinate_laws_on_ints_match_their_zd1_chains():
    measures = [parse_measure_spec(group_from_id(gid), spec)
                for gid, spec in _zd_cases()]
    for mu in measures + [_deficit_measure()]:
        laws, _ = wordmetric._coordinate_laws(mu)
        for law in laws:
            assert all(type(y) is int for y in law.weights)
            lifted = FiniteMeasure(
                group=FreeAbelian(1),
                weights={(y,): c for y, c in law.weights.items()},
                den=law.den, deficit=law.deficit, mode=law.mode)
            for (n, step), (m, twin) in zip(power_sequence(law, 12),
                                            power_sequence(lifted, 12)):
                assert n == m
                assert list(step.weights.items()) == \
                    [(y, c) for (y,), c in twin.weights.items()]
                assert step.den == twin.den
                assert step.deficit == twin.deficit
                assert type(step.deficit) is type(twin.deficit)


@pytest.mark.parametrize("gid,completed", [("zd:1", 4), ("zd:3", 2)])
def test_zd_marginal_atom_budget_names_zd1(monkeypatch, gid, completed):
    # srw's coordinate law on zd:1 has 2 atoms, on zd:3 3 atoms, so its
    # n-th power has n + 1 and 2n + 1
    monkeypatch.setattr(wordmetric, "power_sequence",
                        functools.partial(power_sequence, max_atoms=5))
    mu = srw(group_from_id(gid))
    with pytest.raises(ResourceLimitError) as info:
        drift_exact_partial(mu, l1_norm, 10)
    assert str(info.value) == (f"convolution on zd:1 exceeded 5 atoms; "
                               f"completed n = {completed}")


def test_zd_marginals_carry_the_measures_deficit():
    mu = _deficit_measure()
    report = drift_exact_partial(mu, l1_norm, 8)
    assert report == drift_exact_partial(mu, _generic(l1_norm), 8)
    assert report.error_bars[0] == Fraction(1, 6) * 1 * 3
    _assert_same_tables(compute_fk_tables(mu, l1_norm, 5, 3),
                        compute_fk_tables(mu, _generic(l1_norm), 5, 3))


def test_zd_adjoint_equality_by_marginals():
    z3 = group_from_id("zd:3")
    mu = parse_measure_spec(z3, ZD_MEASURES["zd:3"][1])
    report = adjoint_drift_equality(mu, l1_norm, 10)
    oracle = adjoint_drift_equality(mu, _generic(l1_norm), 10)
    assert report == oracle and report.equal


@pytest.mark.parametrize("gid", ["free:1", "free:2", "free:3"])
@pytest.mark.parametrize("spec", FREE_MEASURES)
@pytest.mark.parametrize("threshold", [0, Fraction(1, 30)])
def test_free_fk_tables_by_prefix_masses_equal_the_pair_loop(gid, spec,
                                                            threshold):
    group = group_from_id(gid)
    mu = parse_measure_spec(group, spec)
    assert law_rule(mu, free_norm, threshold) is not None
    k_max, r_eval = (6, 3) if gid != "free:3" else (4, 2)
    tables = compute_fk_tables(mu, free_norm, k_max, r_eval,
                               threshold=threshold)
    oracle = compute_fk_tables(mu, _generic(free_norm), k_max, r_eval,
                               threshold=threshold)
    _assert_same_tables(tables, oracle)
    if threshold:
        assert any(err != 0 for err in tables[-1].error_bars.values())


def test_rule_lookup_unwraps_and_declines():
    z2 = group_from_id("zd:2")
    f2 = group_from_id("free:2")
    mu = srw(z2)
    wrapped = functools.wraps(l1_norm)(lambda g: l1_norm(g))
    assert law_rule(mu, wrapped) is law_rule(mu, l1_norm) is not None
    assert law_rule(mu, _generic(l1_norm)) is None
    # the marginal rule does not truncate; the prefix rule does, but has
    # no a_n rule
    assert law_rule(mu, l1_norm, Fraction(1, 100)) is None
    free_rule = law_rule(srw(f2), free_norm, Fraction(1, 100))
    assert free_rule is not None and free_rule.norm_sums is None
    # float64 mode, another group's norm, and groups without a rule
    assert law_rule(srw(z2, mode=MODE_FLOAT), l1_norm) is None
    assert law_rule(srw(f2), l1_norm) is None
    assert law_rule(mu, free_norm) is None
    for gid in ("lamplighter", "heisenberg"):
        group = group_from_id(gid)
        assert law_rule(srw(group), norm_evaluator(group)) is None


def _counting(norm_fn):
    calls = []

    def counted(g):
        calls.append(g)
        return norm_fn(g)
    return counted, calls


def test_linf_norm_and_float_mode_take_the_pair_loop(monkeypatch):
    z2 = group_from_id("zd:2")
    linf, calls = _counting(lambda g: max(map(abs, g)))
    tables = compute_fk_tables(srw(z2), linf, 2, 1)
    # the 5 point norms, then k = 0, 1, 2: 1, 4 and 9 atoms, each normed
    # once and once per point
    assert len(calls) == 5 + 6 * (1 + 4 + 9)
    assert tables[1].values[(1, 0)] == 0
    assert tables[2].values[(1, 0)] == Fraction(1, 2)
    assert drift_exact_partial(srw(z2), linf, 2).a_values == [1, 1]

    # float64: the rule is not looked at, and the loop norms every pair
    def refuse(*args):
        raise AssertionError("a rule ran in float64 mode")
    monkeypatch.setitem(wordmetric._LAW_RULES, l1_norm, wordmetric.LawRule(
        refuse, refuse, False))
    mu = srw(z2, mode=MODE_FLOAT)
    floats = compute_fk_tables(mu, l1_norm, 3, 2)
    assert floats == compute_fk_tables(mu, _generic(l1_norm), 3, 2)
    assert all(type(v) is float for v in floats[2].values.values())
    report = drift_exact_partial(mu, l1_norm, 5)
    assert report == drift_exact_partial(mu, _generic(l1_norm), 5)


# free:k simple random walk: a_n by the radial law, against the joint law
# at the largest n each rank's convolution reaches quickly
@pytest.mark.parametrize("gid,n_max", [("free:1", 14), ("free:2", 10),
                                       ("free:3", 6), ("free:4", 5)])
def test_free_srw_drift_by_the_radial_law_equals_the_joint_law(gid, n_max):
    mu = srw(group_from_id(gid))
    rule = law_rule(mu, free_norm, 0, n_max)
    assert rule is not None and rule.norm_sums is not None
    report = drift_exact_partial(mu, free_norm, n_max)
    oracle = drift_exact_partial(mu, _generic(free_norm), n_max)
    assert report == oracle
    assert report.certified_bound == oracle.certified_bound
    assert _types(report.a_values) == _types(oracle.a_values)
    assert _types(report.error_bars) == _types(oracle.error_bars)
    assert all(err == 0 and type(err) is Fraction
               for err in report.error_bars)


def test_free_drift_off_the_radial_law_takes_the_generic_loop(monkeypatch):
    """Only the exact, untruncated simple random walk up to
    MAX_RADIAL_STEPS takes the radial rule; every other free-group drift
    keeps the generic loop and its atom budget."""
    calls = []
    radial = wordmetric._LAW_RULES[free_norm]

    def counted(mu, n_max):
        calls.append(n_max)
        return radial.norm_sums(mu, n_max)
    monkeypatch.setitem(wordmetric._LAW_RULES, free_norm,
                        radial._replace(norm_sums=counted))
    monkeypatch.setattr(freewalk, "MAX_RADIAL_STEPS", 3)
    f2 = group_from_id("free:2")
    cases = [(srw(f2), 4, 0),                                # past the cap
             (parse_measure_spec(f2, FREE_MEASURES[1]), 3, 0),
             (parse_measure_spec(f2, "a=1/2;A=1/6;b=1/6;B=1/6"), 3, 0),
             (srw(f2, mode=MODE_FLOAT), 3, 0),
             (srw(f2), 3, Fraction(1, 40))]
    for mu, n_max, threshold in cases:
        rule = law_rule(mu, free_norm, threshold, n_max)
        assert rule is None or rule.norm_sums is None
        report = drift_exact_partial(mu, free_norm, n_max, threshold)
        oracle = drift_exact_partial(mu, _generic(free_norm), n_max,
                                     threshold)
        assert report == oracle
        assert _types(report.error_bars) == _types(oracle.error_bars)
    assert calls == []
    assert any(err != 0 for err in report.error_bars)   # truncated
    report = drift_exact_partial(srw(f2), free_norm, 3)
    assert calls == [3]
    assert report == drift_exact_partial(srw(f2), _generic(free_norm), 3)
