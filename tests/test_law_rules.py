"""Exact laws by the norm's structure (``wordmetric.norm_sums`` and
``wordmetric.fk_numerators``): zd coordinate marginals for a_n and f_k,
free-group prefix masses for f_k, and the radial law for a_n of the
free-group simple random walk.

The oracle is the generic loop over (point, atom) pairs of the joint law.
A norm function that is not the group's closed form takes that loop, so
``lambda g: l1_norm(g)`` forces it on the same measure. Values and error
bars must match exactly, types included: an untruncated error bar stays
``Fraction(0)``. The ``routes`` fixture records which private route
function each call reached.
"""

import functools
from fractions import Fraction

import pytest

from groupwalk import freewalk, quasiharmonic, wordmetric
from groupwalk.drift import (adjoint_drift_equality, drift_exact_partial,
                             entropy_partial)
from groupwalk.errors import DomainError, ResourceLimitError
from groupwalk.groups import FreeAbelian, FreeGroup, group_from_id
from groupwalk.measures import (MODE_EXACT, MODE_FLOAT, FiniteMeasure, dirac,
                                finite_measure, parse_measure_spec, power,
                                power_sequence, srw)
from groupwalk.quasiharmonic import (compute_fk_tables, compute_phi,
                                     phi_from_fk)
from groupwalk.wordmetric import (fk_numerators, free_norm, l1_norm,
                                  norm_evaluator, norm_sums, phi_numerators)

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
ROUTES = ["_marginal_norm_sums", "_radial_norm_sums", "_joint_norm_sums",
          "_marginal_fk_numerators", "_prefix_fk_numerators",
          "_joint_fk_numerators"]


@pytest.fixture
def routes(monkeypatch):
    """The names of the route functions called so far, in call order."""
    calls = []
    for name in ROUTES:
        def counted(*args, _name=name, _route=getattr(wordmetric, name)):
            calls.append(_name)
            return _route(*args)
        monkeypatch.setattr(wordmetric, name, counted)
    return calls


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
def test_zd_drift_by_marginals_equals_the_joint_law(gid, spec, routes):
    group = group_from_id(gid)
    mu = parse_measure_spec(group, spec)
    report = drift_exact_partial(mu, l1_norm, 12)
    oracle = drift_exact_partial(mu, _generic(l1_norm), 12)
    assert routes == ["_marginal_norm_sums", "_joint_norm_sums"]
    assert report == oracle
    assert report.certified_bound == oracle.certified_bound
    assert _types(report.a_values) == _types(oracle.a_values)
    assert _types(report.error_bars) == _types(oracle.error_bars)
    assert all(err == 0 and type(err) is Fraction
               for err in report.error_bars)


@pytest.mark.parametrize("gid,spec", _zd_cases())
def test_zd_fk_tables_by_marginals_equal_the_joint_law(gid, spec, routes):
    group = group_from_id(gid)
    mu = parse_measure_spec(group, spec)
    r_eval = 3 if gid != "zd:3" else 2
    _assert_same_tables(compute_fk_tables(mu, l1_norm, 6, r_eval),
                        compute_fk_tables(mu, _generic(l1_norm), 6, r_eval))
    assert routes == ["_marginal_fk_numerators", "_joint_fk_numerators"]


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
                                                            threshold,
                                                            routes):
    group = group_from_id(gid)
    mu = parse_measure_spec(group, spec)
    k_max, r_eval = (6, 3) if gid != "free:3" else (4, 2)
    tables = compute_fk_tables(mu, free_norm, k_max, r_eval,
                               threshold=threshold)
    oracle = compute_fk_tables(mu, _generic(free_norm), k_max, r_eval,
                               threshold=threshold)
    assert routes == ["_prefix_fk_numerators", "_joint_fk_numerators"]
    _assert_same_tables(tables, oracle)
    if threshold:
        assert any(err != 0 for err in tables[-1].error_bars.values())


def _route_cases():
    """(mu, norm_fn, threshold, n_max, a_n route, f_k route)."""
    z2 = group_from_id("zd:2")
    f2 = group_from_id("free:2")
    wrapped = functools.wraps(l1_norm)(lambda g: l1_norm(g))
    cap = freewalk.MAX_RADIAL_STEPS
    skewed = parse_measure_spec(f2, FREE_MEASURES[1])
    cases = [
        # zd with and without truncation; a wrapper of the closed form
        # takes its route, a bare lambda does not
        (srw(z2), l1_norm, 0, 8, "marginal", "marginal"),
        (srw(z2), l1_norm, Fraction(1, 100), 8, "joint", "joint"),
        (srw(z2), wrapped, 0, 8, "marginal", "marginal"),
        (srw(z2), _generic(l1_norm), 0, 8, "joint", "joint"),
        # free with both thresholds; radial a_n only for the exact srw up
        # to the cap, past which free:1 keeps the joint law (free:2 is
        # refused, see test_free_srw_drift_past_the_cap_is_refused_at_entry)
        (srw(f2), free_norm, 0, cap, "radial", "prefix"),
        (srw(f2), free_norm, Fraction(1, 100), 8, "joint", "prefix"),
        (srw(FreeGroup(1)), free_norm, 0, cap + 1, "joint", "prefix"),
        (skewed, free_norm, 0, 8, "joint", "prefix"),
        # float64 mode and another group's norm
        (srw(z2, mode=MODE_FLOAT), l1_norm, 0, 8, "joint", "joint"),
        (srw(f2, mode=MODE_FLOAT), free_norm, 0, 8, "joint", "joint"),
        (srw(f2), l1_norm, 0, 8, "joint", "joint"),
        (srw(z2), free_norm, 0, 8, "joint", "joint"),
    ]
    for gid in ("lamplighter", "heisenberg"):
        group = group_from_id(gid)
        cases.append((srw(group), norm_evaluator(group), 0, 8, "joint",
                      "joint"))
    return cases


def test_each_entry_chooses_its_route(routes):
    # norm_sums and fk_numerators return unstarted generators: choosing
    # costs no power; phi_numerators takes the route of fk_numerators
    for mu, norm_fn, threshold, n_max, a_route, f_route in _route_cases():
        routes.clear()
        e = mu.group.identity()
        norm_sums(mu, norm_fn, n_max, threshold)
        fk_numerators(mu, norm_fn, [e], 4, threshold)
        nums, _, _ = phi_numerators(mu, norm_fn, [e], 3, threshold)
        assert nums == [0]
        assert routes == [f"_{a_route}_norm_sums",
                          f"_{f_route}_fk_numerators",
                          f"_{f_route}_fk_numerators"], (mu, norm_fn,
                                                         threshold, n_max)


@pytest.mark.parametrize("route,norm_fn,mode", [
    ("_joint_fk_numerators", _generic(free_norm), MODE_EXACT),
    ("_joint_fk_numerators", free_norm, MODE_FLOAT),
    ("_prefix_fk_numerators", free_norm, MODE_EXACT)])
@pytest.mark.parametrize("threshold", [0, Fraction(1, 30)])
def test_fk_error_bars_are_the_deficit_times_the_norm(route, norm_fn, mode,
                                                      threshold, routes):
    mu = parse_measure_spec(group_from_id("free:2"), FREE_MEASURES[1],
                            mode=mode)
    tables = compute_fk_tables(mu, norm_fn, 5, 3, threshold=threshold)
    assert routes == [route]
    deficits = [dirac(mu.group, mode=mode).deficit] + [
        mun.deficit for _, mun in power_sequence(mu, 5, threshold=threshold)]
    assert any(deficits) == bool(threshold)
    for table, deficit in zip(tables, deficits):
        for s, err in table.error_bars.items():
            if threshold:
                assert err == deficit * free_norm(s)
                assert type(err) is type(deficit * free_norm(s))
            else:       # the zero deficit itself, with its type
                assert err == deficit == 0
                assert type(err) is type(deficit)
                assert type(err) is (Fraction if mode == MODE_EXACT
                                     else float)


def _counting(norm_fn):
    calls = []

    def counted(g):
        calls.append(g)
        return norm_fn(g)
    return counted, calls


def test_linf_norm_and_float_mode_take_the_pair_loop(routes):
    z2 = group_from_id("zd:2")
    linf, calls = _counting(lambda g: max(map(abs, g)))
    tables = compute_fk_tables(srw(z2), linf, 2, 1)
    # k = 0, 1, 2: 1, 4 and 9 atoms, each normed once and once per each of
    # the 5 points; a zero deficit needs no point norms
    assert len(calls) == 6 * (1 + 4 + 9)
    assert tables[1].values[(1, 0)] == 0
    assert tables[2].values[(1, 0)] == Fraction(1, 2)
    assert drift_exact_partial(srw(z2), linf, 2).a_values == [1, 1]

    # float64: only the joint law runs, and the loop norms every pair
    mu = srw(z2, mode=MODE_FLOAT)
    floats = compute_fk_tables(mu, l1_norm, 3, 2)
    assert floats == compute_fk_tables(mu, _generic(l1_norm), 3, 2)
    assert all(type(v) is float for v in floats[2].values.values())
    report = drift_exact_partial(mu, l1_norm, 5)
    assert report == drift_exact_partial(mu, _generic(l1_norm), 5)
    assert set(routes) == {"_joint_fk_numerators", "_joint_norm_sums"}


# free:k simple random walk: a_n by the radial law, against the joint law
# at the largest n each rank's convolution reaches quickly
@pytest.mark.parametrize("gid,n_max", [("free:1", 14), ("free:2", 10),
                                       ("free:3", 6), ("free:4", 5)])
def test_free_srw_drift_by_the_radial_law_equals_the_joint_law(gid, n_max,
                                                               routes):
    mu = srw(group_from_id(gid))
    report = drift_exact_partial(mu, free_norm, n_max)
    oracle = drift_exact_partial(mu, _generic(free_norm), n_max)
    assert routes == ["_radial_norm_sums", "_joint_norm_sums"]
    assert report == oracle
    assert report.certified_bound == oracle.certified_bound
    assert _types(report.a_values) == _types(oracle.a_values)
    assert _types(report.error_bars) == _types(oracle.error_bars)
    assert all(err == 0 and type(err) is Fraction
               for err in report.error_bars)


def test_free_drift_off_the_radial_law_takes_the_generic_loop(monkeypatch,
                                                             routes):
    """Only the exact, untruncated simple random walk up to
    MAX_RADIAL_STEPS takes the radial route; every other free-group drift
    keeps the generic loop and its atom budget, and so does the free:1
    simple random walk past the cap."""
    monkeypatch.setattr(freewalk, "MAX_RADIAL_STEPS", 3)
    f2 = group_from_id("free:2")
    cases = [(srw(FreeGroup(1)), 4, 0),                      # past the cap
             (parse_measure_spec(f2, FREE_MEASURES[1]), 3, 0),
             (parse_measure_spec(f2, "a=1/2;A=1/6;b=1/6;B=1/6"), 3, 0),
             (srw(f2, mode=MODE_FLOAT), 3, 0),
             (srw(f2), 3, Fraction(1, 40))]
    for mu, n_max, threshold in cases:
        report = drift_exact_partial(mu, free_norm, n_max, threshold)
        oracle = drift_exact_partial(mu, _generic(free_norm), n_max,
                                     threshold)
        assert report == oracle
        assert _types(report.error_bars) == _types(oracle.error_bars)
    assert routes == ["_joint_norm_sums"] * 2 * len(cases)
    assert any(err != 0 for err in report.error_bars)   # truncated
    routes.clear()
    report = drift_exact_partial(srw(f2), free_norm, 3)
    assert routes == ["_radial_norm_sums"]
    assert report == drift_exact_partial(srw(f2), _generic(free_norm), 3)


@pytest.mark.parametrize("k", [2, 3, 26])
def test_free_srw_drift_past_the_cap_is_refused_at_entry(monkeypatch, k,
                                                         routes):
    """Past MAX_RADIAL_STEPS the joint law of srw on free:k, k >= 2, could
    only end at the atom budget: norm_sums refuses before any power, with
    the radial routes' message. Truncated or float64 srw, another measure
    and free:1 keep the joint law."""
    monkeypatch.setattr(freewalk, "MAX_RADIAL_STEPS", 3)
    group = FreeGroup(k)
    with pytest.raises(ResourceLimitError,
                       match="refusing a 4-step radial walk: past "
                             "MAX_RADIAL_STEPS = 3"):
        norm_sums(srw(group), free_norm, 4)
    with pytest.raises(ResourceLimitError, match="MAX_RADIAL_STEPS"):
        adjoint_drift_equality(srw(group), free_norm, 4)
    assert routes == []
    for mu, threshold in ((srw(group), Fraction(1, 10)),
                          (srw(group, mode=MODE_FLOAT), 0),
                          (srw(FreeGroup(1)), 0),
                          (parse_measure_spec(group, "a=1/2;B=1/2"), 0)):
        norm_sums(mu, free_norm, 4, threshold)
    assert routes == ["_joint_norm_sums"] * 4


# -- free-group letters moved apart (freewalk._letters_apart) -----------------

# a_n and H_n steps and f_k depth per rank, where the joint law stays small
APART_STEPS = {"free:1": (10, 6), "free:2": (6, 4), "free:3": (5, 3),
               "free:4": (4, 3)}
APART_MEASURES = FREE_MEASURES + ["aa=2/3;A=1/3", "BA=5/6;BB=1/6",
                                  "A=1/4;BA=3/4", "d=1/2;AB=1/4;b=1/4"]


def _apart_measures(group, mode):
    """The measures of APART_MEASURES whose letters `group` has."""
    out = []
    for spec in APART_MEASURES:
        try:
            out.append(parse_measure_spec(group, spec, mode=mode))
        except DomainError:
            pass
    return out


def _exact_laws(mu, n_max, k_max, threshold):
    points = list(wordmetric.build_ball(mu.group, 2).norms)
    return (entropy_partial(mu, n_max, threshold),
            list(norm_sums(mu, free_norm, n_max, threshold)),
            list(fk_numerators(mu, free_norm, points, k_max, threshold)))


@pytest.mark.parametrize("gid", sorted(APART_STEPS))
@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_FLOAT])
@pytest.mark.parametrize("threshold", [0, Fraction(1, 200)])
def test_moved_letters_give_the_plain_chain(monkeypatch, gid, mode,
                                            threshold):
    """entropy_partial, norm_sums and fk_numerators on moved letters equal
    the same calls with the relabel turned off, bit for bit in float64."""
    group = group_from_id(gid)
    n_max, k_max = APART_STEPS[gid]
    if mode == MODE_FLOAT:
        threshold = float(threshold)
    measures = _apart_measures(group, mode)
    assert len(measures) >= 3
    deficits = []
    for mu in measures:
        moved = _exact_laws(mu, n_max, k_max, threshold)
        with monkeypatch.context() as plain:
            plain.setattr(freewalk, "_letters_apart", lambda m: m)
            plain.setattr(freewalk, "_apart", lambda g: g)
            oracle = _exact_laws(mu, n_max, k_max, threshold)
        assert moved == oracle
        deficits += [row[-1] for row in moved[1]]
    assert any(deficits) == bool(threshold)


def test_moved_letters_hash_apart():
    """Regression guard, with no timing: in CPython hash(-1) == hash(-2),
    so every atom of this mu^{*8} shares one hash; moved apart, each has
    its own, with the same numerators in the same order."""
    mu = parse_measure_spec(group_from_id("free:2"), "BA=5/6;BB=1/6")
    plain = power(mu, 8)
    moved = power(freewalk._letters_apart(mu), 8)
    assert len(plain) == len(moved) == 256
    assert len({hash(g) for g in plain.weights}) == 1
    assert len({hash(g) for g in moved.weights}) == 256
    assert list(moved.weights.items()) == [
        (freewalk._apart(g), c) for g, c in plain.weights.items()]
    assert (moved.den, moved.deficit) == (plain.den, plain.deficit)
    assert all(-1 not in g and 1 not in g for g in moved.weights)


def test_letters_move_apart_after_the_route_is_chosen(monkeypatch, routes):
    """The route is chosen on the original measure, so the simple random
    walk keeps the radial route (``freewalk.is_srw`` never sees moved
    letters); the joint law under the free norm, the prefix route and the
    free-group entropy chain then run on a moved copy of it."""
    seen = []
    relabel = freewalk._letters_apart

    def spy(mu):
        seen.append(mu)
        routes.append("apart")
        return relabel(mu)
    monkeypatch.setattr(freewalk, "_letters_apart", spy)
    f1, f2, z2 = FreeGroup(1), FreeGroup(2), group_from_id("zd:2")
    skewed = parse_measure_spec(f2, FREE_MEASURES[1])
    wrapped = functools.wraps(free_norm)(lambda g: free_norm(g))
    cap = freewalk.MAX_RADIAL_STEPS
    joint = ["apart", "_joint_norm_sums"]
    cases = [
        (srw(f2), free_norm, 0, 8, ["_radial_norm_sums"]),
        (srw(f2), wrapped, 0, 8, ["_radial_norm_sums"]),
        (srw(f1), free_norm, 0, cap + 1, joint),
        (srw(f2), free_norm, Fraction(1, 100), 8, joint),
        (srw(f2, mode=MODE_FLOAT), free_norm, 0, 8, joint),
        (skewed, free_norm, 0, 8, joint),
        (skewed, wrapped, Fraction(1, 100), 8, joint),
        # a norm that is not free_norm, and free_norm off a free group,
        # see the public words
        (skewed, _generic(free_norm), 0, 8, ["_joint_norm_sums"]),
        (srw(z2), free_norm, 0, 8, ["_joint_norm_sums"]),
        (srw(z2), l1_norm, 0, 8, ["_marginal_norm_sums"]),
    ]
    for mu, norm_fn, threshold, n_max, expected in cases:
        routes.clear()
        seen.clear()
        norm_sums(mu, norm_fn, n_max, threshold)
        assert routes == expected, (mu, norm_fn, threshold)
        assert all(m is mu for m in seen)
    # f_k: the prefix route moves mu and the points; float64 runs the
    # joint loop on moved letters too
    points = list(wordmetric.build_ball(f2, 2).norms)
    for mu, expected in ((skewed, ["_prefix_fk_numerators", "apart"]),
                         (srw(f2, mode=MODE_FLOAT),
                          ["_joint_fk_numerators", "apart"])):
        routes.clear()
        seen.clear()
        list(fk_numerators(mu, free_norm, points, 2))
        assert routes == expected
        assert all(m is mu for m in seen)
    # entropy: every free-group measure, in both modes; no other group
    for mu, expected in ((srw(f2), ["apart"]), (skewed, ["apart"]),
                         (srw(f2, mode=MODE_FLOAT), ["apart"]),
                         (srw(z2), [])):
        routes.clear()
        seen.clear()
        entropy_partial(mu, 3)
        assert routes == expected
        assert all(m is mu for m in seen)


# -- phi_n from the one Cesaro law G_n = sum_{k<n} mu^{*k} --------------------

def _assert_same_phi(phi, oracle):
    assert phi == oracle
    assert list(phi.values) == list(oracle.values)
    assert list(phi.error_bars) == list(oracle.error_bars)
    assert _types(phi.values.values()) == _types(oracle.values.values())
    assert _types(phi.error_bars.values()) == \
        _types(oracle.error_bars.values())


def _phi_and_oracle(mu, norm_fn, n, r_eval, threshold=0):
    """compute_phi and the Cesaro average of the f_k tables."""
    return (compute_phi(mu, norm_fn, n, r_eval, threshold),
            phi_from_fk(compute_fk_tables(mu, norm_fn, n - 1, r_eval,
                                          threshold), n))


@pytest.mark.parametrize("gid,spec", _zd_cases())
def test_phi_by_the_cesaro_law_on_the_marginals(gid, spec, routes):
    mu = parse_measure_spec(group_from_id(gid), spec)
    r_eval = 3 if gid != "zd:3" else 2
    for n in (1, 2, 7):
        routes.clear()
        _assert_same_phi(*_phi_and_oracle(mu, l1_norm, n, r_eval))
        assert routes == ["_marginal_fk_numerators"] * 2
    phi, oracle = _phi_and_oracle(_deficit_measure(), l1_norm, 6, 3)
    _assert_same_phi(phi, oracle)
    assert any(err != 0 for err in phi.error_bars.values())


@pytest.mark.parametrize("gid", ["free:2", "free:3"])
@pytest.mark.parametrize("threshold", [0, Fraction(1, 30)])
def test_phi_by_the_cesaro_law_on_prefix_masses(gid, threshold, routes):
    n, r_eval = (7, 3) if gid == "free:2" else (5, 2)
    measures = _apart_measures(group_from_id(gid), MODE_EXACT)
    for mu in measures:
        phi, oracle = _phi_and_oracle(mu, free_norm, n, r_eval, threshold)
        _assert_same_phi(phi, oracle)
        if not threshold:
            assert set(map(type, phi.error_bars.values())) == {Fraction}
            assert not any(phi.error_bars.values())
    assert routes == ["_prefix_fk_numerators"] * 2 * len(measures)
    if threshold:
        assert any(err != 0 for err in phi.error_bars.values())


def _joint_phi_cases():
    """(mu, norm_fn, n, r_eval, threshold) that take the joint law."""
    heis, lamp = group_from_id("heisenberg"), group_from_id("lamplighter")
    z2, f2 = group_from_id("zd:2"), group_from_id("free:2")
    return [
        (srw(heis), norm_evaluator(heis), 4, 2, 0),
        (srw(lamp), norm_evaluator(lamp), 4, 2, 0),
        (parse_measure_spec(heis, "1,0,0=1/2;0,-1,0=1/3;1,1,1=1/6"),
         norm_evaluator(heis), 5, 2, 0),
        # a norm that is not the closed form takes the loop
        (srw(z2), _generic(l1_norm), 5, 2, 0),
        (parse_measure_spec(f2, FREE_MEASURES[1]), _generic(free_norm), 5,
         2, 0),
        # truncated: nonzero Fraction deficits from some k on
        (srw(heis), norm_evaluator(heis), 6, 2, Fraction(1, 100)),
        (srw(lamp), norm_evaluator(lamp), 6, 2, Fraction(1, 100)),
        (parse_measure_spec(z2, ZD_MEASURES["zd:2"][1]), l1_norm, 6, 2,
         Fraction(1, 100)),
    ]


def test_phi_by_the_cesaro_law_on_the_joint_law(routes):
    for mu, norm_fn, n, r_eval, threshold in _joint_phi_cases():
        routes.clear()
        phi, oracle = _phi_and_oracle(mu, norm_fn, n, r_eval, threshold)
        assert routes == ["_joint_fk_numerators"] * 2
        _assert_same_phi(phi, oracle)
        assert any(phi.error_bars.values()) == bool(threshold)


def test_phi_numerators_are_the_cesaro_sum_of_the_fk_numerators():
    """n phi_n's numerators over mu.den^(n-1), and the summed deficit."""
    for mu, norm_fn, n, r_eval, threshold in _joint_phi_cases():
        points = list(wordmetric.build_ball(mu.group, r_eval).norms)
        nums, den, deficit = phi_numerators(mu, norm_fn, points, n,
                                            threshold)
        rows = list(fk_numerators(mu, norm_fn, points, n - 1, threshold))
        assert den == mu.den ** (n - 1) == rows[-1][1]
        assert deficit == sum(row[2] for row in rows)
        assert nums == [sum(row[0][i] * (den // row[1]) for row in rows)
                        for i in range(len(points))]
    with pytest.raises(DomainError, match="Cesaro length must be >= 1"):
        phi_numerators(srw(group_from_id("zd:1")), l1_norm, [(0,)], 0)


@pytest.mark.parametrize("spec", FREE_MEASURES + ["aa=2/3;A=1/3",
                                                  "BA=5/6;BB=1/6"])
@pytest.mark.parametrize("threshold", [0, Fraction(1, 30)])
def test_prefix_route_needs_no_bfs_order(spec, threshold, routes):
    """The prefix evaluator reads each point's prefix sums directly: at
    supp mu, which need not hold the prefixes of its words, and at the
    ball reversed, it gives the values it gives on the ball."""
    f2 = group_from_id("free:2")
    mu = parse_measure_spec(f2, spec)
    ball = list(wordmetric.build_ball(f2, 3).norms)
    on_ball = list(fk_numerators(mu, free_norm, ball, 5, threshold))
    phi_ball = phi_numerators(mu, free_norm, ball, 6, threshold)
    for points in (list(mu.weights), ball[::-1]):
        where = [ball.index(s) for s in points]
        rows = list(fk_numerators(mu, free_norm, points, 5, threshold))
        for (nums, den, deficit), (ball_nums, ball_den, ball_deficit) in zip(
                rows, on_ball):
            assert nums == [ball_nums[i] for i in where]
            assert (den, deficit) == (ball_den, ball_deficit)
        nums, den, deficit = phi_numerators(mu, free_norm, points, 6,
                                            threshold)
        assert nums == [phi_ball[0][i] for i in where]
        assert (den, deficit) == phi_ball[1:]
    assert set(routes) == {"_prefix_fk_numerators"}


def test_float64_phi_keeps_the_table_average(monkeypatch):
    """Float64 compute_phi averages the f_k tables in order, so it is
    phi_from_fk over compute_fk_tables bit for bit, and never reaches
    phi_numerators."""
    monkeypatch.setattr(quasiharmonic, "phi_numerators", None)
    for gid, spec in (("free:2", "A=1/2;B=1/2"), ("zd:2", "srw"),
                      ("heisenberg", "srw")):
        group = group_from_id(gid)
        mu = parse_measure_spec(group, spec, mode=MODE_FLOAT)
        _assert_same_phi(*_phi_and_oracle(mu, norm_evaluator(group), 6, 2))
