"""Exact laws by the norm's structure (``wordmetric.norm_sums`` and
``wordmetric.fk_numerators``): zd coordinate marginals for a_n and f_k,
free-group prefix masses for f_k, the radial law for a_n of the
free-group simple random walk and (length, tail) states for a_n of every
other exact free-group measure; and the images of the group that the
entropy chain runs on (``drift._entropy_image``), whose oracle is the
chain on the group's own elements.

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
from hypothesis import given, settings
from hypothesis import strategies as st

from groupwalk import drift, freewalk, quasiharmonic, wordmetric
from groupwalk.drift import (adjoint_drift_equality, drift_exact_partial,
                             entropy_partial)
from groupwalk.errors import DomainError, ResourceLimitError
from groupwalk.groups import (FreeAbelian, FreeGroup, group_from_id,
                              reduce_word)
from groupwalk.measures import (MODE_EXACT, MODE_FLOAT, FiniteMeasure,
                                adjoint, convolve, dirac, finite_measure,
                                parse_measure_spec, power, power_sequence,
                                srw)
from groupwalk.quasiharmonic import (compute_fk_tables, compute_phi,
                                     phi_from_fk)
from groupwalk.wordmetric import (fk_numerators, free_norm, l1_norm,
                                  norm_evaluator, norm_sums, phi_numerators)
from references import entropy_on_elements

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
ROUTES = ["_marginal_norm_sums", "_radial_norm_sums", "_tail_norm_sums",
          "_joint_norm_sums", "_marginal_fk_numerators",
          "_prefix_fk_numerators", "_joint_fk_numerators"]


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
        # to the cap, past which free:1 takes the tail states (free:2 is
        # refused, see test_free_srw_drift_past_the_cap_is_refused_at_entry),
        # as does every other exact untruncated measure
        (srw(f2), free_norm, 0, cap, "radial", "prefix"),
        (srw(f2), free_norm, Fraction(1, 100), 8, "joint", "prefix"),
        (srw(FreeGroup(1)), free_norm, 0, cap + 1, "tail", "prefix"),
        (skewed, free_norm, 0, 8, "tail", "prefix"),
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
    MAX_RADIAL_STEPS takes the radial route. Every other exact untruncated
    free-group drift, the free:1 simple random walk past the cap among
    them, takes the tail states; float64 and truncated drift keep the
    generic loop and its atom budget."""
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
    assert routes == (["_tail_norm_sums", "_joint_norm_sums"] * 3
                      + ["_joint_norm_sums"] * 4)
    assert any(err != 0 for err in report.error_bars)   # truncated
    routes.clear()
    report = drift_exact_partial(srw(f2), free_norm, 3)
    assert routes == ["_radial_norm_sums"]
    assert report == drift_exact_partial(srw(f2), _generic(free_norm), 3)


@pytest.mark.parametrize("k", [2, 3, 26])
def test_free_srw_drift_past_the_cap_is_refused_at_entry(monkeypatch, k,
                                                         routes):
    """Past MAX_RADIAL_STEPS the law of srw on free:k, k >= 2, could only
    end at the atom budget: norm_sums refuses before any power, with
    the radial routes' message. Truncated or float64 srw keep the joint
    law; another exact measure and free:1 take the tail states."""
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
    assert routes == ["_joint_norm_sums"] * 2 + ["_tail_norm_sums"] * 2


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
    letters); the tail states and the joint law under the free norm, the
    prefix route and the free-group entropy chain then run on a moved copy
    of it."""
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
    tail = ["apart", "_tail_norm_sums"]
    cases = [
        (srw(f2), free_norm, 0, 8, ["_radial_norm_sums"]),
        (srw(f2), wrapped, 0, 8, ["_radial_norm_sums"]),
        (srw(f1), free_norm, 0, cap + 1, tail),
        (srw(f2), free_norm, Fraction(1, 100), 8, joint),
        (srw(f2, mode=MODE_FLOAT), free_norm, 0, 8, joint),
        (skewed, free_norm, 0, 8, tail),
        (skewed, wrapped, 0, 8, tail),
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


# -- free-norm a_n on (length, tail) states (wordmetric._tail_norm_sums) ------

# skewed, with cancellation; the joint law stops at the atom budget after
# n = 11 on it
CANCELLING = "Ab=2/9;Ba=1/9;aB=5/9;bb=1/9"
# 3-letter atoms, atoms at e, the point mass at e (window 0), cancellation
TAIL_MEASURES = ["aaa=1/2;A=1/2", "e=1/4;abA=1/4;B=1/2", "e=1", CANCELLING]


def _tail_measures(group):
    """APART_MEASURES and TAIL_MEASURES on `group`, then a measure with a
    nonzero deficit."""
    out = []
    for spec in APART_MEASURES + TAIL_MEASURES:
        try:
            out.append(parse_measure_spec(group, spec))
        except DomainError:
            pass
    out.append(FiniteMeasure(group=group, weights={(1,): 3, (-1, -1): 2},
                             den=6, deficit=Fraction(1, 6), mode=MODE_EXACT))
    return out


@pytest.mark.parametrize("gid", sorted(APART_STEPS))
def test_free_drift_by_tail_states_equals_the_joint_law(gid, routes):
    """a_n of mu and of its adjoint by (length, tail) states, against the
    generic loop over the joint law: equal reports, value and error-bar
    types included. Only the simple random walk takes the radial law."""
    n_max = APART_STEPS[gid][0]
    measures = _tail_measures(group_from_id(gid))
    assert len(measures) >= 6
    for nu in measures + [adjoint(mu) for mu in measures]:
        routes.clear()
        report = drift_exact_partial(nu, free_norm, n_max)
        oracle = drift_exact_partial(nu, _generic(free_norm), n_max)
        route = "_radial" if freewalk.is_srw(nu) else "_tail"
        assert routes == [f"{route}_norm_sums", "_joint_norm_sums"]
        assert report == oracle
        assert report.certified_bound == oracle.certified_bound
        assert _types(report.a_values) == _types(oracle.a_values)
        assert _types(report.error_bars) == _types(oracle.error_bars)
    assert report.error_bars[0] == Fraction(1, 6) * 1 * 2   # the deficit
    # no atom at all: every step keeps the whole mass as deficit
    empty = finite_measure(group_from_id(gid), {}, deficit=1)
    rows = list(norm_sums(empty, free_norm, n_max))
    assert rows == list(norm_sums(empty, _generic(free_norm), n_max))


def _free_word(k, letters):
    """The reduced word of `letters` (signed 1..3), each folded into the
    first k letters."""
    return reduce_word([(1 if x > 0 else -1) * ((abs(x) - 1) % k + 1)
                        for x in letters])


_LETTERS = st.sampled_from([1, 2, 3, -1, -2, -3])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.tuples(st.lists(_LETTERS, max_size=3), st.integers(1, 9)),
                min_size=1, max_size=6),
       st.integers(0, 2), st.integers(1, 6))
def test_tail_states_equal_the_joint_law_on_random_measures(k, atoms, lost,
                                                            n_max):
    """Random exact measures on free:1..free:3 with 1-6 atoms of length
    0-3, some with a deficit: every (n, numerator, den, deficit) of the
    tail states is the joint law's, and mu and its adjoint agree. The
    simple random walk takes the radial law, whose numerators are reduced,
    so only its report is compared."""
    group = FreeGroup(k)
    total = sum(c for _, c in atoms) + lost
    weights = {}
    for letters, c in atoms:
        g = _free_word(k, letters)
        weights[g] = weights.get(g, 0) + Fraction(c, total)
    mu = finite_measure(group, weights, deficit=Fraction(lost, total))
    report = drift_exact_partial(mu, free_norm, n_max)
    assert report == drift_exact_partial(mu, _generic(free_norm), n_max)
    assert _types(report.error_bars) == [Fraction] * n_max
    if not freewalk.is_srw(mu):
        rows = list(norm_sums(mu, free_norm, n_max))
        assert rows == list(norm_sums(mu, _generic(free_norm), n_max))
        assert rows == list(norm_sums(adjoint(mu), free_norm, n_max))


def test_tail_atom_budget_names_the_group(monkeypatch):
    """The tail states keep the atom budget and its message. At n_max = 14
    the first steps' windows hold whole words, so the route stops where
    the joint law does; at n_max = 10 its largest law has 1041 states, and
    it finishes where the joint law stops."""
    monkeypatch.setattr(wordmetric, "DEFAULT_MAX_ATOMS", 2000)
    monkeypatch.setattr(wordmetric, "power_sequence",
                        functools.partial(power_sequence, max_atoms=2000))
    mu = parse_measure_spec(group_from_id("free:2"), CANCELLING)
    for norm_fn in (free_norm, _generic(free_norm)):
        with pytest.raises(ResourceLimitError) as info:
            drift_exact_partial(mu, norm_fn, 14)
        assert str(info.value) == ("convolution on free:2 exceeded 2000 "
                                   "atoms; completed n = 5")
    assert drift_exact_partial(mu, free_norm, 10).ns == list(range(1, 11))
    with pytest.raises(ResourceLimitError, match="completed n = 5$"):
        drift_exact_partial(mu, _generic(free_norm), 10)


def test_tail_states_are_fewer_than_the_joint_support(monkeypatch):
    """Regression guard, with no timing: at n_max = 10 the tail laws of
    CANCELLING equal the joint laws in size while the windows hold whole
    words (n <= 5), are smaller from there on, and at n = 10 (window 0)
    keep only the lengths."""
    sizes = []

    def spy(*args, **kwargs):
        law = convolve(*args, **kwargs)
        sizes.append(len(law))
        return law
    monkeypatch.setattr(wordmetric, "convolve", spy)
    mu = parse_measure_spec(group_from_id("free:2"), CANCELLING)
    list(norm_sums(mu, free_norm, 10))
    joint = [len(law) for _, law in
             power_sequence(freewalk._letters_apart(mu), 10)]
    assert sizes[:5] == joint[:5]
    assert all(t < j for t, j in zip(sizes[5:], joint[5:]))
    assert sizes[-1] <= 21 < joint[-1]


# -- entropy on int images (drift._entropy_image) -----------------------------

# H_n steps per group, and measures with negative coordinates and lamps on
# both sides of 0; the second and third of each have an atom at e
IMAGE_MEASURES = {
    "zd:1": (12, ["srw", "2=1/3;-1=1/6;0=1/2", "e=1/4;-3=1/4;5=1/2"]),
    "zd:2": (7, ["srw", "1,0=1/3;-1,1=1/6;0,0=1/2",
                 "0,0=1/4;-2,3=1/4;1,-1=1/2"]),
    "zd:3": (5, ["srw", "0,0,0=1/5;1,-2,0=2/5;-1,1,3=2/5",
                 "e=1/3;-1,0,-2=1/3;2,1,-1=1/3"]),
    "lamplighter": (7, ["srw", "{-1,2}|-1=1/3;{0}|2=1/6;e=1/2",
                        "e=1/4;{-2}|-2=1/2;{1,3}|1=1/4"]),
}


@pytest.mark.parametrize("gid", sorted(IMAGE_MEASURES))
@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_FLOAT])
@pytest.mark.parametrize("threshold", [0, Fraction(1, 100)])
def test_entropy_images_give_the_tuple_chain(gid, mode, threshold):
    """entropy_partial on packed ints (zd) and lamp bitmasks (lamplighter)
    equals the chain on the tuples, bit for bit in float64."""
    group = group_from_id(gid)
    n_max, specs = IMAGE_MEASURES[gid]
    if mode == MODE_FLOAT:
        threshold = float(threshold)
    deficits = []
    for spec in specs:
        mu = parse_measure_spec(group, spec, mode=mode)
        report = entropy_partial(mu, n_max, threshold)
        assert report == entropy_on_elements(mu, n_max, threshold)
        deficits += report.error_bars
    assert any(deficits) == bool(threshold)


@pytest.mark.parametrize("n_max", [1, 4])
def test_entropy_of_the_point_mass_on_zd2(n_max):
    """The point mass at e has M = 0, which the floor M >= 1 lifts to B =
    2 n_max + 1, the base that packs a measure with M = 1."""
    mu = dirac(group_from_id("zd:2"))
    report = entropy_partial(mu, n_max)
    assert report == entropy_on_elements(mu, n_max)
    assert report.h_values == [0.0] * n_max
    image = drift._entropy_image(parse_measure_spec(
        group_from_id("zd:2"), "0,0=1/2;1,0=1/4;0,1=1/4"), n_max)
    assert list(image.weights) == [0, 1, 2 * n_max + 1]


def test_lamp_bitmasks_reach_bit_0_and_drop_no_lamp():
    """A walk that steps left and lights the lamp behind it on every step
    puts a lamp at -n_max M, bit 0 of the image; right shifts as deep as
    (n_max - 1) M keep every lamp."""
    n_max = 9
    group = group_from_id("lamplighter")
    mu = parse_measure_spec(group, "{-2}|-2=1/2;{1,2}|1=1/4;e=1/4")
    image = drift._entropy_image(mu, n_max)
    off = 2 * n_max
    assert list(image.weights) == [(1 << (off - 2), -2),
                                   (0b11 << (off + 1), 1), (0, 0)]
    last = power(image, n_max)
    # lamps -2, -4, ..., -2 n_max at bits off - 2, ..., 2, 0
    assert (sum(1 << (2 * i) for i in range(n_max)), -off) in last.weights
    plain = power(mu, n_max)
    assert sorted(last.weights.values()) == sorted(plain.weights.values())
    for threshold in (0, Fraction(1, 1000)):
        assert entropy_partial(mu, n_max, threshold) == \
            entropy_on_elements(mu, n_max, threshold)


def test_each_group_has_its_entropy_image():
    """One dispatch: moved letters on free groups, one int per element on
    zd (its line named after the group), lamp bitmasks on the
    lamplighter, and heisenberg's own tuples."""
    z3, lamp = group_from_id("zd:3"), group_from_id("lamplighter")
    image = drift._entropy_image(srw(z3), 2)
    assert image.group.id_string == "zd:3"
    assert list(image.weights) == [1, -1, 5, -5, 25, -25]
    assert drift._entropy_image(srw(lamp), 3).weights == {
        (0, 1): 1, (0, -1): 1, (8, 0): 1}
    heis = srw(group_from_id("heisenberg"))
    assert drift._entropy_image(heis, 3) is heis
    f2 = srw(FreeGroup(2))
    assert drift._entropy_image(f2, 3).weights == \
        freewalk._letters_apart(f2).weights


@pytest.mark.parametrize("gid,max_atoms,completed", [
    ("zd:3", 30, 2), ("zd:3", 100, 4), ("lamplighter", 10, 2),
    ("lamplighter", 60, 5),
])
def test_entropy_atom_budget_reads_as_on_tuples(monkeypatch, gid,
                                                max_atoms, completed):
    """The image chains name the group, not the image, in the budget
    message, at the same completed n as the chain on the tuples."""
    monkeypatch.setattr(drift, "power_sequence",
                        functools.partial(power_sequence,
                                          max_atoms=max_atoms))
    mu = srw(group_from_id(gid))
    with pytest.raises(ResourceLimitError) as image:
        entropy_partial(mu, 8)
    with pytest.raises(ResourceLimitError) as tuples:
        entropy_on_elements(mu, 8, max_atoms=max_atoms)
    assert str(image.value) == str(tuples.value) == (
        f"convolution on {gid} exceeded {max_atoms} atoms; "
        f"completed n = {completed}")


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
