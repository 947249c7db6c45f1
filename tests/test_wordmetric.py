"""Ball tables, BFS norms, closed forms, semi-norm axioms."""

from collections import Counter

import pytest

from groupwalk import wordmetric
from groupwalk.errors import DomainError, OutOfRangeError, ResourceLimitError
from groupwalk.groups import (FreeAbelian, FreeGroup, Heisenberg, Lamplighter,
                              group_from_id)
from groupwalk.wordmetric import (build_ball, check_value_seminorm,
                                  free_norm, heisenberg_norm, l1_norm,
                                  lamplighter_norm, norm_evaluator)
from references import word_norm


def test_free2_radius1_ball():
    table = build_ball(FreeGroup(2), 1)
    assert set(table.norms) == {(), (1,), (-1,), (2,), (-2,)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_free2_ball_size_closed_form(n):
    table = build_ball(FreeGroup(2), n)
    assert len(table) == 2 * 3 ** n - 1


@pytest.mark.parametrize("k", [2, 3])
def test_free_sphere_sizes(k):
    table = build_ball(FreeGroup(k), 4)
    sizes = Counter(table.norms.values())
    assert sorted(sizes) == list(range(5))
    assert sizes[0] == 1
    for n in range(1, 5):
        assert sizes[n] == 2 * k * (2 * k - 1) ** (n - 1)


def test_z2_radius2_count():
    table = build_ball(FreeAbelian(2), 2)
    assert len(table) == 13


def test_word_norm_examples():
    f2 = FreeGroup(2)
    table = build_ball(f2, 4)
    assert word_norm(table, f2.identity()) == 0
    assert word_norm(table, f2.parse_element("aBa")) == 3
    lam_table = build_ball(Lamplighter(), 2)
    assert word_norm(lam_table, ((0,), 0)) == 1


def test_word_norm_out_of_range():
    table = build_ball(FreeGroup(2), 2)
    with pytest.raises(OutOfRangeError):
        word_norm(table, (1, 1, 1))


def test_ball_budget_error_names_radius():
    with pytest.raises(ResourceLimitError) as err:
        build_ball(FreeGroup(2), 6, max_elements=100)
    assert "radius" in str(err.value)


def test_bfs_norm_symmetric_under_inverse():
    for group in (FreeGroup(2), Lamplighter(), Heisenberg()):
        table = build_ball(group, 5)
        for g, n in table.norms.items():
            assert table.norms[group.inv(g)] == n


def test_free_norm_is_word_length():
    table = build_ball(FreeGroup(2), 5)
    for g, n in table.norms.items():
        assert free_norm(g) == n


def test_l1_norm_matches_bfs():
    table = build_ball(FreeAbelian(3), 4)
    for g, n in table.norms.items():
        assert l1_norm(g) == n


def test_lamplighter_closed_form_examples():
    assert lamplighter_norm(((), 0)) == 0
    assert lamplighter_norm(((), 5)) == 5
    # two lamps at -1 and 2, walker back at 0: visit both and return
    assert lamplighter_norm(((-1, 2), 0)) == 8


def test_lamplighter_closed_form_equals_bfs_radius_12():
    table = build_ball(Lamplighter(), 12)
    for g, n in table.norms.items():
        assert lamplighter_norm(g) == n


@pytest.fixture(scope="module")
def heisenberg_ball_20():
    return build_ball(Heisenberg(), 20)


def test_heisenberg_closed_form_equals_bfs_radius_20(heisenberg_ball_20):
    table = heisenberg_ball_20
    assert len(table) == 68_079
    for g, n in table.norms.items():
        assert heisenberg_norm(g) == n


def test_heisenberg_closed_form_exceeds_20_outside_the_ball(
        heisenberg_ball_20):
    """On a box one past the ball's extent in every coordinate, each
    element the ball leaves out scores more than its radius."""
    table = heisenberg_ball_20
    xy = 1 + max(abs(c) for g in table.norms for c in g[:2])
    zs = 1 + max(abs(g[2]) for g in table.norms)
    outside = 0
    for x in range(-xy, xy + 1):
        for y in range(-xy, xy + 1):
            for z in range(-zs, zs + 1):
                if (x, y, z) not in table.norms:
                    outside += 1
                    assert heisenberg_norm((x, y, z)) > 20
    # the box holds the whole ball
    assert outside == (2 * xy + 1) ** 2 * (2 * zs + 1) - len(table)


def test_hash_equality_coherence_on_balls():
    for group in (FreeGroup(2), FreeAbelian(2), Lamplighter()):
        table = build_ball(group, 4)
        elems = list(table.norms)
        assert len(set(elems)) == len(elems)
        assert len({hash(g) for g in elems}) <= len(elems)  # no crash
        for g in elems:
            group.check_element(g)


@pytest.mark.parametrize("group,radius", [
    (FreeGroup(2), 4), (FreeAbelian(3), 3), (Heisenberg(), 5),
    (Lamplighter(), 4),
])
def test_seminorm_axioms_on_balls(group, radius):
    table = build_ball(group, radius)
    report = check_value_seminorm(table.group, table.norms)
    assert report.ok
    assert report.pairs_checked > 0


def test_seminorm_check_reads_bfs_norms_not_closed_forms(monkeypatch):
    """The semi-norm check of a ball reads its BFS table, so it stays an
    independent check of the closed forms: it needs no evaluator, and
    both norm tables pass it the same way."""
    table = build_ball(Heisenberg(), 5)
    monkeypatch.setattr(wordmetric, "_CLOSED_FORMS", {})
    with pytest.raises(DomainError):
        norm_evaluator(Heisenberg())
    report = check_value_seminorm(table.group, table.norms)
    assert report.ok
    closed = {g: heisenberg_norm(g) for g in table.norms}
    assert check_value_seminorm(Heisenberg(), closed) == report


def test_norm_evaluator_dispatch():
    assert norm_evaluator(FreeGroup(2))((1, -2, 1)) == 3
    assert norm_evaluator(FreeAbelian(2))((3, -4)) == 7
    assert norm_evaluator(Lamplighter())(((), 2)) == 2
    # total on heisenberg too: (10, 10, 10) lies outside the radius-3 ball,
    # where a ball lookup still fails
    assert norm_evaluator(Heisenberg()) is heisenberg_norm
    assert norm_evaluator(Heisenberg())((1, 0, 0)) == 1
    assert norm_evaluator(Heisenberg())((10, 10, 10)) == 20
    with pytest.raises(OutOfRangeError):
        word_norm(build_ball(Heisenberg(), 3), (10, 10, 10))


def test_heisenberg_commutator_norm():
    # the commutator word x y x^-1 y^-1 is a geodesic for z
    h = Heisenberg()
    table = build_ball(h, 4)
    x, y = (1, 0, 0), (0, 1, 0)
    comm = h.mul(h.mul(x, y), h.mul(h.inv(x), h.inv(y)))
    assert comm == (0, 0, 1)
    assert word_norm(table, comm) == heisenberg_norm(comm) == 4


def test_ball_content_independent_of_build():
    a = build_ball(group_from_id("free:2"), 3)
    b = build_ball(group_from_id("free:2"), 3)
    assert a.norms == b.norms
