"""Ball tables, BFS norms, closed forms, semi-norm axioms, serialization."""

import pytest

from groupwalk.errors import DomainError, OutOfRangeError, ResourceLimitError
from groupwalk.groups import (FreeAbelian, FreeGroup, Heisenberg, Lamplighter,
                              group_from_id)
from groupwalk.wordmetric import (ball_from_text, ball_to_text,
                                  build_ball, check_seminorm,
                                  check_value_seminorm, free_norm,
                                  l1_norm, lamplighter_norm, norm_evaluator,
                                  word_norm)


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
    sizes = table.sphere_sizes()
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


def test_hash_equality_coherence_on_balls():
    for group in (FreeGroup(2), FreeAbelian(2), Lamplighter()):
        table = build_ball(group, 4)
        elems = list(table.norms)
        assert len(set(elems)) == len(elems)
        assert len({hash(g) for g in elems}) <= len(elems)  # no crash
        for g in elems:
            assert group.canonical(g) == g


@pytest.mark.parametrize("group,radius", [
    (FreeGroup(2), 4), (FreeAbelian(3), 3), (Heisenberg(), 5),
    (Lamplighter(), 4),
])
def test_seminorm_axioms_on_balls(group, radius):
    table = build_ball(group, radius)
    report = check_seminorm(table)
    assert report.ok
    assert report.pairs_checked > 0
    assert report == check_value_seminorm(group, table.norms)


def test_norm_evaluator_dispatch():
    assert norm_evaluator(FreeGroup(2))((1, -2, 1)) == 3
    assert norm_evaluator(FreeAbelian(2))((3, -4)) == 7
    assert norm_evaluator(Lamplighter())(((), 2)) == 2
    ball = build_ball(Heisenberg(), 3)
    assert norm_evaluator(Heisenberg(), ball=ball)((1, 0, 0)) == 1
    with pytest.raises(OutOfRangeError):
        norm_evaluator(Heisenberg(), ball=ball)((10, 10, 10))


def test_heisenberg_commutator_norm():
    # the commutator word x y x^-1 y^-1 is a geodesic for z: BFS is the
    # only norm source on this group
    h = Heisenberg()
    table = build_ball(h, 4)
    x, y = (1, 0, 0), (0, 1, 0)
    comm = h.mul(h.mul(x, y), h.mul(h.inv(x), h.inv(y)))
    assert comm == (0, 0, 1)
    assert word_norm(table, comm) == 4


def test_ball_serialization_roundtrip():
    for group in (FreeGroup(2), FreeAbelian(2), Lamplighter(), Heisenberg()):
        table = build_ball(group, 3)
        text = ball_to_text(table)
        back = ball_from_text(text)
        assert back.group == table.group
        assert back.radius == table.radius
        assert back.norms == table.norms
        assert ball_to_text(back) == text


@pytest.mark.parametrize("old,new", [
    ("radius 2\n", ""),
    ("radius 2\n", "radius two\n"),
    ("\t1\n", "\tone\n"),
    ("\t1\n", "\t9\n"),
    ("aB\t", "aQ\t"),
    ("# groupwalk-ball v1", "# groupwalk-ball vx"),
], ids=["missing-key", "bad-radius", "bad-norm", "norm-range", "bad-element",
        "bad-version"])
def test_ball_from_text_rejects_malformed(old, new):
    text = ball_to_text(build_ball(FreeGroup(2), 2))
    assert old in text
    with pytest.raises(DomainError):
        ball_from_text(text.replace(old, new, 1))


def test_ball_content_independent_of_build():
    a = build_ball(group_from_id("free:2"), 3)
    b = build_ball(group_from_id("free:2"), 3)
    assert a.norms == b.norms
    assert ball_to_text(a) == ball_to_text(b)
