"""Group arithmetic: canonical forms, axioms, oracles for each product."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupwalk.errors import DomainError
from groupwalk.groups import (FreeAbelian, FreeGroup, Heisenberg, Lamplighter,
                              group_from_id, reduce_word)
from groupwalk.wordmetric import build_ball

ALL_GROUPS = [FreeAbelian(1), FreeAbelian(3), FreeGroup(2), FreeGroup(3),
              Lamplighter(), Heisenberg()]


def random_element(group, rng, size=6):
    """Random product of `size` generators (canonical by construction)."""
    gens = group.generators()
    g = group.identity()
    for _ in range(int(rng.integers(0, size + 1))):
        g = group.mul(g, gens[int(rng.integers(len(gens)))])
    return g


# -- examples ------------------------------------------------------------------

def test_free_inverse_cancellation():
    f2 = FreeGroup(2)
    a = f2.parse_element("a")
    assert f2.mul(a, f2.inv(a)) == f2.identity()


def test_free_reduction_example():
    # ab * b^-1 a -> aa, reduced by hand
    f2 = FreeGroup(2)
    ab = f2.parse_element("ab")
    b1a = f2.parse_element("Ba")
    assert f2.mul(ab, b1a) == f2.parse_element("aa")


def test_heisenberg_product_matches_matrix_oracle():
    h = Heisenberg()
    rng = np.random.default_rng(11)

    def to_matrix(g):
        x, y, z = g
        return np.array([[1, x, z], [0, 1, y], [0, 0, 1]], dtype=object)

    assert h.mul((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    for _ in range(200):
        g = random_element(h, rng)
        k = random_element(h, rng)
        prod = h.mul(g, k)
        mat = to_matrix(g) @ to_matrix(k)
        assert to_matrix(prod).tolist() == mat.tolist()


def test_inv_examples():
    f2 = FreeGroup(2)
    assert f2.inv(f2.identity()) == f2.identity()
    assert f2.inv(f2.parse_element("ab")) == f2.parse_element("BA")
    lam = Lamplighter()
    g = ((0,), 1)
    assert lam.inv(g) == ((-1,), -1)
    assert lam.mul(g, lam.inv(g)) == lam.identity()


def test_lamplighter_switch_toggles_current_position():
    lam = Lamplighter()
    walk, switch = ((), 1), ((0,), 0)
    g = lam.mul(lam.mul(walk, switch), walk)   # step, switch, step
    assert g == ((1,), 2)


def test_parse_element_rejects_malformed_text():
    lam = Lamplighter()
    assert lam.parse_element("{2,1}|0") == ((1, 2), 0)
    for bad in ("{1,1}|0", "{3,1,3}|2"):   # repeated lamps
        with pytest.raises(DomainError):
            lam.parse_element(bad)
    for bad in ("\u00e9", "a\u00c9", "a1"):   # letters outside a..z/A..Z
        with pytest.raises(DomainError):
            FreeGroup(2).parse_element(bad)


def test_mixed_group_elements_rejected():
    f2 = FreeGroup(2)
    z3 = FreeAbelian(3)
    with pytest.raises(DomainError):
        f2.mul(f2.identity(), (1, 2, 3))
    with pytest.raises(DomainError):
        z3.mul((1, 2), (0, 0, 0))   # wrong length
    with pytest.raises(DomainError):
        f2.inv((1, 2, 3))
    with pytest.raises(DomainError):
        Heisenberg().inv((0, 0))
    with pytest.raises(DomainError):
        FreeGroup(2).check_element((3,))   # letter outside alphabet
    with pytest.raises(DomainError):
        FreeGroup(2).check_element((1, -1))   # not reduced


CHECK_FAILURES = [
    (FreeAbelian(2), (1,), "not a zd:2 element: (1,)"),
    (FreeAbelian(2), [1, 2], "not a zd:2 element: [1, 2]"),
    (FreeAbelian(2), (1, "x"), "not a zd:2 element: (1, 'x')"),
    (FreeGroup(2), [1], "not a free:2 element: [1]"),
    (FreeGroup(2), (3,), "letter 3 outside free:2 alphabet"),
    (FreeGroup(2), (0,), "letter 0 outside free:2 alphabet"),
    (FreeGroup(2), (1, 1.5), "letter 1.5 outside free:2 alphabet"),
    (FreeGroup(2), (1, 2, -2), "word (1, 2, -2) is not reduced"),
    (Lamplighter(), ((), 0, 1), "not a lamplighter element: ((), 0, 1)"),
    (Lamplighter(), ((2, 1), 0), "not a lamplighter element: ((2, 1), 0)"),
    (Lamplighter(), ((1,), "0"), "not a lamplighter element: ((1,), '0')"),
    (Heisenberg(), (1, 2), "not a heisenberg element: (1, 2)"),
    (Heisenberg(), [1, 2, 3], "not a heisenberg element: [1, 2, 3]"),
]


@pytest.mark.parametrize("group,bad,message", CHECK_FAILURES,
                         ids=lambda v: getattr(v, "id_string", None))
def test_check_element_failure_messages(group, bad, message):
    # messages are formatted only on failure; their text stays as it was
    with pytest.raises(DomainError) as info:
        group.check_element(bad)
    assert str(info.value) == message


def test_check_and_mul_are_each_classes_own_methods():
    # the benchmark tracer counts calls by patching them on each class
    for cls in (FreeAbelian, FreeGroup, Lamplighter, Heisenberg):
        assert "mul" in cls.__dict__ and "check_element" in cls.__dict__


# -- invariants ----------------------------------------------------------------

@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.id_string)
def test_associativity_identity_inverse(group):
    rng = np.random.default_rng(hash(group.id_string) % 2**32)
    e = group.identity()
    for _ in range(1000):
        g = random_element(group, rng)
        h = random_element(group, rng)
        f = random_element(group, rng)
        assert group.mul(group.mul(g, h), f) == group.mul(g, group.mul(h, f))
        assert group.mul(g, e) == g
        assert group.mul(e, g) == g
        assert group.mul(g, group.inv(g)) == e
    # the unchecked product of the inner loops agrees with the checked one
    ball = list(build_ball(group, 2).norms)
    for a in ball:
        for b in ball:
            assert group._mul(a, b) == group.mul(a, b)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.id_string)
def test_canonical_idempotent(group):
    rng = np.random.default_rng(7)
    for _ in range(200):
        g = random_element(group, rng)
        assert group.canonical(g) == g


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.id_string)
def test_generators_symmetric_without_identity(group):
    gens = group.generators()
    assert group.identity() not in gens
    assert {group.inv(s) for s in gens} == set(gens)


@pytest.mark.parametrize("group", ALL_GROUPS + [FreeGroup(5), FreeGroup(26)],
                         ids=lambda g: g.id_string)
def test_format_parse_roundtrip(group):
    rng = np.random.default_rng(23)
    for _ in range(200):
        g = random_element(group, rng)
        assert group.parse_element(group.format_element(g)) == g


@pytest.mark.parametrize("k", [2, 4, 5, 26])
def test_free_format_is_one_to_one_on_the_radius_2_ball(k):
    # from rank 5 on, "e" is the 5th letter and the identity prints as "1"
    group = FreeGroup(k)
    ball = list(build_ball(group, 2).norms)
    texts = [group.format_element(g) for g in ball]
    assert len(set(texts)) == len(ball)
    assert [group.parse_element(t) for t in texts] == ball
    assert group.format_element(()) == ("e" if k <= 4 else "1")
    assert group.parse_element("1") == ()
    assert group.parse_element("e") == (() if k <= 4 else (5,))


def test_group_from_id():
    assert group_from_id("zd:3") == FreeAbelian(3)
    assert group_from_id("free:2") == FreeGroup(2)
    assert group_from_id("lamplighter") == Lamplighter()
    assert group_from_id("heisenberg") == Heisenberg()
    with pytest.raises(DomainError):
        group_from_id("so:3")
    for bad in ("free:x", "zd:1.5"):
        with pytest.raises(DomainError):
            group_from_id(bad)


# -- hypothesis: free reduction against a fixpoint-scan oracle ------------------

letters = st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0)


def scan_reduce(word):
    """Oracle: repeatedly delete the first adjacent inverse pair."""
    word = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == -word[i + 1]:
                del word[i:i + 2]
                changed = True
                break
    return tuple(word)


@settings(max_examples=200)
@given(st.lists(letters, max_size=24))
def test_reduce_word_matches_scan_oracle(raw):
    assert reduce_word(raw) == scan_reduce(raw)


@settings(max_examples=200)
@given(st.lists(letters, max_size=16), st.lists(letters, max_size=16))
def test_free_mul_is_reduction_of_concatenation(u, v):
    f2 = FreeGroup(2)
    g, h = reduce_word(u), reduce_word(v)
    assert f2.mul(g, h) == scan_reduce(g + h)


@settings(max_examples=200)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
       st.lists(st.integers(-5, 5), min_size=2, max_size=2))
def test_abelian_commutes(u, v):
    z2 = FreeAbelian(2)
    g, h = tuple(u), tuple(v)
    assert z2.mul(g, h) == z2.mul(h, g)


# -- hypothesis: lamplighter law against a dense-configuration oracle -----------

lamp_sets = st.frozensets(st.integers(-6, 6), max_size=5)
positions = st.integers(-6, 6)


def oracle_lamp_mul(g, h):
    """Oracle: full boolean lamp maps, shifted and xor-ed explicitly."""
    (lamps_g, p), (lamps_h, q) = g, h
    state = {}
    for u in lamps_g:
        state[u] = not state.get(u, False)
    for u in lamps_h:
        state[u + p] = not state.get(u + p, False)
    on = tuple(sorted(u for u, lit in state.items() if lit))
    return (on, p + q)


@settings(max_examples=200)
@given(lamp_sets, positions, lamp_sets, positions)
def test_lamplighter_mul_matches_oracle(lg, pg, lh, ph):
    lam = Lamplighter()
    g = (tuple(sorted(lg)), pg)
    h = (tuple(sorted(lh)), ph)
    assert lam.mul(g, h) == oracle_lamp_mul(g, h)
    assert lam.mul(g, lam.inv(g)) == lam.identity()
    assert lam.mul(lam.inv(g), g) == lam.identity()
