"""Finite G-spaces: parsing, stationarity, the invariance identity, diagonal
products, factor maps, moment tensors.

Oracle for stationarity-implies-constancy on transitive spaces: direct
eigenvector computation of the transfer matrix at eigenvalue 1.
"""

import numpy as np
import pytest

from groupwalk import gspaces
from groupwalk.errors import (DomainError, PreconditionError,
                              ResourceLimitError)


def stationary_uniform(space):
    return gspaces.solve_stationary(space).nu


# -- parsing -------------------------------------------------------------------

def test_cycle_notation_roundtrip():
    perm = gspaces.parse_cycles("(0 1 2)(3 4)", 6)
    assert perm == (1, 2, 0, 4, 3, 5)
    assert gspaces.parse_cycles(gspaces.format_cycles(perm), 6) == perm
    assert gspaces.parse_cycles("()", 3) == (0, 1, 2)


def test_parse_gspace_text():
    text = """
    # flip and rotation on six points
    size 6
    gen t (0 1 2 3 4 5)
    gen s (0 3)(1 4)(2 5)
    relator t s t^-1 s^-1
    """
    space = gspaces.parse_gspace(text)
    assert space.size == 6
    assert space.labels() == ["s", "t"]
    back = gspaces.parse_gspace(gspaces.format_gspace(space))
    assert back == space


def test_relator_validation_fails_loudly():
    text = "size 3\ngen a (0 1)\ngen b (1 2)\nrelator a b a^-1 b^-1\n"
    with pytest.raises(DomainError):
        gspaces.parse_gspace(text)


def test_non_permutation_rejected():
    with pytest.raises(DomainError):
        gspaces.FiniteGSpace(size=3, gens={"a": (0, 0, 1)})


def test_word_permutation_composition_order():
    space = gspaces.parse_gspace("size 3\ngen a (0 1 2)\ngen b (0 1)\n")
    ab = space.word_permutation(["a", "b"])
    # (a b).x = a.(b.x)
    manual = tuple(space.gens["a"][space.gens["b"][x]] for x in range(3))
    assert ab == manual
    inv = space.word_permutation(["a", "a^-1"])
    assert inv == (0, 1, 2)


def test_word_permutation_runs_match_token_by_token():
    """Runs of one token are applied as powers; the result must equal the
    composition one token at a time."""
    space = gspaces.parse_gspace(
        "size 7\ngen a (0 1 2)(3 4)\ngen b (0 6 5)\n")
    rng = np.random.default_rng(5)
    tokens = ("a", "b", "a^-1", "b^-1")
    for _ in range(200):
        word = [tokens[i] for i in rng.integers(0, 4, rng.integers(0, 12))]
        word += ["a"] * int(rng.integers(0, 9))
        perm = tuple(range(7))
        for token in reversed(word):
            step = space.permutation(token)
            perm = tuple(step[p] for p in perm)
        assert space.word_permutation(word) == perm
    # the order-n relator of the largest cycle preset validates in O(n)
    assert gspaces.cycle_space(gspaces.MAX_POINTS).size == gspaces.MAX_POINTS


def test_point_budget(monkeypatch):
    over = gspaces.MAX_POINTS + 1
    with pytest.raises(ResourceLimitError, match=str(gspaces.MAX_POINTS)):
        gspaces.parse_gspace(f"size {over}\ngen t (0 1)\n")
    with pytest.raises(ResourceLimitError):
        gspaces.parse_gspace(f"size {10 ** 100}\n")   # before any gen line
    for preset in (gspaces.cycle_space, gspaces.trivial_space):
        with pytest.raises(ResourceLimitError):
            preset(over)
    monkeypatch.setattr(gspaces, "MAX_POINTS", 6)
    assert gspaces.product_space(gspaces.cycle_space(2),
                                 gspaces.cycle_space(3)).size == 6
    with pytest.raises(ResourceLimitError, match="product space of 9"):
        gspaces.product_space(gspaces.cycle_space(3), gspaces.cycle_space(3))


# -- stationary measures --------------------------------------------------------

def test_transitive_space_uniform_stationary():
    space = gspaces.cycle_space(7)
    result = gspaces.solve_stationary(space)
    assert np.allclose(result.nu, 1 / 7)
    assert result.residual <= 1e-12
    assert result.orbit_decomposition == [list(range(7))]
    # oracle: eigenvector of the transfer matrix at eigenvalue 1
    P = np.zeros((7, 7))
    perm = space.gens["t"]
    for i in range(7):
        P[perm[i], i] = 1.0
    w, v = np.linalg.eig(P)
    idx = np.argmin(np.abs(w - 1))
    vec = np.real(v[:, idx])
    vec /= vec.sum()
    assert np.allclose(vec, result.nu, atol=1e-10)


def test_trivial_action_keeps_uniform_start():
    result = gspaces.solve_stationary(gspaces.trivial_space(4))
    assert np.allclose(result.nu, 0.25)
    assert result.iterations == 0


def test_two_orbit_space_weights():
    result = gspaces.solve_stationary(gspaces.two_orbit_space())
    assert np.allclose(result.nu, 0.2)
    assert result.orbit_decomposition == [[0, 1], [2, 3, 4]]


def test_periodic_chain_converges_via_lazy_iteration():
    space = gspaces.cycle_space(2)
    start = np.array([0.9, 0.1])
    result = gspaces.solve_stationary(space, start=start)
    assert np.allclose(result.nu, 0.5, atol=1e-10)
    assert result.residual <= 1e-12


def test_stationary_measures_are_invariant():
    for space in (gspaces.cycle_space(5), gspaces.two_orbit_space()):
        nu = stationary_uniform(space)
        assert gspaces.is_invariant_measure(space, nu)


# -- the invariance identity -----------------------------------------------------

def test_statinv_constant_function():
    space = gspaces.cycle_space(6)
    nu = stationary_uniform(space)
    report = gspaces.check_statinv(space, nu, "uniform",
                                   np.full(6, 0.37), k_max=4)
    assert max(report.identity_residuals) <= 1e-10
    assert max(report.vanishing) <= 1e-10
    assert report.is_invariant


def test_statinv_transitive_harmonic_must_be_constant():
    # oracle: on a transitive space the eigenspace of P at 1 is spanned by
    # the constants, so any harmonic f the checker accepts is constant
    space = gspaces.cycle_space(5)
    nu = stationary_uniform(space)
    f = np.full(5, 1.23)
    report = gspaces.check_statinv(space, nu, "uniform", f)
    assert report.is_invariant
    with pytest.raises(PreconditionError):
        gspaces.check_statinv(space, nu, "uniform",
                              np.array([1.0, 0, 0, 0, 0]))


def test_statinv_orbit_indicator():
    space = gspaces.two_orbit_space()
    nu = stationary_uniform(space)
    f = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    report = gspaces.check_statinv(space, nu, "uniform", f, k_max=4)
    assert max(report.identity_residuals) <= 1e-10
    assert max(report.vanishing) <= 1e-10
    assert report.is_invariant      # invariant yet non-constant: two orbits


def test_statinv_randomized_spaces():
    rng = np.random.default_rng(2024)
    for seed in range(20):
        n = int(rng.integers(4, 12))
        perm_a = tuple(int(x) for x in rng.permutation(n))
        perm_b = tuple(int(x) for x in rng.permutation(n))
        space = gspaces.FiniteGSpace(size=n, gens={"a": perm_a, "b": perm_b})
        nu = stationary_uniform(space)
        # random orbit-constant function: harmonic by construction
        f = np.empty(n)
        for orbit in gspaces.orbits(space):
            f[orbit] = rng.normal()
        report = gspaces.check_statinv(space, nu, "uniform", f, k_max=4)
        assert max(report.identity_residuals) <= 1e-10
        assert max(report.vanishing) <= 1e-10
        assert report.is_invariant


# -- diagonal products -----------------------------------------------------------

def test_product_with_point_is_ergodic_iff_factor_is():
    x = gspaces.cycle_space(4)
    point = gspaces.trivial_space(1)
    res = gspaces.diagonal_ergodicity(x, stationary_uniform(x),
                                      point, np.array([1.0]))
    assert res.ergodic


def test_flip_times_flip_not_ergodic():
    flip = gspaces.cycle_space(2)
    nu = stationary_uniform(flip)
    res = gspaces.diagonal_ergodicity(flip, nu, flip, nu)
    assert not res.ergodic
    assert res.orbit_count == 2
    w = res.witness
    assert w is not None
    # witness is the parity orbit indicator: constant on x XOR y
    assert w[0, 0] == w[1, 1] != w[0, 1] == w[1, 0]


def test_flip_times_rotation_ergodic():
    flip = gspaces.cycle_space(2)
    rot = gspaces.cycle_space(3)
    res = gspaces.diagonal_ergodicity(flip, stationary_uniform(flip),
                                      rot, stationary_uniform(rot))
    assert res.ergodic
    assert res.orbit_count == 1


def test_product_requires_matching_labels():
    with pytest.raises(DomainError):
        gspaces.product_space(gspaces.cycle_space(2, "t"),
                              gspaces.cycle_space(3, "u"))


# -- factor maps -----------------------------------------------------------------

def test_factor_map_zero_function_degenerate():
    flip = gspaces.cycle_space(2)
    nu = stationary_uniform(flip)
    fm = gspaces.factor_map(np.zeros((2, 2)), flip, nu, flip, nu)
    assert fm.f2_essentially_constant
    assert fm.f2_constant_value == 0
    assert fm.dichotomy_holds
    assert fm.lambda_residual == 0


def test_factor_map_parity_example():
    flip = gspaces.cycle_space(2)
    nu = stationary_uniform(flip)
    f = np.array([[1.0, -1.0], [-1.0, 1.0]])   # (-1)^(x+y)
    fm = gspaces.factor_map(f, flip, nu, flip, nu)
    assert np.allclose(fm.f2, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert not fm.f2_essentially_constant
    assert fm.dichotomy_holds
    assert fm.mean_zero_residual <= 1e-12
    assert fm.lambda_residual <= 1e-12          # Lambda vanishes a.e.
    assert len(fm.pushforward) == 2


def test_factor_map_preconditions():
    flip = gspaces.cycle_space(2)
    nu = stationary_uniform(flip)
    with pytest.raises(PreconditionError):
        gspaces.factor_map(np.array([[2.0, -2.0], [-2.0, 2.0]]),
                           flip, nu, flip, nu)    # sup too big
    with pytest.raises(PreconditionError):
        gspaces.factor_map(np.array([[1.0, 0.0], [0.0, -1.0]]),
                           flip, nu, flip, nu)    # not invariant
    with pytest.raises(PreconditionError):
        gspaces.factor_map(np.array([[1.0, 1.0], [1.0, 1.0]]),
                           flip, nu, flip, nu)    # mean not zero


def test_factor_map_dichotomy_randomized():
    # non-ergodic products of two cycles sharing a factor: every nonzero
    # invariant zero-mean function must have non-constant correlation
    rng = np.random.default_rng(7)
    cases = 0
    while cases < 20:
        g = int(rng.integers(2, 5))
        a, b = g * int(rng.integers(1, 4)), g * int(rng.integers(1, 4))
        x, y = gspaces.cycle_space(a), gspaces.cycle_space(b)
        nu_x, nu_y = stationary_uniform(x), stationary_uniform(y)
        res = gspaces.diagonal_ergodicity(x, nu_x, y, nu_y)
        if res.ergodic:
            continue
        # random invariant function: depends on (i - j) mod gcd
        import math
        gg = math.gcd(a, b)
        vals = rng.normal(size=gg)
        f = np.empty((a, b))
        for i in range(a):
            for j in range(b):
                f[i, j] = vals[(i - j) % gg]
        f -= f.mean()
        if np.abs(f).max() <= 1e-12:
            continue
        f /= np.abs(f).max()
        fm = gspaces.factor_map(f, x, nu_x, y, nu_y)
        assert fm.dichotomy_holds
        assert not fm.f2_essentially_constant
        assert fm.lambda_residual <= 1e-10
        cases += 1


# -- isometric witnesses ----------------------------------------------------------

def test_witness_for_flip_square():
    flip = gspaces.cycle_space(2)
    nu = stationary_uniform(flip)
    w = gspaces.isometric_factor_witness(flip, nu, flip, nu)
    assert w is not None
    assert len(w.vectors) == 2
    v0, v1 = np.array(w.vectors[0]), np.array(w.vectors[1])
    assert np.allclose(v0, -v1)                 # image is {+v, -v}
    assert w.actions["t"] == (1, 0)             # generator swaps them
    assert w.gram_preserved


def test_witness_empty_for_ergodic_product():
    flip = gspaces.cycle_space(2)
    rot = gspaces.cycle_space(3)
    assert gspaces.isometric_factor_witness(
        flip, stationary_uniform(flip), rot, stationary_uniform(rot)) is None


def test_witness_rot4_times_flip():
    rot4 = gspaces.cycle_space(4)
    flip = gspaces.cycle_space(2)
    w = gspaces.isometric_factor_witness(rot4, stationary_uniform(rot4),
                                         flip, stationary_uniform(flip))
    assert w is not None
    assert len(w.vectors) == 2                  # two-point isometric factor
    assert w.gram_preserved


# -- moment tensors ---------------------------------------------------------------

def plane_orbit(order):
    rep = gspaces.rotation_rep(order)
    mat = rep.gens["t"]
    v = np.array([1.0, 0.0])
    atoms = []
    for _ in range(order):
        atoms.append((v.copy(), 1.0 / order))
        v = mat @ v
    return rep, atoms


@pytest.mark.parametrize("order", [3, 4])
def test_moment_tensors_rotation_orbits(order):
    rep, atoms = plane_orbit(order)
    report = gspaces.moment_tensor_invariance(rep, atoms, {"t": 1.0}, k_max=3)
    assert report.stationarity_residual <= 1e-10
    assert np.abs(report.tensors[0]).max() <= 1e-12          # sigma_1 = 0
    assert np.allclose(report.tensors[1], 0.5 * np.eye(2))   # sigma_2
    assert max(report.mixture_residuals) <= 1e-10
    assert max(report.generator_residuals) <= 1e-10
    assert report.invariant


def test_moment_tensor_fixed_vector_trivial():
    rep = gspaces.OrthogonalRep(dim=2, gens={"t": np.eye(2)})
    fixed = [(np.array([0.6, 0.0]), 1.0)]
    report = gspaces.moment_tensor_invariance(rep, fixed, {"t": 1.0}, k_max=2)
    assert report.invariant
    assert max(report.generator_residuals) == 0


def test_moment_tensor_rejects_nonstationary():
    rep, atoms = plane_orbit(4)
    lopsided = [(v, (0.4 if i == 0 else 0.2)) for i, (v, _) in enumerate(atoms)]
    with pytest.raises(PreconditionError):
        gspaces.moment_tensor_invariance(rep, lopsided, {"t": 1.0})


def test_moment_tensor_rejects_outside_ball():
    rep = gspaces.rotation_rep(4)
    with pytest.raises(PreconditionError):
        gspaces.moment_tensor_invariance(rep, [(np.array([2.0, 0.0]), 1.0)],
                                         {"t": 1.0})


def test_orthogonal_rep_validation():
    with pytest.raises(DomainError):
        gspaces.OrthogonalRep(dim=2, gens={"t": np.array([[1.0, 1.0],
                                                          [0.0, 1.0]])})
    with pytest.raises(DomainError):
        gspaces.OrthogonalRep(dim=2, gens={"t": np.eye(2)},
                              relators=(("t", "missing"),))
