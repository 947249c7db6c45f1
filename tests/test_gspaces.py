"""Finite G-spaces: parsing, stationarity, the invariance identity (by the
reference check of ``references.check_statinv``), diagonal products and
factor maps.

Oracles: for stationarity-implies-constancy on transitive spaces, direct
eigenvector computation of the transfer matrix at eigenvalue 1; for the
closed-form stationary measure, the lazy power iteration it replaced
(`old_solve_stationary`) and a breadth-first orbit search; for factor maps
and isometric witnesses on distinct rows, the full-matrix formulas they
replaced (`old_factor_map`, `old_isometric_factor_witness`).
"""

import tracemalloc

import numpy as np
import pytest

from groupwalk import gspaces
from groupwalk.errors import (DomainError, PreconditionError,
                              ResourceLimitError)
from references import check_statinv


def stationary_uniform(space):
    return gspaces.solve_stationary(space).nu


def old_solve_stationary(space, mu_spec, start, max_iterations=100_000):
    """The lazy power iteration nu <- (nu + mu * nu) / 2 from `start`,
    stopped at an l1 residual of 1e-12."""
    atoms = gspaces.parse_word_measure(space, mu_spec)
    nu = np.array(start, dtype=float)
    for _ in range(max_iterations):
        pushed = np.zeros_like(nu)
        for _, perm, w in atoms:
            moved = np.empty_like(nu)
            moved[list(perm)] = nu
            pushed += w * moved
        if np.abs(pushed - nu).sum() <= 1e-12:
            return nu
        nu = 0.5 * (nu + pushed)
    raise AssertionError("reference iteration did not converge")


def bfs_orbits(size, perms):
    """Orbits of the group the permutations generate, by search."""
    seen, out = set(), []
    for first in range(size):
        if first in seen:
            continue
        orbit, frontier = {first}, [first]
        while frontier:
            x = frontier.pop()
            for perm in perms:
                inverse = perm.index(x)
                for y in (perm[x], inverse):
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
        seen |= orbit
        out.append(sorted(orbit))
    return out


def old_factor_map(f, space_x, nu_x, space_y, eta):
    """factor_map's outputs by the formulas it used before it worked on
    distinct rows: the invariance defect on the flattened diagonal product,
    the full |X| x |X| eta-gram through np.diag, and each row rounded on its
    own. Returns the fields as a dict."""
    prod = gspaces.product_space(space_x, space_y)
    mass = np.kron(nu_x, eta)
    flat = f.reshape(-1)
    defect = max(float(np.abs((flat[np.array(perm)] - flat)[mass > 0]).max())
                 for perm in prod.gens.values())
    assert defect <= gspaces.COMPOSED_TOL
    f2 = f @ np.diag(eta) @ f.T
    support_x = nu_x > 0
    vals = f2[np.ix_(support_x, support_x)]
    constant = float(vals.max() - vals.min()) <= gspaces.COMPOSED_TOL
    f_vanishes = (float(np.abs(f[support_x][:, eta > 0]).max())
                  <= gspaces.COMPOSED_TOL)
    weights = {}
    for x, row in enumerate(f):
        key = tuple(np.round(row, 12))
        weights[key] = weights.get(key, 0) + nu_x[x]
    return {"pushforward": sorted((k, w) for k, w in weights.items() if w > 0),
            "f2": f2, "f2_essentially_constant": constant,
            "f2_constant_value": float(vals.mean()) if constant else None,
            "dichotomy_holds": f_vanishes or not constant,
            "mean_zero_residual": float(np.abs(f @ eta)[nu_x > 0].max()),
            "lambda_residual": float(np.abs(nu_x @ f)[eta > 0].max())}


def old_isometric_factor_witness(space_x, nu_x, space_y, nu_y):
    """isometric_factor_witness by its former formulas: rows rounded again
    for every generator and point, and the gram through np.diag. Returns
    (vectors, weights, actions, gram, gram_preserved) or None."""
    result = gspaces.diagonal_ergodicity(space_x, nu_x, space_y, nu_y)
    if result.ergodic:
        return None
    raw = result.witness
    f0 = raw - float((np.outer(nu_x, nu_y) * raw).sum())
    peak = np.abs(f0).max()
    if peak <= gspaces.COMPOSED_TOL:
        return None
    f = f0 / peak
    pushforward = old_factor_map(f, space_x, nu_x, space_y, nu_y)["pushforward"]
    vectors = [key for key, _ in pushforward]
    index = {v: i for i, v in enumerate(vectors)}
    actions = {}
    for label in space_x.labels():
        perm_x = space_x.gens[label]
        mapping = [None] * len(vectors)
        for x in range(space_x.size):
            if nu_x[x] > 0:
                src = index[tuple(np.round(f[x], 12))]
                mapping[src] = index[tuple(np.round(f[perm_x[x]], 12))]
        actions[label] = tuple(mapping)
    arr = np.array(vectors)
    gram = arr @ np.diag(nu_y) @ arr.T
    preserved = all(
        np.abs(gram[np.ix_(perm, perm)] - gram).max() <= gspaces.COMPOSED_TOL
        for perm in map(np.array, actions.values()))
    return vectors, [w for _, w in pushforward], actions, gram, preserved


def random_transitive_space(rng, size):
    """Two random generators "a" and "b" on `size` points, drawn again
    until they act transitively."""
    while True:
        space = gspaces.FiniteGSpace(size=size, gens={
            label: tuple(int(x) for x in rng.permutation(size))
            for label in "ab"})
        if len(gspaces.orbits(space)) == 1:
            return space


def rotations(size, step):
    """Z acting on Z/size through "a" = +1 and "b" = +step: transitive, and
    the diagonal product of two such spaces whose sizes share a factor is
    not ergodic."""
    return gspaces.FiniteGSpace(size=size, gens={
        label: tuple((i + d) % size for i in range(size))
        for label, d in (("a", 1), ("b", step))})


def relabelled(space, rng):
    """A copy of `space` with its points renamed by a random bijection, so
    that its diagonal product with `space` is not ergodic."""
    sigma = rng.permutation(space.size)
    gens = {}
    for label, perm in space.gens.items():
        image = [0] * space.size
        for i, j in enumerate(perm):
            image[sigma[i]] = int(sigma[j])
        gens[label] = tuple(image)
    return gspaces.FiniteGSpace(size=space.size, gens=gens)


# -- parsing -------------------------------------------------------------------

def test_cycle_notation_roundtrip():
    perm = gspaces.parse_cycles("(0 1 2)(3 4)", 6)
    assert perm == (1, 2, 0, 4, 3, 5)
    # the same cycles from other starting points, with a fixed point named
    assert gspaces.parse_cycles("(2 0 1)(4 3)(5)", 6) == perm
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
    # the labels sorted, each cycle from its smallest point
    back = gspaces.parse_gspace("size 6\ngen s (0 3)(1 4)(2 5)\n"
                                "gen t (0 1 2 3 4 5)\n"
                                "relator t s t^-1 s^-1\n")
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


def test_generator_tokens_invert_and_reject_unknown_labels():
    space = gspaces.parse_gspace("size 5\ngen a (0 1 2)(3 4)\n")
    inverse = space.permutation("a^-1")
    assert inverse == (2, 0, 1, 4, 3)
    assert tuple(inverse[p] for p in space.permutation("a")) == tuple(range(5))
    for token in ("b", "b^-1"):
        with pytest.raises(DomainError, match="unknown generator 'b'"):
            space.permutation(token)


@pytest.mark.parametrize("label", ["", "t s", "t\t", " t", "t^-1", "^-1"],
                         ids=["empty", "inner-space", "trailing-tab",
                              "leading-space", "inverse", "bare-inverse"])
def test_labels_that_read_as_other_tokens_are_rejected(label):
    with pytest.raises(DomainError, match="bad generator label"):
        gspaces.FiniteGSpace(size=3, gens={label: (1, 2, 0)})


def test_parse_gspace_rejects_inverse_label_and_second_size():
    # t^-1 would otherwise act as the inverse of t, not as its own cycles
    with pytest.raises(DomainError, match="bad generator label 't\\^-1'"):
        gspaces.parse_gspace("size 3\ngen t (0 1 2)\ngen t^-1 (0 1)\n")
    with pytest.raises(DomainError, match="duplicate size line"):
        gspaces.parse_gspace("size 3\ngen t (0 1 2)\nsize 4\n")


def test_word_measure_rejects_duplicate_atoms():
    space = gspaces.cycle_space(3)
    for spec in ("t=1;t=1", "t=1/2;t=1/2", "t t=1/2; t  t=1/2",
                 {"t t": 0.5, ("t", "t"): 0.5}):
        with pytest.raises(DomainError, match="duplicate atom"):
            gspaces.parse_word_measure(space, spec)
    atoms = gspaces.parse_word_measure(space, "t=1/3; t^-1 t^-1=2/3")
    assert [(tokens, weight) for tokens, _, weight in atoms] == [
        (("t",), 1 / 3), (("t^-1", "t^-1"), 2 / 3)]
    assert atoms[0][1] == atoms[1][1] == (1, 2, 0)


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
    # factor_map checks the product's budget without building it
    c3 = gspaces.cycle_space(3)
    nu = np.full(3, 1 / 3)
    with pytest.raises(ResourceLimitError, match="product space of 9"):
        gspaces.factor_map(np.zeros((3, 3)), c3, nu, c3, nu)


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


@pytest.mark.parametrize("size, mass", [(2, [0.9, 0.1]), (200, [1.0])])
def test_start_spreads_evenly_over_its_orbit(size, mass):
    """A periodic chain, and a point mass on a long cycle, whose lazy walk
    needs more than 100,000 steps to a residual of 1e-12."""
    start = np.zeros(size)
    start[:len(mass)] = mass
    result = gspaces.solve_stationary(gspaces.cycle_space(size), start=start)
    assert np.allclose(result.nu, 1 / size, rtol=0, atol=1e-15)
    assert result.residual <= 1e-12
    assert result.iterations == 0


def test_closed_form_matches_lazy_iteration():
    """Random small spaces, word measures (some supported on the words of
    one generator, so not generating) and starts."""
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        gens = {label: tuple(int(x) for x in rng.permutation(n))
                for label in ("a", "b")}
        space = gspaces.FiniteGSpace(size=n, gens=gens)
        tokens = ["a", "a^-1"] if rng.random() < 0.4 else \
            ["a", "a^-1", "b", "b^-1"]
        spec = {}
        for _ in range(int(rng.integers(1, 4))):
            word = " ".join(rng.choice(tokens, int(rng.integers(0, 4))))
            spec[word] = spec.get(word, 0.0) + float(rng.uniform(0.1, 1))
        total = sum(spec.values())
        spec = {word: w / total for word, w in spec.items()}
        start = rng.random(n) * (rng.random(n) < 0.7) + 1e-3
        start /= start.sum()
        result = gspaces.solve_stationary(space, spec, start=start)
        expected = old_solve_stationary(space, spec, start)
        assert np.abs(result.nu - expected).max() <= 1e-10
        assert result.residual <= 1e-12
        perms = [perm for _, perm, _ in
                 gspaces.parse_word_measure(space, spec)]
        assert result.orbit_decomposition == bfs_orbits(n, perms)


def test_start_vector_is_copied():
    space = gspaces.cycle_space(3)
    for values in ([0.5, 0.3, 0.2], [1 / 3] * 3):
        start = np.array(values)
        result = gspaces.solve_stationary(space, start=start)
        assert start.tolist() == values
        assert not np.shares_memory(result.nu, start)


def test_stationary_measures_are_invariant():
    for space in (gspaces.cycle_space(5), gspaces.two_orbit_space()):
        nu = stationary_uniform(space)
        assert gspaces.is_invariant_measure(space, nu)


# -- the invariance identity -----------------------------------------------------

def test_statinv_constant_function():
    space = gspaces.cycle_space(6)
    nu = stationary_uniform(space)
    report = check_statinv(space, nu, "uniform", np.full(6, 0.37),
                           k_max=4)
    assert max(report.identity_residuals) <= 1e-10
    assert max(report.vanishing) <= 1e-10
    assert report.is_invariant


def test_statinv_transitive_harmonic_must_be_constant():
    # oracle: on a transitive space the eigenspace of P at 1 is spanned by
    # the constants, so any harmonic f the checker accepts is constant
    space = gspaces.cycle_space(5)
    nu = stationary_uniform(space)
    f = np.full(5, 1.23)
    report = check_statinv(space, nu, "uniform", f)
    assert report.is_invariant
    with pytest.raises(PreconditionError):
        check_statinv(space, nu, "uniform", np.array([1.0, 0, 0, 0, 0]))


def test_statinv_orbit_indicator():
    space = gspaces.two_orbit_space()
    nu = stationary_uniform(space)
    f = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    report = check_statinv(space, nu, "uniform", f, k_max=4)
    assert max(report.identity_residuals) <= 1e-10
    assert max(report.vanishing) <= 1e-10
    assert report.is_invariant      # invariant yet non-constant: two orbits


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_statinv_rejects_non_finite_inputs(bad):
    """A NaN f once passed every tolerance check as invariant."""
    space = gspaces.cycle_space(3)
    nu = stationary_uniform(space)
    for f in ([bad] * 3, [1.0, bad, 1.0]):
        with pytest.raises(DomainError, match="f must have finite entries"):
            check_statinv(space, nu, "uniform", f)
    with pytest.raises(DomainError, match="nu must have finite entries"):
        check_statinv(space, [bad, 0.5, 0.5], "uniform", [1.0] * 3)


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
        report = check_statinv(space, nu, "uniform", f, k_max=4)
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
    assert np.array_equal(fm.eta, nu)
    assert np.allclose(fm.f2, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert not fm.f2_essentially_constant
    assert fm.dichotomy_holds
    assert fm.mean_zero_residual <= 1e-12
    assert fm.lambda_residual <= 1e-12          # Lambda vanishes a.e.
    assert len(fm.pushforward) == 2


def test_factor_map_preconditions():
    flip = gspaces.cycle_space(2)
    nu = stationary_uniform(flip)
    with pytest.raises(DomainError, match="matching generator labels"):
        gspaces.factor_map(np.zeros((2, 2)), flip, nu,
                           gspaces.cycle_space(2, "u"), nu)
    with pytest.raises(PreconditionError):
        gspaces.factor_map(np.array([[2.0, -2.0], [-2.0, 2.0]]),
                           flip, nu, flip, nu)    # sup too big
    with pytest.raises(PreconditionError):
        gspaces.factor_map(np.array([[1.0, 0.0], [0.0, -1.0]]),
                           flip, nu, flip, nu)    # not invariant
    with pytest.raises(PreconditionError):
        gspaces.factor_map(np.array([[1.0, 1.0], [1.0, 1.0]]),
                           flip, nu, flip, nu)    # mean not zero


@pytest.mark.parametrize("bad", NON_FINITE)
def test_factor_map_rejects_non_finite_inputs(bad):
    """A NaN entry in f once gave a dichotomy that holds."""
    flip = gspaces.cycle_space(2)
    nu = stationary_uniform(flip)
    parity = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(DomainError, match="f must have finite entries"):
        gspaces.factor_map(np.array([[1.0, -1.0], [-1.0, bad]]),
                           flip, nu, flip, nu)
    with pytest.raises(DomainError, match="nu_x must have finite entries"):
        gspaces.factor_map(parity, flip, [0.5, bad], flip, nu)
    with pytest.raises(DomainError, match="eta must have finite entries"):
        gspaces.factor_map(parity, flip, nu, flip, [bad, 0.5])


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


def test_factor_map_and_witness_match_the_full_matrix_formulas():
    """On random pairs of transitive spaces, none of them ergodic (a space
    and a relabelled copy, or two rotation spaces whose sizes share a
    factor, relabelled), with random invariant zero-mean f:
    the distinct-row computations give the former results, the witness's
    gram and actions bit for bit."""
    rng = np.random.default_rng(15)
    witnesses = 0
    for case in range(50):
        if case % 2 == 0:
            x = random_transitive_space(rng, int(rng.integers(2, 9)))
            y = relabelled(x, rng)
        else:
            g, step = int(rng.integers(2, 4)), int(rng.integers(0, 5))
            x, y = (relabelled(rotations(g * int(rng.integers(1, 4)), step),
                               rng) for _ in "xy")
        nu_x, nu_y = stationary_uniform(x), stationary_uniform(y)
        # constant on the product's orbits, with ties so rows repeat
        flat = np.empty(x.size * y.size)
        for orbit in gspaces.orbits(gspaces.product_space(x, y)):
            flat[orbit] = rng.integers(-2, 3) / 2
        f = flat.reshape(x.size, y.size)
        f -= float((np.outer(nu_x, nu_y) * f).sum())
        peak = np.abs(f).max()
        f = f / peak if peak > 1e-12 else np.zeros_like(f)
        fm = gspaces.factor_map(f, x, nu_x, y, nu_y)
        old = old_factor_map(f, x, nu_x, y, nu_y)
        assert fm.pushforward == old["pushforward"]
        assert np.array_equal(fm.f2, old["f2"])
        for name in ("f2_essentially_constant", "dichotomy_holds",
                     "mean_zero_residual", "lambda_residual"):
            assert getattr(fm, name) == old[name], name
        if old["f2_constant_value"] is None:
            assert fm.f2_constant_value is None
        else:
            assert fm.f2_constant_value == pytest.approx(
                old["f2_constant_value"], abs=1e-12)
        new_w = gspaces.isometric_factor_witness(x, nu_x, y, nu_y)
        old_w = old_isometric_factor_witness(x, nu_x, y, nu_y)
        assert (new_w is None) == (old_w is None)
        if new_w is None:
            continue
        witnesses += 1
        vectors, weights, actions, gram, preserved = old_w
        assert new_w.vectors == vectors
        assert new_w.weights == weights
        assert new_w.actions == actions
        assert new_w.gram.tobytes() == gram.tobytes()
        assert new_w.gram_preserved == preserved
    assert witnesses == 50


@pytest.mark.parametrize("sizes", [(4000, 2), (2, 4000)])
def test_witness_memory_is_linear_in_the_product(sizes):
    """No |X| x |X| or |Y| x |Y| array: an 8000-point product peaks far
    below the 128 MB of one 4000 x 4000 float64 array."""
    x, y = (gspaces.cycle_space(n) for n in sizes)
    nu_x, nu_y = stationary_uniform(x), stationary_uniform(y)
    tracemalloc.start()
    try:
        witness = gspaces.isometric_factor_witness(x, nu_x, y, nu_y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness is not None and witness.gram_preserved
    assert len(witness.vectors) == 2
    assert peak < 16 * 2 ** 20


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
