"""Convolution powers, truncation accounting, adjoints, measure specs.

Brute-force oracle: mu^{*n}(s) is accumulated over all |supp|^n increment
tuples, independently of the convolve implementation.
"""

import math
from decimal import Decimal
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupwalk.errors import DomainError, ResourceLimitError
from groupwalk.groups import FreeAbelian, FreeGroup, group_from_id
from groupwalk.measures import (MODE_FLOAT, adjoint, convolve, dirac,
                                finite_measure, parse_measure_spec, power,
                                power_sequence, shannon_entropy, srw)
from references import total_variation, try_power


def brute_force_power(mu, n):
    """Oracle: sum over all n-tuples of atoms."""
    group = mu.group
    out = {}
    for combo in iproduct(list(mu.atoms.items()), repeat=n):
        g = group.identity()
        w = Fraction(1)
        for elem, weight in combo:
            g = group.mul(g, elem)
            w *= weight
        out[g] = out.get(g, Fraction(0)) + w
    return out


def test_z_srw_two_steps():
    z = FreeAbelian(1)
    mu = srw(z)
    conv = convolve(mu, mu)
    assert dict(conv.atoms) == {(-2,): Fraction(1, 4), (0,): Fraction(1, 2),
                                (2,): Fraction(1, 4)}


def test_dirac_is_neutral():
    f2 = FreeGroup(2)
    mu = srw(f2)
    assert dict(convolve(dirac(f2), mu).atoms) == dict(mu.atoms)
    assert dict(convolve(mu, dirac(f2)).atoms) == dict(mu.atoms)


def test_free2_return_probability_and_support():
    f2 = FreeGroup(2)
    mu = srw(f2)
    m2 = power(mu, 2)
    assert m2.atoms[f2.identity()] == Fraction(1, 4)
    assert len(m2) == 13
    assert m2.deficit == 0
    assert dict(m2.atoms) == brute_force_power(mu, 2)


def test_power_zero_is_dirac():
    f2 = FreeGroup(2)
    assert dict(power(srw(f2), 0).atoms) == {f2.identity(): Fraction(1)}


def test_z_srw_binomial_weights():
    z = FreeAbelian(1)
    m4 = power(srw(z), 4)
    assert m4.atoms[(0,)] == Fraction(6, 16)
    assert dict(m4.atoms) == brute_force_power(srw(z), 4)


@pytest.mark.parametrize("gid,n", [("free:2", 3), ("zd:2", 3)])
def test_power_matches_brute_force(gid, n):
    group = group_from_id(gid)
    mu = srw(group)
    assert dict(power(mu, n).atoms) == brute_force_power(mu, n)


@pytest.mark.parametrize("gid", ["free:2", "zd:2"])
def test_power_additivity(gid):
    group = group_from_id(gid)
    mu = srw(group)
    for m, n in [(1, 2), (2, 2), (2, 3), (3, 3), (1, 5)]:
        left = power(mu, m + n)
        right = convolve(power(mu, m), power(mu, n))
        assert dict(left.atoms) == dict(right.atoms)


def test_adjoint_examples():
    z = FreeAbelian(1)
    assert dict(adjoint(srw(z)).atoms) == dict(srw(z).atoms)
    f2 = FreeGroup(2)
    mu = finite_measure(f2, {(1,): Fraction(2, 3), (2,): Fraction(1, 3)})
    adj = adjoint(mu)
    assert dict(adj.atoms) == {(-1,): Fraction(2, 3), (-2,): Fraction(1, 3)}
    assert dict(adjoint(adj).atoms) == dict(mu.atoms)


def test_adjoint_anti_homomorphism():
    f2 = FreeGroup(2)
    mu = finite_measure(f2, {(1,): Fraction(1, 2), (2,): Fraction(1, 2)})
    nu = finite_measure(f2, {(1, 2): Fraction(1, 3), (-2,): Fraction(2, 3)})
    left = adjoint(convolve(mu, nu))
    right = convolve(adjoint(nu), adjoint(mu))
    assert dict(left.atoms) == dict(right.atoms)


def test_truncation_tracks_exact_deficit():
    z = FreeAbelian(1)
    mu = srw(z)
    m6 = power(mu, 6, threshold=Fraction(1, 32))
    assert m6.deficit > 0
    assert sum(m6.atoms.values()) + m6.deficit == 1
    # deficit is super-additive under composition
    m3 = power(mu, 3, threshold=Fraction(1, 32))
    again = convolve(m3, m3, threshold=Fraction(1, 32))
    combined = m3.deficit + m3.deficit - m3.deficit * m3.deficit
    assert again.deficit >= combined


def test_exact_convolve_mixed_denominators_matches_fraction_loop():
    # thirds and sixths against fifths, with deficits on both sides and a
    # threshold that drops some product atoms
    z2 = FreeAbelian(2)
    mu = finite_measure(z2, {(1, 0): Fraction(1, 3), (0, 1): Fraction(1, 6),
                             (-1, 0): Fraction(1, 3)},
                        deficit=Fraction(1, 6))
    nu = finite_measure(z2, {(1, 0): Fraction(2, 5), (0, -1): Fraction(1, 5),
                             (0, 0): Fraction(1, 5)},
                        deficit=Fraction(1, 5))
    threshold = Fraction(1, 14)
    expected = {}
    for g, wg in mu.atoms.items():
        for h, wh in nu.atoms.items():
            s = (g[0] + h[0], g[1] + h[1])
            expected[s] = expected.get(s, Fraction(0)) + wg * wh
    dropped = sum((w for w in expected.values() if w < threshold),
                  Fraction(0))
    kept = {s: w for s, w in expected.items() if w >= threshold}
    assert 0 < dropped and len(kept) < len(expected)
    out = convolve(mu, nu, threshold=threshold)
    assert dict(out.atoms) == kept
    assert all(type(w) is Fraction for w in out.atoms.values())
    assert out.deficit == (mu.deficit + nu.deficit - mu.deficit * nu.deficit
                           + dropped)
    assert sum(out.atoms.values()) + out.deficit == 1
    # a weight equal to the threshold is kept
    at = convolve(mu, nu, threshold=Fraction(2, 15))
    assert at.atoms[(2, 0)] == Fraction(2, 15)


def _deficit_case(mode, a, b):
    """mu and nu on zd:1 with deficits a and b, in the given mode."""
    z = FreeAbelian(1)
    mu = finite_measure(z, {(1,): Fraction(1, 2), (-1,): Fraction(1, 2) - a},
                        deficit=a)
    nu = finite_measure(z, {(0,): Fraction(1, 3) - b, (1,): Fraction(2, 3)},
                        deficit=b)
    if mode == MODE_FLOAT:
        mu, nu = (finite_measure(z, {g: float(w) for g, w in m.atoms.items()},
                                 deficit=float(m.deficit), mode=MODE_FLOAT)
                  for m in (mu, nu))
    return mu, nu


@pytest.mark.parametrize("mode", ["exact", MODE_FLOAT])
@pytest.mark.parametrize("a", [Fraction(0), Fraction(1, 4)])
@pytest.mark.parametrize("b", [Fraction(0), Fraction(1, 6)])
@pytest.mark.parametrize("threshold", [0, Fraction(1, 5)])
def test_convolve_deficit_composes_in_every_case(mode, a, b, threshold):
    mu, nu = _deficit_case(mode, a, b)
    full = convolve(mu, nu)
    # the oracle's dropped mass: product atoms below the threshold
    dropped = sum(Fraction(w) for w in full.atoms.values() if w < threshold)
    assert (dropped > 0) == bool(threshold)
    out = convolve(mu, nu, threshold=threshold)
    expected = 1 - (1 - a) * (1 - b) + dropped
    if mode == MODE_FLOAT:
        assert type(out.deficit) is float
        assert out.deficit == pytest.approx(float(expected), abs=1e-15)
    else:
        assert type(out.deficit) is Fraction
        assert out.deficit == expected
    if not b and not threshold:
        assert out.deficit == mu.deficit


@pytest.mark.parametrize("mode,zero", [("exact", Fraction(0)),
                                       (MODE_FLOAT, 0.0)])
def test_untruncated_chains_keep_the_modes_zero_deficit(mode, zero):
    f2 = FreeGroup(2)
    mu = srw(f2, mode=mode)
    assert mu.deficit == zero and type(mu.deficit) is type(zero)
    for _, mun in power_sequence(mu, 4):
        assert mun.deficit == zero and type(mun.deficit) is type(zero)


def test_power_sequence_atom_budget():
    f2 = FreeGroup(2)
    mu = srw(f2)
    sizes = [len(m) for _, m in power_sequence(mu, 3, max_atoms=40)]
    assert sizes == [4, 13, 40]
    with pytest.raises(ResourceLimitError, match="completed n = 3"):
        for _ in power_sequence(mu, 5, max_atoms=40):
            pass
    with pytest.raises(ResourceLimitError, match="completed n = 3"):
        power(mu, 4, max_atoms=40)
    assert dict(power(mu, 3, max_atoms=40).atoms) == brute_force_power(mu, 3)
    assert try_power(mu, 3, atom_budget=40) is not None
    assert try_power(mu, 4, atom_budget=40) is None


def test_mass_conservation_along_pipeline():
    f2 = FreeGroup(2)
    for n, mun in power_sequence(srw(f2), 6, threshold=Fraction(1, 100)):
        assert sum(mun.atoms.values()) + mun.deficit == 1


def test_mode_mixing_rejected():
    z = FreeAbelian(1)
    with pytest.raises(DomainError):
        convolve(srw(z), srw(z, mode=MODE_FLOAT))
    with pytest.raises(DomainError):
        convolve(srw(z), srw(FreeAbelian(2)))


def test_float_mode_mass_and_entropy():
    z = FreeAbelian(1)
    mu = srw(z, mode=MODE_FLOAT)
    m2 = power(mu, 2)
    assert abs(sum(m2.atoms.values()) - 1.0) < 1e-12
    assert abs(shannon_entropy(srw(z)) - 0.6931471805599453) < 1e-12


def test_parse_measure_spec():
    z = FreeAbelian(1)
    mu = parse_measure_spec(z, "1=2/3; -1=1/3")
    assert dict(mu.atoms) == {(1,): Fraction(2, 3), (-1,): Fraction(1, 3)}
    assert parse_measure_spec(z, "srw").atoms == srw(z).atoms
    with pytest.raises(DomainError):
        parse_measure_spec(z, "1=1/2")   # mass != 1
    with pytest.raises(DomainError):
        parse_measure_spec(z, "")


@pytest.mark.parametrize("spec,mode,message", [
    ("1", "exact", r"want elem=weight"),
    ("q=1", "exact", r"cannot parse zd element 'q'"),
    ("1=1/2;1=1/2", "exact", r"duplicate atom '1'"),
    ("1=x", "exact", r"bad weight 'x'"),
    ("1=1/0", "exact", r"bad weight '1/0'"),
    ("1=1e-99999999;-1=1", "exact", r"bad weight '1e-99999999'"),
    ("1=0;-1=1", "exact", r"non-positive weight 0 "),
    ("1=-1/2;-1=3/2", "exact", r"non-positive weight -1/2 "),
    ("1=-0.5;-1=1.5", "float64", r"non-positive weight -0\.5 "),
    ("1=1/2", "exact", r"mass 1/2 != 1"),
    ("1=1;-1=1/2", "exact", r"mass 3/2 != 1"),
    ("1=0.5", "float64", r"mass 0\.5 deviates from 1"),
    ("1=nan;-1=0.5", "float64", r"non-finite weight 'nan'"),
    ("1=inf;-1=0.5", "float64", r"non-finite weight 'inf'"),
    ("", "exact", r"empty measure spec"),
    (" ; ; ", "exact", r"empty measure spec"),
    ("1=1", "fuzzy", r"unknown arithmetic mode 'fuzzy'"),
], ids=["no-equals", "bad-element", "duplicate-atom", "bad-weight",
        "zero-denominator", "huge-exponent", "zero-weight",
        "negative-weight", "negative-float-weight", "mass-below-one",
        "mass-above-one", "float-mass-off", "nan-weight", "inf-weight",
        "empty", "separators-only", "unknown-mode"])
def test_parse_measure_spec_rejects_malformed(spec, mode, message):
    """Each malformed CLI measure spec is a DomainError naming its fault."""
    with pytest.raises(DomainError, match=message):
        parse_measure_spec(FreeAbelian(1), spec, mode=mode)


@pytest.mark.parametrize("atoms,deficit,mode,message", [
    ({(1,): float("nan")}, 0, "float64", r"weight nan is not a finite real"),
    ({(1,): float("inf"), (-1,): 0.5}, 0, "float64",
     r"weight inf is not a finite real"),
    ({(1,): 1.0}, float("nan"), "float64", r"weight nan is not a finite"),
    ({(1,): "nan"}, 0, "exact", r"weight 'nan' is not rational"),
    ({(1,): "1/2", (-1,): "1/2"}, 0, "exact", r"weight '1/2' is not rational"),
    ({(1,): "1/2", (-1,): "1/2"}, 0, "float64",
     r"weight '1/2' is not a finite real"),
    ({(1,): Decimal("0.5"), (-1,): Decimal("0.5")}, 0, "exact",
     r"weight Decimal\('0\.5'\) is not rational"),
    ({(1,): 0.5, (-1,): 0.5}, 0, "exact", r"weight 0\.5 is not rational"),
], ids=["nan", "inf", "nan-deficit", "text-nan", "text-exact",
        "text-float64", "decimal", "float-in-exact"])
def test_finite_measure_takes_numbers_only(atoms, deficit, mode, message):
    """Weights enter finite_measure as numbers: rationals in exact mode,
    finite reals in float64; text goes through parse_measure_spec."""
    with pytest.raises(DomainError, match=message):
        finite_measure(FreeAbelian(1), atoms, deficit=deficit, mode=mode)


def test_finite_measure_takes_rationals_in_float64():
    z = FreeAbelian(1)
    mu = finite_measure(z, {(1,): Fraction(1, 2), (-1,): Fraction(1, 2)},
                        mode=MODE_FLOAT)
    assert mu.atoms == srw(z, mode=MODE_FLOAT).atoms


def test_total_variation():
    z = FreeAbelian(1)
    assert total_variation(srw(z), srw(z)) == 0
    d = finite_measure(z, {(1,): 1})
    assert total_variation(srw(z), d) == pytest.approx(0.5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4))
def test_power_additivity_property(m, n):
    z2 = FreeAbelian(2)
    mu = srw(z2)
    left = power(mu, m + n)
    right = convolve(power(mu, m), power(mu, n))
    assert dict(left.atoms) == dict(right.atoms)


# -- the integer chain: numerators over one denominator ----------------------

def _small_elements(gid):
    from groupwalk.wordmetric import build_ball
    return sorted(build_ball(group_from_id(gid), 2).norms, key=repr)


@st.composite
def small_exact_measures(draw):
    """An exact measure of 1-4 atoms within radius 2 on zd:1, free:2 or
    lamplighter; weights c_i / T with T = sum c_i + d, deficit d / T."""
    gid = draw(st.sampled_from(["zd:1", "free:2", "lamplighter"]))
    elems = draw(st.lists(st.sampled_from(_small_elements(gid)), min_size=1,
                          max_size=4, unique=True))
    counts = draw(st.lists(st.integers(1, 12), min_size=len(elems),
                           max_size=len(elems)))
    lost = draw(st.sampled_from([0, 0, 1, 3]))
    total = sum(counts) + lost
    return finite_measure(group_from_id(gid),
                          {g: Fraction(c, total)
                           for g, c in zip(elems, counts)},
                          deficit=Fraction(lost, total))


def fraction_chain(mu, n_max, threshold):
    """Reference: (atoms, deficit) of mu^{*n}, n = 1..n_max, convolved on
    Fraction weights in convolve's accumulation order."""
    group = mu.group
    step = list(mu.atoms.items())
    atoms, deficit = {group.identity(): Fraction(1)}, Fraction(0)
    chain = []
    for _ in range(n_max):
        out = {}
        for g, a in atoms.items():
            for h, b in step:
                s = group.mul(g, h)
                out[s] = out.get(s, 0) + a * b
        dropped = sum((w for w in out.values() if w < threshold),
                      Fraction(0)) if threshold else Fraction(0)
        if threshold:
            out = {s: w for s, w in out.items() if w >= threshold}
        deficit = deficit + mu.deficit - deficit * mu.deficit + dropped
        atoms = out
        chain.append((atoms, deficit))
    return chain


@settings(max_examples=60, deadline=None)
@given(small_exact_measures(), st.integers(1, 5),
       st.sampled_from([0, Fraction(1, 50), Fraction(1, 9), Fraction(2, 7)]))
def test_integer_chain_matches_fraction_chain(mu, n_max, threshold):
    from groupwalk.drift import drift_exact_partial
    from groupwalk.wordmetric import norm_evaluator
    norm_fn = norm_evaluator(mu.group)
    reference = fraction_chain(mu, n_max, threshold)
    for (n, mun), (atoms, deficit) in zip(
            power_sequence(mu, n_max, threshold=threshold), reference):
        assert mun.atoms == atoms
        assert list(mun.atoms) == list(atoms)      # same order
        assert mun.deficit == deficit
        assert sum(mun.weights.values()) + mun.deficit * mun.den == mun.den
        assert mun.den == mu.den ** n
        assert all(type(c) is int for c in mun.weights.values())
        # the old route: float(Fraction) per atom inside the log
        old_h = 0.0
        for w in atoms.values():
            x = float(w)
            if x > 0.0:
                old_h -= x * math.log(x)
        assert shannon_entropy(mun) == old_h
    assert power(mu, n_max, threshold=threshold).den == mu.den ** n_max
    report = drift_exact_partial(mu, norm_fn, n_max, threshold=threshold)
    expected = [sum((norm_fn(s) * w for s, w in atoms.items()), Fraction(0))
                for atoms, _ in reference]
    assert report.a_values == expected
    assert all(type(a) is Fraction for a in report.a_values)


def test_atoms_is_a_fresh_view():
    mu = power(srw(FreeGroup(2)), 2)
    view = mu.atoms
    assert view is not mu.atoms
    view[FreeGroup(2).identity()] = Fraction(1)
    view[(1, 1, 1)] = Fraction(1, 2)
    assert mu.atoms[FreeGroup(2).identity()] == Fraction(1, 4)
    assert (1, 1, 1) not in mu.atoms
    assert len(mu) == 13 and sum(mu.atoms.values()) == 1
    float_mu = srw(FreeGroup(2), mode=MODE_FLOAT)
    float_view = float_mu.atoms
    float_view.clear()
    assert len(float_mu.atoms) == 4 and float_mu.den == 1


def test_entropy_on_wide_numerators_matches_fraction_route():
    # numerators and den = 5^50 past 2^53: each weight must be one
    # correctly rounded division, not a quotient of two rounded floats
    # (which moves this entropy in its last bit)
    z = FreeAbelian(1)
    mu50 = power(finite_measure(z, {(1,): Fraction(2, 5),
                                    (-1,): Fraction(3, 5)}), 50)
    assert mu50.den == 5 ** 50
    old_h = 0.0
    for w in mu50.atoms.values():
        x = float(w)
        old_h -= x * math.log(x)
    assert shannon_entropy(mu50) == old_h
