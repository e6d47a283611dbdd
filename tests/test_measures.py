"""Measures: centring functionals, Wasserstein costs, tail CDFs.

Reference values come from independent oracles computed in place:
exhaustive permutation matchings for the transport costs, direct
enumeration of mu([x, infty)) for the median, and quadrature for the
tail integrals.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from nbbmlab import measures as ms
from nbbmlab import waves

SQRT2 = math.sqrt(2.0)


def brute_force_cost(x, y, cap=None):
    """Minimum mean cost over all bijections (factorial oracle)."""
    x, y = list(x), list(y)
    n = len(x)
    best = math.inf
    for p in itertools.permutations(range(n)):
        c = sum(abs(x[i] - y[p[i]]) if cap is None
                else min(abs(x[i] - y[p[i]]), cap) for i in range(n))
        best = min(best, c / n)
    return best


def median_by_enumeration(atoms):
    """inf{x : mu([x, infty)) < 1/2} scanned over candidate points."""
    atoms = np.sort(np.asarray(atoms, float))
    candidates = np.unique(atoms)
    for c in candidates:
        mass_from_c = np.mean(atoms >= c)
        just_right = np.mean(atoms >= np.nextafter(c, np.inf))
        if mass_from_c >= 0.5 and just_right < 0.5:
            return c
    raise AssertionError("enumeration failed")


# ---------------------------------------------------------------------------
# construction and centring
# ---------------------------------------------------------------------------

def test_from_positions_sorts():
    mu = ms.from_positions([3, 1, 2])
    np.testing.assert_array_equal(mu.atoms, [1, 2, 3])
    assert mu.n == 3


def test_from_positions_single_and_duplicates():
    assert ms.from_positions([0]).n == 1
    np.testing.assert_array_equal(ms.from_positions([0, 0, 5]).atoms, [0, 0, 5])


def test_from_positions_errors():
    with pytest.raises(ValueError, match="empty measure"):
        ms.from_positions([])
    with pytest.raises(ValueError, match="non-finite"):
        ms.from_positions([0.0, np.inf])


def test_median_inf_definition():
    # the set {x : mass < 1/2} for atoms (0,1,2,3) is (2, inf), so A = 2
    mu = ms.from_positions([0, 1, 2, 3])
    assert ms.centring_stats(mu).median == 2.0
    assert median_by_enumeration([0, 1, 2, 3]) == 2.0


def test_median_matches_enumeration_randomised():
    rng = np.random.default_rng(7)
    for _ in range(200):
        atoms = rng.normal(size=rng.integers(1, 12))
        got = ms.centring_stats(ms.from_positions(atoms)).median
        assert got == median_by_enumeration(atoms)


def test_centring_stats_point_mass_and_mean():
    st = ms.centring_stats(ms.from_positions([0, 0, 0]))
    assert (st.leftmost, st.median) == (0.0, 0.0)
    assert ms.gap_mean(np.zeros(3)) == 0.0
    st = ms.centring_stats(ms.from_positions([0, 1, 2]))
    assert st.leftmost == 0.0 and ms.gap_mean(np.array([0, 1, 2])) == 1.0


def test_centring_inequality_median_vs_mean():
    # A - L <= 2 (M - L) for measures supported right of their leftmost
    rng = np.random.default_rng(11)
    for _ in range(300):
        atoms = rng.exponential(size=rng.integers(1, 30)) + rng.normal()
        st = ms.centring_stats(ms.from_positions(atoms))
        assert st.median - st.leftmost <= 2 * (atoms.mean() - st.leftmost) + 1e-12


def test_gap_mean():
    assert ms.gap_mean([0, 1, 2]) == 1.0
    assert ms.gap_mean([0, 0, 0, 0]) == 0.0
    assert ms.gap_mean([0, 3]) == 1.5
    with pytest.raises(ValueError, match="not in Gamma_N"):
        ms.gap_mean([0.1, 1.0])


def test_recentre():
    mu = ms.recentre(ms.from_positions([5, 6, 7]), "leftmost")
    np.testing.assert_array_equal(mu.atoms, [0, 1, 2])
    mu = ms.recentre(ms.from_positions([0, 1, 2, 3]), "median")
    np.testing.assert_array_equal(mu.atoms, [-2, -1, 0, 1])
    for mode in ("leftmost", "median"):
        np.testing.assert_array_equal(
            ms.recentre(ms.from_positions([4.5]), mode).atoms, [0.0])
    with pytest.raises(ValueError):
        ms.recentre(ms.from_positions([1.0]), "barycentre")


def test_recentre_idempotent_and_gap_preserving():
    rng = np.random.default_rng(3)
    for mode in ("leftmost", "median"):
        mu = ms.from_positions(rng.normal(size=17))
        once = ms.recentre(mu, mode)
        twice = ms.recentre(once, mode)
        np.testing.assert_array_equal(once.atoms, twice.atoms)
        np.testing.assert_allclose(np.diff(once.atoms), np.diff(mu.atoms),
                                   rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Wasserstein costs
# ---------------------------------------------------------------------------

def test_w1_basic_values():
    a, b = ms.from_positions([0, 1]), ms.from_positions([0, 2])
    assert ms.wasserstein_w1(a, a) == 0.0
    assert ms.wasserstein_w1(ms.from_positions([0]), ms.from_positions([5])) == 5.0
    assert ms.wasserstein_w1(a, b) == 0.5
    assert brute_force_cost([0, 1], [0, 2]) == 0.5


def test_w_basic_values():
    a, b = ms.from_positions([0, 1]), ms.from_positions([0, 2])
    assert ms.wasserstein_w(a, a) == 0.0
    assert ms.wasserstein_w(ms.from_positions([0]), ms.from_positions([5])) == 1.0
    assert ms.wasserstein_w(a, b) == 0.5
    assert brute_force_cost([0, 1], [0, 2], cap=1.0) == 0.5


def test_w1_equals_factorial_brute_force():
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        x = rng.uniform(-3, 3, n)
        y = rng.uniform(-3, 3, n)
        got = ms.wasserstein_w1(ms.from_positions(x), ms.from_positions(y))
        assert abs(got - brute_force_cost(x, y)) < 1e-12


def test_w_rank_metric_versus_exact_optimum():
    rng = np.random.default_rng(23)
    for _ in range(150):
        n = int(rng.integers(2, 8))
        # clouds inside a unit window: the cap never binds, rank is optimal
        x = rng.uniform(0, 0.9, n)
        y = rng.uniform(0, 0.9, n)
        a, b = ms.from_positions(x), ms.from_positions(y)
        brute = brute_force_cost(x, y, cap=1.0)
        assert abs(ms.wasserstein_w(a, b) - brute) < 1e-12
    # separated clouds: uncrossing a saturated pair beats the rank coupling
    a = ms.from_positions([0.0, 0.4])
    b = ms.from_positions([0.7, 1.3])
    assert ms.wasserstein_w(a, b) == pytest.approx(0.8)
    assert brute_force_cost([0.0, 0.4], [0.7, 1.3], cap=1.0) == \
        pytest.approx(0.65)


def test_w_capped_below_w1_and_one():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        a = ms.from_positions(rng.normal(scale=2, size=n))
        b = ms.from_positions(rng.normal(scale=2, size=n))
        w = ms.wasserstein_w(a, b)
        assert w <= ms.wasserstein_w1(a, b) + 1e-15
        assert w <= 1.0


def test_w_symmetry_and_triangle():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        a = ms.from_positions(rng.normal(size=n))
        b = ms.from_positions(rng.normal(size=n) + rng.uniform(-2, 2))
        c = ms.from_positions(rng.normal(size=n) - rng.uniform(-2, 2))
        assert ms.wasserstein_w(a, b) == ms.wasserstein_w(b, a)
        assert ms.wasserstein_w(a, c) <= \
            ms.wasserstein_w(a, b) + ms.wasserstein_w(b, c) + 1e-12
        assert ms.wasserstein_w1(a, b) == ms.wasserstein_w1(b, a)
        assert ms.wasserstein_w1(a, c) <= \
            ms.wasserstein_w1(a, b) + ms.wasserstein_w1(b, c) + 1e-12


def test_translation_behaviour():
    rng = np.random.default_rng(37)
    mu = ms.from_positions(rng.normal(size=25))
    nu = ms.from_positions(rng.normal(size=25))
    for c in (0.3, -1.7, 12.0):
        shifted_mu = ms.from_positions(mu.atoms + c)
        shifted_nu = ms.from_positions(nu.atoms + c)
        # invariance under joint shifts, to machine precision
        assert ms.wasserstein_w1(shifted_mu, shifted_nu) == \
            pytest.approx(ms.wasserstein_w1(mu, nu), abs=1e-12)
        assert ms.wasserstein_w(shifted_mu, shifted_nu) == \
            pytest.approx(ms.wasserstein_w(mu, nu), abs=1e-12)
        # a pure translation costs min(|c|, 1) in the capped metric
        assert ms.wasserstein_w(mu, shifted_mu) == \
            pytest.approx(min(abs(c), 1.0), abs=1e-12)
        assert ms.wasserstein_w1(mu, shifted_mu) == pytest.approx(abs(c))


def test_unequal_sizes_rejected():
    # a size-1 measure would otherwise broadcast against the other's atoms
    a = ms.from_positions([0.0])
    b = ms.from_positions([0.0, 1.0])
    for cost in (ms.wasserstein_w1, ms.wasserstein_w):
        for mu, nu in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="length mismatch"):
                cost(mu, nu)


# ---------------------------------------------------------------------------
# tail CDFs and quantiles
# ---------------------------------------------------------------------------

def _pimin_tailcdf(dx=0.001, xmax=18.0):
    grid = np.arange(0.0, xmax + dx, dx) - dx
    vals = waves.MINIMAL_WAVE.tail(grid)
    vals[-1] = 0.0
    return ms.TailCdf(grid, vals)


def test_tailcdf_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ms.TailCdf([0.0, 0.0, 1.0], [1.0, 0.5, 0.0])
    with pytest.raises(ValueError, match="non-increasing"):
        ms.TailCdf([0.0, 1.0, 2.0], [1.0, 0.2, 0.4])
    with pytest.raises(ValueError, match="first tail value"):
        ms.TailCdf([0.0, 1.0], [0.9, 0.0])
    with pytest.raises(ValueError, match="last tail value"):
        ms.TailCdf([0.0, 1.0], [1.0, 0.1])


def test_quantile_heaviside():
    # U = 1(x < 0) represented with a sharp drop: a^{1/2} = 0
    u = ms.TailCdf([-1.0, -1e-9, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0])
    assert abs(ms.quantile(u, 0.5)) < 1e-9
    assert abs(ms.quantile(u, 1.0) + 1e-9) < 1e-12


def test_quantile_pimin():
    wave = waves.MINIMAL_WAVE
    assert wave.quantile(1.0) == pytest.approx(0.0, abs=1e-10)
    root = brentq(lambda x: wave.tail(x) - 0.5, 0.0, 10.0, xtol=1e-13)
    assert root == pytest.approx(1.1867705378248115, abs=1e-9)
    assert wave.quantile(0.5) == pytest.approx(root, abs=1e-9)
    u = _pimin_tailcdf()
    assert ms.quantile(u, 0.5) == pytest.approx(root, abs=1e-5)


def test_quantile_roundtrip_and_errors():
    u = _pimin_tailcdf(dx=0.002)
    for y in (0.9, 0.5, 0.2, 0.05, 1e-3):
        assert u.value(ms.quantile(u, y)) == pytest.approx(y, abs=1e-6)
    for bad in (0.0, -0.5, 1.0001):
        with pytest.raises(ValueError):
            ms.quantile(u, bad)


def test_tail_integral_piecewise_linear():
    u = ms.TailCdf([0.0, 1.0, 2.0], [1.0, 0.5, 0.0])
    assert u.tail_integral(0.0) == pytest.approx(1.0)     # two trapezoids
    assert u.tail_integral(-2.0) == pytest.approx(3.0)    # flat 1 on the left
    assert u.tail_integral(1.5) == pytest.approx(0.0625)
    assert u.tail_integral(2.5) == 0.0


# ---------------------------------------------------------------------------
# W1 against analytic tails
# ---------------------------------------------------------------------------

def test_w1_to_analytic_atom_vs_sharp_step():
    mu = ms.from_positions([SQRT2])
    f = ms.TailCdf([SQRT2 - 1.0, SQRT2, SQRT2 + 1e-9, SQRT2 + 1.0],
                   [1.0, 1.0, 0.0, 0.0])
    assert ms.w1_to_analytic(mu, f) < 1e-8


def test_w1_to_analytic_delta_vs_minimal_wave():
    # int_0^inf (1 + sqrt2 x) e^{-sqrt2 x} dx = sqrt2, cross-checked by quad
    oracle, _ = quad(waves.MINIMAL_WAVE.tail, 0, 60)
    assert oracle == pytest.approx(SQRT2, abs=1e-10)
    mu = ms.from_positions([0.0])
    assert ms.w1_to_analytic(mu, waves.MINIMAL_WAVE) == pytest.approx(SQRT2, abs=1e-12)


def test_w1_to_analytic_matches_quadrature():
    rng = np.random.default_rng(43)
    mu = waves.sample_pi_min(rng, 40)
    wave = waves.MINIMAL_WAVE

    def integrand(x):
        return abs(mu.tail(x) - wave.tail(x))

    pieces = [0.0] + list(mu.atoms) + [60.0]
    oracle = sum(quad(integrand, a, b, limit=200)[0]
                 for a, b in zip(pieces[:-1], pieces[1:]))
    assert ms.w1_to_analytic(mu, wave) == pytest.approx(oracle, abs=1e-7)


def test_w1_to_analytic_shrinks_with_sample_size():
    rng = np.random.default_rng(47)
    d_small = np.mean([ms.w1_to_analytic(waves.sample_pi_min(rng, 50),
                                         waves.MINIMAL_WAVE) for _ in range(8)])
    d_large = np.mean([ms.w1_to_analytic(waves.sample_pi_min(rng, 2000),
                                         waves.MINIMAL_WAVE) for _ in range(8)])
    assert d_large < d_small / 3


def test_w1_to_analytic_against_gridded_tail():
    rng = np.random.default_rng(53)
    mu = ms.from_positions(rng.uniform(0, 2, 30))
    f = ms.TailCdf([-1.0, 0.0, 1.0, 2.0, 3.0], [1.0, 0.8, 0.45, 0.1, 0.0])
    grid = np.linspace(-2, 4, 600001)
    oracle = np.trapezoid(np.abs(mu.tail(grid) - f.value(grid)), grid)
    assert ms.w1_to_analytic(mu, f) == pytest.approx(oracle, abs=1e-4)


def w1_one_measure(mu, f):
    """W1(mu, f) as it was computed one measure at a time, before stacking."""
    a, n = mu.atoms, mu.n
    fa = np.atleast_1d(f.tail(a))
    ia = np.atleast_1d(f.tail_integral(a))
    total = float(ia[-1])
    x_left = f.support_left
    if a[0] > x_left:
        il = float(np.atleast_1d(f.tail_integral(np.array([x_left])))[0])
        total += (a[0] - x_left) - (il - ia[0])
    if n == 1:
        return total
    gvals = (n - np.arange(1, n)) / n
    dx = np.diff(a)
    d_int = ia[:-1] - ia[1:]
    lo, hi = fa[:-1], fa[1:]
    live = dx > 0
    below = live & (lo <= gvals)
    above = live & (hi >= gvals)
    crossing = live & ~below & ~above
    total += float(np.sum(gvals[below] * dx[below] - d_int[below]))
    total += float(np.sum(d_int[above] - gvals[above] * dx[above]))
    if np.any(crossing):
        c = np.atleast_1d(f.quantile(gvals[crossing]))
        ic = np.atleast_1d(f.tail_integral(c))
        al, ar = a[:-1][crossing], a[1:][crossing]
        total += float(np.sum(
            (ia[:-1][crossing] + ia[1:][crossing] - 2 * ic)
            + gvals[crossing] * (ar + al - 2 * c)))
    return total


def _gridded_wave_tail():
    grid = np.linspace(-1.0, 9.0, 41)
    values = waves.MINIMAL_WAVE.tail(grid + 0.5)
    values[0], values[-1] = 1.0, 0.0
    return ms.TailCdf(grid, values)


W1_TARGETS = {
    "minimal": waves.MINIMAL_WAVE,
    "median_centred": waves.MINIMAL_WAVE.median_centred_tail(),
    "faster": waves.travelling_wave(2.0),
    "gridded": _gridded_wave_tail(),
}


@settings(max_examples=100, deadline=None)
@given(target=st.sampled_from(sorted(W1_TARGETS)), n=st.integers(1, 48),
       rows=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       lattice=st.booleans(), shift=st.sampled_from([0.0, -0.8, 2.0]))
def test_w1_stack_matches_single_calls(target, n, rows, seed, lattice, shift):
    # rows of sorted atoms, some left of the support, some tied (dx = 0)
    f = W1_TARGETS[target]
    rng = np.random.default_rng(seed)
    draws = 0.25 * rng.integers(0, 12, (rows, n)) if lattice \
        else waves.MINIMAL_WAVE.quantile(rng.random((rows, n)).ravel())
    stack = np.sort(np.reshape(draws, (rows, n)), axis=1) + shift
    got = ms.w1_to_analytic(stack, f)
    assert got.shape == (rows,)
    for r in range(rows):
        mu = ms.EmpiricalMeasure(stack[r])
        single = ms.w1_to_analytic(mu, f)
        assert isinstance(single, float)
        assert got[r].tobytes() == np.float64(single).tobytes()
        assert single == w1_one_measure(mu, f)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def test_tailcdf_csv_roundtrip(tmp_path):
    # the layout of the profile_t*.csv files that `pde` writes
    u = ms.TailCdf([0.0, 1.0, 2.0], [1.0, 0.25, 0.0])
    p = tmp_path / "u.csv"
    p.write_text("x,U\n" + "".join(f"{float(g)!r},{float(v)!r}\n"
                                    for g, v in zip(u.grid, u.values)))
    back = ms.tailcdf_from_csv(p)
    np.testing.assert_array_equal(back.grid, u.grid)
    np.testing.assert_array_equal(back.values, u.values)
