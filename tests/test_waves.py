"""Travelling waves: closed forms against quadrature and grid oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nbbmlab import waves
from nbbmlab.measures import w1_to_analytic

SQRT2 = math.sqrt(2.0)


def test_pi_min_pointwise():
    assert waves.pi_min(0.0) == 0.0
    assert waves.pi_min(-3.0) == 0.0
    assert waves.pi_min(1.0) == pytest.approx(2.0 * math.exp(-SQRT2))
    assert waves.pi_min(50.0) < 1e-28


def test_pi_min_maximum_by_grid_search():
    xs = np.linspace(0, 5, 1_000_001)
    vals = waves.pi_min(xs)
    i = int(np.argmax(vals))
    assert xs[i] == pytest.approx(1.0 / SQRT2, abs=1e-5)
    assert vals[i] == pytest.approx(SQRT2 / math.e, abs=1e-10)


def test_pi_min_mass_and_mean():
    mass, _ = quad(waves.pi_min, 0, 60)
    assert mass == pytest.approx(1.0, abs=1e-10)
    mean, _ = quad(lambda x: x * waves.pi_min(x), 0, 80)
    assert mean == pytest.approx(SQRT2, abs=1e-9)


def test_pi_min_tail_values():
    assert waves.MINIMAL_WAVE.tail(0.0) == 1.0
    assert waves.MINIMAL_WAVE.tail(-1.0) == 1.0
    # x = 10 against a quadrature of the density
    oracle, _ = quad(waves.pi_min, 10, 100)
    assert waves.MINIMAL_WAVE.tail(10.0) == pytest.approx(oracle, rel=1e-9)
    assert waves.MINIMAL_WAVE.tail(10.0) == pytest.approx(
        (1 + 10 * SQRT2) * math.exp(-10 * SQRT2), rel=1e-12)


def test_tail_integral_is_sqrt2_at_zero():
    oracle, _ = quad(waves.MINIMAL_WAVE.tail, 0, 80)
    assert oracle == pytest.approx(SQRT2, abs=1e-9)
    assert waves.MINIMAL_WAVE.tail_integral(0.0) == pytest.approx(SQRT2)


def test_tail_derivative_is_minus_density():
    xs = np.linspace(0.01, 20, 400)
    h = 1e-6
    tail = waves.MINIMAL_WAVE.tail
    fd = (tail(xs + h) - tail(xs - h)) / (2 * h)
    np.testing.assert_allclose(fd, -waves.pi_min(xs), atol=1e-6)


def test_wave_ode_residual_minimal():
    xs = np.linspace(1e-6, 20, 2000)
    res = waves.wave_ode_residual(waves.MINIMAL_WAVE, xs)
    assert np.max(np.abs(res)) < 1e-8


def test_pi_c_subcritical_rejected():
    with pytest.raises(ValueError, match="subcritical"):
        waves.travelling_wave(1.0)


def test_pi_c_reduces_to_minimal():
    xs = np.linspace(0, 15, 500)
    np.testing.assert_allclose(waves.travelling_wave(SQRT2).density(xs),
                               waves.pi_min(xs), atol=1e-14)


def test_pi_c_continuity_at_critical_speed():
    xs = np.linspace(0, 20, 2000)
    for eps, tol in ((1e-3, 2e-3), (1e-6, 1e-5)):
        near = waves.travelling_wave(SQRT2 + eps).density(xs)
        gap = np.max(np.abs(near - waves.pi_min(xs)))
        assert gap < tol


def test_pi_c_normalisation_and_boundary():
    for c in (1.5, 2.0, 3.0):
        wave = waves.travelling_wave(c)
        assert wave.density(0.0) == 0.0
        mass, _ = quad(wave.density, 0, 120)
        assert mass == pytest.approx(1.0, abs=1e-9)
        mean, _ = quad(lambda x: x * wave.density(x), 0, 150)
        assert mean == pytest.approx(c, abs=1e-7)
        oracle, _ = quad(wave.density, 1.3, 120)
        assert wave.tail(1.3) == pytest.approx(oracle, rel=1e-9)


def test_faster_wave_density_far_out():
    # log-space forms at x where e^{-(c-g)x} dominates: e^{-2gx} underflows
    wave = waves.travelling_wave(2.0)
    c, g = 2.0, math.sqrt(2.0)
    for x in (400.0, 800.0):
        log_e = -(c - g) * x - math.log(g)      # log of e^{-(c-g)x} / g
        with np.errstate(all="raise"):
            d, d1, d2 = wave.density(x), wave.density_dx(x), wave.density_dxx(x)
        assert np.isfinite([d, d1, d2]).all() and d > 0.0
        assert d == pytest.approx(math.exp(log_e), rel=1e-12)
        assert d1 == pytest.approx(-(c - g) * math.exp(log_e), rel=1e-12)
        assert d2 == pytest.approx((c - g) ** 2 * math.exp(log_e), rel=1e-12)
    xs = np.linspace(0.01, 20, 2000)
    assert np.max(np.abs(waves.wave_ode_residual(wave, xs))) < 1e-10


def test_wave_ode_residual_general_speed():
    xs = np.linspace(1e-6, 20, 2000)
    for c in (1.5, 2.0, 2.7):
        res = waves.wave_ode_residual(waves.travelling_wave(c), xs)
        assert np.max(np.abs(res)) < 1e-8


def test_tail_integral_against_quadrature():
    for c in (SQRT2, 2.0):
        wave = waves.travelling_wave(c)
        for x in (0.0, 0.7, 2.3, -1.5):
            oracle, _ = quad(wave.tail, x, 120)
            assert wave.tail_integral(x) == pytest.approx(oracle, rel=1e-8)


def test_quantile_inverts_tail():
    for c in (SQRT2, 2.0):
        wave = waves.travelling_wave(c)
        for y in (0.9, 0.5, 0.1, 1e-4):
            assert wave.tail(wave.quantile(y)) == pytest.approx(y, abs=1e-11)
    assert waves.MINIMAL_WAVE.quantile(1.0) == 0.0


def test_median_centred_tail():
    shifted = waves.MINIMAL_WAVE.median_centred_tail()
    assert shifted.tail(0.0) == pytest.approx(0.5, abs=1e-10)
    assert shifted.quantile(0.5) == pytest.approx(0.0, abs=1e-10)


def test_sampler_reproducible():
    a = waves.sample_pi_min(np.random.default_rng(123), 5)
    b = waves.sample_pi_min(np.random.default_rng(123), 5)
    np.testing.assert_array_equal(a.atoms, b.atoms)
    with pytest.raises(ValueError):
        waves.sample_pi_min(np.random.default_rng(0), 0)


def test_sampler_mean_and_w1():
    # Var(pi_min) = E[x^2] - 2 = 3 - 2 = 1, so SE = 1/sqrt(n)
    rng = np.random.default_rng(99)
    n = 4000
    mu = waves.sample_pi_min(rng, n)
    assert abs(mu.atoms.mean() - SQRT2) < 3.0 / math.sqrt(n)
    small = w1_to_analytic(waves.sample_pi_min(rng, 100), waves.MINIMAL_WAVE)
    large = w1_to_analytic(waves.sample_pi_min(rng, 10000), waves.MINIMAL_WAVE)
    assert large < small / 3
    assert large < 0.05


# ---------------------------------------------------------------------------
# quantile against the inverse it replaced
# ---------------------------------------------------------------------------

def bisection_quantile(wave, y):
    """Inverse tail by 64 bisection steps after doubling: the reference."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    lo = np.zeros_like(y_arr)
    hi = np.full_like(y_arr, 1.0)
    while np.any(wave.tail(hi) > y_arr):
        hi = np.where(wave.tail(hi) > y_arr, hi * 2.0, hi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = wave.tail(mid) >= y_arr
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return np.where(y_arr >= 1.0, 0.0, 0.5 * (lo + hi))


EPS = np.finfo(float).eps
# normal levels: below 2.2e-308 tail(x) carries too few bits to bisect
LEVELS = st.one_of(
    st.floats(1e-300, 1.0),
    st.integers(1, 52).map(lambda k: 1.0 - 2.0 ** -k),
    st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e))
SPEEDS = st.one_of(st.just(SQRT2), st.floats(SQRT2, 4.0, exclude_min=True))


@settings(max_examples=60, deadline=None)
@given(c=SPEEDS, levels=st.lists(LEVELS, min_size=1, max_size=32))
def test_quantile_matches_bisection(c, levels):
    wave = waves.travelling_wave(c)
    y = np.array(levels)
    x, ref = wave.quantile(y), bisection_quantile(wave, y)
    d = wave.density(ref)
    # the reference is fixed only to the x-spread of one ulp of tail: near
    # y = 1 that is ulp / density (~3e-9 at 1 - 2^-52), so compare in tail units
    assert np.all(np.abs(x - ref) * d
                  <= 1e-12 * np.maximum(1.0, ref) * d + 8.0 * EPS * y)
    # relative residual: the reference's, 1e-15, and up to two float steps of x
    res, res_ref = (np.abs(wave.tail(v) - y) / y for v in (x, ref))
    assert np.all(res <= res_ref + 1e-15 + 2.0 * np.spacing(x) * d / y)


@settings(max_examples=60, deadline=None)
@given(c=SPEEDS, xs=st.lists(st.one_of(st.floats(0.0, 400.0),
                                       st.floats(-30.0, 2.6).map(lambda e: 10.0 ** e)),
                             min_size=1, max_size=32))
def test_quantile_inverts_tail_property(c, xs):
    assert waves.quantile_inverts_tail(waves.travelling_wave(c), xs)


@settings(max_examples=40, deadline=None)
@given(c=SPEEDS, levels=st.lists(LEVELS, min_size=2, max_size=32))
def test_quantile_decreases_in_level(c, levels):
    y = np.sort(levels)
    x = waves.travelling_wave(c).quantile(y)
    # Newton's round-off may order the roots of adjacent levels by one ulp
    assert np.all(x[1:] <= x[:-1] + 2.0 * np.spacing(x[:-1]))
    assert np.all(x >= 0.0) and np.all(x[y == 1.0] == 0.0)


def test_quantile_at_subnormal_levels():
    # W_{-1}(-y/e) is -inf, NaN (at 4e-321, 7.8e-319) or finite down here,
    # and tail(x) has few bits: check log tail
    y = np.array([5e-324, 4.0118e-321, 1e-320, 7.8474e-319, 1e-310,
                  2.2250738585072014e-308])
    s = SQRT2 * waves.MINIMAL_WAVE.quantile(y)
    np.testing.assert_allclose(s - np.log1p(s), -np.log(y), rtol=1e-14)
    c, g = 2.0, math.sqrt(2.0)
    x = waves.travelling_wave(c).quantile(y)
    log_tail = -(c - g) * x + np.log(c + g - (c - g) * np.exp(-2 * g * x)) \
        - math.log(2 * g)
    np.testing.assert_allclose(log_tail, np.log(y), rtol=1e-14)


@settings(max_examples=30, deadline=None)
@given(levels=st.lists(LEVELS, min_size=1, max_size=16))
def test_median_centred_quantile(levels):
    shifted = waves.MINIMAL_WAVE.median_centred_tail()
    y = np.array(levels)
    x = shifted.quantile(y)
    assert np.all(x >= shifted.support_left)
    np.testing.assert_array_equal(x, waves.MINIMAL_WAVE.quantile(y) + shifted.shift)
    assert np.all(np.abs(shifted.tail(x) - y) <= 1e-11 * y + 8.0 * EPS)


@pytest.mark.parametrize("c", [SQRT2, 2.0])
@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, 1.0 + EPS, math.inf])
def test_quantile_rejects_bad_levels(c, bad):
    wave = waves.travelling_wave(c)
    with pytest.raises(ValueError, match="quantile level"):
        wave.quantile(bad)
    with pytest.raises(ValueError, match="quantile level"):
        wave.quantile([0.5, bad])
