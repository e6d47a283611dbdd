"""Free-boundary solver: conservation, wave transport, comparison calculus.

Unit-scale runs use coarsened grids; the acceptance suite re-runs the
headline checks at the default resolution.
"""

import contextlib
import dataclasses
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded, solveh_banded

from nbbmlab import fbpde, waves
from nbbmlab.measures import quantile

SQRT2 = math.sqrt(2.0)

COARSE = fbpde.FlowParams(dx=0.02, dt=1e-3, x_window=32.0)


def coarse_grid():
    return np.arange(-6.0, 24.0 + 1e-9, 0.02)


def test_flow_params_validation():
    with pytest.raises(ValueError):
        fbpde.FlowParams(dx=-0.01)
    with pytest.raises(ValueError, match="dt exceeds"):
        fbpde.FlowParams(dx=0.01, dt=0.5)
    with pytest.raises(ValueError, match="scheme"):
        fbpde.FlowParams(scheme="upwind")
    assert fbpde.FlowParams().tol_stretch == pytest.approx(0.02)


def test_initial_conditions():
    prof = fbpde.make_initial("pimin", COARSE)
    assert prof.mass() == pytest.approx(1.0, abs=1e-9)
    assert fbpde.make_initial("heaviside", COARSE) == ("delta", 0.0)
    assert fbpde.make_initial(("delta", 1.5), COARSE) == ("delta", 1.5)
    prof = fbpde.make_initial("exp:1.5", COARSE)
    assert prof.mass() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError, match="unknown initial"):
        fbpde.make_initial("gaussian", COARSE)
    with pytest.raises(ValueError, match="x_window too small"):
        fbpde.make_initial("exp:0.3", COARSE)


def test_cut_left_mass_mechanics():
    grid = np.arange(0.0, 10.0, 0.01)
    u = np.exp(-grid)                   # mass 1 - e^{-10} plus growth
    u_grown = u * math.exp(0.25)
    cut, boundary, _ = fbpde._cut_left_mass(grid, u_grown, 0.01)
    assert np.trapezoid(cut, grid) == pytest.approx(1.0, abs=1e-12)
    # exact boundary: e^{0.25} e^{-L} = 1 (up to the truncated far tail)
    assert boundary == pytest.approx(0.25, abs=1e-3)
    assert np.all(cut[grid < boundary - 0.011] == 0.0)
    with pytest.raises(ArithmeticError, match="scheme blowup"):
        fbpde._cut_left_mass(grid, 0.5 * u, 0.01)


def right_to_left_cut(grid, u, dx, lo=0, hi=None):
    """The left-mass cut summed right to left over the whole span: the
    mass right of every node, then a search for the first to reach 1."""
    end = u.size if hi is None else min(hi + 2, u.size)
    v = u[lo:end]
    back = np.empty(v.size)   # back[k]: mass right of node v.size - 1 - k
    back[0] = 0.0
    seg = back[1:]
    np.add(v[:0:-1], v[-2::-1], out=seg)
    seg *= 0.5
    seg *= dx
    np.add.accumulate(seg, out=seg)
    mass = back[-1]
    if mass < 1.0 and lo > 0:
        return None
    if not mass >= 1.0 - 1e-9:
        raise ArithmeticError("scheme blowup")
    last = v.size - 1 - int(back.searchsorted(0.0, side="right"))
    if mass < 1.0:
        v /= mass
        back /= mass
    k = int(back.searchsorted(1.0))
    j = v.size - 1 - k
    vj, b, tail = float(v[j]), float(v[j + 1]), float(back[k - 1])
    # the tail is quadratic in the distance s back from g_{j+1}
    a = 0.5 * (vj - b) / dx
    c = tail - 1.0
    if abs(a) < 1e-14 * max(b, 1.0):
        s = -c / b if b > 0 else dx
    else:
        disc = max(b * b - 4.0 * a * c, 0.0)
        s = 2.0 * (-c) / (b + math.sqrt(disc))
    s = min(max(s, 0.0), dx)
    boundary = float(grid[lo + j + 1]) - s
    w = (1.0 - tail) / dx - 0.5 * b
    v[:j] = 0.0
    if w >= 0.0:
        v[j], first = w, j
    else:
        v[j] = 0.0
        # the grid's last node has no cell on its right
        v[j + 1] = (1.0 - back[k - 2]) / dx - 0.5 * v[j + 2] \
            if j + 2 < v.size else 2.0 / dx
        first = j + 1
    last += int(v[last:].nonzero()[0][-1])
    return u, boundary, (lo + first, lo + last + 1)


def mass_right_of(v, dx):
    """Trapezoidal mass right of each node of v, summed right to left."""
    seg = 0.5 * (v[1:] + v[:-1]) * dx
    return np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))


@st.composite
def cut_fields(draw):
    """(grid, u, dx, lo, hi, kind): a density to cut, 0 outside u[lo:hi].

    kind "cell": scaled so that the cut lands at a drawn level inside a
    drawn cell, within the first few nodes of lo or anywhere right of
    them; "profile": a grown exp: or pic: start; "rescale": lo = 0 and a
    mass within 1e-9 below 1; "short": lo > 0 and a mass below 1.  Nonzero
    values are at least 0.1 before scaling and levels stay off the cells'
    ends: an error d in a mass moves the boundary by d / u there.
    """
    kind = draw(st.sampled_from(["cell", "profile", "rescale", "short"]))
    dx = draw(st.sampled_from([0.01, 0.0025]))
    if kind == "profile":
        spec = draw(st.one_of(
            st.floats(0.7, 6.0).map(lambda lam: f"exp:{lam}"),
            st.floats(1.42, 1.85).map(lambda c: f"pic:{c}")))
        _, init = fitting_window(
            fbpde.FlowParams(dx=dx, dt=dx / 20, x_window=10.0), spec)
        return init.grid, init.u * draw(st.floats(1.001, 3.0)), dx, 0, None, \
            kind
    n = draw(st.integers(12, 600))
    lo = 0 if kind == "rescale" else draw(st.integers(0, n // 3))
    hi = draw(st.integers(lo + 3, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = np.zeros(n)
    u[lo:hi] = (0.1 + rng.exponential(size=hi - lo)) * \
        (rng.random(hi - lo) > 0.2)
    u[hi - 1] = 0.1 + rng.exponential()
    if kind == "rescale":   # see test_cut_of_a_mass_just_below_one
        u[lo] = 0.1 + rng.exponential()
    grid = draw(st.floats(-10.0, 10.0)) + dx * np.arange(n)
    right = mass_right_of(u[lo:], dx)
    if kind == "cell":
        cells = np.flatnonzero(right[:-1] > right[1:])   # cells with mass
        if draw(st.booleans()) and cells[0] < 8:
            cells = cells[cells < 8]
        j = int(cells[draw(st.integers(0, cells.size - 1))])
        level = right[j + 1] + draw(st.floats(0.01, 0.99)) * \
            (right[j] - right[j + 1])
    elif kind == "rescale":
        level = right[0] / (1.0 - draw(st.floats(1e-12, 0.9e-9)))
    else:
        level = right[0] / draw(st.floats(0.5, 1.0 - 1e-9))
        lo = max(lo, 1)
    return grid, u / level, dx, lo, hi, kind


@settings(max_examples=200, deadline=None)
@given(field=cut_fields())
def test_cut_matches_the_right_to_left_cut(field):
    grid, u, dx, lo, hi, kind = field
    ref = right_to_left_cut(grid, u.copy(), dx, lo, hi)
    got = fbpde._cut_left_mass(grid, u.copy(), dx, lo, hi)
    if kind == "short":
        assert ref is None and got is None
        return
    (ref_u, ref_b, ref_span), (cut, boundary, span) = ref, got
    assert span == ref_span
    assert boundary == pytest.approx(ref_b, abs=1e-12)
    assert not cut[:span[0]].any() and not cut[span[1]:].any()
    # the mass right of the cut cell is the span's mass less the cells left
    # of it, so its round-off scales with the span's mass: 1 + O(dt) after
    # a step, up to ~1e4 in these fields.  Over 20,000 fields the mass was
    # at most 1.9e-13 and the first node's value 2.8e-15 / dx off per unit
    # of span mass
    span_mass = max(np.trapezoid(u[lo:], grid[lo:]), 1.0)
    assert np.trapezoid(cut, grid) == pytest.approx(1.0, abs=1e-12 * span_mass)
    # the first node's value is the mass left for it over dx; summed right
    # to left over 16001 nodes that mass is ~1e-15 off, so the value there
    # is held to the exactly summed mass, and to the other cut's within dx
    first, scale = span[0], np.abs(ref_u).max()
    rest = dx * (math.fsum(cut[first + 1:].tolist()) - 0.5 * cut[-1])
    exact = (1.0 - rest) / (dx if first else 0.5 * dx)
    assert cut[first] == pytest.approx(exact, abs=1e-12 * scale)
    if first == 0:
        # the right-to-left cut counts a half-cell left of the grid's first
        # node, which has none, and so keeps half the value there
        ref_u[0] *= 2.0
    assert abs(cut[first] - ref_u[first]) * dx <= 1e-12 * span_mass
    cut[first] = ref_u[first]
    assert np.all(np.abs(cut - ref_u) <= 1e-12 * scale)


def test_cut_of_a_mass_just_below_one():
    # a mass round-off shy of 1 is rescaled to 1 and nothing is cut: the
    # boundary is the zero node where the support starts, exactly.  The
    # mass right of that node is flat there, so an error d in it would
    # move the boundary by ~sqrt(d): the right-to-left cut's is ~1e-9 off
    grid = np.arange(-2.0, 10.0, 0.01)
    u = np.where(grid > 0.005, np.exp(-grid), 0.0)
    u *= (1.0 - 1e-10) / np.trapezoid(u, grid)
    cut, boundary, span = fbpde._cut_left_mass(grid, u.copy(), 0.01)
    start = int(np.flatnonzero(u)[0]) - 1
    assert boundary == grid[start] and span == (start, u.size)
    np.testing.assert_allclose(cut, u / (1.0 - 1e-10), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("lo", [0, 5])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_cut_of_a_blown_up_field_raises(bad, lo):
    grid = np.arange(0.0, 10.0, 0.01)
    for node in (lo, lo + 300, grid.size - 1):
        u = np.exp(-grid) * 2.0
        u[node] = bad
        with pytest.raises(ArithmeticError, match="scheme blowup"):
            fbpde._cut_left_mass(grid, u, 0.01, lo, grid.size - 2)


@pytest.mark.parametrize("n", [1, 2])
def test_grid_under_three_nodes_rejected(n):
    with pytest.raises(ValueError, match="at least 3 nodes"):
        fbpde._CrankNicolson(n, 0.01, 5e-4)
    prof = fbpde.Profile(0.01 * np.arange(n), np.ones(n), 0.0, 0.0)
    with pytest.raises(ValueError, match="at least 3 nodes"):
        fbpde.make_initial(prof, fbpde.FlowParams())


@pytest.mark.parametrize("bad", [math.inf, math.nan, -1e-3],
                         ids=["inf", "nan", "negative"])
def test_invalid_profile_rejected_before_any_step(bad):
    params = fbpde.FlowParams()
    prof = fbpde.make_initial("pimin", params)
    prof.u[500] = bad
    with pytest.raises(ValueError, match="finite and >= 0"):
        fbpde.solve_density(prof, 0.01, params)


@pytest.mark.parametrize("dx", [0.005, 0.02])
def test_profile_on_another_grid_rejected(dx):
    # the cut and the Crank-Nicolson matrix read params.dx: a finer profile
    # would lose half its mass to the first cut, a coarser one blow up
    params = fbpde.FlowParams()
    prof = fbpde.make_initial("pimin", dataclasses.replace(params, dx=dx))
    with pytest.raises(ValueError, match="spacing dx"):
        fbpde.solve_density(prof, 0.01, params)


def test_split_cut_leaves_the_callers_profile_alone():
    params = fbpde.FlowParams()
    prof = fbpde.make_initial("exp:1.2", params)
    prof.u *= 1.5            # mass 1.5: the first cut zeroes a third of it
    before = prof.u.tobytes()
    fbpde.solve_density(prof, 0.01, params)
    fbpde._SplitCutStepper(prof, params)
    assert prof.u.tobytes() == before


def test_mass_conserved_along_run():
    traj = fbpde.solve_density("pimin", 1.0, COARSE,
                               save_times=[0.25, 0.5, 0.75, 1.0])
    for prof in traj.profiles:
        assert prof.mass() == pytest.approx(1.0, abs=1e-6)


def test_travelling_wave_speed_and_shape():
    traj = fbpde.solve_density("pimin", 2.0, COARSE, save_times=[1.0, 2.0])
    l0 = traj.boundary[0]
    speed = (traj.final.boundary - l0) / 2.0
    assert speed == pytest.approx(SQRT2, rel=0.02)
    xs = np.linspace(0.0, 12.0, 600)
    for prof in traj.profiles:
        interp = np.interp(xs + prof.boundary, prof.grid, prof.u)
        drift = np.max(np.abs(interp - waves.pi_min(xs)))
        assert drift < 5.0 * (COARSE.dx + COARSE.dt) * max(prof.t, 1.0)


def test_pi_c_wave_speed():
    wide = fbpde.FlowParams(dx=0.02, dt=1e-3, x_window=48.0)
    traj = fbpde.solve_density("pic:2.0", 1.5, wide)
    speed = (traj.final.boundary - traj.boundary[0]) / 1.5
    assert speed == pytest.approx(2.0, rel=0.02)


def test_heaviside_tail_strictly_decreasing():
    traj = fbpde.solve_cdf("heaviside", 0.5, COARSE)
    tail = traj.final
    l_t = traj.boundary[-1]
    right = tail.values[tail.grid > l_t + 3 * COARSE.dx]
    right = right[right > 1e-9]
    assert np.all(np.diff(right) < 0.0)


def test_cdf_travelling_wave_transport():
    grid = coarse_grid()
    u0 = fbpde.wave_tail_on_grid(waves.MINIMAL_WAVE, grid)
    traj = fbpde.solve_cdf(u0, 1.0, COARSE)
    xs = np.linspace(0.0, 12.0, 500)
    moved = traj.final.value(xs + SQRT2 * 1.0)
    assert np.max(np.abs(moved - waves.MINIMAL_WAVE.tail(xs))) < 0.02


def test_split_vs_penalised_agree():
    grid = coarse_grid()
    u0 = fbpde.exp_tail(grid, 1.0)
    split = fbpde.solve_cdf(u0, 1.0, COARSE)
    pen = fbpde.solve_cdf(u0, 1.0, fbpde.FlowParams(
        dx=0.02, dt=1e-3, x_window=32.0, scheme="penalised", n_penalty=64))
    xs = np.linspace(-4.0, 20.0, 1000)
    gap = np.max(np.abs(split.final.value(xs) - pen.final.value(xs)))
    assert gap < 1.0 / 64 + 2 * COARSE.dx


def test_penalised_reaction_exact_solution():
    # against a fine RK4 integration of U' = U - U^n
    n, dt = 8, 0.2
    for u0 in (0.05, 0.4, 0.9, 0.999):
        u = u0
        steps = 4000
        h = dt / steps
        for _ in range(steps):
            k1 = u - u ** n
            k2 = (u + 0.5 * h * k1) - (u + 0.5 * h * k1) ** n
            k3 = (u + 0.5 * h * k2) - (u + 0.5 * h * k2) ** n
            k4 = (u + h * k3) - (u + h * k3) ** n
            u += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        got = fbpde._penalised_reaction(np.array([u0]), n, dt)[0]
        assert got == pytest.approx(u, rel=1e-9)
    np.testing.assert_array_equal(
        fbpde._penalised_reaction(np.array([0.0, 1.0]), n, dt), [0.0, 1.0])


def flow_phi(u0, t):
    """Phi_t(u0): the solution at time t recentred so its median sits at 0."""
    prof = fbpde.solve_density(u0, t, COARSE).final
    return prof.shifted(-prof.median())


def test_flow_phi_fixed_point_and_centring():
    prof = flow_phi("pimin", 0.5)
    assert abs(prof.median()) < 1e-9
    ref = waves.MINIMAL_WAVE.median_centred_tail()
    xs = np.linspace(-1.5, 12.0, 500)
    assert np.max(np.abs(prof.tail().value(xs) - ref.tail(xs))) < 0.02


def test_flow_phi_heaviside_approaches_minimal_wave():
    early = flow_phi("heaviside", 1.0)
    late = flow_phi("heaviside", 6.0)
    ref = waves.MINIMAL_WAVE.median_centred_tail()
    xs = np.linspace(-2.0, 12.0, 600)
    d_early = np.max(np.abs(early.tail().value(xs) - ref.tail(xs)))
    d_late = np.max(np.abs(late.tail().value(xs) - ref.tail(xs)))
    assert d_late < d_early / 2
    assert d_late < 0.05


# ---------------------------------------------------------------------------
# stretching order
# ---------------------------------------------------------------------------

def test_stretch_ge_reflexive_and_examples():
    grid = coarse_grid()
    pimin = fbpde.wave_tail_on_grid(waves.MINIMAL_WAVE, grid)
    heavi = fbpde.step_tail(grid, 0.0)
    tol = COARSE.tol_stretch
    assert fbpde.stretch_ge(pimin, pimin, tol)
    assert fbpde.stretch_ge(pimin, heavi, tol)
    assert not fbpde.stretch_ge(heavi, pimin, tol)


def test_stretch_ge_dilation():
    grid = coarse_grid()
    e1 = fbpde.exp_tail(grid, 1.0)
    assert fbpde.stretch_ge(fbpde.dilate_tail(e1, 2.0), e1, COARSE.tol_stretch)
    assert not fbpde.stretch_ge(e1, fbpde.dilate_tail(e1, 2.0),
                                COARSE.tol_stretch)


def test_stretch_order_is_partial():
    # exp(1) and the minimal wave are incomparable: the wave has quadratic
    # contact at its boundary (flatter near y = 1) while the exponential
    # only wins in the far tail
    grid = coarse_grid()
    e1 = fbpde.exp_tail(grid, 1.0)
    pimin = fbpde.wave_tail_on_grid(waves.MINIMAL_WAVE, grid)
    assert not fbpde.stretch_ge(e1, pimin, COARSE.tol_stretch)
    assert not fbpde.stretch_ge(pimin, e1, COARSE.tol_stretch)


def test_stretch_ge_exponential_rates():
    # slower decay is more stretched; verified against the quantile form:
    # for U_lam, U(x + a^y) = y e^{-lam x}, monotone in lam at fixed x > 0
    grid = coarse_grid()
    e1 = fbpde.exp_tail(grid, 1.0)
    e2 = fbpde.exp_tail(grid, 2.0)
    assert fbpde.stretch_ge(e1, e2, COARSE.tol_stretch)
    assert not fbpde.stretch_ge(e2, e1, COARSE.tol_stretch)


def test_stretching_preserved_by_flow():
    grid = coarse_grid()
    pimin = fbpde.wave_tail_on_grid(waves.MINIMAL_WAVE, grid)
    heavi = fbpde.step_tail(grid, 0.0)
    rep = fbpde.check_stretching_preserved(pimin, heavi, 1.0, COARSE)
    assert rep.ok
    rep = fbpde.check_stretching_preserved(pimin, pimin, 0.5, COARSE)
    assert rep.ok
    e1 = fbpde.exp_tail(grid, 1.0)
    rep = fbpde.check_stretching_preserved(e1, heavi, 1.0, COARSE)
    assert rep.ok
    with pytest.raises(ValueError, match="not stretch-ordered"):
        fbpde.check_stretching_preserved(heavi, pimin, 1.0, COARSE)


def test_boundary_comparison():
    grid = coarse_grid()
    pimin = fbpde.wave_tail_on_grid(waves.MINIMAL_WAVE, grid)
    heavi = fbpde.step_tail(grid, 0.0)
    rep = fbpde.check_boundary_comparison(pimin, heavi, 0.75, COARSE)
    assert rep.ok
    assert rep.worst_margin > 0.0   # dU - dV
    du = fbpde.solve_cdf(pimin, 0.75, COARSE).boundary[-1] - quantile(pimin, 1.0)
    assert du == pytest.approx(SQRT2 * 0.75, rel=0.03)
    # equal inputs: equal displacement
    rep = fbpde.check_boundary_comparison(pimin, pimin, 0.5, COARSE)
    assert rep.ok and abs(rep.worst_margin) < 1e-9


def test_boundary_comparison_wave_pair_rate():
    grid = coarse_grid()
    wide = fbpde.FlowParams(dx=0.02, dt=1e-3, x_window=48.0)
    grid_w = np.arange(-4.0, 42.0 + 1e-9, 0.02)
    pic = fbpde.wave_tail_on_grid(waves.travelling_wave(2.0), grid_w)
    pimin = fbpde.wave_tail_on_grid(waves.MINIMAL_WAVE, grid_w)
    t = 0.75
    rep = fbpde.check_boundary_comparison(pic, pimin, t, wide)
    assert rep.ok
    assert rep.worst_margin == pytest.approx((2.0 - SQRT2) * t, abs=0.1)


def test_comparison_principle_pointwise():
    grid = coarse_grid()
    low = fbpde.exp_tail(grid, 2.0)
    high = fbpde.wave_tail_on_grid(waves.MINIMAL_WAVE, grid)
    assert np.all(low.values <= high.values + 1e-12)
    ut = fbpde.solve_cdf(low, 0.75, COARSE).final
    vt = fbpde.solve_cdf(high, 0.75, COARSE).final
    xs = np.linspace(-4, 20, 800)
    assert np.all(ut.value(xs) <= vt.value(xs) + 2 * COARSE.dx)


def test_boundary_monotone_from_heaviside():
    traj = fbpde.solve_density("heaviside", 3.0, COARSE)
    ts = np.arange(0.25, 3.0 - 0.5, 0.25)
    h = 0.5
    deltas = [traj.boundary_at(t + h) - traj.boundary_at(t) for t in ts]
    assert np.all(np.diff(deltas) > -3 * COARSE.dx)


def test_richardson_consistency():
    coarse = fbpde.FlowParams(dx=0.04, dt=2e-3, x_window=32.0)
    fine = fbpde.FlowParams(dx=0.02, dt=1e-3, x_window=32.0)
    l_coarse = fbpde.solve_density("pimin", 1.0, coarse).final.boundary
    l_fine = fbpde.solve_density("pimin", 1.0, fine).final.boundary
    assert abs(l_coarse - l_fine) < 0.05


def test_sensitivity_bound():
    rep = fbpde.sensitivity_check("pimin", "pimin", 0.5, COARSE, n_atoms=300)
    assert rep.ok and rep.worst_margin == 0.0   # W_0 = 0 and W_t = 0
    for t in (0.5, 1.0, 2.0):
        rep = fbpde.sensitivity_check("heaviside", "pimin", t, COARSE,
                                      n_atoms=300)
        assert rep.ok, (t, rep.worst_margin)


def test_sensitivity_translation_is_tight():
    # shifted copies: the flow is translation-equivariant, lhs stays min(eps, 1)
    prof = fbpde.make_initial("pimin", COARSE)
    eps = 10 * COARSE.dx
    rep = fbpde.sensitivity_check(prof, prof.shifted(eps), 0.5, COARSE,
                                  n_atoms=300)
    assert rep.ok
    lhs = math.exp(0.5) * eps - rep.worst_margin   # rhs = e^t W_0, W_0 = eps
    assert lhs == pytest.approx(eps, abs=2 * COARSE.dx)


def test_conjecture_experiment_report():
    rep = fbpde.conjecture_experiment(2.0, 1.0)
    assert rep.times.shape == (10,)
    assert np.all(np.isfinite(rep.boundary_over_t))
    assert np.all(np.isfinite(rep.sup_distance))
    assert rep.lam == 2.0


def test_save_before_warm_start_rejected():
    with pytest.raises(ValueError, match="warm-start"):
        fbpde.solve_density("heaviside", 1.0, COARSE, save_times=[1e-6])


def test_save_after_t_end_rejected():
    for solve in (fbpde.solve_density, fbpde.solve_cdf):
        with pytest.raises(ValueError, match="after t_end"):
            solve("pimin", 0.5, COARSE, save_times=[0.25, 2.0])


def test_profile_quantile_measure():
    prof = fbpde.make_initial("pimin", COARSE)
    mu = prof.quantile_measure(500)
    assert mu.n == 500
    assert mu.atoms.mean() == pytest.approx(SQRT2, abs=0.02)


# ---------------------------------------------------------------------------
# save-time loop and the span solve
# ---------------------------------------------------------------------------

class ClockStepper:
    """Stands in for a scheme in fbpde._run: only the clock moves."""

    def __init__(self, dt):
        self.params = SimpleNamespace(dt=dt)
        self.t = 0.0
        self.boundary = 0.0
        self.steps = []

    def step(self, dt):
        self.steps.append(dt)
        self.t += dt

    def snapshot(self):
        return self.t


def test_run_takes_no_round_off_step():
    # 48000 additions of 6.25e-5 fall 1.3e-12 short of 3
    clock = ClockStepper(6.25e-5)
    snaps, snap_times, times, _ = fbpde._run(clock, 3.0, ())
    assert len(clock.steps) == 48000 and set(clock.steps) == {6.25e-5}
    assert snaps == [3.0] and list(snap_times) == [3.0] and times[-1] == 3.0
    # a save time between step points still gets its short step
    clock = ClockStepper(0.25)
    _, snap_times, times, _ = fbpde._run(clock, 1.0, (0.6,))
    assert len(clock.steps) == 5 and min(clock.steps) == pytest.approx(0.1)
    assert list(snap_times) == [0.6, 1.0] and times.size == 6


class FullSolveCN:
    """The Crank-Nicolson step as one L D L^T solve (LAPACK ptsv) of the
    interior rows, with the left value folded into row 1."""

    def __init__(self, n, dx, dt, left_value=0.0):
        r = dt / (4.0 * dx * dx)
        self.r = r
        self.left_value = left_value
        ab = np.empty((2, n - 2))   # upper form: ab[0, 1:] is off the diagonal
        ab[0] = -r
        ab[1] = 1.0 + 2.0 * r
        self.ab = ab

    def step(self, v, lo=0, hi=None, carry=True):
        x = np.zeros_like(v)
        x[0] = self.left_value
        rhs = v[1:-1] + self.r * (v[:-2] - 2.0 * v[1:-1] + v[2:])
        if self.left_value:
            rhs[0] += self.r * self.left_value
        # solveh_banded takes at least two rows; ptsv scales a single one
        # by 1 / d
        x[1:-1] = solveh_banded(self.ab, rhs) if rhs.size > 1 \
            else rhs * (1.0 / self.ab[1])
        return x, 0, v.size


class CutWindowCN:
    """The span solve's oracle: FullSolveCN of the window cut at the node
    SHORT_END rows right of the stencil's reach (or at the window's last
    node), with 0 held there and past it.  Without the left carry the rows
    left of the stencil's first row are 0 too, as the span solve leaves
    them; a call with (0, n) is the full solve."""

    SHORT_END = fbpde._CrankNicolson.SHORT_END

    def __init__(self, n, dx, dt, left_value=0.0):
        self.args = (dx, dt, left_value)

    def step(self, v, lo, hi, carry=True):
        n = v.size
        first = max(lo - 1, 1)
        end = min(min(hi + 1, n - 1) + self.SHORT_END, n - 1)
        # a lone last interior row is solved with the row before it
        start = 0 if carry or self.args[2] else min(first, n - 3)
        x = np.zeros_like(v)
        x[:end + 1], _, _ = FullSolveCN(end + 1, *self.args).step(v[:end + 1])
        x[:start] = 0.0
        return x, start, end


class PivotedFullSolveCN:
    """The Crank-Nicolson step as one LU solve with partial pivoting
    (LAPACK gbsv) over the whole window, Dirichlet rows included."""

    def __init__(self, n, dx, dt, left_value=0.0):
        r = dt / (4.0 * dx * dx)
        self.r = r
        self.left_value = left_value
        ab = np.zeros((3, n))
        ab[0, 1:] = -r
        ab[1, :] = 1.0 + 2.0 * r
        ab[2, :-1] = -r
        ab[1, 0] = ab[1, -1] = 1.0
        ab[0, 1] = ab[2, -2] = 0.0
        self.ab = ab

    def step(self, v, lo=0, hi=None, carry=True):
        rhs = v.copy()
        rhs[1:-1] = v[1:-1] + self.r * (v[:-2] - 2.0 * v[1:-1] + v[2:])
        rhs[0] = self.left_value
        rhs[-1] = 0.0
        return solve_banded((1, 1), self.ab, rhs), 0, v.size


# r = dt / (4 dx^2) = 1.25 (rho < 1/2) and 2.5 (rho > 1/2), 4001 nodes each
SPAN_GRIDS = [fbpde.FlowParams(dx=0.01, dt=5e-4, x_window=40.0),
              fbpde.FlowParams(dx=0.0025, dt=6.25e-5, x_window=10.0)]


@st.composite
def zero_padded_fields(draw, n=4001):
    """A non-negative field, 0 outside field[lo:hi], with its (lo, hi).

    At least 50 zero nodes on the left keep the absorbing left end from
    taking mass in a few steps.
    """
    lo = draw(st.integers(50, n // 2))
    hi = lo + draw(st.integers(3, n // 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    v = np.zeros(n)
    v[lo:hi] = rng.exponential(size=hi - lo) * (rng.random(hi - lo) > 0.2)
    v[lo] = v[hi - 1] = 1.0
    return v * 10.0 ** draw(st.integers(-250, 250)), lo, hi


@settings(max_examples=40, deadline=None)
@given(field=zero_padded_fields(), left_value=st.sampled_from([0.0, 1.0]),
       carry=st.booleans())
@pytest.mark.parametrize("params", SPAN_GRIDS, ids=["r1.25", "r2.5"])
def test_span_solve_matches_full_solve(params, field, left_value, carry):
    # the full solve of the window cut at the returned end, 0 held there
    v, lo, hi = field
    cn = fbpde._CrankNicolson(v.size, params.dx, params.dt, left_value)
    x, xlo, end = cn.step(v, lo, hi, carry)
    ref, _, _ = FullSolveCN(end + 1, params.dx, params.dt,
                            left_value).step(v[:end + 1])
    assert end == min(hi + 1 + cn.SHORT_END, v.size - 1)
    # without the carry or a left value the solve starts at the stencil's
    # left row, where the full solve's x is not 0
    assert xlo == (0 if carry or left_value else lo - 1)
    assert x[xlo:end].tobytes() == ref[xlo:end].tobytes()
    assert not x[:xlo].any() and not x[end:].any()


@settings(max_examples=15, deadline=None)
@given(field=zero_padded_fields(), k=st.integers(1, 6))
@pytest.mark.parametrize("params", SPAN_GRIDS, ids=["r1.25", "r2.5"])
def test_span_steppers_match_full_solve_steppers(params, field, k):
    v, _, _ = field
    grid = params.dx * np.arange(v.size)
    prof = fbpde.Profile(grid, v / np.trapezoid(v, grid), 0.0, 0.0)
    tail = 0.8 * np.minimum(v / v.max(), 1.0)
    pen_params = fbpde.FlowParams(dx=params.dx, dt=params.dt,
                                  x_window=params.x_window, scheme="penalised")

    def run(cn):
        with mock.patch.object(fbpde, "_CrankNicolson", cn):
            split = fbpde._SplitCutStepper(prof, params)
            pen = fbpde._PenalisedStepper(fbpde.step_tail(grid, grid[1]),
                                          pen_params)
            pen.v = tail.copy()
            for _ in range(k):
                split.step(params.dt)
                pen.step(params.dt)
        return split, pen

    # the penalised step solves (0, n): its oracle is the full solve
    (split, pen), (split_ref, pen_ref) = run(fbpde._CrankNicolson), \
        run(CutWindowCN)
    assert split.u.tobytes() == split_ref.u.tobytes()
    assert split.grid.tobytes() == split_ref.grid.tobytes()
    assert split.boundary == split_ref.boundary
    lo, hi = split.span
    assert not split.u[:lo].any() and not split.u[hi:].any()
    assert pen.v.tobytes() == pen_ref.v.tobytes()
    assert pen.boundary == pen_ref.boundary


def split_cut_states(init, params, patch, k=20):
    """(u bytes, boundary, span) after each of k split-cut steps."""
    with patch:
        split = fbpde._SplitCutStepper(init, params)
        states = []
        for _ in range(k):
            split.step(params.dt)
            states.append((split.u.tobytes(), split.boundary, split.span))
    return states


def test_span_stepper_falls_back_to_the_full_solve():
    # the warm-started point mass spreads left: its boundary passes the
    # stencil's left row, so the cut needs the left carry and the step
    # solves again with it, from the window's first row
    params = SPAN_GRIDS[1]
    init = ("delta", 0.0)
    carries = []
    cn_step = fbpde._CrankNicolson.step

    def spy(self, v, lo, hi, carry=True):
        carries.append(carry)
        return cn_step(self, v, lo, hi, carry)

    states = split_cut_states(
        init, params, mock.patch.object(fbpde._CrankNicolson, "step", spy))
    assert carries.count(True) >= 1
    assert states == split_cut_states(
        init, params, mock.patch.object(fbpde, "_CrankNicolson", CutWindowCN))


def test_cn_solver_reused_within_round_off_of_dt():
    # conjecture_experiment(2.0, 2.0) ends two saves with steps ~3e-13 short
    # of dt; they reuse dt's factorisation, each with its own growth factor
    split = fbpde._SplitCutStepper("pimin", COARSE)
    cn, _ = split._solver(COARSE.dt)
    near = COARSE.dt * (1.0 - 3e-13)
    assert split._solver(near) == (cn, math.exp(near))
    assert split._solver(0.9 * COARSE.dt)[0] is not cn
    assert split._solver(COARSE.dt)[0] is cn


def test_span_stepper_at_the_window_end_matches_full_solve():
    # pimin's density stays above the tail floor up to the window's last
    # interior node, so the window is cut at its last node: the solve is
    # the full solve
    params = SPAN_GRIDS[0]
    init = fbpde.make_initial("pimin", params)
    states = split_cut_states(init, params, contextlib.nullcontext())
    assert all(span[1] == init.u.size - 1 for _, _, span in states)
    assert states == split_cut_states(
        init, params, mock.patch.object(fbpde, "_CrankNicolson", CutWindowCN))


def decay_factor(params):
    """rho = r / d_inf, the per-node decay of the CN forward sweep."""
    r = params.dt / (4.0 * params.dx ** 2)
    return r / (0.5 * (1.0 + 2.0 * r + math.sqrt(1.0 + 4.0 * r)))


def solve_ends(cn, v, lo, hi, carry=True):
    """cn.step(v, lo, hi, carry) and the right end of each solve it ran."""
    ends = []
    solve = cn._solve

    def spy(rhs, lo, hi):
        ends.append(hi)
        solve(rhs, lo, hi)

    with mock.patch.object(cn, "_solve", spy):
        return cn.step(v, lo, hi, carry), ends


@pytest.mark.parametrize("edge", ["creeping", "order_one"])
def test_span_solve_stops_short_of_the_window_end(edge):
    # a body of O(1) values whose right edge either decays by rho per node
    # into the subnormals, as an unfloored split-cut density's does, or
    # stops at O(1), as a floored one's does
    params = SPAN_GRIDS[1]
    n, lo, hi = 4001, 1000, 1400
    v = np.zeros(n)
    v[lo:hi] = 1.0
    if edge == "creeping":
        tail = decay_factor(params) ** np.arange(1.0, 1500.0)
        tail = tail[tail > 0.0]
        v[hi:hi + tail.size] = tail
        hi += tail.size
    cn = fbpde._CrankNicolson(n, params.dx, params.dt)
    (x, xlo, xend), ends = solve_ends(cn, v, lo, hi)
    z = hi + 1   # the stencil's reach
    assert ends == [z + cn.SHORT_END] and xend == z + cn.SHORT_END
    assert not x[xend:].any()
    # the cut end moves no row the data reaches: its effect shrinks by
    # about rho^2 a row away from it and is below round-off at z.  The
    # creeping edge's full solve is +0.0 from the end on
    ref, _, _ = FullSolveCN(n, params.dx, params.dt).step(v)
    stop = n if edge == "creeping" else z
    assert x[xlo:stop].tobytes() == ref[xlo:stop].tobytes()


@st.composite
def creeping_edge_fields(draw, rho, n=4001, signed=False):
    """A non-negative field, 0 left of lo, of order scale on a body, then
    decaying by rho per node until it underflows to 0 at hi; signed, each
    node's sign is drawn at random."""
    lo = draw(st.integers(50, n // 2))
    body = draw(st.integers(3, n // 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-300, 0))
    tail = scale * rho ** np.arange(1.0, n)
    tail = tail[:np.count_nonzero(tail)]
    v = np.zeros(n)
    v[lo:lo + body] = scale * rng.exponential(size=body)
    hi = min(lo + body + tail.size, n - 1)
    v[lo + body:hi] = tail[:hi - lo - body]
    if signed:
        v[lo:hi] *= rng.choice((-1.0, 1.0), size=hi - lo)
    return v, lo, hi


@settings(max_examples=40, deadline=None)
@given(data=st.data(), carry=st.booleans())
@pytest.mark.parametrize("params", SPAN_GRIDS, ids=["r1.25", "r2.5"])
def test_span_solve_of_creeping_edges_matches_full_solve(params, data, carry):
    v, lo, hi = data.draw(creeping_edge_fields(decay_factor(params)))
    x, lo, end = fbpde._CrankNicolson(v.size, params.dx, params.dt).step(
        v, lo, hi, carry)
    ref, _, _ = FullSolveCN(end + 1, params.dx, params.dt).step(v[:end + 1])
    # bytes, so -0.0 and +0.0 differ
    assert x[lo:end].tobytes() == ref[lo:end].tobytes()
    assert not x[:lo].any() and not x[end:].any()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), carry=st.booleans())
@pytest.mark.parametrize("params", SPAN_GRIDS, ids=["r1.25", "r2.5"])
def test_span_solve_of_signed_creeping_edges_matches_full_solve(params, data,
                                                                carry):
    # past a negative edge the forward sweep stays negative; at r = 2.5 it
    # sticks at -1 subnormal ulp, which back substitution divides to -0.0
    # down to the cut window's end: the step gives those -0.0
    v, lo, hi = data.draw(creeping_edge_fields(decay_factor(params),
                                               signed=True))
    x, lo, end = fbpde._CrankNicolson(v.size, params.dx, params.dt).step(
        v, lo, hi, carry)
    ref, _, _ = FullSolveCN(end + 1, params.dx, params.dt).step(v[:end + 1])
    assert x[lo:end].tobytes() == ref[lo:end].tobytes()
    assert not x[:lo].any() and not x[end:].any()


@settings(max_examples=40, deadline=None)
@given(field=zero_padded_fields(), left_value=st.sampled_from([0.0, 1.0]),
       carry=st.booleans())
@pytest.mark.parametrize("params", SPAN_GRIDS, ids=["r1.25", "r2.5"])
def test_span_solve_is_the_pivoted_lu_solve_to_round_off(params, field,
                                                         left_value, carry):
    # L D L^T of the interior rows against LU with partial pivoting over
    # the whole window: the same system, so the same solution to round-off
    v, lo, hi = field
    x, lo, hi = fbpde._CrankNicolson(v.size, params.dx, params.dt,
                                     left_value).step(v, lo, hi, carry)
    ref, _, _ = PivotedFullSolveCN(v.size, params.dx, params.dt,
                                   left_value).step(v)
    assert np.all(np.abs(x[lo:] - ref[lo:]) <= 1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("left_value", [0.0, 1.0])
@pytest.mark.parametrize("carry", [False, True])
@pytest.mark.parametrize("n", [3, 4])
def test_tiny_window_solves(n, carry, left_value):
    # one or two interior rows; without the carry, a field at the last node
    # alone reaches only the last interior row, whose lone solve would
    # scale by 1 / d where the full solve divides
    rng = np.random.default_rng(n)
    cn = fbpde._CrankNicolson(n, 0.01, 5e-4, left_value)
    for lo, hi in [(0, n)] + [(k, k + 1) for k in range(1, n)]:
        v = np.zeros(n)
        v[lo:hi] = rng.exponential(size=hi - lo)
        x, xlo, xhi = cn.step(v, lo, hi, carry)
        ref, _, _ = FullSolveCN(n, 0.01, 5e-4, left_value).step(v)
        assert x[xlo:].tobytes() == ref[xlo:].tobytes()
        lu, _, _ = PivotedFullSolveCN(n, 0.01, 5e-4, left_value).step(v)
        assert np.all(np.abs(x[xlo:] - lu[xlo:]) <= 1e-13 * np.abs(lu).max())


def fitting_window(params, spec):
    """params with the window doubled until the initial tail fits in it."""
    while True:
        try:
            return params, fbpde.make_initial(spec, params)
        except ValueError:   # x_window too small for the initial right tail
            params = dataclasses.replace(params,
                                         x_window=2.0 * params.x_window)


@settings(max_examples=12, deadline=None)
@given(spec=st.one_of(st.floats(0.7, 6.0).map(lambda lam: f"exp:{lam}"),
                      st.floats(1.42, 1.85).map(lambda c: f"pic:{c}")),
       k=st.integers(1, 40))
@pytest.mark.parametrize("grid", SPAN_GRIDS, ids=["r1.25", "r2.5"])
def test_split_cut_invariants_after_every_step(grid, spec, k):
    params, init = fitting_window(grid, spec)
    split = fbpde._SplitCutStepper(init, params)
    for _ in range(k):
        split.step(params.dt)
        prof = split.snapshot()
        assert prof.mass() == pytest.approx(1.0, abs=1e-9)
        assert np.all(prof.u >= 0.0)
        assert np.all(np.diff(prof.tail().values) <= 0.0)
        assert math.isfinite(prof.boundary)


@settings(max_examples=20, deadline=None)
@given(spec=st.one_of(st.just("heaviside"),
                      st.floats(0.7, 6.0).map(lambda lam: f"exp:{lam}"),
                      st.floats(1.42, 1.85).map(lambda c: f"pic:{c}"),
                      st.floats(-5.0, 5.0).map(lambda a: ("delta", a))),
       k=st.integers(1, 300))
@pytest.mark.parametrize("grid", SPAN_GRIDS, ids=["r1.25", "r2.5"])
def test_tail_floor_moves_the_split_cut_by_round_off(grid, spec, k):
    # against the unfloored full solve, the old exact path.  The bound is
    # the pde battery's gate; over 200 such draws L moved by at most
    # 7.0e-14 and u by 2.0e-13
    params, init = fitting_window(grid, spec)
    with mock.patch.object(fbpde, "_CrankNicolson", FullSolveCN), \
            mock.patch.object(fbpde, "TAIL_FLOOR", 0.0):
        exact = fbpde._SplitCutStepper(init, params)
        boundary = []
        for _ in range(k):
            exact.step(params.dt)
            boundary.append(exact.boundary)
    split = fbpde._SplitCutStepper(init, params)
    for ref in boundary:
        split.step(params.dt)
        assert split.boundary == pytest.approx(ref, abs=1e-12)
        above = np.flatnonzero(split.u >= fbpde.TAIL_FLOOR)
        assert not split.u[above[-1] + 1:].any()
    assert split.grid.tobytes() == exact.grid.tobytes()
    assert np.abs(split.u - exact.u).max() <= 1e-12
    # within the cut's rescale guard: a window shift to the left drops the
    # density right of the new window, 6.7e-12 in a step from exp:0.75
    assert split.snapshot().mass() == pytest.approx(1.0, abs=1e-9)
