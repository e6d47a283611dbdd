"""Killed Brownian motion: exponential killing law and survivor profiles."""

import math

import numpy as np
import pytest
from scipy import stats

from nbbmlab import fbpde, killedbm, waves
from nbbmlab.measures import from_positions, w1_to_analytic

SQRT2 = math.sqrt(2.0)


def test_boundary_path_validation_and_eval():
    bd = killedbm.BoundaryPath([0.0, 1.0, 2.0], [0.0, -1.0, 0.5])
    assert bd.value(0.5) == -0.5
    assert bd.value(2.0) == 0.5
    with pytest.raises(ValueError, match="undefined"):
        bd.value(2.5)
    with pytest.raises(ValueError, match="increasing"):
        killedbm.BoundaryPath([0.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        killedbm.BoundaryPath([0.0, 1.0], [0.0, np.inf])


def test_boundary_csv_roundtrip(tmp_path):
    # the layout of the boundary.csv files that `pde` writes
    bd = killedbm.linear_boundary(-0.25, SQRT2, 3.0)
    p = tmp_path / "b.csv"
    p.write_text("t,L,L_over_t\n" + "".join(
        f"{float(t)!r},{float(v)!r},0.0\n" for t, v in zip(bd.times, bd.values)))
    back = killedbm.boundary_from_csv(p)
    np.testing.assert_array_equal(back.times, bd.times)
    np.testing.assert_array_equal(back.values, bd.values)


def test_no_killing_gives_heat_flow():
    bd = killedbm.linear_boundary(-200.0, 0.0, 1.0)
    s = killedbm.simulate_killed(("delta", 0.0), bd, 1.0, 1e-2, 4000, seed=1)
    assert s.survival_fraction == 1.0
    res = stats.kstest(s.survivors, stats.norm(0.0, 1.0).cdf)
    assert res.pvalue > 1e-3


def test_minimal_wave_is_quasistationary():
    # start from the wave, kill at its own moving boundary: exp(1) times
    # and a survivor law equal to the wave again
    bd = killedbm.linear_boundary(0.0, SQRT2, 3.0)
    s = killedbm.simulate_killed(waves.sample_pi_min, bd, 3.0, 1e-3,
                                 20000, seed=4)
    rep = killedbm.killing_time_test(s)
    assert rep.p_value > 1e-3
    # censored-exponential mean on [0, 3]
    cond_mean = (1 - 4 * math.exp(-3.0)) / (1 - math.exp(-3.0))
    se = 1.0 / math.sqrt(s.observed_tau().size)
    assert abs(rep.mean_tau - cond_mean) < 3 * se
    # survival probability e^{-t}
    p_surv = math.exp(-3.0)
    se_surv = math.sqrt(p_surv * (1 - p_surv) / s.n_paths)
    assert abs(s.survival_fraction - p_surv) < 3 * se_surv
    recentred = from_positions(s.survivors - bd.value(3.0))
    assert w1_to_analytic(recentred, waves.MINIMAL_WAVE) < 0.12


def test_survival_probability_along_time():
    bd = killedbm.linear_boundary(0.0, SQRT2, 2.0)
    for t in (0.5, 1.0, 2.0):
        s = killedbm.simulate_killed(waves.sample_pi_min, bd, t, 1e-3,
                                     8000, seed=11)
        p = math.exp(-t)
        se = math.sqrt(p * (1 - p) / s.n_paths)
        assert abs(s.survival_fraction - p) < 4 * se


def test_wrong_boundary_rejected():
    # negative control: too-slow boundary with the wave start
    bd = killedbm.linear_boundary(0.0, 1.0, 3.0)
    s = killedbm.simulate_killed(waves.sample_pi_min, bd, 3.0, 1e-3,
                                 20000, seed=4)
    rep = killedbm.killing_time_test(s)
    assert rep.p_value < 1e-6


def test_too_few_samples_error():
    bd = killedbm.linear_boundary(0.0, SQRT2, 1.0)
    s = killedbm.simulate_killed(waves.sample_pi_min, bd, 1.0, 1e-2, 100, seed=2)
    with pytest.raises(ValueError, match="too few"):
        killedbm.killing_time_test(s)


def test_bridge_correction_dt_insensitive():
    bd = killedbm.linear_boundary(0.0, SQRT2, 2.0)
    stats_by_dt = []
    for dt in (4e-3, 1e-3):
        s = killedbm.simulate_killed(waves.sample_pi_min, bd, 2.0, dt,
                                     12000, seed=13)
        stats_by_dt.append(killedbm.killing_time_test(s).ks_stat)
    n_obs = 12000 * (1 - math.exp(-2.0))
    assert abs(stats_by_dt[0] - stats_by_dt[1]) < 2.5 / math.sqrt(n_obs)


def test_delta_start_against_solver(tmp_path):
    # solver boundary for the point-mass start; moderate refinement
    params = fbpde.FlowParams(dx=0.005, dt=1.25e-4, x_window=30.0)
    traj = fbpde.solve_density("heaviside", 1.0, params)
    bd = killedbm.boundary_from_trajectory(traj)
    s = killedbm.simulate_killed(("delta", 0.0), bd, 1.0, 5e-4, 10000, seed=7)
    rep = killedbm.killing_time_test(s)
    assert rep.p_value > 1e-3
    se = 1.0 / math.sqrt(s.observed_tau().size)
    cond_mean = (1 - 2 * math.exp(-1.0)) / (1 - math.exp(-1.0))
    assert abs(rep.mean_tau - cond_mean) < 4 * se
    # survivor tail against the solver profile
    tail = traj.final.tail()
    mu = s.survivors_measure()
    xs = np.linspace(traj.final.boundary - 0.5, traj.final.boundary + 8, 900)
    sup = np.max(np.abs(mu.tail(xs) - tail.value(xs)))
    tol = 1.95 / math.sqrt(mu.n) + 5 * (params.dx + params.dt) + math.sqrt(5e-4)
    assert sup < tol


def test_boundary_undefined_error():
    bd = killedbm.linear_boundary(0.0, SQRT2, 1.0)
    with pytest.raises(ValueError, match="undefined"):
        killedbm.simulate_killed(("delta", 0.0), bd, 2.0, 1e-2, 100, seed=0)
