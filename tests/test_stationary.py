"""Long-run estimators: ergodic identities at moderate scale.

Statistical checks run at 3 sigma with seeded streams; the acceptance
suite repeats them at the full scales.
"""

import math

import numpy as np
import pytest

from nbbmlab import stationary, waves
from nbbmlab.measures import EmpiricalMeasure, w1_to_analytic

SQRT2 = math.sqrt(2.0)


def w1_between_tails(u1, u2, grid):
    """W1 between two tail functions: int |U1 - U2| over a common grid."""
    return float(np.trapezoid(np.abs(u1.value(grid) - u2.value(grid)), grid))


def test_default_burn_in():
    assert stationary.default_burn_in(2) == 50.0
    assert stationary.default_burn_in(4096) == pytest.approx(
        10 * math.log(4096) ** 2)


def test_estimate_stationary_contracts():
    for horizon in (10.0, 10.5):   # no snapshot falls after burn-in
        with pytest.raises(ValueError, match="horizon"):
            stationary.estimate_stationary(4, burn_in=10.0, horizon=horizon)
    with pytest.raises(ValueError, match="centring"):
        stationary.estimate_stationary(4, centring="mean")
    ens = stationary.estimate_stationary(2, burn_in=20.0, horizon=140.5,
                                         delta_sample=1.0, seed=1)
    assert len(ens.snapshots) == 120  # floor((horizon - burn_in) / delta)
    for s in ens.snapshots:
        assert s.atoms[0] == 0.0      # Gamma_N membership
    assert ens.mean_profile.values[0] == 1.0
    assert ens.mean_profile.grid[0] < 0.0
    assert ens.mean_profile.values[-1] == 0.0


def test_median_centring_snapshots():
    ens = stationary.estimate_stationary(5, burn_in=10.0, horizon=40.0,
                                         centring="median", seed=3)
    for s in ens.snapshots:
        assert s.atoms[s.n // 2] == 0.0


def test_mean_profiles_agree_across_seeds_and_starts():
    kw = dict(burn_in=40.0, horizon=340.0, delta_sample=1.0)
    a = stationary.estimate_stationary(32, seed=11, init="zeros", **kw)
    b = stationary.estimate_stationary(32, seed=12, init="zeros", **kw)
    c = stationary.estimate_stationary(32, seed=13, init="pimin", **kw)
    # first moment of the mean profile is the time average of b(Y)
    moments = []
    ses = []
    for ens in (a, b, c):
        per_snap = np.asarray([s.atoms.mean() for s in ens.snapshots])
        moments.append(per_snap.mean())
        ses.append(stationary.batch_means_se(per_snap))
        assert ens.mean_profile.tail_integral(0.0) == pytest.approx(
            per_snap.mean(), abs=0.02)
    assert abs(moments[0] - moments[1]) < 3 * math.hypot(ses[0], ses[1])
    assert abs(moments[0] - moments[2]) < 3 * math.hypot(ses[0], ses[2])
    grid = np.arange(-0.1, 15.0, 0.02)
    assert w1_between_tails(a.mean_profile, b.mean_profile, grid) < 0.15
    assert w1_between_tails(a.mean_profile, c.mean_profile, grid) < 0.15


def test_velocity_two_particles_exact_value():
    # the gap of the 2-system is exp(1)-distributed in equilibrium: v_2 = 1/2
    est = stationary.estimate_velocity(2, horizon=320.0, n_replicas=10, seed=7)
    assert abs(est.v_hat - 0.5) < 4 * est.std_error
    assert est.v_hat < SQRT2 + 3 * est.std_error


def test_velocity_monotone_and_bounded():
    v2 = stationary.estimate_velocity(2, horizon=220.0, n_replicas=8, seed=21)
    v64 = stationary.estimate_velocity(64, horizon=220.0, n_replicas=8, seed=22)
    assert v64.v_hat - v2.v_hat > 3 * math.hypot(v2.std_error, v64.std_error)
    for est in (v2, v64):
        assert est.v_hat < SQRT2 + 3 * est.std_error
    with pytest.raises(ValueError):
        stationary.estimate_velocity(1, horizon=10.0, n_replicas=2)


def test_birkhoff_identity_small_n():
    rep = stationary.birkhoff_identity_check(2, horizon=1500.0, seed=5)
    assert rep.ok, (rep.discrepancy, rep.combined_se)
    rep16 = stationary.birkhoff_identity_check(16, horizon=800.0, seed=6)
    assert rep16.ok


def test_birkhoff_degenerate_single_particle():
    rep = stationary.birkhoff_identity_check(1, horizon=100.0, seed=9)
    assert rep.discrepancy == 0.0 and rep.ok


def test_selection_gap_requires_matching_centring():
    ens = stationary.estimate_stationary(8, burn_in=10.0, horizon=50.0, seed=2)
    gap = stationary.selection_gap(ens)
    assert gap > 0.0
    med = stationary.estimate_stationary(8, burn_in=10.0, horizon=50.0,
                                         centring="median", seed=2)
    assert stationary.selection_gap(med) > 0.0
    bad = stationary.StationaryEnsemble(
        snapshots=ens.snapshots, centring="none",
        mean_profile=ens.mean_profile, n=8, burn_in=10.0, horizon=50.0,
        delta_sample=1.0)
    with pytest.raises(ValueError):
        stationary.snapshot_gaps(bad)


def test_median_centred_gap_decreases_with_n():
    gaps = {}
    for n in (8, 64):
        ens = stationary.estimate_stationary(n, burn_in=40.0, horizon=240.0,
                                             centring="median",
                                             seed=60 + n, init="pimin")
        gaps[n] = stationary.selection_gap_report(ens)
    diff = gaps[8][0] - gaps[64][0]
    assert diff > 3 * math.hypot(gaps[8][1], gaps[64][1])


def test_fit_log_correction_recovers_synthetic():
    ns = np.array([64, 256, 1024, 4096])
    v = SQRT2 - 6.5 / np.log(ns) ** 2
    assert stationary.fit_log_correction(ns, v) == pytest.approx(6.5)
    log_n = np.log(ns)
    v = SQRT2 - 9.0 / (log_n + 3.0 * np.log(log_n)) ** 2
    assert stationary.fit_log_correction(ns, v, bdmm=True) == pytest.approx(9.0)


def test_batch_means_se_sane():
    rng = np.random.default_rng(0)
    x = rng.normal(size=4000)
    se = stationary.batch_means_se(x)
    assert se == pytest.approx(1.0 / math.sqrt(4000), rel=0.5)


@pytest.mark.parametrize("case", ["one", "chunk-1", "chunk", "chunk+1", "several"])
@pytest.mark.parametrize("centring", ["leftmost", "median"])
def test_snapshot_gaps_chunked_like_single_calls(case, centring):
    # snapshot counts on both sides of the rows that fit in one W1 chunk
    n = 64
    rows = stationary.W1_CHUNK_ATOMS // n
    count = {"one": 1, "chunk-1": rows - 1, "chunk": rows, "chunk+1": rows + 1,
             "several": 2 * rows + 44}[case]
    rng = np.random.default_rng(count)
    snaps = []
    for _ in range(count):
        atoms = np.sort(waves.MINIMAL_WAVE.quantile(rng.random(n)))
        shift = atoms[0] if centring == "leftmost" else atoms[n // 2]
        snaps.append(EmpiricalMeasure(atoms - shift))
    ens = stationary.StationaryEnsemble(
        snapshots=snaps, centring=centring, mean_profile=None, n=n,
        burn_in=0.0, horizon=float(count), delta_sample=1.0)
    ref = waves.MINIMAL_WAVE if centring == "leftmost" \
        else waves.MINIMAL_WAVE.median_centred_tail()
    gaps = stationary.snapshot_gaps(ens)
    single = np.asarray([w1_to_analytic(s, ref) for s in snaps])
    assert gaps.tobytes() == single.tobytes()
