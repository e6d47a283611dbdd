"""Long-run estimation: stationary ensembles, velocity, ergodic identities.

The recentred particle system mixes geometrically, so one long trajectory
is burned in and then sampled at unit spacing; samples are treated as
correlated and every standard error goes through batch means.  The
asymptotic velocity is measured as a displacement quotient of the leftmost
particle, and the selection gap as the W1 distance between recentred
snapshots and the minimal wave.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import waves
from ._parallel import map_ordered
from .measures import TailCdf, gap_mean, w1_to_analytic
from .nbbm import advance_to, new_system, snapshot

SQRT2 = math.sqrt(2.0)
# atoms per stacked W1 call in snapshot_gaps: enough rows to spread the call
# overhead, few enough that the call's temporaries leave peak memory as it was
W1_CHUNK_ATOMS = 4096


def default_burn_in(n: int) -> float:
    """max(50, 10 ln^2 N): scales like the front relaxation time."""
    return max(50.0, 10.0 * math.log(max(n, 2)) ** 2)


def check_span(burn_in: float, horizon: float) -> None:
    if not burn_in < horizon < math.inf:
        raise ValueError("horizon must be finite and exceed burn-in")


def sample_span(n: int, burn_in: float = None, horizon: float = None,
                delta_sample: float = 1.0):
    """Burn-in, horizon and snapshot count of estimate_stationary."""
    burn_in = default_burn_in(n) if burn_in is None else float(burn_in)
    horizon = burn_in + 200.0 if horizon is None else float(horizon)
    count = int(math.floor((horizon - burn_in) / delta_sample))
    if count < 1:
        raise ValueError("horizon must exceed burn-in by one sampling interval")
    return burn_in, horizon, count


def batch_means_se(x) -> float:
    """Standard error of a correlated series via (up to 20) batch means."""
    x = np.asarray(x, dtype=float)
    b = min(20, max(2, x.size // 4))
    usable = (x.size // b) * b
    means = x[:usable].reshape(b, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(b))


@dataclass
class StationaryEnsemble:
    snapshots: list
    centring: str
    mean_profile: TailCdf
    n: int
    burn_in: float
    horizon: float
    delta_sample: float


def estimate_stationary(n: int, burn_in: float = None, horizon: float = None,
                        delta_sample: float = 1.0, centring: str = "leftmost",
                        seed=None, init="zeros") -> StationaryEnsemble:
    """One long trajectory, recentred snapshots after burn-in, mean tail."""
    if centring not in ("leftmost", "median"):
        raise ValueError(f"unknown centring mode {centring!r}")
    burn_in, horizon, count = sample_span(n, burn_in, horizon, delta_sample)
    ps = new_system(n, init, seed=seed)
    advance_to(ps, burn_in)
    snaps = []
    for k in range(1, count + 1):
        advance_to(ps, burn_in + k * delta_sample)
        snaps.append(snapshot(ps, centring))
    lo = min(float(s.atoms[0]) for s in snaps)
    hi = max(float(s.atoms[-1]) for s in snaps)
    dx = 0.02   # spacing of the mean profile's grid
    grid = np.arange(lo - dx, hi + 2 * dx, dx)
    vals = np.zeros_like(grid)
    for s in snaps:
        vals += s.tail(grid)
    vals /= len(snaps)
    vals[0] = 1.0
    vals[-1] = 0.0
    profile = TailCdf(grid, vals)
    return StationaryEnsemble(snapshots=snaps, centring=centring,
                              mean_profile=profile, n=n, burn_in=burn_in,
                              horizon=horizon, delta_sample=delta_sample)


@dataclass
class VelocityEstimate:
    v_hat: float
    std_error: float
    per_replica: np.ndarray = field(repr=False)


def _velocity_replica(args):
    n, burn_in, horizon, seed = args
    ps = new_system(n, "pimin", seed=seed)
    advance_to(ps, burn_in)
    l0 = ps.leftmost
    advance_to(ps, horizon)
    return (ps.leftmost - l0) / (horizon - burn_in)


def estimate_velocity(n: int, horizon: float, n_replicas: int, seed=None,
                      burn_in: float = 20.0) -> VelocityEstimate:
    """Displacement quotient of the leftmost particle over replicas.

    Starts from iid minimal-wave positions so a short burn-in suffices; the
    almost-sure limit does not depend on the start.
    """
    if n < 2:
        raise ValueError("velocity needs at least two particles")
    check_span(burn_in, horizon)
    seeds = np.random.SeedSequence(seed).spawn(n_replicas)
    slopes = np.asarray(map_ordered(
        _velocity_replica,
        [(n, burn_in, horizon, s) for s in seeds]))
    se = slopes.std(ddof=1) / math.sqrt(n_replicas) if n_replicas > 1 else 0.0
    return VelocityEstimate(v_hat=float(slopes.mean()), std_error=float(se),
                            per_replica=slopes)


@dataclass
class BirkhoffReport:
    discrepancy: float
    se_b: float
    se_v: float

    @property
    def combined_se(self) -> float:
        return math.hypot(self.se_b, self.se_v)

    @property
    def ok(self) -> bool:
        return self.discrepancy <= 3.0 * self.combined_se or self.combined_se == 0.0


def birkhoff_identity_check(n: int, horizon: float,
                            seed=None) -> BirkhoffReport:
    """Time average of the recentred mean against the velocity estimate.

    Both are ergodic averages of the same stationary quantity, so they
    must agree within sampling error.  The run starts from iid
    minimal-wave positions and burns in for min(default_burn_in(n),
    horizon / 4).  N = 1 is degenerate: no selection, zero mean gap and
    zero almost-sure velocity.
    """
    if n == 1:
        return BirkhoffReport(0.0, 0.0, 0.0)
    burn_in = min(default_burn_in(n), horizon / 4.0)
    check_span(burn_in, horizon)
    ps = new_system(n, "pimin", seed=seed)
    advance_to(ps, burn_in)
    b_samples = []
    dl_samples = []
    t = burn_in
    while t < horizon - 1e-9:
        l_prev = ps.leftmost
        t += 1.0
        advance_to(ps, t)
        b_samples.append(gap_mean(ps.positions - ps.leftmost))
        dl_samples.append(ps.leftmost - l_prev)
    b_arr = np.asarray(b_samples)
    dl_arr = np.asarray(dl_samples)
    return BirkhoffReport(
        discrepancy=abs(float(b_arr.mean()) - float(dl_arr.mean())),
        se_b=batch_means_se(b_arr),
        se_v=batch_means_se(dl_arr),
    )


def selection_gap(ensemble: StationaryEnsemble) -> float:
    """Mean W1 between leftmost-centred snapshots and the minimal wave."""
    mean, _ = selection_gap_report(ensemble)
    return mean


def selection_gap_report(ensemble: StationaryEnsemble):
    """(mean, batch-means SE) of the per-snapshot selection gaps."""
    gaps = snapshot_gaps(ensemble)
    return float(gaps.mean()), batch_means_se(gaps)


def snapshot_gaps(ensemble: StationaryEnsemble) -> np.ndarray:
    if ensemble.centring == "leftmost":
        ref = waves.MINIMAL_WAVE
    elif ensemble.centring == "median":
        ref = waves.MINIMAL_WAVE.median_centred_tail()
    else:
        raise ValueError("ensemble centring must be leftmost or median")
    atoms = [s.atoms for s in ensemble.snapshots]
    rows = max(1, W1_CHUNK_ATOMS // ensemble.n)
    return np.concatenate([w1_to_analytic(np.stack(atoms[k:k + rows]), ref)
                           for k in range(0, len(atoms), rows)])


def fit_log_correction(ns, v_hats, bdmm: bool = False) -> float:
    """Least-squares a in v(N) = sqrt(2) - a / ln^2 N.

    With ``bdmm`` the denominator is (ln N + 3 ln ln N)^2, the finite-N
    correction of Brunet, Derrida, Mueller & Munier (2006).
    """
    log_n = np.log(np.asarray(ns, dtype=float))
    x = 1.0 / (log_n + 3.0 * np.log(log_n) if bdmm else log_n) ** 2
    y = SQRT2 - np.asarray(v_hats, dtype=float)
    return float(np.dot(x, y) / np.dot(x, x))
