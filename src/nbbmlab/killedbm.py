"""Brownian motion killed at a moving boundary, with bridge-corrected crossings.

Paths are Euler-discretised; within each step the crossing of the linearly
interpolated boundary is decided by the Brownian-bridge first-passage
probability exp(-2 d0 d1 / h), which removes the O(sqrt(h)) bias of naive
endpoint checks.  Killing checks begin one step in (the boundary may start
exactly at the initial position and dive, so time zero carries no test).
"""

import math
from dataclasses import dataclass

import numpy as np

from .measures import EmpiricalMeasure, from_positions
from .nbbm import draw_initial


@dataclass
class BoundaryPath:
    """Piecewise-linear boundary t -> L_t, defined on [times[0], times[-1]]."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2 \
                or self.values.shape != self.times.shape:
            raise ValueError("boundary needs matching 1-D times and values")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("boundary times must be increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("boundary values must be finite")

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t > self.times[-1] + 1e-12) or np.any(t < self.times[0] - 1e-12):
            raise ValueError("boundary undefined at requested time")
        out = np.interp(t, self.times, self.values)
        return out if out.ndim else float(out)


def boundary_from_csv(path) -> BoundaryPath:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return BoundaryPath(data[:, 0], data[:, 1])


def linear_boundary(l0: float, speed: float, t_max: float) -> BoundaryPath:
    return BoundaryPath(np.array([0.0, t_max]),
                        np.array([l0, l0 + speed * t_max]))


def boundary_from_trajectory(traj) -> BoundaryPath:
    """Boundary path of an fbpde trajectory (thinned to distinct times)."""
    t = np.asarray(traj.times, dtype=float)
    v = np.asarray(traj.boundary, dtype=float)
    keep = np.concatenate(([True], np.diff(t) > 0))
    t, v = t[keep], v[keep]
    if t[0] > 0.0:
        # warm-started runs begin slightly after 0; extend flat to the origin
        t = np.concatenate(([0.0], t))
        v = np.concatenate(([v[0]], v))
    return BoundaryPath(t, v)


@dataclass
class KilledSamples:
    tau: np.ndarray            # crossing times, nan where the path survived
    survivors: np.ndarray      # positions at t_query of surviving paths
    t_query: float
    dt: float

    @property
    def n_paths(self) -> int:
        return self.tau.size

    @property
    def survival_fraction(self) -> float:
        return self.survivors.size / self.tau.size

    def observed_tau(self) -> np.ndarray:
        return self.tau[~np.isnan(self.tau)]

    def survivors_measure(self) -> EmpiricalMeasure:
        return from_positions(self.survivors)


def simulate_killed(init, boundary: BoundaryPath, t_query: float,
                    dt_mc: float, n_paths: int, seed=None) -> KilledSamples:
    """Simulate Brownian paths from ``init`` killed at the boundary.

    ``init`` is any spec of nbbm.parse_init ("zeros", "pimin", "pic:<c>",
    "delta:<a>", ("delta", a), a sampler f(rng, n), ...).  Crossing times
    are assigned to the midpoint of the step in which the bridge decides
    the kill.
    """
    if t_query > boundary.t_max + 1e-12:
        raise ValueError("boundary undefined at requested time")
    rng = np.random.default_rng(seed)
    x = draw_initial(init, rng, n_paths)
    tau = np.full(n_paths, np.nan)
    alive = np.ones(n_paths, dtype=bool)
    t = 0.0
    while t < t_query - 1e-12:
        h = min(dt_mc, t_query - t)
        t1 = t + h
        l0 = boundary.value(t)
        l1 = boundary.value(t1)
        idx = np.flatnonzero(alive)
        x0 = x[idx]
        x1 = x0 + rng.standard_normal(idx.size) * math.sqrt(h)
        killed = x1 <= l1
        if t > 0.0:   # no bridge test in the first step
            d0 = x0 - l0
            d1 = x1 - l1
            both_above = ~killed & (d0 > 0)
            p_cross = np.zeros(idx.size)
            p_cross[both_above] = np.exp(
                -2.0 * d0[both_above] * d1[both_above] / h)
            killed |= (d0 <= 0) | (rng.random(idx.size) < p_cross)
        x[idx] = x1
        dead_idx = idx[killed]
        tau[dead_idx] = t + 0.5 * h
        alive[dead_idx] = False
        t = t1
    return KilledSamples(tau=tau, survivors=x[alive].copy(),
                         t_query=float(t_query), dt=float(dt_mc))


@dataclass
class KillingTimeReport:
    ks_stat: float
    p_value: float
    mean_tau: float


def killing_time_test(samples: KilledSamples) -> KillingTimeReport:
    """KS test of observed crossing times against Exponential(1).

    Censoring at t_query is handled by testing against the exponential
    law conditioned on crossing before t_query.
    """
    from scipy import stats   # slow to import, and used only here
    obs = samples.observed_tau()
    if obs.size < 1000:
        raise ValueError("too few observed killing times")
    denom = 1.0 - math.exp(-samples.t_query)

    def cdf(t):
        return np.clip((1.0 - np.exp(-np.asarray(t, dtype=float))) / denom, 0.0, 1.0)

    ks = stats.kstest(obs, cdf)
    return KillingTimeReport(ks_stat=float(ks.statistic),
                             p_value=float(ks.pvalue),
                             mean_tau=float(obs.mean()))
