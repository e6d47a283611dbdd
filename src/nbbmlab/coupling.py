"""Coupled simulation of two particle systems through rank matchings.

Both systems share one event clock and one Gaussian stream: matched pairs
receive identical increments between events.  Events arrive at rate N;
with probability 1/N the event is a synchronous self-jump (a no-op for
both systems), otherwise the leftmost particle of each system jumps, the
jump targets tied together through a matching of the clouds with the two
leftmost particles removed.  Marginally each system is an exact
selection-jump process at rate N - 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .measures import from_positions, wasserstein_w
from .nbbm import ParticleSystem, advance_to, new_system


def monge_match(x, y) -> np.ndarray:
    """Rank matching of two equal-length clouds: i -> perm[i] pairs by order.

    Optimal for cost |x - y|; for the capped cost it can overpay on clouds
    separated beyond the cap (wasserstein_w computes that optimum exactly).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("length mismatch")
    perm = np.empty(x.size, dtype=int)
    perm[np.argsort(x, kind="stable")] = np.argsort(y, kind="stable")
    return perm


def matching_cost(x, y, perm) -> float:
    """Mean capped displacement of an explicit matching."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.minimum(np.abs(x - y[perm]), 1.0).mean())


@dataclass
class CoupledPair:
    ps_a: ParticleSystem
    ps_b: ParticleSystem
    matching: np.ndarray
    rng: np.random.Generator
    shared_seed: object = None
    mode: str = "restricted"

    @property
    def n(self) -> int:
        return self.ps_a.n

    @property
    def time(self) -> float:
        return self.ps_a.time

    def distance(self) -> float:
        return wasserstein_w(from_positions(self.ps_a.positions),
                             from_positions(self.ps_b.positions))


def new_coupled(n: int, init_a, init_b, seed=None,
                mode: str = "restricted") -> CoupledPair:
    if n < 2:
        raise ValueError("coupling needs at least two particles")
    if mode not in ("restricted", "literal"):
        raise ValueError(f"unknown coupling mode {mode!r}")
    rng = np.random.default_rng(seed)
    ps_a = new_system(n, init_a, seed=rng)
    ps_b = new_system(n, init_b, seed=rng)
    ps_a.rng = rng
    ps_b.rng = rng
    return CoupledPair(ps_a=ps_a, ps_b=ps_b,
                       matching=monge_match(ps_a.positions, ps_b.positions),
                       rng=rng, shared_seed=seed, mode=mode)


def _restricted_match(pos_a, pos_b, skip_a, skip_b):
    """Rank matching between the clouds with one index removed from each."""
    n = pos_a.size
    idx_a = np.delete(np.arange(n), skip_a)
    idx_b = np.delete(np.arange(n), skip_b)
    sub = monge_match(pos_a[idx_a], pos_b[idx_b])
    out = np.full(n, -1, dtype=int)
    out[idx_a] = idx_b[sub]
    return out


def _literal_match(matching, skip_a, skip_b):
    """The appendix-style restriction of the interval matching."""
    out = matching.copy()
    if out[skip_a] != skip_b:
        i_prime = int(np.flatnonzero(matching == skip_b)[0])
        out[i_prime] = matching[skip_a]
    out[skip_a] = -1
    return out


def _diffuse(cp: CoupledPair, dt: float) -> None:
    g = cp.rng.standard_normal(cp.n) * math.sqrt(dt)
    cp.ps_a.positions += g
    cp.ps_b.positions[cp.matching] += g
    cp.ps_a.time += dt
    cp.ps_b.time += dt


def _event(cp: CoupledPair) -> None:
    n = cp.n
    pos_a, pos_b = cp.ps_a.positions, cp.ps_b.positions
    i_star = int(np.argmin(pos_a))
    j_star = int(np.argmin(pos_b))
    if cp.rng.random() < 1.0 / n:
        return  # synchronous self-jump: both systems unchanged
    k = int(cp.rng.integers(n - 1))
    i = k + 1 if k >= i_star else k
    if cp.mode == "restricted":
        iota = _restricted_match(pos_a, pos_b, i_star, j_star)
    else:
        # proof-style witness: swap the fresh full matching around (i*, j*)
        iota = _literal_match(monge_match(pos_a, pos_b), i_star, j_star)
    pos_a[i_star] = pos_a[i]
    pos_b[j_star] = pos_b[iota[i]]
    cp.ps_a.n_events += 1
    cp.ps_b.n_events += 1


def _run(cp: CoupledPair, t_end: float, events=math.inf, probe=lambda: None):
    """The coupled event loop: up to ``events`` shared events before t_end.

    When the next event would fall after t_end, diffuse the remaining time
    and stop.  ``probe()`` runs just before and just after each
    event (jump and rematch).
    """
    scale = 1.0 / cp.n
    while events > 0:
        dt = cp.rng.exponential(scale)
        if cp.time + dt > t_end:
            rem = t_end - cp.time
            if rem > 0.0:
                _diffuse(cp, rem)
            return
        _diffuse(cp, dt)
        probe()
        _event(cp)
        cp.matching = monge_match(cp.ps_a.positions, cp.ps_b.positions)
        probe()
        events -= 1


def step_coupled(cp: CoupledPair) -> None:
    """One shared event: diffuse matched pairs, then the coupled jump."""
    _run(cp, math.inf, events=1)


def advance_coupled(cp: CoupledPair, t_end: float) -> None:
    if t_end < cp.time:
        raise ValueError("t_end before current time")
    _run(cp, t_end)


@dataclass
class ContractionReport:
    t: float
    lhs: float            # replica mean of W at time t
    rhs: float            # e^t times the replica mean of W at time 0
    margin: float         # rhs - lhs
    lhs_se: float
    rhs_se: float
    n_replicas: int

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + 3.0 * math.hypot(self.lhs_se, self.rhs_se)


def contraction_estimate(n: int, init_a, init_b, ts, n_replicas: int,
                         seed=None, mode: str = "restricted"):
    """Replica estimate of E[W_t] against e^t E[W_0] at each requested t."""
    scalar = np.isscalar(ts)
    t_list = [float(ts)] if scalar else sorted(float(t) for t in ts)
    if any(t < 0 for t in t_list):
        raise ValueError("times must be nonnegative")
    ss = np.random.SeedSequence(seed)
    w0 = np.empty(n_replicas)
    wt = np.empty((len(t_list), n_replicas))
    for r, child in enumerate(ss.spawn(n_replicas)):
        cp = new_coupled(n, init_a, init_b, seed=child, mode=mode)
        w0[r] = cp.distance()
        for k, t in enumerate(t_list):
            advance_coupled(cp, t)
            wt[k, r] = cp.distance()
    reports = []
    for k, t in enumerate(t_list):
        growth = math.exp(t)
        lhs, rhs = float(wt[k].mean()), growth * float(w0.mean())
        reports.append(ContractionReport(
            t=t, lhs=lhs, rhs=rhs, margin=rhs - lhs,
            lhs_se=float(wt[k].std(ddof=1) / math.sqrt(n_replicas)),
            rhs_se=growth * float(w0.std(ddof=1) / math.sqrt(n_replicas)),
            n_replicas=n_replicas))
    return reports[0] if scalar else reports


def supermartingale_increments(n: int, init_a, init_b, t_end: float,
                               seed=None) -> np.ndarray:
    """Per-event increments of W(t_k) - W(t_{k-1}) - W(t_k-)/N.

    Under the coupling these average to at most zero: the distance gains
    at most W/N per event in expectation and never grows between events.
    """
    cp = new_coupled(n, init_a, init_b, seed=seed)
    w = [cp.distance()]   # W(0), then W(t_k-), W(t_k) for each event k
    _run(cp, t_end, probe=lambda: w.append(cp.distance()))
    w = np.asarray(w)
    return w[2::2] - w[0:-1:2] - w[1::2] / n


def marginal_leftmost_displacement(n: int, init, t: float, n_replicas: int,
                                   seed=None, coupled: bool = True) -> np.ndarray:
    """L_t - L_0 samples from coupled runs (system a) or plain runs."""
    ss = np.random.SeedSequence(seed)
    out = np.empty(n_replicas)
    for r, child in enumerate(ss.spawn(n_replicas)):
        if coupled:
            cp = new_coupled(n, init, init, seed=child)
            l0 = cp.ps_a.leftmost
            advance_coupled(cp, t)
            out[r] = cp.ps_a.leftmost - l0
        else:
            ps = new_system(n, init, seed=child)
            l0 = ps.leftmost
            advance_to(ps, t)
            out[r] = ps.leftmost - l0
    return out
