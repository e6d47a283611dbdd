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
from dataclasses import dataclass, field

import numpy as np

from .measures import from_positions, wasserstein_w
from .nbbm import (_CELLS, ParticleSystem, _Clock, _steps, check_end,
                   new_system)


def monge_match(x, y) -> np.ndarray:
    """Rank matching of two equal-length clouds: i -> perm[i] pairs by order.

    Optimal for cost |x - y|; for the capped cost it can overpay on clouds
    separated beyond the cap.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("length mismatch")
    perm = np.empty(x.size, dtype=int)
    perm[np.argsort(x, kind="stable")] = np.argsort(y, kind="stable")
    return perm


@dataclass
class CoupledPair:
    ps_a: ParticleSystem
    ps_b: ParticleSystem
    matching: np.ndarray
    rng: np.random.Generator
    # the shared event clock's pending rings (nbbm._Clock)
    clock: _Clock = field(default_factory=_Clock)

    @property
    def n(self) -> int:
        return self.ps_a.n

    @property
    def time(self) -> float:
        return self.ps_a.time

    def distance(self) -> float:
        return wasserstein_w(from_positions(self.ps_a.positions),
                             from_positions(self.ps_b.positions))


def new_coupled(n: int, init_a, init_b, seed=None) -> CoupledPair:
    if n < 2:
        raise ValueError("coupling needs at least two particles")
    rng = np.random.default_rng(seed)
    ps_a = new_system(n, init_a, seed=rng)
    ps_b = new_system(n, init_b, seed=rng)
    return CoupledPair(ps_a=ps_a, ps_b=ps_b,
                       matching=monge_match(ps_a.positions, ps_b.positions),
                       rng=rng)


def _event(cp: CoupledPair, pick: int) -> None:
    """The coupled jump, leaving cp.matching the rank matching after it.

    ``pick`` is uniform on 0..N-1: N - 1 is the synchronous self-jump (a
    no-op for both systems, probability 1/N), any other value picks the
    jump source among the N - 1 particles of system a other than i*.
    One stable argsort per cloud gives the leftmost particles i*, j* (lowest
    index on ties) and the rank matching perm.  Without the rank-0 pair every
    other atom stays paired by rank, so the jump source i takes its target
    from perm[i].  The jump moves i* next to i and j* next to perm[i], both at
    i's rank, so the new rank matching is perm with those two pairs re-paired
    by index order; a third atom tying a copied value reorders the ties, and
    then the matching is recomputed.
    """
    n = cp.n
    pos_a, pos_b = cp.ps_a.positions, cp.ps_b.positions
    order_a = pos_a.argsort(kind="stable")
    order_b = pos_b.argsort(kind="stable")
    perm = cp.matching = np.empty(n, dtype=int)
    perm[order_a] = order_b
    if pick == n - 1:
        return  # synchronous self-jump: both systems unchanged
    i_star, j_star = order_a[0], order_b[0]
    i = pick + 1 if pick >= i_star else pick
    j = perm[i]
    x = pos_a[i_star] = pos_a[i]
    y = pos_b[j_star] = pos_b[j]
    if np.count_nonzero(pos_a == x) == 2 and np.count_nonzero(pos_b == y) == 2:
        perm[min(i_star, i)] = min(j_star, j)
        perm[max(i_star, i)] = max(j_star, j)
    else:
        cp.matching = monge_match(pos_a, pos_b)
    cp.ps_a.n_events += 1
    cp.ps_b.n_events += 1


def _run(cp: CoupledPair, t_end: float, events=math.inf, probe=lambda: None):
    """The coupled event loop: up to ``events`` shared events before t_end.

    Draws like nbbm._run: the shared event clock (rate N; a pick of N - 1
    is the self-jump) in blocks, and one Gaussian row per event for both
    systems.  When the next event would fall after t_end, diffuse the
    remaining time and stop.  ``probe()`` runs just before and just after
    each event (jump and rematch).
    """
    n, rng, clock = cp.n, cp.rng, cp.clock
    pos_a, pos_b = cp.ps_a.positions, cp.ps_b.positions
    room = max(_CELLS // n, 1)
    while events > 0 and not clock.passes(t_end):
        times, picks = clock.take(rng, cp.time, t_end, n, min(events, room))
        for row, pick, t in zip(_steps(rng, cp.time, times, n), picks, times):
            pos_a += row
            pos_b[cp.matching] += row
            cp.ps_a.time = cp.ps_b.time = t
            probe()
            _event(cp, pick)
            probe()
        events -= len(picks)
    if events > 0:                        # diffuse to t_end
        row = _steps(rng, cp.time, [t_end], n)[0]
        pos_a += row
        pos_b[cp.matching] += row
        cp.ps_a.time = cp.ps_b.time = t_end


def step_coupled(cp: CoupledPair) -> None:
    """One shared event: diffuse matched pairs, then the coupled jump."""
    _run(cp, math.inf, events=1)


def advance_coupled(cp: CoupledPair, t_end: float) -> None:
    check_end(cp.time, t_end)
    _run(cp, t_end)


@dataclass
class ContractionReport:
    t: float
    lhs: float            # replica mean of W at time t
    rhs: float            # e^t times the replica mean of W at time 0
    margin: float         # rhs - lhs
    lhs_se: float
    rhs_se: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + 3.0 * math.hypot(self.lhs_se, self.rhs_se)


def contraction_estimate(n: int, init_a, init_b, ts, n_replicas: int,
                         seed=None):
    """Replica estimate of E[W_t] against e^t E[W_0] at each requested t."""
    t_list = sorted(float(t) for t in ts)
    if any(t < 0 for t in t_list):
        raise ValueError("times must be nonnegative")
    ss = np.random.SeedSequence(seed)
    w0 = np.empty(n_replicas)
    wt = np.empty((len(t_list), n_replicas))
    for r, child in enumerate(ss.spawn(n_replicas)):
        cp = new_coupled(n, init_a, init_b, seed=child)
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
            rhs_se=growth * float(w0.std(ddof=1) / math.sqrt(n_replicas))))
    return reports


def supermartingale_increments(n: int, init_a, init_b, t_end: float,
                               seed=None) -> np.ndarray:
    """Per-event increments of W(t_k) - W(t_{k-1}) - W(t_k-)/N.

    Under the coupling these average to at most zero: the distance gains
    at most W/N per event in expectation and never grows between events.
    """
    check_end(0.0, t_end)
    cp = new_coupled(n, init_a, init_b, seed=seed)
    w = [cp.distance()]   # W(0), then W(t_k-), W(t_k) for each event k
    _run(cp, t_end, probe=lambda: w.append(cp.distance()))
    w = np.asarray(w)
    return w[2::2] - w[0:-1:2] - w[1::2] / n

