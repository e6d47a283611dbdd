"""Coupled simulation of two particle systems through rank matchings.

Both systems share one event clock and one Gaussian stream: matched pairs
receive identical increments between events.  Events arrive at rate N;
with probability 1/N the event is a synchronous self-jump (a no-op for
both systems), otherwise the leftmost particle of each system jumps, the
jump targets tied together through a matching of the clouds with the two
leftmost particles removed.  Marginally each system is an exact
selection-jump process at rate N - 1.

Each system is stored in rank order at every event, so the rank matching
is index k <-> index k and nothing has to track it.  With tied values the
multiset of matched pairs is the same for every tie order.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import from_positions, wasserstein_w
from .nbbm import (_CELLS, ParticleSystem, _Clock, _steps, check_end,
                   new_system)


@dataclass
class CoupledPair:
    """Two systems paired by index: ps_a.positions[k] is matched with
    ps_b.positions[k], and both clouds are in rank order at every event."""
    ps_a: ParticleSystem
    ps_b: ParticleSystem
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
    ps_a.positions.sort()
    ps_b.positions.sort()
    return CoupledPair(ps_a=ps_a, ps_b=ps_b, rng=rng)


def _run(cp: CoupledPair, t_end: float, events=math.inf, probe=lambda: None):
    """The coupled event loop: up to ``events`` shared events before t_end.

    Draws like nbbm._run: the shared event clock (rate N; a pick of N - 1
    is the self-jump) in blocks, and one Gaussian row per event, added to
    both clouds by index.  Sorting both clouds then makes index k <-> k the
    rank matching.  On a pick p < N - 1 the leftmost of each system (rank
    0) takes the value of rank p + 1: in system a a uniform choice among
    the other particles, in system b its partner.  Pairing by index
    stays a rank matching after the copy, so the next row is shared by
    matched pairs.  When the next event would fall after t_end, diffuse the
    remaining time and stop.  ``probe()`` runs just before and just after
    each event, self-jumps included.
    """
    n, rng, clock = cp.n, cp.rng, cp.clock
    pos_a, pos_b = cp.ps_a.positions, cp.ps_b.positions
    room = max(_CELLS // n, 1)
    while events > 0 and not clock.passes(t_end):
        times, picks = clock.take(rng, cp.time, t_end, n, min(events, room))
        for row, pick, t in zip(_steps(rng, cp.time, times, n), picks, times):
            pos_a += row
            pos_b += row
            pos_a.sort()
            pos_b.sort()
            cp.ps_a.time = cp.ps_b.time = t
            probe()
            if pick < n - 1:              # n - 1: the synchronous self-jump
                pos_a[0] = pos_a[pick + 1]
                pos_b[0] = pos_b[pick + 1]
                cp.ps_a.n_events += 1
                cp.ps_b.n_events += 1
            probe()
        events -= len(picks)
    if events > 0:                        # diffuse to t_end
        row = _steps(rng, cp.time, [t_end], n)[0]
        pos_a += row
        pos_b += row
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

