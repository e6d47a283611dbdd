"""Event-driven simulation of N Brownian particles with leftmost-jump selection.

Between events every particle diffuses independently; at exponential times
of rate N - 1 the leftmost particle jumps to the position of another
particle chosen uniformly at random.  The event loop is exact in law:
each waiting time is Exponential(N - 1), positions advance by Gaussians of
variance equal to the elapsed time, and the jump acts on the state at the
event time.

For large N most particles sit far above the leftmost and never decide an
argmin, so a long call runs lazily (_LazyCall): a far particle becomes
passive, with a level h below it and its first-passage time T to h (Burq &
Jones 2008).  Until T its path is h plus a Bessel(3) bridge, so it stays
above h and its value at any time is one draw; only the active particles
near the leftmost take a Gaussian per event, sliced from a block drawn
ahead.  The passives wait in one sorted run per key (_Order); joining new
ones to it costs O(N), but fronts and demotions, which add them, are rare.
"""

import bisect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import waves
from .measures import EmpiricalMeasure, centring_stats, from_positions, recentre


@dataclass
class Event:
    time: float
    victim_index: int
    target_index: int
    displacement: float


@dataclass
class ParticleSystem:
    positions: np.ndarray
    time: float
    n_events: int
    rng: np.random.Generator
    seed: object = None
    # the event clock's pending rings, drawn ahead in blocks
    clock: "_Clock" = field(default_factory=lambda: _Clock())
    # lazy-loop counters (see _LazyCall); not part of the checkpoint
    promotions: int = 0
    bridge_draws: int = 0

    @property
    def n(self) -> int:
        return self.positions.size

    @property
    def leftmost(self) -> float:
        return float(self.positions.min())

    @property
    def barycentre(self) -> float:
        return float(self.positions.mean())

    @property
    def median(self) -> float:
        return centring_stats(from_positions(self.positions)).median


def parse_init(spec):
    """The initial-condition vocabulary shared by every particle engine.

    Returns a sampler f(rng, n).  ``spec`` is "zeros", "pimin" (iid from
    the minimal wave), "pic:<c>" (iid from the wave of speed c),
    "delta:<a>" or ("delta", a) (all at a), a callable f(rng, n) returning
    n positions or an EmpiricalMeasure, or an explicit position sequence.
    """
    if isinstance(spec, str):
        kind, _, arg = spec.partition(":")
        if spec == "pimin":
            return waves.sample_pi_min
        if kind == "pic":
            return waves.travelling_wave(float(arg)).sample
        if spec == "zeros":
            kind, arg = "delta", 0.0
        if kind != "delta":
            raise ValueError(f"unknown init {spec!r}")
        spec = (kind, arg)
    if isinstance(spec, tuple) and spec[0] == "delta":
        a = float(spec[1])
        if not math.isfinite(a):
            raise ValueError(f"non-finite position in init {spec!r}")
        return lambda rng, n: np.full(n, a)
    return spec if callable(spec) else lambda rng, n: spec


def draw_initial(spec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n starting positions drawn from ``spec`` (see parse_init)."""
    drawn = parse_init(spec)(rng, n)
    pos = drawn.atoms.copy() if isinstance(drawn, EmpiricalMeasure) \
        else np.array(drawn, dtype=float)
    if pos.shape != (n,):
        raise ValueError("initial positions must have length n")
    if not np.all(np.isfinite(pos)):
        raise ValueError("non-finite position")
    return pos


def new_system(n: int, init="zeros", seed=None) -> ParticleSystem:
    """Fresh system at time 0 with positions drawn from ``init`` (parse_init)."""
    if n < 1:
        raise ValueError("need at least one particle")
    rng = np.random.default_rng(seed)
    return ParticleSystem(positions=draw_initial(init, rng, n), time=0.0,
                          n_events=0, rng=rng, seed=seed)


def _jump(positions: np.ndarray, j: int):
    """Leftmost particle (lowest index on ties) jumps onto the j-th other one.

    Returns (victim, target, displacement).
    """
    victim = int(positions.argmin())
    target = j + 1 if j >= victim else j
    displacement = positions[target] - positions[victim]
    positions[victim] = positions[target]
    return victim, target, displacement


# Numbers per block of Gaussian rows in the plain and coupled loops (512 KiB),
# and rings an event clock draws at a time.
_CELLS = 1 << 16
_RINGS = 1024


class _Clock:
    """The event clock of a loop: a Poisson clock of integer rate R, the sum
    of R unit clocks.

    Its next rings are drawn ahead in blocks: their times (ascending) and
    which unit clock rang (the jump pick, uniform on 0..R-1).  Pending rings
    stay for the next call, plain or lazy.
    """

    def __init__(self, times=(), picks=()):
        self.times, self.picks, self.head = list(times), list(picks), 0

    def take(self, rng: np.random.Generator, t: float, t_end: float,
             rate: int, room: int):
        """The pending rings up to t_end, at most ``room`` of them; when none
        is pending, a block of rings after t is drawn first."""
        h = self.head
        if h == len(self.times):
            waits = rng.standard_exponential(_RINGS)
            waits *= 1.0 / rate
            waits[0] += t
            self.times = np.add.accumulate(waits).tolist()
            self.picks = rng.integers(rate, size=_RINGS).tolist()
            h = 0
        k = self.head = min(bisect.bisect_right(self.times, t_end, h), h + room)
        return self.times[h:k], self.picks[h:k]

    def passes(self, t_end: float) -> bool:
        """Whether the next ring is known to come after t_end."""
        return self.head < len(self.times) and self.times[self.head] > t_end


def _steps(rng: np.random.Generator, t: float, times: list,
           n: int) -> np.ndarray:
    """One row of n Gaussians per step of a loop from t to each of ``times``
    in turn, scaled to the step's length."""
    g = rng.standard_normal((len(times), n))
    if len(times) == 1:
        g *= math.sqrt(times[0] - t)
    else:
        g *= np.sqrt([b - a for a, b in zip([t] + times, times)])[:, None]
    return g


# Laziness pays once N Gaussians per event cost more than its bookkeeping
# (measured on a 2-CPU Xeon: parity near N = 768, 1.3x faster at 1024,
# 3.6x at 4096) and a call is long enough to amortise opening and closing
# it (~0.3 ms at N = 1024, the saving of ~50 events).
LAZY_MIN_N = 1024
LAZY_MIN_EVENTS = 256
# Tuning of _LazyCall: any values keep it exact in law, these keep it fast
# (measured on a grid at N = 1024 to 65536, see CHANGES.md).  Above N = 4096
# the band narrows as 1/sqrt(N), which keeps the number of actives flat.
_BAND = 0.3       # a particle further than this above the leftmost turns passive
_LEVEL = 0.3      # ... with its level this fraction of its gap above the leftmost
_SLACK = 1 / 3    # a front takes the levels below leftmost + this x band
_REBUILD = 128    # events between two demotions of the far actives
_NEVER = 1e300    # first-passage lag standing in for a Z = 0 draw
_GAUSS = 4096     # least size of a block of the actives' increments


def _scalars(draw):
    """Standard draws one at a time (call next on it), drawn in blocks."""
    while True:
        yield from draw(_RINGS).tolist()


def _bridge(t, x, h, T, s, z, e):
    """h + a Bessel(3) bridge from x - h at time t to 0 at T, drawn at s.

    The bridge is the norm of a 3-D Brownian bridge, so one standard normal
    z (the coordinate along x - h) and one Exp(1) e (half the squared norm
    of the other two) give its value.  Takes floats or arrays, t < s < T.
    """
    var = (s - t) * (T - s) / (T - t)
    mean = (T - s) / (T - t) * (x - h) + var ** 0.5 * z
    return h + (mean * mean + 2.0 * var * e) ** 0.5


class _Order:
    """Passive particles sorted by one key (level or passage time).

    One sorted run, read from its head.  A merge joins the sorted new
    entries to the unread run by a stable argsort and drops stale entries:
    O(N), but merges are rare (0.02-0.05 per event at N = 1024 to 65536).
    An entry goes stale when its particle becomes active or gets a new key;
    stale entries are skipped at the head.  On equal keys older entries
    come first.
    """

    def __init__(self, slot: np.ndarray, key: np.ndarray):
        self.slot, self.key = slot, key          # key: a column of the table
        self.keys = np.empty(0)
        self.ids = np.empty(0, dtype=np.intp)
        self.head = 0

    def live(self, ids, keys) -> np.ndarray:
        return (self.slot[ids] < 0) & (self.key[ids] == keys)

    def first(self) -> float:
        """Smallest live key (inf if none), its entry moved to the head."""
        keys, ids, slot, key = self.keys, self.ids, self.slot, self.key
        p = self.head
        while p < keys.size:
            q = ids[p]
            if slot[q] < 0 and key[q] == keys[p]:
                self.head = p
                return keys[p]
            p += 1
        self.head = p
        return math.inf

    def pop(self) -> int:
        """The id whose key the last first() returned, removed."""
        self.head += 1
        return self.ids[self.head - 1]

    def take(self, limit: float) -> np.ndarray:
        """Live ids with key <= limit in key order, removed from the order."""
        p = self.head
        self.head = p + int(np.searchsorted(self.keys[p:], limit, "right"))
        ids = self.ids[p:self.head]
        return ids[self.live(ids, self.keys[p:self.head])]

    def merge(self, keys: np.ndarray, ids: np.ndarray) -> None:
        new = keys.argsort()
        keys = np.concatenate((self.keys[self.head:], keys[new]))
        ids = np.concatenate((self.ids[self.head:], ids[new]))
        order = keys.argsort(kind="stable")
        keys, ids = keys[order], ids[order]
        ok = self.live(ids, keys)
        self.keys, self.ids, self.head = keys[ok], ids[ok], 0


class _LazyCall:
    """The state of one lazy _run call: active values and a passive table.

    A passive particle has a row (t, x, h, T): it was at x at time t, h < x
    is a level fixed from what was known at t, and T the first-passage time
    to h, drawn as t + (x - h)^2 / Z^2.  On (t, T) its path is h plus a
    Bessel(3) bridge from x - h to 0 (_bridge draws it at any time); a jump
    target drawn so keeps (h, T) with (t, x) = (s, value).  After T it is
    free Brownian motion from h.

    At an event the actives diffuse; every passive with T <= s is promoted
    at h + sqrt(s - T) Z, and while a level lies below the smallest active
    value, the levels below it (plus _SLACK x band) are drawn as bridges.
    Then no passive can be the leftmost and the victim is the argmin of the
    actives.  A particle leaves the pool, dropping T, only on what is known
    at that time: its level against materialised values, T <= now, or the
    end of the call, never because T is near; so its law given what was
    used stays that of Brownian motion.  Every _REBUILD events the actives
    more than the band (_BAND, narrower for N > 4096) above the leftmost
    turn passive again, and the call ends at t_end by materialising every
    passive, so no lazy state outlives it.

    The passives wait in two _Orders, one sorted run each, by level and by
    passage time (only passage times up to t_end: a later one is never
    read); fronts and demotions merge into them through place.  The actives'
    increments are slices of one flat Gaussian block, and the scalars of
    expiries and bridge draws come in blocks too.  What a call leaves of
    its blocks is dropped: which draws are used never depends on their
    values, so the law holds, and a restored checkpoint draws the same.
    """

    def __init__(self, ps: ParticleSystem, t_end=math.inf):
        n = ps.n
        self.rng, self.t_end = ps.rng, t_end
        self.values = np.empty(n)                  # active values by slot
        self.ids = np.empty(n, dtype=np.intp)      # particle in each slot
        self.slot = np.full(n, -1, dtype=np.intp)  # slot, or -1 if passive
        self.table = np.empty((n, 4))              # passive rows (t, x, h, T)
        self.size = 0
        self.band = _BAND * min(1.0, math.sqrt(4096 / n))
        self.by_level = _Order(self.slot, self.table[:, 2])
        self.by_passage = _Order(self.slot, self.table[:, 3])
        self.promotions = self.bridge_draws = 0
        self.place(np.arange(n), ps.positions, ps.time, ps.positions.min())

    def place(self, ids, values, s, low) -> None:
        """Materialised particles at time s join the actives if within
        the band of ``low``, else turn passive with a fresh level."""
        far = values > low + self.band
        near = ~far
        k0, k1 = self.size, self.size + ids.size - np.count_nonzero(far)
        self.values[k0:k1] = values[near]
        self.ids[k0:k1] = ids[near]
        self.slot[self.ids[k0:k1]] = np.arange(k0, k1)
        self.size = k1
        ids, x = ids[far], values[far]
        h = low + _LEVEL * (x - low)
        with np.errstate(divide="ignore"):
            T = ((x - h) / self.rng.standard_normal(ids.size)) ** 2
        np.fmin(T, _NEVER, out=T)
        T += s                           # t + the passage lag
        self.slot[ids] = -1
        table = self.table               # rows written column by column
        table[ids, 0] = s
        table[ids, 1] = x
        table[ids, 2] = h
        table[ids, 3] = T
        self.by_level.merge(h, ids)
        soon = T <= self.t_end           # no later passage is ever read
        self.by_passage.merge(T[soon], ids[soon])

    def value_at(self, ids, s) -> np.ndarray:
        """Draw the passives ``ids`` at time s (bridge before T, free after)."""
        t, x, h, T = self.table[ids].T
        z = self.rng.standard_normal(ids.size)
        e = self.rng.standard_exponential(ids.size)
        b = T > s
        self.bridge_draws += np.count_nonzero(b)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(b, _bridge(t, x, h, T, s, z, e),
                            h + np.sqrt(np.maximum(s - T, 0.0)) * z)

    def expire(self, s, T, z) -> float:
        """Activate the head of the passage order: it hit its level h at
        T <= s and has moved freely since.  Returns its value at s."""
        q = self.by_passage.pop()
        k = self.size
        y = self.values[k] = self.table[q, 2] + math.sqrt(s - T) * z
        self.ids[k], self.slot[q] = q, k
        self.size = k + 1
        self.promotions += 1
        return y

    def front(self, s, low) -> None:
        """Draw every passive with a level below low + _SLACK x band at s."""
        ids = self.by_level.take(low + _SLACK * self.band)
        values = self.value_at(ids, s)
        self.promotions += ids.size
        self.place(ids, values, s, min(low, values.min()))

    def demote(self, s) -> None:
        """Actives more than the band above the leftmost turn passive."""
        av, ids = self.values[:self.size], self.ids[:self.size]
        low = av.min()
        far = av > low + self.band
        moved, moved_at, keep = ids[far], av[far], ids[~far]   # copies
        self.values[:keep.size] = av[~far]
        self.ids[:keep.size] = keep
        self.slot[keep] = np.arange(keep.size)
        self.size = keep.size
        self.place(moved, moved_at, s, low)

    def run(self, ps: ParticleSystem, events):
        rng, clock, t_end = self.rng, ps.clock, self.t_end
        values, ids, slot, table = self.values, self.ids, self.slot, self.table
        t, jump, done, bridges = ps.time, None, 0, 0
        av = values[:self.size]
        next_level, next_passage = self.by_level.first(), self.by_passage.first()
        block, p = np.empty(0), 0          # the actives' increments
        normal = _scalars(rng.standard_normal).__next__
        exponential = _scalars(rng.standard_exponential).__next__
        while done < events and not clock.passes(t_end):
            times, picks = clock.take(rng, t, t_end, ps.n - 1, events - done)
            for s, target in zip(times, picks):
                m = av.size
                if p + m > block.size:
                    block, p = rng.standard_normal(max(_GAUSS, 32 * m)), 0
                z = block[p:p + m]
                p += m
                z *= math.sqrt(s - t)
                av += z
                i = int(av.argmin())
                low = av[i]
                if s >= next_passage:
                    while s >= next_passage:
                        y = self.expire(s, next_passage, normal())
                        if y < low:
                            i, low = self.size - 1, y
                        next_passage = self.by_passage.first()
                    av = values[:self.size]
                if low > next_level and \
                        (next_level := self.by_level.first()) < low:
                    self.front(s, low)
                    av = values[:self.size]
                    i = int(av.argmin())
                    low = av[i]
                    next_level = self.by_level.first()
                    next_passage = self.by_passage.first()
                victim = int(ids[i])
                if target >= victim:
                    target += 1
                k = slot[target]
                if k >= 0:
                    y = values[k]
                else:
                    t0, x, h, T = table[target].tolist()
                    y = _bridge(t0, x, h, T, s, normal(), exponential())
                    table[target, 0] = s
                    table[target, 1] = y
                    bridges += 1
                values[i] = y
                t = s
                done += 1
                if done % _REBUILD == 0:
                    self.demote(s)
                    av = values[:self.size]
                    next_level = self.by_level.first()
                    next_passage = self.by_passage.first()
        if done:
            jump = (victim, target, y - low)
        if done == events:
            t_end = t                      # stopped by the event count
        elif t_end > t:
            z = rng.standard_normal(av.size)
            z *= math.sqrt(t_end - t)
            av += z
        passive = np.flatnonzero(slot < 0)
        ps.positions[ids[:self.size]] = av
        ps.positions[passive] = self.value_at(passive, t_end)
        ps.time = t_end
        ps.n_events += done
        ps.promotions += self.promotions
        ps.bridge_draws += self.bridge_draws + bridges
        return jump


def _run(ps: ParticleSystem, t_end: float, events=math.inf):
    """The event loop: perform up to ``events`` selection events before t_end.

    When the next event would fall after t_end, diffuse to t_end and return
    None; otherwise return the last jump of _jump.  Every call takes its
    events from ps.clock, which draws waits and jump picks in blocks and
    keeps the rings past t_end for the next call.  A call at N >= LAZY_MIN_N
    expecting at least LAZY_MIN_EVENTS events runs lazily (_LazyCall); every
    other call takes one block of Gaussian rows per batch of events
    (_steps), and the loop itself only adds a row, takes the argmin and
    copies.
    """
    n, rng = ps.n, ps.rng
    if n >= max(LAZY_MIN_N, 2) \
            and min(events, (t_end - ps.time) * (n - 1)) >= LAZY_MIN_EVENTS:
        return _LazyCall(ps, t_end).run(ps, events)
    clock, positions, jump = ps.clock, ps.positions, None
    room = max(_CELLS // n, 1)
    while n > 1 and events > 0 and not clock.passes(t_end):  # n = 1: no jumps
        times, picks = clock.take(rng, ps.time, t_end, n - 1, min(events, room))
        for row, j, t in zip(_steps(rng, ps.time, times, n), picks, times):
            positions += row
            jump = _jump(positions, j)
            ps.time = t
        ps.n_events += len(picks)
        events -= len(picks)
    if events == 0:
        return jump
    positions += _steps(rng, ps.time, [t_end], n)[0]   # diffuse to t_end
    ps.time = t_end
    return None


def step_event(ps: ParticleSystem) -> Event:
    """Advance to the next selection event and perform the jump."""
    if ps.n < 2:
        raise ValueError("no selection events")
    victim, target, displacement = _run(ps, math.inf, events=1)
    return Event(time=ps.time, victim_index=victim, target_index=target,
                 displacement=float(displacement))


def check_end(now: float, t_end: float) -> None:
    """Reject an end time that is not finite or comes before ``now``."""
    if not now <= t_end < math.inf:
        raise ValueError(f"end time {t_end!r} is before {now!r} or not finite")


def advance_to(ps: ParticleSystem, t_end: float) -> None:
    """Run events up to t_end, then diffuse over the final partial interval."""
    check_end(ps.time, t_end)
    _run(ps, t_end)


def snapshot(ps: ParticleSystem, centring: str = "none") -> EmpiricalMeasure:
    """Empirical measure of the current positions, optionally recentred."""
    mu = from_positions(ps.positions)
    if centring == "none":
        return mu
    return recentre(mu, centring)


def log_trajectory(ps: ParticleSystem, t_end: float, interval: float, path) -> None:
    """Advance to t_end writing CSV rows (time, L, A, M, n_events) every interval."""
    if not interval > 0:
        raise ValueError("log interval must be positive")
    check_end(ps.time, t_end)
    with open(path, "w") as fh:
        fh.write("time,L,A,M,n_events\n")
        _write_row(fh, ps)
        while ps.time < t_end:
            advance_to(ps, min(ps.time + interval, t_end))
            _write_row(fh, ps)


def _write_row(fh, ps: ParticleSystem) -> None:
    fh.write(f"{ps.time!r},{ps.leftmost!r},{ps.median!r},"
             f"{ps.barycentre!r},{ps.n_events}\n")


def checkpoint(ps: ParticleSystem) -> dict:
    """Full-state dict; restoring reproduces the run bit-exactly."""
    return {
        "seed": ps.seed,
        "time": ps.time,
        "n_events": ps.n_events,
        "ring_picks": ps.clock.picks[ps.clock.head:],
        "ring_times": ps.clock.times[ps.clock.head:],
        "positions": [float(x) for x in ps.positions],
        "rng_state": ps.rng.bit_generator.state,
    }


def save_checkpoint(ps: ParticleSystem, path) -> None:
    with open(path, "w") as fh:
        json.dump(checkpoint(ps), fh, sort_keys=True)


def from_checkpoint(state) -> ParticleSystem:
    if not isinstance(state, dict):
        with open(state) as fh:
            state = json.load(fh)
    rng = np.random.default_rng()
    rng.bit_generator.state = state["rng_state"]
    return ParticleSystem(
        positions=np.asarray(state["positions"], dtype=float),
        time=float(state["time"]),
        n_events=int(state["n_events"]),
        clock=_Clock(state.get("ring_times", ()), state.get("ring_picks", ())),
        rng=rng,
        seed=state.get("seed"),
    )
