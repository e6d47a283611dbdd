"""Event-driven simulation of N Brownian particles with leftmost-jump selection.

Between events every particle diffuses independently; at exponential times
of rate N - 1 the leftmost particle jumps to the position of another
particle chosen uniformly at random.  The event loop is exact in law:
each waiting time is Exponential(N - 1), positions advance by Gaussians of
variance equal to the elapsed time, and the jump acts on the state at the
event time.
"""

import json
import math
from dataclasses import dataclass

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


def _jump(positions: np.ndarray, rng: np.random.Generator):
    """Leftmost particle (lowest index on ties) jumps onto a uniform other one.

    Returns (victim, target, displacement).
    """
    victim = int(positions.argmin())
    j = int(rng.integers(positions.size - 1))
    target = j + 1 if j >= victim else j
    displacement = positions[target] - positions[victim]
    positions[victim] = positions[target]
    return victim, target, displacement


def _diffuse(positions: np.ndarray, rng: np.random.Generator, dt: float):
    """Independent Gaussian increments of variance dt, scaled in place."""
    z = rng.standard_normal(positions.size)
    z *= math.sqrt(dt)
    positions += z


def _run(ps: ParticleSystem, t_end: float, events=math.inf):
    """The event loop: perform up to ``events`` selection events before t_end.

    When the next event would fall after t_end, diffuse to t_end and return
    None; otherwise return the last jump of _jump.
    """
    positions, rng = ps.positions, ps.rng
    rate = 1.0 / (ps.n - 1) if ps.n > 1 else None   # a lone particle never jumps
    jump = None
    while events > 0:
        dt = rng.exponential(rate) if rate else math.inf
        if ps.time + dt > t_end:
            rem = t_end - ps.time
            if rem > 0.0:
                _diffuse(positions, rng, rem)
            ps.time = t_end
            return None
        _diffuse(positions, rng, dt)
        jump = _jump(positions, rng)
        ps.time += dt
        ps.n_events += 1
        events -= 1
    return jump


def step_event(ps: ParticleSystem) -> Event:
    """Advance to the next selection event and perform the jump."""
    if ps.n < 2:
        raise ValueError("no selection events")
    victim, target, displacement = _run(ps, math.inf, events=1)
    return Event(time=ps.time, victim_index=victim, target_index=target,
                 displacement=float(displacement))


def advance_to(ps: ParticleSystem, t_end: float) -> None:
    """Run events up to t_end, then diffuse over the final partial interval."""
    if t_end < ps.time:
        raise ValueError("t_end before current time")
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
        rng=rng,
        seed=state.get("seed"),
    )
