"""Travelling-wave profiles of the free-boundary equation.

The minimal wave has speed sqrt(2) and density 2x e^{-sqrt(2) x} on x > 0.
For speeds c > sqrt(2) the profile solves the eigenproblem
phi''/2 + c phi' + phi = 0 with phi(0) = 0, giving
(2/g) e^{-cx} sinh(g x) with g = sqrt(c^2 - 2); it reduces continuously to
the minimal wave as c -> sqrt(2).  All closed forms below (tails, their
integrals, derivatives, means) follow by direct integration.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import EmpiricalMeasure, from_positions

SQRT2 = math.sqrt(2.0)
SPEED_TOL = 1e-9
# below this, (c - sqrt2) is numerically indistinguishable from the minimal wave
_DEGENERATE_GAP = 1e-7


def pi_min(x):
    """Minimal-wave density 2x e^{-sqrt(2) x} for x > 0, else 0."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, 2.0 * x * np.exp(-SQRT2 * x), 0.0)
    return out if out.ndim else float(out)


def pi_min_tail(x):
    """Tail of the minimal wave: (1 + sqrt(2) x) e^{-sqrt(2) x} for x >= 0, else 1."""
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 0, (1.0 + SQRT2 * x) * np.exp(-SQRT2 * np.maximum(x, 0.0)), 1.0)
    return out if out.ndim else float(out)


def pi_c(x, c):
    """Travelling-wave density at speed c >= sqrt(2)."""
    return travelling_wave(c).density(x)


@dataclass(frozen=True)
class TravellingWave:
    """Closed-form travelling wave at speed c, with tails, quantiles, sampler."""

    speed: float
    gamma: float = field(init=False)
    support_left: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.speed < SQRT2 - SPEED_TOL:
            raise ValueError("subcritical speed")
        c = max(self.speed, SQRT2)
        object.__setattr__(self, "speed", c)
        object.__setattr__(self, "gamma", math.sqrt(max(c * c - 2.0, 0.0)))

    @property
    def is_minimal(self) -> bool:
        return self.gamma < _DEGENERATE_GAP

    @property
    def mean(self) -> float:
        return self.speed

    def density(self, x):
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        if self.is_minimal:
            out = 2.0 * xp * np.exp(-SQRT2 * xp)
        else:
            c, g = self.speed, self.gamma
            out = (2.0 / g) * np.exp(-c * xp) * np.sinh(g * xp)
        out = np.where(x > 0, out, 0.0)
        return out if out.ndim else float(out)

    def density_dx(self, x):
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        if self.is_minimal:
            out = 2.0 * np.exp(-SQRT2 * xp) * (1.0 - SQRT2 * xp)
        else:
            c, g = self.speed, self.gamma
            out = (2.0 / g) * np.exp(-c * xp) * (g * np.cosh(g * xp) - c * np.sinh(g * xp))
        out = np.where(x > 0, out, 0.0)
        return out if out.ndim else float(out)

    def density_dxx(self, x):
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        if self.is_minimal:
            out = 2.0 * np.exp(-SQRT2 * xp) * (2.0 * xp - 2.0 * SQRT2)
        else:
            c, g = self.speed, self.gamma
            out = (2.0 / g) * np.exp(-c * xp) * (
                (c * c + g * g) * np.sinh(g * xp) - 2.0 * c * g * np.cosh(g * xp))
        out = np.where(x > 0, out, 0.0)
        return out if out.ndim else float(out)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        if self.is_minimal:
            out = (1.0 + SQRT2 * xp) * np.exp(-SQRT2 * xp)
        else:
            c, g = self.speed, self.gamma
            out = (np.exp(-(c - g) * xp) / (c - g) - np.exp(-(c + g) * xp) / (c + g)) / g
        out = np.where(x >= 0, out, 1.0)
        return out if out.ndim else float(out)

    def tail_integral(self, x):
        """int_x^inf tail(y) dy (equals x's deficit plus the mean at x <= 0)."""
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        if self.is_minimal:
            pos = np.exp(-SQRT2 * xp) * (xp + SQRT2)
        else:
            c, g = self.speed, self.gamma
            pos = (np.exp(-(c - g) * xp) / (c - g) ** 2
                   - np.exp(-(c + g) * xp) / (c + g) ** 2) / g
        out = np.where(x >= 0, pos, self.mean - x)
        return out if out.ndim else float(out)

    def quantile(self, y):
        """Inverse tail: x with tail(x) = y, bisected to 1e-12; y in (0, 1]."""
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(y_arr <= 0.0) or np.any(y_arr > 1.0):
            raise ValueError("quantile level must lie in (0, 1]")
        lo = np.zeros_like(y_arr)
        hi = np.full_like(y_arr, 1.0)
        while np.any(self.tail(hi) > y_arr):
            hi = np.where(self.tail(hi) > y_arr, hi * 2.0, hi)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            above = self.tail(mid) >= y_arr
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        # tail == 1 exactly on x <= 0, so the top quantile is the support edge
        out = np.where(y_arr >= 1.0, 0.0, 0.5 * (lo + hi))
        return out if np.ndim(y) else float(out[0])

    def median(self) -> float:
        return self.quantile(0.5)

    def sample(self, rng: np.random.Generator, n: int) -> EmpiricalMeasure:
        if n < 1:
            raise ValueError("need at least one sample")
        u = rng.random(n)
        return from_positions(self.quantile(u))

    def median_centred_tail(self) -> "ShiftedTail":
        """Tail of the wave recentred so its median sits at 0."""
        return ShiftedTail(self, -self.median())


@dataclass(frozen=True)
class ShiftedTail:
    """A travelling-wave tail translated by a constant (same interface)."""

    wave: TravellingWave
    shift: float

    @property
    def support_left(self) -> float:
        return self.wave.support_left + self.shift

    def tail(self, x):
        return self.wave.tail(np.asarray(x, dtype=float) - self.shift)

    def tail_integral(self, x):
        return self.wave.tail_integral(np.asarray(x, dtype=float) - self.shift)

    def quantile(self, y):
        return self.wave.quantile(y) + self.shift

    def value(self, x):
        return self.tail(x)


def travelling_wave(c: float) -> TravellingWave:
    return TravellingWave(float(c))


MINIMAL_WAVE = TravellingWave(SQRT2)


def sample_pi_min(rng: np.random.Generator, n: int) -> EmpiricalMeasure:
    """n iid draws from the minimal wave via inverse-tail bisection."""
    return MINIMAL_WAVE.sample(rng, n)


def wave_ode_residual(wave: TravellingWave, x):
    """phi''/2 + c phi' + phi, evaluated with the closed-form derivatives."""
    return (0.5 * wave.density_dxx(x)
            + wave.speed * wave.density_dx(x)
            + wave.density(x))
