"""Travelling-wave profiles of the free-boundary equation.

The minimal wave has speed sqrt(2) and density 2x e^{-sqrt(2) x} on x > 0.
For speeds c > sqrt(2) the profile solves the eigenproblem
phi''/2 + c phi' + phi = 0 with phi(0) = 0, giving
(2/g) e^{-cx} sinh(g x) with g = sqrt(c^2 - 2); it reduces continuously to
the minimal wave as c -> sqrt(2).  All closed forms below (tails, their
integrals, derivatives, means) follow by direct integration.  They are
written from e^{-(c-g)x} and (1 - e^{-2gx})/g (through expm1), using
c^2 - g^2 = 2, so they neither overflow nor cancel as x grows or g -> 0.
"""

import functools
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
    return MINIMAL_WAVE.density(x)


@functools.cache
def _lambertw():
    """scipy's Lambert W, imported on first use (scipy.special is slow)."""
    from scipy.special import lambertw
    return lambertw


def _on(mask, inside, outside):
    out = np.where(mask, inside, outside)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class TravellingWave:
    """Closed-form travelling wave at speed c, with tails, quantiles, sampler."""

    speed: float
    gamma: float = field(init=False)
    support_left: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not SQRT2 - SPEED_TOL <= self.speed < math.inf:   # NaN fails too
            raise ValueError("subcritical or non-finite speed")
        c = max(self.speed, SQRT2)
        g = math.sqrt(max(c * c - 2.0, 0.0))
        if g < _DEGENERATE_GAP:
            c, g = SQRT2, 0.0
        object.__setattr__(self, "speed", c)
        object.__setattr__(self, "gamma", g)

    @property
    def mean(self) -> float:
        return self.speed

    def _parts(self, x):
        """x, e^{-(c-g)x+} and q = (1 - e^{-2gx+})/g (2x+ if g = 0), x+ = max(x, 0)."""
        x = np.asarray(x, dtype=float)
        xp, g = np.maximum(x, 0.0), self.gamma
        q = -np.expm1(-2.0 * g * xp) / g if g else 2.0 * xp
        return x, np.exp((g - self.speed) * xp), q

    def density(self, x):
        x, e, q = self._parts(x)
        return _on(x > 0, e * q, 0.0)

    def density_dx(self, x):
        x, e, q = self._parts(x)
        return _on(x > 0, e * (2.0 - (self.speed + self.gamma) * q), 0.0)

    def density_dxx(self, x):
        c, g = self.speed, self.gamma
        x, e, q = self._parts(x)
        return _on(x > 0, e * (2.0 * (1.0 + g * (c + g)) * q - 4.0 * c), 0.0)

    def tail(self, x):
        x, e, q = self._parts(x)
        return _on(x >= 0, e * (1.0 + 0.5 * (self.speed - self.gamma) * q), 1.0)

    def tail_integral(self, x):
        """int_x^inf tail(y) dy (equals x's deficit plus the mean at x <= 0)."""
        c, g = self.speed, self.gamma
        x, e, q = self._parts(x)
        return _on(x >= 0, e * (c + q * ((c - g) / (2.0 * (c + g)))), c - x)

    def quantile(self, y):
        """Inverse tail: x with tail(x) = y, for levels y in (0, 1].

        Newton's method on log tail(x) = log y, which is concave (the
        densities are log-concave): after the first step the iterates fall
        monotonically to the root, inside [L, L + log((c+g)/2g)]/(c - g),
        L = -log y ([L, 2L + 2]/sqrt(2) if g = 0).  They start from the
        minimal wave's root s = sqrt(2) x of s - log1p(s) = L, at or left of
        every wave's: -1 - W_{-1}(-y/e), or near y = 1, where Lambert W is
        inaccurate, r + r^2/3 + r^3/36 with r = sqrt(2L).  Three steps reach
        the minimal wave's root to round-off, six any other's.
        """
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        if not np.all((y_arr > 0.0) & (y_arr <= 1.0)):   # NaN fails too
            raise ValueError("quantile level must lie in (0, 1]")
        c, g = self.speed, self.gamma
        # tail == 1 exactly on x <= 0, so the top quantile is the support edge
        out = np.zeros_like(y_arr)
        live = y_arr < 1.0
        ell = -np.log(y_arr[live])
        r = np.sqrt(2.0 * ell)
        s = np.where(r < 0.5, r + r * r / 3.0 + r ** 3 / 36.0,
                     -1.0 - _lambertw()(-y_arr[live] / math.e, -1).real)
        lo = ell / (c - g)
        hi = lo + (math.log((c + g) / (2.0 * g)) if g else ell + 2.0) / (c - g)
        x = np.fmin(np.fmax(s / SQRT2, lo), hi)   # W: -inf or NaN at y < 1e-308
        for _ in range(6 if g else 3):
            q = self._parts(x)[2]
            b = 0.5 * (c - g) * q
            x = np.clip(x + (np.log1p(b) - (c - g) * x + ell) * (1.0 + b) / q,
                        lo, hi)
        out[live] = x
        return out if np.ndim(y) else float(out[0])

    def median(self) -> float:
        return self.quantile(0.5)

    def sample(self, rng: np.random.Generator, n: int) -> EmpiricalMeasure:
        """n iid draws, as the quantiles of n uniform levels rng.random(n)."""
        if n < 1:
            raise ValueError("need at least one sample")
        return from_positions(self.quantile(rng.random(n)))

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


def travelling_wave(c: float) -> TravellingWave:
    return TravellingWave(float(c))


MINIMAL_WAVE = TravellingWave(SQRT2)


def sample_pi_min(rng: np.random.Generator, n: int) -> EmpiricalMeasure:
    """n iid draws from the minimal wave by its closed-form inverse tail."""
    return MINIMAL_WAVE.sample(rng, n)


def quantile_inverts_tail(wave, x) -> bool:
    """Whether quantile(tail(x)) returns each x >= 0 to 1e-12 * max(1, x),
    in tail units (times density(x)) with 8 ulp of tail(x) of slack: near
    x = 0 one ulp of tail(x) spans up to ulp/density in x."""
    x = np.asarray(x, dtype=float)
    y, d = wave.tail(x), wave.density(x)
    err = np.abs(wave.quantile(y) - x) * d
    return bool(np.all(err <= 1e-12 * np.maximum(1.0, x) * d
                       + 8.0 * np.finfo(float).eps * y))


def wave_ode_residual(wave: TravellingWave, x):
    """phi''/2 + c phi' + phi, evaluated with the closed-form derivatives."""
    return (0.5 * wave.density_dxx(x) + wave.speed * wave.density_dx(x)
            + wave.density(x))
