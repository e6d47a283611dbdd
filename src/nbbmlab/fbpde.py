"""Free-boundary PDE solver: diffusion + growth with the left-mass cut.

Density form: u_t = u_xx / 2 + u right of a boundary L_t, u(L_t) = 0, and
unit mass right of L_t.  Each step splits into (i) Crank-Nicolson
half-diffusion with absorbing far field, (ii) exact growth e^{dt},
(iii) a cut that relocates the boundary where the mass to its right is
exactly 1 and zeroes the density left of it.  The boundary is read off
inside the cut cell from the piecewise-linear density, so it is resolved
below grid spacing.

Integrated (tail) form: either accumulate tails of the density solve, or
run the penalised reaction-diffusion U_t = U_xx / 2 + U - U^n whose large-n
limit is the same free-boundary flow; the reaction substep uses the exact
Bernoulli solution, so it is stable and keeps U in [0, 1].

Point-mass initial data are warm-started with the exact heat kernel over a
few steps' worth of time; Crank-Nicolson would otherwise ring on the spike.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import waves
from .measures import (EmpiricalMeasure, TailCdf, from_positions, quantile,
                       wasserstein_w)

WINDOW_TAIL_TOL = 1e-10
# The split-cut cut, after growth, zeroes the density right of its last node
# >= TAIL_FLOOR: a Brunet-Derrida cutoff at N = 1 / TAIL_FLOOR, whose speed
# deficit is at most pi^2 / (sqrt(2) ln^2(1 / TAIL_FLOOR)) ~ 1.5e-3 and shows
# only after ~ln^2(1 / TAIL_FLOOR) ~ 4,800 time units.  Against the unfloored
# full solve, L moved by at most 5.6e-14 (heaviside to t = 15, pic:1.6 to
# t = 20, pimin, and criterion 9's 12001-node grid to t = 0.2).  1e-16
# moved L by up to 4.1e-9; 1e-100 solved 2,885 and 2,859 rows a step where
# 1e-30 solves 2,336 and 1,678 (heaviside, 4001 and 12001 nodes).
TAIL_FLOOR = 1e-30


@dataclass
class FlowParams:
    dx: float = 0.01
    dt: float = 5e-4
    x_window: float = 40.0
    n_penalty: int = 64
    scheme: str = "split_cut"   # or "penalised"

    def __post_init__(self):
        if self.dx <= 0 or self.dt <= 0 or self.x_window <= 0:
            raise ValueError("grid parameters must be positive")
        if self.dt > self.dx:
            raise ValueError("dt exceeds dt_max(dx) for the splitting scheme")
        if self.scheme not in ("split_cut", "penalised"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        # exp((n - 1) dt) in the reaction substep must stay a float
        if self.scheme == "penalised" and \
                not 2 <= self.n_penalty <= 1 + 700.0 / self.dt:
            raise ValueError("n_penalty must be at least 2, with "
                             "(n_penalty - 1) * dt at most 700")

    @property
    def tol_stretch(self) -> float:
        return 2.0 * self.dx


@dataclass
class Profile:
    """Density values on a uniform grid with a sub-cell boundary position.

    Nodes more than one cell left of the boundary are zero; the node just
    left of it carries the partial-cell value that makes the trapezoidal
    mass exactly 1.
    """

    grid: np.ndarray
    u: np.ndarray
    boundary: float
    t: float

    def mass(self) -> float:
        return float(np.trapezoid(self.u, self.grid))

    def tail(self) -> TailCdf:
        seg = 0.5 * (self.u[1:] + self.u[:-1]) * np.diff(self.grid)
        vals = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
        vals = np.clip(vals, 0.0, None)
        vals /= vals[0]
        return TailCdf(self.grid, vals, validate=False)

    def median(self) -> float:
        return quantile(self.tail(), 0.5)

    def quantile_measure(self, k: int) -> EmpiricalMeasure:
        """k atoms at the (j - 1/2)/k quantiles of the profile."""
        levels = 1.0 - (np.arange(k) + 0.5) / k
        return from_positions(quantile(self.tail(), levels))

    def shifted(self, c: float) -> "Profile":
        return Profile(self.grid + c, self.u.copy(), self.boundary + c, self.t)


@dataclass
class Trajectory:
    profiles: list
    times: np.ndarray      # one entry per step
    boundary: np.ndarray   # L at those times
    params: FlowParams

    @property
    def final(self) -> Profile:
        return self.profiles[-1]

    def boundary_at(self, t) -> float:
        return float(np.interp(t, self.times, self.boundary))


@dataclass
class CdfTrajectory:
    tails: list
    tail_times: np.ndarray
    times: np.ndarray
    boundary: np.ndarray
    params: FlowParams

    @property
    def final(self) -> TailCdf:
        return self.tails[-1]


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

def make_initial(spec, params: FlowParams):
    """Normalise an initial-condition spec.

    Accepts a Profile, a TailCdf, ("delta", a),
    ("exp", lam), or the strings "heaviside" / "delta" / "pimin" /
    "pic:<c>" / "exp:<lam>".  Returns a Profile, or ("delta", a) which the
    stepper warm-starts itself.
    """
    if isinstance(spec, Profile):
        if not np.all((spec.u >= 0.0) & (spec.u < math.inf)):  # NaN fails
            raise ValueError("profile density must be finite and >= 0")
        if not np.allclose(np.diff(spec.grid), params.dx, rtol=1e-9, atol=0.0):
            raise ValueError("profile grid must be uniform with spacing dx")
        if spec.u.size < 3:
            raise ValueError("profile grid needs at least 3 nodes")
        return Profile(spec.grid.copy(), spec.u.copy(), spec.boundary, 0.0)
    if isinstance(spec, str):
        if spec in ("heaviside", "delta"):
            return ("delta", 0.0)
        if spec == "pimin":
            return _wave_profile(waves.MINIMAL_WAVE, params)
        if spec.startswith("pic:"):
            return _wave_profile(waves.travelling_wave(float(spec[4:])), params)
        if spec.startswith("exp:"):
            return _exp_profile(float(spec[4:]), params)
        raise ValueError(f"unknown initial condition {spec!r}")
    if isinstance(spec, tuple):
        kind = spec[0]
        if kind == "delta":
            return ("delta", float(spec[1]))
        if kind == "exp":
            return _exp_profile(float(spec[1]), params)
        raise ValueError(f"unknown initial condition {spec!r}")
    if isinstance(spec, TailCdf):
        return _profile_from_tail(spec, params)
    raise ValueError(f"unknown initial condition {spec!r}")


def _window_grid(left: float, params: FlowParams) -> np.ndarray:
    n = int(round(params.x_window / params.dx)) + 1
    return left + params.dx * np.arange(n)


def _check_window_tail(tail_at_right: float):
    if tail_at_right > WINDOW_TAIL_TOL:
        raise ValueError("x_window too small for the initial right tail")


def _wave_profile(wave, params: FlowParams) -> Profile:
    grid = _window_grid(-max(2.0, 0.1 * params.x_window), params)
    with np.errstate(over="ignore", invalid="ignore"):   # see _unit_mass
        _check_window_tail(wave.tail(grid[-1]))
        return _unit_mass(grid, wave.density(grid))


def _exp_profile(lam: float, params: FlowParams) -> Profile:
    if not 0 < lam < math.inf:   # NaN fails too
        raise ValueError("tail rate must be positive and finite")
    grid = _window_grid(-max(2.0, 0.1 * params.x_window), params)
    with np.errstate(over="ignore", invalid="ignore"):   # see _unit_mass
        _check_window_tail(math.exp(-lam * grid[-1]))
        return _unit_mass(grid, np.where(grid > 0, lam * np.exp(
            -lam * np.maximum(grid, 0.0)), 0.0))


def _unit_mass(grid: np.ndarray, u: np.ndarray) -> Profile:
    """u rescaled to unit mass; ValueError when the grid resolves no finite
    positive mass (a wave or rate too large for the grid to hold)."""
    mass = np.trapezoid(u, grid)
    if not (0.0 < mass < math.inf and np.all(np.isfinite(u))):
        raise ValueError("initial profile has no finite mass on the grid")
    u /= mass
    return Profile(grid, u, 0.0, 0.0)


def _profile_from_tail(u0: TailCdf, params: FlowParams) -> Profile:
    jump = 1.0 - float(u0.values[1])
    if jump > 0.5:
        # a full jump at the left edge is a point mass
        return ("delta", float(u0.grid[0]))
    left = float(quantile(u0, 1.0))  # anchor at the boundary, not the grid edge
    grid = _window_grid(left - max(1.0, 0.05 * params.x_window), params)
    _check_window_tail(float(u0.value(grid[-1])))
    vals = np.asarray(u0.value(grid))
    u = np.zeros_like(grid)
    u[1:-1] = (vals[:-2] - vals[2:]) / (2.0 * params.dx)
    u = np.clip(u, 0.0, None)
    u /= np.trapezoid(u, grid)
    return Profile(grid, u, left, 0.0)


def step_tail(grid, x0: float = 0.0) -> TailCdf:
    """Heaviside-type tail: 1 strictly left of x0, 0 from x0 on."""
    grid = np.asarray(grid, dtype=float)
    return TailCdf(grid, np.where(grid < x0, 1.0, 0.0))


def exp_tail(grid, lam: float) -> TailCdf:
    grid = np.asarray(grid, dtype=float)
    vals = np.minimum(1.0, np.exp(-lam * grid))
    vals[-1] = 0.0 if vals[-1] < 1e-8 else vals[-1]
    return TailCdf(grid, vals)


def wave_tail_on_grid(wave, grid) -> TailCdf:
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(wave.tail(grid))
    return TailCdf(grid, np.where(vals < 1e-12, 0.0, vals))


def dilate_tail(u0: TailCdf, factor: float) -> TailCdf:
    """U(x / factor) on a stretched grid; factor > 1 is more stretched."""
    return TailCdf(u0.grid * factor, u0.values.copy())


# ---------------------------------------------------------------------------
# Crank-Nicolson machinery
# ---------------------------------------------------------------------------

class _CrankNicolson:
    """Tridiagonal CN step for v_t = v_xx / 2 with Dirichlet ends.

    The end values are fixed (left_value on the left, 0 on the right), so
    only the interior rows 1 ... n - 2 are solved, with the left value
    folded into row 1's right-hand side.  Their matrix is symmetric and
    strictly diagonally dominant (diagonal 1 + 2r, off-diagonal -r), so it
    is factored once as L D L^T without pivoting (LAPACK dpttrf).

    A step of a field that is 0 outside v[lo:hi] solves only the rows
    [lo, end), with end SHORT_END rows right of the stencil's reach or at
    the window's last node, and leaves every other node 0.  That is, bit
    for bit, the full solve of the window cut at node end with 0 held
    there: the cut window's factors are the first rows' factors, and left
    of the stencil's first row the right-hand side is +0.0, which the
    forward sweep keeps.  The solve starts at that row, or at row 1 with
    the left carry; a row early when it is the last interior row, as
    dpttrs scales a lone row by 1 / d where the full solve divides by d.
    """

    SHORT_END = 48

    def __init__(self, n: int, dx: float, dt: float, left_value: float = 0.0):
        if n < 3:
            raise ValueError("the grid needs at least 3 nodes")
        from scipy.linalg.lapack import dpttrf, dpttrs
        self._dpttrs = dpttrs
        r = dt / (4.0 * dx * dx)
        self.n = n
        self.r = r
        self.left_value = left_value
        # the wrapper rejects an empty e: the one interior row of a 3-node
        # grid factors and solves with one unused entry
        d, e, info = dpttrf(np.full(n - 2, 1.0 + 2.0 * r),
                            np.full(max(n - 3, 1), -r))
        if info:
            raise ArithmeticError("singular Crank-Nicolson matrix")
        # d[i - 1] and e[i - 1] belong to row i
        self._d, self._e = d, e

    def _rhs(self, v: np.ndarray, a: int, z: int) -> np.ndarray:
        """The right-hand side: 0 outside the rows [a, z), but for the left
        value at row 0 and folded into row 1."""
        rhs = np.zeros(self.n)
        rhs[0] = self.left_value
        # v + r (v_left - 2 v + v_right), evaluated in place in that order
        mid = rhs[a:z]
        np.multiply(v[a:z], 2.0, out=mid)
        np.subtract(v[a - 1:z - 1], mid, out=mid)
        mid += v[a + 1:z + 1]
        mid *= self.r
        mid += v[a:z]
        if self.left_value:
            rhs[1] += self.r * self.left_value
        return rhs

    def _solve(self, rhs: np.ndarray, lo: int, hi: int) -> None:
        """Solve the interior rows [max(lo, 1), hi) in place in rhs."""
        lo = max(lo, 1)
        _, info = self._dpttrs(self._d[lo - 1:hi - 1],
                               self._e[lo - 1:max(hi - 2, lo)], rhs[lo:hi],
                               overwrite_b=True)
        if info:
            raise ArithmeticError("Crank-Nicolson solve failed")

    def step(self, v: np.ndarray, lo: int, hi: int, carry: bool = True):
        """One step of v, which is 0 outside v[lo:hi].

        Returns (x, lo, end): the new field, 0 outside x[lo:end].  x is the
        solve of the window cut at node end, bit for bit, except that
        without the left carry x[:lo] is left 0, where that solve need not
        be.  A call with (0, n) is the full solve.
        """
        n = self.n
        # the stencil's reach, within the interior rows
        a, z = max(lo - 1, 1), min(hi + 1, n - 1)
        rhs = self._rhs(v, a, z)
        lo = 0 if self.left_value or carry else min(a, n - 3)
        end = min(z + self.SHORT_END, n - 1)
        self._solve(rhs, lo, end)
        return rhs, lo, end


def _cut_left_mass(grid: np.ndarray, u: np.ndarray, dx: float, lo: int = 0,
                   hi: int = None):
    """Zero the density left of the point where mass to the right equals 1.

    Cuts u, finite and non-negative, in place and returns it with the
    sub-cell boundary and the span (lo, hi) outside which it is now 0.  The
    node just left of the boundary keeps the partial-cell value that makes
    the trapezoidal mass exactly 1, and the nodes right of the last one at
    or above TAIL_FLOOR are zeroed.  Only u[lo:hi] is read: the density is
    0 outside it, or unsolved left of lo > 0, and then the cut returns None
    unless the mass right of lo is at least 1.  The span's mass is summed
    once, to that last node; the mass right of the cut cell is that less
    the mass left of the cell, summed on the way to it.
    """
    end = u.size if hi is None else min(hi + 2, u.size)
    v = u[lo:end]            # with the zero nodes that close the span's cells
    # the tail floor: the last node not below TAIL_FLOOR (NaN is not, so a
    # blowup reaches the check below), a few dozen nodes back after a step,
    # which moves it a node or two
    back = max(v.size - 64, 0)
    kept = np.flatnonzero(~(v[back:] < TAIL_FLOOR))
    if not kept.size:
        back, kept = 0, np.append(0, np.flatnonzero(~(v < TAIL_FLOOR)))
    last = back + int(kept[-1])
    v[last + 1:] = 0.0
    mass = dx * (float(v[:last + 1].sum()) - 0.5 * float(v[0] + v[-1]))
    if mass < 1.0 and lo > 0:
        return None
    if not 1.0 - 1e-9 <= mass < math.inf:   # NaN and inf fail too
        raise ArithmeticError("scheme blowup")
    if mass < 1.0:  # round-off shy of 1: rescale within the guard
        v /= mass
    # j: the last node with mass >= 1 right of it, found from the left, as a
    # step's cut lies a few nodes right of lo; e: the mass right of node j
    # beyond 1, the excess less the few cells' mass left of node j
    excess, e, left = max(mass - 1.0, 0.0), 0.0, 0.0
    head = v[:9].tolist()
    for j in range(len(head) - 1):
        e = excess - left
        left += 0.5 * (head[j] + head[j + 1]) * dx
        if left > excess:
            break
    else:   # not within the first 8 cells: e is summed afresh from node
        # j, as a running sum drifts over that many cells; at unit mass it
        # stays 0
        j = int(np.cumsum((v[:-1] + v[1:]) * (0.5 * dx)).searchsorted(
            excess, side="right"))
        if excess > 0.0:
            e = dx * (float(v[j:last + 1].sum()) - 0.5 * float(v[j] + v[-1])) \
                - 1.0
    vj, b = float(v[j]), float(v[j + 1])
    # the boundary lies t into the cell, where the linear density's mass
    # from g_j is e: vj t + (b - vj) t^2 / (2 dx) = e
    den = vj + math.sqrt(max(vj * vj + 2.0 * (b - vj) * e / dx, 0.0))
    t = min(max(2.0 * e / den, 0.0), dx) if den > 0.0 else 0.0
    boundary = float(grid[lo + j]) + t
    # node j keeps the value that makes the trapezoidal mass exactly 1,
    # counting the half-cells beside it (the grid's end nodes have one);
    # below 0, node j + 1 takes the rest
    w = 0.5 * vj - e / dx
    first = j if w >= 0.0 else j + 1
    v[:first] = 0.0
    half = 2.0 if lo + first in (0, u.size - 1) else 1.0
    v[first] = half * w if first == j else b + half * w
    return u, boundary, (lo + first, lo + last + 1)


class _Stepper:
    """State shared by both schemes: grid, time, boundary, CN solvers by dt."""

    left_value = 0.0   # Dirichlet value of the diffused field at the left end

    def __init__(self, grid: np.ndarray, t: float, params: FlowParams):
        self.params = params
        self.grid = grid
        self.t = t
        self._cn = {}
        self._last = (None, None, None)   # dt, its CN solver and e^dt

    def _solver(self, dt: float):
        """(CN solver, e^dt) for steps of dt; looked up only when dt changes."""
        if dt != self._last[0]:
            # a step within round-off of params.dt reuses its factorisation:
            # conjecture_experiment(2.0, 2.0) takes two ~3e-13 short, and
            # its README artefacts carry the bits that gives
            key = round(dt / self.params.dt, 12)
            if key not in self._cn:
                self._cn[key] = _CrankNicolson(self.grid.size, self.params.dx,
                                               dt, self.left_value)
            self._last = (dt, self._cn[key], math.exp(dt))
        return self._last[1:]


class _SplitCutStepper(_Stepper):
    """Split-cut scheme; the density is 0 outside u[span[0]:span[1]]."""

    def __init__(self, u0, params: FlowParams):
        init = make_initial(u0, params)
        if isinstance(init, tuple):
            init = _warm_start(init[1], params)
        super().__init__(init.grid, init.t, params)
        self.u, self.boundary, self.span = _cut_left_mass(
            self.grid, init.u, params.dx)

    def step(self, dt: float) -> None:
        # solve without the left carry first: the cut reads no row left of
        # its cell, so the result is the full solve's whenever the mass
        # right of the solved rows is at least 1
        cn, growth = self._solver(dt)
        for carry in (False, True):
            u, lo, hi = cn.step(self.u, *self.span, carry)
            live = u[lo:hi]
            np.maximum(live, 0.0, out=live)
            live *= growth
            cut = _cut_left_mass(self.grid, u, self.params.dx, lo, hi)
            if cut is not None:
                break
        self.u, self.boundary, self.span = cut
        self.t += dt
        self._maybe_shift_window()

    def _maybe_shift_window(self) -> None:
        window = self.params.x_window
        dx = self.params.dx
        margin = 0.1 * window
        need_left = self.boundary - self.grid[0] < margin
        need_right = self.grid[-1] - self.boundary < 0.65 * window
        if not (need_left or need_right):
            return
        # shift by a whole number of cells: resampling is then an exact
        # index roll (new nodes coincide with old lattice points)
        target_left = self.boundary - 0.15 * window
        k = int(round((target_left - self.grid[0]) / dx))
        if k == 0:
            return
        self.grid = self.grid + k * dx
        u = np.zeros_like(self.u)
        if k > 0:
            u[:-k] = self.u[k:]
        else:
            u[-k:] = self.u[:k]
        self.u = u
        lo, hi = self.span
        self.span = (max(lo - k, 0), min(hi - k, u.size))

    def snapshot(self) -> Profile:
        return Profile(self.grid.copy(), self.u.copy(), self.boundary, self.t)


def start_time(u0, params: FlowParams) -> float:
    """When solve_cdf starts from u0: later than 0 for a point mass under
    split-cut, which starts as its heat kernel.  ValueError on a bad spec."""
    split = params.scheme == "split_cut"
    return (_SplitCutStepper if split else _PenalisedStepper)(u0, params).t


def _warm_start(centre: float, params: FlowParams) -> Profile:
    """Exact grown heat kernel at a small positive time, in place of a spike."""
    t0 = max(4.0 * params.dt, (2.5 * params.dx) ** 2)
    grid = _window_grid(centre - max(2.0, 0.1 * params.x_window), params)
    _check_window_tail(0.5 * math.erfc((grid[-1] - centre)
                                       / math.sqrt(2.0 * t0)))
    u = math.exp(t0) * np.exp(-((grid - centre) ** 2) / (2.0 * t0)) \
        / math.sqrt(2.0 * math.pi * t0)
    return Profile(grid, u, centre, t0)


def _run(stepper: _Stepper, t_end: float, save_times):
    """The save-time loop of both schemes: step to t_end, snapshot at saves.

    Returns the snapshots, the times at which they were taken, and the time
    and boundary after every step.
    """
    saves = sorted(set(float(s) for s in save_times) | {float(t_end)})
    if saves[0] < stepper.t:
        raise ValueError("t_end or a save time before the warm-start time")
    if saves[-1] > t_end:
        raise ValueError("a save time after t_end")
    snaps, snap_times = [], []
    times = [stepper.t]
    boundary = [stepper.boundary]
    dt = stepper.params.dt
    for target in saves:
        # t += dt gains up to half an ulp of t per step: a remainder within
        # that drift is round-off, and the last step has reached the target
        drift = target / dt * math.ulp(target)
        while stepper.t < target - 1e-12:
            if target - stepper.t <= drift:
                stepper.t = times[-1] = target
                break
            stepper.step(min(dt, target - stepper.t))
            times.append(stepper.t)
            boundary.append(stepper.boundary)
        snaps.append(stepper.snapshot())
        snap_times.append(stepper.t)
    return snaps, np.asarray(snap_times), np.asarray(times), np.asarray(boundary)


def solve_density(u0, t_end: float, params: FlowParams,
                  save_times=()) -> Trajectory:
    """Run the split-cut scheme to t_end, saving profiles at save_times."""
    profiles, _, times, boundary = _run(_SplitCutStepper(u0, params),
                                        t_end, save_times)
    return Trajectory(profiles, times, boundary, params)


# ---------------------------------------------------------------------------
# integrated (tail) form
# ---------------------------------------------------------------------------

def _penalised_reaction(u: np.ndarray, n: int, dt: float) -> np.ndarray:
    """Exact solution of U' = U - U^n over dt (Bernoulli equation), for U
    in [0, 1]."""
    growth = math.exp(dt)

    def exact(us):
        bracket = 1.0 + us ** (n - 1) * (math.exp((n - 1) * dt) - 1.0)
        return us * growth / bracket ** (1.0 / (n - 1))

    small = u < 1e-4   # U^n negligible below 1e-4
    k = u.size - int(np.count_nonzero(small))
    if small[k:].all():   # the small entries are the trailing ones
        out = u * growth
        out[:k] = exact(u[:k])
        return out
    out = np.empty_like(u)
    out[~small] = exact(u[~small])
    out[small] = u[small] * growth
    return out


def solve_cdf(u0, t_end: float, params: FlowParams,
              save_times=()) -> CdfTrajectory:
    """Tail-form solve: split-cut route by default, or the penalised flow."""
    if params.scheme == "split_cut":
        traj = solve_density(u0, t_end, params, save_times)
        tails = [p.tail() for p in traj.profiles]
        ttimes = np.asarray([p.t for p in traj.profiles])
        return CdfTrajectory(tails, ttimes, traj.times, traj.boundary, params)
    tails, ttimes, times, boundary = _run(_PenalisedStepper(u0, params),
                                          t_end, save_times)
    return CdfTrajectory(tails, ttimes, times, boundary, params)


class _PenalisedStepper(_Stepper):
    """Penalised tail flow: CN diffusion, then the exact reaction substep."""

    left_value = 1.0

    def __init__(self, u0, params: FlowParams):
        # a TailCdf is used as it is: turning it into a density would smooth it
        init = u0 if isinstance(u0, TailCdf) else make_initial(u0, params)
        if isinstance(init, tuple):
            grid = _window_grid(init[1] - max(2.0, 0.1 * params.x_window),
                                params)
            init = step_tail(grid, init[1])
        elif isinstance(init, Profile):
            init = init.tail()
        super().__init__(_window_grid(float(init.grid[0]), params), 0.0,
                         params)
        self.v = np.asarray(init.value(self.grid))
        self.boundary = self._read_boundary()

    def _read_boundary(self) -> float:
        idx = np.flatnonzero(self.v >= 1.0 - 10.0 * self.params.dx)
        b = float(self.grid[idx[-1]]) if idx.size else float(self.grid[0])
        if b > self.grid[-1] - 0.3 * self.params.x_window:
            raise ArithmeticError(
                "front reached the window edge; enlarge x_window")
        return b

    def step(self, dt: float) -> None:
        v, _, _ = self._solver(dt)[0].step(self.v, 0, self.grid.size)
        np.clip(v, 0.0, 1.0, out=v)
        v = _penalised_reaction(v, self.params.n_penalty, dt)
        np.clip(v, 0.0, 1.0, out=v)
        self.v = v
        self.t += dt
        self.boundary = self._read_boundary()

    def snapshot(self) -> TailCdf:
        vals = self.v.copy()
        vals[0] = 1.0
        vals[-1] = 0.0
        vals = np.minimum.accumulate(vals)
        return TailCdf(self.grid.copy(), vals, validate=False)


# ---------------------------------------------------------------------------
# comparison calculus
# ---------------------------------------------------------------------------

def stretch_margins(u, v):
    """Signed worst margins of the quantile form of the stretching order.

    Returns (worst_pos, worst_neg): the most violated amount of
    U(x + a^y(U)) >= V(x + a^y(V)) over x > 0 and of <= over x < 0.
    Positive margins mean the inequality holds with room to spare.
    """
    y_mesh = np.concatenate((np.arange(0.02, 0.985, 0.02), [1.0]))
    x_mesh = np.concatenate((np.arange(0.05, 5.0, 0.05),
                             np.arange(0.25, 30.0, 0.25)))
    au = u.quantile(y_mesh)[:, None]
    av = v.quantile(y_mesh)[:, None]
    worst_pos = float(np.min(u.tail(au + x_mesh) - v.tail(av + x_mesh)))
    worst_neg = float(np.min(v.tail(av - x_mesh) - u.tail(au - x_mesh)))
    return worst_pos, worst_neg


def stretch_ge(u, v, tol: float) -> bool:
    """Discretised test of "u is more stretched than v" (quantile form)."""
    wp, wn = stretch_margins(u, v)
    return bool(wp >= -tol and wn >= -tol)


@dataclass
class ComparisonReport:
    ok: bool
    worst_margin: float


def check_stretching_preserved(u0: TailCdf, v0: TailCdf, t: float,
                               params: FlowParams) -> ComparisonReport:
    """Evolve an ordered pair and verify the order still holds at time t."""
    tol = params.tol_stretch
    if not stretch_ge(u0, v0, tol):
        raise ValueError("initial pair is not stretch-ordered")
    ut = solve_cdf(u0, t, params).final
    vt = solve_cdf(v0, t, params).final
    worst = min(stretch_margins(ut, vt))
    return ComparisonReport(ok=worst >= -tol, worst_margin=worst)


def check_boundary_comparison(u0: TailCdf, v0: TailCdf, t: float,
                              params: FlowParams) -> ComparisonReport:
    """Boundary displacement of the more stretched solution dominates."""
    tol = params.tol_stretch
    if not stretch_ge(u0, v0, tol):
        raise ValueError("initial pair is not stretch-ordered")
    lu0, lv0 = quantile(u0, 1.0), quantile(v0, 1.0)
    tu = solve_cdf(u0, t, params)
    tv = solve_cdf(v0, t, params)
    du = tu.boundary[-1] - lu0
    dv = tv.boundary[-1] - lv0
    return ComparisonReport(ok=du >= dv - tol, worst_margin=float(du - dv))


def sensitivity_check(u0, v0, t: float, params: FlowParams, n_atoms: int):
    """W(u_t, v_t) <= e^t W(u_0, v_0), with 5% scheme slack on the right side."""

    def atoms(spec):  # a point mass is n_atoms coincident atoms
        init = make_initial(spec, params)
        if isinstance(init, tuple):
            return from_positions(np.full(n_atoms, init[1]))
        return init.quantile_measure(n_atoms)

    w0 = wasserstein_w(atoms(u0), atoms(v0))
    pt = solve_density(u0, t, params).final
    qt = solve_density(v0, t, params).final
    wt = wasserstein_w(pt.quantile_measure(n_atoms),
                       qt.quantile_measure(n_atoms))
    rhs = math.exp(t) * w0
    ok = wt <= rhs * 1.05 + 4.0 / n_atoms + params.dx
    return ComparisonReport(ok=ok, worst_margin=float(rhs - wt))


@dataclass
class ConjectureReport:
    lam: float
    times: np.ndarray
    boundary_over_t: np.ndarray
    sup_distance: np.ndarray


def conjecture_experiment(lam: float, t_end: float) -> ConjectureReport:
    """Exploratory run from an exponential tail e^{-lam x}; output only.

    Reports the boundary-speed curve and the sup distance between the
    recentred tail and the median-centred minimal wave at ten checkpoints,
    on the default grid.
    """
    ts = np.linspace(t_end / 10, t_end, 10)
    traj = solve_density(("exp", lam), t_end, FlowParams(), save_times=ts)
    ref = waves.MINIMAL_WAVE.median_centred_tail()
    sup = []
    for prof in traj.profiles:
        tl = prof.tail()
        med = quantile(tl, 0.5)
        xs = np.linspace(-3.0, 25.0, 1200)
        sup.append(float(np.max(np.abs(tl.value(xs + med) - ref.tail(xs)))))
    lt = np.asarray([traj.boundary_at(t) for t in ts])
    return ConjectureReport(lam=lam, times=ts, boundary_over_t=lt / ts,
                            sup_distance=np.asarray(sup))
