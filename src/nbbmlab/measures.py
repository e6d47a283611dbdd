"""Empirical measures on the line, centring functionals and exact 1-D Wasserstein costs.

An empirical measure carries N atoms of weight 1/N.  Two costs are used
throughout, both between measures with the same number of atoms: the plain
distance |x - y| (W1) and the capped distance min(|x - y|, 1) (W).  Both
are evaluated on the rank (quantile) coupling, which is the optimal
transport for |x - y|; with the cap it is a genuine metric that dominates
the capped Kantorovich optimum and agrees with it whenever the coupling
moves nothing as far as the cap.  The capped optimum itself can be
strictly smaller: for atoms {0, 0.4} and {0.7, 1.3} the rank coupling
costs 0.8 and the optimum, which writes one pair off at the cap, 0.65.
"""

from dataclasses import dataclass

import numpy as np

TOL_GAMMA = 1e-12  # absolute tolerance for "leftmost atom at 0"
TOL_CDF = 1e-8     # tolerance on tail-CDF endpoint values


@dataclass(frozen=True)
class EmpiricalMeasure:
    """N atoms on the line, each of weight 1/N, stored sorted."""

    atoms: np.ndarray

    @property
    def n(self) -> int:
        return self.atoms.size

    def tail(self, x):
        """mu((x, infty)): fraction of atoms strictly greater than x."""
        x = np.asarray(x, dtype=float)
        return (self.n - np.searchsorted(self.atoms, x, side="right")) / self.n


def from_positions(positions) -> EmpiricalMeasure:
    """Build the empirical measure of a finite configuration (sorted copy)."""
    arr = np.asarray(positions, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty measure")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite position")
    return EmpiricalMeasure(np.sort(arr))


@dataclass(frozen=True)
class CentringStats:
    leftmost: float          # L(mu) = inf{x : mu([x, inf)) < 1}
    median: float            # A(mu) = inf{x : mu([x, inf)) < 1/2}


def centring_stats(mu: EmpiricalMeasure) -> CentringStats:
    """Centring functionals of an empirical measure.

    The median applies the inf-definition to the atomic measure verbatim;
    for N atoms it lands on the sorted atom of 0-based index N // 2.
    """
    a = mu.atoms
    return CentringStats(
        leftmost=float(a[0]),
        median=float(a[a.size // 2]),
    )


def gap_mean(y) -> float:
    """Empirical mean b(y) of a configuration whose leftmost point sits at 0."""
    arr = y.atoms if isinstance(y, EmpiricalMeasure) else np.asarray(y, dtype=float)
    if abs(float(arr.min())) > TOL_GAMMA:
        raise ValueError("not in Gamma_N")
    return float(arr.mean())


def recentre(mu: EmpiricalMeasure, mode: str) -> EmpiricalMeasure:
    """Shift so that the leftmost atom (or the median atom) lands at 0."""
    stats = centring_stats(mu)
    if mode == "leftmost":
        shift = stats.leftmost
    elif mode == "median":
        shift = stats.median
    else:
        raise ValueError(f"unknown centring mode {mode!r}")
    return EmpiricalMeasure(mu.atoms - shift)


# ---------------------------------------------------------------------------
# Wasserstein costs between empirical measures
# ---------------------------------------------------------------------------

def wasserstein_w1(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> float:
    """Exact W1 (cost |x - y|) of two measures of equal size: rank coupling."""
    return float(np.abs(_paired(mu1, mu2)).mean())


def wasserstein_w(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> float:
    """Capped cost min(|x - y|, 1) of the rank coupling of two measures of
    equal size.

    Symmetric, satisfies the triangle inequality, never exceeds 1 or the
    W1 distance, and assigns a translation by c the value min(|c|, 1).
    """
    return float(np.minimum(np.abs(_paired(mu1, mu2)), 1.0).mean())


def _paired(mu1, mu2) -> np.ndarray:
    """Rank-paired differences; unequal sizes would broadcast, so raise."""
    if mu1.n != mu2.n:
        raise ValueError("length mismatch")
    return mu1.atoms - mu2.atoms


# ---------------------------------------------------------------------------
# Tail CDFs
# ---------------------------------------------------------------------------

class TailCdf:
    """Grid-discretised non-increasing tail function U with U(-inf)=1, U(inf)=0.

    Linear interpolation between grid points; exactly 1 left of the grid and
    exactly 0 right of it.
    """

    def __init__(self, grid, values, validate: bool = True):
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if validate:
            self._validate()
        # node tail integrals int_{g_k}^{inf} U, trapezoidal
        seg = 0.5 * (self.values[1:] + self.values[:-1]) * np.diff(self.grid)
        self._node_integral = np.concatenate(
            (np.cumsum(seg[::-1])[::-1], [0.0]))

    def _validate(self):
        g, v = self.grid, self.values
        if g.ndim != 1 or g.size < 2 or v.shape != g.shape:
            raise ValueError("grid and values must be 1-D of equal length >= 2")
        if not np.all(np.diff(g) > 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(v < -TOL_CDF) or np.any(v > 1 + TOL_CDF):
            raise ValueError("tail values must lie in [0, 1]")
        if np.any(np.diff(v) > TOL_CDF):
            raise ValueError("tail values must be non-increasing")
        if abs(v[0] - 1.0) > TOL_CDF:
            raise ValueError("first tail value must be 1")
        if abs(v[-1]) > TOL_CDF:
            raise ValueError("last tail value must be 0")

    @property
    def support_left(self) -> float:
        return float(self.grid[0])

    def value(self, x):
        return np.interp(x, self.grid, self.values, left=1.0, right=0.0)

    def tail(self, x):
        return self.value(x)

    def tail_integral(self, x):
        """I(x) = int_x^inf U, exact for the piecewise-linear interpolant."""
        x = np.asarray(x, dtype=float)
        k = np.clip(np.searchsorted(self.grid, x, side="right") - 1, -1, self.grid.size - 1)
        out = np.empty(x.shape)
        left = k < 0
        out[left] = self._node_integral[0] + (self.grid[0] - x[left])
        right = k >= self.grid.size - 1
        out[right] = 0.0
        mid = ~(left | right)
        km = k[mid]
        xm = x[mid]
        ux = self.value(xm)
        out[mid] = self._node_integral[km + 1] + \
            0.5 * (ux + self.values[km + 1]) * (self.grid[km + 1] - xm)
        return out if out.ndim else float(out)

    def quantile(self, y):
        return quantile(self, y)


def tailcdf_from_csv(path) -> TailCdf:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return TailCdf(data[:, 0], data[:, 1])


def quantile(u, y):
    """a^y(U) = inf{x : U(x) < y} for y in (0, 1], by interpolation on the grid."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(y_arr <= 0.0) or np.any(y_arr > 1.0):
        raise ValueError("quantile level must lie in (0, 1]")
    g, v = u.grid, u.values
    # first index with v < y: count strictly-smaller values from the sorted tail
    cnt = np.searchsorted(v[::-1], y_arr, side="left")
    k = v.size - cnt
    out = np.empty(y_arr.shape)
    out[k == 0] = g[0]
    out[k == v.size] = g[-1]
    mid = (k > 0) & (k < v.size)
    km = k[mid]
    out[mid] = g[km - 1] + (y_arr[mid] - v[km - 1]) * \
        (g[km] - g[km - 1]) / (v[km] - v[km - 1])
    return out if np.ndim(y) else float(out[0])


# ---------------------------------------------------------------------------
# W1 between an empirical measure and an analytic (or gridded) tail function
# ---------------------------------------------------------------------------

def w1_to_analytic(mu, f):
    """W1(mu, f) = int |F_mu - F| dx by exact piecewise integration.

    ``mu`` is an EmpiricalMeasure, or a (rows, n) array of sorted atoms for
    one W1 per row; each row's value has the bits of its own single call.
    ``f`` needs tail(x), tail_integral(x), quantile(y) and support_left:
    a TailCdf or one of the travelling-wave objects qualifies.  The tail of
    f beyond the last atom enters through tail_integral, so exponential
    tails are not truncated.
    """
    single = isinstance(mu, EmpiricalMeasure)
    a = np.atleast_2d(mu.atoms if single else np.asarray(mu, dtype=float))
    rows, n = a.shape
    fa = np.asarray(f.tail(a.ravel())).reshape(a.shape)
    ia = np.asarray(f.tail_integral(a.ravel())).reshape(a.shape)
    if not np.all(np.isfinite(ia)):
        raise ValueError("infinite W1")
    total = ia[:, -1].copy()  # right piece: G = 0 beyond the last atom
    # left piece: G = 1 on (-inf, a_1), F = 1 left of support_left
    x_left = f.support_left
    left = a[:, 0] > x_left
    if np.any(left):
        il = float(np.atleast_1d(f.tail_integral(np.array([x_left])))[0])
        total[left] += (a[left, 0] - x_left) - (il - ia[left, 0])
    # interior intervals (a_i, a_{i+1}) with G = (n - i)/n
    gvals = np.broadcast_to((n - np.arange(1, n)) / n, (rows, n - 1))
    dx = np.diff(a, axis=1)
    d_int = ia[:, :-1] - ia[:, 1:]
    live = dx > 0
    below = live & (fa[:, :-1] <= gvals)    # F <= g on the whole interval
    above = live & (fa[:, 1:] >= gvals)     # F >= g on the whole interval
    crossing = live & ~below & ~above
    g_dx = gvals * dx
    pieces = [(g_dx - d_int)[below], (d_int - g_dx)[above]]
    g = gvals[crossing]
    c = f.quantile(g) if g.size else g
    pieces.append((ia[:, :-1][crossing] + ia[:, 1:][crossing]
                   - 2 * f.tail_integral(c))
                  + g * (a[:, 1:][crossing] + a[:, :-1][crossing] - 2 * c))
    # per-row sums over the same compressed arrays as a single call's
    bounds = [np.concatenate(([0], np.cumsum(m.sum(axis=1)))).tolist()
              for m in (below, above, crossing)]
    for r in range(rows):
        for piece, b in zip(pieces, bounds):
            total[r] += np.add.reduce(piece[b[r]:b[r + 1]])
    return float(total[0]) if single else total

