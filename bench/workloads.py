"""The benchmark's three workloads: their jobs and the checks on every output.

A job is one operation: one in-process ``nbbmlab.cli.run([...])`` call or
one call into a library pipeline.  Every output is checked against a
computation made here, apart from the program, or against a property the
method must have; nothing is compared to stored output.  Statistical checks
are set so that a correct program fails them with negligible probability
over hundreds of seeded runs.

Two scales exist: "full" (the measured workloads) and "smoke" (the same jobs
and checks, small enough to run all three workloads in seconds).
"""

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import integrate, special, stats

from nbbmlab import cli, fbpde, killedbm, stationary

SQRT2 = math.sqrt(2.0)
# next-order (t^-1/2) term of the Bramson/Ebert-van Saarloos front position,
# 3 sqrt(pi) / (lambda*^2 sqrt(D)) / sqrt(t) with lambda* = sqrt(2), D = 1/2
EVS_COEFF = 3.0 * math.sqrt(math.pi) / (2.0 * math.sqrt(0.5))


class JobFailed(Exception):
    """The program call itself failed (non-zero exit or an exception)."""


@dataclass
class Job:
    name: str
    call: Callable[[], object]                 # the measured operation
    check: Callable[[object, list], object]    # appends problems, returns facts
    digest: Callable[[object], str]            # reproducibility fingerprint


@dataclass
class Workload:
    jobs: list
    cross_check: Callable[[dict, list], None] = None   # over all jobs' facts


SCALES = {
    "stationary_large_n": {
        # runs: (n, burn_in, horizon, delta_sample).  gap_order: the two N
        # whose selection gaps are compared: the largest N whose run is long
        # enough, against a relaxation time growing like (ln N)^2, for its
        # batch-means SE to hold across seeds.  The N = 4096 run covers a
        # fraction of its relaxation time; only its structural checks apply.
        "full": {"runs": [(64, 50.0, 250.0, 1.0), (1024, 5.0, 65.0, 1.0),
                          (4096, 1.0, 11.0, 0.5)],
                 "gap_order": (64, 1024)},
        "smoke": {"runs": [(16, 20.0, 80.0, 1.0), (128, 2.0, 22.0, 0.5),
                           (256, 1.0, 4.0, 0.5)],
                  "gap_order": (16, 128)},
    },
    "ensemble_small_n": {
        "full": {"velocity": ["--n", "2,64", "--replicas", "8",
                              "--horizon", "300", "--burn-in", "20"],
                 "stationary": (64, 50.0, 250.0, 0.1),
                 "simulate": (64, 50.0, 0.01),
                 "couple": [(64, 100), (256, 30)]},
        "smoke": {"velocity": ["--n", "2,16", "--replicas", "4",
                               "--horizon", "60", "--burn-in", "10"],
                  "stationary": (16, 10.0, 40.0, 0.1),
                  "simulate": (16, 5.0, 0.01),
                  "couple": [(16, 20), (32, 10)]},
    },
    "pde_representation": {
        "full": {"grid": [], "penalised_grid": [],
                 "fine": {"dx": 0.0025, "dt": 6.25e-5, "x_window": 30.0},
                 "t_rep": 0.2, "paths": 10000, "dt_mc": 5e-4},
        "smoke": {"grid": ["--dx", "0.05", "--dt", "0.0025"],
                  "penalised_grid": ["--dx", "0.02", "--dt", "0.002"],
                  "fine": {"dx": 0.005, "dt": 2.5e-4, "x_window": 20.0},
                  "t_rep": 0.2, "paths": 8000, "dt_mc": 5e-4},
    },
}

WORKLOADS = tuple(SCALES)


def job_seed(seed: int, workload: str, job: str, parity: int) -> int:
    """Master seed handed to the program, derived from the workload seed."""
    tag = f"nbbmlab-bench:{workload}:{job}:{seed}:{parity}"
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "little")


def build(workload: str, seed: int, parity: int, scale: str, out: Path) -> Workload:
    """Jobs of one round.  Rounds of the same parity repeat the same seeds."""
    cfg = SCALES[workload][scale]
    out = Path(out) / workload

    def seed_of(job):
        return job_seed(seed, workload, job, parity)

    if workload == "stationary_large_n":
        jobs = [_stationary_job(f"stationary_n{n}", n, b, h, d,
                                seed_of(f"stationary_n{n}"))
                for n, b, h, d in cfg["runs"]]
        small, large = (f"stationary_n{n}" for n in cfg["gap_order"])
        return Workload(jobs, lambda facts, problems: _gap_order(
            small, facts[small], large, facts[large], problems))
    if workload == "ensemble_small_n":
        n, b, h, d = cfg["stationary"]
        jobs = [
            _cli_job("velocity", ["velocity"] + cfg["velocity"],
                     seed_of("velocity"), out, _check_velocity),
            _stationary_job(f"stationary_n{n}", n, b, h, d,
                            seed_of(f"stationary_n{n}")),
            _simulate_job(*cfg["simulate"], seed_of("simulate"), out),
        ]
        jobs += [_cli_job(f"couple_n{n}",
                          ["couple", "--n", str(n), "--t", "1",
                           "--replicas", str(r)],
                          seed_of(f"couple_n{n}"), out, _check_couple)
                 for n, r in cfg["couple"]]
        return Workload(jobs)
    if workload == "pde_representation":
        return Workload([
            _cli_job("pde_heaviside",
                     ["pde", "--init", "heaviside", "--t", "15",
                      "--save", "5,10,15"] + cfg["grid"],
                     seed_of("pde_heaviside"), out, _check_heaviside),
            _cli_job("pde_penalised",
                     ["pde", "--init", "exp:1.2", "--scheme", "penalised:64",
                      "--t", "2", "--save", "1,2"] + cfg["penalised_grid"],
                     seed_of("pde_penalised"), out, _check_penalised),
            _representation_job(cfg, seed_of("representation")),
        ])
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------

def _cli_job(name, argv, seed, out_root, check):
    out = out_root / name
    argv = argv + ["--seed", str(seed), "--out", str(out)]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        lines = buf.getvalue().strip().splitlines()
        if code != 0:
            raise JobFailed(f"exit {code}: {lines[-1] if lines else ''}")
        return {"out": out, "argv": argv, "summary": json.loads(lines[-1])}

    def digest(res):
        return hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()

    return Job(name, call, check, digest)


def _csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def _arg(argv, flag, default):
    return float(argv[argv.index(flag) + 1]) if flag in argv else default


def _check_velocity(res, problems):
    rows = _csv(res["out"] / "velocity.csv")
    est = {int(n): (v, se) for n, v, se in rows}
    (v_lo, se_lo), (v_hi, se_hi) = est[min(est)], est[max(est)]
    if not v_hi - v_lo > 3.0 * math.hypot(se_lo, se_hi):
        problems.append(f"velocity: v({min(est)})={v_lo:.4f} not below "
                        f"v({max(est)})={v_hi:.4f} at 3 sigma")
    if not SQRT2 - v_hi > 3.0 * se_hi:
        problems.append(f"velocity: v({max(est)})={v_hi:.4f} not below sqrt 2 "
                        f"at 3 sigma")


def _simulate_job(n, t, interval, seed, out_root):
    argv = ["simulate", "--n", str(n), "--t", str(t),
            "--log-interval", str(interval)]

    def check(res, problems):
        rows = _csv(res["out"] / "trajectory.csv")
        time_, left, median, mean, events = rows.T
        if not (time_[0] == 0.0 and time_[-1] == t and np.all(np.diff(time_) > 0)):
            problems.append("simulate: trajectory times do not run from 0 to t")
        if np.any(left > median) or np.any(left > mean):
            problems.append("simulate: leftmost particle right of median or mean")
        if np.any(np.diff(events) < 0) or events[-1] != res["summary"]["n_events"]:
            problems.append("simulate: event counter inconsistent")
        # selection events form a Poisson process of rate N - 1
        lam = (n - 1) * t
        if abs(events[-1] - lam) > 5.0 * math.sqrt(lam):
            problems.append(f"simulate: {events[-1]:.0f} events, Poisson "
                            f"mean {lam:.0f}, beyond 5 sigma")

    return _cli_job("simulate", argv, seed, out_root, check)


def _check_couple(res, problems):
    t_end = _arg(res["argv"], "--t", None)
    for t, lhs, rhs, margin in _csv(res["out"] / "contraction.csv"):
        # E[W_t] <= e^t E[W_0]; checked without the 3-sigma allowance,
        # which only makes the check stricter
        if t != t_end or not 0.0 <= lhs <= min(rhs, 1.0):
            problems.append(f"couple: row t={t} lhs={lhs} rhs={rhs} violates "
                            f"lhs <= rhs")
        if abs(margin - (rhs - lhs)) > 1e-12:
            problems.append("couple: margin is not rhs - lhs")


def _pde_profile_problems(path, problems):
    x, u = _csv(path).T
    if np.any(u < 0.0):
        problems.append(f"{path.name}: negative density, tail not monotone")
    mass = float(np.trapezoid(u, x))
    if abs(mass - 1.0) > 1e-6:
        problems.append(f"{path.name}: mass {mass!r} differs from 1 by > 1e-6")


def _check_heaviside(res, problems):
    out = res["out"]
    for t in (5, 10, 15):
        _pde_profile_problems(out / f"profile_t{t}.csv", problems)
    # Bramson: L_t = sqrt2 t - 3/(2 sqrt2) ln t + const + O(t^-1/2)
    t_b, l_b, _ = _csv(out / "boundary.csv").T
    l10 = float(np.interp(10.0, t_b, l_b))
    l15 = res["summary"]["L"]
    predicted = SQRT2 * 5.0 - 3.0 / (2.0 * SQRT2) * math.log(15.0 / 10.0)
    dx = _arg(res["argv"], "--dx", 0.01)
    tol = EVS_COEFF * (1.0 / math.sqrt(10.0) - 1.0 / math.sqrt(15.0)) + 5.0 * dx
    if abs((l15 - l10) - predicted) > tol:
        problems.append(f"pde heaviside: L(15)-L(10)={l15 - l10:.4f}, Bramson "
                        f"{predicted:.4f}, off by more than {tol:.4f}")


def _check_penalised(res, problems):
    out, argv = res["out"], res["argv"]
    level, lam, n_pen = 0.01, 1.2, 64
    edge = {}
    for t in (1, 2):
        x, u = _csv(out / f"profile_t{t}.csv").T
        if not (u[0] == 1.0 and u[-1] == 0.0 and np.all(np.diff(u) <= 0.0)):
            problems.append(f"pde penalised: tail at t={t} is not a tail function")
            return
        edge[t] = float(np.interp(level, u[::-1], x[::-1]))
    # an exponential tail e^{-lam x} travels at c(lam) = lam/2 + 1/lam
    speed, c = edge[2] - edge[1], lam / 2.0 + 1.0 / lam
    tol = 1.0 / n_pen + _arg(argv, "--dx", 0.01)
    if abs(speed - c) > tol:
        problems.append(f"pde penalised: front speed {speed:.4f}, c(1.2)={c:.4f}, "
                        f"off by more than {tol:.4f}")


# ---------------------------------------------------------------------------
# library pipelines
# ---------------------------------------------------------------------------

def w1_to_pimin(atoms: np.ndarray) -> float:
    """Exact W1 between leftmost-centred atoms and the minimal wave 2x e^{-sqrt2 x}.

    Integrates |G - T| piecewise, G the empirical tail and
    T(x) = (1 + sqrt2 x) e^{-sqrt2 x}, whose tail integral is
    (sqrt2 + x) e^{-sqrt2 x} and whose inverse is a Lambert-W branch.
    """
    a = np.sort(np.asarray(atoms, dtype=float))
    n = a.size

    def integral(x):   # int_x^inf T
        return (SQRT2 + x) * np.exp(-SQRT2 * x)

    g = (n - np.arange(1, n)) / n               # G on [a_i, a_{i+1})
    cross = (-1.0 - special.lambertw(-g / math.e, k=-1).real) / SQRT2
    lo, hi = a[:-1], a[1:]
    c = np.clip(cross, lo, hi)
    pieces = (integral(lo) - 2.0 * integral(c) + integral(hi)) \
        + g * (lo + hi - 2.0 * c)
    return float(pieces.sum() + integral(a[-1]))


def batch_means(x: np.ndarray):
    """Mean and batch-means standard error of a correlated series."""
    b = min(20, max(2, x.size // 4))
    means = x[: (x.size // b) * b].reshape(b, -1).mean(axis=1)
    return float(x.mean()), float(means.std(ddof=1) / math.sqrt(b))


def _stationary_job(name, n, burn_in, horizon, delta, seed):
    def call():
        ens = stationary.estimate_stationary(
            n, burn_in=burn_in, horizon=horizon, delta_sample=delta,
            centring="leftmost", seed=seed, init="pimin")
        return ens, stationary.snapshot_gaps(ens)

    def check(res, problems):
        ens, gaps = res
        expected = (horizon - burn_in) / delta
        if abs(len(ens.snapshots) - expected) > 1:
            problems.append(f"{name}: {len(ens.snapshots)} snapshots, "
                            f"expected {expected:.0f}")
        if any(s.atoms.size != n or s.atoms.min() != 0.0 for s in ens.snapshots):
            problems.append(f"{name}: a snapshot lacks N atoms or its minimum at 0")
        v = ens.mean_profile.values
        if not (v[0] == 1.0 and v[-1] == 0.0 and np.all(np.diff(v) <= 0.0)):
            problems.append(f"{name}: mean profile is not a tail function")
        mine = np.array([w1_to_pimin(s.atoms) for s in ens.snapshots])
        if np.max(np.abs(mine - gaps)) > 1e-8:
            problems.append(f"{name}: selection gaps differ from exact W1 by "
                            f"{np.max(np.abs(mine - gaps)):.3g}")
        return batch_means(mine)

    def digest(res):
        ens, gaps = res
        h = hashlib.sha256()
        for s in ens.snapshots:
            h.update(s.atoms.tobytes())
        h.update(np.asarray(gaps).tobytes())
        return h.hexdigest()

    return Job(name, call, check, digest)


def _gap_order(small, small_facts, large, large_facts, problems):
    (g_s, se_s), (g_l, se_l) = small_facts, large_facts
    if not g_s - g_l > 3.0 * math.hypot(se_s, se_l):
        problems.append(f"selection gap of {small} ({g_s:.4f}+-{se_s:.4f}) does "
                        f"not exceed the gap of {large} ({g_l:.4f}+-{se_l:.4f}) "
                        f"by 3 combined SE")


def _representation_job(cfg, seed):
    """Criterion-9 pipeline: fine-grid PDE boundary drives killed BM paths."""
    params = fbpde.FlowParams(**cfg["fine"])
    t_end, paths, dt_mc = cfg["t_rep"], cfg["paths"], cfg["dt_mc"]

    def call():
        traj = fbpde.solve_density("heaviside", t_end, params)
        boundary = killedbm.boundary_from_trajectory(traj)
        samples = killedbm.simulate_killed(("delta", 0.0), boundary, t_end,
                                           dt_mc, paths, seed=seed)
        return traj, samples, killedbm.killing_time_test(samples)

    def check(res, problems):
        traj, samples, report = res
        prof = traj.final
        if abs(float(np.trapezoid(prof.u, prof.grid)) - 1.0) > 1e-6:
            problems.append("representation: PDE mass differs from 1 by > 1e-6")
        tau = samples.tau[~np.isnan(samples.tau)]
        if tau.size + samples.survivors.size != paths:
            problems.append("representation: killed + surviving != paths")
        # killing times against Exp(1) conditioned on tau <= t_end
        obs = tau[tau <= t_end]
        cdf = lambda t: (1.0 - np.exp(-t)) / (1.0 - math.exp(-t_end))  # noqa: E731
        ks = stats.kstest(obs, cdf)
        if abs(ks.statistic - report.ks_stat) > 1e-12:
            problems.append("representation: KS statistic differs from recomputation")
        if not ks.pvalue > 1e-6:
            problems.append(f"representation: killing times reject Exp(1), "
                            f"p={ks.pvalue:.3g}")
        # survivors' tail against the PDE tail (criterion-9 tolerance)
        tail = -integrate.cumulative_trapezoid(
            prof.u[::-1], prof.grid[::-1], initial=0.0)[::-1]
        tail /= tail[0]
        xs = np.linspace(prof.boundary - 0.5, prof.boundary + 8.0, 900)
        surv = np.sort(samples.survivors)
        emp = 1.0 - np.searchsorted(surv, xs, side="right") / surv.size
        sup = float(np.max(np.abs(emp - np.interp(xs, prof.grid, tail))))
        tol = 1.95 / math.sqrt(surv.size) + 5 * (params.dx + params.dt) \
            + math.sqrt(dt_mc)
        if not sup < tol:
            problems.append(f"representation: survivor tail off the PDE tail by "
                            f"{sup:.4f} >= {tol:.4f}")

    def digest(res):
        traj, samples, _ = res
        h = hashlib.sha256(np.asarray(traj.boundary).tobytes())
        h.update(samples.tau.tobytes())
        h.update(samples.survivors.tobytes())
        return h.hexdigest()

    return Job("representation", call, check, digest)
