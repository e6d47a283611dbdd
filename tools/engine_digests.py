"""Run fixed-seed batteries of the engines; print one digest each.

    python3 tools/engine_digests.py [BATTERY ...]

The library-level twin of readme_artefacts.py: each battery calls the
engines directly, with fixed seeds and small sizes, and hashes the raw
bytes of every float and count they return.  One line per battery: its
name and the SHA-256 of everything it produced.  Running this on two
checkouts and diffing the outputs shows whether a change altered a single
bit of the particle loop, the coupled loop, the W1 gaps, the velocity
estimate or the PDE steppers.  The batteries:

- ``nbbm``: advance_to and step_event at N in {1, 2, 3, 64} from zeros,
  pimin and delta:2, all below nbbm.LAZY_MIN_N;
- ``nbbm_lazy``: the same at N in {1024, 4096}, where advance_to runs the
  lazy loop (step_event, one event a call, stays plain), and an N = 1024
  run that alternates long (lazy) calls, 0.01 (plain) calls and
  step_event, so the event clock's rings pass between the two loops;
- ``coupling``: step_coupled and advance_coupled at N in
  {2, 3, 16, 64, 256}, over several pairs of starts;
- ``supermartingale``: supermartingale_increments;
- ``contraction``: contraction_estimate;
- ``gaps_leftmost`` and ``gaps_median``: snapshot_gaps of stationary
  ensembles at N = 16, 64 and 1000;
- ``velocity``: estimate_velocity;
- ``pde``: solve_density, the split-cut scheme, from heaviside to t = 15
  with saves at 5, 10 and 15 on the default grid, from heaviside on
  criterion 9's fine grid to t = 0.2, from exp:1.2 and from a point mass
  at 1;
- ``pde_penalised``: solve_cdf's penalised flow from exp:1.2.

The two PDE batteries run no particle code, so they must not move when
only the particle engines change, and each moves without the other when
only its own scheme changes.

With battery names as arguments only those run, in the order given (so a
PDE-only change can prove its digest with ``engine_digests.py pde``); an
unknown name exits 2 before any battery runs.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

NBBM_SIZES = (1, 2, 3, 64)
LAZY_SIZES = (1024, 4096)
COUPLED_SIZES = (2, 3, 16, 64, 256)
INITS = ("zeros", "pimin", "delta:2")


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values) -> None:
        for v in values:
            arr = np.ascontiguousarray(v)
            self._h.update(arr.dtype.str.encode() + arr.tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def nbbm_battery(sizes):
    def battery(d: Digest) -> None:
        from nbbmlab import nbbm
        for n in sizes:
            for k, init in enumerate(INITS):
                seed = 1000 * n + k
                ps = nbbm.new_system(n, init, seed=seed)
                for t in (0.25, 0.5, 1.0, 1.0, 2.0):
                    nbbm.advance_to(ps, t)
                    d.add(ps.positions, ps.time, ps.n_events)
                if n < 2:
                    continue
                ps = nbbm.new_system(n, init, seed=seed)
                for _ in range(200):
                    ev = nbbm.step_event(ps)
                    d.add(ev.time, ev.victim_index, ev.target_index,
                          ev.displacement)
                d.add(ps.positions, ps.n_events)
    return battery


def lazy_battery(d: Digest) -> None:
    from nbbmlab import nbbm
    nbbm_battery(LAZY_SIZES)(d)
    ps = nbbm.new_system(1024, "pimin", seed=7)
    for _ in range(4):
        nbbm.advance_to(ps, ps.time + 0.5)
        d.add(ps.positions, ps.time, ps.n_events)
        nbbm.advance_to(ps, ps.time + 0.01)
        d.add(ps.positions, ps.time, ps.n_events)
        ev = nbbm.step_event(ps)
        d.add(ev.time, ev.victim_index, ev.target_index, ev.displacement,
              ps.positions)


def coupling_battery(d: Digest) -> None:
    from nbbmlab import coupling
    starts = (("zeros", "zeros"), ("pimin", "pimin"), ("zeros", "pimin"),
              ("delta:2", "pimin"))
    for n in COUPLED_SIZES:
        for k, (a, b) in enumerate(starts):
            cp = coupling.new_coupled(n, a, b, seed=100 * n + k)
            for _ in range(50):
                coupling.step_coupled(cp)
                d.add(cp.ps_a.positions, cp.ps_b.positions)
            for t in (0.5, 1.0, 2.0):
                coupling.advance_coupled(cp, cp.time + t)
                d.add(cp.ps_a.positions, cp.ps_b.positions, cp.time,
                      cp.ps_a.n_events, cp.ps_b.n_events, cp.distance())


def supermartingale_battery(d: Digest) -> None:
    from nbbmlab import coupling
    for n, seed in ((2, 1), (16, 2), (64, 3)):
        d.add(coupling.supermartingale_increments(n, "pimin", "zeros", 2.0,
                                                  seed=seed))


def contraction_battery(d: Digest) -> None:
    from nbbmlab import coupling
    for n, seed in ((3, 4), (32, 5), (128, 6)):
        for rep in coupling.contraction_estimate(n, "pimin", "zeros",
                                                 [0.5, 1.0], 6, seed=seed):
            d.add(rep.t, rep.lhs, rep.rhs, rep.margin, rep.lhs_se, rep.rhs_se)


def gaps_battery(centring: str):
    def battery(d: Digest) -> None:
        from nbbmlab import stationary
        # enough snapshots that N = 64 and N = 1000 span several W1 chunks
        for n, burn_in, horizon, delta in ((16, 5.0, 25.0, 0.5),
                                           (64, 5.0, 30.0, 0.1),
                                           (1000, 0.5, 3.0, 0.1)):
            ens = stationary.estimate_stationary(
                n, burn_in=burn_in, horizon=horizon, delta_sample=delta,
                centring=centring, seed=n, init="pimin")
            d.add(stationary.snapshot_gaps(ens))
    return battery


def velocity_battery(d: Digest) -> None:
    from nbbmlab import stationary
    for n in (2, 16):
        est = stationary.estimate_velocity(n, 30.0, 4, seed=n, burn_in=5.0)
        d.add(est.v_hat, est.std_error, est.per_replica)


def pde_battery(d: Digest) -> None:
    from nbbmlab import fbpde
    default = fbpde.FlowParams()
    fine = fbpde.FlowParams(dx=0.0025, dt=6.25e-5, x_window=30.0)
    runs = [("heaviside", 15.0, default, (5.0, 10.0, 15.0)),
            ("heaviside", 0.2, fine, ()),
            ("exp:1.2", 1.0, default, (0.5,)),
            (("delta", 1.0), 1.0, default, (0.5,))]
    for u0, t_end, params, saves in runs:
        traj = fbpde.solve_density(u0, t_end, params, save_times=saves)
        d.add(traj.times, traj.boundary)
        for prof in traj.profiles:
            d.add(prof.t, prof.boundary, prof.grid, prof.u)


def pde_penalised_battery(d: Digest) -> None:
    from nbbmlab import fbpde
    pen = fbpde.solve_cdf("exp:1.2", 2.0, fbpde.FlowParams(scheme="penalised"),
                          save_times=(1.0, 2.0))
    d.add(pen.times, pen.boundary, pen.tail_times)
    for tail in pen.tails:
        d.add(tail.grid, tail.values)


BATTERIES = {
    "nbbm": nbbm_battery(NBBM_SIZES),
    "nbbm_lazy": lazy_battery,
    "coupling": coupling_battery,
    "supermartingale": supermartingale_battery,
    "contraction": contraction_battery,
    "gaps_leftmost": gaps_battery("leftmost"),
    "gaps_median": gaps_battery("median"),
    "velocity": velocity_battery,
    "pde": pde_battery,
    "pde_penalised": pde_penalised_battery,
}


def main() -> None:
    names = sys.argv[1:] or list(BATTERIES)
    unknown = [name for name in names if name not in BATTERIES]
    if unknown:
        print(f"engine_digests: unknown battery {', '.join(unknown)}; "
              f"choose from {', '.join(BATTERIES)}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    for name in names:
        d = Digest()
        BATTERIES[name](d)
        print(f"{name} {d.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
