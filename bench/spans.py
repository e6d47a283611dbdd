"""Spans around the calls into nbbmlab's public functions, installed from outside.

The tracer replaces a function by a timing wrapper everywhere the package
binds it (the defining module and every module that imported it by name),
and restores the originals on removal, so an untraced round runs the
program unchanged.  Spans nest: a span's self time is its duration minus
the time of the traced spans it encloses.

Replica workers of the process pool are forked with the wrapper already
installed.  A worker keeps its own totals and appends them to a spool file
whenever its outermost span ends; the parent folds the spool into its
totals after each round.
"""

import functools
import json
import math
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# ---------------------------------------------------------------------------
# hooks: generators that see the arguments before the call and
# (duration, result) after it, and record counts at the layer boundary
# ---------------------------------------------------------------------------

def _particle_events(prefix, system_of):
    def hook(tr, args, kw):
        ps = system_of(args[0])
        n, before = ps.n, ps.n_events
        dt, _ = yield
        events = ps.n_events - before
        tr.add(f"{prefix}.events", events)
        tr.add(f"{prefix}.events.n{n}", events)
        tr.add(f"{prefix}.s.n{n}", dt)
    return hook


def _map_ordered(tr, args, kw):
    from nbbmlab import _parallel
    workers = _parallel.worker_count(len(args[1]))
    cpu0 = _children_cpu()
    dt, _ = yield
    tr.add("parallel.child_cpu_s", _children_cpu() - cpu0)
    tr.add("parallel.worker_s", workers * dt)
    tr.stats["parallel.workers"] = max(tr.stats["parallel.workers"], workers)


def _split_cut(tr, args, kw):
    dt, traj = yield
    _pde_steps(tr, "split_cut", traj.profiles[0].grid.size, len(traj.times) - 1, dt)


def _solve_cdf(tr, args, kw):
    dt, traj = yield
    if traj.params.scheme == "penalised":   # split-cut is traced in solve_density
        _pde_steps(tr, "penalised", traj.tails[0].grid.size, len(traj.times) - 1, dt)


def _pde_steps(tr, scheme, nodes, steps, dt):
    tr.add(f"fbpde.steps.{scheme}", steps)
    tr.add(f"fbpde.steps.{scheme}_{nodes}", steps)
    tr.add(f"fbpde.s.{scheme}_{nodes}", dt)
    tr.add("fbpde.node_steps", nodes * steps)
    tr.add("fbpde.solve_s", dt)


def _killed_paths(tr, args, kw):
    dt, samples = yield
    tau = samples.tau[~np.isnan(samples.tau)]
    # a path killed in step k (1-based) carries tau = (k - 1/2) dt
    lived = np.floor(tau / samples.dt).sum() + tau.size
    lived += samples.survivors.size * math.ceil(samples.t_query / samples.dt - 1e-9)
    tr.add("killedbm.path_steps", float(lived))


def _cli_bytes(tr, args, kw):
    argv = list(args[0])
    yield
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        tr.add("cli.bytes_written",
               sum(p.stat().st_size for p in out.iterdir() if p.is_file()))


def targets():
    """(owner, attribute, span name, hook) for every traced entry point."""
    from nbbmlab import (_parallel, cli, coupling, fbpde, killedbm, measures,
                         nbbm, stationary, waves)
    return [
        (nbbm, "advance_to", "nbbm.advance_to",
         _particle_events("nbbm", lambda ps: ps)),
        (nbbm, "snapshot", "nbbm.snapshot", None),
        (coupling, "advance_coupled", "coupling.advance_coupled",
         _particle_events("coupling", lambda cp: cp.ps_a)),
        (coupling.CoupledPair, "distance", "coupling.distance", None),
        (stationary, "estimate_stationary", "stationary.estimate_stationary", None),
        (stationary, "snapshot_gaps", "stationary.snapshot_gaps", None),
        (stationary, "estimate_velocity", "stationary.estimate_velocity", None),
        (measures, "w1_to_analytic", "measures.w1_to_analytic", None),
        (measures, "wasserstein_w", "measures.wasserstein_w", None),
        (waves, "sample_pi_min", "waves.sample_pi_min", None),
        (_parallel, "map_ordered", "parallel.map_ordered", _map_ordered),
        (fbpde, "solve_density", "fbpde.solve_density", _split_cut),
        (fbpde, "solve_cdf", "fbpde.solve_cdf", _solve_cdf),
        (killedbm, "simulate_killed", "killedbm.simulate_killed", _killed_paths),
        (killedbm, "killing_time_test", "killedbm.killing_time_test", None),
        (cli, "run", "cli.run", _cli_bytes),
    ]


class Tracer:
    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.pid = os.getpid()
        self.in_worker = False
        self.stack = []            # enclosed traced time of each open span
        self.stats = defaultdict(float)
        self._patched = []         # (owner, attribute, original)

    # -- accounting -------------------------------------------------------

    def add(self, key, value) -> None:
        self.stats[key] += value

    def reset(self) -> None:
        self.stats = defaultdict(float)
        for f in self.spool.glob("worker-*.jsonl"):
            f.unlink()

    def collect_workers(self) -> None:
        """Fold the totals that pool workers spooled into this process's."""
        for f in sorted(self.spool.glob("worker-*.jsonl")):
            for line in f.read_text().splitlines():
                for key, value in json.loads(line).items():
                    self.add(key, value)
            f.unlink()

    def _enter_worker(self) -> None:
        self.pid = os.getpid()
        self.in_worker = True
        self.stack = []
        self.stats = defaultdict(float)

    def _spool_worker(self) -> None:
        with open(self.spool / f"worker-{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps(self.stats) + "\n")
        self.stats = defaultdict(float)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kw):
            if os.getpid() != tracer.pid:
                tracer._enter_worker()
            gen = hook(tracer, args, kw) if hook else None
            if gen is not None:
                next(gen)
            tracer.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                dt = time.perf_counter() - t0
                enclosed = tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1] += dt
            tracer.add(name + ".calls", 1)
            tracer.add(name + ".s", dt)
            tracer.add(name + ".self_s", dt - enclosed)
            if gen is not None:
                try:
                    gen.send((dt, result))
                except StopIteration:
                    pass
            if tracer.in_worker and not tracer.stack:
                tracer._spool_worker()
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "nbbmlab" or k.startswith("nbbmlab.")]
        for owner, attr, name, hook in targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            homes = [(owner, attr)]
            if not isinstance(owner, type):
                homes += [(m, k) for m in modules for k, v in vars(m).items()
                          if v is original and (m, k) != (owner, attr)]
            for home, key in homes:
                setattr(home, key, wrapper)
                self._patched.append((home, key, original))

    def remove(self) -> None:
        for home, key, original in reversed(self._patched):
            setattr(home, key, original)
        self._patched = []


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(st) -> dict:
    """Per-layer metrics of one traced round from the accumulated totals."""
    def g(key):
        return float(st.get(key, 0.0))

    m = {
        "nbbm.advance_to.calls": g("nbbm.advance_to.calls"),
        "nbbm.advance_to.s": g("nbbm.advance_to.s"),
        "nbbm.events": g("nbbm.events"),
    }
    for n in (2, 64, 1024, 4096):
        m[f"nbbm.us_per_event.n{n}"] = _ratio(
            1e6 * g(f"nbbm.s.n{n}"), g(f"nbbm.events.n{n}"))
    m["coupling.advance_coupled.s"] = g("coupling.advance_coupled.s")
    m["coupling.events"] = g("coupling.events")
    for n in (64, 256):
        m[f"coupling.us_per_event.n{n}"] = _ratio(
            1e6 * g(f"coupling.s.n{n}"), g(f"coupling.events.n{n}"))
    m["coupling.distance.calls"] = g("coupling.distance.calls")
    m["coupling.distance.s"] = g("coupling.distance.s")
    m["stationary.estimate_stationary.self_s"] = g("stationary.estimate_stationary.self_s")
    m["stationary.snapshot_gaps.s"] = g("stationary.snapshot_gaps.s")
    m["stationary.estimate_velocity.s"] = g("stationary.estimate_velocity.s")
    m["measures.w1_to_analytic.calls"] = g("measures.w1_to_analytic.calls")
    m["measures.w1_to_analytic.us_per_call"] = _ratio(
        1e6 * g("measures.w1_to_analytic.s"), g("measures.w1_to_analytic.calls"))
    m["measures.wasserstein_w.calls"] = g("measures.wasserstein_w.calls")
    m["measures.wasserstein_w.s"] = g("measures.wasserstein_w.s")
    m["waves.sample_pi_min.calls"] = g("waves.sample_pi_min.calls")
    m["waves.sample_pi_min.s"] = g("waves.sample_pi_min.s")
    m["parallel.map_ordered.s"] = g("parallel.map_ordered.s")
    m["parallel.workers"] = g("parallel.workers")
    m["parallel.child_cpu_s"] = g("parallel.child_cpu_s")
    m["parallel.busy_ratio"] = _ratio(g("parallel.child_cpu_s"), g("parallel.worker_s"))
    m["fbpde.steps.split_cut"] = g("fbpde.steps.split_cut")
    m["fbpde.steps.penalised"] = g("fbpde.steps.penalised")
    for key in ("split_cut_4001", "split_cut_12001", "penalised_4001"):
        m[f"fbpde.us_per_step.{key}"] = _ratio(
            1e6 * g(f"fbpde.s.{key}"), g(f"fbpde.steps.{key}"))
    m["fbpde.node_steps_per_s"] = _ratio(g("fbpde.node_steps"), g("fbpde.solve_s"))
    m["killedbm.path_steps"] = g("killedbm.path_steps")
    m["killedbm.ns_per_path_step"] = _ratio(
        1e9 * g("killedbm.simulate_killed.s"), g("killedbm.path_steps"))
    m["killedbm.simulate_killed.s"] = g("killedbm.simulate_killed.s")
    m["killedbm.killing_time_test.s"] = g("killedbm.killing_time_test.s")
    m["cli.self_s"] = g("cli.run.self_s")
    m["cli.bytes_written"] = g("cli.bytes_written")
    return m
