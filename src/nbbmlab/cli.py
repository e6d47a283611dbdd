"""Command-line front end: experiment orchestration and reproducible outputs.

Every run resolves its configuration (defaults < config file < flags),
echoes it into the output directory, writes CSV/JSON artefacts, and ends
with a manifest of file checksums plus a one-line JSON summary on stdout.
Seeds for the module calls are derived from the master seed by a fixed
SHA-256 scheme (recorded in the manifest), so identical configurations
give byte-identical outputs.

Exit codes: 0 success, 1 numerical failure, 2 invalid arguments.
"""

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import coupling, fbpde, killedbm, stationary, waves
from ._parallel import worker_count
from .measures import from_positions, tailcdf_from_csv, wasserstein_w1
from .nbbm import log_trajectory, new_system, parse_init, save_checkpoint

SEED_SCHEME = "sha256/v1 + numpy SeedSequence spawn"


class ConfigError(Exception):
    pass


def derive_seed(master_seed: int, *stream) -> int:
    """64-bit seed from the master seed and stream identifiers (stable)."""
    tag = "nbbm-seeds-v1:" + ":".join([str(master_seed)] + [str(s) for s in stream])
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")


def load_config(path) -> dict:
    """Flat key-value JSON config; flags override its entries."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a flat JSON object")
    return cfg


def _resolve(sub: str, cfg: dict, flags: dict) -> dict:
    out = {key: flag.default for key, flag in _FLAGS[sub].items()}
    for k, v in cfg.items():
        key = k.replace("-", "_")
        if key not in out:
            raise ConfigError(f"unknown config key {k!r}")
        out[key] = v
    for k, v in flags.items():
        if v is not None:
            out[k] = v
    return out


def _numbers(text, kind=float) -> list:
    """A comma-separated list flag (or a JSON list from a config file)."""
    toks = text if isinstance(text, (list, tuple)) else str(text).split(",")
    return [kind(str(tok)) for tok in toks if tok != ""]


class _OutputDir:
    def __init__(self, path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.files = []

    def file(self, name) -> Path:
        p = self.path / name
        self.files.append(p)
        return p

    def write_csv(self, name, header, rows) -> Path:
        p = self.file(name)
        with open(p, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(
                    repr(float(v)) if isinstance(v, float) else str(v)
                    for v in row) + "\n")
        return p

    def write_json(self, name, obj) -> Path:
        p = self.file(name)
        with open(p, "w") as fh:
            json.dump(obj, fh, sort_keys=True, indent=1)
            fh.write("\n")
        return p

    def finalise(self, resolved: dict, master_seed) -> None:
        self.write_json("resolved-config.json", resolved)
        digests = {}
        for p in sorted(self.files):
            digests[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
        self.write_json("manifest.json", {
            "files": digests,
            "seed_scheme": SEED_SCHEME,
            "master_seed": master_seed,
        })


# ---------------------------------------------------------------------------
# subcommand handlers: each returns the summary dict
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg, out):
    n = int(cfg["n"])
    seed = derive_seed(cfg["seed"], "simulate")
    ps = new_system(n, cfg["init"], seed=seed)
    log_trajectory(ps, float(cfg["t"]), float(cfg["log_interval"]),
                   out.file("trajectory.csv"))
    save_checkpoint(ps, out.file("checkpoint.json"))
    summary = {"n": n, "t": ps.time, "n_events": ps.n_events,
               "L": ps.leftmost, "M": ps.barycentre}
    if n <= 16:
        summary["positions"] = [float(x) for x in ps.positions]
    return summary


def _cmd_stationary(cfg, out):
    n = int(cfg["n"])
    ens = stationary.estimate_stationary(
        n,
        burn_in=cfg["burn_in"], horizon=cfg["horizon"],
        delta_sample=float(cfg["delta_sample"]), centring=cfg["centring"],
        seed=derive_seed(cfg["seed"], "stationary", n), init=cfg["init"])
    prof = ens.mean_profile
    out.write_csv("mean_profile.csv", "x,U", zip(prof.grid, prof.values))
    gaps = stationary.snapshot_gaps(ens)
    out.write_csv("gaps.csv", "index,gap",
                  [(i, float(g)) for i, g in enumerate(gaps)])
    digests = [hashlib.sha256(s.atoms.tobytes()).hexdigest()[:16]
               for s in ens.snapshots]
    out.write_json("ensemble.json", {
        "n": n, "burn_in": ens.burn_in, "horizon": ens.horizon,
        "delta_sample": ens.delta_sample, "centring": ens.centring,
        "n_snapshots": len(ens.snapshots), "snapshot_digests": digests,
    })
    mean_gap, gap_se = stationary.selection_gap_report(ens)
    return {"n": n, "n_snapshots": len(ens.snapshots),
            "mean_gap": mean_gap, "gap_se": gap_se}


def _cmd_velocity(cfg, out):
    rows = []
    for n in _numbers(cfg["n"], int):
        est = stationary.estimate_velocity(
            n, horizon=float(cfg["horizon"]),
            n_replicas=int(cfg["replicas"]),
            seed=derive_seed(cfg["seed"], "velocity", n),
            burn_in=float(cfg["burn_in"]))
        rows.append((n, est.v_hat, est.std_error))
    out.write_csv("velocity.csv", "N,v_hat,std_error", rows)
    return {"results": [{"n": r[0], "v_hat": r[1], "std_error": r[2]}
                        for r in rows]}


def _parse_scheme(text):
    """(scheme, n_penalty) of "split", "split_cut", "penalised" or
    "penalised:<n>"; FlowParams checks n."""
    name, colon, n = text.partition(":")
    if text in ("split", "split_cut"):
        return "split_cut", 64
    if name == "penalised":
        return "penalised", int(n) if colon else 64
    raise ValueError(f"unknown scheme {text!r}")


def _pde_inputs(cfg):
    """Grid parameters, initial condition, end and save times of a `pde` run;
    OSError, ValueError or MemoryError on any that the run would reject."""
    scheme, n_pen = _parse_scheme(cfg["scheme"])
    params = fbpde.FlowParams(dx=float(cfg["dx"]), dt=float(cfg["dt"]),
                              x_window=float(cfg["window"]), scheme=scheme,
                              n_penalty=n_pen)
    init = cfg["init"]
    if init.startswith("file:"):
        init = tailcdf_from_csv(init[5:])   # checked as a tail on loading
    start = fbpde.start_time(init, params)
    t_end = float(cfg["t"])
    saves = _numbers(cfg["save"]) or [t_end]
    if min(saves + [t_end]) < start:
        raise ValueError(f"--t and --save must be >= the warm start {start:g}")
    if max(saves) > t_end:
        raise ValueError("--save times must be <= --t")
    times = set(saves) | {t_end}   # one profile file each, named by :g
    if len({f"{t:g}" for t in times}) < len(times):
        raise ValueError("two --save times give the same profile file name")
    return params, init, t_end, saves


def _cmd_pde(cfg, out):
    params, init, t_end, saves = _pde_inputs(cfg)
    if params.scheme == "split_cut":
        traj = fbpde.solve_density(init, t_end, params, save_times=saves)
        for prof in traj.profiles:
            out.write_csv(f"profile_t{prof.t:g}.csv", "x,u",
                          zip(prof.grid, prof.u))
    else:
        traj = fbpde.solve_cdf(init, t_end, params, save_times=saves)
        for tl, tt in zip(traj.tails, traj.tail_times):
            out.write_csv(f"profile_t{tt:g}.csv", "x,U",
                          zip(tl.grid, tl.values))
    final_l = float(traj.boundary[-1])
    times, bnd = traj.times, traj.boundary
    if times.size > 1:   # from t = 0 to t_end; a run of no steps has no path
        path = killedbm.boundary_from_trajectory(traj)
        times, bnd = path.times, path.values
    keep = list(range(0, times.size, 20))
    if keep[-1] != times.size - 1:
        keep.append(times.size - 1)
    out.write_csv("boundary.csv", "t,L,L_over_t",
                  [(float(t), float(l), float(l / t) if t > 0 else 0.0)
                   for t, l in zip(times[keep], bnd[keep])])
    return {"t_end": t_end, "L": final_l,
            "L_over_t": final_l / t_end if t_end else 0.0}


def _cmd_wave(cfg, out):
    wave = waves.travelling_wave(float(cfg["c"]))
    xs = np.arange(0.0, float(cfg["xmax"]) + 1e-12, float(cfg["dx"]))
    out.write_csv("wave.csv", "x,density,tail",
                  [(float(x), float(wave.density(x)), float(wave.tail(x)))
                   for x in xs])
    return {"c": wave.speed, "points": len(xs), "mean": wave.mean}


def _cmd_couple(cfg, out):
    ts = _numbers(cfg["t"])
    reports = coupling.contraction_estimate(
        int(cfg["n"]), cfg["init_a"], cfg["init_b"],
        ts, int(cfg["replicas"]),
        seed=derive_seed(cfg["seed"], "couple"))
    out.write_csv("contraction.csv", "t,lhs,rhs,margin",
                  [(r.t, r.lhs, r.rhs, r.margin) for r in reports])
    return {"n": int(cfg["n"]),
            "all_ok": all(r.ok for r in reports),
            "margins": [r.margin for r in reports]}


def _kbm_boundary(cfg):
    """A `killedbm` run's boundary: a `pde` boundary.csv, else a line."""
    if cfg["boundary"]:
        return killedbm.boundary_from_csv(cfg["boundary"])
    return killedbm.linear_boundary(float(cfg["boundary_l0"]),
                                    float(cfg["boundary_speed"]),
                                    float(cfg["t"]) + 1.0)


def _cmd_killedbm(cfg, out):
    samples = killedbm.simulate_killed(
        cfg["init"], _kbm_boundary(cfg), float(cfg["t"]), float(cfg["dt"]),
        int(cfg["paths"]), seed=derive_seed(cfg["seed"], "killedbm"))
    out.write_csv("tau.csv", "tau",
                  [(float(t),) for t in samples.observed_tau()])
    out.write_csv("survivors.csv", "x",
                  [(float(x),) for x in samples.survivors])
    rep = killedbm.killing_time_test(samples) if \
        samples.observed_tau().size >= 1000 else None
    summary = {"paths": samples.n_paths,
               "survival_fraction": samples.survival_fraction}
    if rep:
        summary.update({"ks_stat": rep.ks_stat, "p_value": rep.p_value,
                        "mean_tau": rep.mean_tau})
    return summary


def _cmd_selection(cfg, out):
    rows = []
    for n in _numbers(cfg["n"], int):
        ens = stationary.estimate_stationary(
            n, burn_in=cfg["burn_in"], horizon=cfg["horizon"],
            seed=derive_seed(cfg["seed"], "selection", n), init="pimin")
        mean_gap, gap_se = stationary.selection_gap_report(ens)
        rows.append((n, mean_gap, gap_se))
    out.write_csv("gaps.csv", "N,gap,se", rows)
    return {"gaps": [{"n": r[0], "gap": r[1], "se": r[2]} for r in rows]}


def _cmd_conjecture(cfg, out):
    rep = fbpde.conjecture_experiment(float(cfg["lam"]), float(cfg["t"]))
    out.write_csv("conjecture.csv", "t,L_over_t,sup_distance",
                  [(float(t), float(l), float(s)) for t, l, s
                   in zip(rep.times, rep.boundary_over_t, rep.sup_distance)])
    return {"lam": rep.lam,
            "final_speed": float(rep.boundary_over_t[-1]),
            "final_sup_distance": float(rep.sup_distance[-1])}


# ---------------------------------------------------------------------------
# verify: reduced-scale property battery
# ---------------------------------------------------------------------------

def _verify_checks(seed):
    rng = np.random.default_rng(seed)

    def wave_mass():
        xs = np.linspace(0, 40, 40001)
        return abs(np.trapezoid(waves.pi_min(xs), xs) - 1.0) < 1e-6

    def wave_residual():
        xs = np.linspace(0.01, 20, 500)
        return float(np.max(np.abs(waves.wave_ode_residual(
            waves.MINIMAL_WAVE, xs)))) < 1e-10

    def w1_bruteforce():
        import itertools
        for _ in range(30):
            k = int(rng.integers(2, 6))
            x, y = rng.normal(size=k), rng.normal(size=k)
            best = min(sum(abs(x[i] - y[p[i]]) for i in range(k)) / k
                       for p in itertools.permutations(range(k)))
            if abs(best - wasserstein_w1(from_positions(x),
                                         from_positions(y))) > 1e-12:
                return False
        return True

    def sampler_mean():
        mu = waves.sample_pi_min(rng, 4000)
        return abs(mu.atoms.mean() - math.sqrt(2)) < 3.0 / math.sqrt(4000) + 0.02

    def wave_quantile():
        x = np.concatenate(([0.0], 10.0 ** rng.uniform(-9.0, 2.5, 300)))
        return all(waves.quantile_inverts_tail(waves.travelling_wave(c), x)
                   for c in (math.sqrt(2), rng.uniform(math.sqrt(2), 4.0)))

    def pde_mass():
        params = fbpde.FlowParams(dx=0.02, dt=0.002, x_window=25.0)
        traj = fbpde.solve_density("pimin", 0.5, params)
        return abs(traj.final.mass() - 1.0) < 1e-6

    def stretch_reflexive():
        grid = np.arange(-6.0, 24.0, 0.02)
        u = fbpde.wave_tail_on_grid(waves.MINIMAL_WAVE, grid)
        return fbpde.stretch_ge(u, u, 0.04)

    def coupling_diagonal():
        cp = coupling.new_coupled(8, "zeros", "zeros",
                                  seed=int(rng.integers(2**32)))
        coupling.advance_coupled(cp, 1.0)
        return cp.distance() == 0.0

    def killing_exponential():
        bd = killedbm.linear_boundary(0.0, math.sqrt(2), 2.0)
        s = killedbm.simulate_killed(waves.sample_pi_min, bd, 2.0, 2e-3,
                                     4000, seed=int(rng.integers(2**32)))
        return killedbm.killing_time_test(s).p_value > 1e-3

    def selection_positive():
        ens = stationary.estimate_stationary(16, burn_in=20.0, horizon=60.0,
                                             seed=int(rng.integers(2**32)))
        return stationary.selection_gap(ens) > 0.0

    return [("wave_mass", wave_mass), ("wave_residual", wave_residual),
            ("w1_bruteforce", w1_bruteforce), ("sampler_mean", sampler_mean),
            ("wave_quantile", wave_quantile),
            ("pde_mass", pde_mass), ("stretch_reflexive", stretch_reflexive),
            ("coupling_diagonal", coupling_diagonal),
            ("killing_exponential", killing_exponential),
            ("selection_positive", selection_positive)]


def _cmd_verify(cfg, out):
    seed = derive_seed(cfg["seed"], "verify")
    results = []
    for name, check in _verify_checks(seed):
        ok = bool(check())
        results.append((name, ok))
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    out.write_csv("verify.csv", "check,ok", results)
    if not all(ok for _, ok in results):
        raise ArithmeticError("verification failures: " + ", ".join(
            name for name, ok in results if not ok))
    return {"checks": len(results), "failures": 0}


# ---------------------------------------------------------------------------
# argument parsing: one flag table drives defaults, parser and validation
# ---------------------------------------------------------------------------

class Flag(NamedTuple):
    """A flag's kind, default and bounds; a None default is left to the library.

    Kinds: int, float, ints and floats (comma-separated lists, kept as the
    given string), str, init (a spec of nbbm.parse_init), or a tuple of the
    allowed choices.  Bounds apply to every entry of a list.  A list whose
    default lists something must list something; an empty default means
    an empty list has a meaning (``pde --save ""``: save at --t only).
    """

    kind: object
    default: object
    low: float = None       # smallest allowed value
    above: float = None     # values must exceed this
    positional: bool = False


_FLAGS = {sub: dict(flags, seed=Flag("int", 0), out=Flag("str", f"out/{sub}"))
          for sub, flags in {
    "simulate": {"n": Flag("int", 2, 1), "t": Flag("float", 1.0, 0),
                 "init": Flag("init", "zeros"),
                 "log_interval": Flag("float", 0.5, above=0)},
    "stationary": {"n": Flag("int", 64, 1), "burn_in": Flag("float", None, 0),
                   "horizon": Flag("float", None, 0),
                   "delta_sample": Flag("float", 1.0, above=0),
                   "centring": Flag(("leftmost", "median"), "leftmost"),
                   "init": Flag("init", "zeros")},
    "velocity": {"n": Flag("ints", "2,64", 2), "replicas": Flag("int", 8, 1),
                 "horizon": Flag("float", 120.0, 0),
                 "burn_in": Flag("float", 20.0, 0)},
    "pde": {"init": Flag("str", "heaviside"), "t": Flag("float", 1.0, 0),
            "dx": Flag("float", 0.01, above=0),
            "dt": Flag("float", 5e-4, above=0),
            "window": Flag("float", 40.0, above=0),
            "scheme": Flag("str", "split"), "save": Flag("floats", "", 0)},
    "wave": {"action": Flag(("dump",), "dump", positional=True),
             "c": Flag("float", waves.SQRT2, waves.SQRT2 - waves.SPEED_TOL),
             "xmax": Flag("float", 20.0, 0), "dx": Flag("float", 0.01, above=0)},
    "couple": {"n": Flag("int", 64, 2), "init_a": Flag("init", "pimin"),
               "init_b": Flag("init", "pimin"),
               "t": Flag("floats", "0.5,1", 0), "replicas": Flag("int", 50, 2)},
    "killedbm": {"boundary": Flag("str", ""),
                 "boundary_speed": Flag("float", math.sqrt(2)),
                 "boundary_l0": Flag("float", 0.0),
                 "init": Flag("init", "pimin"), "t": Flag("float", 1.0, 0),
                 "dt": Flag("float", 1e-3, above=0),
                 "paths": Flag("int", 10000, 1)},
    "selection": {"n": Flag("ints", "16,32", 1),
                  "burn_in": Flag("float", None, 0),
                  "horizon": Flag("float", None, 0)},
    "conjecture": {"lam": Flag("float", 2.0, above=0),
                   "t": Flag("float", 10.0, above=0)},
    "verify": {},
}.items()}

_HANDLERS = {
    "simulate": _cmd_simulate, "stationary": _cmd_stationary,
    "velocity": _cmd_velocity, "pde": _cmd_pde, "wave": _cmd_wave,
    "couple": _cmd_couple, "killedbm": _cmd_killedbm,
    "selection": _cmd_selection, "conjecture": _cmd_conjecture,
    "verify": _cmd_verify,
}

# how a flag's value is read as numbers, from its text as the flag form
# reads it, so a config file's 3.7 or true is no int, as --n 3.7 is none;
# other kinds have no numeric value
_NUMBERS = {"int": lambda v: [int(str(v))], "float": lambda v: [float(str(v))],
            "ints": lambda v: _numbers(v, int), "floats": _numbers}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbbmlab",
        description="particle-selection simulator and free-boundary PDE lab")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for sub, flags in _FLAGS.items():
        sp = subs.add_parser(sub)
        sp.add_argument("--config", default=None)
        for key, flag in flags.items():
            if flag.positional:
                sp.add_argument(key, nargs="?", default=None)
            else:
                sp.add_argument("--" + key.replace("_", "-"), dest=key,
                                default=None,
                                type={"int": int, "float": float}.get(flag.kind))
    return parser


def _check_flag(flag: Flag, value):
    """The value, checked against the flag; an int or float flag's comes
    back as the number its flag form gives."""
    if flag.kind == "init":
        if not isinstance(value, str):
            raise ValueError(f"{value!r} is not an init spec string")
        parse_init(value)
    elif isinstance(flag.kind, tuple) and value not in flag.kind:
        raise ValueError(f"{value!r} is not one of {', '.join(flag.kind)}")
    elif flag.kind == "str" and not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    numbers = _NUMBERS.get(flag.kind, lambda v: [])(value)
    if not numbers and flag.kind in ("ints", "floats") and flag.default:
        raise ValueError("lists no value")
    for v in numbers:
        if not math.isfinite(v):
            raise ValueError(f"{v!r} is not finite")
        if flag.low is not None and v < flag.low:
            raise ValueError(f"must be >= {flag.low:g}")
        if flag.above is not None and v <= flag.above:
            raise ValueError(f"must be > {flag.above:g}")
    return numbers[0] if flag.kind in ("int", "float") else value


def _check_scales(sub: str, cfg: dict) -> None:
    """Burn-in against horizon, by the library's own defaults and rule."""
    try:
        if sub == "velocity":
            stationary.check_span(float(cfg["burn_in"]), float(cfg["horizon"]))
        elif "horizon" in cfg:   # stationary and selection
            spacing = {"delta_sample": float(cfg["delta_sample"])} \
                if "delta_sample" in cfg else {}
            for n in _numbers(cfg["n"], int):
                stationary.sample_span(n, cfg["burn_in"], cfg["horizon"],
                                       **spacing)
    except ValueError as exc:   # no or too many snapshots
        raise ConfigError(f"conflicting scale parameters: {exc}") from exc


def _validate(sub: str, cfg: dict) -> None:
    """Every resolved value against the flag table, before any work starts;
    int and float values are set to the numbers their flags would give."""
    for key, flag in _FLAGS[sub].items():
        value = cfg[key]
        if value is None and flag.default is None:
            continue
        try:
            cfg[key] = _check_flag(flag, value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    _check_scales(sub, cfg)
    try:
        worker_count(1)   # the replica pool's NBBM_THREADS
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    build = {"pde": _pde_inputs, "killedbm": _kbm_boundary}.get(sub)
    if build:   # the run's input files are read and its inputs built now
        try:
            build(cfg)
        except (OSError, ValueError, IndexError, MemoryError) as exc:
            raise ConfigError(f"{sub}: {exc}") from exc


def run(argv) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:   # --help, or a usage error printed by argparse
        if exc.code:
            print(json.dumps({"error": "invalid arguments", "exit": 2}))
        return 2 if exc.code else 0
    flags = {k: v for k, v in vars(ns).items()
             if k not in ("config", "subcommand")}
    sub = ns.subcommand
    try:
        cfg_file = load_config(ns.config) if ns.config else {}
        resolved = _resolve(sub, cfg_file, flags)
        _validate(sub, resolved)   # every input is checked before any work
        out = _OutputDir(resolved["out"])
        summary = _HANDLERS[sub](resolved, out)
    except ConfigError as exc:
        print(json.dumps({"error": str(exc), "exit": 2}, sort_keys=True))
        return 2
    except Exception as exc:  # numerical failure
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}", "exit": 1},
                         sort_keys=True))
        return 1
    out.finalise(resolved, resolved.get("seed"))
    print(json.dumps(dict(summary, subcommand=sub), sort_keys=True))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
