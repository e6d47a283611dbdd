"""End-to-end and per-layer benchmark of nbbmlab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

A run repeats rounds of the workload's jobs (see workloads.py) for about
--seconds, at least three rounds.  Rounds alternate between two sets of
master seeds derived from --seed; every round checks every output, and
repeats the manifest digests of the last round with the same seeds while
differing from those of the other set.  The last line of standard output
is one JSON object with "correct", "attempted", "failed" and "metrics":
with --trace 0 the end-to-end metrics (medians over rounds), with
--trace 1 the per-layer metrics of spans.py (medians over traced rounds;
traced and untraced rounds alternate, giving the tracing overhead).

--smoke runs every workload at a tiny scale with all checks, traced and
untraced, and exits 0 only if everything passed.

The program is imported from the src/ directory next to this one; the run
exits 2 without a result when it is not there.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
MIN_ROUNDS = 3
SETUP_SAMPLES = 3
# replica pool size: the machine's CPUs, at most 2, so that the workload
# is the same on any machine with two or more
POOL_WORKERS = str(min(2, len(os.sched_getaffinity(0))))


def _import_program():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    try:
        import nbbmlab
    except ImportError as exc:
        print(f"bench: cannot import nbbmlab from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(nbbmlab.__file__).resolve().parent.parent != SRC:
        print(f"bench: nbbmlab imported from {nbbmlab.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest peak RSS of a reaped child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _setup_seconds(workload: str, seed: int) -> float:
    """Median time for a fresh interpreter to import and prepare the first job."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "run.py"), "--prepare",
                        "--workload", workload, "--seed", str(seed)],
                       cwd=ROOT, check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _log(msg) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_workload(workload, seed, seconds, trace, scale, out):
    """Measure rounds of one workload; returns (result dict, problems)."""
    import workloads
    from spans import Tracer, layer_metrics

    out = Path(out)
    spool = out / "spool"
    plans = [workloads.build(workload, seed, parity, scale, out)
             for parity in (0, 1)]
    tracer = Tracer(spool) if trace else None
    problems, walls, cpus, layers = [], [], [], []
    untraced_walls = []
    seen = {}               # parity -> digests of the last round with it
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        k = len(walls) + len(untraced_walls)
        plan = plans[k % 2]
        traced = trace and k % 2 == 0
        shutil.rmtree(out / workload, ignore_errors=True)
        spool.mkdir(parents=True, exist_ok=True)
        if traced:
            tracer.reset()
            tracer.install()
        facts, digests = {}, {}
        cpu0, t0 = _cpu(), time.perf_counter()
        try:
            for job in plan.jobs:
                attempted += 1
                try:
                    res = job.call()
                except Exception:   # the operation failed; keep measuring
                    failed += 1
                    _log(f"{workload}/{job.name} failed:\n{traceback.format_exc()}")
                    continue
                try:
                    facts[job.name] = job.check(res, problems)
                    digests[job.name] = job.digest(res)
                except Exception:
                    problems.append(f"{job.name}: check raised\n"
                                    f"{traceback.format_exc()}")
                del res
            if plan.cross_check and len(facts) == len(plan.jobs):
                plan.cross_check(facts, problems)
            wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
        finally:
            if traced:
                tracer.remove()
        if traced:
            tracer.collect_workers()
            layers.append(layer_metrics(tracer.stats))
            walls.append(wall)
        elif trace:
            untraced_walls.append(wall)
        else:
            walls.append(wall)
            cpus.append(cpu)
        _check_reproducible(seen, k % 2, digests, problems)
        _log(f"{workload} round {k}: wall {wall:.3f} s, cpu {cpu:.3f} s"
            f"{' (traced)' if traced else ''}")
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls + untraced_walls)
        if k + 1 >= MIN_ROUNDS and (seconds is None or elapsed + typical > seconds):
            break
    if trace:
        metrics = {key: statistics.median(m[key] for m in layers)
                   for key in layers[0]}
        metrics["bench.traced_wall_s"] = statistics.median(walls)
        metrics["bench.trace_overhead_s"] = \
            statistics.median(walls) - statistics.median(untraced_walls)
    else:
        metrics = {"wall_s": statistics.median(walls),
                   "cpu_s": statistics.median(cpus),
                   "peak_rss_mib": _peak_rss_mib()}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, problems


def _check_reproducible(seen, parity, digests, problems):
    """Same seeds give the same digests; the other seed set changes every one."""
    same, other = seen.get(parity), seen.get(1 - parity)
    for name, d in digests.items():
        if same is not None and name in same and same[name] != d:
            problems.append(f"{name}: digest changed between rounds with the "
                            f"same seeds")
        if other is not None and name in other and other[name] == d:
            problems.append(f"{name}: digest unchanged under another seed")
    seen[parity] = digests


def _units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _smoke() -> int:
    import workloads
    units = _units()
    ok = True
    for workload in workloads.WORKLOADS:
        t0 = time.perf_counter()
        result, problems = run_workload(workload, 1, None, True, "smoke",
                                        OUT / "smoke")
        good = not problems and result["failed"] == 0
        ok = ok and good
        for p in problems:
            _log(f"CHECK FAILED {workload}: {p}")
        shown = {k: f"{v:.6g} {units[k]}" for k, v in result["metrics"].items()
                 if v}
        print(f"{'ok  ' if good else 'FAIL'} {workload} "
              f"({time.perf_counter() - t0:.1f} s, {result['attempted']} jobs, "
              f"{result['failed']} failed) {json.dumps(shown)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_program()
    os.environ["NBBM_THREADS"] = POOL_WORKERS
    if args.smoke:
        return _smoke()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.prepare:   # the set-up probe: inputs of the first round, no run
        workloads.build(args.workload, args.seed, 0, "full", OUT / "prepare")
        return 0
    result, problems = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), "full", OUT / args.workload)
    for p in problems:
        _log(f"CHECK FAILED: {p}")
    if not args.trace:
        result["metrics"]["setup_s"] = _setup_seconds(args.workload, args.seed)
    units = _units()
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
