"""Paired benchmark runs of two checkouts; one JSON summary of every metric.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_k.json \\
        [--pairs 10] [--jobs WORKLOAD:SEED[:PAIRS] ...] [--trace 0|1]
    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_k.json \\
        --jobs lazy4096:5:3 lazy65536:5:3

PARENT and CHANGE are each a directory holding a checkout of the
repository, or a git revision of this repository, which the script
exports with ``git archive`` into a temporary directory and removes after
the runs.  The report records each side's full commit id: the revision's,
or for a directory the HEAD of the git work tree it is in (null when it is
in none), marked ``-dirty`` when tracked files under the directory have
uncommitted changes.  For each job (by default every
workload of BENCHMARK.json at seed 1) the script runs the checkout's own
``bench/run.py --workload W --seed S --seconds T --trace X`` once per side
and pair, with T the ``run_seconds`` of BENCHMARK.json, for PAIRS pairs
(--pairs when a job names none).  Pair i runs the
parent first when i is even and the change first when it is odd, so a
drift of the machine's speed falls on both sides alike.

A job named ``lazy<N>`` times the lazy N-BBM loop instead, in a fresh
interpreter that imports the checkout's own ``src/``: N particles start
from pimin with the job's seed, ``advance_to`` calls of 0.5 time units
run to time 1, and then as many further 0.5-long calls as give about
2^16 events are timed (wall clock, by ``time.perf_counter``).  Its
metrics are the microseconds per event, the events timed, and the
promotions and bridge draws per event; it has no correctness check, and
--trace does not change it.

With --trace 0 it summarises the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones.  For each metric and side it reports
the median and the quartiles over the pairs, and how many pairs the change
won (strictly better in the metric's direction).  The output also records
each run's raw metrics, failures and correctness, and the machine: CPU
count, processor, the python/numpy/scipy versions and NBBM_THREADS
(bench/run.py itself sizes the replica pool to at most two workers).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# the lazy loop's timing, as a lazy<N> job runs it with argv N SEED
LAZY_CHILD = """
import json, sys, time
sys.path.insert(0, "src")
from nbbmlab import nbbm
n, seed = int(sys.argv[1]), int(sys.argv[2])
span, warm = 0.5, 1.0   # time units per advance_to call, and before timing
calls = max(1, round(2 ** 16 / ((n - 1) * span)))   # about 2^16 events
ps = nbbm.new_system(n, "pimin", seed=seed)
while ps.time < warm:
    nbbm.advance_to(ps, ps.time + span)
e0, p0, b0 = ps.n_events, ps.promotions, ps.bridge_draws
t0 = time.perf_counter()
for _ in range(calls):
    nbbm.advance_to(ps, ps.time + span)
wall = time.perf_counter() - t0
events = ps.n_events - e0
metrics = {"us_per_event": 1e6 * wall / events, "events": events,
           "promotions_per_event": (ps.promotions - p0) / events,
           "bridge_draws_per_event": (ps.bridge_draws - b0) / events}
print(json.dumps({"failed": 0,
                  "metrics": {k: {"value": v} for k, v in metrics.items()}}))
"""
LAZY_METRICS = [
    {"name": "us_per_event", "unit": "us", "better": "lower"},
    {"name": "events", "unit": "count", "better": "lower"},
    {"name": "promotions_per_event", "unit": "count", "better": "lower"},
    {"name": "bridge_draws_per_event", "unit": "count", "better": "lower"}]


def _job(workload: str, seed: int, spec: dict, trace: int):
    """The command a job runs in each checkout, and the metrics it reports."""
    n = workload.removeprefix("lazy")
    if n != workload and n.isdigit():
        return [sys.executable, "-c", LAZY_CHILD, n, str(seed)], LAZY_METRICS
    return ([sys.executable, "bench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(trace)],
            spec["per_layer" if trace else "end_to_end"])


def _run(checkout: Path, cmd: list) -> dict:
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} "
                         f"exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return result


def _quartiles(xs) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") \
        if len(xs) > 1 else (xs[0],) * 3
    return {"median": med, "q1": q1, "q3": q3}


def _summary(metrics, parent_runs, change_runs) -> dict:
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(p["metrics"].get(name), c["metrics"].get(name))
                 for p, c in zip(parent_runs, change_runs)]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        ps, cs = zip(*pairs)
        won = sum((c < p) if lower else (c > p) for p, c in pairs)
        out[name] = {"unit": m["unit"], "better": m["better"],
                     "parent": _quartiles(ps), "change": _quartiles(cs),
                     "change_won": won, "pairs": len(pairs)}
    return out


def _version(checkout: Path):
    """HEAD of the git work tree holding the directory, with "-dirty"
    appended when tracked files in it differ from HEAD; None outside git."""
    git = ["git", "-C", str(checkout)]
    proc = subprocess.run(git + ["rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode:
        return None
    status = subprocess.run(git + ["status", "--porcelain",
                                   "--untracked-files=no", "--", "."],
                            capture_output=True, text=True, check=True)
    return proc.stdout.strip() + ("-dirty" if status.stdout else "")


def _checkout(arg: str, dest: Path):
    """(directory, commit id) of a checkout directory, or of a git revision
    exported into dest."""
    if Path(arg).is_dir():
        return Path(arg).resolve(), _version(Path(arg))
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                           "--quiet", f"{arg}^{{commit}}"],
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"bench_pairs: {arg!r} is neither a directory nor "
                         f"a git revision")
    commit = proc.stdout.strip()
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)
    return dest, commit


def _environment() -> dict:
    import numpy
    import scipy
    return {"cpus": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "NBBM_THREADS": os.environ.get("NBBM_THREADS")}


def _pairs(args, spec: dict, sides: dict) -> list:
    """Every job's paired runs of the two checkouts, summarised."""
    results = []
    for job in args.jobs:
        workload, seed, *pairs = job.split(":")
        pairs = int(pairs[0]) if pairs else args.pairs
        cmd, metrics = _job(workload, int(seed), spec, args.trace)
        runs = {"parent": [], "change": []}
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run(sides[side], cmd))
            print(f"{job}: pair {i + 1}/{pairs} done", file=sys.stderr,
                  flush=True)
        record = {
            "workload": workload, "seed": int(seed), "pairs": pairs,
            "metrics": _summary(metrics, runs["parent"], runs["change"]),
            "failed": {s: [r["failed"] for r in runs[s]] for s in runs},
            "runs": {s: [r["metrics"] for r in runs[s]] for s in runs}}
        if "correct" in runs["parent"][0]:   # a lazy job checks nothing
            record["correct"] = {s: [r["correct"] for r in runs[s]]
                                 for s in runs}
        results.append(record)
    return results


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout directory or git revision")
    ap.add_argument("change", help="checkout directory or git revision")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--jobs", nargs="+", metavar="WORKLOAD:SEED[:PAIRS]",
                    default=[f"{w['name']}:1" for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        checkouts = {side: _checkout(getattr(args, side), Path(tmp) / side)
                     for side in ("parent", "change")}
        results = _pairs(args, spec, {s: d for s, (d, _) in checkouts.items()})
    command = (f"tools/bench_pairs.py PARENT CHANGE --pairs {args.pairs} "
               f"--jobs {' '.join(args.jobs)} --trace {args.trace}")
    report = {"command": command, "run_seconds": spec["run_seconds"],
              "pairs": args.pairs, "trace": args.trace,
              "checkouts": {s: c for s, (_, c) in checkouts.items()},
              "environment": _environment(), "results": results}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
