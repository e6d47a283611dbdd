"""Microseconds per event of the lazy N-BBM loop, paired over two checkouts.

    python3 tools/lazy_pairs.py PARENT CHANGE --out BENCH_k_lazy.json \\
        [--rounds 3] [--sizes 1024,4096,16384,65536] [--seed 5]

PARENT and CHANGE are two checkouts of the repository (for instance made
with ``git archive REV | tar -x -C DIR``).  For each round and size, each
checkout runs once in a fresh interpreter that imports the checkout's own
``src/``; the parent goes first in even rounds and the change first in odd
ones, so a drift of the machine's speed falls on both sides alike.

A run starts N particles from pimin with --seed, warms up with
``advance_to`` calls of 0.5 time units up to time 1, and then times as
many further 0.5-long calls as give about 2^16 events (wall clock, by
``time.perf_counter``).  The output gives, per size and side, every run's
microseconds per event, events, promotions and bridge draws per event, and
the median; the per-size ratio parent / change of the medians; and the
CPU count and the python/numpy/scipy versions.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SPAN = 0.5          # time units per advance_to call, as a sampling interval
WARM = 1.0          # time units run before timing
EVENTS = 1 << 16    # events timed, roughly

CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from nbbmlab import nbbm
n, seed, span, warm, calls = (int(sys.argv[2]), int(sys.argv[3]),
                              float(sys.argv[4]), float(sys.argv[5]),
                              int(sys.argv[6]))
ps = nbbm.new_system(n, "pimin", seed=seed)
while ps.time < warm:
    nbbm.advance_to(ps, ps.time + span)
e0, p0, b0 = ps.n_events, ps.promotions, ps.bridge_draws
t0 = time.perf_counter()
for _ in range(calls):
    nbbm.advance_to(ps, ps.time + span)
wall = time.perf_counter() - t0
events = ps.n_events - e0
print(json.dumps({"events": events, "us_per_event": 1e6 * wall / events,
                  "promotions_per_event": (ps.promotions - p0) / events,
                  "bridge_draws_per_event": (ps.bridge_draws - b0) / events}))
"""


def _run(checkout: Path, n: int, seed: int) -> dict:
    calls = max(1, round(EVENTS / ((n - 1) * SPAN)))
    cmd = [sys.executable, "-c", CHILD, str(checkout / "src"), str(n),
           str(seed), str(SPAN), str(WARM), str(calls)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"lazy_pairs: N = {n} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--sizes", default="1024,4096,16384,65536")
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sizes = [int(v) for v in args.sizes.split(",")]
    runs = {n: {"parent": [], "change": []} for n in sizes}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for n in sizes:
            for side in order:
                runs[n][side].append(_run(sides[side], n, args.seed))
            print(f"round {r + 1}/{args.rounds} N = {n}: " + ", ".join(
                f"{s} {runs[n][s][-1]['us_per_event']:.1f} us"
                for s in order), file=sys.stderr, flush=True)
    results = {}
    for n in sizes:
        med = {s: statistics.median(x["us_per_event"] for x in runs[n][s])
               for s in sides}
        results[str(n)] = {"median_us_per_event": med,
                           "parent_over_change": med["parent"] / med["change"],
                           "runs": runs[n]}
    import numpy
    import scipy
    report = {"command": f"tools/lazy_pairs.py PARENT CHANGE --rounds "
                         f"{args.rounds} --sizes {args.sizes} "
                         f"--seed {args.seed}",
              "span": SPAN, "warm": WARM, "events": EVENTS,
              "environment": {"cpus": os.cpu_count(),
                              "cpus_usable": len(os.sched_getaffinity(0)),
                              "machine": platform.machine(),
                              "processor": platform.processor(),
                              "python": platform.python_version(),
                              "numpy": numpy.__version__,
                              "scipy": scipy.__version__},
              "results": results}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
