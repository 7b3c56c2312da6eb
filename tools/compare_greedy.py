"""Compare the greedy sampling sets of two source trees on the benchmark's problems.

    python tools/compare_greedy.py OLD_SRC NEW_SRC [--seeds 1 7919]

Each SRC is a directory holding the bgft package (a checkout's src/).  For
each seed, a child process per tree builds the seed's `sampling-design`
problems with bench/workloads.SamplingDesign (imported, not changed; 72 per
seed) on that tree's bgft and runs greedy_sampling_set on each, counting the
calls to np.linalg.svd, np.linalg.eigh and np.linalg.eigvalsh it makes and
the matrices they decompose (a stack of B matrices counts B).  Each seed
runs the trees in the order old, new, new, old, so a drift of the machine's
speed during the runs weighs on both alike.  The script prints every
problem whose node set differs (between the trees, or between two runs of
one tree), then each tree's call and matrix totals and the min and median
over its runs of the seconds spent in greedy_sampling_set (summed over the
seeds), and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
NAMES = ("svd", "eigh", "eigvalsh")  # the np.linalg calls counted

# Run in the child, after NAMES: the node set of every problem, the total
# seconds, and the calls and matrices of the searches per name in NAMES.
CHILD = """
import json, sys, tempfile, time
from pathlib import Path
import numpy as np
import workloads
from bgft import sampling

with tempfile.TemporaryDirectory() as tmp:
    wl = workloads.SamplingDesign(int(sys.argv[1]), Path(tmp))
counts = {}

def counted(name):
    fn = getattr(np.linalg, name)
    def wrapper(a, *args, **kwargs):
        a = np.asarray(a)
        calls, matrices = counts.get(name, (0, 0))
        counts[name] = (calls + 1, matrices + a.reshape(-1, *a.shape[-2:]).shape[0])
        return fn(a, *args, **kwargs)
    return wrapper

for name in NAMES:
    setattr(np.linalg, name, counted(name))
sets, seconds = [], 0.0
for item in wl.items:
    t0 = time.perf_counter()
    m_set = sampling.greedy_sampling_set(item["basis"], item["omega"], item["m"])
    seconds += time.perf_counter() - t0
    sets.append([item["kind"], item["k"], item["m"], list(m_set.nodes)])
print(json.dumps(dict(sets=sets, seconds=seconds, counts=counts)))
"""


def run(src: Path, seed: int) -> dict:
    """The child's result for one tree and seed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(BENCH)]))
    code = f"NAMES = {NAMES!r}\n" + CHILD
    proc = subprocess.run([sys.executable, "-c", code, str(seed)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7919])
    args = parser.parse_args(argv)
    srcs = {"old": args.old.resolve(), "new": args.new.resolve()}
    total = differ = 0
    seconds = {tree: [0.0, 0.0] for tree in srcs}  # per run, summed over seeds
    counts = {tree: {name: [0, 0] for name in NAMES} for tree in srcs}
    for seed in args.seeds:
        res = {tree: [] for tree in srcs}
        for tree in ("old", "new", "new", "old"):
            res[tree].append(run(srcs[tree], seed))
        for tree, runs in res.items():
            for i, r in enumerate(runs):
                seconds[tree][i] += r["seconds"]
            for name, (calls, matrices) in runs[0]["counts"].items():
                counts[tree][name][0] += calls
                counts[tree][name][1] += matrices
        # Each problem's sets in the runs old, old, new, new.
        for i, sets in enumerate(zip(*(r["sets"] for r in res["old"] + res["new"]))):
            total += 1
            if any(s != sets[0] for s in sets):
                differ += 1
                kind, k, m = sets[0][:3]
                print(f"differs: seed {seed} problem {i} ({kind}, K={k}, m={m}): "
                      f"old {sets[0][3]} {sets[1][3]}, new {sets[2][3]} {sets[3][3]}")
    print(f"{differ} of {total} problems differ")
    for tree in srcs:
        calls = ", ".join(f"{name} {c} calls on {mats} matrices"
                          for name, (c, mats) in counts[tree].items())
        print(f"{tree}: {calls}, {min(seconds[tree]):.2f} s min and "
              f"{statistics.median(seconds[tree]):.2f} s median in greedy_sampling_set "
              f"over {len(seconds[tree])} runs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
