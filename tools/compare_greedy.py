"""Compare the greedy sampling sets of two source trees on the benchmark's problems.

    python tools/compare_greedy.py OLD_SRC NEW_SRC [--seeds 1 7919]

Each SRC is a directory holding the bgft package (a checkout's src/).  For
each seed, a child process per tree builds the seed's `sampling-design`
problems with bench/workloads.SamplingDesign (imported, not changed; 72 per
seed) on that tree's bgft and runs greedy_sampling_set on each.  The script
prints every problem whose node set differs, then each tree's total seconds
in greedy_sampling_set, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Run in the child: the node set of every problem, and the total seconds.
CHILD = """
import json, sys, tempfile, time
from pathlib import Path
import workloads
from bgft import sampling

with tempfile.TemporaryDirectory() as tmp:
    wl = workloads.SamplingDesign(int(sys.argv[1]), Path(tmp))
sets, seconds = [], 0.0
for item in wl.items:
    t0 = time.perf_counter()
    m_set = sampling.greedy_sampling_set(item["basis"], item["omega"], item["m"])
    seconds += time.perf_counter() - t0
    sets.append([item["kind"], item["k"], item["m"], list(m_set.nodes)])
print(json.dumps(dict(sets=sets, seconds=seconds)))
"""


def run(src: Path, seed: int) -> dict:
    """The child's result for one tree and seed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(BENCH)]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(seed)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7919])
    args = parser.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    total = differ = 0
    seconds = {"old": 0.0, "new": 0.0}
    for seed in args.seeds:
        a, b = run(old, seed), run(new, seed)
        seconds["old"] += a["seconds"]
        seconds["new"] += b["seconds"]
        for i, (x, y) in enumerate(zip(a["sets"], b["sets"])):
            total += 1
            if x != y:
                differ += 1
                kind, k, m = x[:3]
                print(f"differs: seed {seed} problem {i} ({kind}, K={k}, m={m}): "
                      f"{x[3]} -> {y[3]}")
    print(f"{differ} of {total} problems differ")
    print(f"greedy_sampling_set seconds: old {seconds['old']:.2f}, new {seconds['new']:.2f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
