"""Compare linalg.eig_general of two source trees on the benchmark's analyze kinds.

    python tools/compare_eig.py OLD_SRC NEW_SRC [--sizes 64 256 512] [--repeats 3] [--seed 1]

Each SRC is a directory holding the bgft package (a checkout's src/).  A
child process per tree builds P for the five `analyze` kinds with
bench/workloads.py's graph builders (imported, not changed) at each size,
drawing the random graphs and the chord from one seed, and for a sixth
kind, the star joining node 0 to node i by weight i (reversible, with a
degenerate eigenvalue 0 and a non-uniform pi).  It times
linalg.eig_general on each P, --repeats calls in a row after one untimed
call, and measures one more call under tracemalloc: the MiB it keeps (the
returned decomposition) and the MiB it peaks at.  The trees run in the order old, new, new, old, so a drift of the
machine's speed during the runs weighs on both alike.  For each size and
kind the script prints each tree's solver label, cond_v, tracemalloc's
retained and peak MiB (from its first run), residual (the one its route
reports) and the min and median seconds over its 2 x --repeats calls, then
the largest absolute difference between the trees' eigenvalues, right
vectors V and left duals U* (each tree's V and U* as its public
right_vectors and left_dual give them, from its first run), and the
relative differences of cond_v and of the residual.  The basis of a
degenerate cluster is arbitrary, so V and U* may differ by O(1) where the
trees split one differently; the eigenvalues may not.  It prints the numpy and OpenBLAS
versions, and ends with one line: how many (n, kind) rows have eigenvalues,
V, U*, cond_v and residual identical bit for bit, and the names of the other
rows.  It exits 1 if any solver label differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"
FIELDS = {"lambda": "eigenvalues", "V": "right_vectors", "U*": "left_dual"}

# Run in the child: every (n, kind)'s solver, cond_v, residual, seconds and traced MiB on
# stdout, its eigenvalues, V and U* in the .npz named by argv[1].
CHILD = """
import json, sys, time, tracemalloc
import numpy as np
import workloads
from bgft import graphs, linalg, markov

out, seed, repeats = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rows, arrays = [], {}
for n in map(int, sys.argv[4:]):
    rng = np.random.default_rng([seed, n])
    adjacency = {
        "undirected-cycle": workloads.cycle_adjacency(n, True),
        "directed-cycle": workloads.cycle_adjacency(n, False),
        "perturbed-cycle": workloads.perturbed_cycle_adjacency(
            n, *workloads.random_chord(n, rng)),
        "random-reversible": workloads.random_reversible(n, rng),
        "random-nonreversible": workloads.random_digraph(n, rng),
        "star": np.zeros((n, n)),
    }
    adjacency["star"][0, 1:] = adjacency["star"][1:, 0] = np.arange(1, n)
    for kind, a in adjacency.items():
        p = markov.transition(graphs.DirectedGraph(a)).p
        linalg.eig_general(p)  # untimed: the first calls of a process run slow
        tracemalloc.start()
        dec = linalg.eig_general(p)
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del dec
        seconds = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            dec = linalg.eig_general(p)
            seconds.append(time.perf_counter() - t0)
        rows.append([n, kind, dec.solver, dec.cond_v, dec.residual, seconds,
                     retained / 2**20, peak / 2**20])
        for name in ("eigenvalues", "right_vectors", "left_dual"):
            arrays[f"{n} {kind} {name}"] = getattr(dec, name)
np.savez(out, **arrays)
try:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
except (KeyError, TypeError):
    blas = "unknown"
print(json.dumps(dict(rows=rows, numpy=np.__version__, blas=blas)))
"""


def run(src: Path, out: Path, args) -> dict:
    """The child's result for one tree; its arrays go to out."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(BENCH)]))
    argv = [sys.executable, "-c", CHILD, str(out), str(args.seed), str(args.repeats),
            *map(str, args.sizes)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--sizes", type=int, nargs="+", default=[64, 256, 512])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    srcs = {"old": args.old.resolve(), "new": args.new.resolve()}
    res = {tree: [] for tree in srcs}
    with tempfile.TemporaryDirectory() as tmp:
        for i, tree in enumerate(("old", "new", "new", "old")):
            res[tree].append(run(srcs[tree], Path(tmp) / f"{i}.npz", args))
        # Runs 0 and 1 are each tree's first.
        arrays = {tree: dict(np.load(Path(tmp) / f"{i}.npz"))
                  for i, tree in enumerate(("old", "new"))}
    labels_differ, differing = False, []
    for j, (n, kind, *_) in enumerate(res["old"][0]["rows"]):
        parts = []
        for tree, runs in res.items():
            solver, cond_v, residual, _, retained, peak = runs[0]["rows"][j][2:8]
            seconds = [s for r in runs for s in r["rows"][j][5]]
            parts.append(f"{tree} {solver} cond_v {cond_v:.4g}, {retained:.2f} MiB retained, "
                         f"{peak:.2f} MiB peak, residual {residual:.2e}, "
                         f"{min(seconds) * 1e3:.1f} ms min, "
                         f"{statistics.median(seconds) * 1e3:.1f} ms median")
        labels_differ |= res["old"][0]["rows"][j][2] != res["new"][0]["rows"][j][2]
        key = f"{n} {kind} "
        diffs = ", ".join(
            f"{label} {np.max(np.abs(arrays['old'][key + field] - arrays['new'][key + field])):.1e}"
            for label, field in FIELDS.items())
        old, new = (res[tree][0]["rows"][j][3:5] for tree in ("old", "new"))
        if old != new or not all(np.array_equal(arrays["old"][key + field],
                                                arrays["new"][key + field])
                                 for field in FIELDS.values()):
            differing.append(f"n={n} {kind}")
        rel = ", ".join(f"{label} {abs(b - a) / a:.1e} relative"
                        for label, a, b in zip(("cond_v", "residual"), old, new))
        print(f"n={n} {kind}: {'; '.join(parts)}; max |old - new|: {diffs}, {rel}")
    for tree, runs in res.items():
        print(f"{tree}: numpy {runs[0]['numpy']}, OpenBLAS {runs[0]['blas']}, "
              f"{len(runs) * args.repeats} calls per kind")
    rows = len(res["old"][0]["rows"])
    print(f"bit-identical lambda, V, U*, cond_v and residual: {rows - len(differing)} of "
          f"{rows} rows; differing: {', '.join(differing) or 'none'}")
    return 1 if labels_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
