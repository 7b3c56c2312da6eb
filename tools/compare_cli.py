"""Compare the bgft command line of two source trees byte for byte.

    python tools/compare_cli.py OLD_SRC NEW_SRC

Each SRC is a directory holding the bgft package (a checkout's src/).  The
script writes its inputs to a temporary directory: an edge list, three
Matrix Market files written by scipy.io.mmwrite (real general, real
symmetric and pattern), six birth-death edge lists (BIRTH_DEATH), the
edge list of the star joining node 0 to node i by weight i, that of the
8 x 8 directed torus (normal and not symmetric; its eigenvalue 0 has
multiplicity 8, the others 1 or 2), a real and a complex signal file, and the
malformed files the rejections read.  It
runs a fixed list of argvs as `python -m bgft.cli` under each tree, with
BGFT_SEED unset, and compares exit status, stdout, stderr and any --out
file.  The list covers the five subcommands, all three formats, the three
generated graphs, both graph file formats, the README examples and the
rejections the CLI can reach.  It prints the number of argvs and every
argv whose results differ, and exits 1 on any difference.  For each differing argv it also prints how: the largest
relative difference between the numbers, when every differing output is
the same text but for its numbers, else "text differs".
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse

# A decimal number as the CLI prints it, inf and nan included.
NUMBER = re.compile(rb"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")
N = 64  # the CLI's default --n, so the README examples read the same signals
FORMATS = ("table", "csv", "json")
# Birth-death paths (n, r) stepping right with probability r and left with
# 1 - r: reversible, with pi spread over ((1 - r) / r)^(n - 1), from 3.1e10
# (n = 12) to 1.1e35 (n = 200).  The tests' BIRTH_DEATH_CASES.
BIRTH_DEATH = [(12, 0.1), (20, 0.1), (30, 0.1), (40, 0.2), (60, 0.3), (200, 0.4)]

# Malformed inputs for the rejections, by file name.
BAD_FILES = {
    "nan.sig": "1.0\nnan 0.0\n",
    "cols.sig": "1.0\n1.0 2.0 3.0\n",
    "empty.sig": "# no values\n",
    "short.sig": "1.0\n0.0\n0.0\n",
    "header.edges": "# nodes 5\n0 1\n7 0\n",
    "count.edges": "# nodes three\n0 1\n",
    "cols.edges": "0 1\n0 1 1.0 2.0\n",
    "neg.edges": "0 1\n-1 0\n",
    "weight.edges": "0 1 -2.0\n1 0\n",
    "empty.edges": "# only a comment\n",
    "sink.edges": "0 1\n1 2\n",
    # Header-first, so the bulk edge-list parser reads them first and must
    # hand each back to the line parser for its error.
    "bulk-nan.edges": "# nodes 3\n0 1 1.0\n1 2 nan\n2 0 1.0\n",
    "bulk-huge.edges": "# nodes 3\n0 1 1.0\n1 2 1e400\n2 0 1.0\n",
    "bulk-index.edges": "# nodes 3\n0 1 1.0\n1 3 1.0\n2 0 1.0\n",
    "bulk-neg.edges": "# nodes 3\n0 1 1.0\n-1 2 1.0\n2 0 1.0\n",
    "bulk-comment.edges": "# nodes 3\n0 1 1.0 # c\n1 2 1.0\n2 0 1.0\n",
    "bulk-header.edges": "# nodes 3\n" + "0 1 1.0\n1 2 1.0\n2 0 1.0\n" * 367
                         + "# nodes 2\n",
    # Finite weights of one repeated edge whose sum overflows.
    "sum.edges": "0 1 1e308\n0 1 1e308\n1 0 1\n",
    "bulk-sum.edges": "# nodes 2\n0 1 1e308\n0 1 1e308\n1 0 1\n",
    "sum.mtx": "%%MatrixMarket matrix coordinate real general\n2 2 3\n"
               "1 2 1e308\n1 2 1e308\n2 1 1\n",
    "text.mtx": "not a Matrix Market file\n",
    "wide.mtx": "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2 1.0\n",
    "neg.mtx": "%%MatrixMarket matrix coordinate real general\n3 3 3\n"
               "1 2 1.0\n2 3 -1.0\n3 1 1.0\n",
    "complex.mtx": "%%MatrixMarket matrix coordinate complex general\n3 3 3\n"
                   "1 2 1.0 0.5\n2 3 1.0 0.0\n3 1 1.0 0.0\n",
    # A byte that is not UTF-8.
    "latin1.edges": b"0 1\n1 0 \xff\n",
    "latin1.sig": b"1.0\n\xff\n0.0\n",
    # One at byte 23 979 of a 3000-entry file, past the decoder's first chunk.
    "late.mtx": b"%%MatrixMarket matrix coordinate real general\n2 2 3000\n"
                + b"1 2 1.0\n" * 2990 + b"1 2 \xff\n" + b"1 2 1.0\n" * 9,
}


def write_edge_list(a: np.ndarray, path: Path) -> None:
    """The edge list bgft.save_edge_list writes for adjacency a."""
    with open(path, "w") as fh:
        fh.write(f"# nodes {a.shape[0]}\n")
        for i, j in zip(*np.nonzero(a)):
            fh.write(f"{i} {j} {float(a[i, j])!r}\n")


def write_inputs(d: Path) -> None:
    """The graph and signal files the argvs name, all for N nodes but the
    birth-death paths."""
    rng = np.random.default_rng(7)
    a = np.roll(np.eye(N), 1, axis=1)  # directed cycle, so no node is a sink
    a += rng.random((N, N)) * (rng.random((N, N)) < 0.1)
    write_edge_list(a, d / "graph.edges")
    scipy.io.mmwrite(str(d / "graph.mtx"), scipy.sparse.coo_matrix(a.T))
    scipy.io.mmwrite(str(d / "symmetric.mtx"), scipy.sparse.coo_matrix(a + a.T),
                     symmetry="symmetric")
    scipy.io.mmwrite(str(d / "pattern.mtx"), scipy.sparse.coo_matrix(a > 0), field="pattern")
    for n, r in BIRTH_DEATH:
        bd = np.diag(np.full(n - 1, r), 1) + np.diag(np.full(n - 1, 1.0 - r), -1)
        bd[0, 0], bd[-1, -1] = 1.0 - r, r
        write_edge_list(bd, d / f"birth-death-{n}.edges")
    star = np.zeros((N, N))  # reversible, with a degenerate eigenvalue 0
    star[0, 1:] = star[1:, 0] = np.arange(1, N)
    write_edge_list(star, d / "star.edges")
    grid = np.arange(N).reshape(8, 8)  # each node's successor along both axes
    torus = np.zeros((N, N))
    for axis in (0, 1):
        torus[grid.ravel(), np.roll(grid, -1, axis=axis).ravel()] = 1.0
    write_edge_list(torus, d / "torus.edges")
    x = rng.standard_normal(N)
    (d / "x.sig").write_text("".join(f"{v!r}\n" for v in x.tolist()))
    z = x + 1j * rng.standard_normal(N)
    (d / "z.sig").write_text("".join(f"{v.real!r} {v.imag!r}\n" for v in z.tolist()))
    for name, text in BAD_FILES.items():
        (d / name).write_bytes(text.encode() if isinstance(text, str) else text)


def argvs() -> list:
    """The fixed argv list; {d} is the input directory and {out} an --out
    path of each tree's own."""
    graphs = [
        ["--graph", "undirected-cycle"],
        ["--graph", "directed-cycle"],
        ["--graph", "perturbed-cycle"],
        ["--graph", "perturbed-cycle", "--eps", "3.5", "--chord-src", "5", "--chord-dst", "40"],
        ["--graph", "file", "--input", "{d}/graph.edges"],
        ["--graph", "file", "--input", "{d}/graph.mtx"],
        ["--graph", "file", "--input", "{d}/symmetric.mtx"],
        ["--graph", "file", "--input", "{d}/pattern.mtx"],
        ["--graph", "file", "--input", "{d}/torus.edges"],
    ]
    out = []
    for g in graphs:
        for f, fmt in enumerate(FORMATS):
            signal = "{d}/" + ("x.sig", "z.sig")[f % 2]
            out += [
                ["indices", *g, "--format", fmt],
                ["filter", signal, *g, "--tau", "1.5", "--format", fmt],
                ["diffuse", signal, *g, "--t", "7", "--format", fmt],
                ["reconstruct", *g, "--k", "4", "--m", "10", "--noise", "0.01",
                 "--seed", str(f), "--format", fmt],
            ]
    out += [["table1", "--n", "16", "--eps", "5", "--k", "3", "--m", "6", "--format", fmt]
            for fmt in FORMATS]
    out += [["indices", "--graph", "file", "--input", f"{{d}}/birth-death-{n}.edges"]
            for n, _ in BIRTH_DEATH]
    out += [["indices", "--graph", "file", "--input", "{d}/star.edges", "--format", "json"]]
    out += [  # the README examples
        ["indices", "--graph", "perturbed-cycle"],
        ["filter", "{d}/x.sig", "--tau", "2", "--out", "{out}"],
        ["diffuse", "{d}/x.sig", "--t", "50", "--format", "csv"],
        ["reconstruct", "--k", "8", "--m", "20", "--seed", "3"],
        ["table1"],
    ]
    out += [  # rejections
        ["reconstruct", "--seed", "-1"],
        ["reconstruct", "--k", "30", "--m", "20"],
        ["table1", "--k", "30", "--m", "20"],
        ["reconstruct", "--noise", "nan"],
        ["indices", "--eps", "-1"],
        ["indices", "--graph", "directed-cycle", "--n", "2"],
        ["indices", "--graph", "directed-cycle", "--n", "4097"],
        ["indices", "--chord-src", "64"],
        ["indices", "--seed", "3"],
        ["indices", "--out", "{d}/missing/r.json"],
        ["filter", "{d}/x.sig", "--tau", "-1"],
        ["diffuse", "{d}/x.sig", "--t", "-1"],
        ["diffuse", "{d}/x.sig", "--t", "10001"],
        ["filter", "{d}/missing.sig"],
        ["filter", "{d}/nan.sig"],
        ["filter", "{d}/cols.sig"],
        ["diffuse", "{d}/empty.sig"],
        ["filter", "{d}/short.sig"],
        ["filter", "{d}/latin1.sig"],
        ["indices", "--graph", "file"],
        *[["indices", "--graph", "file", "--input", "{d}/" + name]
          for name in BAD_FILES if name.endswith((".edges", ".mtx"))],
        ["indices", "--graph", "file", "--input", "{d}/missing.edges"],
        ["indices", "--graph", "file", "--input", "{d}/missing.mtx"],
    ]
    return out


def run(src: Path, argv: list, d: Path, out: Path) -> tuple:
    """(exit status, stdout, stderr, --out file bytes or None) of one argv
    under the tree at src."""
    argv = [a.replace("{d}", str(d)).replace("{out}", str(out)) for a in argv]
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("BGFT_SEED", None)
    proc = subprocess.run([sys.executable, "-m", "bgft.cli", *argv], env=env, cwd=d,
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr, out.read_bytes() if out.exists() else None


def compare(old: Path, new: Path, argv_list: list, d: Path) -> list:
    """(argv, how they differ) for each argv of argv_list whose results
    differ between the two trees."""
    out = []
    for argv in argv_list:
        a, b = run(old, argv, d, d / "old.out"), run(new, argv, d, d / "new.out")
        if a != b:
            out.append((argv, how_differ(a, b)))
    return out


def how_differ(old: tuple, new: tuple) -> str:
    """The largest relative and absolute differences between the numbers of
    two results, if every part that differs is the same text but for its
    numbers, else "text differs".  A number printed at roundoff level (a
    relative error of 1e-16) differs relatively by O(1) at roundoff, so the
    absolute difference is printed too."""
    rel = abs_ = 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        if not (isinstance(a, bytes) and isinstance(b, bytes)
                and NUMBER.split(a) == NUMBER.split(b)):
            return "text differs"
        x = np.array([float(v) for v in NUMBER.findall(a)])
        y = np.array([float(v) for v in NUMBER.findall(b)])
        same = (x == y) | (np.isnan(x) & np.isnan(y))
        with np.errstate(all="ignore"):
            diff = np.abs(x - y)
            pair = (diff, diff / np.maximum(np.abs(x), np.abs(y)))
        # A nan or inf against any other value differs by inf.
        diff, rel_diff = (np.where(same, 0.0, np.nan_to_num(v, nan=np.inf, posinf=np.inf))
                          for v in pair)
        rel, abs_ = max(rel, float(np.max(rel_diff))), max(abs_, float(np.max(diff)))
    return f"numbers differ by at most {rel:.2e} relative, {abs_:.2e} absolute"


def main(args) -> int:
    if len(args) != 2:
        print("usage: python tools/compare_cli.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in args)
    argv_list = argvs()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_inputs(d)
        differ = compare(old, new, argv_list, d)
    for argv, how in differ:
        print("differs:", " ".join(argv), "--", how)
    print(f"{len(differ)} of {len(argv_list)} argvs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
