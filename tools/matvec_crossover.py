"""Time one P x on the dense matrix and on TransitionOperator's row view.

    python tools/matvec_crossover.py

For n in {64, 256, 512, 1024} and k in {1, 2, 4, 16, 64, 128} nonzeros per
row, it builds a seeded row-stochastic P with k nonzeros in each row (the
directed cycle's edge plus k - 1 random ones) and prints the microseconds
per matvec of TransitionOperator.apply on each of its paths, the dense
`P @ x` and the row view (markov.row_view), each the best of REPEAT
timeit runs of NUMBER calls, with their ratio and the path that
markov.ROW_VIEW_DENSITY picks for that P.  Run it from the root of a
checkout; it imports bgft from src/.
"""

from __future__ import annotations

import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bgft import markov  # noqa: E402

SIZES = (64, 256, 512, 1024)
PER_ROW = (1, 2, 4, 16, 64, 128)
REPEAT, NUMBER = 5, 200


def operator(n: int, k: int, rng) -> markov.TransitionOperator:
    """Row-stochastic P with k nonzeros per row, i -> i+1 among them."""
    a = np.zeros((n, n))
    for i in range(n):
        others = rng.choice(np.delete(np.arange(n), (i + 1) % n), size=k - 1, replace=False)
        a[i, (i + 1) % n] = 1.0
        a[i, others] = rng.random(k - 1) + 0.1
    return markov.TransitionOperator(p=a / a.sum(axis=1)[:, None])


def best_us(fn) -> float:
    """Best of REPEAT timeit runs, in microseconds per call."""
    return min(timeit.repeat(fn, number=NUMBER, repeat=REPEAT)) / NUMBER * 1e6


def main() -> int:
    rng = np.random.default_rng(0)
    print(f"numpy {np.__version__}, ROW_VIEW_DENSITY = {markov.ROW_VIEW_DENSITY}")
    print(f"{'n':>5} {'nnz/row':>7} {'dense us':>9} {'view us':>8} {'view/dense':>10}  apply uses")
    for n in SIZES:
        for k in PER_ROW:
            if k >= n:
                continue
            op = operator(n, k, rng)
            uses = "dense" if op._row_view is None else "view"
            x = rng.standard_normal(n)
            # One operator on each path, whatever the density rule says.
            dense_op, view_op = (markov.TransitionOperator(p=op.p) for _ in range(2))
            dense_op.__dict__["_row_view"] = None
            view_op.__dict__["_row_view"] = markov.row_view(op.p)
            dense = best_us(lambda: dense_op.apply(x))
            view = best_us(lambda: view_op.apply(x))
            print(f"{n:>5} {k:>7} {dense:>9.1f} {view:>8.1f} {view / dense:>10.2f}  {uses}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
