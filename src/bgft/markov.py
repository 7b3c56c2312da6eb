"""Random-walk operators: P and I - P, stationary distribution, reversibility
machinery, and the asymmetry / non-normality indices.  The eigensolver
decision, an eigh-built route for a reversible or normal P or LAPACK's
general eig, is linalg.eig_general's."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import NotIrreducibleError, SinkNodeError
from .graphs import DirectedGraph, out_degrees

# apply uses the row view of a P with at most n^2 / ROW_VIEW_DENSITY nonzeros
# (2 per row at n = 64, 8 at n = 256, 16 at n = 512), the dense matvec
# otherwise.  Measured by tools/matvec_crossover.py: at n >= 256 the view
# wins up to 4 nonzeros per row, and at n >= 512 up to 16; it loses at 64 per
# row, and at n = 64 at any density, there by about 1 us per matvec.
ROW_VIEW_DENSITY = 32
# stationary eliminates GTH_PANEL states per panel by rank-one updates, then
# the states below by one GEMM of nonnegative terms.  Random dense P, min of 7
# runs, 2-core Xeon, OpenBLAS 0.3.31: 5.4 ms at n = 256 against 15 ms one state
# at a time (8.8 at 8, 8.0 at 64), 20 against 110 ms at n = 512; agree to 1e-15.
GTH_PANEL = 16


@dataclass(frozen=True)
class TransitionOperator:
    """Row-stochastic P; its diffusion generator I - P is derived from it.

    P is stored dense.  apply(x) is the one P x of the library: a sparse P
    (at most n^2 / ROW_VIEW_DENSITY nonzeros) is applied through a row view
    of its nonzeros, built with numpy on first use and cached, so iterated
    diffusion costs O(t nnz); a denser P takes the dense matvec and never
    builds the view, and never casts P to complex: a complex x is applied
    as P Re(x) + i P Im(x) (linalg._product).  The paths agree up to
    summation order.

    eig is the one eigendecomposition of P, linalg.eig_general's, computed
    on first use and read by the biorthogonal basis (transform.decompose);
    stationary() never reads it.
    """

    p: np.ndarray

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def l_rw(self) -> np.ndarray:
        return np.eye(self.n) - self.p

    @cached_property
    def eig(self) -> linalg.EigenDecomposition:
        return linalg.eig_general(self.p)

    @cached_property
    def _row_view(self) -> tuple | None:
        """row_view(P) if P has at most n^2 / ROW_VIEW_DENSITY nonzeros, else
        None.  np.count_nonzero allocates nothing, so a dense P builds no
        n^2-sized temporaries here."""
        if np.count_nonzero(self.p) * ROW_VIEW_DENSITY > self.p.size:
            return None
        return row_view(self.p)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P x for a vector x of length n, admitted as linalg.as_vector
        admits it: a real x gives float64, a complex x complex128."""
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {x.shape}")
        view = self._row_view
        if view is None:
            return linalg._product(self.p, x)
        starts, cols, values = view
        return np.add.reduceat(values * x[cols], starts)


def row_view(p: np.ndarray) -> tuple:
    """(starts, cols, values) of the square matrix p: its stored entries in
    row-major order, and the offset of each row's first one, so that
    np.add.reduceat(values * x[cols], starts) is p @ x.  A row of zeros
    stores one 0 at column 0, because reduceat needs an entry in every row."""
    stored = p != 0
    stored[~stored.any(axis=1), 0] = True
    rows, cols = np.nonzero(stored)
    return np.searchsorted(rows, np.arange(p.shape[0])), cols, p[rows, cols]


@dataclass(frozen=True)
class StationaryDistribution:
    """Positive probability vector pi with pi^T P = pi^T."""

    pi: np.ndarray


def transition(g: DirectedGraph) -> TransitionOperator:
    """P = D_out^{-1} A; an out-degree that is 0 or overflows is refused."""
    with np.errstate(over="ignore"):
        d = out_degrees(g)
    sinks = np.nonzero(d == 0)[0]
    if sinks.size:
        raise SinkNodeError(int(sinks[0]))
    if np.isinf(d).any():
        raise ValueError(f"out-degree of node {np.argmax(np.isinf(d))} overflows float64")
    p = g.adjacency / d[:, None]
    return TransitionOperator(p=p)


def asymmetry_index(m) -> float:
    """linalg.asymmetry: ||M - M^T||_F / ||M||_F, with 0 for the zero
    matrix and nan when ||M||_F overflows."""
    m = linalg.as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("asymmetry_index requires a square matrix")
    return linalg.asymmetry(m)


def departure_from_normality(m) -> float:
    """||M M* - M* M||_F / ||M||_F^2, with 0 for the zero matrix."""
    m = linalg.as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("departure_from_normality requires a square matrix")
    den = np.linalg.norm(m) ** 2
    if den == 0:
        return 0.0
    return float(linalg.commutator_norm(m) / den)


def stationary(op: TransitionOperator) -> StationaryDistribution:
    """pi of P by Grassmann-Taksar-Heyman elimination (Oper. Res. 33, 1985):
    the states are censored out last first, then pi is built back from pi_0.
    No step subtracts, so each pi_i has a small relative error however widely
    pi spreads.  Works for periodic chains; reads P only, never op.eig.

    NotIrreducibleError if a censored state cannot reach the states below
    it (a zero censored row sum, decided exactly) or an entry of pi is zero
    or below float64's normal range, where it has lost its accuracy.
    """
    a, n = op.p.copy(), op.n
    exit_rate = np.empty(n)
    # A zero exit rate, or a pi spread beyond float64's range, leaves an inf
    # or nan in x; x_0 stays finite, so pi_0 is then 0 or nan and refused.
    with np.errstate(all="ignore"):
        for hi in range(n, 0, -GTH_PANEL):
            lo = max(hi - GTH_PANEL, 0)
            for m in range(hi - 1, max(lo - 1, 0), -1):  # state 0 is kept
                exit_rate[m] = a[m, :m].sum()
                a[m, :m] /= exit_rate[m]
                a[lo:m, :m] += np.outer(a[lo:m, m], a[m, :m])
                a[:lo, lo:m] += np.outer(a[:lo, m], a[m, lo:m])
            a[:lo, :lo] += a[:lo, lo:hi] @ a[lo:hi, :lo]
        x = np.ones(n)  # x_0 = 1; each later x_m is overwritten
        for m in range(1, n):
            x[m] = x[:m] @ a[:m, m] / exit_rate[m]
            if x[m] > 1.0:  # an exact power-of-two rescale keeps x <= 1
                x[: m + 1] = np.ldexp(x[: m + 1], -np.frexp(x[m])[1])
        pi = x / x.sum()
    if not np.all(pi >= np.finfo(float).tiny):
        raise NotIrreducibleError(
            "stationary distribution has a zero entry: the chain is not "
            "irreducible, or pi spreads beyond float64's range")
    return StationaryDistribution(pi=pi)


def is_reversible(
    op: TransitionOperator,
    dist: StationaryDistribution,
    tol: float = linalg.NORMAL_TOL,
) -> bool:
    """Detailed-balance test: S = symmetrize(op, dist) is symmetric,
    linalg.asymmetry(S) <= tol for a finite tol >= 0, by default
    linalg.NORMAL_TOL, the one eig_general admits eigh by.  S - S^T is Pi P
    - P^T Pi scaled by Pi^{-1/2} on each side, so, unlike a tolerance
    relative to ||Pi P||, this sees pi entries at roundoff level.
    ValueError for a bad tol or a dist.pi that is not op.n finite positive
    entries."""
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"reversibility test needs a finite tol >= 0, got {tol}")
    s = symmetrize(op, dist)
    return linalg.asymmetry(s) <= tol


def symmetrize(op: TransitionOperator, dist: StationaryDistribution) -> np.ndarray:
    """Similarity transform S = Pi^{1/2} P Pi^{-1/2}; symmetric iff reversible.
    ValueError for a dist.pi that is not op.n finite positive entries."""
    pi = linalg.as_vector(dist.pi, op.n)
    if not np.all(pi > 0):
        raise ValueError("stationary distribution entries must be positive")
    s = np.sqrt(pi)
    return (s[:, None] * op.p) / s[None, :]


def pi_inner(x, y, dist: StationaryDistribution) -> complex:
    """<x, y>_pi = sum_i conj(x_i) pi_i y_i.

    Conjugation on the first argument (the signals here are complex, and the
    norm must be nonnegative).
    """
    n = dist.pi.shape[0]
    x = linalg.as_vector(x, n)
    y = linalg.as_vector(y, n)
    return complex(np.sum(np.conj(x) * dist.pi * y))


def pi_norm(x, dist: StationaryDistribution) -> float:
    return float(np.sqrt(pi_inner(x, x, dist).real))
