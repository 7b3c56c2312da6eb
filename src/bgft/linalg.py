"""Dense linear-algebra kernels with deterministic conventions.

Arrays are plain ``numpy.ndarray`` values.  One rule, as_array, admits them
(as_matrix, as_vector, graphs.DirectedGraph, transform.FilterSpec.custom):
complex input becomes complex128, any other input float64, with exactly the
expected number of dimensions, no empty axis and finite entries.  So real
input stays real: a real P goes into LAPACK as dgeev, not zgeev (which also
returns exact conjugate pairs), and a real signal stays float64 through P x.
Counts (t, k, m) pass through as_count: integers of any type, numpy's too,
pass and floats are refused.  Eigenvalues and eigenvectors are always
returned as complex128.  The kernels here wrap LAPACK via numpy but enforce
the conventions the rest of the toolkit relies on: deterministic eigenvalue
ordering, unit-norm phase-fixed eigenvector columns, dgeev's degenerate
clusters re-orthonormalized, and explicit detection of numerically defective
input.

eig_general is the one eigensolver and makes the one choice of solver: eigh
for an m = D^{-1} S D with S normal (a reversible chain, or a normal m with
D = I), LAPACK's general eig (dgeev) for the rest.  The basis of a
degenerate cluster is arbitrary (only its span is determined): eigh's is
orthonormal in the inner product of D^2 (pi up to scale), dgeev's after a
Euclidean QR, so the routes may return different V and cond_v for one.

Sizes up to n = 512 are supported and tested; larger inputs work but are
limited only by memory and O(n^3) runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from .errors import DefectiveMatrixError

# Eigenvalues closer than this are treated as one degenerate cluster.
CLUSTER_TOL = 1e-8
# Thresholds of dgeev's residuals beyond which the input is declared defective.
DEFECTIVE_TOL = 1e-6
# Relative singular-value cutoff used for rank decisions everywhere.
RANK_RCOND = 1e-12
# _eigh_route keeps eigh's eigenpairs only when their residual in the S frame
# is at most this multiple of n * eps * max(1, ||S||_F) (residual_bound).
# Clean reversible chains measured at most 1.13 of that unit (the 600 seeded
# families; 0.59 on 49 random reversible graphs, n = 8 to 512; 0.86 on
# undirected cycles; 0.28 on six birth-death chains); one whose edge weights
# are off by 1e-11 passes the symmetry test but measures 1023: dgeev runs.
EIGH_RESIDUAL_FACTOR = 16
# The one tolerance of detailed balance and normality.  _eigh_route admits a
# symmetrizing D when ||S - S^T||_F <= NORMAL_TOL * ||S||_F (the test that
# markov.is_reversible also makes), else D = I when ||m m^T - m^T m||_F <=
# NORMAL_TOL * ||m||_F^2.  It only admits the attempt: the residual bound
# decides.
NORMAL_TOL = 1e-10


def as_array(a, ndim: int, kind: str) -> np.ndarray:
    """a as an ndim-d array, nonempty on every axis and finite: complex128 if
    the input is complex, else float64 (no copy if it already is).  kind
    names the value in the ValueError messages."""
    arr = np.asarray(a)
    arr = arr.astype(complex if np.iscomplexobj(arr) else float, copy=False)
    if arr.ndim != ndim or 0 in arr.shape:
        raise ValueError(f"expected a nonempty {ndim}-d {kind}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{kind} entries must be finite")
    return arr


def as_matrix(a) -> np.ndarray:
    """as_array's rule for a 2-d matrix."""
    return as_array(a, 2, "matrix")


def as_vector(x, n: int | None = None) -> np.ndarray:
    """as_array's rule for a 1-d vector, of length n when given."""
    v = as_array(x, 1, "vector")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected vector of length {n}, got {v.shape[0]}")
    return v


def as_count(value, what: str, low: int, high: int | None = None, error=ValueError) -> int:
    """value as an int in low..high (unbounded above if high is None), else
    raise error.  Integers of any type, numpy's too, pass; floats do not."""
    try:
        count = index(value)
    except TypeError:
        raise error(f"expected an integer {what}, got {value!r}")
    if count < low or (high is not None and count > high):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise error(f"{what} must be {span}, got {count}")
    return count


@dataclass(frozen=True)
class EigenDecomposition:
    """Biorthogonal eigendecomposition M = V diag(eigenvalues) left_dual.

    right_vectors has unit-norm columns; left_dual is the inverse of V on
    dgeev's result, and V's adjoint in D^2 (the pi inner product on a
    reversible chain), equal to the inverse up to roundoff, on _eigh_route's.
    cond_v is the 2-norm condition number of right_vectors; residual is the
    one that kept the result: dgeev's Euclidean ||M V - V Lambda||_F, or
    _eigh_route's S-frame ||S V_S - V_S Lambda||_F; the Euclidean one of
    that V is at most cond(D) = max d / min d times it, to roundoff, and
    cond(D) ~ 5e11 at a pi spread of 3.0e23.  solver names eig_general's route:
    "eigh" (_eigh_route on a symmetrizable m) or "geev" (dgeev, or
    _eigh_route's split of a normal m).
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_dual: np.ndarray
    cond_v: float
    residual: float
    solver: str

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class LeastSquaresSolution:
    """Minimum-norm least-squares solution with rank metadata and the
    singular values (descending) of the matrix it solved with."""

    coeffs: np.ndarray
    rank: int
    rank_deficient: bool
    singular_values: np.ndarray


def eig_general(m) -> EigenDecomposition:
    """Eigendecomposition of a square matrix with deterministic output; the
    conventions are _conventional_basis's.  A real m gets two tries:

    1. _eigh_route, for an m = D^{-1} S D with S normal to roundoff: "eigh"
       when a positive diagonal D makes S symmetric (a reversible chain),
       "geev" for any other normal m.  No inverse is taken.  Francis QR
       converges slowly on a unitary Hessenberg matrix, so this matters for
       the directed cycle: 139 -> 33 ms at n = 256 and 642 -> 143 ms at
       n = 512 (min of 5, 2-core Xeon, OpenBLAS 0.3.31).
    2. LAPACK's eig (dgeev for real m) gives the eigenpairs, and U* = V^{-1}
       is an explicit inverse ("geev").  A cluster whose QR block is not
       invariant (LAPACK may return parallel vectors for a repeated
       eigenvalue: the weighted 4-cycle's double 0) takes its basis from
       the null space of M - mean(lambda) I instead, under the same check.

    Complex m, and any m that _eigh_route refuses, give dgeev's result bit
    for bit; most non-normal, non-reversible m pay only O(n^2) screens.
    Raises DefectiveMatrixError when V is numerically singular, or, on
    dgeev's result only, a residual is beyond DEFECTIVE_TOL.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("eig_general requires a square matrix")
    if not np.iscomplexobj(m):
        dec = _eigh_route(m)
        if dec is not None:
            return dec
    lam, v = np.linalg.eig(m)
    # Column-major, the layout a column-permuted copy has: the in-place sort
    # keeps it, and the QR, SVD and inverse that follow round by it.
    v = v.astype(complex, order="F")
    return _conventional_basis(m, lam.astype(complex), v, None, None, "geev")


def residual_bound(m) -> float:
    """EIGH_RESIDUAL_FACTOR * n * eps * max(1, ||m||_F): the largest residual
    at which _eigh_route keeps the eigenpairs of an S equal to m."""
    return EIGH_RESIDUAL_FACTOR * m.shape[0] * np.finfo(float).eps * max(1.0, np.linalg.norm(m))


def _eigh_route(m) -> EigenDecomposition | None:
    """eig_general's decomposition of a real m = D^{-1} S D with S normal to
    roundoff; None for any other m, or when ||S V_S - V_S Lambda||_F >
    residual_bound(S), the one check that refuses an admitted m.

    D = diag(d) from _balancing_diagonal if S is finite and ||S - S^T||_F <=
    NORMAL_TOL ||S||_F (a reversible chain; "eigh"), else D = I if
    _is_normal(m) ("geev").  eigh of (S + S^T) / 2 gives Q diag(w) Q^T; a
    symmetric S is done, V_S = Q.  Otherwise runs of w within CLUSTER_TOL
    span invariant subspaces of S, and each run's block Q_c^T S Q_c (2 x 2
    for a conjugate pair, kept exactly conjugate) is split by eig, one
    batched call per block size.  A normal block's eigenspaces are
    orthogonal, so a QR of its eigenvectors Y keeps each column in its own
    and makes V_S = Q_c Y unitary, where eig's Y need not be (the directed
    torus).  The residual is taken in the S frame, where eigh is accurate,
    from the one product S Q (a split run, with B_c its block, adds ||S Q_c -
    Q_c B_c|| and ||B_c - Y diag(mu) Y^H|| in quadrature, as Q and Y are
    orthonormal), before V = D^{-1} V_S is built, and is the one reported; U*
    is V's adjoint in D^2.  A singular V then raises: on a simple spectrum
    unit columns fix V up to phases, so dgeev's V is no better.
    """
    d = _balancing_diagonal(m)
    if d is not None:
        with np.errstate(all="ignore"):
            s = d[:, None] * m / d
            s_norm = np.linalg.norm(s)
            if not (np.isfinite(s_norm) and np.linalg.norm(s - s.T) <= NORMAL_TOL * s_norm):
                d = None
    if d is None:
        if not _is_normal(m):
            return None
        s = m
    w, q = np.linalg.eigh((s + s.T) / 2)
    if d is not None:
        lam, residual = w, np.linalg.norm(s @ q - q * w)
    else:
        sq = s @ q
        starts = np.flatnonzero(np.r_[True, np.diff(w) > CLUSTER_TOL])
        sizes = np.diff(np.r_[starts, w.size])
        lam = np.empty(w.size, complex)
        v = np.empty(q.shape, complex, order="F")
        residual = 0.0
        for k in np.unique(sizes):
            cols = starts[sizes == k, None] + np.arange(k)
            qc = q[:, cols]
            blocks = np.einsum("ick,icl->ckl", qc, sq[:, cols])
            residual = np.hypot(residual, np.linalg.norm(
                np.einsum("ick,ckl->icl", qc, blocks) - sq[:, cols]))
            if k == 1:
                lam[cols], v[:, cols] = blocks[:, 0], qc
                continue
            mu, y = np.linalg.eig(blocks)
            y = np.linalg.qr(y)[0]
            lam[cols], v[:, cols] = mu, np.einsum("ick,ckl->icl", qc, y)
            residual = np.hypot(residual, np.linalg.norm(
                blocks - (y * mu[:, None]) @ y.conj().transpose(0, 2, 1)))
    if residual > residual_bound(s):
        return None
    if d is not None:
        return _conventional_basis(m, lam, q / d[:, None], d * d, residual, "eigh")
    return _conventional_basis(m, lam, v, np.ones(m.shape[0]), residual, "geev")


def _balancing_diagonal(m) -> np.ndarray | None:
    """d with d_0 = 1 and d_j^2 = d_i^2 m_ij / m_ji along a breadth-first
    spanning tree of m's support from node 0; None if the support is not
    symmetric, a node is unreached, or d is not finite and positive.

    On a reversible chain this is detailed balance, so d^2 is pi up to scale
    whichever tree is taken (Kolmogorov's criterion; Kelly, Reversibility
    and Stochastic Networks, 1979).  It multiplies and divides only, so each
    entry has a small relative error however widely pi spreads.  One numpy
    step per BFS level, O(n^2) in all.
    """
    support = m != 0
    if not np.array_equal(support, support.T):
        return None
    d2 = np.ones(m.shape[0])
    reached = np.zeros(m.shape[0], bool)
    reached[0] = True
    frontier = np.zeros(1, int)
    with np.errstate(all="ignore"):
        while frontier.size:
            links = support[frontier] & ~reached
            new = np.flatnonzero(links.any(axis=0))
            parent = frontier[links[:, new].argmax(axis=0)]
            d2[new] = d2[parent] * m[parent, new] / m[new, parent]
            reached[new] = True
            frontier = new
        d = np.sqrt(d2)
    if not (reached.all() and np.all(np.isfinite(d) & (d > 0))):
        return None
    return d


def _is_normal(m) -> bool:
    """commutator_norm(m) <= NORMAL_TOL * ||m||_F^2 for a real m.  The
    diagonal of m m^T - m^T m, the difference of the squared row and column
    norms, is screened first in O(n^2), so most non-normal m pay no GEMM."""
    sq = m * m
    tol = NORMAL_TOL * sq.sum()
    if np.linalg.norm(sq.sum(axis=1) - sq.sum(axis=0)) > tol:
        return False
    return commutator_norm(m) <= tol


def commutator_norm(m) -> float:
    """||M M* - M* M||_F of a square array M."""
    mh = m.conj().T
    return float(np.linalg.norm(m @ mh - mh @ m))


def _conventional_basis(m, lam, v, w, residual, solver: str) -> EigenDecomposition:
    """The conventions every route of eig_general shares, applied to M's
    eigenpairs (lam, v).  _eigh_route passes the weights w (d^2, or 1 on the
    normal split) in whose inner product its v is orthonormal, U* is V's
    adjoint in w, u_k = v_k^H W / (v_k^H W v_k), and residual is the one that
    kept it.  dgeev passes None for both: u = inv(v), and its residual and
    dual residual are checked here.  v is changed in place, so that no
    second n x n copy of it is alive during the checks.

    Eigenvalues are sorted by descending real part, ties broken by ascending
    imaginary part.  On dgeev's result only, each eigenvalue joins the
    degenerate cluster of the first eigenvalue within CLUSTER_TOL of it (by
    distance, not by sort position), and each cluster's eigenvector block is
    re-orthonormalized by a Euclidean QR, so that normal matrices get cond_v
    ~= 1 whatever basis LAPACK chose for the cluster (on _eigh_route's, it
    would break orthogonality in W).  Columns have unit norm, which fixes
    cond(V); the phase is fixed so that the largest-magnitude entry is
    positive real.  The phase rule leaves cond(V) unchanged (a unit-modulus
    column scaling is unitary), but it fixes V itself, U*, and the seeded
    signals built from V.
    """
    n = m.shape[0]
    order = np.lexsort((lam.imag, -lam.real))
    lam = lam[order]
    v[:] = v[:, order]

    if w is None:
        m_norm = np.linalg.norm(m)
        # Roundoff in Re(lambda) can sort a conjugate between two copies of
        # one eigenvalue, so sort neighbours are not enough to find a
        # cluster; the label is the first eigenvalue within CLUSTER_TOL.  A
        # cluster of merely close (not equal) eigenvalues has distinct
        # eigendirections that QR would destroy, so the swap is kept only
        # when the block residual stays at roundoff level.
        def invariant(q, mu):
            return np.linalg.norm(m @ q - q * mu) <= 1e-10 * max(1.0, m_norm)

        labels = (np.abs(lam[:, None] - lam) <= CLUSTER_TOL).argmax(axis=1)
        for label in np.flatnonzero(np.bincount(labels, minlength=n) > 1):
            idx = np.flatnonzero(labels == label)
            mu = lam[idx]
            q = np.linalg.qr(v[:, idx])[0]
            if not invariant(q, mu):
                shifted = m - np.mean(mu) * np.eye(n)
                q = np.linalg.svd(shifted)[2][-idx.size:].conj().T
                if not invariant(q, mu):
                    continue
            v[:, idx] = q

    v /= np.linalg.norm(v, axis=0)
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
    v *= np.conj(pivot) / np.abs(pivot)

    sigma = np.linalg.svd(v, compute_uv=False)
    if sigma[-1] <= RANK_RCOND * sigma[0]:
        raise DefectiveMatrixError(
            f"eigenvector matrix is numerically singular: sigma_min/sigma_max = "
            f"{sigma[-1] / sigma[0]:.1e} <= RANK_RCOND = {RANK_RCOND:g}"
        )
    if w is None:
        residual = np.linalg.norm(m @ v - v * lam)
        u = np.linalg.inv(v)
        dual_residual = np.linalg.norm(u @ v - np.eye(n))
        if residual > DEFECTIVE_TOL * max(1.0, m_norm) or dual_residual > DEFECTIVE_TOL:
            raise DefectiveMatrixError(
                f"matrix is numerically non-diagonalizable (residual={residual:.3e}, "
                f"dual residual={dual_residual:.3e})")
    else:
        u = np.conj(v.T)
        u *= w
        u /= np.einsum("ki,ik->k", u, v)[:, None]
    return EigenDecomposition(
        eigenvalues=lam.astype(complex, copy=False),
        right_vectors=v.astype(complex, copy=False),
        left_dual=u.astype(complex, copy=False),
        cond_v=float(sigma[0] / sigma[-1]),
        residual=float(residual),
        solver=solver,
    )


def spectral_norm2(m) -> float:
    return float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])


def lstsq(b, y) -> LeastSquaresSolution:
    """Minimum-norm least-squares solve of b @ c ~= y.

    Computed from one SVD of b, whose singular values are returned with the
    solution.  Rank is decided by the toolkit-wide threshold sigma_i >
    RANK_RCOND * sigma_max; deficiency is flagged, never raised.
    """
    b = as_matrix(b)
    y = as_vector(y, b.shape[0])
    u, s, vh = np.linalg.svd(b, full_matrices=False)
    rank = int(np.count_nonzero(s > RANK_RCOND * s[0]))
    coeffs = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ y) / s[:rank])
    return LeastSquaresSolution(
        coeffs=coeffs,
        rank=rank,
        rank_deficient=rank < b.shape[1],
        singular_values=s,
    )
