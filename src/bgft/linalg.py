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
ordering, unit-norm phase-fixed eigenvector columns, re-orthonormalized
degenerate clusters, and explicit detection of numerically defective input.

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
# Residual thresholds beyond which the input is declared defective.
DEFECTIVE_TOL = 1e-6
# Relative singular-value cutoff used for rank decisions everywhere.
RANK_RCOND = 1e-12


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

    right_vectors has unit-norm columns; left_dual is its exact inverse, so
    left_dual @ right_vectors = I up to roundoff.  cond_v is the 2-norm
    condition number of right_vectors; residual is ||M V - V Lambda||_F.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_dual: np.ndarray
    cond_v: float
    residual: float

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
    """General (non-Hermitian) eigendecomposition with deterministic output.

    Eigenvalues are sorted by descending real part, ties broken by ascending
    imaginary part.  Each eigenvalue joins the degenerate cluster of the
    first eigenvalue within CLUSTER_TOL of it (by distance, not by sort
    position); each cluster's eigenvector block is re-orthonormalized so
    that normal matrices get cond_v ~= 1 regardless of LAPACK's arbitrary
    basis choice.  Columns have unit norm, which fixes cond(V); the phase is
    fixed so that the largest-magnitude entry is positive real.  The phase
    rule leaves cond(V) unchanged (a unit-modulus column scaling is
    unitary), but it fixes V itself, U*, and the seeded signals built from V.

    Raises DefectiveMatrixError when the eigenvector basis is numerically
    singular (residual or dual-basis check beyond DEFECTIVE_TOL).
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("eig_general requires a square matrix")
    n = m.shape[0]

    lam, v = np.linalg.eig(m)
    lam = lam.astype(complex)
    v = v.astype(complex)
    order = np.lexsort((lam.imag, -lam.real))
    lam = lam[order]
    v = v[:, order]

    # Roundoff in Re(lambda) can sort a conjugate between two copies of one
    # eigenvalue (the directed torus), so sort neighbours are not enough to
    # find a cluster; the label is the first eigenvalue within CLUSTER_TOL.
    # A cluster of merely close (not equal) eigenvalues has distinct
    # eigendirections that QR would destroy, so the swap is kept only when
    # the block residual stays at roundoff level.  LAPACK may also return
    # parallel vectors for a repeated eigenvalue (the 4-cycle's double 0);
    # their QR fails the check, and the cluster's basis is then taken from
    # the null space of M - mean(lambda) I, under the same check.
    m_norm = np.linalg.norm(m)

    def invariant(q, mu):
        block_residual = np.linalg.norm(m @ q - q * mu)
        return block_residual <= 1e-10 * max(1.0, m_norm)

    labels = (np.abs(lam[:, None] - lam) <= CLUSTER_TOL).argmax(axis=1)
    for label in np.flatnonzero(np.bincount(labels, minlength=n) > 1):
        idx = np.flatnonzero(labels == label)
        mu = lam[idx]
        q, _ = np.linalg.qr(v[:, idx])
        if not invariant(q, mu):
            shifted = m - np.mean(mu) * np.eye(n)
            q = np.linalg.svd(shifted)[2][-idx.size:].conj().T
        if invariant(q, mu):
            v[:, idx] = q

    v = v / np.linalg.norm(v, axis=0)
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
    v *= np.conj(pivot) / np.abs(pivot)

    sigma = np.linalg.svd(v, compute_uv=False)
    if sigma[-1] <= RANK_RCOND * sigma[0]:
        raise DefectiveMatrixError(
            "eigenvector matrix is numerically singular; "
            "matrix appears defective"
        )
    u = np.linalg.inv(v)
    residual = float(np.linalg.norm(m @ v - v * lam))
    dual_residual = float(np.linalg.norm(u @ v - np.eye(n)))
    if residual > DEFECTIVE_TOL * max(1.0, m_norm) or dual_residual > DEFECTIVE_TOL:
        raise DefectiveMatrixError(
            f"matrix is numerically non-diagonalizable "
            f"(residual={residual:.3e}, dual residual={dual_residual:.3e})"
        )
    cond_v = float(sigma[0] / sigma[-1])
    return EigenDecomposition(
        eigenvalues=lam,
        right_vectors=v,
        left_dual=u,
        cond_v=cond_v,
        residual=residual,
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
