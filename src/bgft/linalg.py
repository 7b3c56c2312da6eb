"""Dense linear-algebra kernels with deterministic conventions.

Arrays are plain ``numpy.ndarray`` values.  One rule, as_array, admits them
(as_matrix, as_vector, graphs.DirectedGraph, transform.FilterSpec.custom):
complex input becomes complex128, any other input float64, with exactly the
expected number of dimensions, no empty axis and finite entries.  So real
input stays real: a real signal stays float64 through P x.  Counts (t, k,
m) pass through as_count: integers of any type, numpy's too, pass and
floats are refused.  eig_general takes real matrices only (a transition
matrix is real; graphs.DirectedGraph refuses complex weights), so P goes
into LAPACK as dgeev, which returns exact conjugate pairs.  Eigenvalues are
always complex128; the eigenvectors are held in EigenDecomposition's real
frames and assembled as complex128 only on request.  The kernels here wrap
LAPACK via numpy but enforce the conventions the rest of the toolkit relies on:
deterministic eigenvalue ordering, unit-norm phase-fixed eigenvector
columns, dgeev's degenerate clusters re-orthonormalized, and explicit
detection of numerically defective input.

eig_general is the one eigensolver and makes the one choice of solver: eigh
for an m = D^{-1} S D with S normal (a reversible chain, or a normal m with
D = I), LAPACK's general eig (dgeev) for the rest.  Each route builds its
own result and shares only the sort (_sorted) and the conventions
(_conventions): _eigh_route's U* is V's adjoint in D^2, and only _dgeev
repairs clusters, takes an inverse and checks it.  The basis of a
degenerate cluster is arbitrary (only its span is determined): eigh's is
orthonormal in the inner product of D^2 (pi up to scale), dgeev's after a
Euclidean QR, so the routes may return different V and cond_v for one.
asymmetry is the one ||M - M^T||_F / ||M||_F of the toolkit: eigh's
admission and markov's index and reversibility test all read it.

Sizes up to n = 512 are supported and tested; larger inputs work but are
limited only by memory and O(n^3) runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index

import numpy as np

from .errors import DefectiveMatrixError

# Eigenvalues closer than this are treated as one degenerate cluster.
CLUSTER_TOL = 1e-8
# Thresholds of dgeev's residuals beyond which the input is declared defective.
DEFECTIVE_TOL = 1e-6
# Relative singular-value cutoff used for rank decisions everywhere.
RANK_RCOND = 1e-12
# A column's phase pivot is its first entry of modulus at least (1 - PHASE_TOL)
# times the column's largest, so roundoff cannot pick it among equal moduli.
PHASE_TOL = 1e-8
# _eigh_route keeps eigh's eigenpairs only when their residual in the S frame
# is at most this multiple of n * eps * max(1, ||S||_F) (residual_bound).
# Clean reversible chains measured at most 1.13 of that unit (the 600 seeded
# families; 0.59 on 49 random reversible graphs, n = 8 to 512; 0.86 on
# undirected cycles; 0.28 on six birth-death chains); one whose edge weights
# are off by 1e-11 passes the symmetry test but measures 1023: dgeev runs.
EIGH_RESIDUAL_FACTOR = 16
# The one tolerance of detailed balance and normality.  _eigh_route admits a
# symmetrizing D when asymmetry(S) <= NORMAL_TOL (markov.is_reversible's
# default test), else D = I when ||m m^T - m^T m||_F <= NORMAL_TOL *
# ||m||_F^2.  It only admits the attempt: the residual bound decides.
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
    """Biorthogonal eigendecomposition M = V diag(eigenvalues) U* of a real
    M, stored as two real frames: V = right_frame T^H and U* = T dual_frame.

    M's spectrum is closed under conjugation, and the eigenvectors v,
    conj(v) of a conjugate pair span one real 2-plane.  T is unitary and
    block diagonal, one 2 x 2 block per pair (Golub and Van Loan, Matrix
    Computations, 7.4), so the frames are real: a real eigenvalue's column
    of right_frame is v itself, and pairs[:, j] = (a, b), with lambda_b =
    conj(lambda_a) and Im lambda_a > 0, holds sqrt(2) Re v_a at a and
    sqrt(2) Im v_a at b; v_b = conj(v_a).  So dual_frame is the inverse of
    right_frame, they have V's and U*'s singular values, and each takes
    half a complex array's memory.  The sort (_sorted) and the unit norms
    and phases (_conventions) are V's, the same on both routes.

    right_vectors and left_dual assemble complex128 V and U* on every
    access, and are not kept; library code reads the frames through
    left_apply (U* x), right_apply (V c) and right_columns (V[:, idx]).

    Each route builds its own result.  V has unit-norm columns; U* is the
    inverse of V on _dgeev's result, and V's adjoint in D^2 (the pi inner
    product on a reversible chain), equal to the inverse up to roundoff, on
    _eigh_route's.  cond_v is the 2-norm
    condition number of V; residual is the one that kept the result:
    dgeev's Euclidean ||M V - V Lambda||_F, or _eigh_route's S-frame
    ||S V_S - V_S Lambda||_F (on the normal split, that of the frame before
    its correction); the Euclidean one of that V is at most cond(D)
    = max d / min d times it, to roundoff, and cond(D) ~ 5e11 at a pi spread
    of 3.0e23.  solver names eig_general's route: "eigh" (_eigh_route on a
    symmetrizable m) or "geev" (dgeev, or _eigh_route's split of a normal m).
    """

    eigenvalues: np.ndarray
    right_frame: np.ndarray
    dual_frame: np.ndarray
    pairs: np.ndarray
    cond_v: float
    residual: float
    solver: str

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def right_vectors(self) -> np.ndarray:
        """V, assembled from right_frame on every access."""
        return self.right_columns(np.arange(self.n))

    @property
    def left_dual(self) -> np.ndarray:
        """U*, assembled from dual_frame on every access."""
        return _from_frame(self.dual_frame.T, self._t, np.arange(self.n), -1).T

    def right_columns(self, idx) -> np.ndarray:
        """V[:, idx] in O(n |idx|)."""
        return _from_frame(self.right_frame, self._t, np.asarray(idx, dtype=int), 1)

    def left_apply(self, x) -> np.ndarray:
        """U* x = T (dual_frame x) for a vector x, complex128: one real GEMV
        for a real x on a real frame."""
        re, im, re_coef, _, dual_coef = self._t[:5]
        y = _product(self.dual_frame, x)
        return y[re] * re_coef + y[im] * dual_coef

    def right_apply(self, c) -> np.ndarray:
        """V c = right_frame (T^H c) for a vector c, complex128.  T^H c is
        real, and the product one real GEMV, when c is real on the real
        eigenvalues and c_b = conj(c_a) on each pair, as U* x is for a real
        x."""
        partner, p, q = self._t[5:]
        g = c * p + c[partner] * q
        if not g.imag.any():
            g = g.real
        return _product(self.right_frame, g).astype(complex, copy=False)

    @cached_property
    def _t(self) -> tuple:
        """T as O(n) gathers, from pairs: (re, im, re_coef, im_coef,
        dual_coef, partner, p, q).  Column k of F T^H is re_coef_k f_{re_k} +
        i im_coef_k f_{im_k}, row k of T G is re_coef_k g_{re_k} + dual_coef_k
        g_{im_k} with dual_coef = -i im_coef, and (T^H c)_k = p_k c_k + q_k
        c_{partner_k}.  A lone k has re = im = partner = k, coefficients 1,
        0, 0, 1 and 0; a pair (a, b) has re = a and im = b for both, re_coef
        = 1/sqrt(2), im_coef = 1/sqrt(2) at a and -1/sqrt(2) at b, p =
        1/sqrt(2) at a and -i/sqrt(2) at b, q = 1/sqrt(2) at a and i/sqrt(2)
        at b."""
        partner, role = _pair_roles(self.n, self.pairs)
        k, h = np.arange(self.n), np.sqrt(0.5)
        re, im = np.where(role < 0, partner, k), np.where(role > 0, partner, k)
        re_coef, im_coef = np.where(role == 0, 1.0, h), role * h
        p = np.where(role < 0, -1j * h, re_coef)
        q = np.where(role < 0, 1j * h, im_coef)
        return re, im, re_coef, im_coef, -1j * im_coef, partner, p, q


def _product(a, x) -> np.ndarray:
    """a @ x for a real a, a complex x taken as its real and imaginary parts,
    so that a is never cast to complex."""
    if np.iscomplexobj(x):
        return a @ x.real + 1j * (a @ x.imag)
    return a @ x


def frame_norms(f, pairs) -> np.ndarray:
    """The column 2-norms of F T^H (EigenDecomposition's T): a lone column's
    own, and sqrt((||f_a||^2 + ||f_b||^2) / 2) for both columns of a pair."""
    norms = np.linalg.norm(f, axis=0)
    a, b = pairs
    norms[a] = norms[b] = np.hypot(norms[a], norms[b]) * np.sqrt(0.5)
    return norms


def _pair_roles(n, pairs) -> tuple:
    """(partner, role) of n frame columns: partner[k] is the other column of
    k's pair (k itself for a lone column); role[k] is 1 at pairs[0], -1 at
    pairs[1] and 0 elsewhere."""
    partner, role = np.arange(n), np.zeros(n, int)
    partner[pairs[0]], partner[pairs[1]] = pairs[1], pairs[0]
    role[pairs[0]], role[pairs[1]] = 1, -1
    return partner, role


def _from_frame(f, t, idx, sign) -> np.ndarray:
    """Columns idx of F T^H (sign 1) or of F T^T (sign -1) as complex128, t
    being EigenDecomposition._t: (f_a + sign i f_b) / sqrt(2) at a pair's a,
    (f_a - sign i f_b) / sqrt(2) at its b, and f_k at a lone column k."""
    re, im, re_coef, im_coef = t[:4]
    out = np.empty((f.shape[0], idx.size), complex, order="F")
    np.multiply(f[:, re[idx]], re_coef[idx], out=out.real)
    np.multiply(f[:, im[idx]], sign * im_coef[idx], out=out.imag)
    return out


def _real_frame(lam, v) -> np.ndarray:
    """The real frame, before normalization, of the eigenvectors v (..., n, k)
    of a real matrix with eigenvalues lam (..., k), in LAPACK's order: each
    conjugate pair adjacent, Im > 0 first.  A pair's columns hold Re and Im
    of its first vector; a real eigenvalue's column is its vector."""
    f = np.array(v.real, order="F")
    if np.iscomplexobj(v):
        np.copyto(f[..., 1:], v.imag[..., :-1], where=(lam.imag < 0)[..., None, 1:])
    return f


@dataclass(frozen=True)
class LeastSquaresSolution:
    """Minimum-norm least-squares solution with rank metadata and the
    singular values (descending) of the matrix it solved with."""

    coeffs: np.ndarray
    rank: int
    rank_deficient: bool
    singular_values: np.ndarray


def eig_general(m) -> EigenDecomposition:
    """Eigendecomposition of a real square matrix with deterministic output:
    both routes sort it into the mode order (_sorted) and apply the same
    conventions (_conventions).  m gets two tries:

    1. _eigh_route, for an m = D^{-1} S D with S normal to roundoff: "eigh"
       when a positive diagonal D makes S symmetric (a reversible chain),
       "geev" for any other normal m.  No inverse is taken.  Francis QR
       converges slowly on a unitary Hessenberg matrix, so this matters for
       the directed cycle: 139 -> 33 ms at n = 256 and 642 -> 143 ms at
       n = 512 (min of 5, 2-core Xeon, OpenBLAS 0.3.31).
    2. _dgeev: LAPACK's dgeev gives the eigenpairs, _repair_clusters
       re-orthonormalizes its degenerate clusters, and U* = V^{-1} is an
       explicit inverse ("geev").

    Any m that _eigh_route refuses gives dgeev's result bit for bit; most
    non-normal, non-reversible m pay only O(n^2) screens.  Raises
    ValueError for a complex m, before any LAPACK call, and
    DefectiveMatrixError when V is numerically singular, or, on dgeev's
    result only, a residual is beyond DEFECTIVE_TOL.
    """
    m = as_matrix(m)
    if np.iscomplexobj(m):
        raise ValueError("eig_general requires a real matrix")
    if m.shape[0] != m.shape[1]:
        raise ValueError("eig_general requires a square matrix")
    return _eigh_route(m) or _dgeev(m)


def _dgeev(m) -> EigenDecomposition:
    """LAPACK's eig of a real m: eig_general's result for any m that
    _eigh_route refuses.  The complex eigenvectors are dropped as soon as
    their real frame is built; the frame is sorted, its degenerate clusters
    repaired (_repair_clusters) and the conventions applied, each in place,
    so that no second n x n copy of it is alive during the checks.  U* =
    V^{-1} is an explicit inverse, and DefectiveMatrixError is raised when
    the residual ||M V - V Lambda||_F exceeds DEFECTIVE_TOL * max(1,
    ||M||_F) or the dual residual ||U* V - I||_F exceeds DEFECTIVE_TOL.  T
    is unitary, so both are taken on the frames, in real arithmetic: ||M V
    - V Lambda||_F = ||_residual(M f, f, ...)||_F and ||U* V - I||_F = ||U_f
    f - I||_F."""
    lam, v = np.linalg.eig(m)
    upper = np.flatnonzero(lam.imag > 0)
    f, pairs = _real_frame(lam, v), np.stack([upper, upper + 1])
    del v
    lam, pairs = _sorted(lam.astype(complex), f, pairs)
    _repair_clusters(m, lam, f, pairs)
    cond_v = _conventions(f, pairs)
    residual = np.linalg.norm(_residual(m @ f, f, lam, pairs))
    u = np.linalg.inv(f)
    e = u @ f
    e[np.diag_indices(m.shape[0])] -= 1.0
    dual_residual = np.linalg.norm(e)
    del e
    if residual > DEFECTIVE_TOL * max(1.0, np.linalg.norm(m)) or dual_residual > DEFECTIVE_TOL:
        raise DefectiveMatrixError(
            f"matrix is numerically non-diagonalizable (residual={residual:.3e}, "
            f"dual residual={dual_residual:.3e})")
    return EigenDecomposition(lam, f, u, pairs, cond_v, float(residual), "geev")


def _residual(mf, f, lam, pairs) -> np.ndarray:
    """M F - F Lambda_f, written over mf = M F, for a real frame f of M's
    eigenvectors (EigenDecomposition's), their eigenvalues lam and their
    pairs: Lambda_f's block is Re lambda at a lone column and [[x, y], [-y,
    x]] at a pair (a, b) with lambda_a = x + iy.  Its Frobenius norm is ||M
    V - V Lambda||_F, as T is unitary; with no pairs it is M F - F diag(lam)."""
    mf -= f * lam.real
    a, b = pairs
    if a.size:
        mf[:, a] += f[:, b] * lam.imag[a]
        mf[:, b] -= f[:, a] * lam.imag[a]
    return mf


def residual_bound(m) -> float:
    """EIGH_RESIDUAL_FACTOR * n * eps * max(1, ||m||_F): the largest residual
    at which _eigh_route keeps the eigenpairs of an S equal to m."""
    return EIGH_RESIDUAL_FACTOR * m.shape[0] * np.finfo(float).eps * max(1.0, np.linalg.norm(m))


def _eigh_route(m) -> EigenDecomposition | None:
    """eig_general's decomposition of a real m = D^{-1} S D with S normal to
    roundoff; None for any other m, or when ||S V_S - V_S Lambda||_F >
    residual_bound(S), the one check that refuses an admitted m.

    D = diag(d) from _balancing_diagonal if asymmetry(S) <= NORMAL_TOL (a
    reversible chain; "eigh"), else D = I if _is_normal(m) ("geev").  A
    symmetric S takes V_S = Q from eigh's Q diag(w) Q^T of (S + S^T) / 2; a
    normal one, _split's frame.  The residual is taken in the S frame, where
    eigh is accurate, before V = D^{-1} V_S is built, and is the one
    reported.  V is orthonormal in the weights d^2 (1 on the normal split),
    so after the sort and the conventions U* is V's adjoint in them: no
    inverse is taken, and no cluster is repaired, which would break that
    orthogonality.  A singular V then raises: on a simple spectrum unit
    columns fix V up to phases, so dgeev's V is no better.
    """
    d = _balancing_diagonal(m)
    if d is not None:
        with np.errstate(all="ignore"):
            s = d[:, None] * m / d
            if not asymmetry(s) <= NORMAL_TOL:
                d = None
    if d is not None:
        w, q = np.linalg.eigh((s + s.T) / 2)
        lam, pairs = w.astype(complex), np.zeros((2, 0), int)
        residual = np.linalg.norm(_residual(s @ q, q, w, pairs))
        f, weights, solver = q / d[:, None], d * d, "eigh"
        del q
    elif _is_normal(m):
        s = m
        lam, f, pairs, residual = _split(s)
        weights, solver = np.ones(m.shape[0]), "geev"
    else:
        return None
    if residual > residual_bound(s):
        return None
    lam, pairs = _sorted(lam, f, pairs)
    cond_v = _conventions(f, pairs)
    u = f.T * weights
    u /= np.einsum("ki,ik->k", u, f)[:, None]
    return EigenDecomposition(lam, f, u, pairs, cond_v, float(residual), solver)


def _split(s) -> tuple:
    """(lam, f, pairs, residual) of a normal, non-symmetric s: f is the
    orthonormal real frame (EigenDecomposition's) of s's eigenvectors, each
    pair's columns adjacent, and residual is ||R||_F, R = s f - f Lambda_f
    (_residual), of f before the correction below.

    eigh of (s + s^T) / 2 gives Q diag(w) Q^T.  Runs of w within CLUSTER_TOL
    span invariant subspaces of s, and each run's block B_c = Q_c^T s Q_c
    (1 x 1 alone, 2 x 2 for a conjugate pair) is split by eig, one batched
    call per block size above 1 (a 1 x 1 block is its own eigenvalue); every
    size then takes the same QR and products.  A normal block's eigenspaces
    are orthogonal, so a QR of the real frame Z of its eigenvectors, each
    column's sign kept, keeps each column in its own and makes f = Q_c Z
    orthonormal, where eig's vectors need not be (the directed torus, or a
    pair whose conjugates nearly coincide).  A QR of eig's complex vectors
    would not do: the 4 x 4 torus's fourfold 0 comes back in part as a pair
    +-3e-17 i whose vector v has |v^T v| = 0.61, so Re v and Im v are not an
    orthonormal pair, and cond_v would be 2.0 (2.8 at 12 x 12).  f and s f
    = (s Q_c) Z are written over Q and s Q, so s Q is the one product with
    s, and R is written over s f.

    eigh resolves the eigenvectors of (s + s^T) / 2 only to eps over its
    gaps, which close quadratically where Re lambda is extreme; s's own
    gaps do not.  So f is then corrected to first order with them: f + f Y,
    where Y solves Lambda_f Y - Y Lambda_f = -f^T R off s's clusters (|gap|
    > CLUSTER_TOL; there f^T R is f^T s f, as f^T f = I), and only its skew
    part is kept, so that f stays orthonormal to second order.  On the
    directed cycle V's largest error was 3.5e-15 at n = 16 (at lambda = 1)
    and 3.2e-14 at n = 512, and is 3.2e-16 and 3.1e-15 after the
    correction.  Lambda_f's blocks are mu at a lone column and J(mu) = [[Re
    mu, -Im mu], [Im mu, Re mu]] at a pair (a, b), mu = conj lambda_a, so Y
    is solved block by block as complex divisions by the gaps: a lone row's
    1 x 2 block as r_a - i r_b, a pair's 2 x 1 block as c_a + i c_b, and a
    2 x 2 block J(x_1) + J(x_2) K, K = diag(1, -1), as x_1 and x_2, divided
    by mu_i - mu_k and mu_i - conj mu_k."""
    w, f = np.linalg.eigh((s + s.T) / 2)
    f = np.asfortranarray(f)  # so that gathers and scatters of columns are contiguous
    sf = np.matmul(s, f, order="F")
    starts = np.flatnonzero(np.r_[True, np.diff(w) > CLUSTER_TOL])
    sizes = np.diff(np.r_[starts, w.size])
    lam = np.empty(w.size, complex)
    upper = []
    for k in np.flatnonzero(np.bincount(sizes)):  # np.unique would import numpy.ma
        cols = starts[sizes == k, None] + np.arange(k)
        blocks = np.einsum("ick,icl->ckl", f[:, cols], sf[:, cols])
        # A 1 x 1 block is its own eigenvalue, with eigenvector 1: no eig call.
        mu, y = np.linalg.eig(blocks) if k > 1 else (blocks[:, 0], np.ones_like(blocks))
        z, r = np.linalg.qr(_real_frame(mu, y))
        z *= np.where(np.diagonal(r, axis1=1, axis2=2) < 0, -1.0, 1.0)[:, None, :]
        lam[cols] = mu
        # Q_c Z and (s Q)_c Z, one batched product over the runs each.
        f[:, cols] = (f[:, cols].transpose(1, 0, 2) @ z).transpose(1, 0, 2)
        sf[:, cols] = (sf[:, cols].transpose(1, 0, 2) @ z).transpose(1, 0, 2)
        upper.append(cols[mu.imag > 0])
    upper = np.concatenate(upper)
    pairs = np.stack([upper, upper + 1])
    r = _residual(sf, f, lam, pairs)
    residual = np.linalg.norm(r)
    # y is f^T R, overwritten block by block with Y: each block group reads
    # its entries before it writes them.
    y = f.T @ r
    del sf, r
    n, (a, b) = w.size, pairs
    lone = np.ones(n, bool)
    lone[pairs] = False
    lone = np.flatnonzero(lone)
    mu_l, mu_p = lam[lone].real, lam[a].conj()

    def solve(z, gap):  # -z / gap off the clusters, else 0, over the temporary z
        off = np.abs(gap) > CLUSTER_TOL
        np.divide(z, gap, out=z, where=off)
        z[~off] = 0
        return np.negative(z, out=z)

    def block(rows, cols):
        return y[np.ix_(rows, cols)]

    def put(rows, cols, value):
        y[np.ix_(rows, cols)] = value

    put(lone, lone, solve(block(lone, lone), mu_l[:, None] - mu_l))
    r = solve(block(lone, a) - 1j * block(lone, b), mu_l[:, None] - mu_p)
    put(lone, a, r.real)
    put(lone, b, -r.imag)
    c = solve(block(a, lone) + 1j * block(b, lone), mu_p[:, None] - mu_l)
    put(a, lone, c.real)
    put(b, lone, c.imag)
    del r, c
    x00, x01, x10, x11 = block(a, a), block(a, b), block(b, a), block(b, b)
    x1 = solve((x00 + x11 + 1j * (x10 - x01)) / 2, mu_p[:, None] - mu_p)
    x2 = solve((x00 - x11 + 1j * (x10 + x01)) / 2, mu_p[:, None] - mu_p.conj())
    del x00, x01, x10, x11
    put(a, a, x1.real + x2.real)
    put(a, b, x2.imag - x1.imag)
    put(b, a, x1.imag + x2.imag)
    put(b, b, x1.real - x2.real)
    del x1, x2
    y -= y.T
    y /= 2
    f += f @ y
    return lam, f, pairs, residual


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


def asymmetry(m) -> float:
    """||M - M^T||_F / ||M||_F of a square array M: 0 for M = 0, and nan
    when ||M||_F is not finite."""
    norm = np.linalg.norm(m)
    if not np.isfinite(norm):
        return float("nan")
    if norm == 0:
        return 0.0
    return float(np.linalg.norm(m - m.T) / norm)


def commutator_norm(m) -> float:
    """||M M* - M* M||_F of a square array M."""
    mh = m.conj().T
    return float(np.linalg.norm(m @ mh - mh @ m))


def _sorted(lam, f, pairs) -> tuple:
    """(lam, pairs) in the one mode order of the toolkit, with f's columns
    permuted to match in place; pairs (EigenDecomposition's) index the
    sorted lam and f.  Modes ascend in decay rate Re(1 - lambda), keyed as
    -Re lambda (1 - Re lambda would round distinct real parts into ties),
    then in |Im lambda|, then in Im lambda: a real eigenvalue precedes the
    pairs of its real part, and each pair comes negative-imaginary first."""
    order = np.lexsort((lam.imag, np.abs(lam.imag), -lam.real))
    f[:] = f[:, order]
    rank = np.empty(lam.size, int)
    rank[order] = np.arange(lam.size)
    return lam[order], rank[pairs]


def _repair_clusters(m, lam, f, pairs) -> None:
    """Re-orthonormalize, in place, the frame f of dgeev's eigenvectors of m
    on each degenerate cluster of the sorted lam, so that cond_v does not
    depend on the oblique basis LAPACK may choose for a cluster.  A normal
    m takes _eigh_route's split, so the clusters seen here are those of
    what _eigh_route refuses: a near-reversible or near-normal m (the
    4-cycle with weights (1, 2, 2, 1) and edge 0 -> 1 scaled by 1 + 1e-11:
    cond_v 1.39, 213 unrepaired) and a non-normal m with a repeated
    eigenvalue.

    Each eigenvalue joins the cluster of the first eigenvalue within
    CLUSTER_TOL of it (by distance, not by sort position), and each
    cluster's block is replaced by a Euclidean QR.  A cluster closed under
    conjugation takes the QR of its frame columns, in real arithmetic; one
    of Im > 0 members (pairs[0]) takes the QR of their complex vectors, and
    its conjugate cluster follows; any other cluster is left as LAPACK gave
    it.  A QR block that is not invariant (LAPACK may return parallel
    vectors for a repeated eigenvalue: the weighted 4-cycle's double 0) is
    replaced by the null space of m - mean(lambda) I instead, under the same
    check, and the cluster is left as it was if that fails too.
    """
    n = m.shape[0]
    m_norm = np.linalg.norm(m)
    partner, role = _pair_roles(n, pairs)

    # Roundoff in Re(lambda) can sort a conjugate between two copies of
    # one eigenvalue, so sort neighbours are not enough to find a
    # cluster; the label is the first eigenvalue within CLUSTER_TOL.  A
    # cluster of merely close (not equal) eigenvalues has distinct
    # eigendirections that QR would destroy, so the swap is kept only
    # when the block residual stays at roundoff level.
    def invariant(q, mu):
        return np.linalg.norm(_product(m, q) - q * mu) <= 1e-10 * max(1.0, m_norm)

    # |lambda_i - lambda_j|^2 from real parts, in place: no complex n x n.
    gap, im = np.subtract.outer(lam.real, lam.real), np.subtract.outer(lam.imag, lam.imag)
    gap *= gap
    im *= im
    gap += im
    del im
    labels = (gap <= CLUSTER_TOL**2).argmax(axis=1)
    del gap
    for label in np.flatnonzero(np.bincount(labels, minlength=n) > 1):
        idx = np.flatnonzero(labels == label)
        closed = np.array_equal(np.sort(partner[idx]), idx)
        if closed:
            mu, block = lam.real[idx], f[:, idx]
        elif np.all(role[idx] == 1):
            mu, block = lam[idx], f[:, idx] + 1j * f[:, partner[idx]]
        else:
            continue
        q = np.linalg.qr(block)[0]
        if not invariant(q, mu):
            shifted = m - np.mean(mu) * np.eye(n)
            q = np.linalg.svd(shifted)[2][-idx.size:].conj().T
            if not invariant(q, mu):
                continue
        if closed:
            f[:, idx] = q
        else:
            f[:, idx], f[:, partner[idx]] = q.real, q.imag


def _conventions(f, pairs) -> float:
    """Apply to the frame f, in place, the conventions every route of
    eig_general shares, and return cond_v, V's 2-norm condition number.

    Columns of V have unit norm, which fixes cond(V); the phase is fixed so
    that the pivot, the first entry of modulus within PHASE_TOL of the
    column's largest, is positive real (on the cycles every entry has
    modulus 1/sqrt(n), and the largest one would be roundoff's pick).  The
    phase rule leaves cond(V) unchanged (a unit-modulus column scaling is
    unitary), but it fixes V itself, U*, and the seeded signals built from
    V.  Inside a degenerate cluster the basis itself is still arbitrary.
    The norms and the phases cost O(n^2) on the frame.  T is unitary, so
    sigma(V) = sigma(f); DefectiveMatrixError if V is numerically singular.
    """
    n = f.shape[1]
    f /= frame_norms(f, pairs)
    a, b = pairs
    modulus = np.abs(f)  # of V's entries: a pair's is hypot(f_a, f_b) / sqrt(2)
    if a.size:
        modulus[:, a] = modulus[:, b] = np.hypot(modulus[:, a], modulus[:, b])
    first = np.argmax(modulus >= (1 - PHASE_TOL) * modulus.max(axis=0), axis=0)
    pivot, r = f[first, np.arange(n)], modulus[first, np.arange(n)]
    del modulus
    unit = np.conj(pivot) / r
    unit[a] = unit[b] = 1.0
    f *= unit
    if a.size:
        # A pair's v_a = (f_a + i f_b) / sqrt(2) turns by the conjugate phase
        # of its pivot x + iy = r (c + is): f_a, f_b -> c f_a + s f_b, c f_b - s f_a.
        c, s = pivot[a] / r[a], pivot[b] / r[a]
        f[:, a], f[:, b] = f[:, a] * c + f[:, b] * s, f[:, b] * c - f[:, a] * s

    sigma = np.linalg.svd(f, compute_uv=False)
    if sigma[-1] <= RANK_RCOND * sigma[0]:
        raise DefectiveMatrixError(
            f"eigenvector matrix is numerically singular: sigma_min/sigma_max = "
            f"{sigma[-1] / sigma[0]:.1e} <= RANK_RCOND = {RANK_RCOND:g}"
        )
    return float(sigma[0] / sigma[-1])


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
