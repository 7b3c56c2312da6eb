"""Bandlimited signal models, sampling sets, and least-squares reconstruction.

A signal is band-limited to a mode set Omega when it lies in the span of the
corresponding right eigenvectors V_Omega.  Sampling restricts to a node set M
(the restriction P_M is applied as row indexing, never materialized);
reconstruction solves min_c ||P_M V_Omega c - y||_2 and reports the stability
certificates sigma_min(P_M V_Omega), cond(P_M V_Omega), and the theoretical
noise amplification bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from . import linalg
from .errors import InvalidNodeError, InvalidSizeError, RankDeficientError
from .transform import BgftBasis


def _sorted_indices(values, what, error) -> tuple:
    """values as a sorted tuple of ints.  Integers of any type (numpy's too)
    are accepted, and anything else or a negative index raises error; the
    tuple must be nonempty and distinct (InvalidSizeError)."""
    try:
        idx = tuple(sorted(index(i) for i in values))
    except TypeError:
        raise error(f"{what} indices must be integers, got {values!r}")
    if len(idx) == 0 or len(set(idx)) != len(idx):
        raise InvalidSizeError(f"{what} must be nonempty and distinct")
    if idx[0] < 0:
        raise error(f"{what} index {idx[0]} is negative")
    return idx


@dataclass(frozen=True)
class BandSupport:
    """Sorted distinct nonnegative mode indices into a basis."""

    omega: tuple

    def __post_init__(self):
        idx = _sorted_indices(self.omega, "band support", InvalidSizeError)
        object.__setattr__(self, "omega", idx)

    @property
    def k(self) -> int:
        return len(self.omega)


@dataclass(frozen=True)
class SamplingSet:
    """Sorted distinct nonnegative node indices."""

    nodes: tuple

    def __post_init__(self):
        idx = _sorted_indices(self.nodes, "sampling set", InvalidNodeError)
        object.__setattr__(self, "nodes", idx)

    @property
    def m(self) -> int:
        return len(self.nodes)

    def rows(self, n: int) -> list:
        """The nodes as a row index into an n-node signal or basis."""
        if self.nodes[-1] >= n:
            raise InvalidNodeError(f"sampling node {self.nodes[-1]} out of range for n={n}")
        return list(self.nodes)


@dataclass(frozen=True)
class ReconstructionReport:
    x_hat: np.ndarray
    rel_err: float
    sigma_min_b: float
    cond_b: float
    noise_bound: float
    rank_deficient: bool


def select_band(basis: BgftBasis, k: int) -> BandSupport:
    """The k slowest modes (smallest decay rate, i.e. largest Re lambda):
    the first k, as the basis stores its modes in the mode order."""
    k = linalg.as_count(k, "band size", 1, basis.n, InvalidSizeError)
    return BandSupport(omega=tuple(range(k)))


def band_vectors(basis: BgftBasis, omega: BandSupport) -> np.ndarray:
    """V_Omega: the band's right-eigenvector columns, sorted index order."""
    if omega.omega[-1] >= basis.n:
        raise InvalidSizeError(f"mode index {omega.omega[-1]} out of range")
    return basis.eig.right_columns(omega.omega)


def random_bandlimited(basis: BgftBasis, omega: BandSupport, rng_seed: int) -> np.ndarray:
    """x = V_Omega c with c ~ standard complex normal from the seeded PCG64 rng."""
    rng = np.random.default_rng(linalg.as_count(rng_seed, "seed", 0))
    c = rng.standard_normal(omega.k) + 1j * rng.standard_normal(omega.k)
    return band_vectors(basis, omega) @ c


def sample(x, m_set: SamplingSet) -> np.ndarray:
    x = linalg.as_vector(x)
    return x[m_set.rows(x.shape[0])]


def reconstruct(
    basis: BgftBasis,
    omega: BandSupport,
    m_set: SamplingSet,
    y,
    x_true=None,
    eta_norm: float = 0.0,
) -> ReconstructionReport:
    """Least-squares reconstruction x_hat = V_Omega pinv(P_M V_Omega) y.

    rel_err is ||x_hat - x_true|| / ||x_true|| when a reference signal is
    given (0 when both are numerically zero, +inf when only the reference
    is), else NaN.  noise_bound is ||V_Omega||_2 * eta_norm / sigma_min(B);
    eta_norm must be finite and >= 0.
    """
    if not (np.isfinite(eta_norm) and eta_norm >= 0):
        raise ValueError(f"eta_norm must be finite and >= 0, got {eta_norm}")
    y = linalg.as_vector(y, m_set.m)
    v_o = band_vectors(basis, omega)
    b = v_o[m_set.rows(basis.n), :]
    sol = linalg.lstsq(b, y)
    x_hat = v_o @ sol.coeffs

    # sigma_K of the m x K matrix B: 0 when m < K, where B has only m
    # singular values.  cond(B) is infinite exactly when lstsq finds B
    # rank deficient, so the certificate and the rank decision agree.
    sb = sol.singular_values
    sigma_min_b = float(sb[-1]) if b.shape[0] >= b.shape[1] else 0.0
    cond_b = float("inf") if sol.rank_deficient else float(sb[0] / sigma_min_b)

    if x_true is None:
        rel_err = float("nan")
    else:
        x_true = linalg.as_vector(x_true, basis.n)
        nx = np.linalg.norm(x_true)
        if nx == 0:
            rel_err = 0.0 if np.linalg.norm(x_hat) <= 1e-12 else float("inf")
        else:
            rel_err = float(np.linalg.norm(x_hat - x_true) / nx)

    if sol.rank_deficient:
        bound = float("inf") if eta_norm > 0 else 0.0
    else:
        bound = float(linalg.spectral_norm2(v_o) * eta_norm / sigma_min_b)
    return ReconstructionReport(
        x_hat=x_hat,
        rel_err=rel_err,
        sigma_min_b=sigma_min_b,
        cond_b=cond_b,
        noise_bound=bound,
        rank_deficient=sol.rank_deficient,
    )


def noise_bound(
    basis: BgftBasis, omega: BandSupport, m_set: SamplingSet, eta_norm: float
) -> float:
    """Worst-case reconstruction error ||V_Omega||_2 ||eta||_2 / sigma_min(B).

    The value and the rank decision are reconstruct's (one SVD of B, lstsq's
    rank rule); raises RankDeficientError where it reports rank_deficient.
    """
    rep = reconstruct(basis, omega, m_set, np.zeros(m_set.m), eta_norm=eta_norm)
    if rep.rank_deficient:
        raise RankDeficientError("sampled band matrix lacks full column rank")
    return rep.noise_bound


def random_sampling_set(n: int, m: int, rng_seed: int) -> SamplingSet:
    """m nodes uniformly without replacement from the seeded PCG64 rng."""
    n = linalg.as_count(n, "node count", 1, error=InvalidSizeError)
    m = linalg.as_count(m, "sample count", 1, n, InvalidSizeError)
    rng = np.random.default_rng(linalg.as_count(rng_seed, "seed", 0))
    return SamplingSet(nodes=tuple(rng.choice(n, size=m, replace=False)))


# The greedy search's one tolerance: a set must beat the best so far by more
# than this in sigma_min to replace it, in a growth step, an exchange and the
# comparison of restarts.  Sets that tie in exact arithmetic differ in
# sigma_min only by roundoff: the eigensolver's (~1e-15), and _sigma_min's,
# which keeps a Gram value only where, by a measured error constant, it is off
# by under TIE_TOL / 4 (at most 8.2e-15 over the sampling-design problems)
# and takes the SVD elsewhere.
# So their order, not that roundoff, decides between them.
TIE_TOL = 1e-12

# Most entries in the (bases, n, K) temporary of one step of a stacked
# _sigma_min_sq_bounds call; a larger stack is bounded in chunks of bases.
BOUND_CHUNK_ENTRIES = 1 << 18


def _sigma_min(v_o: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sigma_min of each B = v_o[rows[i]], rows a (sets, s) array of node
    sets: B's min(s, K)-th singular value, the square root of the smallest
    eigenvalue of its Gram matrix B*B (K x K, s >= K) or BB* (s x s, s < K),
    one stacked eigvalsh for all the sets (Golub and Van Loan, 8.6).

    Forming the Gram moves its eigenvalues by a multiple of eps lam_max,
    lam_max = sigma_max(B)**2, so the estimate sigma^ is off by a multiple
    of eps lam_max / sigma^.  The a-priori bound on that multiple grows with
    s and K; the 16 taken here is a measured constant, not a derived one:
    the multiple is at most 8.2 over the 413 263 sets (s <= 20, K <= 8) that
    the greedy search scores on the sampling-design problems of seeds 1 and
    7919, and at most 4.7 on random sets of s <= 256 rows of n = 256
    bands with K <= 32.  A set with 64 eps lam_max > TIE_TOL sigma^, whose
    value could then be off by more than TIE_TOL / 4, takes the SVD
    instead; rank-deficient and near-degenerate sets do, about 2 per greedy
    search on those problems."""
    b = v_o[rows]
    bh = b.conj().transpose(0, 2, 1)
    lam = np.linalg.eigvalsh(bh @ b if rows.shape[1] >= v_o.shape[1] else b @ bh)
    sigma = np.sqrt(np.maximum(lam[:, 0], 0.0))
    unsure = 64 * np.finfo(float).eps * lam[:, -1] > TIE_TOL * sigma
    if unsure.any():
        sigma[unsure] = np.linalg.svd(b[unsure], compute_uv=False)[:, -1]
    return sigma


def _band_frame(basis: BgftBasis, omega: BandSupport) -> np.ndarray:
    """The rows the greedy search reads: basis.eig.right_frame's columns
    omega where the band keeps its conjugate pairs whole, V_Omega elsewhere.

    right_frame holds v at a real mode and sqrt(2) Re v_a, sqrt(2) Im v_a at
    a pair (a, b) (linalg.EigenDecomposition), so when omega holds each
    mode's partner, F = V_Omega T with T unitary: F[rows] = V_Omega[rows] T
    has V_Omega[rows]'s singular values, and its Gram matrices cost real
    arithmetic.  Every band of an eigh-route basis, which has no pairs,
    qualifies.  The frame is taken only when V_Omega, as band_vectors
    returns it, is closed under exact conjugation, so a band perturbed off
    it (as test_ties_survive_roundoff perturbs it) is searched as given."""
    v_o = band_vectors(basis, omega)
    om = np.array(omega.omega)
    partner = linalg._pair_roles(basis.n, basis.eig.pairs)[0][om]
    inside = np.zeros(basis.n, bool)
    inside[om] = True
    if inside[partner].all() and np.array_equal(v_o[:, np.searchsorted(om, partner)], v_o.conj()):
        return basis.eig.right_frame[:, om]
    return v_o


def _sigma_min_sq_bounds(v_o: np.ndarray, rows, sq=None) -> np.ndarray:
    """Per node c, an upper bound on sigma_min(v_o[rows + [c]])**2, from one
    eigendecomposition of the base B = v_o[rows] (Golub's rank-one modified
    eigenproblem).  The value is meaningless for c in rows.

    rows is one base (a sequence of node indices; the result has shape (n,))
    or a (bases, s) array of bases of s nodes each (the result has one row
    per base).  A stack is bounded in chunks of at most
    BOUND_CHUNK_ENTRIES // (n K) bases, one stacked eigh per chunk, so its
    temporaries do not grow with the number of bases.  sq is the per-node
    |v|**2 of v_o, computed here when not given.

    With |rows| >= K, G = B*B = Q diag(lam) Q* and z = |v_o Q|**2: the smallest
    eigenvalue of G + v*v is the root in [lam_1, lam_2] of the secular
    equation, at most lam_1 + z_1 / (1 + sum_{i>=2} z_i / (lam_i - lam_1)) and
    at most lam_2 (interlacing).  With 0 < |rows| < K, BB* = W diag(lam) W* and
    w = |(v_o B*) W|**2: the Schur-complement test vector gives
    |v|**2 - sum_i w_i / lam_i and interlacing gives lam_1.  With no rows the
    value is |v|**2.

    The margin 1e-9 * (lam_max + max |v|**2), far above the roundoff of this
    eigendecomposition and of _sigma_min's value for the extended matrix, is
    added to the bound and to every denominator; both only raise the bound.
    v_o may be a real frame of the band (_band_frame): the bounds are then
    those of the band in exact arithmetic, from real eigh calls.
    """
    if sq is None:
        sq = np.einsum("ij,ij->i", v_o, v_o.conj()).real
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim == 1:
        return _sigma_min_sq_bounds(v_o, rows[None], sq)[0]
    n, k = v_o.shape
    out = np.empty((len(rows), n))
    if rows.shape[1] == 0:
        out[:] = sq + 1e-9 * sq.max()
        return out
    step = max(1, BOUND_CHUNK_ENTRIES // (n * k))
    for lo in range(0, len(rows), step):
        b = v_o[rows[lo:lo + step]]
        bh = b.conj().transpose(0, 2, 1)
        if rows.shape[1] >= k:
            lam, q = np.linalg.eigh(bh @ b)
            margin = 1e-9 * (lam[:, -1:] + sq.max())
            z = np.abs(v_o @ q) ** 2
            inv = 1 / (lam[:, 1:] - lam[:, :1] + margin)
            bound = lam[:, :1] + z[:, :, 0] / (1 + (z[:, :, 1:] @ inv[:, :, None])[:, :, 0])
            if k > 1:
                bound = np.minimum(bound, lam[:, 1:2])
        else:
            lam, w = np.linalg.eigh(b @ bh)
            margin = 1e-9 * (lam[:, -1:] + sq.max())
            y = np.abs(v_o @ (bh @ w)) ** 2
            inv = 1 / (lam + margin)
            bound = np.minimum(np.maximum(sq - (y @ inv[:, :, None])[:, :, 0], 0.0), lam[:, :1])
        out[lo:lo + step] = bound + margin
    return out


def greedy_sampling_set(basis: BgftBasis, omega: BandSupport, m: int) -> SamplingSet:
    """Sampling set maximizing sigma_min(P_M V_Omega), built greedily.

    One greedy run per choice of first node (the first additions are myopic,
    so a single run stalls in poor local optima), each followed by
    first-improvement single-node exchange; the best final set wins.
    Deterministic: sets within TIE_TOL in sigma_min tie, and ties go to the
    candidate scanned first (the smallest node index).

    The search runs on the band's columns of the basis's real frame
    (_band_frame) wherever the band keeps its conjugate pairs whole, as
    every band of a reversible chain does: every row subset of the frame
    has the singular values of the same rows of V_Omega, so sigma_min and
    the bounds are the band's in exact arithmetic, at the cost of real
    arithmetic.  A band that splits a pair keeps V_Omega.

    sigma_min of a node set comes from _sigma_min: the smallest eigenvalue
    of a Gram matrix of its rows, off by under TIE_TOL / 4, or an SVD of the
    rows where the Gram value could be off by more.  The restarts keep
    reaching the same sets, so sigma_min is memoized per node set (keyed by
    its bitmask, computed on its sorted rows, so the value depends only on
    the set).  The n restarts advance in lockstep: each run is a generator
    whose scans ask for the bounds of a base or for sigma_min of some node
    sets instead of computing them.  Each round, every live run states its
    next request, and the requests are served together: each base and each
    node set not yet memoized once, with one stacked bound call per base
    size and one stacked _sigma_min call per set size.  A run sees only
    memoized values that depend on nothing but their set, so it makes the
    decisions it would make alone, and the runs are compared in order of
    first node.

    Each scan screens its candidates before it looks at the memo: one row of
    _sigma_min_sq_bounds of the base the scan extends (memoized per base)
    gives a certified upper bound on every candidate's sigma_min**2, with a
    margin of 1e-9 * (lam_max + max |v|**2) above roundoff.  A growth step
    first scores the first candidate with the largest bound and uses its
    sigma_min**2 as the floor; an exchange scan's floor is
    (current + TIE_TOL)**2.  Only the candidates whose bound exceeds the
    floor are keyed, looked up in the memo and, if new, scored by
    _sigma_min; the rest are skipped, memoized or not.  A skipped growth
    candidate's sigma_min**2 lies at least the margin below the scored
    one's, so its sigma_min lies at least 5e-10 sqrt(lam_max + max |v|**2)
    >= 5e-10 sqrt(K / n) below (V_Omega's K columns have unit norm, and the
    frame has its row norms): 88 TIE_TOL at n = 32, 7.8 TIE_TOL at
    graphs.MAX_NODES.  The 1e-9 margin is that far above the tie tolerance,
    so a skipped candidate cannot win, and it could block the winner only
    through a chain of candidates less than TIE_TOL apart across the whole
    gap; a skipped exchange candidate cannot be an improvement.  So every
    decision, and the returned set, is the one the unscreened search makes.
    A scored value is within TIE_TOL / 4 of the SVD's as far as _sigma_min's
    measured error constant holds; over the 144 sampling-design problems of
    seeds 1 and 7919, each set is the one the search returned when it scored
    every set by an SVD.
    """
    n = basis.n
    m = linalg.as_count(m, "sample count", 1, n, InvalidSizeError)
    v_o = _band_frame(basis, omega)
    sq = np.einsum("ij,ij->i", v_o, v_o.conj()).real
    sigma = {}  # node-set bitmask -> sigma_min(P_M V_Omega)
    bounds = {}  # base bitmask -> _sigma_min_sq_bounds of the base, per node
    nbytes = (n + 7) // 8  # of a bitmask

    def scan(chosen, mask, cands, pos=None, floor=None):
        """Generator returning (live, values): the ascending positions in
        cands of the candidates whose bound on sigma_min**2 exceeds floor,
        and sigma_min of chosen with each of them appended (pos None) or put
        in place of chosen[pos].  A growth step passes no floor; its floor is
        sigma_min**2 of the first candidate with the largest bound.  It
        yields ("bound", base, rows) and ("sigma", keys, size) requests, only
        for values not yet memoized, which serve answers in bounds and sigma
        before it resumes."""
        base = mask if pos is None else mask & ~(1 << chosen[pos])
        size = len(chosen) + (pos is None)
        if base not in bounds:
            yield "bound", base, chosen if pos is None else chosen[:pos] + chosen[pos + 1:]
        row = bounds[base].tolist()
        if floor is None:
            top = max(cands, key=row.__getitem__)  # the first of equal bounds
            if base | 1 << top not in sigma:
                yield "sigma", [base | 1 << top], size
            floor = sigma[base | 1 << top] ** 2
        live = [i for i, c in enumerate(cands) if row[c] > floor]
        keys = [base | 1 << cands[i] for i in live]
        new = [t for t, key in enumerate(keys) if key not in sigma]
        if new:
            yield "sigma", [keys[t] for t in new], size
        return live, [sigma[key] for key in keys]

    def serve(requests):
        """Answer one round of requests: each base and node set not yet
        memoized once, one stacked call per base size and per set size.
        A set's rows are its bitmask's set bits in ascending order."""
        bases, sets = {}, {}  # base size -> {base: rows}, set size -> {key: None}
        for kind, keys, arg in requests:
            if kind == "bound":  # keys is the one base's bitmask, arg its rows
                bases.setdefault(len(arg), {})[keys] = arg
            else:  # arg is the size of the sets
                sets.setdefault(arg, {}).update(dict.fromkeys(keys))
        for group in bases.values():
            bounds.update(zip(group, _sigma_min_sq_bounds(v_o, list(group.values()), sq)))
        for size, group in sets.items():
            packed = b"".join(key.to_bytes(nbytes, "little") for key in group)
            bits = np.unpackbits(np.frombuffer(packed, np.uint8).reshape(len(group), nbytes),
                                 axis=1, count=n, bitorder="little")
            rows = np.nonzero(bits)[1].reshape(len(group), size)
            sigma.update(zip(group, _sigma_min(v_o, rows).tolist()))

    def one_run(start):
        chosen, mask = [start], 1 << start
        remaining = [i for i in range(n) if i != start]
        if m == 1:  # no growth step scores the one-node set
            yield from scan([], 0, chosen)
        for _ in range(m - 1):
            best_i, best_sigma = 0, -1.0
            for i, s in zip(*(yield from scan(chosen, mask, remaining))):
                if s > best_sigma + TIE_TOL:
                    best_i, best_sigma = i, s
            chosen.append(remaining.pop(best_i))
            mask |= 1 << chosen[-1]
        improved = True
        while improved and remaining:
            improved = False
            current = sigma[mask]
            for pos in range(m):
                j = 0
                while j < len(remaining):
                    live, trial = yield from scan(chosen, mask, remaining[j:], pos,
                                                  (current + TIE_TOL) ** 2)
                    hit = next((t for t, s in enumerate(trial) if s > current + TIE_TOL), None)
                    if hit is None:
                        break
                    # Swap: the old node rejoins the candidates at the end,
                    # and the scan resumes at the next index of the updated
                    # list (the order of an in-place iteration over it).
                    j += live[hit]
                    old, chosen[pos] = chosen[pos], remaining.pop(j)
                    remaining.append(old)
                    mask = mask & ~(1 << old) | 1 << chosen[pos]
                    current = trial[hit]
                    improved = True
                    j += 1
        return chosen, sigma[mask]

    # Rounds: every live run makes its next request, then all are served.
    runs, results = {start: one_run(start) for start in range(n)}, [None] * n
    while runs:
        requests = []
        for start, run in list(runs.items()):
            try:
                requests.append(run.send(None))
            except StopIteration as done:
                results[start] = done.value
                del runs[start]
        serve(requests)

    best_set, best_val = None, -1.0
    for chosen, val in results:
        if val > best_val + TIE_TOL:
            best_set, best_val = chosen, val
    return SamplingSet(nodes=tuple(best_set))
