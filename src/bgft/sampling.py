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
    """The k slowest modes (smallest decay rate, i.e. largest Re lambda)."""
    k = linalg.as_count(k, "band size", 1, basis.n, InvalidSizeError)
    return BandSupport(omega=tuple(basis.order[:k]))


def band_vectors(basis: BgftBasis, omega: BandSupport) -> np.ndarray:
    """V_Omega: the band's right-eigenvector columns, sorted index order."""
    if omega.omega[-1] >= basis.n:
        raise InvalidSizeError(f"mode index {omega.omega[-1]} out of range")
    return basis.right_vectors[:, list(omega.omega)]


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


def greedy_sampling_set(basis: BgftBasis, omega: BandSupport, m: int) -> SamplingSet:
    """Sampling set maximizing sigma_min(P_M V_Omega), built greedily.

    One greedy run per choice of first node (the first additions are myopic,
    so a single run stalls in poor local optima), each followed by
    first-improvement single-node exchange; the best final set wins.
    Deterministic: ties go to the smallest node index.

    The restarts keep reaching the same sets, so sigma_min is memoized per
    node set (keyed by its bitmask, computed on its sorted rows, so the value
    depends only on the set).  The unscored candidates of one growth step, or
    of one exchange scan from a given candidate on, share one stacked SVD.
    """
    n = basis.n
    m = linalg.as_count(m, "sample count", 1, n, InvalidSizeError)
    v_o = band_vectors(basis, omega)
    sigma = {}  # node-set bitmask -> sigma_min(P_M V_Omega)

    def scan(chosen, mask, cands, pos=None):
        """sigma_min of chosen with each candidate appended (pos None) or
        put in place of chosen[pos]."""
        base = mask if pos is None else mask & ~(1 << chosen[pos])
        keys = [base | 1 << c for c in cands]
        new = [i for i, key in enumerate(keys) if key not in sigma]
        if new:
            sets = np.empty((len(new), len(chosen) + (pos is None)), dtype=np.intp)
            sets[:, :len(chosen)] = chosen
            sets[:, len(chosen) if pos is None else pos] = [cands[i] for i in new]
            sets.sort(axis=1)
            sv = np.linalg.svd(v_o[sets], compute_uv=False)[:, -1]
            sigma.update(zip([keys[i] for i in new], sv.tolist()))
        return [sigma[key] for key in keys]

    def one_run(start):
        chosen, mask = [start], 1 << start
        remaining = [i for i in range(n) if i != start]
        if m == 1:  # no growth step scores the one-node set
            scan([], 0, chosen)
        for _ in range(m - 1):
            best_i, best_sigma = 0, -1.0
            for i, s in enumerate(scan(chosen, mask, remaining)):
                if s > best_sigma + 1e-15:
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
                    trial = scan(chosen, mask, remaining[j:], pos)
                    hit = next((i for i, s in enumerate(trial) if s > current + 1e-12), None)
                    if hit is None:
                        break
                    # Swap: the old node rejoins the candidates at the end,
                    # and the scan resumes at the next index of the updated
                    # list (the order of an in-place iteration over it).
                    j += hit
                    old, chosen[pos] = chosen[pos], remaining.pop(j)
                    remaining.append(old)
                    mask = mask & ~(1 << old) | 1 << chosen[pos]
                    current = trial[hit]
                    improved = True
                    j += 1
        return chosen, sigma[mask]

    best_set, best_val = None, -1.0
    for start in range(n):
        chosen, val = one_run(start)
        if val > best_val + 1e-15:
            best_set, best_val = chosen, val
    return SamplingSet(nodes=tuple(best_set))
