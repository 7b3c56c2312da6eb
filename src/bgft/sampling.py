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

import numpy as np

from . import linalg
from .errors import InvalidSizeError, RankDeficientError
from .transform import BgftBasis


@dataclass(frozen=True)
class BandSupport:
    """Sorted distinct mode indices into a basis."""

    omega: tuple

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.omega))
        if len(idx) == 0 or len(set(idx)) != len(idx):
            raise InvalidSizeError("band support must be nonempty and distinct")
        object.__setattr__(self, "omega", idx)

    @property
    def k(self) -> int:
        return len(self.omega)


@dataclass(frozen=True)
class SamplingSet:
    """Sorted distinct node indices."""

    nodes: tuple

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.nodes))
        if len(idx) == 0 or len(set(idx)) != len(idx):
            raise InvalidSizeError("sampling set must be nonempty and distinct")
        object.__setattr__(self, "nodes", idx)

    @property
    def m(self) -> int:
        return len(self.nodes)


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
    if not (1 <= k <= basis.n):
        raise InvalidSizeError(f"band size {k} outside 1..{basis.n}")
    return BandSupport(omega=tuple(basis.order[:k]))


def band_vectors(basis: BgftBasis, omega: BandSupport) -> np.ndarray:
    """V_Omega: the band's right-eigenvector columns, sorted index order."""
    for i in omega.omega:
        if not (0 <= i < basis.n):
            raise InvalidSizeError(f"mode index {i} out of range")
    return basis.right_vectors[:, list(omega.omega)]


def random_bandlimited(basis: BgftBasis, omega: BandSupport, rng_seed: int) -> np.ndarray:
    """x = V_Omega c with c ~ standard complex normal from the seeded PCG64 rng."""
    rng = np.random.default_rng(rng_seed)
    c = rng.standard_normal(omega.k) + 1j * rng.standard_normal(omega.k)
    return band_vectors(basis, omega) @ c


def sample(x, m_set: SamplingSet) -> np.ndarray:
    x = linalg.as_vector(x)
    return x[list(m_set.nodes)]


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
    is), else NaN.  noise_bound is ||V_Omega||_2 * eta_norm / sigma_min(B).
    """
    y = linalg.as_vector(y, m_set.m)
    v_o = band_vectors(basis, omega)
    b = v_o[list(m_set.nodes), :]
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
    if not (1 <= m <= n):
        raise InvalidSizeError(f"sample count {m} outside 1..{n}")
    rng = np.random.default_rng(rng_seed)
    return SamplingSet(nodes=tuple(rng.choice(n, size=m, replace=False)))


def greedy_sampling_set(basis: BgftBasis, omega: BandSupport, m: int) -> SamplingSet:
    """Sampling set maximizing sigma_min(P_M V_Omega), built greedily.

    One greedy run per choice of first node (the first additions are myopic,
    so a single run stalls in poor local optima), each followed by
    single-node exchange refinement; the best final set wins.  Deterministic:
    ties go to the smallest node index.  O(n^2 m) small SVDs, fine at
    experiment sizes.
    """
    n = basis.n
    if not (1 <= m <= n):
        raise InvalidSizeError(f"sample count {m} outside 1..{n}")
    v_o = band_vectors(basis, omega)

    def sigma_min(rows):
        return float(np.linalg.svd(v_o[rows, :], compute_uv=False)[-1])

    def one_run(start):
        chosen = [start]
        remaining = [i for i in range(n) if i != start]
        for _ in range(m - 1):
            best_node, best_sigma = remaining[0], -1.0
            for cand in remaining:
                sigma = sigma_min(chosen + [cand])
                if sigma > best_sigma + 1e-15:
                    best_node, best_sigma = cand, sigma
            chosen.append(best_node)
            remaining.remove(best_node)
        improved = True
        while improved and remaining:
            improved = False
            current = sigma_min(chosen)
            for pos in range(m):
                for cand in remaining:
                    trial = chosen.copy()
                    trial[pos] = cand
                    if sigma_min(trial) > current + 1e-12:
                        remaining.append(chosen[pos])
                        chosen[pos] = cand
                        remaining.remove(cand)
                        current = sigma_min(chosen)
                        improved = True
        return chosen, sigma_min(chosen)

    best_set, best_val = None, -1.0
    for start in range(n):
        chosen, val = one_run(start)
        if val > best_val + 1e-15:
            best_set, best_val = chosen, val
    return SamplingSet(nodes=tuple(best_set))
