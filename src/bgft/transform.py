"""Biorthogonal spectral analysis of the random-walk operator.

decompose() builds a biorthogonal basis of P: right eigenvectors V, and left
dual U* = V^{-1} (dgeev) or V's pi-adjoint, V^{-1} to roundoff (eigh route).
Analysis is xhat = U* x, synthesis x = V xhat; diffusion and spectral filters
act diagonally.  Modes ascend in decay rate omega_k = Re(1 - lambda_k),
the one mode order, which linalg._sorted alone decides.

The basis is held as linalg.EigenDecomposition's real frames, and every
function here but filter_matrix, which materializes H, applies it through
them: analysis and synthesis are real GEMVs for a real signal (two for a
complex one), and pi_metric's SVD is real.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg, markov
from .errors import InvalidSizeError
from .linalg import EigenDecomposition
from .markov import StationaryDistribution, TransitionOperator

DEFAULT_TAU = 2.0


@dataclass(frozen=True)
class BgftBasis:
    """Biorthogonal eigenbasis of a transition operator.

    frequencies derive from eig.  Modes are stored in the mode order
    (linalg._sorted): ascending decay rate, then |Im lambda|, then Im
    lambda, so conjugate pairs come negative-imaginary first; order is
    therefore arange(n).  pi_metric, the signal-independent part of
    energy_report, is computed on first use.
    """

    operator: TransitionOperator
    eig: EigenDecomposition

    @property
    def n(self) -> int:
        return self.eig.n

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eig.eigenvalues

    @property
    def right_vectors(self) -> np.ndarray:
        return self.eig.right_vectors

    @property
    def left_dual(self) -> np.ndarray:
        return self.eig.left_dual

    @property
    def cond_v(self) -> float:
        return self.eig.cond_v

    @property
    def frequencies(self) -> np.ndarray:
        return 1.0 - self.eigenvalues.real

    @property
    def order(self) -> np.ndarray:
        """The mode order as indices: arange(n), as eig stores the modes in it."""
        return np.arange(self.n)

    @cached_property
    def pi_metric(self) -> tuple:
        """(pi, s, sigma_w): the operator's stationary pi, the column norms
        s_k = ||Pi^{1/2} v_k||, and the singular values (descending) of
        W = Pi^{1/2} V diag(1/s).  W itself is not kept."""
        # Unit-norm columns: the energy identities are invariant under column
        # scaling, and this choice makes W unitary wherever V is
        # pi-orthogonal, which it is on every chain eig_general decomposes
        # by eigh (degenerate clusters included); there the sandwich bounds
        # collapse to equalities.  s is equal on a conjugate pair's two
        # columns, so W = Pi^{1/2} V_f diag(1/s) T^H in the frame of V =
        # V_f T^H, and T is unitary: W's singular values are those of the
        # real Pi^{1/2} V_f diag(1/s).
        pi = markov.stationary(self.operator).pi
        w = np.sqrt(pi)[:, None] * self.eig.right_frame
        scale = linalg.frame_norms(w, self.eig.pairs)
        return pi, scale, np.linalg.svd(w / scale, compute_uv=False)


@dataclass(frozen=True)
class FilterSpec:
    """Scalar spectral response: response(basis) is h(lambda) at each
    eigenvalue, in the basis's mode order.  Constructors:
      heat(tau):          h(lambda) = exp(-tau * (1 - lambda)), finite tau >= 0,
                          with Re(1 - lambda) clamped at 0 and mode 0's
                          lambda taken as exactly 1
      ideal_lowpass(k):   1 on the k slowest modes (the first k), else 0
      custom(samples):    finite 1-d table h(lambda_k), one per mode, in mode order
    """

    response: Callable[[BgftBasis], np.ndarray]

    @staticmethod
    def heat(tau: float = DEFAULT_TAU) -> "FilterSpec":
        if not (np.isfinite(tau) and tau >= 0):
            raise ValueError(f"heat filter needs a finite tau >= 0, got {tau}")
        tau = float(tau)

        def response(basis: BgftBasis) -> np.ndarray:
            # Re(1 - lambda) >= 0 as |lambda| <= 1: roundoff may not grow a mode.
            rate = 1.0 - basis.eigenvalues
            rate.real = np.maximum(rate.real, 0.0)
            # Mode 0 is the Perron mode: lambda = 1 exactly, as P 1 = 1, so
            # the filter keeps constants for every tau, where the route's
            # lambda, off 1 by roundoff, would decay them at a huge tau.
            rate[0] = 0.0
            # tau * rate may overflow to inf for a huge tau; e^{-inf} = 0 is
            # then the exact limit.
            with np.errstate(over="ignore"):
                return np.exp(-tau * rate)

        return FilterSpec(response)

    @staticmethod
    def ideal_lowpass(k: int) -> "FilterSpec":
        k = linalg.as_count(k, "k", 1, error=InvalidSizeError)

        def response(basis: BgftBasis) -> np.ndarray:
            linalg.as_count(k, "k", 1, basis.n, InvalidSizeError)
            h = np.zeros(basis.n, dtype=complex)
            h[:k] = 1.0
            return h

        return FilterSpec(response)

    @staticmethod
    def custom(samples) -> "FilterSpec":
        samples = linalg.as_vector(samples)

        def response(basis: BgftBasis) -> np.ndarray:
            if samples.shape[0] != basis.n:
                raise ValueError("custom filter table must have one entry per mode")
            return samples

        return FilterSpec(response)


@dataclass(frozen=True)
class EnergyReport:
    """Stationary-metric energy identities for one signal."""

    pi_energy: float
    gram_energy: float
    sigma_w_min: float
    sigma_w_max: float
    tv_pi: float
    tv_lower: float
    tv_upper: float


def decompose(op: TransitionOperator) -> BgftBasis:
    """The BGFT basis of P: its cached eigendecomposition, in decay-rate order."""
    return BgftBasis(operator=op, eig=op.eig)


def analyze(basis: BgftBasis, x) -> np.ndarray:
    """Forward transform: coefficients xhat_k = u_k* x.  ValueError when a
    coefficient overflows, though x is finite."""
    x = linalg.as_vector(x, basis.n)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(basis.eig.left_apply(x), "the coefficients U* x overflow")


def synthesize(basis: BgftBasis, xhat) -> np.ndarray:
    """Inverse transform: x = sum_k v_k xhat_k.  ValueError when an entry
    overflows, though xhat is finite."""
    xhat = linalg.as_vector(xhat, basis.n)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(basis.eig.right_apply(xhat), "the synthesis V xhat overflows")


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """values, or ValueError naming what overflowed."""
    if not np.isfinite(values).all():
        raise ValueError(f"signal is too large: {what} float64")
    return values


def diffuse_direct(op: TransitionOperator, x0, t: int) -> np.ndarray:
    """P^t x0 by t applications of op.apply: O(t nnz) on a sparse P, through
    its cached row view, and O(t n^2) on a dense one."""
    t = linalg.as_count(t, "t", 0)
    x = linalg.as_vector(x0, op.n)
    for _ in range(t):
        x = op.apply(x)
    return x


def diffuse_spectral(basis: BgftBasis, x0, t: int) -> np.ndarray:
    """P^t x0 via the diagonal spectral path V Lambda^t U* x0."""
    t = linalg.as_count(t, "t", 0)
    xhat = analyze(basis, x0)
    return synthesize(basis, basis.eigenvalues**t * xhat)


def apply_filter(basis: BgftBasis, spec: FilterSpec, x) -> np.ndarray:
    """Filter a signal spectrally: analyze, scale by h(lambda), synthesize."""
    return synthesize(basis, spec.response(basis) * analyze(basis, x))


def filter_matrix(basis: BgftBasis, spec: FilterSpec) -> np.ndarray:
    """Materialize H = V h(Lambda) U* (apply_filter is the cheap path)."""
    h = spec.response(basis)
    return (basis.right_vectors * h) @ basis.left_dual


def iterate_bound(basis: BgftBasis, t: int) -> float:
    """Operator-norm bound cond(V) * max_k |lambda_k|^t for ||P^t||_2."""
    t = linalg.as_count(t, "t", 0)
    return basis.cond_v * float(np.max(np.abs(basis.eigenvalues)) ** t)


def filter_bound(basis: BgftBasis, spec: FilterSpec) -> float:
    """Operator-norm bound cond(V) * max_k |h(lambda_k)| for ||H||_2."""
    return basis.cond_v * float(np.max(np.abs(spec.response(basis))))


def energy_report(basis: BgftBasis, dist: StationaryDistribution, x) -> EnergyReport:
    """Energy identities in the pi-metric.

    pi_energy = ||x||_pi^2 must equal the Gram form xhat* (W* W) xhat =
    ||W xhat||^2 with W = Pi^{1/2} V; the diffusion variation ||(I-P)x||_pi^2
    is sandwiched by the squared extreme singular values of W times
    sum |1-lambda_k|^2 |xhat_k|^2.

    W (with unit-norm columns, the coefficients scaled inversely) and its
    singular values depend only on the basis: basis.pi_metric takes the SVD
    once, on first use, and each call costs O(n^2).  dist must be the
    operator's stationary distribution (ValueError otherwise).
    """
    x = linalg.as_vector(x, basis.n)
    pi, scale, sw = basis.pi_metric
    if dist.pi is not pi and not np.array_equal(dist.pi, pi):
        raise ValueError("dist is not the stationary distribution of the basis operator")
    xhat = analyze(basis, x)

    pi_energy = float(np.sum(pi * np.abs(x) ** 2))
    gram_energy = float(np.sum(pi * np.abs(basis.eig.right_apply(xhat)) ** 2))

    lx = x - basis.operator.apply(x)
    tv_pi = float(np.sum(pi * np.abs(lx) ** 2))
    mode_sum = float(np.sum(np.abs(1.0 - basis.eigenvalues) ** 2 * np.abs(scale * xhat) ** 2))

    return EnergyReport(
        pi_energy=pi_energy,
        gram_energy=gram_energy,
        sigma_w_min=float(sw[-1]),
        sigma_w_max=float(sw[0]),
        tv_pi=tv_pi,
        tv_lower=float(sw[-1] ** 2) * mode_sum,
        tv_upper=float(sw[0] ** 2) * mode_sum,
    )
