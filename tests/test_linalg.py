import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import bgft
from bgft import linalg
from bgft.errors import DefectiveMatrixError, InvalidSizeError

from conftest import (birth_death_chain, counted, dgeev_decomposition, random_digraph,
                      random_reversible_graph)


def directed_torus(*shape):
    """Adjacency of the directed torus on a grid of the given shape: one
    unit edge from each node to its successor along every axis (mod size)."""
    idx = np.arange(np.prod(shape)).reshape(shape)
    a = np.zeros((idx.size, idx.size))
    for axis in range(len(shape)):
        a[idx.ravel(), np.roll(idx, -1, axis=axis).ravel()] = 1.0
    return a


def planted_normal(seed, pairs=3, copies=2):
    """Real normal Q D Q^T: D repeats each of `pairs` random rotation-scaling
    blocks [[a, -b], [b, a]] `copies` times, so each conjugate pair a +- ib
    is an eigenvalue of multiplicity `copies`; Q is a random orthogonal."""
    rng = np.random.default_rng(seed)
    n = 2 * pairs * copies
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.zeros((n, n))
    for k, (a, b) in enumerate(np.repeat(rng.standard_normal((pairs, 2)), copies, axis=0)):
        d[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[a, -b], [b, a]]
    return q @ d @ q.T


def weighted_circulant(n, seed):
    """Circulant with random weights on 3 random offsets: it commutes with its
    transpose (another circulant), so it is normal, but it is not symmetric."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    rows = np.arange(n)
    for offset in rng.choice(np.arange(1, n), size=3, replace=False):
        a[rows, (rows + offset) % n] = rng.random()
    return a


def biased_cycle(n, forward):
    """P of the n-cycle stepping forward with probability `forward`, back
    otherwise: a circulant, so normal.  Its support is symmetric, so
    _balancing_diagonal finds a d along its tree, but the chain is not
    reversible, so S = D P D^{-1} is not symmetric."""
    p = np.zeros((n, n))
    rows = np.arange(n)
    p[rows, (rows + 1) % n] = forward
    p[rows, (rows - 1) % n] = 1.0 - forward
    return p


def signed_symmetric(n, seed):
    """|m_ij| = |m_ji| with independent random signs: each row has the 2-norm
    of the matching column, so the O(n^2) screen passes, but m is not normal."""
    rng = np.random.default_rng(seed)
    w = rng.random((n, n))
    return (w + w.T) * rng.choice([-1.0, 1.0], size=(n, n))


def near_normal_cycle(n=16, off=1e-11):
    """P of the directed n-cycle with an extra edge of weight off, row
    renormalized: normal to within linalg.NORMAL_TOL, not to roundoff."""
    p = bgft.transition(bgft.directed_cycle(n)).p.copy()
    p[0, 2] = off
    p[0] /= p[0].sum()
    return p


def multiset_distance(a, b):
    """Largest distance from each entry of b to the nearest entry of a not
    matched to an earlier one."""
    a, worst = list(a), 0.0
    for z in b:
        j = int(np.argmin(np.abs(np.array(a) - z)))
        worst = max(worst, abs(a.pop(j) - z))
    return worst


NORMAL_INPUTS = {
    **{f"directed-cycle-{n}": (lambda n=n: bgft.transition(bgft.directed_cycle(n)).p)
       for n in (3, 4, 16, 256)},
    **{f"directed-torus-{'x'.join(map(str, shape))}": (
        lambda shape=shape: bgft.transition(bgft.DirectedGraph(directed_torus(*shape))).p)
       for shape in [(3, 3), (4, 4), (6, 6), (12, 12), (4, 4, 4)]},
    **{f"weighted-circulant-{seed}": (lambda seed=seed: weighted_circulant(24, seed))
       for seed in range(3)},
    "biased-cycle-32": lambda: biased_cycle(32, 0.7),
}


class TestNormalRoute:
    """A real normal m takes eigh of its symmetric part and one batched eig
    per block size, never dgeev on m itself, and U* = V^H, never inv(V)."""

    @staticmethod
    def check_normal_route(m, monkeypatch):
        ref = np.linalg.eig(m)[0]
        with monkeypatch.context() as patch:
            counted(patch, np.linalg, "eig", refuse=lambda a, *rest: np.ndim(a) == 2)
            counted(patch, np.linalg, "inv", refuse=lambda *args: True)
            dec = bgft.eig_general(m)
        lam = dec.eigenvalues
        assert dec.solver == "geev"
        assert multiset_distance(lam, ref) <= 1e-12
        assert dec.cond_v <= 1 + 1e-12
        # The S frame is m's own (D = I), so the reported residual is the
        # returned arrays' Euclidean one, up to roundoff.
        recomputed = np.linalg.norm(m @ dec.right_vectors - dec.right_vectors * lam)
        assert abs(dec.residual - recomputed) <= linalg.residual_bound(m)
        assert_array_equal(np.sort_complex(lam), np.sort_complex(lam.conj()))

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_directed_cycle_vectors_to_roundoff(self, n):
        # V is the DFT: v_k[j] = exp(2 pi i k j / n) / sqrt(n), k read off
        # lambda_k, once the phase rule puts each pivot at j = 0.  eigh's
        # vectors alone were 3.5e-15, 3.1e-15 and 3.1e-14 off, at lambda = 1
        # and where (P + P^T) / 2 crowds its eigenvalues.
        dec = bgft.eig_general(bgft.transition(bgft.directed_cycle(n)).p)
        k = np.round(np.angle(dec.eigenvalues) * n / (2 * np.pi)).astype(int)
        j = np.arange(n)
        dft = np.exp(2j * np.pi * (np.outer(j, k) % n) / n) / np.sqrt(n)
        assert np.max(np.abs(dec.right_vectors - dft)) <= 2e-15

    @pytest.mark.parametrize("kind", sorted(NORMAL_INPUTS))
    def test_normal_input_skips_dgeev(self, kind, monkeypatch):
        self.check_normal_route(NORMAL_INPUTS[kind](), monkeypatch)

    def test_planted_normal_skips_dgeev(self, monkeypatch):
        for seed in range(50):
            self.check_normal_route(planted_normal(seed), monkeypatch)

    @pytest.mark.parametrize("make", [
        # The split's residual is ~135 times residual_bound.
        near_normal_cycle,
        # Eigenvalues 2e-8 apart, coupled by 1e-5: the split's residual is
        # far above residual_bound, while dgeev gives cond_v 1e3.
        lambda: np.array([[1.0, 1e-5], [0.0, 1.0 + 2e-8]]),
    ], ids=["residual-above-bound", "split-defective"])
    def test_near_normal_takes_dgeev(self, make, monkeypatch):
        # Within NORMAL_TOL, so the split is tried, but it is refused: dgeev
        # runs and gives its own result.
        p = make()
        assert linalg.commutator_norm(p) <= linalg.NORMAL_TOL * np.linalg.norm(p) ** 2
        ref = dgeev_decomposition(p)
        eigh_calls = counted(monkeypatch, np.linalg, "eigh")
        eig_calls = counted(monkeypatch, np.linalg, "eig")
        dec = bgft.eig_general(p)
        assert len(eigh_calls) == 1
        assert [np.shape(args[0]) for args in eig_calls][-1] == p.shape
        for field in ("eigenvalues", "right_vectors", "left_dual"):
            assert_array_equal(getattr(dec, field), getattr(ref, field))
        assert (dec.cond_v, dec.residual) == (ref.cond_v, ref.residual)

    def test_screen_spares_non_normal_chains(self, monkeypatch, property_suite,
                                             canonical_bases):
        # Row and column norms differ, so neither the commutator GEMMs nor
        # eigh run.
        chains = [op.p for op, _ in property_suite]
        chains += [canonical_bases["perturbed"][0].p,
                   bgft.transition(random_digraph(64, 3)).p]
        counted(monkeypatch, linalg, "commutator_norm", refuse=lambda *args: True)
        counted(monkeypatch, np.linalg, "eigh", refuse=lambda *args: True)
        for p in chains:
            assert bgft.eig_general(p).solver == "geev"

    @pytest.mark.parametrize("seed", range(3))
    def test_screen_passing_non_normal_never_reaches_eigh(self, seed, monkeypatch):
        m = signed_symmetric(8, seed)
        assert_allclose(np.linalg.norm(m, axis=1), np.linalg.norm(m, axis=0), rtol=1e-15)
        ref = dgeev_decomposition(m)
        counted(monkeypatch, np.linalg, "eigh", refuse=lambda *args: True)
        dec = bgft.eig_general(m)
        for field in ("eigenvalues", "right_vectors", "left_dual"):
            assert_array_equal(getattr(dec, field), getattr(ref, field))

    def test_split_loads_no_numpy_ma(self):
        # np.unique and np.setdiff1d import numpy.ma on first use (numpy
        # 2.4), ~10 ms of every fresh process that decomposes a normal chain.
        src = str(Path(bgft.__file__).resolve().parent.parent)
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import bgft; "
                "b = bgft.decompose(bgft.transition(bgft.directed_cycle(16))); "
                "print(b.eig.solver, 'numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, check=True).stdout
        assert out == "geev False\n"


BIRTH_DEATH_CASES = [(12, 0.1), (20, 0.1), (30, 0.1), (40, 0.2), (60, 0.3), (200, 0.4)]


def two_disjoint_cycles():
    a = np.zeros((10, 10))
    a[:5, :5] = a[5:, 5:] = bgft.undirected_cycle(5).adjacency
    return bgft.transition(bgft.DirectedGraph(a)).p


class TestSymmetrizedRoute:
    """A real m that a positive diagonal similarity makes symmetric takes
    eigh of S = D m D^{-1}, with D from detailed balance along a tree."""

    @pytest.mark.parametrize("n, r", BIRTH_DEATH_CASES)
    def test_balancing_diagonal_is_birth_death_pi(self, n, r):
        d = linalg._balancing_diagonal(bgft.transition(birth_death_chain(n, r)).p)
        pi = (r / (1 - r)) ** np.arange(n)
        pi /= pi.sum()
        assert_allclose(d ** 2 / np.sum(d ** 2), pi, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [32, 256])
    def test_balancing_diagonal_is_stationary_pi(self, n):
        op = bgft.transition(random_reversible_graph(n, 8))
        d = linalg._balancing_diagonal(op.p)
        assert_allclose(d ** 2 / np.sum(d ** 2), bgft.stationary(op).pi, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("make", [
        lambda: bgft.transition(bgft.directed_cycle(8)).p,  # asymmetric support
        two_disjoint_cycles,  # node 5..9 unreached
        lambda: signed_symmetric(8, 0),  # some m_ij / m_ji < 0
        # d_j^2 = 1e-10^j underflows to 0 from j = 33 on
        lambda: bgft.transition(birth_death_chain(40, 1e-10)).p,
    ], ids=["directed-cycle", "disjoint-cycles", "signed-symmetric", "underflow"])
    def test_balancing_diagonal_refused(self, make):
        assert linalg._balancing_diagonal(make()) is None

    @pytest.mark.parametrize("n, r", BIRTH_DEATH_CASES)
    def test_birth_death_chain_never_reaches_dgeev(self, n, r, monkeypatch):
        # eigh's residual in the S frame is at roundoff on every chain, so
        # its result is kept.  At n = 30 and 200 the Euclidean V is
        # numerically singular, and that raises without a dgeev retry,
        # whose V would have the same singular values.
        p = bgft.transition(birth_death_chain(n, r)).p
        counted(monkeypatch, np.linalg, "eig", refuse=lambda *args: True)
        if n in (30, 200):
            with pytest.raises(DefectiveMatrixError, match=(
                    r"^eigenvector matrix is numerically singular: sigma_min/sigma_max = "
                    r"\S+ <= RANK_RCOND = 1e-12$")):
                bgft.eig_general(p)
            return
        dec = bgft.eig_general(p)
        assert dec.solver == "eigh"
        closed = np.r_[1.0, 2 * np.sqrt(r * (1 - r)) * np.cos(np.pi * np.arange(1, n) / n)]
        assert_allclose(dec.eigenvalues, np.sort(closed)[::-1], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n, r", [case for case in BIRTH_DEATH_CASES
                                      if case not in ((30, 0.1), (200, 0.4))])
    def test_reported_residual_is_the_s_frame_one(self, n, r):
        # The Euclidean ||P V - V Lambda||_F of the returned V reads up to
        # 6.9e-10 here (n = 20), far above this bound; the S-frame residual
        # that kept the eigenpairs is at roundoff.  V = D^-1 V_S with unit
        # columns, so cond(D) = sqrt(max pi / min pi) times it bounds the
        # Euclidean one, which stays within the DEFECTIVE_TOL that dgeev's
        # result is held to.
        op = bgft.transition(birth_death_chain(n, r))
        dec = bgft.eig_general(op.p)
        assert dec.solver == "eigh"
        dist = bgft.stationary(op)
        assert dec.residual <= linalg.residual_bound(bgft.symmetrize(op, dist))
        v = dec.right_vectors
        euclidean = np.linalg.norm(op.p @ v - v * dec.eigenvalues)
        cond_d = np.sqrt(dist.pi.max() / dist.pi.min())
        assert euclidean <= cond_d * dec.residual + linalg.residual_bound(op.p)
        assert euclidean <= linalg.DEFECTIVE_TOL * max(1.0, np.linalg.norm(op.p))

    def test_overflowing_s_refused_before_eigh(self, monkeypatch):
        # Finite, with symmetric support and d = (1, 1e150, 1e150), but
        # S = D m D^-1 overflows to inf at (1, 2), where ||S - S^T||_F <=
        # NORMAL_TOL * ||S||_F would read inf <= inf.
        m = np.array([[0, 1e300, 1e300], [1, 0, 1e300], [1, 1, 0]])
        assert_allclose(linalg._balancing_diagonal(m), [1, 1e150, 1e150])
        with np.errstate(all="ignore"):
            with pytest.raises(DefectiveMatrixError) as ref:
                dgeev_decomposition(m)
            counted(monkeypatch, np.linalg, "eigh", refuse=lambda *args: True)
            with pytest.raises(DefectiveMatrixError) as err:
                bgft.eig_general(m)
        assert str(err.value) == str(ref.value)


class TestEigGeneral:
    def test_identity(self):
        dec = bgft.eig_general(np.eye(3))
        assert_allclose(dec.eigenvalues, np.ones(3))
        assert dec.cond_v == pytest.approx(1.0)

    def test_swap_matrix(self):
        dec = bgft.eig_general([[0, 1], [1, 0]])
        assert_allclose(dec.eigenvalues, [1, -1], atol=1e-14)

    def test_directed_4cycle_roots_of_unity(self):
        # characteristic polynomial of the cyclic shift is z^4 - 1
        p = bgft.transition(bgft.directed_cycle(4)).p
        dec = bgft.eig_general(p)
        expected = np.array([1, 1j, -1j, -1])
        # match as a multiset: ties in Re are roundoff-sensitive
        for z in expected:
            assert np.min(np.abs(dec.eigenvalues - z)) <= 1e-12
        assert dec.cond_v == pytest.approx(1.0, abs=1e-10)

    def test_mode_order_ties(self):
        # The mode order: descending Re lambda, then ascending |Im lambda|,
        # then ascending Im lambda.  On a real part shared by a real
        # eigenvalue and a pair, the real eigenvalue comes first; the pair
        # comes negative-imaginary first.  This m takes the dgeev route.
        m = np.zeros((3, 3))
        m[0, 0] = 0.3
        m[1:, 1:] = [[0.3, 2.0], [-0.5, 0.3]]
        assert linalg._eigh_route(m) is None
        dec = bgft.eig_general(m)
        assert_allclose(dec.eigenvalues, [0.3, 0.3 - 1j, 0.3 + 1j], rtol=0, atol=1e-14)
        lam = bgft.eig_general(random_digraph(16, 3).adjacency).eigenvalues
        key = np.lexsort((lam.imag, np.abs(lam.imag), -lam.real))
        assert np.array_equal(key, np.arange(16))

    def test_unit_columns_and_phase(self):
        dec = bgft.eig_general(random_digraph(12, 5).adjacency)
        v = dec.right_vectors
        assert_allclose(np.linalg.norm(v, axis=0), np.ones(12), atol=1e-12)
        for k in range(12):
            pivot = v[np.argmax(np.abs(v[:, k])), k]
            assert abs(pivot.imag) <= 1e-12
            assert pivot.real > 0

    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_phase_rule_survives_roundoff(self, n):
        # Every entry of the directed cycle's eigenvectors has modulus
        # 1/sqrt(n), so a pivot of largest modulus is roundoff's pick (V
        # moved by 0.25, 0.13 and 0.088 under that rule).  P scaled entrywise
        # by 1 + eps * r keeps V.  Its rows are not renormalized: each has
        # one entry, which renormalizing would restore exactly.
        p = bgft.transition(bgft.directed_cycle(n)).p
        r = np.random.default_rng(n).standard_normal(p.shape)
        q = p * (1 + np.finfo(float).eps * r)
        assert not np.array_equal(p, q)
        v, w = (bgft.eig_general(m).right_vectors for m in (p, q))
        assert np.max(np.abs(v - w)) <= 1e-10

    def test_normalization_matches_column_loop(self):
        # No repeated eigenvalues, so the columns are LAPACK's, normalized
        # one at a time here as the reference.
        m = random_digraph(12, 5).adjacency
        lam, v = np.linalg.eig(m)
        v = v[:, np.lexsort((lam.imag, np.abs(lam.imag), -lam.real))]
        for k in range(12):
            v[:, k] /= np.linalg.norm(v[:, k])
            pivot = v[np.argmax(np.abs(v[:, k])), k]
            v[:, k] *= np.conj(pivot) / abs(pivot)
        assert_allclose(bgft.eig_general(m).right_vectors, v, rtol=0, atol=1e-15)

    def test_type_invariants(self):
        m = bgft.transition(random_digraph(20, 7)).p
        dec = bgft.eig_general(m)
        lam, v, u = dec.eigenvalues, dec.right_vectors, dec.left_dual
        assert np.linalg.norm(m @ v - v * lam) <= 1e-10 * max(1, np.linalg.norm(m))
        assert np.linalg.norm(u @ v - np.eye(20)) <= 1e-8

    def test_deterministic_bit_identical(self):
        m = random_digraph(16, 11).adjacency
        d1 = bgft.eig_general(m)
        d2 = bgft.eig_general(m)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.right_vectors, d2.right_vectors)
        assert np.array_equal(d1.left_dual, d2.left_dual)

    def test_symmetric_real_input(self):
        rng = np.random.default_rng(0)
        m = rng.random((10, 10))
        m = m + m.T
        dec = bgft.eig_general(m)
        assert np.max(np.abs(dec.eigenvalues.imag)) <= 1e-10
        assert dec.cond_v <= 1 + 1e-6

    def test_degenerate_cluster_reorthonormalized(self):
        # even undirected cycle has doubly degenerate eigenvalues
        p = bgft.transition(bgft.undirected_cycle(16)).p
        assert bgft.eig_general(p).cond_v <= 1 + 1e-6

    def test_parallel_eigenvectors_of_repeated_eigenvalue(self):
        # dgeev returns parallel vectors for the 4-cycle's double eigenvalue
        # 0 (cond ~ 9e17).  Being reversible, this chain takes the
        # symmetrized route in eig_general, so dgeev's result is built here
        # directly: the cluster basis comes from the null space of P.
        p = bgft.transition(bgft.undirected_cycle(4)).p
        assert np.linalg.cond(np.linalg.eig(p)[1]) > 1e12
        for dec in (bgft.eig_general(p), dgeev_decomposition(p)):
            assert dec.cond_v == pytest.approx(1.0, abs=1e-12)
            assert dec.residual <= 1e-14
            v = dec.right_vectors
            assert np.linalg.norm(p @ v - v * dec.eigenvalues) <= 1e-14
            assert_allclose(dec.eigenvalues, [1, 0, 0, -1], atol=1e-14)
        # The same on the 4-cycle with edge weights (1, 2, 2, 1), whose P
        # is not normal.  Without the null-space basis dgeev's result reads
        # cond_v ~ 8e7.
        a = np.zeros((4, 4))
        for i, w in enumerate((1, 2, 2, 1)):
            a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = w
        p = bgft.transition(bgft.DirectedGraph(a)).p
        assert np.linalg.cond(np.linalg.eig(p)[1]) > 1e6
        dec = dgeev_decomposition(p)
        assert dec.cond_v <= 1.5
        assert dec.residual <= 1e-14
        assert_allclose(dec.eigenvalues, [1, 0, 0, -1], atol=1e-14)

    def test_near_reversible_cluster_repaired_through_eig_general(self, monkeypatch):
        # The weighted 4-cycle above with edge 0 -> 1 scaled by 1 + 1e-11:
        # S is symmetric within NORMAL_TOL, but eigh's residual is past
        # residual_bound, so eig_general takes dgeev.  The double 0 splits
        # into +-1.3e-14, one cluster closed under conjugation, which takes
        # one real QR of its two frame columns.  Unrepaired, cond_v is 213.
        a = np.zeros((4, 4))
        for i, w in enumerate((1, 2, 2, 1)):
            a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = w
        a[0, 1] *= 1 + 1e-11
        p = bgft.transition(bgft.DirectedGraph(a)).p
        assert linalg._eigh_route(p) is None
        assert np.linalg.cond(np.linalg.eig(p)[1]) > 100
        qr_calls = counted(monkeypatch, np.linalg, "qr")
        dec = bgft.eig_general(p)
        assert dec.solver == "geev"
        assert [(q.shape, q.dtype) for q, *_ in qr_calls] == [((4, 2), np.float64)]
        assert dec.cond_v <= 1.5
        v, u, lam = dec.right_vectors, dec.left_dual, dec.eigenvalues
        assert_allclose(lam, [1, 0, 0, -1], atol=1e-13)
        assert np.linalg.norm(p @ v - v * lam) <= 1e-10
        assert np.linalg.norm(u @ v - np.eye(4)) <= 1e-14

    def test_cluster_of_upper_pair_members(self, monkeypatch):
        # A repeated conjugate pair 0.3 +- 0.8i of a non-normal M: dgeev's
        # two vectors of 0.3 + 0.8i are a cluster of Im > 0 members, which
        # takes the QR of their complex 6 x 2 block, and the conjugate
        # cluster follows.  dgeev's own vectors have cond 20.8.
        r = np.array([[0.3, 0.8], [-0.8, 0.3]])
        d = np.zeros((6, 6))
        d[:2, :2] = d[2:4, 2:4] = r
        d[4, 4], d[5, 5] = 0.5, -0.2
        s = np.random.default_rng(0).standard_normal((6, 6))
        m = s @ d @ np.linalg.inv(s)
        qr_calls = counted(monkeypatch, np.linalg, "qr")
        dec = bgft.eig_general(m)
        assert dec.solver == "geev"
        assert [(a.shape, a.dtype) for a, *_ in qr_calls] == [((6, 2), np.complex128)]
        v, u, lam = dec.right_vectors, dec.left_dual, dec.eigenvalues
        assert np.linalg.norm(u @ v - np.eye(6)) <= 1e-12 * dec.cond_v
        assert dec.residual <= linalg.residual_bound(m)
        assert np.linalg.norm(m @ v - v * lam) <= linalg.residual_bound(m)
        cluster = np.flatnonzero(np.abs(lam - (0.3 + 0.8j)) <= 1e-8)
        assert cluster.size == 2
        assert_allclose(v[:, cluster].conj().T @ v[:, cluster], np.eye(2), atol=1e-14)
        assert dec.cond_v <= 10

    def test_jordan_block_defective(self):
        with pytest.raises(DefectiveMatrixError):
            bgft.eig_general([[1, 1], [0, 1]])

    def test_reconstruction_property(self):
        for seed in range(5):
            m = bgft.transition(random_digraph(12, 40 + seed)).p
            dec = bgft.eig_general(m)
            rebuilt = (dec.right_vectors * dec.eigenvalues) @ dec.left_dual
            assert np.linalg.norm(m - rebuilt) <= 1e-8 * np.linalg.norm(m)

    def test_size_512(self):
        dec = bgft.eig_general(bgft.transition(bgft.directed_cycle(512)).p)
        assert dec.cond_v == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4), (6, 6), (12, 12), (4, 4, 4)])
    def test_directed_torus_is_normal_with_unit_cond(self, shape):
        # Asymmetric but normal: its repeated eigenvalues include conjugate
        # pairs whose copies roundoff in Re(lambda) sorts apart.
        p = bgft.transition(bgft.DirectedGraph(directed_torus(*shape))).p
        assert bgft.departure_from_normality(p) <= 1e-14
        assert bgft.eig_general(p).cond_v <= 1 + 1e-8

    def test_planted_normal_repeated_pairs_unit_cond(self):
        conds = {seed: bgft.eig_general(planted_normal(seed)).cond_v for seed in range(50)}
        assert {seed: c for seed, c in conds.items() if c > 1 + 1e-8} == {}

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            bgft.eig_general([[np.nan, 0], [0, 1]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="requires a square matrix"):
            bgft.eig_general(np.ones((2, 3)))

    @pytest.mark.parametrize("make", [
        lambda rng: rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)),
        lambda rng: np.eye(6) * (1 + 0j),  # complex dtype, real values
    ], ids=["complex", "complex-dtype"])
    def test_rejects_complex(self, make, monkeypatch):
        m = make(np.random.default_rng(6))
        for name in ("eig", "eigh"):
            counted(monkeypatch, np.linalg, name, refuse=lambda *args: True)
        with pytest.raises(ValueError, match="^eig_general requires a real matrix$"):
            bgft.eig_general(m)


# The benchmark's five analyze kinds at n = 256.
MEMORY_KINDS = {
    "undirected-cycle": lambda: bgft.undirected_cycle(256),
    "directed-cycle": lambda: bgft.directed_cycle(256),
    "perturbed-cycle": lambda: bgft.add_directed_chord(bgft.directed_cycle(256), 20, 0, 128),
    "random-reversible": lambda: random_reversible_graph(256, 3),
    "random-nonreversible": lambda: random_digraph(256, 3),
}


class TestFrames:
    """m's basis is kept as two real frames, V = V_f T^H and U* = T U_f."""

    @staticmethod
    def traced(m):
        """eig_general(m), and the bytes it kept and peaked at under
        tracemalloc, in units of one n x n float64 array."""
        bgft.eig_general(m)  # untimed, untraced: first calls set up numpy's caches
        tracemalloc.start()
        try:
            dec = bgft.eig_general(m)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        unit = m.shape[0] ** 2 * 8
        return dec, retained / unit, peak / unit

    @pytest.mark.parametrize("kind", sorted(MEMORY_KINDS))
    def test_memory_is_two_real_frames(self, kind):
        # Complex V and U* took 4 units, and dgeev's checks peaked at 7.1:
        # the eig call's complex vectors are the one complex n x n array.
        dec, retained, peak = self.traced(bgft.transition(MEMORY_KINDS[kind]()).p)
        assert dec.right_frame.dtype == dec.dual_frame.dtype == np.float64
        assert retained <= 2.1
        if kind in ("perturbed-cycle", "random-nonreversible"):
            assert dec.solver == "geev"
            assert peak <= 4
        if kind == "directed-cycle":
            # The normal split: F and S F are written over Q and S Q, and
            # the correction is solved in place from F^T R (5.07 measured).
            assert dec.solver == "geev"
            assert peak <= 5.2

    @pytest.mark.parametrize("make", [
        lambda: bgft.add_directed_chord(bgft.directed_cycle(32), 20, 0, 16),
        lambda: bgft.directed_cycle(32),
        lambda: random_reversible_graph(16, 2),
    ], ids=["dgeev", "normal-split", "eigh"])
    def test_frame_operations_match_assembled_arrays(self, make):
        dec = bgft.eig_general(bgft.transition(make()).p)
        v, u, lam = dec.right_vectors, dec.left_dual, dec.eigenvalues
        a, b = dec.pairs
        assert_array_equal(lam[b], lam[a].conj())
        assert_array_equal(v[:, b], v[:, a].conj())
        assert np.all(lam[a].imag > 0)
        assert np.all(lam.imag[np.setdiff1d(np.arange(dec.n), dec.pairs)] == 0)
        idx = [3, 0, dec.n - 1, 3]
        assert_array_equal(dec.right_columns(idx), v[:, idx])
        rng = np.random.default_rng(4)
        x = rng.standard_normal(dec.n)
        z = x + 1j * rng.standard_normal(dec.n)
        for y in (x, z):
            assert_allclose(dec.left_apply(y), u @ y, rtol=0, atol=1e-13 * np.linalg.norm(y))
            assert_allclose(dec.right_apply(y), v @ y, rtol=0, atol=1e-13 * np.linalg.norm(y))
        # U* of a real x is conjugate-symmetric, so V maps it back to a real x.
        assert_allclose(dec.right_apply(dec.left_apply(x)), x, rtol=0, atol=1e-13)
        assert not dec.right_apply(dec.left_apply(x)).imag.any()


class TestArrayRule:
    # as_matrix and as_vector convert by one rule: complex128 if the input
    # is complex, float64 otherwise; exact dimensions, nonempty, finite.
    @pytest.mark.parametrize("x,dtype", [
        ([1, 2], np.float64),
        (np.arange(3, dtype=np.int32), np.float64),
        (np.ones(2, dtype=np.float32), np.float64),
        ([True, False], np.float64),
        ([1.0, 2j], np.complex128),
        (np.ones(2, dtype=np.complex64), np.complex128),
    ])
    def test_dtype(self, x, dtype):
        assert bgft.linalg.as_vector(x).dtype == dtype
        assert bgft.linalg.as_matrix([x]).dtype == dtype

    def test_real_float64_vector_not_copied(self):
        x = np.arange(3.0)
        assert bgft.linalg.as_vector(x) is x

    @pytest.mark.parametrize("x", [np.ones((2, 2)), np.ones((3, 1)), 1.0, []])
    def test_vector_needs_one_nonempty_dimension(self, x):
        with pytest.raises(ValueError, match="nonempty 1-d vector"):
            bgft.linalg.as_vector(x)

    def test_vector_length_and_finite(self):
        with pytest.raises(ValueError, match="expected vector of length 3, got 2"):
            bgft.linalg.as_vector([1.0, 2.0], 3)
        with pytest.raises(ValueError, match="finite"):
            bgft.linalg.as_vector([1.0, np.inf])


class TestCountRule:
    # as_count admits every count: integers of any type pass as a Python
    # int, floats are refused rather than truncated, then the range holds.
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_integers_pass(self, value):
        count = bgft.linalg.as_count(value, "k", 1, 5)
        assert count == 3 and type(count) is int

    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), "3", None])
    def test_non_integers_refused(self, value):
        with pytest.raises(ValueError, match="expected an integer k"):
            bgft.linalg.as_count(value, "k", 1)

    @pytest.mark.parametrize("value,high,message", [
        (0, None, "k must be >= 1, got 0"),
        (0, 5, "k must be in 1..5, got 0"),
        (6, 5, "k must be in 1..5, got 6"),
    ])
    def test_range(self, value, high, message):
        with pytest.raises(InvalidSizeError, match=message):
            bgft.linalg.as_count(value, "k", 1, high, InvalidSizeError)


class TestSvd:
    """lstsq factors its matrix once and returns that SVD's singular values."""

    @staticmethod
    def singular_values(m):
        m = np.asarray(m)
        return bgft.lstsq(m, np.zeros(m.shape[0])).singular_values

    def test_identity(self):
        assert_allclose(self.singular_values(np.eye(4)), np.ones(4))

    def test_diag(self):
        sol = bgft.lstsq(np.diag([3.0, 0.0]), [1.0, 1.0])
        assert_allclose(sol.singular_values, [3, 0])
        assert sol.rank == 1 and sol.rank_deficient

    def test_gram_oracle(self):
        rng = np.random.default_rng(1)
        m = rng.random((5, 3))
        s = self.singular_values(m)
        gram_eigs = np.linalg.eigvalsh(m.T @ m)[::-1]
        assert_allclose(s, np.sqrt(np.maximum(gram_eigs, 0)), rtol=1e-8)

    def test_adjoint_has_same_spectrum(self):
        rng = np.random.default_rng(3)
        m = rng.random((7, 5)) + 1j * rng.random((7, 5))
        assert_allclose(
            self.singular_values(m),
            self.singular_values(m.conj().T),
            atol=1e-10,
        )

    def test_nonincreasing(self):
        s = self.singular_values(np.random.default_rng(4).random((8, 8)))
        assert np.all(np.diff(s) <= 0)


class TestCondAndNorms:
    def test_cond_perturbed_basis_matches_table(self):
        g = bgft.add_directed_chord(bgft.directed_cycle(64), 20, 0, 32)
        dec = bgft.eig_general(bgft.transition(g).p)
        assert np.linalg.cond(dec.right_vectors) == pytest.approx(
            28.011585066632986, rel=0.01
        )
        assert dec.cond_v == pytest.approx(np.linalg.cond(dec.right_vectors), rel=1e-10)

    def test_spectral_norm(self):
        assert bgft.spectral_norm2(np.diag([2.0, 1.0])) == pytest.approx(2.0)


class TestLstsq:
    def test_identity(self):
        y = np.array([1 + 2j, 3.0, -1j])
        sol = bgft.lstsq(np.eye(3), y)
        assert_allclose(sol.coeffs, y)
        assert not sol.rank_deficient

    def test_overdetermined_consistent(self):
        rng = np.random.default_rng(5)
        b = rng.random((8, 3)) + 1j * rng.random((8, 3))
        c0 = rng.random(3) + 1j * rng.random(3)
        sol = bgft.lstsq(b, b @ c0)
        assert_allclose(sol.coeffs, c0, atol=1e-10)

    def test_normal_equations_oracle(self):
        rng = np.random.default_rng(6)
        b = rng.random((8, 3)) + 1j * rng.random((8, 3))
        y = rng.random(8) + 1j * rng.random(8)
        oracle = np.linalg.solve(b.conj().T @ b, b.conj().T @ y)
        assert_allclose(bgft.lstsq(b, y).coeffs, oracle, atol=1e-8)

    def test_rank_deficient_flagged_min_norm(self):
        b = np.array([[1.0, 1.0], [1.0, 1.0]])
        sol = bgft.lstsq(b, [2.0, 2.0])
        assert sol.rank_deficient
        assert sol.rank == 1
        assert_allclose(sol.coeffs, [1.0, 1.0], atol=1e-12)  # min-norm solution

    def test_numpy_lstsq_oracle_wide_and_zero(self):
        rng = np.random.default_rng(8)
        for b in (rng.random((3, 5)) + 1j * rng.random((3, 5)), np.zeros((4, 2))):
            y = rng.random(b.shape[0])
            sol = bgft.lstsq(b, y)
            want, _, rank, _ = np.linalg.lstsq(b, y, rcond=bgft.linalg.RANK_RCOND)
            assert sol.rank == rank
            assert sol.rank_deficient == (rank < b.shape[1])
            assert_allclose(sol.coeffs, want, atol=1e-10)
