"""TransitionOperator.eig is eig_general's: reversible chains go to eigh of
the symmetrized operator, every other chain to the normal split or dgeev, and
the eigh route agrees with dgeev wherever both apply."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import bgft
from bgft import linalg
from bgft.errors import DefectiveMatrixError, NotIrreducibleError

from conftest import (birth_death_chain, counted, dgeev_decomposition, random_digraph,
                      random_reversible_graph)

AGREE_TOL = 1e-10


def weighted_4cycle(seed):
    """Undirected 4-cycle with integer edge weights 1..4: reversible, and
    P is not symmetric unless the weights make it so."""
    w = np.random.default_rng(seed).integers(1, 5, size=4)
    a = np.zeros((4, 4))
    for i in range(4):
        a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = w[i]
    return bgft.DirectedGraph(a)


def rank1_bipartite(seed):
    """Complete bipartite chain with A_ij = A_ji = x_i y_j across sides of
    2..4 nodes: reversible, with eigenvalue 0 of multiplicity n - 2."""
    rng = np.random.default_rng(seed)
    na, nb = rng.integers(2, 5, size=2)
    x, y = rng.integers(1, 5, size=na), rng.integers(1, 5, size=nb)
    a = np.zeros((na + nb, na + nb))
    a[:na, na:] = np.outer(x, y)
    a[na:, :na] = a[:na, na:].T
    return bgft.DirectedGraph(a)


def weighted_star(n):
    """Star joining node 0 to node i by weight i: reversible, with eigenvalue
    0 of multiplicity n - 2 and a non-uniform pi."""
    a = np.zeros((n, n))
    a[0, 1:] = a[1:, 0] = np.arange(1, n)
    return bgft.DirectedGraph(a)


def geev_operator(p):
    """An operator whose cached eig is dgeev's, whatever the chain."""
    op = bgft.TransitionOperator(p=p)
    op.__dict__["eig"] = dgeev_decomposition(p)
    return op


def relative_differences(op):
    """Largest relative differences of the mode-ordered eigenvalues and of
    cond_v between op's own decomposition and dgeev's, and, for either
    decomposition, of its sum-normalized lambda = 1 row of U* from
    stationary's pi."""
    ref = geev_operator(op.p)
    b, r = bgft.decompose(op), bgft.decompose(ref)
    lam, lam_ref = b.eigenvalues[b.order], r.eigenvalues[r.order]
    pi = bgft.stationary(op).pi
    rows = [basis.left_dual[basis.order[0]].real for basis in (b, r)]
    return (
        np.max(np.abs(lam - lam_ref)) / np.max(np.abs(lam_ref)),
        max(np.max(np.abs(u / u.sum() - pi) / pi) for u in rows),
        abs(b.cond_v - r.cond_v) / r.cond_v,
    )


ANALYZE_KINDS = {
    "undirected-cycle": (lambda: bgft.undirected_cycle(64), "eigh"),
    "random-reversible": (lambda: random_reversible_graph(64, 3), "eigh"),
    "directed-cycle": (lambda: bgft.directed_cycle(64), "geev"),
    "perturbed-cycle": (
        lambda: bgft.add_directed_chord(bgft.directed_cycle(64), 20, 0, 32), "geev"),
    "random-nonreversible": (lambda: random_digraph(64, 3), "geev"),
}


class TestSolverChoice:
    @pytest.mark.parametrize("kind", sorted(ANALYZE_KINDS))
    def test_solver_of_each_analyze_kind(self, kind):
        make, solver = ANALYZE_KINDS[kind]
        op = bgft.transition(make())
        assert op.eig.solver == solver
        assert bgft.is_reversible(op, bgft.stationary(op)) == (solver == "eigh")

    def test_nonreversible_chains_are_eig_general_bit_for_bit(self, property_suite,
                                                              canonical_bases):
        # The non-normal ones: the directed cycle takes the normal split,
        # which TestNormalRoute checks.
        ops = [op for op, _ in property_suite] + [canonical_bases["perturbed"][0]]
        for op in ops:
            dec, ref = op.eig, dgeev_decomposition(op.p)
            assert dec.solver == ref.solver == "geev"
            for field in ("eigenvalues", "right_vectors", "left_dual"):
                assert_array_equal(getattr(dec, field), getattr(ref, field))
            assert (dec.cond_v, dec.residual) == (ref.cond_v, ref.residual)

    def test_eigh_route_needs_no_lapack_eig_or_inverse(self, monkeypatch):
        # The second chain joins two copies of a 6-node chain, one with its
        # weights x4, by an edge of weight 1e-6: near-degenerate pairs with
        # non-uniform pi, whose eigenvectors eigh keeps pi-orthonormal.  The
        # undirected cycle's eigenvalues come in degenerate pairs, which
        # dgeev's cluster repair (its QR) would re-orthonormalize.
        a = np.zeros((12, 12))
        a[:6, :6] = random_reversible_graph(6, 2).adjacency
        a[6:, 6:] = 4 * a[:6, :6]
        a[0, 6] = a[6, 0] = 1e-6
        for g, n in [(random_reversible_graph(16, 4), 16), (bgft.DirectedGraph(a), 12),
                     (bgft.undirected_cycle(16), 16)]:
            op = bgft.transition(g)
            ref = dgeev_decomposition(op.p)
            with monkeypatch.context() as patch:
                for name in ("eig", "inv", "qr"):
                    counted(patch, np.linalg, name, refuse=lambda *args: True)
                dec = op.eig
            assert dec.solver == "eigh"
            assert dec.eigenvalues.dtype == dec.right_vectors.dtype == np.complex128
            assert dec.left_dual.dtype == np.complex128
            assert np.linalg.norm(dec.left_dual @ dec.right_vectors - np.eye(n)) <= 1e-12
            assert dec.residual <= linalg.residual_bound(op.p)
            v = dec.right_vectors
            assert np.linalg.norm(op.p @ v - v * dec.eigenvalues) <= linalg.residual_bound(op.p)
            assert np.max(np.abs(dec.eigenvalues - ref.eigenvalues)) <= 1e-14


class TestAgreementWithEigGeneral:
    @pytest.mark.parametrize("family", [weighted_4cycle, rank1_bipartite])
    def test_seeded_reversible_families(self, family):
        # eigh's basis of a degenerate cluster is pi-orthonormal where dgeev's
        # is QR'd to a Euclidean one, so cond_v agrees only on a simple
        # spectrum; W = Pi^{1/2} V (unit columns) is unitary on every seed.
        worst, worst_w = np.zeros(3), 0.0
        for seed in range(300):
            op = bgft.transition(family(seed))
            assert op.eig.solver == "eigh"
            lam_diff, pi_diff, cond_diff = relative_differences(op)
            simple = np.min(np.diff(np.sort(op.eig.eigenvalues.real))) > linalg.CLUSTER_TOL
            worst = np.maximum(worst, [lam_diff, pi_diff, cond_diff if simple else 0.0])
            sw = bgft.decompose(op).pi_metric[2]
            worst_w = max(worst_w, sw[0] / sw[-1] - 1)
        assert np.all(worst <= AGREE_TOL), worst
        assert worst_w <= 1e-12

    @pytest.mark.parametrize("make", [lambda: random_reversible_graph(64, 11),
                                      lambda: bgft.undirected_cycle(64)])
    def test_n64(self, make):
        op = bgft.transition(make())
        assert op.eig.solver == "eigh"
        assert np.all(np.array(relative_differences(op)) <= AGREE_TOL)

    def test_reversible_up_to_perturbation(self):
        a = random_reversible_graph(16, 5).adjacency.copy()
        a[0, 1] *= 1 + 1e-13
        op = bgft.transition(bgft.DirectedGraph(a))
        dist = bgft.stationary(op)
        assert bgft.is_reversible(op, dist) and not bgft.is_reversible(op, dist, tol=0.0)
        assert op.eig.solver == "eigh"
        assert op.eig.residual <= linalg.DEFECTIVE_TOL * max(1.0, np.linalg.norm(op.p))
        v = op.eig.right_vectors
        assert (np.linalg.norm(op.p @ v - v * op.eig.eigenvalues)
                <= linalg.DEFECTIVE_TOL * max(1.0, np.linalg.norm(op.p)))
        assert np.all(np.array(relative_differences(op)) <= AGREE_TOL)

    def test_eigh_residual_above_roundoff_goes_to_geev(self, monkeypatch):
        # Edge weights off by 1e-11 leave S asymmetric by 2.9e-11, within
        # linalg.NORMAL_TOL, so eigh runs; but that asymmetry puts eigh's
        # eigenpairs about 1000 units off P's, and dgeev's result is kept.
        a = random_reversible_graph(64, 3).adjacency.copy()
        edges = a != 0
        a[edges] += 1e-11 * np.random.default_rng(0).random(np.count_nonzero(edges))
        op = bgft.transition(bgft.DirectedGraph(a))
        eigh_calls = counted(monkeypatch, np.linalg, "eigh")
        assert op.eig.solver == "geev"
        assert len(eigh_calls) == 1
        unit = 64 * np.finfo(float).eps * max(1.0, np.linalg.norm(op.p))
        assert op.eig.residual <= unit
        lam_diff, pi_diff, cond_diff = relative_differences(op)
        assert lam_diff == cond_diff == 0 and pi_diff <= AGREE_TOL

    @pytest.mark.parametrize("make", [
        lambda: random_reversible_graph(32, 6),  # simple spectrum
        lambda: weighted_star(20),
        lambda: weighted_star(64),
        *[lambda seed=seed: rank1_bipartite(seed) for seed in range(5)],
    ], ids=["random-reversible", "star-20", "star-64",
            *[f"rank1-bipartite-{seed}" for seed in range(5)]])
    def test_energy_sandwich_collapses(self, make):
        op = bgft.transition(make())
        basis = bgft.decompose(op)
        assert basis.eig.solver == "eigh"
        x = np.random.default_rng(7).standard_normal(basis.n)
        rep = bgft.energy_report(basis, bgft.stationary(op), x)
        assert rep.tv_lower == pytest.approx(rep.tv_upper, rel=1e-12)
        assert rep.tv_pi == pytest.approx(rep.tv_upper, rel=1e-12)


class TestFailuresUnchanged:
    def test_two_disjoint_undirected_cycles(self):
        # The balancing tree reaches one cycle only, so the symmetrized
        # route refuses the chain; stationary refuses it by its own exact
        # test, a zero censored row sum.
        a = np.zeros((10, 10))
        a[:5, :5] = bgft.undirected_cycle(5).adjacency
        a[5:, 5:] = bgft.undirected_cycle(5).adjacency
        with pytest.raises(NotIrreducibleError):
            bgft.stationary(bgft.transition(bgft.DirectedGraph(a)))

    @pytest.mark.parametrize("decompose, match", [
        (lambda: bgft.TransitionOperator(p=np.array([[1.0, 1.0], [0.0, 1.0]])).eig, None),
        # Diagonalizable, and eig_general takes eigh; dgeev's V of it is too
        # ill-conditioned for its inverse to pass the dual residual.
        (lambda: dgeev_decomposition(bgft.transition(birth_death_chain(20, 0.1)).p),
         "dual residual="),
    ], ids=["jordan-block", "birth-death-dgeev"])
    def test_non_diagonalizable(self, decompose, match):
        with pytest.raises(DefectiveMatrixError, match=match):
            decompose()

    def test_defective_stochastic_chain(self):
        # eigenvalue 1/2 has one eigenvector for multiplicity 2; pi = e_2
        a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(DefectiveMatrixError):
            bgft.transition(bgft.DirectedGraph(a)).eig
