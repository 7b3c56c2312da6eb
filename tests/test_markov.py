import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bgft
from bgft import markov
from bgft.errors import NotIrreducibleError, SinkNodeError

from conftest import (
    birth_death_chain,
    random_digraph,
    random_reversible_graph,
    transient_chain,
)


class TestTransition:
    def test_directed_cycle_is_permutation(self):
        op = bgft.transition(bgft.directed_cycle(6))
        expected = np.zeros((6, 6))
        for i in range(6):
            expected[i, (i + 1) % 6] = 1
        assert_allclose(op.p, expected)

    def test_sink_raises(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SinkNodeError) as exc:
            bgft.transition(bgft.DirectedGraph(a))
        assert exc.value.node == 1
        assert "sink node" in str(exc.value)

    def test_perturbed_row_normalization(self):
        # row 0 weights (0, 1, 0, ..., 20 at col 32, ...) -> (0, 1/21, ..., 20/21)
        g = bgft.add_directed_chord(bgft.directed_cycle(64), 20, 0, 32)
        p = bgft.transition(g).p
        expected = np.zeros(64)
        expected[1] = 1 / 21
        expected[32] = 20 / 21
        assert_allclose(p[0], expected)

    def test_row_stochastic_and_laplacian_kernel(self, property_suite):
        for op, _ in property_suite:
            ones = np.ones(op.n)
            assert np.linalg.norm(op.p @ ones - ones) <= 1e-12 * np.sqrt(op.n)
            assert np.linalg.norm(op.l_rw @ ones) <= 1e-12 * np.sqrt(op.n)
            assert np.all(op.p.real >= 0)


def sparse_operator(n, per_row, seed):
    """Row-stochastic P with per_row nonzeros in each row, at random places."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for i in range(n):
        a[i, rng.choice(n, size=per_row, replace=False)] = rng.random(per_row) + 0.1
    return markov.TransitionOperator(p=a / a.sum(axis=1)[:, None])


def with_row_view(p):
    """An operator on p whose apply takes the row view, whatever p's density."""
    op = markov.TransitionOperator(p=p)
    op.__dict__["_row_view"] = markov.row_view(p)
    return op


CYCLES = {
    "directed": lambda n: bgft.directed_cycle(n),
    "undirected": lambda n: bgft.undirected_cycle(n),
    "perturbed": lambda n: bgft.add_directed_chord(bgft.directed_cycle(n), 20, 0, n // 2),
}


class TestApply:
    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("kind", sorted(CYCLES))
    def test_cycles_bit_identical_to_dense(self, kind, n):
        op = bgft.transition(CYCLES[kind](n))
        assert op._row_view is not None
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            assert np.array_equal(op.apply(x), op.p @ x)
            want = x
            for _ in range(30):
                want = op.p @ want
            assert np.array_equal(bgft.diffuse_direct(op, x, 30), want)

    @pytest.mark.parametrize("per_row", [3, 8, 16])
    def test_random_sparse_agrees_with_dense(self, per_row):
        for seed in range(4):
            op = sparse_operator(96, per_row, seed)
            view = with_row_view(op.p)
            x = np.random.default_rng(seed).standard_normal(96)
            tol = 1e-14 * np.linalg.norm(x)
            assert np.linalg.norm(view.apply(x) - op.p @ x) <= tol
            want = x
            for _ in range(10):
                want = op.p @ want
            assert np.linalg.norm(bgft.diffuse_direct(view, x, 10) - want) <= tol

    @pytest.mark.parametrize("zero_rows", [[0], [31], [63], [0, 1, 63], list(range(64))])
    def test_zero_and_self_loop_rows(self, zero_rows):
        # np.add.reduceat gives x[start] for an empty segment, and refuses a
        # start past the data; a row of zeros must still give 0.
        p = bgft.transition(bgft.directed_cycle(64)).p.copy()
        p[10] = 0.0
        p[10, 10] = 1.0  # a self-loop only
        p[zero_rows] = 0.0
        op = markov.TransitionOperator(p=p)
        assert op._row_view is not None
        x = np.random.default_rng(9).standard_normal(64)
        for z in (x, x + 1j * x[::-1]):
            y = op.apply(z)
            assert np.array_equal(y, p @ z)
            assert np.all(y[zero_rows] == 0)

    def test_dtype_follows_x(self):
        op = bgft.transition(CYCLES["perturbed"](512))
        x = np.random.default_rng(3).standard_normal(512)
        assert op.apply(x).dtype == np.float64
        assert op.apply(x + 0j).dtype == np.complex128
        assert np.array_equal(op.apply(x + 0j).real, op.apply(x))

    def test_density_rule_picks_the_path(self):
        n = 64  # n^2 / ROW_VIEW_DENSITY = 128 nonzeros
        p = np.zeros((n, n))
        p.flat[:n * n // markov.ROW_VIEW_DENSITY] = 1.0
        assert markov.TransitionOperator(p=p)._row_view is not None
        p.flat[n * n // markov.ROW_VIEW_DENSITY] = 1.0
        assert markov.TransitionOperator(p=p)._row_view is None

    def test_dense_operator_builds_no_index_arrays(self):
        n = 256
        op = bgft.transition(random_digraph(n, 4))
        x = np.random.default_rng(4).standard_normal(n)
        tracemalloc.start()
        try:
            y = op.apply(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op._row_view is None
        assert np.array_equal(y, op.p @ x)
        assert peak < 0.1 * n * n

    def test_complex_x_on_dense_operator_casts_no_matrix(self):
        # p @ x with a complex x would make a complex128 copy of P, n^2 * 16 bytes.
        n = 512
        op = bgft.transition(random_digraph(n, 1))
        rng = np.random.default_rng(5)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tracemalloc.start()
        try:
            y = op.apply(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op._row_view is None
        assert peak < n * n * 8
        assert y.dtype == np.complex128
        assert np.linalg.norm(y - op.p @ x) <= 1e-14 * np.linalg.norm(x)

    def test_length_checked(self):
        op = bgft.transition(CYCLES["perturbed"](64))
        for x in (np.ones(63), np.ones(65), np.ones((64, 1))):
            with pytest.raises(ValueError, match="expected vector of length 64"):
                op.apply(x)


class TestIndices:
    def test_symmetric_alpha_zero(self):
        m = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert bgft.asymmetry_index(m) == 0.0

    def test_directed_cycle_alpha(self):
        p = bgft.transition(bgft.directed_cycle(64)).p
        assert bgft.asymmetry_index(p) == pytest.approx(1.4142135623730951, abs=1e-14)

    def test_perturbed_alpha_delta_table1(self):
        g = bgft.add_directed_chord(bgft.directed_cycle(64), 20, 0, 32)
        p = bgft.transition(g).p
        assert bgft.asymmetry_index(p) == pytest.approx(1.414213562373095, abs=1e-12)
        assert bgft.departure_from_normality(p) == pytest.approx(
            0.02987165083714049, abs=1e-12
        )

    def test_permutation_is_normal(self):
        p = bgft.transition(bgft.directed_cycle(8)).p
        assert bgft.departure_from_normality(p) <= 1e-15

    def test_shear_delta_hand_computed(self):
        # M = [[1,1],[0,1]]: MM* - M*M = [[1,0],[0,-1]], so delta = sqrt(2)/3
        assert bgft.departure_from_normality([[1, 1], [0, 1]]) == pytest.approx(
            np.sqrt(2) / 3, abs=1e-15
        )

    @pytest.mark.parametrize("index", [bgft.asymmetry_index, bgft.departure_from_normality])
    def test_rejects_nonsquare(self, index):
        with pytest.raises(ValueError, match="requires a square matrix"):
            index(np.ones((2, 3)))

    def test_zero_matrix_conventions(self):
        z = np.zeros((3, 3))
        assert bgft.asymmetry_index(z) == 0.0
        assert bgft.departure_from_normality(z) == 0.0

    def test_alpha_scale_invariant(self):
        m = random_digraph(8, 1).adjacency
        for c in (0.5, 3.0, 1e6):
            assert bgft.asymmetry_index(c * m) == pytest.approx(
                bgft.asymmetry_index(m), rel=1e-12
            )


class TestStationary:
    def test_directed_cycle_uniform(self):
        op = bgft.transition(bgft.directed_cycle(10))
        assert_allclose(bgft.stationary(op).pi, np.full(10, 0.1), atol=1e-12)

    def test_undirected_cycle_uniform(self):
        op = bgft.transition(bgft.undirected_cycle(10))
        assert_allclose(bgft.stationary(op).pi, np.full(10, 0.1), atol=1e-12)

    def test_power_iteration_oracle(self):
        # aperiodic: 4-cycle plus chord 0->2 mixes cycle lengths 3 and 4
        op = bgft.transition(bgft.add_directed_chord(bgft.directed_cycle(4), 1.0, 0, 2))
        v = np.ones(4) / 4
        for _ in range(10_000):
            v = v @ op.p
        assert_allclose(bgft.stationary(op).pi, v, atol=1e-10)

    def test_invariance_residual(self, property_suite):
        for op, _ in property_suite:
            pi = bgft.stationary(op).pi
            assert np.linalg.norm(pi @ op.p - pi) <= 1e-10
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pi > 0)

    def test_reducible_raises(self):
        # two disconnected 3-cycles: eigenvalue 1 has multiplicity 2
        a = np.zeros((6, 6))
        a[:3, :3] = bgft.directed_cycle(3).adjacency
        a[3:, 3:] = bgft.directed_cycle(3).adjacency
        with pytest.raises(NotIrreducibleError):
            bgft.stationary(bgft.transition(bgft.DirectedGraph(a)))

    def test_transient_node_raises(self):
        # eigenvalue 1 is simple, but pi vanishes on the transient node
        with pytest.raises(NotIrreducibleError, match="zero entry"):
            bgft.stationary(bgft.transition(transient_chain()))

    @pytest.mark.parametrize("n, r", [(12, 0.1), (20, 0.1), (30, 0.1), (40, 0.2),
                                      (60, 0.3), (200, 0.4)])
    def test_birth_death_closed_form(self, n, r):
        # pi spreads over (r / (1 - r))^(n-1): 3.1e10 at n = 12, 1e35 at 200
        op = bgft.transition(birth_death_chain(n, r))
        dist = bgft.stationary(op)
        closed = (r / (1.0 - r)) ** np.arange(n)
        closed /= closed.sum()
        assert np.max(np.abs(dist.pi - closed) / closed) <= 1e-13
        assert bgft.is_reversible(op, dist)

    @pytest.mark.parametrize("r", [0.6, 0.4])
    def test_spread_beyond_float64_raises(self, r):
        # pi spreads over 1.5^1999 = 1e352: pi_0 or pi_1999 is below float64's
        # range, and the elimination neither overflows nor warns
        op = bgft.transition(birth_death_chain(2000, r))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotIrreducibleError, match="zero entry"):
                bgft.stationary(op)

    def test_needs_no_eigensolver(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("stationary called a dense solver")

        for name in ("eig", "eigh", "solve"):
            monkeypatch.setattr(np.linalg, name, refused)
        for g in (random_digraph(12, 40), random_reversible_graph(12, 41),
                  bgft.directed_cycle(12)):
            op = bgft.transition(g)
            pi = bgft.stationary(op).pi
            assert np.linalg.norm(pi @ op.p - pi) <= 1e-15
            assert "eig" not in vars(op)

    @pytest.mark.parametrize("n", [17, 33, 64])
    def test_panels_match_one_state_at_a_time(self, n, monkeypatch):
        op = bgft.transition(random_digraph(n, 50 + n, density=0.3))
        blocked = bgft.stationary(op).pi
        monkeypatch.setattr(markov, "GTH_PANEL", n)
        unblocked = bgft.stationary(op).pi
        assert np.max(np.abs(blocked - unblocked) / unblocked) <= 1e-14


class TestOneEigendecomposition:
    def test_one_real_lapack_eig_per_operator(self, monkeypatch):
        lapack_eig = np.linalg.eig
        inputs = []

        def counting_eig(a):
            inputs.append(np.asarray(a).dtype)
            return lapack_eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        g = bgft.add_directed_chord(bgft.directed_cycle(16), 5.0, 0, 8)
        op = bgft.transition(g)
        basis = bgft.decompose(op)
        pi = bgft.stationary(op).pi
        assert inputs == [np.dtype(np.float64)]
        assert basis.eig is op.eig
        assert basis.eigenvalues.dtype == basis.left_dual.dtype == np.complex128
        # pi agrees with the lambda = 1 row of the dual basis U* = V^{-1}
        u1 = basis.left_dual[basis.order[0]]
        assert_allclose(pi, u1.real / u1.real.sum(), atol=1e-15)


class TestReversibility:
    def test_undirected_cycle_reversible(self):
        op = bgft.transition(bgft.undirected_cycle(8))
        dist = bgft.stationary(op)
        assert bgft.is_reversible(op, dist)
        # entrywise detailed balance oracle
        for i in range(8):
            for j in range(8):
                assert dist.pi[i] * op.p[i, j] == pytest.approx(
                    dist.pi[j] * op.p[j, i], abs=1e-12
                )

    def test_directed_cycle_not_reversible(self):
        op = bgft.transition(bgft.directed_cycle(8))
        assert not bgft.is_reversible(op, bgft.stationary(op))

    def test_random_reversible_chain(self):
        op = bgft.transition(random_reversible_graph(12, 9))
        dist = bgft.stationary(op)
        assert bgft.is_reversible(op, dist)
        s = bgft.symmetrize(op, dist)
        assert np.linalg.norm(s - s.T) <= 1e-10

    def test_symmetrize_uniform_pi_is_identity_transform(self):
        op = bgft.transition(bgft.directed_cycle(8))
        s = bgft.symmetrize(op, bgft.stationary(op))
        assert_allclose(s, op.p, atol=1e-12)
        assert np.linalg.norm(s - s.T) > 0.1  # stays asymmetric

    def test_equivalence_theorem(self, property_suite):
        # detailed balance <=> symmetric S <=> pi-self-adjointness
        rng = np.random.default_rng(17)
        cases = [op for op, _ in property_suite[:6]]
        cases += [bgft.transition(random_reversible_graph(10, s)) for s in range(4)]
        for op in cases:
            dist = bgft.stationary(op)
            t1 = bgft.is_reversible(op, dist, tol=1e-8)
            s = bgft.symmetrize(op, dist)
            t2 = np.linalg.norm(s - s.T) <= 1e-8 * np.linalg.norm(s)
            # self-adjointness <Px,y> = <x,Py> over random pairs
            t3 = True
            for _ in range(20):
                x = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
                y = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
                lhs = bgft.pi_inner(op.p @ x, y, dist)
                rhs = bgft.pi_inner(x, op.p @ y, dist)
                if abs(lhs - rhs) > 1e-8 * max(1.0, abs(lhs)):
                    t3 = False
            assert t1 == t2 == t3

    def test_pi_at_roundoff_level_not_reversible(self):
        # Two disjoint 5-cycles, and the pi a singular solve gives them:
        # ~1e-17 noise on one cycle, uniform 0.2 on the other.  Detailed
        # balance relative to ||Pi P|| passes it; the symmetry of S does not.
        a = np.zeros((10, 10))
        a[:5, :5] = bgft.undirected_cycle(5).adjacency
        a[5:, 5:] = bgft.undirected_cycle(5).adjacency
        op = bgft.transition(bgft.DirectedGraph(a))
        noise = np.array([3.6, 6.3, 0.89, 2.2, 0.94]) * 1e-17
        dist = bgft.StationaryDistribution(pi=np.concatenate([noise, np.full(5, 0.2)]))
        assert np.max(dist.pi[:5]) < 1e-15
        assert not bgft.is_reversible(op, dist)
        assert op.eig.solver == "geev"

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-8])
    def test_tol_checked(self, tol):
        op = bgft.transition(bgft.undirected_cycle(8))
        with pytest.raises(ValueError, match="finite tol"):
            bgft.is_reversible(op, bgft.stationary(op), tol=tol)

    @pytest.mark.parametrize("check", [bgft.is_reversible, bgft.symmetrize])
    def test_pi_of_wrong_length_refused(self, check):
        op = bgft.transition(bgft.undirected_cycle(8))
        with pytest.raises(ValueError, match="length 8"):
            check(op, bgft.StationaryDistribution(pi=np.full(5, 0.2)))

    @pytest.mark.parametrize("check", [bgft.is_reversible, bgft.symmetrize])
    @pytest.mark.parametrize("value", [np.nan, 0.0, -0.125])
    def test_pi_not_finite_and_positive_refused(self, check, value):
        op = bgft.transition(bgft.undirected_cycle(8))
        with pytest.raises(ValueError, match="finite|positive"):
            check(op, bgft.StationaryDistribution(pi=np.full(8, value)))

    def test_reversible_spectrum_real(self):
        op = bgft.transition(random_reversible_graph(10, 21))
        dec = bgft.eig_general(op.p)
        assert np.max(np.abs(dec.eigenvalues.imag)) <= 1e-8


class TestPiInner:
    def test_ones_gives_one(self):
        dist = bgft.stationary(bgft.transition(random_digraph(8, 30)))
        ones = np.ones(8)
        assert bgft.pi_inner(ones, ones, dist) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_pi_scales_standard_inner(self):
        op = bgft.transition(bgft.directed_cycle(8))
        dist = bgft.stationary(op)
        rng = np.random.default_rng(31)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert bgft.pi_inner(x, y, dist) == pytest.approx(
            np.vdot(x, y) / 8, abs=1e-12
        )

    def test_summation_oracle(self):
        op = bgft.transition(random_digraph(9, 33))
        dist = bgft.stationary(op)
        rng = np.random.default_rng(34)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        oracle = sum(np.conj(x[i]) * dist.pi[i] * y[i] for i in range(9))
        assert bgft.pi_inner(x, y, dist) == pytest.approx(oracle, abs=1e-12)

    def test_norm_nonnegative(self):
        op = bgft.transition(random_digraph(9, 35))
        dist = bgft.stationary(op)
        rng = np.random.default_rng(36)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert bgft.pi_norm(x, dist) >= 0
