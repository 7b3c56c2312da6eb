import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bgft
from bgft.errors import InvalidNodeError, InvalidSizeError, RankDeficientError
from bgft.sampling import TIE_TOL, _band_frame, _sigma_min, _sigma_min_sq_bounds

from conftest import random_digraph, random_reversible_graph


@pytest.fixture(scope="module")
def perturbed_basis():
    g = bgft.add_directed_chord(bgft.directed_cycle(64), 20, 0, 32)
    return bgft.decompose(bgft.transition(g))


class TestSelectBand:
    def test_k1_is_constant_mode(self, perturbed_basis):
        omega = bgft.select_band(perturbed_basis, 1)
        lam = perturbed_basis.eigenvalues[omega.omega[0]]
        assert abs(lam - 1.0) <= 1e-8

    def test_k_n_all_modes(self, perturbed_basis):
        omega = bgft.select_band(perturbed_basis, 64)
        assert omega.omega == tuple(range(64))

    def test_matches_argsort_oracle(self, perturbed_basis):
        omega = bgft.select_band(perturbed_basis, 8)
        oracle = set(np.argsort(-perturbed_basis.eigenvalues.real)[:8])
        assert set(omega.omega) == oracle

    @pytest.mark.parametrize("omega", [(2.7,), (np.float64(1.0), 2)])
    def test_non_integer_mode_rejected(self, omega):
        with pytest.raises(InvalidSizeError, match="indices must be integers"):
            bgft.BandSupport(omega=omega)

    def test_out_of_range(self, perturbed_basis):
        with pytest.raises(InvalidSizeError):
            bgft.select_band(perturbed_basis, 0)
        with pytest.raises(InvalidSizeError):
            bgft.select_band(perturbed_basis, 65)

    def test_negative_mode_rejected(self):
        # numpy would wrap -1 to the last mode
        with pytest.raises(InvalidSizeError, match="-1"):
            bgft.BandSupport(omega=(-1, 0))

    def test_mode_past_n_rejected(self, perturbed_basis):
        with pytest.raises(InvalidSizeError, match="mode index 64 out of range"):
            bgft.band_vectors(perturbed_basis, bgft.BandSupport(omega=(0, 64)))


class TestRandomBandlimited:
    def test_deterministic(self, perturbed_basis):
        omega = bgft.select_band(perturbed_basis, 8)
        x1 = bgft.random_bandlimited(perturbed_basis, omega, 42)
        x2 = bgft.random_bandlimited(perturbed_basis, omega, 42)
        assert np.array_equal(x1, x2)

    def test_coefficients_vanish_off_band(self, perturbed_basis):
        omega = bgft.select_band(perturbed_basis, 8)
        x = bgft.random_bandlimited(perturbed_basis, omega, 7)
        xhat = bgft.analyze(perturbed_basis, x)
        outside = np.delete(np.arange(64), list(omega.omega))
        assert np.linalg.norm(xhat[outside]) <= 1e-8 * np.linalg.norm(x)

    def test_unit_coefficient_recovers_eigenvector(self, perturbed_basis):
        omega = bgft.BandSupport(omega=(3,))
        v3 = bgft.band_vectors(perturbed_basis, omega)[:, 0]
        assert_allclose(v3, perturbed_basis.right_vectors[:, 3])


class TestRestriction:
    """The restriction P_M is applied as row indexing by sample()."""

    def test_all_nodes_identity(self):
        x = np.arange(5.0) + 1j
        m_set = bgft.SamplingSet(nodes=tuple(range(5)))
        assert_allclose(bgft.sample(x, m_set), x)

    def test_single_row(self):
        m_set = bgft.SamplingSet(nodes=(2,))
        assert_allclose(bgft.sample([0, 0, 1, 0], m_set), [1])

    def test_indexing_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10)
        m_set = bgft.SamplingSet(nodes=(7, 1, 4))
        assert m_set.nodes == (1, 4, 7)
        assert_allclose(bgft.sample(x, m_set), x[[1, 4, 7]])

    @pytest.mark.parametrize("nodes", [(1.9, 0.2), (np.float64(1.0),), (True, 3.99)])
    def test_non_integer_node_rejected(self, nodes):
        # int() would truncate 1.9 to 1
        with pytest.raises(InvalidNodeError, match="indices must be integers"):
            bgft.SamplingSet(nodes=nodes)

    def test_numpy_integer_nodes(self):
        assert bgft.SamplingSet(nodes=(np.int64(4), np.int32(2))).nodes == (2, 4)

    def test_negative_node_rejected(self):
        # numpy would wrap -1 to the last node
        with pytest.raises(InvalidNodeError, match="-1"):
            bgft.SamplingSet(nodes=(-1, 0, 3, 5))

    def test_node_past_n_rejected(self, perturbed_basis):
        m_set = bgft.SamplingSet(nodes=(0, 3, 64))
        with pytest.raises(InvalidNodeError, match="64 out of range for n=64"):
            bgft.sample(np.zeros(64), m_set)
        omega = bgft.select_band(perturbed_basis, 2)
        with pytest.raises(InvalidNodeError, match="64 out of range for n=64"):
            bgft.reconstruct(perturbed_basis, omega, m_set, np.zeros(3))


class TestReconstruct:
    def test_noiseless_exact(self, perturbed_basis):
        omega = bgft.select_band(perturbed_basis, 8)
        x = bgft.random_bandlimited(perturbed_basis, omega, 1)
        m_set = bgft.random_sampling_set(64, 20, 2)
        rep = bgft.reconstruct(perturbed_basis, omega, m_set, bgft.sample(x, m_set),
                               x_true=x)
        assert rep.rel_err <= 1e-6
        assert not rep.rank_deficient
        b = bgft.band_vectors(perturbed_basis, omega)[list(m_set.nodes), :]
        sb = np.linalg.svd(b, compute_uv=False)
        assert rep.sigma_min_b == pytest.approx(sb[-1], rel=1e-12)
        assert rep.cond_b == pytest.approx(sb[0] / sb[-1], rel=1e-12)

    def test_fewer_samples_than_modes_certificate(self, perturbed_basis):
        # m < K: B = P_M V_Omega has no column rank, so sigma_K(B) = 0 and
        # cond(B) is infinite, in step with rank_deficient.
        omega = bgft.select_band(perturbed_basis, 8)
        m_set = bgft.SamplingSet(nodes=(0, 5, 9))
        x = bgft.random_bandlimited(perturbed_basis, omega, 1)
        rep = bgft.reconstruct(perturbed_basis, omega, m_set, bgft.sample(x, m_set),
                               x_true=x)
        assert rep.rank_deficient
        assert rep.sigma_min_b == 0.0
        assert rep.cond_b == float("inf")

    def test_zero_signal_convention(self, perturbed_basis):
        omega = bgft.select_band(perturbed_basis, 8)
        m_set = bgft.random_sampling_set(64, 20, 3)
        rep = bgft.reconstruct(perturbed_basis, omega, m_set, np.zeros(20),
                               x_true=np.zeros(64))
        assert rep.rel_err == 0.0
        assert np.linalg.norm(rep.x_hat) <= 1e-12

    def test_support_exact(self, perturbed_basis):
        omega = bgft.select_band(perturbed_basis, 8)
        m_set = bgft.random_sampling_set(64, 20, 4)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        rep = bgft.reconstruct(perturbed_basis, omega, m_set, y)
        xhat_hat = bgft.analyze(perturbed_basis, rep.x_hat)
        outside = np.delete(np.arange(64), list(omega.omega))
        assert np.linalg.norm(xhat_hat[outside]) <= 1e-8 * np.linalg.norm(rep.x_hat)

    def test_noise_bound_holds(self, perturbed_basis):
        omega = bgft.select_band(perturbed_basis, 8)
        m_set = bgft.random_sampling_set(64, 20, 6)
        x = bgft.random_bandlimited(perturbed_basis, omega, 7)
        y0 = bgft.sample(x, m_set)
        rng = np.random.default_rng(8)
        for _ in range(50):
            eta = 1e-3 * rng.standard_normal(20)
            rep = bgft.reconstruct(perturbed_basis, omega, m_set, y0 + eta,
                                   x_true=x, eta_norm=float(np.linalg.norm(eta)))
            err = np.linalg.norm(rep.x_hat - x)
            assert err <= rep.noise_bound + 1e-8

    def test_monotone_sigma_min(self, perturbed_basis):
        # row augmentation cannot shrink the smallest singular value
        omega = bgft.select_band(perturbed_basis, 8)
        nodes = list(bgft.random_sampling_set(64, 10, 9).nodes)
        prev = 0.0
        available = [i for i in range(64) if i not in nodes]
        for extra in available[:10]:
            m_set = bgft.SamplingSet(nodes=tuple(nodes))
            b = bgft.band_vectors(perturbed_basis, omega)[list(m_set.nodes), :]
            sigma = np.linalg.svd(b, compute_uv=False)[-1]
            assert sigma >= prev - 1e-12
            prev = sigma
            nodes.append(extra)


class TestNoiseBound:
    def test_zero_noise(self, perturbed_basis):
        omega = bgft.select_band(perturbed_basis, 8)
        m_set = bgft.random_sampling_set(64, 20, 10)
        assert bgft.noise_bound(perturbed_basis, omega, m_set, 0.0) == 0.0

    def test_full_sampling_normal_operator(self):
        # normal P: orthonormal V, so full sampling gives bound = ||eta||
        basis = bgft.decompose(bgft.transition(bgft.directed_cycle(16)))
        omega = bgft.select_band(basis, 5)
        m_set = bgft.SamplingSet(nodes=tuple(range(16)))
        assert bgft.noise_bound(basis, omega, m_set, 0.25) == pytest.approx(
            0.25, rel=1e-6
        )

    def test_rank_deficient_raises(self, perturbed_basis):
        omega = bgft.select_band(perturbed_basis, 8)
        m_set = bgft.SamplingSet(nodes=(0, 1, 2))  # m < K
        with pytest.raises(RankDeficientError):
            bgft.noise_bound(perturbed_basis, omega, m_set, 1.0)

    @pytest.mark.parametrize("eta_norm", [-1.0, float("nan"), float("inf")])
    def test_bad_eta_norm_rejected(self, eta_norm):
        basis = bgft.decompose(bgft.transition(bgft.directed_cycle(16)))
        omega = bgft.select_band(basis, 4)
        m_set = bgft.random_sampling_set(16, 8, 0)
        with pytest.raises(ValueError, match="eta_norm must be finite and >= 0"):
            bgft.noise_bound(basis, omega, m_set, eta_norm)
        with pytest.raises(ValueError, match="eta_norm must be finite and >= 0"):
            bgft.reconstruct(basis, omega, m_set, np.zeros(8), eta_norm=eta_norm)

    @pytest.mark.parametrize("nodes", [None, (0, 1, 2), (0, 5, 9), tuple(range(8))])
    @pytest.mark.parametrize("eta_norm", [0.0, 0.3])
    def test_matches_reconstruct(self, perturbed_basis, nodes, eta_norm):
        omega = bgft.select_band(perturbed_basis, 8)
        m_set = (bgft.random_sampling_set(64, 20, 14) if nodes is None
                 else bgft.SamplingSet(nodes=nodes))
        rep = bgft.reconstruct(perturbed_basis, omega, m_set, np.zeros(m_set.m),
                               eta_norm=eta_norm)
        if rep.rank_deficient:
            with pytest.raises(RankDeficientError):
                bgft.noise_bound(perturbed_basis, omega, m_set, eta_norm)
        else:
            assert bgft.noise_bound(perturbed_basis, omega, m_set, eta_norm) == rep.noise_bound

    def test_monte_carlo_never_violated(self, perturbed_basis):
        omega = bgft.select_band(perturbed_basis, 8)
        m_set = bgft.random_sampling_set(64, 20, 11)
        x = bgft.random_bandlimited(perturbed_basis, omega, 12)
        y0 = bgft.sample(x, m_set)
        rng = np.random.default_rng(13)
        for _ in range(100):
            eta = rng.standard_normal(20) * 10.0 ** rng.uniform(-6, -1)
            rep = bgft.reconstruct(perturbed_basis, omega, m_set, y0 + eta, x_true=x)
            bound = bgft.noise_bound(
                perturbed_basis, omega, m_set, float(np.linalg.norm(eta))
            )
            assert np.linalg.norm(rep.x_hat - x) <= bound + 1e-8


class TestSamplingSets:
    def test_full_set_both_strategies(self, perturbed_basis):
        omega = bgft.select_band(perturbed_basis, 4)
        assert bgft.random_sampling_set(8, 8, 0).nodes == tuple(range(8))
        small = bgft.decompose(bgft.transition(bgft.directed_cycle(8)))
        omega8 = bgft.select_band(small, 4)
        assert bgft.greedy_sampling_set(small, omega8, 8).nodes == tuple(range(8))

    def test_seeded_determinism(self):
        s1 = bgft.random_sampling_set(64, 20, 123)
        s2 = bgft.random_sampling_set(64, 20, 123)
        assert s1.nodes == s2.nodes

    def test_invalid_size(self):
        with pytest.raises(InvalidSizeError):
            bgft.random_sampling_set(10, 11, 0)
        with pytest.raises(InvalidSizeError):
            bgft.random_sampling_set(10, 0, 0)
        for make in (lambda: bgft.SamplingSet(()), lambda: bgft.SamplingSet((1, 1)),
                     lambda: bgft.BandSupport(()), lambda: bgft.BandSupport((3, 3))):
            with pytest.raises(InvalidSizeError, match="must be nonempty and distinct"):
                make()

    @pytest.mark.parametrize("size", [2.5, np.float64(2.0)])
    def test_non_integer_size_rejected(self, perturbed_basis, size):
        omega = bgft.select_band(perturbed_basis, 2)
        for make in (lambda: bgft.select_band(perturbed_basis, size),
                     lambda: bgft.random_sampling_set(64, size, 0),
                     lambda: bgft.greedy_sampling_set(perturbed_basis, omega, size)):
            with pytest.raises(InvalidSizeError, match="expected an integer"):
                make()

    def test_numpy_integer_sizes(self, perturbed_basis):
        assert bgft.select_band(perturbed_basis, np.int64(8)) == bgft.select_band(
            perturbed_basis, 8)
        assert bgft.random_sampling_set(64, np.int64(20), 123) == bgft.random_sampling_set(
            64, 20, 123)

    @pytest.mark.parametrize("n", [8.0, np.float64(8.0), "8", 0, -3])
    def test_node_count_checked(self, n):
        with pytest.raises(InvalidSizeError):
            bgft.random_sampling_set(n, 2, 0)

    @pytest.mark.parametrize("seed", [1.5, np.float64(2.0), -1, None])
    def test_seed_checked(self, perturbed_basis, seed):
        omega = bgft.select_band(perturbed_basis, 2)
        for make in (lambda: bgft.random_sampling_set(64, 20, seed),
                     lambda: bgft.random_bandlimited(perturbed_basis, omega, seed)):
            with pytest.raises(ValueError, match="seed"):
                make()

    def test_numpy_integer_node_count_and_seed(self, perturbed_basis):
        omega = bgft.select_band(perturbed_basis, 2)
        assert bgft.random_sampling_set(np.int64(64), 20, np.int64(123)) == (
            bgft.random_sampling_set(64, 20, 123))
        assert np.array_equal(bgft.random_bandlimited(perturbed_basis, omega, np.int64(5)),
                              bgft.random_bandlimited(perturbed_basis, omega, 5))

    def test_greedy_beats_random_search(self):
        # greedy sigma_min should match or beat the best of 1000 random sets
        # in at least 90% of trials at this size
        wins = 0
        trials = 5
        for trial in range(trials):
            op = bgft.transition(random_digraph(8, 500 + trial))
            basis = bgft.decompose(op)
            omega = bgft.select_band(basis, 3)
            v_o = bgft.band_vectors(basis, omega)
            greedy = bgft.greedy_sampling_set(basis, omega, 3)
            g_sigma = np.linalg.svd(
                v_o[list(greedy.nodes), :], compute_uv=False
            )[-1]
            best = 0.0
            rng = np.random.default_rng(600 + trial)
            for _ in range(1000):
                nodes = rng.choice(8, size=3, replace=False)
                s = np.linalg.svd(v_o[sorted(nodes), :], compute_uv=False)[-1]
                best = max(best, float(s))
            if g_sigma >= best - 1e-10:
                wins += 1
        assert wins >= 0.9 * trials


def naive_greedy(v_o, m):
    """The greedy-plus-exchange search with one SVD per candidate set, rows
    in the order the set was built: the reference for greedy_sampling_set."""
    n = v_o.shape[0]

    def sigma_min(rows):
        return float(np.linalg.svd(v_o[rows, :], compute_uv=False)[-1])

    def one_run(start):
        chosen = [start]
        remaining = [i for i in range(n) if i != start]
        for _ in range(m - 1):
            best_node, best_sigma = remaining[0], -1.0
            for cand in remaining:
                sigma = sigma_min(chosen + [cand])
                if sigma > best_sigma + 1e-12:
                    best_node, best_sigma = cand, sigma
            chosen.append(best_node)
            remaining.remove(best_node)
        improved = True
        while improved and remaining:
            improved = False
            current = sigma_min(chosen)
            for pos in range(m):
                for cand in remaining:  # remaining changes during the scan
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
        if val > best_val + 1e-12:
            best_set, best_val = chosen, val
    return tuple(sorted(best_set))


def design_graph(kind, n):
    if kind == "random":
        return random_digraph(n, 700 + n)
    if kind == "perturbed":
        return bgft.add_directed_chord(bgft.directed_cycle(n), 5.0 + n, 1, n // 2 + 1)
    if kind == "directed":
        return bgft.directed_cycle(n)
    return bgft.undirected_cycle(n)


def design_cases(kinds, sizes):
    for kind in kinds:
        for n in sizes:
            for k in (2, 3, 4):
                for m in sorted({1, k, k + 2, n // 2}):
                    yield pytest.param(kind, n, k, m, id=f"{kind}-n{n}-K{k}-m{m}")


class TestGreedySearch:
    @pytest.mark.parametrize(
        "kind,n,k,m", design_cases(("random", "perturbed", "directed"), (8, 12, 16)))
    def test_same_set_as_naive_search(self, kind, n, k, m):
        basis = bgft.decompose(bgft.transition(design_graph(kind, n)))
        omega = bgft.select_band(basis, k)
        v_o = bgft.band_vectors(basis, omega)
        assert bgft.greedy_sampling_set(basis, omega, m).nodes == naive_greedy(v_o, m)

    @pytest.mark.parametrize("kind,n,k,m", design_cases(("undirected",), (12, 16)))
    def test_symmetric_graph_as_good_as_naive_search(self, kind, n, k, m):
        # Exact symmetries make many sets tie in sigma_min to ~1e-15, where
        # the row order of the SVD moves the roundoff; the tie tolerance,
        # far above it, decides them as the naive search does.
        basis = bgft.decompose(bgft.transition(design_graph(kind, n)))
        omega = bgft.select_band(basis, k)
        v_o = bgft.band_vectors(basis, omega)
        assert bgft.greedy_sampling_set(basis, omega, m).nodes == naive_greedy(v_o, m)

    @pytest.mark.parametrize("kind,n,k,m", [
        ("directed", 16, 2, 4), ("directed", 16, 2, 8), ("undirected", 12, 3, 5)])
    def test_ties_survive_roundoff(self, kind, n, k, m, monkeypatch):
        # V_Omega perturbed by a relative 1e-14, as another eigensolver's
        # roundoff would move it: sets that tie in exact arithmetic must
        # still be decided alike by both searches.  Under a 1e-15 tie
        # tolerance 15, 10 and 13 of the 20 trials passed.
        basis = bgft.decompose(bgft.transition(design_graph(kind, n)))
        omega = bgft.select_band(basis, k)
        v_o = bgft.band_vectors(basis, omega)
        rng = np.random.default_rng(100 * n + m)
        for _ in range(20):
            noise = rng.standard_normal(v_o.shape) + 1j * rng.standard_normal(v_o.shape)
            noisy = v_o * (1 + 1e-14 * noise)
            monkeypatch.setattr(bgft.sampling, "band_vectors", lambda *args: noisy)
            assert bgft.greedy_sampling_set(basis, omega, m).nodes == naive_greedy(noisy, m)

    @pytest.mark.parametrize("m", [1, 6])
    def test_each_set_decomposed_once(self, m, monkeypatch):
        basis = bgft.decompose(bgft.transition(random_digraph(16, 900)))
        omega = bgft.select_band(basis, 4)
        seen = []  # the node set of every row set passed to the scorer
        bases = []  # the node set of every base passed to the bounds
        sigma_min, bound = bgft.sampling._sigma_min, bgft.sampling._sigma_min_sq_bounds

        def counting_sigma_min(v_o, rows):
            seen.extend(frozenset(r) for r in rows.tolist())
            return sigma_min(v_o, rows)

        def counting_bounds(v_o, rows, sq=None):
            bases.extend(frozenset(r) for r in np.asarray(rows).tolist())
            return bound(v_o, rows, sq)

        monkeypatch.setattr(bgft.sampling, "_sigma_min", counting_sigma_min)
        monkeypatch.setattr(bgft.sampling, "_sigma_min_sq_bounds", counting_bounds)
        bgft.greedy_sampling_set(basis, omega, m)
        assert seen and len(set(seen)) == len(seen)
        assert bases and len(set(bases)) == len(bases)

    def test_search_keeps_no_state(self):
        # The memo lives and dies with one call: nothing is cached on the
        # basis, its operator, the band or the module.
        basis = bgft.decompose(bgft.transition(random_digraph(16, 900)))
        omega = bgft.select_band(basis, 4)
        holders = (basis, basis.operator, omega, bgft.sampling)
        before = [set(vars(h)) for h in holders]
        first = bgft.greedy_sampling_set(basis, omega, 6)
        assert bgft.greedy_sampling_set(basis, omega, 6) == first
        assert [set(vars(h)) for h in holders] == before


def memoized_greedy(v_o, m):
    """greedy_sampling_set as it was before candidates were screened by a
    bound: the memoized search that SVDs every unscored candidate.  The
    reference whose decisions the screened search must repeat."""
    n = v_o.shape[0]
    sigma = {}  # node-set bitmask -> sigma_min(P_M V_Omega)

    def scan(chosen, mask, cands, pos=None):
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
        if m == 1:
            scan([], 0, chosen)
        for _ in range(m - 1):
            best_i, best_sigma = 0, -1.0
            for i, s in enumerate(scan(chosen, mask, remaining)):
                if s > best_sigma + 1e-12:
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
        if val > best_val + 1e-12:
            best_set, best_val = chosen, val
    return tuple(sorted(best_set))


def screen_graph(kind, n):
    if kind == "perturbed":
        src, dst = np.random.default_rng(n).choice(n, 2, replace=False)
        return bgft.add_directed_chord(bgft.directed_cycle(n), 5.0 + n, int(src), int(dst))
    if kind == "random":
        return random_digraph(n, 800 + n)
    return random_reversible_graph(n, 900 + n)


def screen_cases():
    for kind in ("perturbed", "random", "reversible"):
        for n in (16, 24, 32):
            for k in (2, 4, 8):
                for m in sorted({1, k - 1, k, 2 * k}):
                    yield pytest.param(kind, n, k, m, id=f"{kind}-n{n}-K{k}-m{m}")


def bound_cases():
    rng = np.random.default_rng(1234)
    for n, k in ((6, 1), (9, 3), (12, 5), (16, 4), (16, 5)):
        v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        yield pytest.param(v, id=f"random-n{n}-K{k}")
    basis = bgft.decompose(bgft.transition(bgft.directed_cycle(12)))
    yield pytest.param(bgft.band_vectors(basis, bgft.select_band(basis, 4)),
                       id="directed-cycle-n12-K4")  # rows of equal modulus
    rows = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    yield pytest.param(rows[rng.integers(0, 4, 12)], id="repeated-rows-n12-K5")
    low = (rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))) @ rows[:2]
    yield pytest.param(low, id="rank2-n12-K5")


def large_set_cases():
    # Sets of up to 256 rows, far past the ~40 of the sets on which the Gram
    # scorer's error constant was measured.
    rng = np.random.default_rng(4321)
    v = rng.standard_normal((256, 16)) + 1j * rng.standard_normal((256, 16))
    yield pytest.param(v, id="random-n256-K16")
    g = bgft.add_directed_chord(bgft.directed_cycle(256), 20, 0, 128)
    basis = bgft.decompose(bgft.transition(g))
    yield pytest.param(bgft.band_vectors(basis, bgft.select_band(basis, 16)),
                       id="perturbed-n256-K16")


class TestScreenedSearch:
    @pytest.mark.parametrize("v_o", bound_cases())
    def test_bound_dominates_exact(self, v_o):
        n = v_o.shape[0]
        rng = np.random.default_rng(n)
        sq = np.sum(np.abs(v_o) ** 2, axis=1)
        excess = _sigma_min_sq_bounds(v_o, []) - sq  # the margin alone
        assert np.all((excess >= 0) & (excess <= 1e-8 * sq.max()))
        for size in range(n):
            for _ in range(3):
                base = rng.choice(n, size, replace=False).tolist()
                bound = _sigma_min_sq_bounds(v_o, base)
                for c in sorted(set(range(n)) - set(base)):
                    exact = np.linalg.svd(v_o[sorted(base + [c])], compute_uv=False)[-1]
                    assert bound[c] >= exact ** 2, (size, base, c)

    @pytest.mark.parametrize("kind,n,k,m", screen_cases())
    def test_same_set_as_memoized_search(self, kind, n, k, m, monkeypatch):
        basis = bgft.decompose(bgft.transition(screen_graph(kind, n)))
        omega = bgft.select_band(basis, k)
        v_o = bgft.band_vectors(basis, omega)
        matrices = []  # sets scored per search: SVD matrices and _sigma_min rows
        svd, sigma_min = np.linalg.svd, bgft.sampling._sigma_min

        def counting_svd(a, *args, **kwargs):
            a = np.asarray(a)
            matrices[-1] += a.reshape(-1, *a.shape[-2:]).shape[0]
            return svd(a, *args, **kwargs)

        def counting_sigma_min(v, rows):
            matrices[-1] += len(rows)
            return sigma_min(v, rows)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(bgft.sampling, "_sigma_min", counting_sigma_min)
        matrices.append(0)
        want = memoized_greedy(v_o, m)
        matrices.append(0)
        assert bgft.greedy_sampling_set(basis, omega, m).nodes == want
        if (n, k, m) == (32, 8, 16):
            assert matrices[1] <= matrices[0] / 2

    @pytest.mark.parametrize("v_o", bound_cases())
    def test_stacked_bound_matches_one_base(self, v_o, monkeypatch):
        # Chunks of 3 bases, so a stack of 4 takes the chunked path.
        monkeypatch.setattr("bgft.sampling.BOUND_CHUNK_ENTRIES", 3 * v_o.size)
        n = v_o.shape[0]
        rng = np.random.default_rng(n + 1)
        scale = np.max(np.sum(np.abs(v_o) ** 2, axis=1))
        for size in range(n):
            bases = np.array([rng.choice(n, size, replace=False) for _ in range(4)],
                             dtype=np.intp).reshape(4, size)
            stacked = _sigma_min_sq_bounds(v_o, bases)
            assert stacked.shape == (4, n)
            for base, row in zip(bases.tolist(), stacked):
                assert_allclose(row, _sigma_min_sq_bounds(v_o, base), rtol=1e-12,
                                atol=1e-12 * scale)
                for c in sorted(set(range(n)) - set(base)):
                    exact = np.linalg.svd(v_o[sorted(base + [c])], compute_uv=False)[-1]
                    assert row[c] >= exact ** 2, (size, base, c)

    def test_stacked_bound_memory_is_chunked(self):
        # Unchunked, 1024 bases at n=256, K=16 would make (1024, 256, 16)
        # complex temporaries, 67 MB each; chunked, the peak beyond the
        # (bases, n) result does not grow with the number of bases.
        n, k = 256, 16
        rng = np.random.default_rng(7)
        v_o = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        for size in (8, 20):  # below and above K
            for count in (64, 1024):
                bases = np.array([rng.choice(n, size, replace=False) for _ in range(count)])
                tracemalloc.start()
                try:
                    out = _sigma_min_sq_bounds(v_o, bases)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak - out.nbytes < 16e6, (size, count, peak)

    @pytest.mark.parametrize("kind", ["perturbed", "random", "reversible"])
    def test_restarts_share_stacked_calls(self, kind, monkeypatch):
        basis = bgft.decompose(bgft.transition(screen_graph(kind, 32)))
        omega = bgft.select_band(basis, 8)
        counts = {}  # name -> [calls, matrices]

        def counting(name):
            fn, count = getattr(np.linalg, name), counts.setdefault(name, [0, 0])

            def wrapper(a, *args, **kwargs):
                a = np.asarray(a)
                count[0] += 1
                count[1] += a.reshape(-1, *a.shape[-2:]).shape[0]
                return fn(a, *args, **kwargs)
            return wrapper

        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        bgft.greedy_sampling_set(basis, omega, 16)
        for name, (calls, matrices) in counts.items():
            assert 0 < calls <= matrices / 4, (name, calls, matrices)

    @pytest.mark.parametrize("v_o", [*bound_cases(), *large_set_cases()])
    def test_sigma_min_matches_svd(self, v_o, monkeypatch):
        # Each Gram value is within 16 eps lam_max / sigma of the SVD's, so
        # within TIE_TOL / 4 where it is kept; the sets whose value could be
        # off by more take the SVD, and rank-deficient sets do.
        n, k = v_o.shape
        eps = np.finfo(float).eps
        rng = np.random.default_rng(n + 2)
        fallback = []  # the matrices the scorer sends to the SVD
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            fallback.extend(mat.tobytes() for mat in a)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        for size in range(1, n + 1):
            rows = np.sort([rng.choice(n, size, replace=False) for _ in range(8)], axis=1)
            got = _sigma_min(v_o, rows)
            sv = svd(v_o[rows], compute_uv=False)
            smax, want = sv[:, 0], sv[:, -1]
            for i, b in enumerate(v_o[rows]):
                if b.tobytes() in fallback:
                    assert abs(got[i] - want[i]) <= 4 * eps * smax[i], (size, rows[i])
                else:
                    err = abs(got[i] - want[i])
                    assert err <= 16 * eps * smax[i] ** 2 / want[i], (size, rows[i])
                    assert err <= TIE_TOL / 4, (size, rows[i])
        if np.linalg.matrix_rank(v_o) < k:  # the rank-2 and repeated-rows cases
            assert len(fallback) >= n

    @pytest.mark.parametrize("graph", [
        lambda: random_reversible_graph(32, 5), lambda: random_digraph(32, 3),
        lambda: bgft.undirected_cycle(16)], ids=["reversible", "digraph", "undirected"])
    def test_band_frame_keeps_singular_values(self, graph):
        # Each band is closed under conjugation (K = 8 keeps the digraph's
        # pairs whole), so its frame is real: every row subset of it has the
        # singular values of the same rows of V_Omega.
        basis = bgft.decompose(bgft.transition(graph()))
        omega = bgft.select_band(basis, 8)
        v_o = bgft.band_vectors(basis, omega)
        f = _band_frame(basis, omega)
        assert f.dtype == np.float64 and f.shape == v_o.shape
        rng = np.random.default_rng(11)
        n = v_o.shape[0]
        for size in range(1, n + 1):
            rows = np.sort([rng.choice(n, size, replace=False) for _ in range(8)], axis=1)
            assert_allclose(np.linalg.svd(f[rows], compute_uv=False),
                            np.linalg.svd(v_o[rows], compute_uv=False), rtol=0, atol=1e-14)

    def test_band_frame_needs_whole_pairs(self, monkeypatch):
        # K = 2 and K = 4 split the digraph's first two pairs, and a band
        # that band_vectors returns off exact conjugacy is not closed: each
        # is searched as V_Omega.
        basis = bgft.decompose(bgft.transition(random_digraph(32, 3)))
        for k in (2, 4):
            omega = bgft.select_band(basis, k)
            f = _band_frame(basis, omega)
            assert np.array_equal(f, bgft.band_vectors(basis, omega)) and f.dtype == complex
        omega = bgft.select_band(basis, 8)
        v_o = bgft.band_vectors(basis, omega)
        noisy = v_o * (1 + 1e-14 * np.random.default_rng(4).standard_normal(v_o.shape))
        monkeypatch.setattr(bgft.sampling, "band_vectors", lambda *args: noisy)
        assert _band_frame(basis, omega) is noisy
