import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bgft
from bgft import linalg
from bgft.errors import InvalidSizeError
from bgft.transform import FilterSpec

from conftest import random_digraph, random_reversible_graph


def _rand_signal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestDecompose:
    def test_directed_cycle_cond_one(self, canonical_bases):
        _, basis = canonical_bases["directed"]
        assert basis.cond_v == pytest.approx(1.0, abs=1e-6)

    def test_perturbed_cond_table1(self, canonical_bases):
        _, basis = canonical_bases["perturbed"]
        assert basis.cond_v == pytest.approx(28.011585066632986, rel=0.01)

    def test_identity_operator(self):
        op = bgft.TransitionOperator(p=np.eye(5))
        basis = bgft.decompose(op)
        assert_allclose(basis.eigenvalues, np.ones(5))
        assert_allclose(basis.frequencies, np.zeros(5))

    def test_replaced_eig_rederives_frequencies(self, canonical_bases):
        # frequencies are derived from eig, so replacing eig cannot leave
        # them stale.
        _, basis = canonical_bases["perturbed"]
        lam = basis.eigenvalues[::-1].copy()
        new = dataclasses.replace(basis, eig=dataclasses.replace(basis.eig, eigenvalues=lam))
        assert np.array_equal(new.frequencies, 1.0 - lam.real)

    def test_modes_stored_in_mode_order(self, canonical_bases, property_suite):
        # eig_general stores the modes in the mode order, so order is the
        # identity and a band of k modes is the first k.
        bases = [b for _, b in canonical_bases.values()]
        bases += [b for _, b in property_suite]
        for basis in bases:
            lam = basis.eigenvalues
            key = np.lexsort((lam.imag, np.abs(lam.imag), -lam.real))
            assert np.array_equal(key, np.arange(basis.n))
            assert np.array_equal(basis.order, np.arange(basis.n))
            for k in (1, 2, basis.n):
                assert bgft.select_band(basis, k).omega == tuple(range(k))

    def test_frequencies_definition(self, property_suite):
        for _, basis in property_suite[:5]:
            assert np.array_equal(basis.frequencies, 1.0 - basis.eigenvalues.real)

    def test_order_constant_mode_first(self, property_suite):
        for _, basis in property_suite:
            k = basis.order[0]
            assert abs(basis.eigenvalues[k] - 1.0) <= 1e-8
            assert basis.frequencies[k] <= 1e-8
            assert np.all(np.diff(basis.frequencies[basis.order]) >= -1e-15)

    def test_conjugate_pairs_negative_imaginary_first(
        self, canonical_bases, property_suite
    ):
        # A real P has exact conjugate pairs, so the documented tie-break
        # decides their mode order: negative imaginary part first.
        bases = [b for _, b in canonical_bases.values()]
        bases += [b for _, b in property_suite]
        pairs = 0
        for basis in bases:
            lam = basis.eigenvalues[basis.order]
            for a, b in zip(lam[:-1], lam[1:]):
                if abs(a.imag) > 1e-12 and abs(a - np.conj(b)) <= 1e-10:
                    assert a.real == b.real
                    assert a.imag < 0 < b.imag
                    pairs += 1
        assert pairs > 0

    def test_diagonalization(self, property_suite):
        for op, basis in property_suite:
            lam = np.diag(basis.eigenvalues)
            d = basis.left_dual @ op.p @ basis.right_vectors
            assert np.linalg.norm(d - lam) <= 1e-8 * np.linalg.norm(op.p)

    def test_resolution_of_identity(self, property_suite):
        for op, basis in property_suite:
            acc = sum(
                np.outer(basis.right_vectors[:, k], basis.left_dual[k, :])
                for k in range(basis.n)
            )
            assert np.linalg.norm(acc - np.eye(basis.n)) <= 1e-8


class TestAnalyzeSynthesize:
    def test_eigenvector_maps_to_unit_coefficient(self, canonical_bases):
        _, basis = canonical_bases["perturbed"]
        for j in (0, 5, 63):
            xhat = bgft.analyze(basis, basis.right_vectors[:, j])
            e_j = np.zeros(64)
            e_j[j] = 1
            assert np.linalg.norm(xhat - e_j) <= 1e-8

    def test_matrix_signal_rejected(self, canonical_bases):
        # 64 entries, but a signal is 1-d: no silent flattening.
        _, basis = canonical_bases["perturbed"]
        with pytest.raises(ValueError, match="1-d"):
            bgft.analyze(basis, np.ones((8, 8)))

    def test_zero_maps_to_zero(self, canonical_bases):
        _, basis = canonical_bases["directed"]
        assert_allclose(bgft.analyze(basis, np.zeros(64)), np.zeros(64))
        assert_allclose(bgft.synthesize(basis, np.zeros(64)), np.zeros(64))

    def test_round_trip(self, property_suite):
        for i, (_, basis) in enumerate(property_suite):
            x = _rand_signal(basis.n, 200 + i)
            back = bgft.synthesize(basis, bgft.analyze(basis, x))
            assert np.linalg.norm(back - x) <= 1e-8 * np.linalg.norm(x)

    def test_laplacian_spectral_map(self, property_suite):
        for i, (op, basis) in enumerate(property_suite[:6]):
            x = _rand_signal(basis.n, 300 + i)
            lhs = bgft.analyze(basis, op.l_rw @ x)
            rhs = (1.0 - basis.eigenvalues) * bgft.analyze(basis, x)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1, np.linalg.norm(rhs))


class TestFrames:
    @pytest.mark.parametrize("make,solver", [
        (lambda: bgft.add_directed_chord(bgft.directed_cycle(64), 20, 0, 32), "geev"),
        (lambda: random_reversible_graph(32, 5), "eigh"),
    ], ids=["dgeev", "eigh"])
    def test_library_paths_never_assemble_complex_arrays(self, make, solver, monkeypatch):
        op = bgft.transition(make())
        basis = bgft.decompose(op)
        assert basis.eig.solver == solver

        def assembled(eig):
            raise AssertionError("the complex V or U* was assembled")

        monkeypatch.setattr(linalg.EigenDecomposition, "right_vectors", property(assembled))
        monkeypatch.setattr(linalg.EigenDecomposition, "left_dual", property(assembled))
        x = np.random.default_rng(8).standard_normal(op.n)
        bgft.synthesize(basis, bgft.analyze(basis, x))
        bgft.apply_filter(basis, FilterSpec.heat(2.0), x)
        bgft.apply_filter(basis, FilterSpec.ideal_lowpass(5), x)
        bgft.diffuse_spectral(basis, x, 7)
        assert "pi_metric" not in vars(basis)
        bgft.energy_report(basis, bgft.stationary(op), x)
        omega = bgft.select_band(basis, 4)
        m_set = bgft.greedy_sampling_set(basis, omega, 8)
        x_true = bgft.random_bandlimited(basis, omega, 3)
        bgft.reconstruct(basis, omega, m_set, bgft.sample(x_true, m_set), x_true=x_true)
        bgft.noise_bound(basis, omega, m_set, 1e-3)


# Each function of the diffusion time t, called as f(op, basis, x, t).
OF_T = {
    "diffuse_direct": lambda op, basis, x, t: bgft.diffuse_direct(op, x, t),
    "diffuse_spectral": lambda op, basis, x, t: bgft.diffuse_spectral(basis, x, t),
    "iterate_bound": lambda op, basis, x, t: bgft.iterate_bound(basis, t),
}


class TestDiffusion:
    def test_t_zero_identity(self, canonical_bases):
        op, basis = canonical_bases["perturbed"]
        x = _rand_signal(64, 0)
        assert_allclose(bgft.diffuse_direct(op, x, 0), x)
        assert np.linalg.norm(bgft.diffuse_spectral(basis, x, 0) - x) <= 1e-8

    def test_constant_signal_fixed_point(self, canonical_bases):
        op, _ = canonical_bases["perturbed"]
        ones = np.ones(64)
        assert_allclose(bgft.diffuse_direct(op, ones, 17), ones, atol=1e-12)

    def test_directed_cycle_full_rotation(self, canonical_bases):
        op, _ = canonical_bases["directed"]
        x = _rand_signal(64, 1)
        assert_allclose(bgft.diffuse_direct(op, x, 64), x, atol=1e-12)

    def test_t1_equals_matvec(self, canonical_bases):
        op, basis = canonical_bases["perturbed"]
        x = _rand_signal(64, 2)
        assert np.linalg.norm(bgft.diffuse_spectral(basis, x, 1) - op.p @ x) <= 1e-8

    def test_eigenvector_dynamics(self, canonical_bases):
        _, basis = canonical_bases["perturbed"]
        k, t = 7, 9
        got = bgft.diffuse_spectral(basis, basis.right_vectors[:, k], t)
        want = basis.eigenvalues[k] ** t * basis.right_vectors[:, k]
        assert np.linalg.norm(got - want) <= 1e-8

    def test_real_signal_stays_real(self, canonical_bases):
        op, _ = canonical_bases["perturbed"]
        x = np.random.default_rng(5).standard_normal(64)
        real = bgft.diffuse_direct(op, x, 50)
        assert real.dtype == np.float64
        via_complex = bgft.diffuse_direct(op, x.astype(complex), 50)
        assert np.linalg.norm(real - via_complex) <= 1e-14 * np.linalg.norm(via_complex)

    @pytest.mark.parametrize("f", OF_T)
    @pytest.mark.parametrize("t,message", [
        (0.5, "expected an integer t"),
        (np.float64(2.0), "expected an integer t"),
        (-1, "t must be >= 0"),
    ])
    def test_t_must_be_a_count(self, canonical_bases, f, t, message):
        # t = 0.5 would give V Lambda^(1/2) U* x, which is no diffusion
        op, basis = canonical_bases["perturbed"]
        with pytest.raises(ValueError, match=message):
            OF_T[f](op, basis, np.ones(64), t)

    @pytest.mark.parametrize("f", OF_T)
    def test_numpy_integer_t(self, canonical_bases, f):
        op, basis = canonical_bases["perturbed"]
        x = _rand_signal(64, 6)
        assert np.array_equal(OF_T[f](op, basis, x, np.int64(3)), OF_T[f](op, basis, x, 3))

    def test_spectral_agrees_with_direct(self, property_suite):
        rng = np.random.default_rng(50)
        for trial in range(50):
            op, basis = property_suite[trial % len(property_suite)]
            x = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
            t = int(rng.integers(0, 51))
            direct = bgft.diffuse_direct(op, x, t)
            spectral = bgft.diffuse_spectral(basis, x, t)
            tol = 1e-8 * basis.cond_v * max(1.0, np.linalg.norm(direct))
            assert np.linalg.norm(direct - spectral) <= tol


class TestFilters:
    def test_heat_tau_zero_is_identity(self, canonical_bases):
        _, basis = canonical_bases["perturbed"]
        h = bgft.filter_matrix(basis, FilterSpec.heat(0.0))
        assert np.linalg.norm(h - np.eye(64)) <= 1e-10 * 64

    def test_heat_passes_constant(self, canonical_bases, property_suite):
        # exp(-tau (I - P)) 1 = 1 for every tau: mode 0's lambda is exactly 1,
        # however far off 1 by roundoff the route returns it (1 - 2.2e-16 by
        # eigh on the undirected cycle, which lost 0.2 of 1 at tau = 1e15).
        for _, basis in [*canonical_bases.values(), *property_suite]:
            ones = np.ones(basis.n)
            for tau in (2.0, 1e12, 1e15, 1e308):
                out = bgft.apply_filter(basis, FilterSpec.heat(tau), ones)
                assert np.max(np.abs(out - ones)) <= 1e-13 * basis.cond_v, (tau, basis.n)

    @pytest.mark.parametrize("n", [256, 512])
    def test_heat_passes_constant_on_large_cycles(self, n):
        # What is left is the Perron column's own roundoff (its relative
        # spread grows with n on the undirected cycle).
        for g in (bgft.undirected_cycle(n),
                  bgft.add_directed_chord(bgft.directed_cycle(n), 20, 0, n // 2)):
            basis = bgft.decompose(bgft.transition(g))
            ones = np.ones(n)
            for tau in (2.0, 1e12, 1e15, 1e308):
                out = bgft.apply_filter(basis, FilterSpec.heat(tau), ones)
                assert np.max(np.abs(out - ones)) <= 1e-12, tau

    @pytest.mark.parametrize("tau", [1e12, 1e15, 1e17])
    def test_heat_never_amplifies(self, tau, canonical_bases):
        # exp(-tau (I - P)) is nonnegative and row-stochastic, so ||H x||_inf
        # <= ||x||_inf, even where roundoff puts an eigenvalue just above 1.
        x = np.arange(64.0)
        for name, (_, basis) in canonical_bases.items():
            out = bgft.apply_filter(basis, FilterSpec.heat(tau), x)
            assert np.max(np.abs(out)) <= np.max(np.abs(x)) * (1 + 1e-9), name

    def test_heat_huge_tau_is_the_exact_limit(self, canonical_bases):
        # tau * (1 - lambda) overflows to inf, and e^{-inf} = 0 exactly: the
        # response keeps the mode at lambda = 1 and no other, with no numpy
        # warning, on every route (eigh puts that eigenvalue just below 1).
        for name in ("undirected", "directed", "perturbed"):
            _, basis = canonical_bases[name]
            spec = FilterSpec.heat(1e308)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                h = spec.response(basis)
                bound = bgft.filter_bound(basis, spec)
            expected = np.zeros(64)
            expected[basis.order[0]] = 1.0
            assert np.array_equal(h, expected), name
            assert bound == basis.cond_v, name

    def test_diagonal_action(self, property_suite):
        for _, basis in property_suite[:6]:
            spec = FilterSpec.heat(2.0)
            h = bgft.filter_matrix(basis, spec)
            d = basis.left_dual @ h @ basis.right_vectors
            assert np.linalg.norm(np.diag(d) - spec.response(basis)) <= 1e-8
            assert np.linalg.norm(d - np.diag(np.diag(d))) <= 1e-8

    def test_apply_matches_matrix(self, canonical_bases):
        _, basis = canonical_bases["perturbed"]
        x = _rand_signal(64, 3)
        spec = FilterSpec.heat(2.0)
        via_matrix = bgft.filter_matrix(basis, spec) @ x
        via_spectral = bgft.apply_filter(basis, spec, x)
        assert np.linalg.norm(via_matrix - via_spectral) <= 1e-8 * np.linalg.norm(x)

    def test_ideal_lowpass_full_band_is_identity(self, canonical_bases):
        _, basis = canonical_bases["directed"]
        h = bgft.filter_matrix(basis, FilterSpec.ideal_lowpass(64))
        assert np.linalg.norm(h - np.eye(64)) <= 1e-8 * 64

    def test_ideal_lowpass_projects_onto_band(self, canonical_bases):
        _, basis = canonical_bases["perturbed"]
        x = _rand_signal(64, 4)
        out = bgft.apply_filter(basis, FilterSpec.ideal_lowpass(8), x)
        xhat = bgft.analyze(basis, out)
        outside = np.delete(np.arange(64), basis.order[:8])
        assert np.linalg.norm(xhat[outside]) <= 1e-8 * np.linalg.norm(out)

    def test_custom_table(self, canonical_bases):
        _, basis = canonical_bases["directed"]
        spec = FilterSpec.custom(np.ones(64))
        assert np.linalg.norm(
            bgft.filter_matrix(basis, spec) - np.eye(64)
        ) <= 1e-8 * 64

    @pytest.mark.parametrize("samples", [[np.nan] * 64, np.ones((64, 64)), [], 1.0])
    def test_custom_table_checked_when_built(self, samples):
        # A nan table gave a NaN filter_bound, and an (n, n) table a
        # non-diagonal filter_matrix.
        with pytest.raises(ValueError):
            FilterSpec.custom(samples)

    def test_custom_table_one_entry_per_mode(self, canonical_bases):
        _, basis = canonical_bases["directed"]
        with pytest.raises(ValueError, match="one entry per mode"):
            bgft.filter_matrix(basis, FilterSpec.custom(np.ones(63)))

    def test_ideal_lowpass_band_past_n(self, canonical_bases):
        _, basis = canonical_bases["directed"]
        with pytest.raises(InvalidSizeError, match="k must be in 1..64, got 65"):
            FilterSpec.ideal_lowpass(65).response(basis)

    @pytest.mark.parametrize("k", [2.7, np.float64(2.0), "3"])
    def test_ideal_lowpass_rejects_non_integer(self, k):
        with pytest.raises(InvalidSizeError, match="integer k"):
            FilterSpec.ideal_lowpass(k)

    def test_ideal_lowpass_accepts_numpy_integer(self, canonical_bases):
        _, basis = canonical_bases["perturbed"]
        spec = FilterSpec.ideal_lowpass(np.int64(3))
        assert np.count_nonzero(spec.response(basis)) == 3

    def test_heat_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            FilterSpec.heat(-1.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_heat_rejects_nonfinite_tau(self, tau):
        with pytest.raises(ValueError):
            FilterSpec.heat(tau)


class TestBounds:
    def test_iterate_bound_t0(self, canonical_bases):
        _, basis = canonical_bases["perturbed"]
        assert bgft.iterate_bound(basis, 0) == pytest.approx(basis.cond_v)

    def test_stochastic_bound_constant(self, canonical_bases):
        _, basis = canonical_bases["perturbed"]
        for t in (1, 10, 50):
            assert bgft.iterate_bound(basis, t) == pytest.approx(
                basis.cond_v, rel=1e-8
            )

    def test_iterate_bound_holds(self, property_suite):
        for op, basis in property_suite:
            pt = np.eye(op.n)
            for t in range(1, 51):
                pt = pt @ op.p
                assert bgft.spectral_norm2(pt) <= bgft.iterate_bound(basis, t) + 1e-8

    def test_filter_bound_tau0(self, canonical_bases):
        _, basis = canonical_bases["perturbed"]
        spec = FilterSpec.heat(0.0)
        assert bgft.filter_bound(basis, spec) == pytest.approx(basis.cond_v)
        assert bgft.spectral_norm2(bgft.filter_matrix(basis, spec)) <= (
            bgft.filter_bound(basis, spec) + 1e-8
        )

    def test_filter_bound_holds(self, property_suite):
        for op, basis in property_suite:
            for tau in (0.5, 2.0, 8.0):
                spec = FilterSpec.heat(tau)
                h_norm = bgft.spectral_norm2(bgft.filter_matrix(basis, spec))
                assert h_norm <= bgft.filter_bound(basis, spec) + 1e-8


def _energy_reference(basis, dist, x):
    """energy_report computed from scratch on every call: W = Pi^{1/2} V with
    unit-norm columns, its full SVD taken, as in BgftBasis.pi_metric, on the
    real frame of V, and U* x from its frame.  The reference for the cached
    path, bit for bit."""
    x = np.asarray(x)
    pi = dist.pi
    xhat = basis.eig.left_apply(x)
    gram_energy = float(np.sum(pi * np.abs(basis.right_vectors @ xhat) ** 2))
    w = np.sqrt(pi)[:, None] * basis.eig.right_frame
    scale = linalg.frame_norms(w, basis.eig.pairs)
    xhat = xhat * scale
    sw = np.linalg.svd(w / scale, compute_uv=False)
    mode_sum = float(np.sum(np.abs(1.0 - basis.eigenvalues) ** 2 * np.abs(xhat) ** 2))
    p = basis.operator.p  # a complex P x as two real products, as apply forms it
    px = p @ x if np.isrealobj(x) else p @ x.real + 1j * (p @ x.imag)
    return bgft.EnergyReport(
        pi_energy=float(np.sum(pi * np.abs(x) ** 2)),
        gram_energy=gram_energy,
        sigma_w_min=float(sw[-1]),
        sigma_w_max=float(sw[0]),
        tv_pi=float(np.sum(pi * np.abs(x - px) ** 2)),
        tv_lower=float(sw[-1] ** 2) * mode_sum,
        tv_upper=float(sw[0] ** 2) * mode_sum,
    )


def _energy_oracle(basis, dist, x):
    """energy_report from the assembled complex V and U*, independent of the
    frames: U* x as a product, and W = Pi^{1/2} V with unit-norm columns and
    its SVD.  Also returns the scale of the mode sums' roundoff, max |1 -
    lambda_k|^2 ||diag(s) U* x||^2."""
    x = np.asarray(x)
    pi = dist.pi
    xhat = basis.left_dual @ x
    w = np.sqrt(pi)[:, None] * basis.right_vectors
    scale = np.linalg.norm(w, axis=0)
    w = w / scale
    xhat = xhat * scale
    sw = np.linalg.svd(w, compute_uv=False)
    gap = np.abs(1.0 - basis.eigenvalues) ** 2
    mode_sum = float(np.sum(gap * np.abs(xhat) ** 2))
    report = bgft.EnergyReport(
        pi_energy=float(np.sum(pi * np.abs(x) ** 2)),
        gram_energy=float(np.sum(np.abs(w @ xhat) ** 2)),
        sigma_w_min=float(sw[-1]),
        sigma_w_max=float(sw[0]),
        tv_pi=float("nan"),
        tv_lower=float(sw[-1] ** 2) * mode_sum,
        tv_upper=float(sw[0] ** 2) * mode_sum,
    )
    return report, float(gap.max() * np.sum(np.abs(xhat) ** 2))


@pytest.fixture
def svd_shapes(monkeypatch):
    """The shapes of the matrices passed to np.linalg.svd while the test runs."""
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


class TestEnergy:
    def test_one_svd_per_basis(self, svd_shapes):
        op = bgft.transition(random_digraph(16, 90))
        basis = bgft.decompose(op)
        dist = bgft.stationary(op)
        del svd_shapes[:]  # eig_general's SVD for cond(V)
        for seed in range(5):
            bgft.energy_report(basis, dist, _rand_signal(16, seed))
        assert svd_shapes == [(16, 16)]

    def test_decompose_and_stationary_leave_cache_empty(self, svd_shapes):
        op = bgft.transition(random_digraph(16, 91))
        op.eig  # the one eigendecomposition, whose SVD gives cond(V)
        del svd_shapes[:]
        basis = bgft.decompose(op)
        bgft.stationary(op)
        assert svd_shapes == []
        assert "pi_metric" not in vars(basis)

    def test_matches_per_call_reference(self, canonical_bases, property_suite):
        cases = list(canonical_bases.values()) + property_suite
        for i, (op, basis) in enumerate(cases):
            dist = bgft.stationary(op)
            for x in (_rand_signal(op.n, 200 + i), np.ones(op.n)):
                got = bgft.energy_report(basis, dist, x)
                want = _energy_reference(basis, dist, x)
                assert got.gram_energy == pytest.approx(want.gram_energy, rel=1e-14)
                assert dataclasses.replace(got, gram_energy=want.gram_energy) == want
                # The frames against the assembled V and U*: sigma(W) and the
                # pair norms of frame_norms, and U* x through left_apply.
                oracle, mode_scale = _energy_oracle(basis, dist, x)
                tol = 1e-13 * basis.eig.cond_v
                for field in ("gram_energy", "sigma_w_min", "sigma_w_max"):
                    assert getattr(got, field) == pytest.approx(getattr(oracle, field), rel=tol)
                for field, sigma in (("tv_lower", oracle.sigma_w_min),
                                     ("tv_upper", oracle.sigma_w_max)):
                    bound = tol * (getattr(oracle, field) + sigma**2 * mode_scale)
                    assert abs(getattr(got, field) - getattr(oracle, field)) <= bound

    def test_dist_must_be_stationary(self, canonical_bases):
        op, basis = canonical_bases["perturbed"]
        pi = bgft.stationary(op).pi
        bumped = pi * (1.0 + 1e-6 * np.arange(op.n))
        for wrong in (pi[:-1], np.where(np.arange(op.n) == 3, np.nan, pi),
                      bumped / bumped.sum()):
            with pytest.raises(ValueError, match="stationary distribution"):
                bgft.energy_report(basis, bgft.StationaryDistribution(pi=wrong), np.ones(op.n))

    def test_reversible_collapse(self):
        op = bgft.transition(random_reversible_graph(12, 60))
        dist = bgft.stationary(op)
        basis = bgft.decompose(op)
        rep = bgft.energy_report(basis, dist, _rand_signal(12, 61))
        assert rep.sigma_w_min == pytest.approx(1.0, abs=1e-6)
        assert rep.sigma_w_max == pytest.approx(1.0, abs=1e-6)
        assert rep.tv_lower <= rep.tv_pi * (1 + 1e-8) + 1e-12
        assert rep.tv_upper >= rep.tv_pi * (1 - 1e-8) - 1e-12

    def test_constant_signal_zero_variation(self, canonical_bases):
        op, basis = canonical_bases["perturbed"]
        dist = bgft.stationary(op)
        rep = bgft.energy_report(basis, dist, np.ones(64))
        assert rep.tv_pi <= 1e-12

    def test_parseval_and_sandwich(self, canonical_bases):
        op, basis = canonical_bases["perturbed"]
        dist = bgft.stationary(op)
        for seed in range(5):
            rep = bgft.energy_report(basis, dist, _rand_signal(64, 70 + seed))
            assert rep.gram_energy == pytest.approx(rep.pi_energy, rel=1e-8)
            slack = 1e-8 * max(1.0, rep.tv_pi)
            assert rep.tv_lower <= rep.tv_pi + slack
            assert rep.tv_pi <= rep.tv_upper + slack

    def test_eigenvalue_multisets_match_symmetrized(self):
        op = bgft.transition(random_reversible_graph(10, 80))
        dist = bgft.stationary(op)
        lam_p = np.sort(bgft.eig_general(op.p).eigenvalues.real)
        s = bgft.symmetrize(op, dist)
        lam_s = np.sort(np.linalg.eigvalsh((s + s.T) / 2))
        assert_allclose(lam_p, lam_s, atol=1e-8)
