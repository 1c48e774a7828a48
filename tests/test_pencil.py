"""Subspace splitting estimator: SVD, extraction, Gram inverse, pencil."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import eigh, subspace_angles

from resofilt import (
    NumericError,
    apply_filter,
    design_filter,
    detect,
    estimate_model_ls,
    estimate_model_pencil,
    extract_submatrices,
    gram_inverse_direct,
    gram_inverse_iterative,
    pencil_eigenvalues,
    spectrum,
    svd_windows,
    synth_texture,
)
from resofilt import pencil
from resofilt.pencil import SubspaceBasis, default_split, extraction_indices

from conftest import FOUR_PAIRS, conj_freqs, lag_correlation, pairs_subset, root_set_error


def _pencil_roots(region, n_modes, split):
    return _basis_roots(svd_windows(region, split, n_modes))


def _basis_roots(basis):
    u0, ux, uy = extract_submatrices(basis)
    gram = gram_inverse_direct(u0)
    return pencil_eigenvalues(u0, ux, gram), pencil_eigenvalues(u0, uy, gram)


def _oracle_basis(region, split, n_modes):
    """Reference subspace: full eigendecomposition of the lag correlation."""
    m, n = region.shape
    r = lag_correlation(region, m - split, n - split)
    vals, vecs = np.linalg.eigh(r)
    keep = min(r.shape[0], n_modes + 8)
    return SubspaceBasis(
        vectors=vecs[:, ::-1][:, :n_modes],
        singular_values=np.maximum(vals[::-1][:keep], 0.0),
        split=split,
        dims=(m, n),
    )


class TestSvdCorrelation:
    def test_rank_one_constant_image(self):
        basis = svd_windows(np.full((12, 12), 3.0), 8, 1)
        sv = basis.singular_values
        assert sv[0] > 0
        assert (sv[1:] < 1e-10 * sv[0]).all()

    def test_significant_count_matches_harmonic_rank(self):
        # independent rank oracle: eigendecomposition of the full matrix
        for k in (1, 2, 3):
            region = synth_texture(pairs_subset(k), 48, 48)
            eigs = np.sort(np.linalg.eigvalsh(lag_correlation(region, 12, 12)))[::-1]
            significant = int(np.sum(eigs > 1e-10 * eigs[0]))
            assert significant == 2 * k
            basis = svd_windows(region, 36, 2 * k)
            assert basis.n_modes == 2 * k

    def test_overestimated_order_rejected(self):
        region = synth_texture(pairs_subset(2), 48, 48)
        with pytest.raises(NumericError):
            svd_windows(region, 36, 6)

    def test_orthonormal_vectors(self, rng):
        basis = svd_windows(rng.normal(0, 1, (20, 20)), 15, 6)
        gram = basis.vectors.T @ basis.vectors
        assert np.abs(gram - np.eye(6)).max() < 1e-10

    def test_split_out_of_range_rejected(self):
        region = np.random.default_rng(0).normal(size=(16, 16))
        for split in (0, 15):
            with pytest.raises(ValueError, match="split"):
                svd_windows(region, split, 2)
        for n_modes in (0, 17):  # split 12 leaves a 4x4 lag window
            with pytest.raises(ValueError, match="n_modes"):
                svd_windows(region, 12, n_modes)


class TestSvdWindows:
    # split 21 (the default on 64x64) has 22^2 = 484 window positions for
    # 43^2 = 1849 lags: the position Gram.  Split 50 has 225 positions for
    # 196 lags: the lag Gram, which is the correlation matrix itself.
    @pytest.mark.parametrize("split", [21, 50])
    def test_matches_full_correlation_oracle(self, split):
        region = synth_texture(pairs_subset(2), 64, 64)
        basis = svd_windows(region, split, 4)
        oracle = _oracle_basis(region, split, 4)
        sv, ref = basis.singular_values, oracle.singular_values
        assert sv.shape == ref.shape
        assert np.abs(sv[:4] - ref[:4]).max() <= 1e-12 * ref[:4].min()
        assert np.abs(sv - ref).max() <= 1e-12 * ref[0]
        assert subspace_angles(basis.vectors, oracle.vectors).max() < 1e-8
        for got, want in zip(_basis_roots(basis), _basis_roots(oracle)):
            assert root_set_error(got.roots, want.roots) < 1e-10

    def test_short_position_gram_pads_zero_eigenvalues(self, rng):
        # split 2 on 12x12: 9 window positions for 100 lags, so the lag
        # correlation has 9 nonzero eigenvalues and a tail of 10 ends in 0
        region = rng.normal(0, 1, (12, 12))
        basis = svd_windows(region, 2, 2)
        ref = _oracle_basis(region, 2, 2).singular_values
        assert basis.singular_values.shape == (10,)
        assert basis.singular_values[-1] == 0.0
        assert np.abs(basis.singular_values - ref).max() <= 1e-12 * ref[0]
        with pytest.raises(NumericError):
            svd_windows(region, 2, 10)

    def test_orthonormal_vectors_position_gram(self, rng):
        basis = svd_windows(rng.normal(0, 1, (64, 64)), 21, 8)
        assert basis.vectors.shape == (43 * 43, 8)
        gram = basis.vectors.T @ basis.vectors
        assert np.abs(gram - np.eye(8)).max() < 1e-10

    def test_same_detect_mask_as_full_correlation(self, monkeypatch):
        scene = synth_texture(FOUR_PAIRS, 128, 128, noise_sigma=0.01, mean=128.0)
        scene[80:91, 80:91] = 200.0
        base = scene[:64, :64]
        masks = []
        for subspace in (svd_windows, _oracle_basis):
            monkeypatch.setattr(pencil, "svd_windows", subspace)
            model, _ = estimate_model_pencil(base, 4)
            irf = design_filter(base, model)
            masks.append(detect([apply_filter(scene, irf)], [irf], [scene]))
        assert masks[0].positive()[80:91, 80:91].any()
        assert np.array_equal(masks[0].positive(), masks[1].positive())


def _noisy_two_harmonics():
    # the benchmark's regime: amplitudes 20-40 over white noise of sigma 1
    pairs = [(fx, fy, 30.0 * amp, phase) for fx, fy, amp, phase in pairs_subset(2)]
    return synth_texture(pairs, 64, 64, noise_sigma=1.0, seed=3)


def _refuse_dense_eigensolve(*args, **kwargs):
    raise AssertionError("dense eigensolve called")


class TestSubspaceIteration:
    # split 21 on 64x64: a 484^2 position Gram against a block of 12
    def test_noisy_region_matches_full_correlation_oracle(self):
        region = _noisy_two_harmonics()
        basis = svd_windows(region, 21, 4)
        oracle = _oracle_basis(region, 21, 4)
        sv, ref = basis.singular_values, oracle.singular_values
        assert sv.shape == ref.shape
        assert np.abs(sv[:4] - ref[:4]).max() <= 1e-12 * ref[:4].min()
        assert subspace_angles(basis.vectors, oracle.vectors).max() < 1e-8
        tail = sv[4:]
        assert (tail >= 0).all()
        assert (tail <= ref[4:] + 1e-12 * ref[0]).all()  # Ritz values: lower bounds
        assert (np.diff(tail) <= 0).all()

    def test_gapped_region_needs_no_dense_eigensolve(self, monkeypatch):
        region = _noisy_two_harmonics()
        monkeypatch.setattr(pencil, "eigh", _refuse_dense_eigensolve)
        model, _ = estimate_model_pencil(region, 4, dc_root=False)
        for got, axis in ((model.zx, "x"), (model.zy, "y")):
            truth = conj_freqs(pairs_subset(2), axis)
            assert np.abs(np.sort(got.frequencies) - truth).max() < 1e-3
        # the iteration converges on a rank-deficient Gram too, and the
        # rank check still rejects the overestimated order
        with pytest.raises(NumericError):
            svd_windows(synth_texture(pairs_subset(2), 48, 48), 36, 6)

    def test_gap_free_noise_falls_back_to_exact_eigensolve(self, monkeypatch, rng):
        region = rng.normal(0, 1, (64, 64))
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(pencil, "eigh", counted)
        basis = svd_windows(region, 21, 4)
        assert len(calls) == 1
        f = sliding_window_view(region, (43, 43)).reshape(-1, 43 * 43)
        vals, vecs = eigh(f @ f.T, subset_by_index=[472, 483])
        vals, vecs = vals[::-1], vecs[:, ::-1][:, :4]
        assert np.array_equal(basis.singular_values, np.maximum(vals, 0.0))
        assert np.array_equal(basis.vectors, (f.T @ vecs) / np.sqrt(vals[:4]))

    # pure noise, and two harmonics (rank 4) asked for 6 modes: neither Gram
    # has a gap below the requested pairs
    @pytest.mark.parametrize("case", ["noise", "two harmonics at 6 modes"])
    def test_no_gap_falls_back_after_two_steps(self, monkeypatch, case):
        if case == "noise":
            region, n_modes = np.random.default_rng(5).normal(0, 1, (64, 64)), 4
        else:
            region, n_modes = _noisy_two_harmonics(), 6
        events = []
        tdot = pencil._WindowMatrix.tdot

        def step(self, block):
            events.append("step")
            return tdot(self, block)

        def dense(*args, **kwargs):
            events.append("eigh")
            return eigh(*args, **kwargs)

        monkeypatch.setattr(pencil._WindowMatrix, "tdot", step)
        monkeypatch.setattr(pencil, "eigh", dense)
        svd_windows(region, 21, n_modes)
        assert events == ["step", "step", "eigh"]


class TestWindowProducts:
    """The FFT products of the window matrix against the matrix itself."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(3, 21),
        n=st.integers(3, 21),
        data=st.data(),
    )
    @example(m=64, n=64, data=None)  # position Gram (484 < 1849)
    @example(m=15, n=9, data=None)  # lag Gram, odd and non-square
    def test_products_match_the_explicit_window_matrix(self, m, n, data):
        if data is None:
            split, columns, seed = min(m, n) // 3, 3, 0
        else:
            split = data.draw(st.integers(1, min(m, n) - 2), label="split")
            columns = data.draw(st.integers(1, 4), label="columns")
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        region = rng.normal(0, 1, (m, n))
        wx, wy = m - split, n - split
        f = sliding_window_view(region, (wx, wy)).reshape(-1, wx * wy)
        windows = pencil._WindowMatrix(region, split, columns)
        y = rng.normal(0, 1, (wx * wy, columns))
        u = rng.normal(0, 1, ((split + 1) ** 2, columns))
        for got, want in ((windows.dot(y), f @ y), (windows.tdot(u), f.T @ u)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestExtraction:
    def test_golden_index_sets_window_3x3(self):
        # data window 4x4 with split 1 -> lag window 3x3; hand-enumerated
        base, shift_x, shift_y = extraction_indices(3, 3)
        assert base.tolist() == [0, 1, 3, 4]
        assert shift_x.tolist() == [3, 4, 6, 7]
        assert shift_y.tolist() == [1, 2, 4, 5]

    def test_golden_index_sets_window_3x4(self):
        base, shift_x, shift_y = extraction_indices(3, 4)
        assert base.tolist() == [0, 1, 2, 4, 5, 6]
        assert shift_x.tolist() == [4, 5, 6, 8, 9, 10]
        assert shift_y.tolist() == [1, 2, 3, 5, 6, 7]

    def test_identity_vectors_extraction(self):
        eye = np.eye(9)[:, :1]
        basis = SubspaceBasis(
            vectors=eye, singular_values=np.ones(1), split=1, dims=(4, 4)
        )
        u0, ux, uy = extract_submatrices(basis)
        assert np.array_equal(u0, np.eye(9)[[0, 1, 3, 4], :1])
        assert np.array_equal(ux, np.eye(9)[[3, 4, 6, 7], :1])
        assert np.array_equal(uy, np.eye(9)[[1, 2, 4, 5], :1])

    def test_equal_row_counts(self, rng):
        basis = svd_windows(rng.normal(0, 1, (16, 16)), 10, 4)
        u0, ux, uy = extract_submatrices(basis)
        assert u0.shape == ux.shape == uy.shape

    def test_degenerate_split_boundary(self, rng):
        # split at its upper bound leaves a 2x2 lag window: one pencil row
        region = rng.normal(0, 1, (8, 8))
        basis = svd_windows(region, 6, 2)
        with pytest.raises(NumericError):
            extract_submatrices(basis)

    def test_split_below_mode_count_rejected(self, rng):
        basis = svd_windows(rng.normal(0, 1, (12, 12)), 3, 3)
        bad = SubspaceBasis(
            vectors=basis.vectors,
            singular_values=basis.singular_values,
            split=2,  # inconsistent with the lag window on purpose
            dims=(11, 11),
        )
        with pytest.raises(ValueError):
            extract_submatrices(bad)


class TestGramInverse:
    def test_orthonormal_columns_give_identity(self, rng):
        q, _ = np.linalg.qr(rng.normal(0, 1, (12, 4)))
        e = gram_inverse_iterative(q)
        assert np.abs(e - np.eye(4)).max() < 1e-10

    def test_matches_direct_inverse(self, rng):
        for _ in range(30):
            u0 = rng.normal(0, 1, (20, 4))
            direct = gram_inverse_direct(u0)
            iterative = gram_inverse_iterative(u0)
            assert np.abs(direct - iterative).max() < 1e-10

    def test_duplicated_column_rejected(self, rng):
        u0 = rng.normal(0, 1, (10, 3))
        u0[:, 2] = u0[:, 1]
        with pytest.raises(NumericError):
            gram_inverse_iterative(u0)

    def test_fewer_rows_than_columns_rejected(self, rng):
        with pytest.raises(NumericError):
            gram_inverse_iterative(rng.normal(0, 1, (3, 5)))


class TestPencilEigenvalues:
    def test_single_pair_exact(self):
        region = synth_texture([(0.125, 0.2, 1.0, 0.3)], 48, 48)
        zx, zy = _pencil_roots(region, 2, split=36)
        expected_x = np.exp(np.array([1j, -1j]) * np.pi / 4)
        assert root_set_error(zx.roots, expected_x) < 1e-6
        expected_y = np.exp(2j * np.pi * np.array([0.2, -0.2]))
        assert root_set_error(zy.roots, expected_y) < 1e-6

    def test_constant_image_unit_eigenvalue(self):
        zx, _ = _pencil_roots(np.full((24, 24), 2.0), 1, split=18)
        assert abs(zx.roots[0] - 1.0) < 1e-8

    def test_damped_modes_keep_damping_sign(self):
        rows = np.arange(32)[:, None]
        cols = np.arange(32)[None, :]
        decay = 0.97
        region = (decay**rows) * np.cos(2 * np.pi * (0.13 * rows + 0.21 * cols) + 0.4)
        zx, zy = _pencil_roots(region, 2, split=12)
        assert np.abs(zx.source_moduli - decay).max() < 1e-6
        assert (np.log(zx.source_moduli) < 0).all()
        assert np.abs(zy.source_moduli - 1.0).max() < 1e-6

    def test_conjugate_closure_real_data(self, rng):
        region = synth_texture(pairs_subset(2), 48, 48)
        zx, _ = _pencil_roots(region, 4, split=36)
        for z in zx.roots:
            assert min(abs(np.conj(z) - w) for w in zx.roots) < 1e-8

    def test_shape_mismatch_rejected(self, rng):
        u0 = rng.normal(0, 1, (8, 2))
        with pytest.raises(ValueError):
            pencil_eigenvalues(u0, u0[:-1], np.eye(2))


class TestPairFrequencies:
    """Amplitudes of pencil roots over the Cartesian root grid, ranked by
    magnitude (largest first)."""

    @staticmethod
    def _ranked(region, zx, zy):
        return np.sort(np.abs(spectrum(region, zx, zy)), axis=None)[::-1]

    def test_two_pair_energy_concentration(self):
        pairs = pairs_subset(2)
        region = synth_texture(pairs, 48, 48)
        zx, zy = _pencil_roots(region, 4, split=36)
        energy = self._ranked(region, zx, zy) ** 2
        assert energy[:4].sum() / energy.sum() > 0.99

    def test_single_pair_dominant_quadruple(self):
        region = synth_texture([(0.125, 0.2, 1.0, 0.3)], 48, 48)
        zx, zy = _pencil_roots(region, 2, split=36)
        mags = self._ranked(region, zx, zy)
        assert (mags[:2] > 0.49).all()  # conjugate pair at c/2
        assert (mags[2:] < 1e-6).all()

    def test_zero_region_zero_amplitudes(self):
        zx, zy = _pencil_roots(synth_texture([(0.125, 0.2, 1.0, 0.3)], 48, 48), 2, 36)
        assert self._ranked(np.zeros((48, 48)), zx, zy).max() < 1e-12


class TestDefaultSplit:
    def test_third_of_window_clamped(self):
        assert default_split((64, 64), 8) == 21
        assert default_split((64, 64), 30) == 30  # clamped up to the order
        assert default_split((12, 12), 2) == 4
        with pytest.raises(ValueError):
            default_split((8, 8), 7)  # no admissible value


class TestCrossEstimatorAgreement:
    def test_frequencies_match_ls_on_regular_texture(self):
        region = synth_texture(pairs_subset(2), 64, 64)
        model_ls, _ = estimate_model_ls(region, 4, 4, dc_root=False)
        model_pn, _ = estimate_model_pencil(region, 4, dc_root=False)
        fx_ls = np.sort(model_ls.zx.frequencies)
        fx_pn = np.sort(model_pn.zx.frequencies)
        assert np.abs(fx_ls - fx_pn).max() < 1e-3
        truth = np.sort(conj_freqs(pairs_subset(2), "x"))
        assert np.abs(fx_pn - truth).max() < 1e-6
