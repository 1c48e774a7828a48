"""Axis correlation matrices and the two coefficient solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resofilt import (
    estimate_model_ls,
    ls_coefficients,
    ls_symmetric_coefficients,
    marginal_correlations,
    polynomial_roots,
    synth_texture,
)
from resofilt import linear_symmetry
from resofilt.linear_symmetry import COND_LIMIT

from conftest import FOUR_PAIRS, lag_correlation, root_set_error


def naive_correlation(image, wx, wy):
    """Definitional quadruple loop over lag pairs and window positions."""
    nx, ny = image.shape
    dim = wx * wy
    out = np.zeros((dim, dim))
    for ix in range(wx):
        for iy in range(wy):
            for kx in range(wx):
                for ky in range(wy):
                    s = 0.0
                    for m in range(nx - wx + 1):
                        for n in range(ny - wy + 1):
                            s += image[m + ix, n + iy] * image[m + kx, n + ky]
                    out[ix * wy + iy, kx * wy + ky] = s
    return out


def corr_1d(u, m):
    """1D lag-product matrix with lags 0..m-1 (windows of length m)."""
    u = np.asarray(u, dtype=float)
    d = np.stack([u[i : len(u) - m + 1 + i] for i in range(m)], axis=1)
    return d.T @ d


def naive_marginals(image, wx, wy):
    """The x and y lag blocks of the naive correlation: the other axis's
    lags both zero."""
    ref = naive_correlation(image, wx, wy)
    return ref[::wy, ::wy], ref[:wy, :wy]


class TestCorrelation2D:
    def test_lag_correlation_helper_matches_naive(self, rng):
        image = rng.normal(0, 1, (10, 9))
        ref = naive_correlation(image, 3, 2)
        assert np.abs(lag_correlation(image, 3, 2) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_all_ones_4x4(self):
        rx, ry = marginal_correlations(np.ones((4, 4)), 2, 2)
        assert np.array_equal(rx, np.full((2, 2), 9.0))
        assert np.array_equal(ry, np.full((2, 2), 9.0))

    def test_zero_image(self):
        rx, ry = marginal_correlations(np.zeros((6, 5)), 2, 2)
        assert np.array_equal(rx, np.zeros((2, 2)))
        assert np.array_equal(ry, np.zeros((2, 2)))

    def test_matches_naive_reference(self, rng):
        image = rng.normal(0, 1, (16, 16))
        for got, ref in zip(marginal_correlations(image, 3, 2), naive_marginals(image, 3, 2)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_single_harmonic_matches_naive(self):
        image = synth_texture([(0.2, 0.3, 1.0, 0.4)], 12, 12)
        for got, ref in zip(marginal_correlations(image, 2, 3), naive_marginals(image, 2, 3)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_symmetry_and_psd(self, rng):
        image = rng.normal(0, 1, (20, 20))
        for m in marginal_correlations(image, 3, 3):
            assert np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max()
            eigs = np.linalg.eigvalsh(m)
            assert eigs.min() >= -1e-9 * np.trace(m)

    def test_window_must_fit(self):
        with pytest.raises(ValueError, match="does not fit"):
            marginal_correlations(np.ones((4, 4)), 4, 2)
        with pytest.raises(ValueError, match="does not fit"):
            marginal_correlations(np.ones((4, 4)), 2, 4)
        with pytest.raises(ValueError, match="positive"):
            marginal_correlations(np.ones((4, 4)), 0, 2)
        with pytest.raises(ValueError, match="2D"):
            marginal_correlations(np.ones((4, 4, 2)), 2, 2)


class TestMarginals:
    def test_constant_image(self):
        # 5 x 4 positions of a 3 x 2 window on a 7 x 5 image, 2.0 * 2.0 each
        rx, ry = marginal_correlations(np.full((7, 5), 2.0), 3, 2)
        assert np.array_equal(rx, np.full((3, 3), 80.0))
        assert np.array_equal(ry, np.full((2, 2), 80.0))

    def test_trivial_window(self):
        image = np.arange(12.0).reshape(3, 4)
        rx, ry = marginal_correlations(image, 1, 1)
        assert rx.shape == (1, 1) and ry.shape == (1, 1)
        assert rx[0, 0] == ry[0, 0] == naive_correlation(image, 1, 1)[0, 0]

    def test_separable_texture_against_1d_oracle(self):
        # u(i,k) = f(i)g(k): the x marginal is the 1D correlation of f
        # scaled by the lag-0 correlation mass of g over the k-window.
        nx, ny, wx = 14, 11, 3
        f = np.cos(2 * np.pi * 0.2 * np.arange(nx)) + 0.3
        g = np.sin(2 * np.pi * 0.31 * np.arange(ny)) + 1.1
        image = np.outer(f, g)
        rx, _ = marginal_correlations(image, wx, 1)
        ref = corr_1d(f, wx) * np.sum(g * g)
        assert np.abs(rx - ref).max() < 1e-9 * np.abs(ref).max()

    @given(
        shape=st.tuples(st.integers(2, 24), st.integers(2, 24)),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_equal_blocks_of_full_lag_correlation(self, shape, data, seed):
        wx = data.draw(st.integers(1, shape[0] - 1), label="wx")
        wy = data.draw(st.integers(1, shape[1] - 1), label="wy")
        image = np.random.default_rng(seed).normal(0, 1, shape)
        full = lag_correlation(image, wx, wy)
        rx, ry = marginal_correlations(image, wx, wy)
        scale = np.abs(full).max()
        assert np.abs(rx - full[::wy, ::wy]).max() <= 1e-13 * scale
        assert np.abs(ry - full[:wy, :wy]).max() <= 1e-13 * scale


class TestPlainSolve:
    def test_sinusoid_order_two(self):
        theta = 2 * np.pi * 0.125
        u = np.cos(theta * np.arange(400) + 0.3)
        sol = ls_coefficients(corr_1d(u, 3), 2)
        assert np.abs(sol.coeffs.a - [-2 * np.cos(theta), 1.0]).max() < 1e-6

    def test_identity_matrix_white_noise(self):
        sol = ls_coefficients(np.eye(6), 5)
        assert np.abs(sol.coeffs.a[:-1]).max() < 1e-12
        assert sol.sigma2 == pytest.approx(1.0)
        assert sol.rho_last == pytest.approx(1.0)

    def test_constant_signal_unit_root(self):
        u = np.full(200, 5.0)
        sol = ls_coefficients(corr_1d(u, 2), 1)
        root = polynomial_roots(sol.coeffs).roots[0]
        assert abs(root - 1.0) < 1e-6
        assert sol.degenerate  # exactly singular input, ridge-resolved

    def test_matrix_too_small(self):
        with pytest.raises(ValueError):
            ls_coefficients(np.eye(3), 3)

    def test_scale_invariance(self, rng):
        u = synth_texture([(0.13, 0.0, 1.0, 0.2)], 64, 4, noise_sigma=0.05, seed=1)[:, 0]
        r = corr_1d(u, 5)
        a1 = ls_coefficients(r, 4).coeffs.a
        a2 = ls_coefficients(977.3 * r, 4).coeffs.a
        assert np.abs(a1 - a2).max() < 1e-9


class TestSymmetricSolve:
    def test_two_pair_annihilator_exact(self):
        f1, f2 = 0.11, 0.31
        c1, c2 = np.cos(2 * np.pi * f1), np.cos(2 * np.pi * f2)
        t = np.arange(256.0)
        u = 1.3 * np.cos(2 * np.pi * f1 * t + 0.7) + 0.8 * np.cos(2 * np.pi * f2 * t + 1.9)
        sol = ls_symmetric_coefficients(corr_1d(u, 5), 4)
        expected = [-2 * (c1 + c2), 2 + 4 * c1 * c2, -2 * (c1 + c2), 1.0]
        assert np.abs(sol.coeffs.a - expected).max() < 1e-6
        roots = polynomial_roots(sol.coeffs).roots
        truth = np.exp(2j * np.pi * np.array([f1, -f1, f2, -f2]))
        assert root_set_error(roots, truth) < 1e-6

    def test_output_exactly_palindromic(self, rng):
        u = rng.normal(0, 1, 300)
        sol = ls_symmetric_coefficients(corr_1d(u, 9), 8)
        a = sol.coeffs.a
        assert a[-1] == 1.0
        for i in range(1, 4):
            assert a[i - 1] == a[8 - i - 1]  # bit-exact mirror

    def test_matrix_without_lag_p_rejected(self, rng):
        # the form needs lag products up to lag p: a bare p x p matrix is
        # an error, not an estimate
        r5 = corr_1d(rng.normal(0, 1, 256), 5)
        with pytest.raises(ValueError, match=r"size 4 cannot support order 4: lags 0\.\.4"):
            ls_symmetric_coefficients(r5[:4, :4], 4)
        assert ls_symmetric_coefficients(r5, 4).coeffs.a[-1] == 1.0

    def test_phase_break_does_not_leave_unit_circle(self, rng):
        # global sign flip at midpoint: palindromic roots stay on the
        # circle while the plain solve drifts off radially
        t = np.arange(128.0)
        worst_plain, worst_sym = 0.0, 0.0
        for _ in range(10):
            f = rng.uniform(0.08, 0.42)
            u = np.cos(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
            u[64:] *= -1.0
            r = corr_1d(u, 3)
            z_plain = polynomial_roots(ls_coefficients(r, 2).coeffs).roots
            z_sym = polynomial_roots(ls_symmetric_coefficients(r, 2).coeffs).roots
            worst_plain = max(worst_plain, np.abs(np.abs(z_plain) - 1).max())
            worst_sym = max(worst_sym, np.abs(np.abs(z_sym) - 1).max())
        assert worst_plain > 10 * max(worst_sym, 1e-12)
        assert worst_sym < 1e-10

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            ls_symmetric_coefficients(np.eye(6), 5)

    def test_sigma2_reciprocal_of_rho(self, rng):
        u = rng.normal(0, 1, 200)
        sol = ls_symmetric_coefficients(corr_1d(u, 7), 6)
        assert sol.sigma2 == pytest.approx(1.0 / sol.rho_last)


class TestSigma2Monotonicity:
    def test_nested_orders_non_increasing(self, rng):
        # Levinson-type monotonicity holds exactly for Toeplitz (stationary
        # autocorrelation) matrices; covariance-method matrices only match
        # it up to window edge effects.
        from scipy.linalg import toeplitz

        for _ in range(5):
            u = rng.normal(0, 1, 2000)
            u = np.convolve(u, [1.0, 0.6, 0.2], mode="valid")
            lags = np.array([np.dot(u[: len(u) - k], u[k:]) for k in range(9)]) / len(u)
            r = toeplitz(lags)
            sigmas = [ls_coefficients(r, p).sigma2 for p in range(1, 9)]
            for lo, hi in zip(sigmas[1:], sigmas[:-1]):
                assert lo <= hi * (1 + 1e-9)


class TestDegenerateInputs:
    def test_non_finite_rejected(self):
        r = np.eye(4)
        r[1, 1] = np.inf
        with pytest.raises(Exception):
            ls_coefficients(r, 3)

    def test_cond_limit_is_sane(self):
        assert COND_LIMIT == 1e12

    def test_condition_is_the_one_the_solve_judged(self):
        # two pairs at order 4: the P x P block the palindromic solve inverts
        # is well conditioned, though the whole (P+1)^2 marginal is not
        region = synth_texture(FOUR_PAIRS[:2], 64, 64)
        _, diag = estimate_model_ls(region, 4, 4)
        rx, ry = marginal_correlations(region - region.mean(), 5, 5)
        assert min(np.linalg.cond(rx), np.linalg.cond(ry)) > 1e6
        assert diag.condition_x < 1e3 and diag.condition_y < 1e3
        assert not (diag.degenerate_x or diag.degenerate_y)
        # one pair at order 6 leaves the block rank deficient
        rx, _ = marginal_correlations(synth_texture(FOUR_PAIRS[:1], 64, 64), 7, 7)
        solutions = [ls_symmetric_coefficients(rx, 6), ls_coefficients(rx, 6),
                     ls_symmetric_coefficients(rx, 2), ls_coefficients(rx, 1)]
        assert [s.degenerate for s in solutions] == [True, True, False, False]
        for sol in solutions:
            assert sol.degenerate == (sol.condition > COND_LIMIT)

    def test_ridge_reaches_sigma2_but_not_the_palindromic_coefficients(self, monkeypatch):
        # one pair at order 6: the block is degenerate, so the ridge is added
        # to the inverse behind sigma2, while the palindromic system is solved
        # as it is; the plain solve reads its coefficients from that inverse
        rx, _ = marginal_correlations(synth_texture(FOUR_PAIRS[:1], 64, 64), 7, 7)
        solutions = []
        for ridge in (1e-12, 1e-6):
            monkeypatch.setattr(linear_symmetry, "_RIDGE", ridge)
            solutions.append((ls_symmetric_coefficients(rx, 6), ls_coefficients(rx, 6)))
        (sym_a, plain_a), (sym_b, plain_b) = solutions
        assert sym_a.degenerate and sym_b.degenerate
        assert np.array_equal(sym_a.coeffs.a, sym_b.coeffs.a)
        assert sym_b.sigma2 > 1e3 * sym_a.sigma2
        assert not np.array_equal(plain_a.coeffs.a, plain_b.coeffs.a)
