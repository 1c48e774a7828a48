"""Harmonic model: companion operator, roots, bases, spectra, synthesis."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resofilt import (
    HarmonicModel,
    NumericError,
    PolynomialCoeffs,
    ResonanceRoots,
    TextureKernel,
    coeffs_from_roots,
    companion_matrix,
    polynomial_roots,
    reconstruct,
    shift_kernel,
    spectrum,
    synth_texture,
    vandermonde,
)
from resofilt.harmonic import PINV_RCOND, _checked_pinv, fit_estimate

from conftest import FOUR_PAIRS, unit_roots


class TestCompanion:
    def test_constant_signal_case(self):
        k = companion_matrix(PolynomialCoeffs([-1.0]))
        assert k.shape == (1, 1)
        assert k[0, 0] == 1.0

    def test_quarter_cycle_roots(self):
        k = companion_matrix(PolynomialCoeffs([0.0, 1.0]))
        eig = np.sort_complex(np.linalg.eigvals(k))
        assert np.allclose(eig, [-1j, 1j])

    def test_eighth_cycle_roots(self):
        a1 = -2 * np.cos(2 * np.pi * 0.125)
        k = companion_matrix(PolynomialCoeffs([a1, 1.0]))
        eig = np.linalg.eigvals(k)
        expected = np.exp(np.array([1j, -1j]) * np.pi / 4)
        assert min(abs(eig[0] - e) for e in expected) < 1e-12
        assert min(abs(eig[1] - e) for e in expected) < 1e-12

    def test_layout(self):
        k = companion_matrix(PolynomialCoeffs([3.0, 2.0, 5.0]))
        assert np.allclose(k[0], [0, 1, 0])
        assert np.allclose(k[1], [0, 0, 1])
        assert np.allclose(k[2], [-5.0, -2.0, -3.0])


class TestPolynomialRoots:
    def test_pure_quarter_cycle(self):
        z = polynomial_roots(PolynomialCoeffs([0.0, 1.0])).roots
        assert np.allclose(np.sort_complex(z), [-1j, 1j])

    def test_constant(self):
        z = polynomial_roots(PolynomialCoeffs([-1.0])).roots
        assert np.allclose(z, [1.0])

    def test_roots_satisfy_polynomial(self, rng):
        # |1 + sum a_i z^i| ~ 0 at every returned root
        for _ in range(25):
            a = rng.uniform(-1.5, 1.5, size=rng.integers(1, 9))
            if abs(a[-1]) < 0.1:
                a[-1] = 0.5
            roots = polynomial_roots(PolynomialCoeffs(a)).roots
            for z in roots:
                value = 1.0 + sum(a[i] * z ** (i + 1) for i in range(len(a)))
                assert abs(value) < 1e-8

    def test_palindromic_from_synthetic_data_matches_dft_oracle(self):
        # order-4 palindromic annihilator of two unit-circle pairs
        f1, f2 = 0.11, 0.31
        c1, c2 = np.cos(2 * np.pi * f1), np.cos(2 * np.pi * f2)
        # product of the two analytic quadratic annihilators
        a = [-2 * (c1 + c2), 2 + 4 * c1 * c2, -2 * (c1 + c2), 1.0]
        roots = polynomial_roots(PolynomialCoeffs(a, symmetric=True)).roots
        truth = np.exp(2j * np.pi * np.array([f1, -f1, f2, -f2]))
        # independent check of the truth: zero-padded DFT peaks of the signal
        sig = np.cos(2 * np.pi * f1 * np.arange(4096)) + np.cos(2 * np.pi * f2 * np.arange(4096))
        spec = np.abs(np.fft.rfft(sig, n=1 << 16))
        freqs = np.fft.rfftfreq(1 << 16)
        top = []
        for _ in range(2):
            i = int(np.argmax(spec))
            top.append(freqs[i])
            spec[max(0, i - 30) : i + 30] = 0
        assert sorted(np.round(top, 3)) == [f1, f2]
        for t in truth:
            assert min(abs(z - t) for z in roots) < 1e-6

    def test_trailing_zero_reduction(self):
        z = polynomial_roots(PolynomialCoeffs([-1.0, 0.0, 0.0])).roots
        assert z.shape == (1,)
        assert abs(z[0] - 1.0) < 1e-12

    def test_degenerate_all_zero(self):
        with pytest.raises(NumericError):
            polynomial_roots(PolynomialCoeffs([0.0, 0.0]))

    def test_projection(self):
        roots = polynomial_roots(PolynomialCoeffs([-0.5])).projected()
        assert np.allclose(np.abs(roots.roots), 1.0)
        assert np.allclose(roots.source_moduli, [2.0])
        assert np.allclose(roots.dampings, [1.0])


class TestPalindromicReciprocity:
    def test_random_symmetric_sets(self, rng):
        for _ in range(100):
            p = int(rng.choice([4, 6, 8, 10]))
            half = rng.uniform(-2, 2, size=p // 2)
            a = np.empty(p)
            for i in range(1, p):
                a[i - 1] = half[min(i, p - i) - 1]
            a[p - 1] = 1.0
            roots = polynomial_roots(PolynomialCoeffs(a, symmetric=True)).roots
            for z in roots:
                assert min(abs(z * w - 1.0) for w in roots) < 1e-8


class TestVandermonde:
    def test_unit_root_column_of_ones(self):
        v = vandermonde(unit_roots([0.0]), 3)
        assert np.allclose(v, np.ones((3, 1)))

    def test_quarter_cycle_two_rows(self):
        v = vandermonde(ResonanceRoots([1j, -1j]), 2)
        assert np.allclose(v, [[1, 1], [1j, -1j]])

    def test_exact_exponentials(self):
        z = np.exp(2j * np.pi * np.array([0.125, -0.125]))
        v = vandermonde(ResonanceRoots(z), 8)
        t = np.arange(8)
        assert np.allclose(v[:, 0], np.exp(2j * np.pi * 0.125 * t))
        assert np.allclose(v[:, 1], np.exp(-2j * np.pi * 0.125 * t))

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            vandermonde(ResonanceRoots([1j, -1j, 1.0]), 2)


class TestSpectrum:
    def test_single_harmonic_conjugate_amplitudes(self):
        fx, fy, c = 0.125, 0.2, 3.0
        region = synth_texture([(fx, fy, c, 0.0)], 32, 32)
        zx = unit_roots([fx, -fx])
        zy = unit_roots([fy, -fy])
        amp = spectrum(region, zx, zy)
        mags = np.abs(amp)
        # exactly the two conjugate entries at c/2, cross terms empty
        assert abs(mags[0, 0] - c / 2) < 1e-9
        assert abs(mags[1, 1] - c / 2) < 1e-9
        assert mags[0, 1] < 1e-9 and mags[1, 0] < 1e-9

    def test_constant_region_dc_amplitude(self):
        region = np.full((16, 16), 5.0)
        amp = spectrum(region, unit_roots([0.0, 0.25, -0.25]), unit_roots([0.0, 0.25, -0.25]))
        assert abs(amp[0, 0] - 5.0) < 1e-10
        others = np.abs(amp).copy()
        others[0, 0] = 0.0
        assert others.max() < 1e-10

    def test_round_trip_four_pairs(self):
        region = synth_texture(FOUR_PAIRS, 64, 64)
        zx = unit_roots([f for p in FOUR_PAIRS for f in (p[0], -p[0])])
        zy = unit_roots([f for p in FOUR_PAIRS for f in (p[1], -p[1])])
        model = HarmonicModel.fit(region, zx, zy)
        back = reconstruct(model, 64, 64)
        assert np.abs(back - region).max() < 1e-8
        assert model.fit_residual < 1e-8

    def test_coincident_roots_rejected(self):
        from resofilt import ModelError

        region = np.ones((8, 8))
        with pytest.raises(ModelError):
            spectrum(region, ResonanceRoots([1.0 + 0j, 1.0 + 0j]), unit_roots([0.0]))

    # Frequencies on a 1/32 grid keep every drawn basis well-posed: 8 pairs
    # at 1/32 .. 8/32 plus the unit root have s_min / s_max = 1.3e-7 on 17
    # rows, far above PINV_RCOND.
    @given(
        steps=st.lists(st.integers(1, 15), max_size=8, unique=True),
        unit=st.booleans(),
        nyquist=st.booleans(),
        rows=st.integers(16, 80),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_svd_pinv_equals_numpy_pinv(self, steps, unit, nyquist, rows):
        z = np.exp(2j * np.pi * np.asarray(steps, dtype=float) / 32)
        z = np.concatenate([z, z.conj(), [1.0 + 0j] * unit, [-1.0 + 0j] * nyquist])
        assume(1 <= z.size <= 17)
        basis = vandermonde(z, max(rows, z.size))
        expected = np.linalg.pinv(basis, rcond=PINV_RCOND)
        got = _checked_pinv(basis)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestReconstruct:
    def test_dc_only(self):
        model = HarmonicModel(unit_roots([0.0]), unit_roots([0.0]), np.array([[7.0 + 0j]]))
        assert np.allclose(reconstruct(model, 5, 9), 7.0)

    def test_extrapolation_continues_periodic_kernel(self):
        # periodic kernel: frequencies commensurate with the window
        pairs = [(0.25, 0.125, 1.0, 0.4), (0.125, 0.25, 0.5, 1.0)]
        small = synth_texture(pairs, 16, 16)
        zx = unit_roots([0.25, -0.25, 0.125, -0.125])
        zy = unit_roots([0.125, -0.125, 0.25, -0.25])
        model = HarmonicModel.fit(small, zx, zy)
        big = reconstruct(model, 32, 32)
        truth = synth_texture(pairs, 32, 32)
        assert np.abs(big - truth).max() < 1e-6

    def test_imag_residue_small_for_conjugate_models(self):
        region = synth_texture(FOUR_PAIRS[:2], 32, 32)
        zx = unit_roots([0.11, -0.11, 0.27, -0.27])
        zy = unit_roots([0.23, -0.23, 0.08, -0.08])
        model = HarmonicModel.fit(region, zx, zy)
        synth = vandermonde(zx, 32) @ model.amplitudes @ vandermonde(zy, 32).T
        residue = np.abs(synth.imag).max() / max(1e-300, np.abs(synth.real).max())
        assert residue < 1e-8


class TestFitEstimate:
    def test_appends_one_unit_root_per_axis_and_fits_the_raw_region(self):
        region = synth_texture(FOUR_PAIRS[:1], 24, 24, mean=7.0)
        zx, zy = unit_roots([0.11, -0.11]), unit_roots([0.23, -0.23])
        model = fit_estimate(region, zx, zy, dc_root=True)
        assert model.order == (3, 3)
        assert model.zx.roots[-1] == 1.0 and model.zy.roots[-1] == 1.0
        assert model.fit_residual < 1e-8  # the mean rides on the unit root
        assert fit_estimate(region, zx, zy, dc_root=False).order == (2, 2)

    def test_present_unit_root_is_kept_once_with_a_warning(self):
        region = synth_texture(FOUR_PAIRS[:1], 24, 24, mean=7.0)
        zx, zy = unit_roots([0.0, 0.11, -0.11]), unit_roots([0.23, -0.23])
        with pytest.warns(UserWarning, match="already carries a unit root") as record:
            model = fit_estimate(region, zx, zy, dc_root=True)
        assert len(record) == 1
        assert model.order == (3, 3)


class TestShiftKernel:
    @staticmethod
    def _periodic_setup(rng):
        zx = np.exp(2j * np.pi * np.array([0.25, -0.25, 0.5, 0.0]))
        zy = np.exp(2j * np.pi * np.array([0.25, -0.25, 0.5, 0.0]))
        cx, cy = coeffs_from_roots(zx), coeffs_from_roots(zy)
        kernel = TextureKernel(rng.normal(0, 1, (4, 4)))
        return kernel, cx, cy, ResonanceRoots(zx), ResonanceRoots(zy)

    def test_zero_shift_identity(self, rng):
        kernel, cx, cy, _, _ = self._periodic_setup(rng)
        out = shift_kernel(kernel, cx, cy, 0, 0)
        assert np.array_equal(out.values, kernel.values)

    def test_spectrum_magnitude_invariance(self, rng):
        kernel, cx, cy, zx, zy = self._periodic_setup(rng)
        ref = np.abs(spectrum(kernel.values, zx, zy))
        for t, tau in [(1, 0), (0, 1), (2, 3), (3, 1)]:
            shifted = shift_kernel(kernel, cx, cy, t, tau)
            mags = np.abs(spectrum(shifted.values, zx, zy))
            assert np.abs(mags - ref).max() < 1e-6

    def test_shift_phase_rotation(self, rng):
        kernel, cx, cy, zx, zy = self._periodic_setup(rng)
        a0 = spectrum(kernel.values, zx, zy)
        t, tau = 2, 1
        a1 = spectrum(shift_kernel(kernel, cx, cy, t, tau).values, zx, zy)
        rotation = np.outer(zx.roots**t, zy.roots**tau)
        assert np.abs(a1 - rotation * a0).max() < 1e-8

    def test_full_period_recovers_kernel(self, rng):
        kernel, cx, cy, _, _ = self._periodic_setup(rng)
        out = shift_kernel(kernel, cx, cy, 4, 4)
        assert np.abs(out.values - kernel.values).max() < 1e-6

    def test_negative_shift_rejected(self, rng):
        kernel, cx, cy, _, _ = self._periodic_setup(rng)
        with pytest.raises(ValueError):
            shift_kernel(kernel, cx, cy, -1, 0)


class TestSynthTexture:
    def test_single_pair_formula(self):
        d = synth_texture([(0.125, 0.25, 1.0, 0.0)], 8, 8)
        i, k = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        assert np.allclose(d, np.cos(2 * np.pi * (0.125 * i + 0.25 * k)))

    def test_empty_pairs_zero_image(self):
        assert np.array_equal(synth_texture([], 4, 6), np.zeros((4, 6)))

    def test_mixture_variance(self):
        # analytic variance of a sinusoid mixture: sum amp^2 / 2 + sigma^2
        pairs = [(0.11, 0.23, 1.0, 0.3), (0.29, 0.37, 0.5, 1.0)]
        d = synth_texture(pairs, 256, 256, noise_sigma=0.01, seed=7)
        expected = (1.0**2 + 0.5**2) / 2 + 0.01**2
        assert abs(d.var() - expected) / expected < 0.05

    def test_aliased_duplicates_rejected(self):
        with pytest.raises(ValueError):
            synth_texture([(0.1, 0.2, 1, 0), (0.1, 0.2, 2, 1)], 8, 8)

    def test_out_of_band_frequency_rejected(self):
        with pytest.raises(ValueError):
            synth_texture([(0.6, 0.2, 1, 0)], 8, 8)

    def test_seeded_noise_reproducible(self):
        a = synth_texture([(0.1, 0.2, 1, 0)], 16, 16, noise_sigma=0.5, seed=11)
        b = synth_texture([(0.1, 0.2, 1, 0)], 16, 16, noise_sigma=0.5, seed=11)
        assert np.array_equal(a, b)


class TestCoeffsFromRoots:
    def test_constant_root(self):
        c = coeffs_from_roots([1.0 + 0j])
        assert np.allclose(c.a, [-1.0])

    def test_round_trip_through_roots(self, rng):
        freqs = [0.1, -0.1, 0.3, -0.3]
        z = np.exp(2j * np.pi * np.array(freqs))
        back = polynomial_roots(coeffs_from_roots(z)).roots
        for zi in z:
            assert min(abs(zi - w) for w in back) < 1e-10

    def test_non_conjugate_rejected(self):
        with pytest.raises(NumericError):
            coeffs_from_roots([np.exp(0.7j)])
