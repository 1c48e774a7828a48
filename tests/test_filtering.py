"""Inverse filter design, convolution application, and the 3-sigma rule."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resofilt import (
    HarmonicModel,
    ImageStack,
    IRFilter,
    ModelError,
    NumericError,
    PipelineConfig,
    apply_filter,
    design_filter,
    detect,
    doc_to_model,
    estimate_model_ls,
    estimate_model_pencil,
    model_to_doc,
    noise_dispersion,
    spectrum,
    synth_texture,
    vandermonde,
)
from resofilt import filtering, pipeline
from resofilt.filtering import _correlate_valid, filter_buffer
from resofilt.model_doc import dump_json

from conftest import FOUR_PAIRS, pairs_subset, unit_roots


def fma(k, x, acc):
    """k * x + acc rounded once to the nearest double: one fused
    multiply-add, the step every filter tap takes."""
    return float(Fraction(k) * Fraction(x) + Fraction(acc))


# elementwise over arrays, broadcasting scalars
fma_array = np.vectorize(fma, otypes=[float])


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def exact_model(pairs, mean, nx, ny):
    """Model whose span contains mean + sum of the given harmonic pairs."""
    zx = unit_roots([0.0] + [f for p in pairs for f in (p[0], -p[0])])
    zy = unit_roots([0.0] + [f for p in pairs for f in (p[1], -p[1])])
    region = synth_texture(pairs, nx, ny, mean=mean)
    return region, HarmonicModel.fit(region, zx, zy)


class TestDesignFilter:
    def test_exact_annihilation(self):
        base, model = exact_model(FOUR_PAIRS[:2], 100.0, 64, 64)
        irf = design_filter(base, model)
        out = apply_filter(base, irf)
        assert np.abs(out - irf.flat_level).max() < 1e-8 * np.abs(base).max()
        assert irf.sigma2 < 1e-16 * irf.flat_level**2

    def test_constant_base_dc_model(self):
        base = np.full((8, 8), 42.0)
        model = HarmonicModel.fit(base, unit_roots([0.0]), unit_roots([0.0]))
        irf = design_filter(base, model)
        assert irf.kernel.shape == (1, 1)
        assert irf.kernel[0, 0] == pytest.approx(1.0)
        assert irf.flat_level == pytest.approx(42.0)
        assert irf.sigma2 == pytest.approx(0.0, abs=1e-20)

    def test_sigma2_matches_noise_propagation_oracle(self):
        # Oracle: push an independent noise field of the injected sigma
        # through the designed kernel and compare dispersions.  The base
        # region residual must be noise-dominated, not mismatch-dominated.
        lo, hi = [], []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pairs = [(fx, fy, a, float(rng.uniform(0, 2 * np.pi)))
                     for fx, fy, a, _ in FOUR_PAIRS]
            base = synth_texture(pairs, 64, 64, noise_sigma=0.01, seed=seed + 1000, mean=128.0)
            model, _ = estimate_model_ls(base, 16, 16)
            irf = design_filter(base, model)
            fresh = np.random.default_rng(seed + 5000).normal(0, 0.01, (64, 64))
            propagated = apply_filter(fresh, IRFilter(irf.kernel, 0.0, 0.0))
            predicted = float(np.mean(propagated**2))
            lo.append(irf.sigma2 / predicted)
        assert min(lo) > 1 / 4 and max(lo) < 4

    def test_e_policy_zero(self):
        # with a unit root in the model only the null kernel drives the
        # texture's mean to zero; it would flag nothing, so design refuses
        base, model = exact_model(FOUR_PAIRS[:1], 10.0, 32, 32)
        with pytest.raises(NumericError, match="all-zero kernel"):
            design_filter(base, model, e_policy=0.0)
        with pytest.raises(ValueError, match="unknown flat-level policy 'zero'"):
            design_filter(base, model, e_policy="zero")

    def test_e_policy_explicit(self):
        base, model = exact_model(FOUR_PAIRS[:1], 10.0, 32, 32)
        irf = design_filter(base, model, e_policy=55.0)
        out = apply_filter(base, irf)
        assert np.abs(out - 55.0).max() < 1e-7 * max(np.abs(base).max(), 55.0)

    def test_vanishing_mean_component_is_numeric_error(self):
        # the flat target rides on the unit-root component; a texture
        # without one cannot be driven to a nonzero level
        base = synth_texture(FOUR_PAIRS[:1], 32, 32)  # zero mean, no DC content
        zx = unit_roots([0.0, 0.11, -0.11])
        zy = unit_roots([0.0, 0.23, -0.23])
        model = HarmonicModel.fit(base, zx, zy)
        with pytest.raises(NumericError, match="no mean component"):
            design_filter(base, model, e_policy=7.0)

    def test_no_dc_model_cannot_be_designed(self):
        base = _patch_scene(2)[:64, :64]
        model, _ = estimate_model_ls(base, 8, 8, dc_root=False)
        with pytest.raises(ModelError, match="axis x: no root within 1e-06 of 1"):
            design_filter(base, model)

    def test_small_region_rejected(self):
        base, model = exact_model(FOUR_PAIRS[:2], 0.0, 32, 32)
        with pytest.raises(ValueError):
            design_filter(base[:4, :4], model)


class TestApplyFilter:
    def test_identity_kernel(self, rng):
        image = rng.normal(0, 1, (12, 9))
        irf = IRFilter(np.array([[1.0]]), flat_level=3.3, sigma2=0.1)
        assert np.array_equal(apply_filter(image, irf), image)

    def test_definitional_double_sum_bit_for_bit(self, rng):
        image = rng.normal(0, 1, (20, 18))
        kernel = rng.normal(0, 1, (5, 4))
        out = apply_filter(image, IRFilter(kernel, 0.0, 0.0))
        # same accumulation order as the implementation's shifted adds:
        # m-major, n-minor, one fused multiply-add per tap
        for i in range(16):
            for k in range(15):
                acc = 0.0
                for m in range(5):
                    for n in range(4):
                        acc = fma(kernel[m, n], image[i + m, k + n], acc)
                assert out[i, k] == acc

    def test_tap_lost_to_a_copied_accumulator_raises(self):
        flat = np.arange(12.0)
        for acc in (np.zeros(12)[::2], np.zeros(6, dtype=np.float32)):
            with pytest.raises(RuntimeError, match="in place"):
                filtering._accumulate(acc, flat, [1.0], [0])

    def test_non_contiguous_out_buffer_raises(self):
        out = np.empty((4, 12))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            _correlate_valid(np.ones((5, 6)), np.ones((2, 2)), out=out)

    def test_result_is_the_valid_view_of_the_given_buffer(self, rng):
        image = rng.normal(0, 1, (30, 20))
        for kernel in (np.outer(rng.normal(0, 1, 5), rng.normal(0, 1, 4)),
                       rng.normal(0, 1, (5, 4))):
            irf = IRFilter(kernel, 0.0, 1.0)
            out = filter_buffer(image.shape, irf)
            assert out.shape == (26, 20) and out.flags.c_contiguous
            got = apply_filter(image, irf, out=out)
            assert got.shape == (26, 17) and np.shares_memory(got, out)
            assert np.array_equal(got, apply_filter(image, irf))

    @pytest.mark.parametrize(
        "make",
        [
            lambda ox, w: np.empty((ox, w - 3)),  # the valid shape, not W wide
            lambda ox, w: np.empty((ox + 1, w)),
            lambda ox, w: np.empty((ox, w), dtype=np.float32),
            lambda ox, w: np.empty((ox, w), dtype=complex),
            lambda ox, w: np.empty((ox, w), order="F"),
            lambda ox, w: np.empty((ox, 2 * w))[:, ::2],
        ],
        ids=["valid-shape", "rows", "float32", "complex", "fortran", "strided"],
    )
    def test_wrong_out_buffer_raises(self, rng, make):
        image = rng.normal(0, 1, (30, 20))
        for kernel in (np.ones((5, 4)), rng.normal(0, 1, (5, 4))):
            with pytest.raises(ValueError, match="out must be a C-contiguous float64"):
                apply_filter(image, IRFilter(kernel, 0.0, 1.0), out=make(26, 20))

    def test_daxpy_is_one_fused_multiply_add_at_any_offset(self, rng):
        # The bit-exact tests pin this contract of the BLAS: every element
        # of y + a * x[offx:] is rounded once, whatever the call's offset
        # and length (vector bodies and scalar tails alike).
        from scipy.linalg.blas import daxpy

        flat = rng.normal(0, 1, 64)
        told_apart = 0
        for offset in range(24):
            for n in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 40):
                a, y = rng.normal(), rng.normal(0, 1, n)
                x = flat[offset : offset + n]
                expected = fma_array(a, x, y)
                got = daxpy(flat, y.copy(), n=n, a=a, offx=offset)
                assert np.array_equal(got, expected), (offset, n)
                told_apart += int(np.sum(expected != a * x + y))
        # the data separate fused from multiply-then-add rounding
        assert told_apart > 100

    def test_replicated_texture_stays_in_band(self):
        base, model = exact_model(FOUR_PAIRS[:2], 50.0, 64, 64)
        noisy = base + np.random.default_rng(3).normal(0, 0.05, base.shape)
        irf = design_filter(noisy, model)
        big = synth_texture(FOUR_PAIRS[:2], 128, 128, mean=50.0)
        big += np.random.default_rng(4).normal(0, 0.05, big.shape)
        out = apply_filter(big, irf)
        band = 3 * np.sqrt(irf.sigma2)
        assert np.mean(np.abs(out - irf.flat_level) <= band) > 0.99

    def test_inserted_patch_leaves_band(self):
        base, model = exact_model(FOUR_PAIRS[:2], 50.0, 64, 64)
        irf = design_filter(base, model)
        scene = synth_texture(FOUR_PAIRS[:2], 128, 128, mean=50.0)
        scene[60:71, 60:71] = 80.0
        out = apply_filter(scene, irf)
        band = 3 * np.sqrt(max(irf.sigma2, 1e-30))
        inner = np.abs(out[60:71, 60:71] - irf.flat_level)
        assert (inner > band).mean() > 0.9

    def test_image_smaller_than_kernel(self):
        irf = IRFilter(np.ones((4, 4)), 0.0, 0.0)
        with pytest.raises(ValueError):
            apply_filter(np.ones((3, 8)), irf)


def _direct(image, irf):
    return _correlate_valid(np.asarray(image, dtype=float), irf.kernel)


def _close_to_direct(image, irf):
    tol = 1e-12 * np.abs(irf.kernel).sum() * np.abs(image).max()
    return np.abs(apply_filter(image, irf) - _direct(image, irf)).max() <= tol


def _patch_scene(seed=0):
    scene = synth_texture(FOUR_PAIRS, 128, 128, noise_sigma=0.01, seed=seed, mean=128.0)
    scene[80:91, 80:91] = 200.0
    return scene


class TestSeparableApply:
    @pytest.mark.parametrize("estimator,order", [("ls", 8), ("ls", 16), ("pencil", 4)])
    def test_designed_kernels_match_direct(self, estimator, order):
        scene = _patch_scene()
        base = scene[:64, :64]
        if estimator == "ls":
            model, _ = estimate_model_ls(base, order, order)
        else:
            model, _ = estimate_model_pencil(base, order)
        irf = design_filter(base, model)
        assert irf.factors is not None
        assert _close_to_direct(scene, irf)
        two_pass = detect([apply_filter(scene, irf)], [irf], [scene])
        direct = detect([_direct(scene, irf)], [irf], [scene])
        assert two_pass.positive()[80:91, 80:91].any()
        assert np.array_equal(two_pass.positive(), direct.positive())

    def test_two_pass_order_bit_for_bit(self, rng):
        image = rng.normal(0, 1, (20, 18))
        irf = IRFilter(np.outer(rng.normal(0, 1, 5), rng.normal(0, 1, 4)), 0.0, 0.0)
        col, row = irf.factors
        # column pass in m order, then row pass in n order over its sums
        expected = np.zeros((16, 15))
        for i in range(16):
            for k in range(15):
                acc = 0.0
                for n in range(4):
                    partial = 0.0
                    for m in range(5):
                        partial = fma(col[m], image[i + m, k + n], partial)
                    acc = fma(row[n], partial, acc)
                expected[i, k] = acc
        out = apply_filter(image, irf)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))

    @pytest.mark.skipif(
        usable_cpus() < 2, reason="OpenBLAS runs one thread per usable CPU, so it cannot split"
    )
    def test_blas_thread_count_does_not_change_bits(self):
        # each strip daxpy here is ~35k elements, which OpenBLAS splits
        # across threads when it has two
        script = (
            "import hashlib, numpy as np\n"
            "from resofilt import IRFilter, apply_filter\n"
            "rng = np.random.default_rng(5)\n"
            "image = rng.normal(0, 10, (256, 256))\n"
            "irf = IRFilter(np.outer(rng.normal(0, 1, 9), rng.normal(0, 1, 9)), 0.0, 1.0)\n"
            "assert irf.factors is not None\n"
            "print(hashlib.sha256(apply_filter(image, irf).tobytes()).hexdigest())\n"
        )
        package_root = str(Path(filtering.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=package_root)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            digests.append(done.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    def test_size_error_names_the_whole_kernel(self):
        irf = IRFilter(np.ones((4, 4)), 0.0, 0.0)
        with pytest.raises(ValueError, match=r"\(3, 8\) smaller than kernel \(4, 4\)"):
            apply_filter(np.ones((3, 8)), irf)

    @given(
        p=st.integers(1, 17),
        q=st.integers(1, 17),
        extra=st.tuples(st.integers(0, 9), st.integers(0, 9)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_kernels_pick_the_right_path(self, p, q, extra, seed):
        rng = np.random.default_rng(seed)
        image = rng.normal(0, 10, (p + extra[0], q + extra[1]))
        outer = IRFilter(np.outer(rng.normal(0, 1, p), rng.normal(0, 1, q)), 0.0, 0.0)
        assert outer.factors is not None
        assert _close_to_direct(image, outer)
        if min(p, q) >= 2:
            full = IRFilter(rng.normal(0, 1, (p, q)), 0.0, 0.0)
            assert full.factors is None
            assert np.array_equal(apply_filter(image, full), _direct(image, full))

    def test_model_document_round_trip_same_output(self):
        scene = _patch_scene(1)
        base = scene[:64, :64]
        model, _ = estimate_model_ls(base, 16, 16)
        irf = design_filter(base, model)
        doc = json.loads(dump_json(model_to_doc(model, [irf])))
        _, (back,) = doc_to_model(doc)
        assert back.factors is not None
        assert np.array_equal(apply_filter(scene, back), apply_filter(scene, irf))

    def test_all_zero_kernel_takes_direct_path(self):
        irf = IRFilter(np.zeros((3, 4)), 0.0, 0.0)
        assert irf.factors is None
        assert not apply_filter(np.ones((6, 6)), irf).any()


def _reference_design(base, model, flat, exact_flat=False):
    """Inverse-Vandermonde synthesis of the inverse filter: fit the base
    region and the constant flat image in the model basis, divide the two
    spectra (components below 1e-9 of the largest texture amplitude are
    dropped) and map the ratio back through the square inverse bases.
    With ``exact_flat`` the flat image's spectrum is taken as its exact
    value, ``flat`` at the unit-root component and 0 elsewhere."""
    p, q = model.order
    amp = spectrum(base, model.zx, model.zy)
    if exact_flat:
        flat_spec = np.zeros_like(amp)
        flat_spec[model.zx.unit_root_index(), model.zy.unit_root_index()] = flat
    else:
        flat_spec = spectrum(np.full_like(base, flat), model.zx, model.zy)
    keep = np.abs(amp) >= 1e-9 * np.abs(amp).max()
    ratio = np.zeros_like(amp)
    ratio[keep] = flat_spec[keep] / amp[keep]
    zx_inv = np.linalg.inv(vandermonde(model.zx, p))
    zy_inv = np.linalg.inv(vandermonde(model.zy, q))
    kernel = (zx_inv.T @ ratio @ zy_inv).real
    return kernel, noise_dispersion(_correlate_valid(base, kernel), flat)


def _rgb_scene(noise_sigma):
    rng = np.random.default_rng(8)
    planes = tuple(
        synth_texture(pairs_subset(4, rng), 64, 64, noise_sigma=noise_sigma, seed=c, mean=m)
        for c, m in enumerate((128.0, 100.0, 90.0))
    )
    return ImageStack(planes)


class TestClosedFormDesign:
    # The fitted flat spectrum carries rounding residue of about 1e-16 * E
    # off the unit-root component, which the synthesis divides by the base
    # region's amplitudes there.  At the benchmark scenes' noise level
    # (sigma 1) that moves the synthesised kernel by about 1e-11; at sigma
    # 0.01 the amplitudes are small enough to move it by up to 2e-8, so the
    # low-noise scene is compared with the synthesis of the exact flat
    # spectrum instead.
    @pytest.mark.parametrize("noise_sigma,exact_flat", [(1.0, False), (0.01, True)])
    @pytest.mark.parametrize("channel_mode", ["gray", "rgb"])
    @pytest.mark.parametrize("estimator,order", [("ls", 8), ("ls", 16), ("pencil", 4)])
    def test_matches_inverse_vandermonde_reference(self, estimator, order, channel_mode,
                                                   noise_sigma, exact_flat):
        cfg = PipelineConfig(order=(order, order), estimator=estimator,
                             channel_mode=channel_mode)
        base, model, _ = pipeline.estimate(_rgb_scene(noise_sigma), cfg)
        filters = pipeline.design(base, model, cfg)
        planes, _ = pipeline._channels(base, channel_mode)
        assert len(filters) == len(planes)
        for plane, irf in zip(planes, filters):
            assert irf.factors is not None
            kernel, sigma2 = _reference_design(plane, model, irf.flat_level, exact_flat)
            assert np.abs(irf.kernel - kernel).max() <= 1e-9 * np.abs(kernel).max()
            assert abs(irf.sigma2 - sigma2) <= 1e-9 * sigma2

    # Frequencies lie on a 1/16 grid.  The kernel's tap sum grows like the
    # product of 1 / |1 - z_i| over the other roots: 1e5 for the 9 roots
    # 0, +-1/16 .. +-4/16, but 4e8 at a 1/25 spacing, where rounding in the
    # filter sum alone (of this design and of the inverse-Vandermonde one)
    # exceeds criterion 5's bound.
    @given(
        fx=st.lists(st.integers(1, 7), max_size=4, unique=True),
        fy=st.lists(st.integers(1, 7), max_size=4, unique=True),
        nyquist=st.tuples(st.booleans(), st.booleans()),
        shape=st.tuples(st.integers(32, 48), st.integers(32, 48)),
        mean=st.floats(50.0, 200.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_circle_models_flatten_their_span(self, fx, fy, nyquist, shape, mean,
                                                    seed):
        # conjugate-closed root sets with the unit root, 1 to 9 roots per axis
        axes = []
        for steps, half in zip((fx, fy), nyquist):
            freqs = [0.0] + [s * f / 16 for f in steps for s in (1, -1)]
            axes.append(unit_roots(freqs + [0.5] if half and len(steps) < 4 else freqs))
        zx, zy = axes
        rng = np.random.default_rng(seed)
        amp = rng.normal(0, 1, (len(zx), len(zy))) + 1j * rng.normal(0, 1, (len(zx), len(zy)))
        amp[0, 0] = 0.0
        base = (vandermonde(zx, shape[0]) @ amp @ vandermonde(zy, shape[1]).T).real + mean
        irf = design_filter(base, HarmonicModel.fit(base, zx, zy))
        assert irf.factors is not None
        out = apply_filter(base, irf)
        assert np.abs(out - irf.flat_level).max() < 1e-8 * np.abs(base).max()
        assert irf.sigma2 < 1e-16 * irf.flat_level**2


class TestNoiseDispersion:
    def test_exact_flat(self):
        assert noise_dispersion(np.full((5, 5), 2.0), 2.0) == 0.0

    def test_alternating_unit(self):
        field = np.fromfunction(lambda i, k: (-1.0) ** (i + k), (6, 6))
        assert noise_dispersion(field + 4.0, 4.0) == pytest.approx(1.0)

    def test_gaussian_large_sample(self):
        noise = np.random.default_rng(0).normal(0, 0.5, (100, 100))
        assert noise_dispersion(noise + 1.0, 1.0) == pytest.approx(0.25, rel=0.05)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            noise_dispersion(np.zeros((0, 3)), 0.0)


class TestDetect:
    def test_all_in_band_empty_mask(self):
        filt = np.full((10, 10), 5.0)
        irf = IRFilter(np.ones((3, 3)), flat_level=5.0, sigma2=1.0)
        mask = detect([filt], [irf], [np.ones((12, 12))])
        assert not mask.positive().any()

    def test_grayscale_single_channel_rule(self):
        filt = np.full((10, 10), 5.0)
        filt[4, 4] = 11.0  # 6 sigma away
        irf = IRFilter(np.ones((3, 3)), flat_level=5.0, sigma2=1.0)
        original = np.arange(144.0).reshape(12, 12)
        mask = detect([filt], [irf], [original])
        pos = mask.positive()
        assert pos.sum() == 1 and pos[4, 4]
        assert len(mask.originals) == 1 and np.array_equal(mask.originals[0], original)

    def test_union_over_channels(self):
        base = np.full((8, 8), 1.0)
        f1 = base.copy()
        f2 = base.copy()
        f2[2, 3] = 10.0
        irf = IRFilter(np.ones((2, 2)), flat_level=1.0, sigma2=0.01)
        orig = [np.full((9, 9), 7.0), np.full((9, 9), 9.0)]
        mask = detect([f1, f2], [irf, irf], orig)
        assert mask.positive()[2, 3] and mask.positive().sum() == 1
        assert [plane[2, 3] for plane in mask.originals] == [7.0, 9.0]

    def test_zero_valued_flagged_pixel_stays_positive(self):
        filt = np.zeros((4, 4))
        filt[1, 1] = 9.0
        irf = IRFilter(np.ones((2, 2)), flat_level=0.0, sigma2=0.01)
        original = np.zeros((5, 5))
        mask = detect([filt], [irf], [original])
        assert mask.positive()[1, 1] and mask.positive().sum() == 1

    @pytest.mark.parametrize("channels", [1, 3])
    def test_verdicts_equal_union_formulation(self, rng, channels):
        # zero and negative originals are flagged like any other
        shape, out_shape = (20, 22), (17, 18)
        filtered = [rng.normal(0.0, 1.0, out_shape) for _ in range(channels)]
        filters = [IRFilter(np.ones((4, 5)), 0.1 * c, 0.5 + c) for c in range(channels)]
        originals = [rng.integers(-3, 4, shape).astype(float) for _ in range(channels)]
        originals[0][:4, :4] = 0.0
        originals[-1][5, :] = -0.0
        mask = detect(filtered, filters, originals, multiplier=1.5)
        expected = whole_plane_detect(filtered, filters, originals, 1.5)
        flagged = expected[: out_shape[0], : out_shape[1]]
        assert flagged[:4, :4].any() and (flagged & (originals[0][:17, :18] < 0)).any()
        assert np.array_equal(mask.positive(), expected)
        assert mask.valid_shape == out_shape

    def test_positive_raster_cached_read_only(self):
        filtered = [np.zeros((4, 4)) for _ in range(3)]
        filtered[1][2, 3] = 9.0
        irf = IRFilter(np.ones((2, 2)), flat_level=0.0, sigma2=1.0)
        originals = [np.full((5, 5), v) for v in (2.0, 4.0, -1.0)]
        mask = detect(filtered, [irf] * 3, originals)
        pos = mask.positive()
        assert pos is mask.positive()
        assert not pos.flags.writeable
        assert not any(plane.flags.writeable for plane in mask.originals)
        # the caller's arrays are left alone
        assert all(a.flags.writeable for a in filtered + originals)
        assert pos.dtype == bool and pos.shape == (5, 5)
        assert pos.sum() == 1 and pos[2, 3]
        assert [plane[2, 3] for plane in mask.originals] == [2.0, 4.0, -1.0]
        with pytest.raises(ValueError):
            pos[0, 0] = True
        with pytest.raises(ValueError):
            mask.originals[0][0, 0] = 1.0

    def test_negative_valued_anomaly_is_positive(self):
        # the verdict, not the sign of the original value, decides
        filt = np.zeros((6, 6))
        filt[2, 3] = 9.0
        irf = IRFilter(np.ones((3, 3)), flat_level=0.0, sigma2=1.0)
        original = np.full((8, 8), -128.0)
        mask = detect([filt], [irf], [original])
        assert mask.positive().sum() == 1 and mask.positive()[2, 3]
        assert mask.originals[0][2, 3] == -128.0

    def test_channel_count_mismatch(self):
        irf = IRFilter(np.ones((2, 2)), 0.0, 1.0)
        with pytest.raises(ValueError):
            detect([np.zeros((4, 4))], [irf, irf], [np.zeros((5, 5))])

    def test_patch_detection_rates(self):
        # anomaly-injection harness with generator ground truth
        covs, fps = [], []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pairs = [(fx, fy, a, float(rng.uniform(0, 2 * np.pi)))
                     for fx, fy, a, _ in FOUR_PAIRS]
            scene = synth_texture(pairs, 128, 128, noise_sigma=0.01,
                                  seed=seed + 2000, mean=128.0)
            sub = synth_texture([(0.18, 0.15, 1.2, 0.4)], 11, 11, mean=128.0)
            scene[80:91, 80:91] = sub
            base = scene[:64, :64]
            model, _ = estimate_model_ls(base, 16, 16)
            irf = design_filter(base, model)
            out = apply_filter(scene, irf)
            mask = detect([out], [irf], [scene])
            pos = mask.positive()
            p, q = irf.kernel.shape
            zone = np.zeros_like(pos)
            zone[80 - p + 1 : 91, 80 - q + 1 : 91] = True
            valid = np.zeros_like(pos)
            valid[: mask.valid_shape[0], : mask.valid_shape[1]] = True
            covs.append(pos[80:91, 80:91].mean())
            fps.append(pos[valid & ~zone].mean())
        assert min(covs) >= 0.9
        assert max(fps) <= 0.01

    def test_detection_monotone_in_contrast(self):
        base, model = exact_model(FOUR_PAIRS[:2], 50.0, 64, 64)
        noisy_base = base + np.random.default_rng(9).normal(0, 0.02, base.shape)
        irf = design_filter(noisy_base, model)
        scene0 = synth_texture(FOUR_PAIRS[:2], 128, 128, mean=50.0)
        scene0 += np.random.default_rng(10).normal(0, 0.02, scene0.shape)
        bump = np.zeros_like(scene0)
        bump[60:71, 60:71] = 1.0
        counts = []
        for contrast in (2.0, 4.0, 8.0, 16.0):
            scene = scene0 + contrast * bump
            mask = detect([apply_filter(scene, irf)], [irf], [scene])
            counts.append(int(mask.positive().sum()))
        assert all(b >= a for a, b in zip(counts, counts[1:]))


def whole_plane_apply(image, irf):
    """Reference: the filter as one whole-plane pass (the direct double sum,
    or the column pass then the row pass of a rank-one kernel), one fused
    multiply-add per tap."""

    def correlate(img, kernel):
        p, q = kernel.shape
        ox, oy = img.shape[0] - p + 1, img.shape[1] - q + 1
        out = np.zeros((ox, oy))
        for m in range(p):
            for n in range(q):
                out = fma_array(kernel[m, n], img[m : m + ox, n : n + oy], out)
        return out

    if irf.factors is None:
        return correlate(image, irf.kernel)
    col, row = irf.factors
    return correlate(correlate(image, col[:, np.newaxis]), row[np.newaxis, :])


def whole_plane_detect(filtered, filters, originals, multiplier):
    """Reference: union flags over whole planes, padded with False to the
    originals' shape."""
    ox, oy = filtered[0].shape
    flagged = np.zeros((ox, oy), dtype=bool)
    for f, irf in zip(filtered, filters):
        flagged |= np.abs(f - irf.flat_level) > multiplier * np.sqrt(irf.sigma2)
    verdicts = np.zeros(originals[0].shape, dtype=bool)
    verdicts[:ox, :oy] = flagged
    return verdicts


class TestStrips:
    @given(
        p=st.integers(1, 17),
        q=st.integers(1, 17),
        extra_cols=st.integers(0, 12),
        strip=st.integers(1, 6),
        strips=st.integers(1, 3),
        offset=st.integers(-1, 1),
        rank_one=st.booleans(),
        channels=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_strip_boundaries_are_bit_exact(
        self, p, q, extra_cols, strip, strips, offset, rank_one, channels, seed
    ):
        rng = np.random.default_rng(seed)
        ox, oy = max(1, strips * strip + offset), extra_cols + 1
        shape = (ox + p - 1, oy + q - 1)
        if rank_one:
            kernel = np.outer(rng.normal(0, 1, p), rng.normal(0, 1, q))
        else:
            kernel = rng.normal(0, 1, (p, q))
        originals = [rng.integers(-3, 4, shape).astype(float) for _ in range(channels)]
        originals[0][rng.random(shape) < 0.2] = -0.0
        filters = [
            IRFilter(kernel, flat_level=0.1 * c, sigma2=float(np.abs(kernel).sum()))
            for c in range(channels)
        ]
        with pytest.MonkeyPatch.context() as mp:
            # one strip holding every output row
            mp.setattr(filtering, "STRIP_BYTES", 8 * oy * ox)
            whole = [apply_filter(plane, irf) for plane, irf in zip(originals, filters)]
        with pytest.MonkeyPatch.context() as mp:
            # strips of `strip` output rows
            mp.setattr(filtering, "STRIP_BYTES", 8 * oy * strip)
            filtered = [apply_filter(plane, irf) for plane, irf in zip(originals, filters)]
            mask = detect(filtered, filters, originals, multiplier=0.5)
        for out, reference in zip(filtered, whole):
            assert np.array_equal(out, reference)
            assert np.array_equal(np.signbit(out), np.signbit(reference))
        if not rank_one and min(p, q) > 1:
            assert filters[0].factors is None
        verdicts = whole_plane_detect(filtered, filters, originals, 0.5)
        assert np.array_equal(mask.positive(), verdicts)

    @given(
        p=st.integers(1, 9),
        q=st.integers(1, 9),
        extra_cols=st.integers(0, 12),
        strip=st.integers(1, 6),
        strips=st.integers(1, 3),
        rank_one=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_uint8_plane_into_a_reused_buffer_equals_float_plane(
        self, p, q, extra_cols, strip, strips, rank_one, seed
    ):
        # each strip's source rows are converted as they are read, and a
        # buffer that held another frame's sums gives the same result
        rng = np.random.default_rng(seed)
        ox, oy = strips * strip, extra_cols + 1
        shape = (ox + p - 1, oy + q - 1)
        if rank_one:
            kernel = np.outer(rng.normal(0, 1, p), rng.normal(0, 1, q))
        else:
            kernel = rng.normal(0, 1, (p, q))
        irf = IRFilter(kernel, flat_level=0.0, sigma2=1.0)
        plane = rng.integers(0, 256, shape, dtype=np.uint8)
        reference = apply_filter(plane.astype(float), irf)
        out = filter_buffer(shape, irf)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filtering, "STRIP_BYTES", 8 * oy * strip)
            apply_filter(rng.integers(0, 256, shape, dtype=np.uint8), irf, out=out)
            got = apply_filter(plane, irf, out=out)
        assert np.shares_memory(got, out)
        assert np.array_equal(got, reference)

    @given(
        p=st.integers(1, 17),
        q=st.integers(1, 17),
        extra=st.tuples(st.integers(0, 12), st.integers(0, 12)),
        rank_one=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_whole_plane_pass_is_one_fma_per_tap(self, p, q, extra, rank_one, seed):
        rng = np.random.default_rng(seed)
        shape = (p + extra[0], q + extra[1])
        if rank_one:
            kernel = np.outer(rng.normal(0, 1, p), rng.normal(0, 1, q))
        else:
            kernel = rng.normal(0, 1, (p, q))
        plane = rng.integers(-3, 4, shape).astype(float)
        plane[rng.random(shape) < 0.2] = -0.0
        irf = IRFilter(kernel, flat_level=0.0, sigma2=1.0)
        out, reference = apply_filter(plane, irf), whole_plane_apply(plane, irf)
        assert np.array_equal(out, reference)
        assert np.array_equal(np.signbit(out), np.signbit(reference))


class TestShiftRobustness:
    def test_shifted_copy_same_dispersion_scale(self):
        # periodic texture: integer shifts are covered by the model span,
        # so the filter flattens shifted copies equally well
        pairs = [(0.25, 0.125, 1.0, 0.4), (0.125, 0.25, 0.7, 1.2)]
        big = synth_texture(pairs, 96, 96, mean=20.0)
        base = big[:64, :64]
        model, _ = estimate_model_ls(base, 4, 4)
        irf = design_filter(base, model)
        s0 = noise_dispersion(apply_filter(base, irf), irf.flat_level)
        shifted = big[5 : 5 + 64, 9 : 9 + 64]
        s1 = noise_dispersion(apply_filter(shifted, irf), irf.flat_level)
        assert s1 <= 2 * max(s0, 1e-18) or s1 < 1e-16
