"""Inverse filter design, convolution application, and the 3-sigma rule."""

import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resofilt import (
    ConfigError,
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
from resofilt import filtering, harmonic, pipeline
from resofilt.filtering import COL_BLOCK, ROW_BLOCK, FilterBuffers, filter_buffers
from resofilt.model_doc import dump_json

from conftest import FOUR_PAIRS, correlate_valid, pairs_subset, unit_roots, zero_mean_base


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

    def test_zero_mean_base_gives_all_zero_kernel(self):
        # the base has a unit-root amplitude but a mean of exactly 0, so
        # only the null kernel drives it to its mean; that would flag
        # nothing, so design refuses
        base = zero_mean_base()
        zx = unit_roots([0.0, 0.11, -0.11, 0.27, -0.27])
        zy = unit_roots([0.0, 0.23, -0.23, 0.08, -0.08])
        model = HarmonicModel.fit(base, zx, zy)
        with pytest.raises(NumericError, match="flat level 0 gives an all-zero kernel"):
            design_filter(base, model)

    def test_vanishing_mean_component_is_numeric_error(self):
        # the flat target rides on the unit-root component; a texture
        # without one cannot be driven to a nonzero level
        base = synth_texture(FOUR_PAIRS[:1], 32, 32)  # zero mean, no DC content
        zx = unit_roots([0.0, 0.11, -0.11])
        zy = unit_roots([0.0, 0.23, -0.23])
        model = HarmonicModel.fit(base, zx, zy)
        with pytest.raises(NumericError, match="no mean component"):
            design_filter(base, model)

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

    def test_non_contiguous_out_buffer_raises(self):
        irf = IRFilter(np.ones((2, 2)), 0.0, 1.0)
        bufs = filter_buffers((5, 6), [irf])[0]
        out = np.empty((4, 10))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            apply_filter(np.ones((5, 6)), irf, out=replace(bufs, out=out))

    def test_result_is_the_given_buffer_of_the_filtered_shape(self, rng):
        image = rng.normal(0, 1, (30, 20))
        irf = IRFilter(np.outer(rng.normal(0, 1, 5), rng.normal(0, 1, 4)), 0.0, 1.0)
        bufs = filter_buffers(image.shape, [irf])[0]
        out = bufs.out
        assert out.shape == (26, 17) and out.flags.c_contiguous
        got = apply_filter(image, irf, out=bufs)
        assert got.shape == (26, 17) and got.flags.c_contiguous
        assert got.ctypes.data == out.ctypes.data
        assert np.array_equal(got, apply_filter(image, irf))

    @pytest.mark.parametrize(
        "make",
        [
            lambda ox, oy: np.empty((ox, oy + 3)),  # as wide as the plane
            lambda ox, oy: np.empty((ox, oy), dtype=np.float32),
            lambda ox, oy: np.empty((ox, oy), dtype=complex),
            lambda ox, oy: np.empty((ox, oy), order="F"),
            lambda ox, oy: np.empty((ox, 2 * oy))[:, ::2],
            lambda ox, oy: None,
        ],
        ids=["plane-width", "float32", "complex", "fortran", "strided", "none"],
    )
    def test_wrong_out_buffer_raises(self, rng, make):
        image = rng.normal(0, 1, (30, 20))
        for kernel in (np.ones((5, 4)), np.outer(rng.normal(0, 1, 5), rng.normal(0, 1, 4))):
            irf = IRFilter(kernel, 0.0, 1.0)
            bufs = replace(filter_buffers(image.shape, [irf])[0], out=make(26, 17))
            given = [b for b in (bufs.out, bufs.src, bufs.cols) if b is not None]
            for buf in given:
                buf.fill(np.nan)
            with pytest.raises(ValueError, match="C-contiguous float64"):
                apply_filter(image, irf, out=bufs)
            # refused before any sum is written
            assert all(np.isnan(buf).all() for buf in given)

    def test_taller_buffer_set_serves_its_leading_rows(self, rng):
        # a set made for taller planes of the same width is accepted: the
        # result is the leading rows of its output buffer, bit for bit a
        # fresh call's result
        image = rng.normal(0, 1, (30, 20))
        for kernel in (np.ones((5, 4)), np.outer(rng.normal(0, 1, 5), rng.normal(0, 1, 4))):
            irf = IRFilter(kernel, 0.0, 1.0)
            bufs = filter_buffers((31, 20), [irf])[0]
            assert bufs.out.shape == (27, 17)
            got = apply_filter(image, irf, out=bufs)
            assert got.shape == (26, 17)
            assert got.ctypes.data == bufs.out.ctypes.data and got.strides == bufs.out.strides
            assert got.tobytes() == apply_filter(image, irf).tobytes()

    def test_band_product_is_one_fma_per_tap(self, tmp_path):
        # The bit-exact tests pin this contract of the BLAS: each of the
        # GEMMs apply_filter runs, its band times windows of the strip,
        # rounds every output once per tap in tap order, whatever the tap
        # count, the block and the BLAS thread count
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from resofilt.filtering import COL_BLOCK, ROW_BLOCK, IRFilter, _blocks\n"
            "rng = np.random.default_rng(12)\n"
            "got = {}\n"
            "for taps in range(1, 18):\n"
            "    irf = IRFilter(np.outer(rng.normal(0, 1, taps), rng.normal(0, 1, taps)), 0.0, 1.0)\n"
            "    col_band, row_band = irf.bands\n"
            "    got[f'col_taps{taps}'], got[f'row_taps{taps}'] = irf.factors\n"
            "    for w in (40, 43):\n"
            "        rows = rng.normal(0, 1, (2 * COL_BLOCK + taps - 1, w))\n"
            "        windows = _blocks(rows, 0, COL_BLOCK, (col_band.shape[1], w), 2)\n"
            "        got[f'col{taps}_{w}'] = np.concatenate(col_band @ windows)\n"
            "        got[f'rows{taps}_{w}'] = rows\n"
            "    for m in (2, 7):\n"
            "        cols = rng.normal(0, 1, (m, 2 * ROW_BLOCK + taps - 1))\n"
            "        windows = _blocks(cols, 1, ROW_BLOCK, (m, row_band.shape[0]), 2)\n"
            "        got[f'row{taps}_{m}'] = np.concatenate(windows @ row_band, axis=1)\n"
            "        got[f'cols{taps}_{m}'] = cols\n"
            "np.savez(sys.argv[1], **got)\n"
        )
        package_root = str(Path(filtering.__file__).resolve().parents[1])
        results = []
        for threads in ("1", "2"):
            path = tmp_path / f"threads{threads}.npz"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=package_root)
            subprocess.run([sys.executable, "-c", script, str(path)],
                           env=env, capture_output=True, text=True, timeout=120, check=True)
            with np.load(path) as saved:
                results.append(dict(saved))
        told_apart = 0
        for taps in range(1, 18):
            col, row = results[0][f"col_taps{taps}"], results[0][f"row_taps{taps}"]
            names = []
            for w in (40, 43):
                rows = results[0][f"rows{taps}_{w}"]
                expected, naive = 0.0, 0.0
                for m in range(taps):
                    expected = fma_array(col[m], rows[m : m + 2 * COL_BLOCK], expected)
                    naive = naive + col[m] * rows[m : m + 2 * COL_BLOCK]
                names.append((f"col{taps}_{w}", expected, naive))
            for m in (2, 7):
                cols = results[0][f"cols{taps}_{m}"]
                expected, naive = 0.0, 0.0
                for n in range(taps):
                    expected = fma_array(row[n], cols[:, n : n + 2 * ROW_BLOCK], expected)
                    naive = naive + row[n] * cols[:, n : n + 2 * ROW_BLOCK]
                names.append((f"row{taps}_{m}", expected, naive))
            for name, expected, naive in names:
                for got in results:
                    assert got[name].tobytes() == expected.tobytes(), name
                told_apart += int(np.sum(expected != naive))
        # the data separate fused from multiply-then-add rounding
        assert told_apart > 100

    @pytest.mark.skipif(
        usable_cpus() < 2, reason="OpenBLAS runs one thread per usable CPU, so it cannot split"
    )
    def test_band_product_split_across_two_threads_is_one_fma_per_tap(self, tmp_path):
        # The 17-tap bands times one block of windows large enough that
        # numpy's bundled OpenBLAS splits the GEMM between two threads (it
        # ran products below about 1e6 multiply-adds on one thread on a
        # 2-vCPU Xeon): 8 x 24 by 24 x 8000 and 4000 x 32 by 32 x 16.  The
        # split is checked by the CPU time of the threads other than the
        # caller's, and the results against the fma reference on every
        # 40th column and row (the threads' shares are column or row
        # ranges, so the samples cover both).  A few hundred products give
        # the helper thread CPU time well above a scheduler tick.
        script = (
            "import sys, time\n"
            "import numpy as np\n"
            "from resofilt.filtering import COL_BLOCK, ROW_BLOCK, IRFilter, _blocks\n"
            "rng = np.random.default_rng(31)\n"
            "irf = IRFilter(np.outer(rng.normal(0, 1, 17), rng.normal(0, 1, 17)), 0.0, 1.0)\n"
            "col_band, row_band = irf.bands\n"
            "rows = rng.normal(0, 1, (COL_BLOCK + 16, 8000))\n"
            "cols = rng.normal(0, 1, (4000, ROW_BLOCK + 16))\n"
            "col_windows = _blocks(rows, 0, COL_BLOCK, (col_band.shape[1], 8000), 1)\n"
            "row_windows = _blocks(cols, 1, ROW_BLOCK, (4000, row_band.shape[0]), 1)\n"
            "products = {'col': lambda: col_band @ col_windows,\n"
            "            'row': lambda: row_windows @ row_band}\n"
            "got = dict(col_taps=irf.factors[0], row_taps=irf.factors[1], rows=rows, cols=cols)\n"
            "for name, product in products.items():\n"
            "    cpu, own = time.process_time(), time.thread_time()\n"
            "    for _ in range(400):\n"
            "        got[name] = product()[0]\n"
            "    own = time.thread_time() - own\n"
            "    time.sleep(0.05)  # a tick passes, so a busy helper's CPU time is counted\n"
            "    got[name + '_helper_cpu'] = (time.process_time() - cpu - own) / own\n"
            "np.savez(sys.argv[1], **got)\n"
        )
        package_root = str(Path(filtering.__file__).resolve().parents[1])
        results = []
        for threads in ("1", "2"):
            path = tmp_path / f"threads{threads}.npz"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=package_root)
            subprocess.run([sys.executable, "-c", script, str(path)],
                           env=env, capture_output=True, text=True, timeout=120, check=True)
            with np.load(path) as saved:
                results.append(dict(saved))
        one, two = results
        for name in ("col", "row"):
            assert one[name + "_helper_cpu"] < 0.05, name
            assert two[name + "_helper_cpu"] > 0.25, name  # a helper thread did its share
            assert two[name].tobytes() == one[name].tobytes(), name
        col, row = one["col_taps"], one["row_taps"]
        rows, cols = one["rows"][:, ::40], one["cols"][::40]
        expected, naive = 0.0, 0.0
        for m in range(17):
            expected = fma_array(col[m], rows[m : m + COL_BLOCK], expected)
            naive = naive + col[m] * rows[m : m + COL_BLOCK]
        assert one["col"][:, ::40].tobytes() == expected.tobytes()
        told_apart = int(np.sum(expected != naive))
        expected, naive = 0.0, 0.0
        for n in range(17):
            expected = fma_array(row[n], cols[:, n : n + ROW_BLOCK], expected)
            naive = naive + row[n] * cols[:, n : n + ROW_BLOCK]
        assert one["row"][::40].tobytes() == expected.tobytes()
        told_apart += int(np.sum(expected != naive))
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
    return correlate_valid(image, irf.kernel)


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
        # the filter's GEMMs here are too small for OpenBLAS to split
        # across threads, so this pins only that the thread count picks no
        # other kernel; test_band_product_split_across_two_threads_is_one_
        # fma_per_tap runs GEMMs that are split
        script = (
            "import hashlib, numpy as np\n"
            "from resofilt import IRFilter, apply_filter\n"
            "rng = np.random.default_rng(5)\n"
            "image = rng.normal(0, 10, (256, 256))\n"
            "irf = IRFilter(np.outer(rng.normal(0, 1, 9), rng.normal(0, 1, 9)), 0.0, 1.0)\n"
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
    def test_random_kernels_are_rank_one_or_refused(self, p, q, extra, seed):
        rng = np.random.default_rng(seed)
        image = rng.normal(0, 10, (p + extra[0], q + extra[1]))
        outer = IRFilter(np.outer(rng.normal(0, 1, p), rng.normal(0, 1, q)), 0.0, 0.0)
        assert _close_to_direct(image, outer)
        if min(p, q) >= 2:
            with pytest.raises(ValueError, match=rf"kernel \({p}, {q}\) is not rank one"):
                IRFilter(rng.normal(0, 1, (p, q)), 0.0, 0.0)

    def test_rank_one_tolerance_is_relative_to_the_largest_tap(self):
        # the factors through the peak 1024 at (1, 1) are exact, so they miss
        # the bent tap (0, 0) by exactly its bend: 2**-41 or 2**-39 of the peak
        # against a tolerance of 1e-12
        kernel = np.outer([1.0, 2.0], [4.0, 512.0])
        for miss, ok in ((2.0**-41, True), (2.0**-39, False)):
            bent = kernel.copy()
            bent[0, 0] += 1024.0 * miss
            if ok:
                assert np.array_equal(np.outer(*IRFilter(bent, 0.0, 0.0).factors), kernel)
            else:
                with pytest.raises(ValueError, match="not rank one"):
                    IRFilter(bent, 0.0, 0.0)

    def test_model_document_round_trip_same_output(self):
        scene = _patch_scene(1)
        base = scene[:64, :64]
        model, _ = estimate_model_ls(base, 16, 16)
        irf = design_filter(base, model)
        doc = json.loads(dump_json(model_to_doc(model, [irf])))
        _, (back,) = doc_to_model(doc)
        assert np.array_equal(apply_filter(scene, back), apply_filter(scene, irf))

    def test_all_zero_kernel_is_refused(self):
        for kernel in (np.zeros((1, 1)), np.zeros((3, 4)), np.full((3, 4), -0.0)):
            with pytest.raises(NumericError, match="kernel is all zero"):
                IRFilter(kernel, 0.0, 0.0)

    @pytest.mark.parametrize("channel_mode", ["gray", "rgb"])
    @pytest.mark.parametrize("estimator,order", [("ls", 8), ("ls", 16), ("pencil", 4)])
    def test_sigma2_is_the_dispersion_of_the_applied_filter(self, estimator, order,
                                                             channel_mode):
        # the detector judges apply_filter's output against sigma2, so the
        # design measures sigma2 on that same arithmetic
        cfg = PipelineConfig(order=(order, order), estimator=estimator,
                             channel_mode=channel_mode)
        base, model, _ = pipeline.estimate(_rgb_scene(1.0), cfg)
        planes, _ = pipeline._channels(base, channel_mode)
        for plane, irf in zip(planes, pipeline.design(base, model, cfg)):
            dispersion = noise_dispersion(apply_filter(plane, irf), irf.flat_level)
            assert np.float64(irf.sigma2).tobytes() == np.float64(dispersion).tobytes()


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
    return kernel, noise_dispersion(correlate_valid(base, kernel), flat)


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
        out = apply_filter(base, irf)
        assert np.abs(out - irf.flat_level).max() < 1e-8 * np.abs(base).max()
        assert irf.sigma2 < 1e-16 * irf.flat_level**2


def _same_filter(a: IRFilter, b: IRFilter) -> bool:
    """Bitwise equality of kernels, rank-one factors, levels and dispersions."""
    def bits(values):
        return np.asarray(values, dtype=float).tobytes()

    return (
        bits(a.kernel) == bits(b.kernel)
        and all(bits(x) == bits(y) for x, y in zip(a.factors, b.factors))
        and bits(a.flat_level) == bits(b.flat_level)
        and bits(a.sigma2) == bits(b.sigma2)
        and a.channel == b.channel
    )


def _without_basis(model: HarmonicModel) -> HarmonicModel:
    """The model as a document loads it: same values, no amplitude basis."""
    loaded = doc_to_model(model_to_doc(model))[0]
    assert loaded.basis is None
    return loaded


class TestSharedBasis:
    """The amplitude fit and every channel's design share one basis."""

    @pytest.mark.parametrize("channel_mode", ["gray", "rgb"])
    def test_estimate_and_design_build_one_basis(self, monkeypatch, channel_mode):
        # 2 Vandermonde bases, 2 SVDs and 2 Lagrange factors per run, for
        # any number of channels
        counts = {"vandermonde": 0, "svd": 0, "lagrange": 0}
        vandermonde_, svd, lagrange = (harmonic.vandermonde, np.linalg.svd,
                                       harmonic.unit_lagrange)

        def spy(name, fn, module=None):
            def counted(*args, **kwargs):
                caller = sys._getframe(1).f_globals.get("__name__")
                if module is None or caller == module:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(harmonic, "vandermonde", spy("vandermonde", vandermonde_))
        monkeypatch.setattr(np.linalg, "svd", spy("svd", svd, "resofilt.harmonic"))
        monkeypatch.setattr(harmonic, "unit_lagrange", spy("lagrange", lagrange))
        cfg = PipelineConfig(order=(8, 8), channel_mode=channel_mode)
        base, model, _ = pipeline.estimate(_rgb_scene(1.0), cfg)
        filters = pipeline.design(base, model, cfg)
        assert len(filters) == (3 if channel_mode == "rgb" else 1)
        assert counts == {"vandermonde": 2, "svd": 2, "lagrange": 2}

    @pytest.mark.parametrize("channel_mode", ["gray", "rgb"])
    @pytest.mark.parametrize("estimator,order", [("ls", 8), ("pencil", 4)])
    def test_design_equals_a_model_without_basis(self, estimator, order, channel_mode):
        cfg = PipelineConfig(order=(order, order), estimator=estimator,
                             channel_mode=channel_mode)
        base, model, _ = pipeline.estimate(_rgb_scene(1.0), cfg)
        assert model.basis is not None and model.basis.shape == (64, 64)
        filters = pipeline.design(base, model, cfg)
        loaded = _without_basis(model)
        planes, names = pipeline._channels(base, channel_mode)
        for plane, name, irf in zip(planes, names, filters):
            assert _same_filter(irf, design_filter(plane, loaded, channel=name))

    def test_base_region_of_another_shape_builds_its_own_basis(self):
        scene = _patch_scene(3)
        model, _ = estimate_model_ls(scene[:64, :64], 8, 8)
        assert model.basis.shape == (64, 64)
        other = scene[16:64, 8:64]
        assert other.shape == (48, 56)
        assert _same_filter(design_filter(other, model),
                            design_filter(other, _without_basis(model)))

    def test_threads_design_from_one_model(self):
        # the basis and Lagrange factors are read-only and built with the
        # model, so concurrent designs read them and change nothing
        cfg = PipelineConfig(order=(8, 8), channel_mode="rgb")
        base, model, _ = pipeline.estimate(_rgb_scene(1.0), cfg)
        assert not (model.basis.pinv_x.flags.writeable or model.basis.pinv_y.flags.writeable
                    or model.lagrange_x[1].flags.writeable
                    or model.lagrange_y[1].flags.writeable)
        expected = pipeline.design(base, model, cfg)
        results = []

        def work():
            results.append([pipeline.design(base, model, cfg) for _ in range(5)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        for runs in results:
            for filters in runs:
                assert all(_same_filter(a, b) for a, b in zip(filters, expected, strict=True))

    def test_basis_of_other_roots_is_refused(self):
        _, model = exact_model(FOUR_PAIRS[:1], 100.0, 32, 32)
        with pytest.raises(ValueError, match="other roots"):
            replace(model, zx=unit_roots([0.0, 0.2, -0.2]))


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
        assert (original * pos).sum() == original[4, 4] == 52.0
        # the originals set the raster's shape; no intensity of theirs is read
        blank = detect([filt], [irf], [np.full((12, 12), np.nan)])
        assert np.array_equal(blank.positive(), pos) and blank.valid_shape == (10, 10)

    def test_union_over_channels(self):
        base = np.full((8, 8), 1.0)
        f1 = base.copy()
        f2 = base.copy()
        f2[2, 3] = 10.0
        irf = IRFilter(np.ones((2, 2)), flat_level=1.0, sigma2=0.01)
        orig = [np.full((9, 9), 7.0), np.full((9, 9), 9.0)]
        mask = detect([f1, f2], [irf, irf], orig)
        assert mask.positive()[2, 3] and mask.positive().sum() == 1
        assert [(plane * mask.positive()).sum() for plane in orig] == [7.0, 9.0]

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

    def test_given_raster_is_written_whole_from_strided_rows(self, rng):
        # every element of the given raster is written, the filtered rows
        # may be a strided view, and there is no deviation buffer to give
        filtered = [rng.normal(0.0, 1.0, (6, 14))[:, ::2]]
        irf = IRFilter(np.ones((2, 2)), flat_level=0.0, sigma2=0.25)
        originals = [np.zeros((7, 8))]
        raster = np.ones((7, 8), dtype=bool)
        mask = detect(filtered, [irf], originals, out=raster)
        assert np.shares_memory(mask.positive(), raster)
        assert np.array_equal(raster, whole_plane_detect(filtered, [irf], originals, 3.0))
        with pytest.raises(TypeError):
            detect(filtered, [irf], originals, out=raster, scratch=np.empty((6, 7)))

    @pytest.mark.parametrize(
        "multiplier",
        [math.nan, math.inf, -math.inf, 0.0, -1.0, 0, True, "3", None, np.float32(3), 10**400],
    )
    def test_multiplier_must_be_a_finite_positive_number(self, multiplier):
        # the rule PipelineConfig.validate applies to sigma_multiplier
        filtered = [np.arange(16.0).reshape(4, 4)]
        irf = IRFilter(np.ones((1, 1)), flat_level=0.0, sigma2=1.0)
        raster = np.ones((4, 4), dtype=bool)
        with pytest.raises(ValueError, match="multiplier: must be a finite positive number"):
            detect(filtered, [irf], [np.zeros((4, 4))], multiplier, out=raster)
        assert raster.all()
        with pytest.raises(ConfigError, match="sigma_multiplier: must be a finite positive"):
            PipelineConfig(sigma_multiplier=multiplier).validate()

    @pytest.mark.parametrize(
        "flat,values",
        [(0.1, [0.1, np.nextafter(0.1, 1.0), np.nextafter(0.1, -1.0), np.nan]),
         (0.0, [0.0, 5e-324, -5e-324, -0.0])],
    )
    def test_zero_sigma_flags_every_value_but_the_level(self, flat, values):
        # t = 0: the doubles next to E are flagged, E itself (of either
        # sign when it is zero) and NaN are not
        filt = np.array([values])
        irf = IRFilter(np.ones((1, 1)), flat_level=flat, sigma2=0.0)
        got = detect([filt], [irf], [np.zeros(filt.shape)], multiplier=3.0).positive()
        assert got.tolist() == [[False, True, True, False]]
        assert np.array_equal(got, whole_plane_detect([filt], [irf], [filt], 3.0))

    def test_overflowing_threshold_flags_nothing(self):
        # t = 1e300 * sqrt(1e100) overflows to inf, and no |f - E| exceeds it
        filt = np.array([[np.inf, -np.inf, np.nan, 1e308, -1e308, 0.0]])
        irf = IRFilter(np.ones((1, 1)), flat_level=-1e308, sigma2=1e100)
        with np.errstate(over="ignore"):
            assert 1e300 * np.sqrt(irf.sigma2) == np.inf
            expected = whole_plane_detect([filt], [irf], [filt], 1e300)
        got = detect([filt], [irf], [filt], multiplier=1e300)
        assert not got.positive().any() and not expected.any()
        # the largest finite t still flags the infinities alone
        irf = IRFilter(np.ones((1, 1)), flat_level=0.0, sigma2=1.0)
        got = detect([filt], [irf], [filt], multiplier=np.finfo(float).max).positive()
        assert got.tolist() == [[True, True, False, False, False, False]]

    @given(
        level=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1e10,
                             1e308, -1e308]),
        ),
        t=st.one_of(
            st.floats(min_value=0.0, allow_nan=False),
            st.sampled_from([0.0, 5e-324, 1e-300, 1e10, 1e308, math.inf]),
        ),
        values=st.lists(
            st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan,
                                                    math.inf, -math.inf, 1e308, -1e308])),
            max_size=20,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_two_bounds_give_the_rounded_rule(self, level, t, values):
        # f > hi or f < lo is |fl(f - E)| > t, element for element, on the
        # doubles drawn and on those next to E +- t and to each bound
        hi = filtering._upper_bound(level, t)
        lo = -filtering._upper_bound(-level, t)
        near = [level + t, level - t, hi, lo]
        with np.errstate(over="ignore", invalid="ignore"):
            steps = [np.nextafter(c, np.inf * s) for c in near for s in (1, -1)]
            steps += [np.nextafter(c, np.inf * s) for c in steps for s in (1, -1)]
            f = np.array(values + near + steps, dtype=float)
            expected = np.abs(f - level) > t
        assert np.array_equal((f > hi) | (f < lo), expected)

    def test_positive_raster_cached_read_only(self):
        filtered = [np.zeros((4, 4)) for _ in range(3)]
        filtered[1][2, 3] = 9.0
        irf = IRFilter(np.ones((2, 2)), flat_level=0.0, sigma2=1.0)
        originals = [np.full((5, 5), v) for v in (2.0, 4.0, -1.0)]
        mask = detect(filtered, [irf] * 3, originals)
        pos = mask.positive()
        assert pos is mask.positive()
        assert not pos.flags.writeable
        # the mask is its verdict raster: the planes stay with the caller
        assert set(vars(mask)) == {"verdicts", "valid_shape"}
        # the caller's arrays are left alone
        assert all(a.flags.writeable for a in filtered + originals)
        assert pos.dtype == bool and pos.shape == (5, 5)
        assert pos.sum() == 1 and pos[2, 3]
        assert [(plane * pos).sum() for plane in originals] == [2.0, 4.0, -1.0]
        with pytest.raises(ValueError):
            pos[0, 0] = True

    def test_negative_valued_anomaly_is_positive(self):
        # the verdict, not the sign of the original value, decides
        filt = np.zeros((6, 6))
        filt[2, 3] = 9.0
        irf = IRFilter(np.ones((3, 3)), flat_level=0.0, sigma2=1.0)
        original = np.full((8, 8), -128.0)
        mask = detect([filt], [irf], [original])
        assert mask.positive().sum() == 1 and mask.positive()[2, 3]
        assert (original * mask.positive())[2, 3] == -128.0

    def test_channel_count_mismatch(self):
        irf = IRFilter(np.ones((2, 2)), 0.0, 1.0)
        with pytest.raises(ValueError):
            detect([np.zeros((4, 4))], [irf, irf], [np.zeros((5, 5))])

    @pytest.mark.parametrize(
        "filtered,originals,out,reason",
        [([], [], None, "at least one channel is required"),
         ([np.zeros((6, 5))], [(5, 5)], None, "filtered channels exceed the original planes"),
         ([np.zeros((4, 4))], [(5, 5)], np.zeros((5, 5), dtype=np.uint8),
          r"out must be a boolean raster of shape \(5, 5\)"),
         ([np.zeros((4, 4))], [(5, 5)], np.zeros((5, 4), dtype=bool),
          r"out must be a boolean raster of shape \(5, 5\)"),
         ([np.zeros((4, 4)), np.zeros((4, 3))], [(5, 5)] * 2, None,
          "filtered channels disagree in shape"),
         ([np.zeros((3, 3))] * 2, [(9, 9), (3, 3)], None, "original planes disagree in shape")],
        ids=["no-channels", "filtered-too-large", "out-not-bool", "out-wrong-shape",
             "filtered-disagree", "originals-disagree"],
    )
    def test_refusals(self, filtered, originals, out, reason):
        irf = IRFilter(np.ones((2, 2)), 0.0, 1.0)
        with pytest.raises(ValueError, match=reason):
            detect(filtered, [irf] * len(originals), [np.zeros(s) for s in originals], out=out)

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
    """Reference: the filter as one whole-plane pass, the column pass then
    the row pass, one fused multiply-add per tap."""

    def correlate(img, kernel):
        p, q = kernel.shape
        ox, oy = img.shape[0] - p + 1, img.shape[1] - q + 1
        out = np.zeros((ox, oy))
        for m in range(p):
            for n in range(q):
                out = fma_array(kernel[m, n], img[m : m + ox, n : n + oy], out)
        return out

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
        channels=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_strip_boundaries_are_bit_exact(
        self, p, q, extra_cols, strip, strips, offset, channels, seed
    ):
        rng = np.random.default_rng(seed)
        ox, oy = max(1, strips * strip + offset), extra_cols + 1
        shape = (ox + p - 1, oy + q - 1)
        kernel = np.outer(rng.normal(0, 1, p), rng.normal(0, 1, q))
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
        verdicts = whole_plane_detect(filtered, filters, originals, 0.5)
        assert np.array_equal(mask.positive(), verdicts)

    @given(
        p=st.integers(1, 9),
        q=st.integers(1, 9),
        extra_cols=st.integers(0, 12),
        strip=st.integers(1, 6),
        strips=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_uint8_plane_into_a_reused_buffer_equals_float_plane(
        self, p, q, extra_cols, strip, strips, seed
    ):
        # each strip's source rows are converted as they are read, and a
        # buffer that held another frame's sums gives the same result
        rng = np.random.default_rng(seed)
        ox, oy = strips * strip, extra_cols + 1
        shape = (ox + p - 1, oy + q - 1)
        kernel = np.outer(rng.normal(0, 1, p), rng.normal(0, 1, q))
        irf = IRFilter(kernel, flat_level=0.0, sigma2=1.0)
        plane = rng.integers(0, 256, shape, dtype=np.uint8)
        reference = apply_filter(plane.astype(float), irf)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filtering, "STRIP_BYTES", 8 * oy * strip)
            bufs = filter_buffers(shape, [irf])[0]
            apply_filter(rng.integers(0, 256, shape, dtype=np.uint8), irf, out=bufs)
            got = apply_filter(plane, irf, out=bufs)
        assert np.shares_memory(got, bufs.out)
        assert np.array_equal(got, reference)

    def test_run_buffers_share_strip_scratch_and_change_no_result(self, rng, monkeypatch):
        # one scratch pair serves filters of different heights, frame
        # after frame, in 3-row strips
        shape = (30, 20)
        filters = [
            IRFilter(np.outer(rng.normal(0, 1, 5), rng.normal(0, 1, 4)), 0.0, 1.0),
            IRFilter(np.outer(rng.normal(0, 1, 3), rng.normal(0, 1, 4)), 0.0, 1.0),
            IRFilter(np.outer(rng.normal(0, 1, 2), rng.normal(0, 1, 4)), 0.0, 1.0),
        ]
        monkeypatch.setattr(filtering, "STRIP_BYTES", 8 * 17 * 3)
        bufs = filter_buffers(shape, filters)
        assert len({id(b.src) for b in bufs}) == len({id(b.cols) for b in bufs}) == 1
        assert len({id(b.out) for b in bufs}) == 3
        for _ in range(3):
            plane = rng.integers(0, 256, shape, dtype=np.uint8)
            for irf, buf in zip(filters, bufs):
                got = apply_filter(plane, irf, out=buf)
                assert np.shares_memory(got, buf.out)
                assert np.array_equal(got, apply_filter(plane.astype(float), irf))
        short = FilterBuffers(bufs[0].out, bufs[0].src[:6], bufs[0].cols)
        with pytest.raises(ValueError, match="scratch buffer"):
            apply_filter(plane, filters[0], out=short)
        # a missing or non-float64 scratch buffer is refused, whatever the
        # kernel's height, before the filter runs
        for irf, buf in zip(filters, bufs):
            for name in ("src", "cols"):
                for bad in (None, getattr(buf, name).astype(np.float32)):
                    with pytest.raises(ValueError, match="scratch buffer"):
                        apply_filter(plane, irf, out=replace(buf, **{name: bad}))

    @pytest.mark.parametrize(
        "shape,p,q,strip",
        [((7, 1), 4, 1, None), ((2, 1), 2, 1, None), ((12, 5), 4, 5, None),
         ((4, 30), 4, 3, None), ((12, 40), 3, 7, 1), ((12, 40), 3, 7, 3),
         ((6, 20), 1, 5, None), ((1, 20), 1, 17, None)],
        ids=["one-column", "one-pixel", "one-valid-column", "one-row", "one-row-strips",
             "one-row-last-strip", "one-column-tap", "one-row-one-column-tap"],
    )
    @pytest.mark.parametrize("fill", ["small-integers", "negative-zero"])
    def test_gemm_edge_shapes_are_one_fma_per_tap(self, monkeypatch, shape, p, q, strip, fill):
        # the shapes where a GEMM would shrink to one row or column, or a
        # pass to its padded last block, met by design rather than by chance
        rng = np.random.default_rng(17)
        irf = IRFilter(np.outer(rng.normal(0, 1, p), rng.normal(0, 1, q)), 0.0, 1.0)
        if fill == "negative-zero":
            plane = np.full(shape, -0.0)
        else:
            plane = rng.integers(-3, 4, shape).astype(float)
            plane[rng.random(shape) < 0.3] = -0.0
        if strip is not None:
            monkeypatch.setattr(filtering, "STRIP_BYTES", 8 * (shape[1] - q + 1) * strip)
        out, reference = apply_filter(plane, irf), whole_plane_apply(plane, irf)
        assert np.array_equal(out, reference)
        assert np.array_equal(np.signbit(out), np.signbit(reference))

    @given(
        p=st.integers(1, 17),
        q=st.integers(1, 17),
        extra=st.tuples(st.integers(0, 12), st.integers(0, 12)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_whole_plane_pass_is_one_fma_per_tap(self, p, q, extra, seed):
        rng = np.random.default_rng(seed)
        shape = (p + extra[0], q + extra[1])
        kernel = np.outer(rng.normal(0, 1, p), rng.normal(0, 1, q))
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
