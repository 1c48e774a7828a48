"""End-to-end pipeline behaviour and the command-line surface."""

import argparse
import dataclasses
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resofilt import (
    ConfigError,
    ImageFormatError,
    ImageStack,
    NumericError,
    ResofiltError,
    synth_texture,
)
from resofilt import cli, filtering, pipeline, postfilter
from resofilt.cli import main
from resofilt.errors import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE
from resofilt.filtering import apply_filter, detect
from resofilt.imageio import draw_boxes, read_image, write_image
from resofilt.model_doc import dump_json
from resofilt.pipeline import PipelineConfig, estimate_model, run_pipeline
from resofilt.postfilter import connected_components

from conftest import FOUR_PAIRS, zero_mean_base


def patch_scene(seed=7, n=128, patch_value=200.0):
    img = synth_texture(FOUR_PAIRS, n, n, noise_sigma=0.01, seed=seed, mean=128.0)
    img[80:91, 80:91] = patch_value
    return ImageStack((img,))


class TestRunPipeline:
    def test_static_detection_finds_patch(self):
        cfg = PipelineConfig(order=(8, 8), post="hist", hist_epsilon=0.05)
        result = run_pipeline(cfg, [patch_scene()])
        assert len(result.confirmed[0]) == 1
        box = result.confirmed[0][0]
        # detection halo extends the 11x11 patch by up to the kernel size
        assert box.x0 <= 80 <= 90 <= box.x1 + 2
        assert abs(box.center[0] - 85) <= 5 and abs(box.center[1] - 85) <= 5

    def test_estimators_localize_same_object(self):
        centers = {}
        for estimator in ("ls", "pencil"):
            cfg = PipelineConfig(
                estimator=estimator, order=(8, 8), post="hist", hist_epsilon=0.05
            )
            result = run_pipeline(cfg, [patch_scene()])
            assert len(result.confirmed[0]) == 1
            centers[estimator] = result.confirmed[0][0].center
        dx = abs(centers["ls"][0] - centers["pencil"][0])
        dy = abs(centers["ls"][1] - centers["pencil"][1])
        assert dx <= 2 and dy <= 2

    def test_dynamic_sequence_confirms_persistent_object(self):
        # persistent patch plus single-frame bright speckle trains that
        # intensify after first appearance (dynamic-texture surges)
        frames = []
        rng = np.random.default_rng(5)
        anchors = [(14, 20, 1), (100, 30, -1), (20, 96, -1), (104, 100, 1)]
        for t in range(3):
            img = synth_texture(FOUR_PAIRS, 128, 128, noise_sigma=0.01,
                                seed=40 + t, mean=128.0)
            img[80:91, 80:91] = 200.0
            for (r, c, d) in anchors:
                offsets = (0,) if t == 0 else (-6, -2, 2, 6)
                for off in offsets:
                    rr = r + off + (np.arange(12) if d > 0 else 11 - np.arange(12))
                    cc = c + np.arange(12)
                    img[rr % 128, cc % 128] = 255.0
            frames.append(ImageStack((img,)))
        cfg = PipelineConfig(order=(8, 8), post="track", track_window=3, min_area=2)
        result = run_pipeline(cfg, frames)
        confirmed = result.confirmed[0]
        assert any(b.x0 <= 85 <= b.x1 and b.y0 <= 85 <= b.y1 for b in confirmed)
        record = result.report.frames[0]
        dropped = sum(1 for r in record["correlations"] if r <= cfg.track_threshold)
        assert dropped >= 1  # speckle trains decorrelate and drop

    def test_track_work_counts(self, monkeypatch):
        # each object of each window is correlated exactly once, and the
        # windows hold the detector's own positive rasters, not copies
        calls, states, masks = [], [], []
        correlate, confirm = postfilter.binary_correlation, postfilter.track_filter
        find = pipeline.detect

        def spy_detect(*args, **kwargs):
            masks.append(find(*args, **kwargs))
            return masks[-1]

        def spy_correlation(state, index):
            calls.append((id(state), index))
            return correlate(state, index)

        def spy_filter(state, *args, **kwargs):
            states.append(state)
            return confirm(state, *args, **kwargs)

        monkeypatch.setattr(pipeline, "detect", spy_detect)
        monkeypatch.setattr(pipeline, "binary_correlation", spy_correlation)
        monkeypatch.setattr(postfilter, "binary_correlation", spy_correlation)
        monkeypatch.setattr(pipeline, "track_filter", spy_filter)
        frames = [patch_scene(seed=s) for s in range(4)]
        cfg = PipelineConfig(order=(8, 8), post="track", track_window=3, min_area=1)
        result = run_pipeline(cfg, frames)
        assert len(states) == 2 and len(masks) == 4
        # a 128x128 frame is one strip: frame 0's mask wraps the raster
        # its one detect call filled
        assert np.shares_memory(result.mask.positive(), masks[0].positive())
        assert np.array_equal(result.mask.positive(), masks[0].positive())
        expected = [(id(st), i) for st in states for i in range(len(st.objects))]
        assert expected and sorted(calls) == sorted(expected)
        for start, state in enumerate(states):
            for offset, raster in enumerate(state.masks):
                assert np.shares_memory(raster, masks[start + offset].positive())

    def test_hist_post_filter_reuses_the_filtered_planes(self, monkeypatch):
        # gray mode on rgb frames: each frame's gray plane is built once
        # and the histogram post-filter reads that same plane
        grays, judged = [], []
        gray, difference = ImageStack.gray, pipeline.histogram_difference

        def spy_gray(stack):
            grays.append(gray(stack))
            return grays[-1]

        def spy_difference(plane, box, *args, **kwargs):
            judged.append(plane)
            return difference(plane, box, *args, **kwargs)

        monkeypatch.setattr(ImageStack, "gray", spy_gray)
        monkeypatch.setattr(pipeline, "histogram_difference", spy_difference)
        frames = [ImageStack(patch_scene(seed=s).planes * 3) for s in (7, 8)]
        cfg = PipelineConfig(order=(8, 8), post="hist", hist_epsilon=0.05)
        run_pipeline(cfg, frames)
        full = [g for g in grays if g.shape == (128, 128)]
        assert len(full) == 2
        assert judged and all(any(p is g for g in full) for p in judged)

    @pytest.mark.parametrize(
        "strip_bytes,strips",
        [(None, [120]), (8 * 120 * 25, [25, 25, 25, 25, 20])],
        ids=["one-strip", "five-strips"],
    )
    def test_each_channel_filters_every_frame_into_one_buffer(
        self, monkeypatch, strip_bytes, strips
    ):
        # one buffer set per channel per run, passed to the filter call of
        # every strip of every frame, the short last strip included;
        # reusing it changes no result
        if strip_bytes is not None:
            monkeypatch.setattr(filtering, "STRIP_BYTES", strip_bytes)
        calls = []
        apply = pipeline.apply_filter

        def spy_apply(image, irf, *, out=None):
            assert out is not None
            calls.append((irf.channel, image.shape[0] - irf.order[0] + 1, out))
            return apply(image, irf, out=out)

        # the 9x9 kernels of order 8 leave 120 valid rows of a 128-row frame
        frames = [ImageStack(patch_scene(seed=s).planes * 3) for s in range(4)]
        cfg = PipelineConfig(order=(8, 8), channel_mode="rgb", post="track", track_window=3)
        monkeypatch.setattr(pipeline, "apply_filter", spy_apply)
        reused = run_pipeline(cfg, frames)
        assert len(calls) == 12 * len(strips)
        for channel in "rgb":
            assert [rows for c, rows, _ in calls if c == channel] == 4 * strips
        sets = {c: out for c, _, out in reversed(calls)}  # each channel's first set
        assert all(out is sets[c] for c, _, out in calls)
        assert len({id(out) for out in sets.values()}) == 3
        monkeypatch.setattr(pipeline, "apply_filter",
                            lambda image, irf, *, out=None: apply(image, irf))
        fresh = run_pipeline(cfg, frames)
        assert reused.report.to_doc() == fresh.report.to_doc()

    def test_rgb_base_region_gray_plane_built_once(self, monkeypatch):
        # gray mode on an rgb frame: the base region's gray plane serves
        # both the estimate and the design.  A one-plane stack's gray()
        # returns its plane, so only multi-plane calls build one.
        shapes = []
        gray = ImageStack.gray

        def spy_gray(stack):
            if stack.channels > 1:
                shapes.append(stack.shape)
            return gray(stack)

        monkeypatch.setattr(ImageStack, "gray", spy_gray)
        run_pipeline(PipelineConfig(order=(8, 8)), [ImageStack(patch_scene().planes * 3)])
        assert shapes == [(64, 64), (128, 128)]

    def test_negative_valued_frame_keeps_its_anomaly(self):
        # the same scene shifted down by 256: the verdicts decide, not the
        # sign of the original values
        cfg = PipelineConfig(order=(8, 8), post="none")
        shifted = ImageStack((patch_scene(patch_value=196.0).planes[0] - 256.0,))
        result = run_pipeline(cfg, [shifted])
        reference = run_pipeline(cfg, [patch_scene(patch_value=196.0)])
        pos = result.mask.positive()
        assert pos.sum() > 300
        assert np.array_equal(pos, reference.mask.positive())
        assert result.boxes == reference.boxes
        assert any(b.x0 <= 85 <= b.x1 and b.y0 <= 85 <= b.y1 for b in result.boxes[0])
        assert (shifted.planes[0][pos] < 0).all()

    def test_box_without_a_ring_is_rejected(self):
        # a box filling the frame leaves its histogram ring empty: it cannot
        # be verified, so the hist post-filter rejects it
        plane = np.full((10, 10), 100.0)
        box = postfilter.ObjectBox(0, 0, 9, 9)
        with pytest.warns(UserWarning, match="clipped"):
            records = pipeline._hist_verdicts([plane], [box], PipelineConfig())
        assert records == [(box, False, 0.0)]

    def test_post_none_keeps_candidates(self):
        cfg = PipelineConfig(order=(8, 8), post="none")
        result = run_pipeline(cfg, [patch_scene()])
        assert result.confirmed[0] == result.boxes[0]

    def test_deterministic_reports_and_masks(self):
        cfg = PipelineConfig(order=(8, 8), post="hist", hist_epsilon=0.05)
        stack = patch_scene()
        a = run_pipeline(cfg, [stack])
        b = run_pipeline(cfg, [stack])
        assert dump_json(a.report.to_doc()) == dump_json(b.report.to_doc())
        assert np.array_equal(a.mask.positive(), b.mask.positive())

    def test_rgb_union_rule(self):
        base = synth_texture(FOUR_PAIRS[:2], 128, 128, noise_sigma=0.01, seed=3, mean=128.0)
        g = base.copy()
        g[70:78, 70:78] = 210.0  # anomaly only in the green plane
        stack = ImageStack((base.copy(), g, base.copy()))
        cfg = PipelineConfig(order=(4, 4), channel_mode="rgb", post="none", min_area=4)
        result = run_pipeline(cfg, [stack])
        assert any(b.x0 <= 74 <= b.x1 and b.y0 <= 74 <= b.y1 for b in result.boxes[0])

    def test_rgb_mode_without_three_planes_uses_the_gray_plane(self):
        plane = patch_scene().planes[0]
        stack = ImageStack((plane, patch_scene(seed=8).planes[0]))
        rgb = run_pipeline(PipelineConfig(order=(8, 8), channel_mode="rgb", post="none"),
                           [stack])
        gray = run_pipeline(PipelineConfig(order=(8, 8), post="none"),
                            [ImageStack((stack.gray(),))])
        assert [f.channel for f in rgb.filters] == ["r", "g", "b"]
        for f in rgb.filters:
            assert np.array_equal(f.kernel, gray.filters[0].kernel)
            assert f.flat_level == gray.filters[0].flat_level

    def test_report_carries_diagnostics(self):
        cfg = PipelineConfig(order=(8, 8), post="none")
        result = run_pipeline(cfg, [patch_scene()])
        diag = result.report.model["diagnostics"]
        assert "sigma2_x" in diag and diag["sigma2_x"] >= 0.0
        assert result.report.model["order"] == [9, 9]  # 8 + unit root

    def test_base_region_outside_image(self):
        cfg = PipelineConfig(base_region=(100, 100, 64, 64), order=(8, 8))
        with pytest.raises(ConfigError):
            run_pipeline(cfg, [patch_scene(n=128)])


def texture_frames(n, refs, alive):
    """Yield n seeded texture frames and keep no reference to one once it
    is yielded.  Before making frame k, record in ``alive`` which earlier
    frames are still alive; ``refs`` gets a weak reference to each frame."""
    for k in range(n):
        alive.append({i for i, ref in enumerate(refs) if ref() is not None})
        frame = ImageStack(
            (synth_texture(FOUR_PAIRS, 96, 96, noise_sigma=0.01, seed=100 + k, mean=128.0),)
        )
        refs.append(weakref.ref(frame))
        yield frame
        del frame


class TestStreaming:
    @staticmethod
    def _config(post="track"):
        return PipelineConfig(order=(4, 4), base_region=(0, 0, 32, 32), post=post,
                              track_window=3, hist_epsilon=0.05)

    @staticmethod
    def _count_detects(monkeypatch):
        count = []
        find = pipeline.detect

        def spy_detect(*args, **kwargs):
            count.append(1)
            return find(*args, **kwargs)

        monkeypatch.setattr(pipeline, "detect", spy_detect)
        return count

    @pytest.mark.parametrize("post", ["hist", "none", "track"])
    def test_holds_frame_zero_and_the_current_frame(self, post):
        refs, alive = [], []
        result = run_pipeline(self._config(post), texture_frames(8, refs, alive))
        assert len(alive) == 8 and len(result.boxes) == 8
        for k, seen in enumerate(alive):
            # frame k - 1 is the one the pipeline has just finished
            assert seen <= {0, k - 1}, f"frames {sorted(seen)} alive before frame {k}"

    def test_peak_memory_does_not_grow_with_frames(self):
        window = self._config().track_window

        def peak(n):
            tracemalloc.start()
            try:
                run_pipeline(self._config(), texture_frames(n, [], []))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(window)  # warm-up: lazy imports and caches are not per-frame memory
        short, long = peak(window), peak(4 * window)
        assert long <= 1.25 * short, (short, long)

    def test_peak_memory_of_one_frame(self):
        # beyond the frame itself a run holds at most about one filtered
        # plane at a time
        cfg = PipelineConfig(order=(8, 8), post="hist")
        img = synth_texture(FOUR_PAIRS, 512, 512, noise_sigma=0.01, seed=7, mean=128.0)
        img[300:311, 300:311] = 200.0
        run_pipeline(cfg, [ImageStack((img,))])  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            # the frame is allocated under tracing, so the peak counts it
            run_pipeline(cfg, [ImageStack((img.copy(),))])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - img.nbytes <= 2 * img.nbytes, (peak - img.nbytes) / img.nbytes

    def test_peak_memory_holds_no_filtered_plane(self):
        # a frame is filtered one strip at a time: beyond the 8-bit frame,
        # a run's peak stays below the (n_x - P + 1) x n_y float64 plane
        # of a frame-sized filter output buffer
        cfg = PipelineConfig(order=(8, 8), post="hist")
        img = synth_texture(FOUR_PAIRS, 512, 512, noise_sigma=0.01, seed=7, mean=128.0)
        img[300:311, 300:311] = 200.0
        img = np.rint(img).astype(np.uint8)
        run_pipeline(cfg, [ImageStack((img,))])  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            result = run_pipeline(cfg, [ImageStack((img.copy(),))])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        p = result.filters[0].kernel.shape[0]
        plane = 8 * (img.shape[0] - p + 1) * img.shape[1]
        assert peak - img.nbytes < plane, (peak - img.nbytes) / plane

    def test_same_windows_from_a_generator_and_a_list(self):
        frames = list(texture_frames(5, [], []))
        listed = run_pipeline(self._config(), frames)
        streamed = run_pipeline(self._config(), (f for f in frames))
        assert dump_json(listed.report.to_doc()) == dump_json(streamed.report.to_doc())
        assert [r["frame"] for r in streamed.report.frames] == [0, 1, 2]
        assert listed.confirmed == streamed.confirmed

    def test_empty_generator_is_config_error(self):
        with pytest.raises(ConfigError, match="frames: at least one frame is required"):
            run_pipeline(self._config(), (f for f in ()))

    def test_short_generator_is_config_error_after_streaming(self, monkeypatch):
        detects = self._count_detects(monkeypatch)
        with pytest.raises(ConfigError,
                           match="track_window: more frames than provided are required"):
            run_pipeline(self._config(), texture_frames(2, [], []))
        assert len(detects) == 2  # both frames were streamed before the count check

    def test_unreadable_frame_keeps_its_input_error(self, tmp_path, monkeypatch):
        good = tmp_path / "good.pgm"
        write_image(str(good), next(texture_frames(1, [], [])))
        paths = [good, good, tmp_path / "missing.pgm", good]
        detects = self._count_detects(monkeypatch)
        with pytest.raises(ImageFormatError) as info:
            run_pipeline(self._config(), (read_image(str(p)) for p in paths))
        assert str(info.value) == f"no such file: {tmp_path / 'missing.pgm'}"
        assert len(detects) == 2  # frames 0 and 1 ran before frame 2 was read

    def test_frame_of_another_shape_is_config_error(self):
        frames = list(texture_frames(3, [], []))
        narrow = ImageStack((frames[1].planes[0][:, :80],))
        rgb = ImageStack(frames[1].planes * 3)
        for other, size in ((narrow, "96x80 with 1"), (rgb, "96x96 with 3")):
            message = f"frames: frame 1 is {size} channel(s), frame 0 is 96x96 with 1 channel(s)"
            with pytest.raises(ConfigError, match=re.escape(message)):
                run_pipeline(self._config(), iter([frames[0], other, frames[2]]))


def strip_frames(size, channels, seed, count=2):
    """``count`` 8-bit texture frames of ``size`` with ``channels`` planes,
    each with the same 16x16 base region, on which every order from 1 to 9
    estimates."""
    base = synth_texture(FOUR_PAIRS, 16, 16, noise_sigma=2.0, seed=2, mean=128.0)
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(count):
        planes = []
        for _ in range(channels):
            img = synth_texture(FOUR_PAIRS, *size, noise_sigma=2.0,
                                seed=int(rng.integers(2**16)), mean=128.0)
            img[rng.random(size) < 0.01] = 250.0
            img[:16, :16] = base
            planes.append(np.rint(img).astype(np.uint8))
        frames.append(ImageStack(tuple(planes)))
    return frames


class TestStrips:
    """A frame is filtered and detected one row strip at a time."""

    @given(
        order=st.integers(1, 9),
        size=st.tuples(st.integers(16, 40), st.integers(16, 40)),
        strip=st.integers(1, 40),
        rgb=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    # 32 output rows: one strip, strips of an exact multiple, a short last strip
    @example(order=8, size=(40, 40), strip=40, rgb=False, seed=1)
    @example(order=8, size=(40, 40), strip=8, rgb=True, seed=2)
    @example(order=8, size=(40, 40), strip=5, rgb=False, seed=3)
    @example(order=8, size=(40, 40), strip=1, rgb=True, seed=4)
    @settings(max_examples=40, deadline=None)
    def test_strips_equal_the_whole_plane_reference(self, order, size, strip, rgb, seed):
        cfg = PipelineConfig(
            base_region=(0, 0, 16, 16),
            order=(order, order),
            estimator="pencil" if order % 2 else "ls",
            channel_mode="rgb" if rgb else "gray",
            post="none",
            min_area=1,
        )
        frames = strip_frames(size, 3 if rgb else 1, seed)
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # one strip holding every row of a frame
            mp.setattr(filtering, "STRIP_BYTES", 8 * size[0] * size[1])
            whole = run_pipeline(cfg, frames)
            filters = whole.filters
            oy = size[1] - filters[0].kernel.shape[1] + 1
            mp.setattr(filtering, "STRIP_BYTES", 8 * oy * strip)
            result = run_pipeline(cfg, frames)
        assert dump_json(result.report.to_doc()) == dump_json(whole.report.to_doc())
        for index, frame in enumerate(frames):
            mask = detect([apply_filter(p, irf) for p, irf in zip(frame.planes, filters)],
                          filters, frame.planes, multiplier=cfg.sigma_multiplier)
            assert result.boxes[index] == connected_components(mask.positive(), min_area=1)
            if index == 0:
                assert np.array_equal(result.mask.positive(), mask.positive())
                assert result.mask.valid_shape == mask.valid_shape
                # the run keeps frame 0's verdicts, not its planes
                assert set(vars(result.mask)) == {"verdicts", "valid_shape"}

    def test_strip_calls_keep_the_benchmark_counter_contract(self, monkeypatch):
        # perfbench's tracer counts a run from its pipeline.apply_filter and
        # pipeline.detect calls: the filter's (image, irf) positional
        # arguments and each detect result's positive() raster.  Over a
        # frame's strips, taps x output pixels and flagged pixels sum to
        # one whole-plane call's.
        applied, masks = [], []
        apply, find = pipeline.apply_filter, pipeline.detect

        def spy_apply(*args, **kwargs):
            assert len(args) == 2 and set(kwargs) == {"out"}
            applied.append(args)
            return apply(*args, **kwargs)

        def spy_detect(*args, **kwargs):
            masks.append(find(*args, **kwargs))
            return masks[-1]

        monkeypatch.setattr(pipeline, "apply_filter", spy_apply)
        monkeypatch.setattr(pipeline, "detect", spy_detect)
        # 120 x 120 output pixels of a 128 x 128 frame at order 8, in
        # strips of 25 rows: four full strips and one of 20 rows
        monkeypatch.setattr(filtering, "STRIP_BYTES", 8 * 120 * 25)
        frame = ImageStack(patch_scene().planes * 3)
        cfg = PipelineConfig(order=(8, 8), channel_mode="rgb", post="none")
        result = run_pipeline(cfg, [frame])
        assert len(applied) == 3 * 5 and len(masks) == 5
        macs = 0
        for image, irf in applied:
            p, q = irf.kernel.shape
            macs += p * q * (image.shape[0] - p + 1) * (image.shape[1] - q + 1)
        assert macs == 3 * 81 * 120 * 120
        flagged = sum(int(m.positive().sum()) for m in masks)
        assert flagged == int(result.mask.positive().sum()) > 0


def _defaults(fn) -> dict:
    return {
        name: param.default
        for name, param in inspect.signature(fn).parameters.items()
        if param.default is not inspect.Parameter.empty
    }


class TestConfigValidation:
    def test_defaults_follow_reference_settings(self):
        cfg = PipelineConfig()
        assert cfg.order == (16, 16)
        assert cfg.base_region == (0, 0, 64, 64)
        assert cfg.sigma_multiplier == 3.0
        assert cfg.track_window == 3 and cfg.track_threshold == 0.3
        cfg.validate()
        # the post-filter operating points live in the function signatures
        assert _defaults(postfilter.histogram_difference) == {"e": 7, "levels": 256}
        assert _defaults(postfilter.density_verdict) == {"cell_size": 5, "fill": 0.75}
        assert _defaults(postfilter.combine_binaries) == {"mode": "or"}
        assert _defaults(postfilter.track_filter) == {"extension": 7}

    @given(
        field=st.sampled_from(
            [
                ("order", (0, 4)),
                ("order", (4, -2)),
                ("order", (3, 3)),  # odd with symmetric ls
                ("base_region", (-1, 0, 64, 64)),
                ("base_region", (0, 0, 0, 64)),
                ("estimator", "fft"),
                ("channel_mode", "cmyk"),
                ("sigma_multiplier", -1.0),
                ("min_area", 0),
                ("post", "median"),
                ("track_window", 0),
                ("track_threshold", 1.5),
                ("split", 0),
                ("sigma_multiplier", float("inf")),
                ("sigma_multiplier", float("nan")),
                ("sigma_multiplier", True),
                ("hist_epsilon", float("inf")),
                ("hist_epsilon", float("nan")),
                ("hist_epsilon", True),
                ("track_threshold", True),
                # integer fields take integers only, never rounding down
                ("order", (8.9, 8.2)),
                ("order", ("8", "8")),
                ("order", (True, 8)),
                ("base_region", (0.5, 0, 48.9, 48)),
                ("base_region", "0000"),
                ("min_area", True),
                ("min_area", 4.0),
                ("track_window", True),
                ("split", True),
            ]
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_invalid_fields_rejected_by_name(self, field):
        name, value = field
        cfg = PipelineConfig()
        setattr(cfg, name, value)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert str(err.value).split(":")[0] in (name, "order")

    @pytest.mark.parametrize("estimator,split,post", [("ls", None, "hist"),
                                                      ("pencil", 20, "track")])
    def test_numpy_integer_fields_run_as_python_ints(self, estimator, split, post):
        fields = dict(base_region=(0, 0, 48, 48), order=(6, 6), min_area=4,
                      track_window=3, split=split)
        numpy_fields = dict(
            base_region=tuple(np.int64(v) for v in fields["base_region"]),
            order=(np.int32(6), np.int64(6)),
            min_area=np.int64(4),
            track_window=np.uint8(3),
            split=None if split is None else np.int16(split),
        )
        frames = [patch_scene()] * 3
        docs = [
            run_pipeline(
                PipelineConfig(estimator=estimator, post=post, **given), frames
            ).report.to_doc()
            for given in (fields, numpy_fields)
        ]
        assert docs[1] == docs[0]
        assert json.loads(dump_json(docs[1])) == json.loads(dump_json(docs[0]))

    @pytest.mark.parametrize(
        "order,split,name",
        [
            ((4, 8), None, "order"),  # one mode count for both axes
            ((4, 4), 3, "split"),  # below the mode count
            ((4, 4), 63, "split"),  # above min(h, w) - 2
            ((4, 4), 62, "split"),  # 2x2 lag window: one pencil row
            ((1, 1), True, "split"),  # a bool, though True == 1 would fit
        ],
    )
    def test_pencil_order_and_split_rejected_by_name(self, order, split, name):
        cfg = PipelineConfig(estimator="pencil", order=order, split=split)
        with pytest.raises(ConfigError, match=f"^{name}:"):
            cfg.validate()

    def test_split_without_pencil_estimator_rejected_by_name(self):
        cfg = PipelineConfig(estimator="ls", split=21)
        with pytest.raises(ConfigError, match="^split: only the pencil estimator"):
            cfg.validate()

    @pytest.mark.parametrize("size,p", [(6, 4), (7, 5)])
    def test_pencil_default_split_short_of_rows_is_order_error(self, size, p):
        # the default split clamps up to the mode count, leaving one pencil row
        cfg = PipelineConfig(
            base_region=(0, 0, size, size), order=(p, p), estimator="pencil"
        )
        with pytest.raises(ConfigError, match="^order: the default split"):
            cfg.validate()

    @given(
        h=st.integers(3, 16),
        w=st.integers(3, 16),
        p=st.integers(1, 6),
        split=st.one_of(st.none(), st.integers(1, 16)),
    )
    @settings(max_examples=80, deadline=None)
    def test_validated_pencil_configs_reach_the_estimator(self, h, w, p, split):
        # a pencil config that validates fails, if at all, in the math
        cfg = PipelineConfig(
            base_region=(0, 0, h, w), order=(p, p), estimator="pencil", split=split
        )
        try:
            cfg.validate()
        except ConfigError:
            return
        region = np.random.default_rng(h * 17 + w).normal(size=(h, w))
        try:
            estimate_model(region, cfg)
        except NumericError:
            pass

    def test_fuzzed_configs_never_reach_numeric_core(self, rng):
        # invalid configs must fail in validation, not in the math
        stack = ImageStack((synth_texture(FOUR_PAIRS[:1], 48, 48, mean=100.0),))
        for _ in range(100):
            cfg = PipelineConfig(
                base_region=tuple(int(v) for v in rng.integers(-4, 60, 4)),
                order=tuple(int(v) for v in rng.integers(-2, 12, 2)),
            )
            try:
                cfg.validate(image_shape=stack.shape)
            except ConfigError:
                continue
            run_pipeline(cfg, [stack])  # validated configs must run


def _draw_base_order_split(data, shape, estimator):
    """Base region, order and split for a frame of ``shape``: most validate,
    some overhang the frame, leave no room for the order or miss the split
    range."""
    rows, cols = shape
    h = data.draw(st.integers(3, rows))
    w = data.draw(st.integers(3, cols))
    x = data.draw(st.integers(0, rows - h + 1))
    y = data.draw(st.integers(0, cols - w + 1))
    p = data.draw(st.integers(1, max(1, min(h - 2, 8))))
    if estimator == "pencil" and data.draw(st.booleans()):
        q = p
    else:
        q = data.draw(st.integers(1, max(1, min(w - 2, 8))))
    split = None
    if data.draw(st.booleans()):
        split = data.draw(st.integers(1, max(1, min(h, w) - 1)))
    return (x, y, h, w), (p, q), split


class TestStageProperties:
    @given(
        data=st.data(),
        shape=st.tuples(st.integers(6, 40), st.integers(6, 40)),
        channels=st.sampled_from([1, 3]),
        scene=st.sampled_from(["texture", "noise", "flat"]),
        estimator=st.sampled_from(["ls", "pencil"]),
        channel_mode=st.sampled_from(["gray", "rgb"]),
        post=st.sampled_from(["hist", "track", "none"]),
        n_frames=st.integers(1, 3),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=150, deadline=None)
    def test_stages_give_a_result_or_a_typed_error(
        self, data, shape, channels, scene, estimator, channel_mode, post, n_frames, seed,
    ):
        base, order, split = _draw_base_order_split(data, shape, estimator)
        rows, cols = shape
        if scene == "texture":
            planes = [synth_texture(FOUR_PAIRS[:2], rows, cols, noise_sigma=1.0,
                                    seed=seed + c, mean=100.0) for c in range(channels)]
        elif scene == "noise":
            rng = np.random.default_rng(seed)
            planes = [rng.uniform(0, 255, shape) for _ in range(channels)]
        else:
            planes = [np.full(shape, 100.0)] * channels
        stack = ImageStack(tuple(planes))
        cfg = PipelineConfig(
            base_region=base, order=order, estimator=estimator, split=split,
            channel_mode=channel_mode, post=post,
        )
        try:
            base_stack, model, _ = pipeline.estimate(stack, cfg)
            filters = pipeline.design(base_stack, model, cfg)
            result = run_pipeline(cfg, [stack] * n_frames)
        except ResofiltError:
            return
        assert base_stack.shape == (base[2], base[3])
        assert len(filters) == (1 if channel_mode == "gray" else 3)
        p, q = filters[0].kernel.shape
        assert [f.channel for f in filters] == list(pipeline._CHANNELS[channel_mode])
        assert result.mask.positive().shape == (rows, cols)
        assert result.mask.valid_shape == (rows - p + 1, cols - q + 1)


class TestCli:
    def _synth(self, tmp_path, name="tex.pgm", extra=()):
        out = tmp_path / name
        code = main(
            [
                "synth", "--out", str(out), "--size", "128,128",
                "--pair", "0.11,0.23,40,0.3", "--pair", "0.27,0.08,30,1.1",
                "--mean", "128", "--noise", "1.0", "--seed", "3",
                "--patch", "80,80,11,11", "--patch-value", "220",
                *extra,
            ]
        )
        assert code == EXIT_OK
        return out

    def test_synth_detect_chain(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        report = tmp_path / "report.json"
        mask = tmp_path / "mask.pgm"
        overlay = tmp_path / "overlay.pgm"
        code = main(
            [
                "detect", "--input", str(tex), "--order", "8,8",
                "--base", "0,0,64,64", "--hist-epsilon", "0.05",
                "--mask-out", str(mask), "--overlay-out", str(overlay),
                "--report-out", str(report),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "1 confirmed" in out
        doc = json.loads(report.read_text())
        assert doc["kind"] == "run-report"
        assert len(doc["frames"][0]["confirmed"]) == 1
        assert mask.exists() and overlay.exists()

    def test_design_filter_chain(self, tmp_path):
        tex = self._synth(tmp_path)
        model = tmp_path / "model.json"
        assert main(["design", "--input", str(tex), "--order", "8,8",
                     "--model-out", str(model)]) == EXIT_OK
        doc = json.loads(model.read_text())
        assert doc["kind"] == "resonance-model"
        assert len(doc["filters"]) == 1
        filtered = tmp_path / "filtered.pgm"
        assert main(["filter", "--input", str(tex), "--model", str(model),
                     "--out", str(filtered)]) == EXIT_OK
        assert filtered.exists()

    def test_estimate_prints_document(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        assert main(["estimate", "--input", str(tex), "--order", "8,8"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == [9, 9]

    def test_track_subcommand(self, tmp_path, capsys):
        frames = tmp_path / "frame{i}.pgm"
        code = main(
            [
                "synth", "--out", str(frames), "--frames", "3", "--size", "96,96",
                "--pair", "0.2,0.15,30,0", "--mean", "120", "--noise", "1.0",
                "--patch", "60,60,9,9", "--patch-value", "210",
            ]
        )
        assert code == EXIT_OK
        inputs = [str(tmp_path / f"frame{i}.pgm") for i in range(3)]
        report = tmp_path / "track.json"
        code = main(["track", "--inputs", *inputs, "--order", "6,6",
                     "--base", "0,0,48,48", "--report-out", str(report)])
        assert code == EXIT_OK
        assert "confirmed" in capsys.readouterr().out
        assert json.loads(report.read_text())["frames"]

    def test_track_frames_of_another_shape_is_config_error(self, tmp_path, capsys):
        a = self._synth(tmp_path, "a.pgm")
        b = tmp_path / "b.pgm"
        assert main(["synth", "--out", str(b), "--size", "96,96",
                     "--pair", "0.11,0.23,40,0.3", "--mean", "128"]) == EXIT_OK
        report = tmp_path / "track.json"
        code = main(["track", "--inputs", str(a), str(b), str(a), "--order", "8,8",
                     "--report-out", str(report)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert ("configuration error: frames: frame 1 is 96x96 with 1 channel(s), "
                "frame 0 is 128x128 with 1 channel(s)") in err
        assert not report.exists()

    def test_track_missing_later_frame_is_input_error(self, tmp_path, capsys,
                                                      monkeypatch):
        events = []
        read, find = cli.read_image, pipeline.detect

        def spy_read(path):
            events.append("read")
            return read(path)

        def spy_detect(*args, **kwargs):
            events.append("detect")
            return find(*args, **kwargs)

        monkeypatch.setattr(cli, "read_image", spy_read)
        monkeypatch.setattr(pipeline, "detect", spy_detect)
        tex = self._synth(tmp_path)
        missing = tmp_path / "missing.pgm"
        code = main(["track", "--inputs", str(tex), str(tex), str(missing), str(tex),
                     "--order", "8,8"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"resofilt: input error: no such file: {missing}\n"
        # each frame is read when the pipeline reaches it
        assert events == ["read", "detect", "read", "detect", "read"]

    @pytest.mark.parametrize("window", [25, 2**63, 10**23])
    def test_track_window_of_any_length_beyond_the_frames_is_config_error(
        self, tmp_path, capsys, window
    ):
        # a window longer than a C ssize_t fails like any other too long one
        tex = self._synth(tmp_path)
        code = main(["track", "--inputs", str(tex), str(tex), str(tex), "--order", "8,8",
                     "--window", str(window)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == ("resofilt: configuration error: track_window: "
                                           "more frames than provided are required\n")

    def test_track_window_beyond_the_inputs_is_refused_before_any_read(
        self, tmp_path, capsys, monkeypatch
    ):
        reads = []
        monkeypatch.setattr(cli, "read_image", lambda path: reads.append(path))
        missing = [str(tmp_path / f"f{i}.pgm") for i in range(3)]
        code = main(["track", "--inputs", *missing, "--order", "8,8", "--window", "25"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == ("resofilt: configuration error: track_window: "
                                           "more frames than provided are required\n")
        assert reads == []

    def test_track_fewer_frames_than_window_is_config_error(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        code = main(["track", "--inputs", str(tex), str(tex), "--order", "8,8"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "configuration error: track_window: more frames than provided" in err

    @pytest.mark.parametrize(
        "argv,post",
        [
            (["estimate", "--input", "x.pgm"], "hist"),
            (["design", "--input", "x.pgm", "--model-out", "m.json"], "hist"),
            (["detect", "--input", "x.pgm"], "hist"),
            (["track", "--inputs", "a.pgm", "b.pgm"], "track"),
        ],
    )
    def test_no_pipeline_options_give_the_config_defaults(self, argv, post):
        args = cli.build_parser().parse_args(argv)
        assert cli._config_from_args(args) == PipelineConfig(post=post)

    def test_options_set_their_config_fields(self):
        args = cli.build_parser().parse_args(
            ["track", "--inputs", "a.pgm", "--base", "1,2,30,40", "--order", "4,4",
             "--estimator", "pencil", "--split", "5", "--channels", "rgb", "--multiplier", "2.5", "--min-area", "2",
             "--window", "2", "--threshold", "0.5"]
        )
        assert cli._config_from_args(args) == PipelineConfig(
            base_region=(1, 2, 30, 40), order=(4, 4), estimator="pencil", split=5,
            channel_mode="rgb", sigma_multiplier=2.5, min_area=2, post="track", track_window=2,
            track_threshold=0.5,
        )
        args = cli.build_parser().parse_args(
            ["detect", "--input", "x.pgm", "--post", "none", "--hist-epsilon", "0.05"]
        )
        assert cli._config_from_args(args) == PipelineConfig(post="none", hist_epsilon=0.05)

    def test_every_config_field_has_an_option(self):
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        dests = {a.dest for p in sub.choices.values() for a in p._actions}
        assert {f.name for f in dataclasses.fields(PipelineConfig)} <= dests | {"post"}

    def test_calls_share_one_parser(self, monkeypatch, tmp_path):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        for _ in range(2):
            assert main(["report", "--path", str(tmp_path / "missing.json")]) == EXIT_INPUT
        assert built == []

    def test_synth_pairs_do_not_carry_into_the_next_call(self, monkeypatch, tmp_path):
        seen = []
        synth = cli.synth_texture

        def spy(pairs, *args, **kwargs):
            seen.append(list(pairs))
            return synth(pairs, *args, **kwargs)

        monkeypatch.setattr(cli, "synth_texture", spy)
        for pair in ("0.1,0.05,10", "0.2,0.1,5,1"):
            assert main(["synth", "--out", str(tmp_path / "t.pgm"), "--size", "16,16",
                         "--pair", pair]) == EXIT_OK
        assert seen == [[(0.1, 0.05, 10.0, 0.0)], [(0.2, 0.1, 5.0, 1.0)]]

    def test_detect_after_track_keeps_the_hist_post_filter(self, monkeypatch, tmp_path):
        posts = []

        def spy(config, frames):
            posts.append(config.post)
            raise ConfigError("stop")

        monkeypatch.setattr(cli, "run_pipeline", spy)
        tex = self._synth(tmp_path)
        assert main(["track", "--inputs", str(tex), str(tex), str(tex)]) == EXIT_USAGE
        assert main(["detect", "--input", str(tex)]) == EXIT_USAGE
        assert posts == ["track", "hist"]

    def test_report_of_the_older_config_still_loads(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        report = tmp_path / "report.json"
        assert main(["detect", "--input", str(tex), "--order", "8,8",
                     "--report-out", str(report)]) == EXIT_OK
        doc = json.loads(report.read_text())
        assert sorted(doc["config"]) == sorted(f.name for f in dataclasses.fields(PipelineConfig))
        # reports written before the post-filter constants left the config
        doc["config"].update(hist_extension=7, hist_levels=256, hist_cell=5, hist_fill=0.75,
                             hist_combine="or", track_extension=7, seed=0)
        # and before the method switches left it
        doc["config"].update(symmetric=True, project_roots=True, dc_root=True, e_policy="mean")
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--path", str(report)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("run report: 1 frame record(s)\nmodel order: [9, 9]\n")

    def test_report_pretty_print(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        model = tmp_path / "model.json"
        main(["design", "--input", str(tex), "--order", "8,8", "--model-out", str(model)])
        assert main(["report", "--path", str(model)]) == EXIT_OK
        assert "resonance model" in capsys.readouterr().out

    def test_exit_code_usage(self, capsys):
        assert main(["no-such-command"]) == EXIT_USAGE
        assert main(["detect"]) == EXIT_USAGE  # missing required --input

    def test_exit_code_input_error(self, tmp_path, capsys):
        assert main(["detect", "--input", str(tmp_path / "missing.pgm"),
                     "--order", "8,8"]) == EXIT_INPUT
        bad = tmp_path / "trunc.pgm"
        bad.write_bytes(b"P5\n10 10\n255\n")
        assert main(["detect", "--input", str(bad), "--order", "8,8"]) == EXIT_INPUT

    def test_maxval_above_255_is_input_error(self, tmp_path, capsys):
        wide = tmp_path / "wide.pgm"
        wide.write_bytes(b"P5\n4 4\n300\n" + bytes(32))
        assert main(["detect", "--input", str(wide), "--order", "2,2"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("resofilt: input error: unsupported maxval 300 (8-bit data")
        assert "Traceback" not in err

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "run-report",')
        assert main(["report", "--path", str(bad)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"resofilt: input error: malformed JSON document {str(bad)!r}: ")
        assert "Traceback" not in err

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        filtered = tmp_path / "filtered.pgm"
        for argv in (["report", "--path", str(deep)],
                     ["filter", "--input", str(tex), "--model", str(deep),
                      "--out", str(filtered)]):
            assert main(argv) == EXIT_INPUT
            err = capsys.readouterr().err
            assert err == (f"resofilt: input error: JSON document {str(deep)!r} "
                           "nests too deeply to parse\n")
        assert not filtered.exists()

    def test_unknown_document_kind_is_input_error(self, tmp_path, capsys):
        doc = tmp_path / "other.json"
        doc.write_text('{"kind": "shopping-list"}')
        assert main(["report", "--path", str(doc)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "resofilt: input error: unknown document kind 'shopping-list'\n"

    def test_filter_with_an_estimate_document_is_config_error(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        model = tmp_path / "estimate.json"
        assert main(["estimate", "--input", str(tex), "--order", "8,8",
                     "--model-out", str(model)]) == EXIT_OK
        filtered = tmp_path / "filtered.pgm"
        assert main(["filter", "--input", str(tex), "--model", str(model),
                     "--out", str(filtered)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == ("resofilt: configuration error: model: the document carries "
                       "no designed filters\n")
        assert not filtered.exists()

    def test_directory_input_is_input_error(self, tmp_path, capsys):
        assert main(["detect", "--input", str(tmp_path), "--order", "8,8"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "Traceback" not in err

    @staticmethod
    def _benchmark_tracing(monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)
        spec.loader.exec_module(tracing)
        return tracing

    def test_benchmark_tracer_bindings_resolve(self, monkeypatch):
        # perfbench/tracing.py wraps module attributes by name, among them
        # cli.estimate_model and cli.design_filter, which cli.py imports
        # for the tracer alone; a missing one raises MissingBinding
        tracing = self._benchmark_tracing(monkeypatch)
        with tracing.Tracer().installed():
            pass

    def test_benchmark_tracer_counts_a_detect_run(self, tmp_path, monkeypatch, capsys):
        # the benchmark's counters read DetectionMask.positive() and the
        # candidate boxes from the spans of a traced run
        tracing = self._benchmark_tracing(monkeypatch)
        tex = self._synth(tmp_path)
        tracer = tracing.Tracer()
        with tracer.installed():
            code = main(["detect", "--input", str(tex), "--order", "8,8",
                         "--hist-epsilon", "0.05"])
        assert code == EXIT_OK
        counts = tracing.counters(tracer.spans)
        assert counts["flagged_px"] > 0 and counts["candidates"] > 0
        assert counts["apply_calls"] == 1

    def test_exit_code_config_error(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        assert main(["detect", "--input", str(tex), "--order", "0,0"]) == EXIT_USAGE

    def test_exit_code_numeric_error(self, tmp_path, capsys):
        flat = tmp_path / "flat.pgm"
        write_ok = main(["synth", "--out", str(flat), "--size", "80,80",
                         "--mean", "100"])  # constant image, no pairs
        assert write_ok == EXIT_OK
        code = main(["detect", "--input", str(flat), "--order", "8,8",
                     "--base", "0,0,64,64"])
        assert code == EXIT_NUMERIC

    def test_filter_unreadable_model_is_input_error(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        not_object = tmp_path / "list.json"
        not_object.write_text("[1, 2]\n")
        for name in ("missing.json", "list.json"):
            code = main(["filter", "--input", str(tex), "--model", str(tmp_path / name),
                         "--out", str(tmp_path / "filtered.pgm")])
            assert code == EXIT_INPUT
            assert name in capsys.readouterr().err

    @pytest.mark.parametrize("count", [2, 4])
    def test_filter_count_other_than_one_or_three_is_config_error(
        self, tmp_path, capsys, count
    ):
        tex = self._synth(tmp_path)
        model = tmp_path / "model.json"
        assert main(["design", "--input", str(tex), "--order", "8,8",
                     "--model-out", str(model)]) == EXIT_OK
        doc = json.loads(model.read_text())
        doc["filters"] = doc["filters"] * count
        model.write_text(json.dumps(doc))
        filtered = tmp_path / "filtered.pgm"
        code = main(["filter", "--input", str(tex), "--model", str(model),
                     "--out", str(filtered)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert (f"configuration error: model: the filters' channels are {['gray'] * count}, "
                "not ['gray'] or ['r', 'g', 'b'] in order") in err
        assert not filtered.exists()

    @pytest.mark.parametrize(
        "mode,channels",
        [("rgb", ["b", "g", "r"]), ("gray", ["r"]), ("gray", [[1, 2]])],
        ids=["reversed-rgb", "gray-renamed-r", "non-string"],
    )
    def test_filter_channels_other_than_gray_or_rgb_in_order_are_config_error(
        self, tmp_path, capsys, mode, channels
    ):
        # filters are applied to planes by position, so a document whose
        # channels name other planes would filter the wrong ones
        tex = self._synth(tmp_path)
        model = tmp_path / "model.json"
        assert main(["design", "--input", str(tex), "--order", "8,8", "--channels", mode,
                     "--model-out", str(model)]) == EXIT_OK
        doc = json.loads(model.read_text())
        if mode == "rgb":
            doc["filters"].reverse()
        else:
            doc["filters"][0]["channel"] = channels[0]
        assert [f["channel"] for f in doc["filters"]] == channels
        model.write_text(json.dumps(doc))
        filtered = tmp_path / "filtered.pgm"
        code = main(["filter", "--input", str(tex), "--model", str(model),
                     "--out", str(filtered)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"configuration error: model: the filters' channels are {channels}" in err
        assert not filtered.exists()

    def test_synth_frame_i_equals_a_single_frame_at_seed_plus_i(self, tmp_path):
        scene = ["--size", "40,48", "--pair", "0.2,0.15,30,0", "--mean", "120",
                 "--noise", "2.0", "--patch", "10,10,5,5"]
        frames = tmp_path / "frame{i}.pgm"
        assert main(["synth", "--out", str(frames), "--frames", "3", "--seed", "5",
                     *scene]) == EXIT_OK
        for i in range(3):
            single = tmp_path / f"single{i}.pgm"
            assert main(["synth", "--out", str(single), "--seed", str(5 + i),
                         *scene]) == EXIT_OK
            frame = (tmp_path / f"frame{i}.pgm").read_bytes()
            assert frame == single.read_bytes()
        assert len({(tmp_path / f"frame{i}.pgm").read_bytes() for i in range(3)}) == 3
        assert not (tmp_path / "frame3.pgm").exists()

    def test_synth_single_frame_substitutes_index(self, tmp_path):
        out = tmp_path / "f{i}.pgm"
        assert main(["synth", "--out", str(out), "--frames", "1", "--size", "16,16"]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f0.pgm"]

    def test_filter_image_smaller_than_kernel_names_model(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        model = tmp_path / "model.json"
        assert main(["design", "--input", str(tex), "--order", "8,8",
                     "--model-out", str(model)]) == EXIT_OK
        small = tmp_path / "small.pgm"
        assert main(["synth", "--out", str(small), "--size", "6,40"]) == EXIT_OK
        code = main(["filter", "--input", str(small), "--model", str(model),
                     "--out", str(tmp_path / "filtered.pgm")])
        assert code == EXIT_USAGE
        assert "configuration error: model:" in capsys.readouterr().err

    def test_design_null_kernel_is_numeric_error(self, monkeypatch, tmp_path, capsys):
        # a PGM cannot hold a zero-mean base, so the frame is handed over as read
        monkeypatch.setattr(cli, "read_image", lambda path: ImageStack((zero_mean_base(),)))
        model = tmp_path / "model.json"
        code = main(["design", "--input", "zero-mean.pgm", "--base", "0,0,32,32",
                     "--order", "4,4", "--model-out", str(model)])
        assert code == EXIT_NUMERIC
        assert "flat level 0 gives an all-zero kernel" in capsys.readouterr().err
        assert not model.exists()

    def test_removed_method_flags_are_unrecognized(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        model = tmp_path / "model.json"
        inputs = {"estimate": ["--input", str(tex)],
                  "design": ["--input", str(tex), "--model-out", str(model)],
                  "detect": ["--input", str(tex)],
                  "track": ["--inputs", str(tex), str(tex), str(tex)]}
        # each flag on every subcommand that took it
        flags = {"--plain": inputs, "--no-project": inputs, "--no-dc": ["estimate"],
                 "--e-policy=mean": ["design"]}
        for flag, commands in flags.items():
            for command in commands:
                capsys.readouterr()
                assert main([command, *inputs[command], "--order", "8,8", flag]) == EXIT_USAGE
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not model.exists()

    def test_pencil_order_pair_must_match(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        model = tmp_path / "model.json"
        code = main(["design", "--input", str(tex), "--estimator", "pencil",
                     "--order", "4,8", "--model-out", str(model)])
        assert code == EXIT_USAGE
        assert "configuration error: order:" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "command,split,reason",
        [
            ("estimate", "100", "outside [4, 62]"),
            ("estimate", "2", "outside [4, 62]"),
            ("detect", "100", "outside [4, 62]"),
            ("estimate", "62", "leaves 1 pencil rows"),
        ],
    )
    def test_pencil_split_is_config_error(self, tmp_path, capsys, command, split, reason):
        tex = self._synth(tmp_path)
        code = main([command, "--input", str(tex), "--estimator", "pencil",
                     "--order", "4,4", "--split", split])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "configuration error: split:" in err and reason in err

    def test_split_with_ls_estimator_is_config_error(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        code = main(["estimate", "--input", str(tex), "--order", "8,8", "--split", "100"])
        assert code == EXIT_USAGE
        assert "configuration error: split:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,option,target",
        [
            ("detect", "--report-out", "missing/r.json"),
            ("detect", "--mask-out", "."),
            ("design", "--model-out", "missing/model.json"),
            ("filter", "--out", "."),
        ],
    )
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, command,
                                               option, target):
        tex = self._synth(tmp_path)
        args = ["--input", str(tex)]
        if command == "filter":
            model = tmp_path / "model.json"
            assert main(["design", *args, "--order", "8,8",
                         "--model-out", str(model)]) == EXIT_OK
            args += ["--model", str(model)]
        else:
            args += ["--order", "8,8"]
        out = str(tmp_path / target)
        assert main([command, *args, option, out]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "configuration error: output: cannot write" in err and out in err

    def test_pencil_default_split_is_config_error(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        code = main(["estimate", "--input", str(tex), "--estimator", "pencil",
                     "--order", "4,4", "--base", "0,0,6,6"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "configuration error: order:" in err and "leaves 1 pencil rows" in err

    @pytest.mark.parametrize("command", ["estimate", "design"])
    @pytest.mark.parametrize(
        "failure", [ValueError("window mismatch"), np.linalg.LinAlgError("singular")]
    )
    def test_estimate_failures_are_numeric(self, tmp_path, capsys, monkeypatch,
                                           command, failure):
        def failing_estimate(base, config):
            raise failure

        monkeypatch.setattr(pipeline, "estimate_model", failing_estimate)
        tex = self._synth(tmp_path)
        code = main([command, "--input", str(tex), "--order", "8,8",
                     "--model-out", str(tmp_path / "model.json")])
        assert code == EXIT_NUMERIC
        assert f"numeric failure: estimate: {failure}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra,option",
        [
            (["--pair", "0.7,0.1,1"], "pair"),  # frequency outside (-0.5, 0.5]
            (["--pair", "0.1,0.2,1", "--pair", "0.1,0.2,3"], "pair"),  # duplicate
            (["--noise", "-1"], "noise"),
            (["--size", "0,0"], "size"),
            (["--frames", "0"], "frames"),
            (["--patch", "60,60,8,8"], "patch"),  # overhangs the 64x64 image
            (["--patch=-2,10,4,4"], "patch"),  # negative origin
            (["--patch", "10,10,0,4"], "patch"),  # empty
            (["--mean", "nan"], "mean"),
            (["--mean", "inf"], "mean"),
            (["--patch", "2,2,4,4", "--patch-value", "nan"], "patch-value"),
            (["--pair", "0.1,0.1,inf"], "pair"),  # amplitude
            (["--pair", "0.1,0.1,1,nan"], "pair"),  # phase
        ],
    )
    def test_synth_bad_option_is_config_error(self, tmp_path, capsys, extra, option):
        out = tmp_path / "s{i}.pgm"  # also a valid pattern for --frames
        code = main(["synth", "--out", str(out), "--size", "64,64", *extra])
        assert code == EXIT_USAGE
        assert f"configuration error: {option}:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("noise", [[], ["--noise", "1"]])
    def test_synth_negative_seed_is_config_error(self, tmp_path, capsys, noise):
        code = main(["synth", "--out", str(tmp_path / "s.pgm"), "--size", "16,16",
                     "--seed", "-1", *noise])
        assert code == EXIT_USAGE
        assert "configuration error: seed: -1 is not an integer >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_report_model_without_order_prints_the_parsed_order(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        model = tmp_path / "model.json"
        assert main(["design", "--input", str(tex), "--order", "8,8",
                     "--model-out", str(model)]) == EXIT_OK
        doc = json.loads(model.read_text())
        del doc["order"]
        model.write_text(json.dumps(doc))
        assert main(["report", "--path", str(model)]) == EXIT_OK
        assert "resonance model: order [9, 9]," in capsys.readouterr().out

    @pytest.mark.parametrize(
        "section,value",
        [("frames", {"frame": 0}), ("frames", 3), ("frames", [1]), ("model", 5),
         ("frames", [{"boxes": []}]), ("frames", [{"frame": "0"}]),
         ("frames", [{"frame": 0, "boxes": 5}]), ("frames", [{"frame": 0, "confirmed": 5}])],
    )
    def test_report_malformed_section_is_input_error(self, tmp_path, capsys,
                                                     section, value):
        doc = {"kind": "run-report", "format_version": 1, "config": {},
               "model": {"order": [9, 9]}, "frames": []}
        doc[section] = value
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--path", str(path)]) == EXIT_INPUT
        assert f"run-report {section}" in capsys.readouterr().err

    def test_report_missing_section_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text('{"kind": "run-report", "format_version": 1}\n')
        assert main(["report", "--path", str(path)]) == EXIT_INPUT
        assert "config" in capsys.readouterr().err

    def test_filter_empty_kernel_is_input_error(self, tmp_path, capsys):
        tex = self._synth(tmp_path)
        model = tmp_path / "model.json"
        assert main(["design", "--input", str(tex), "--order", "8,8",
                     "--model-out", str(model)]) == EXIT_OK
        doc = json.loads(model.read_text())
        doc["filters"][0]["kernel"] = [[]]
        model.write_text(json.dumps(doc))
        filtered = tmp_path / "filtered.pgm"
        code = main(["filter", "--input", str(tex), "--model", str(model),
                     "--out", str(filtered)])
        assert code == EXIT_INPUT
        assert "at least one tap" in capsys.readouterr().err
        assert not filtered.exists()

    @pytest.mark.parametrize(
        "mutate,reason",
        [
            (lambda doc: doc["filters"][0]["kernel"][0].__setitem__(0, float("nan")),
             "kernel has non-finite entries"),
            (lambda doc: doc["zx"][0].__setitem__(0, float("inf")),
             "non-finite resonance root"),
            (lambda doc: doc["filters"][0].__setitem__("sigma2", float("nan")),
             "must be finite"),
            (lambda doc: doc.__setitem__("fit_residual", float("nan")),
             "non-finite fit_residual"),
            (lambda doc: doc["amplitudes"][0][0].__setitem__(1, float("nan")),
             "non-finite amplitudes"),
            (lambda doc: doc["zx_moduli"].__setitem__(0, float("inf")),
             "non-finite zx_moduli"),
            (lambda doc: doc["zy_moduli"].__setitem__(-1, float("-inf")),
             "non-finite zy_moduli"),
        ],
        ids=["nan-kernel", "inf-root", "nan-sigma2", "nan-fit-residual",
             "nan-amplitude", "inf-zx-modulus", "inf-zy-modulus"],
    )
    def test_non_finite_model_document_is_input_error(self, tmp_path, capsys,
                                                      mutate, reason):
        tex = self._synth(tmp_path)
        model, doc = self._design_doc(tmp_path, tex)
        mutate(doc)
        self._refused(capsys, tex, model, doc, reason)

    def _design_doc(self, tmp_path, frame, *extra):
        model = tmp_path / "model.json"
        assert main(["design", "--input", str(frame), "--order", "8,8",
                     "--model-out", str(model), *extra]) == EXIT_OK
        return model, json.loads(model.read_text())

    def _refused(self, capsys, frame, model, doc, reason):
        """``report`` and ``filter`` both refuse the document as an input
        error naming ``reason``, and ``filter`` writes nothing."""
        model.write_text(json.dumps(doc))  # NaN and Infinity, as json parses them
        filtered = model.parent / "filtered.out"
        for argv in (["report", "--path", str(model)],
                     ["filter", "--input", str(frame), "--model", str(model),
                      "--out", str(filtered)]):
            assert main(argv) == EXIT_INPUT
            err = capsys.readouterr().err
            assert "malformed model document" in err and reason in err
            assert "Traceback" not in err
        assert not filtered.exists()

    @pytest.mark.parametrize(
        "replace_kernel,reason",
        [(lambda k: np.random.default_rng(0).normal(0, 1, k.shape), "is not rank one"),
         (np.zeros_like, "kernel is all zero")],
        ids=["full-rank", "all-zero"],
    )
    def test_kernel_that_is_not_rank_one_is_input_error(self, tmp_path, capsys,
                                                        replace_kernel, reason):
        tex = self._synth(tmp_path)
        model, doc = self._design_doc(tmp_path, tex)
        kernel = np.array(doc["filters"][0]["kernel"])
        doc["filters"][0]["kernel"] = replace_kernel(kernel).tolist()
        self._refused(capsys, tex, model, doc, reason)

    @pytest.mark.parametrize("edit", ["kernel", "order"])
    def test_filter_of_another_shape_is_input_error(self, tmp_path, capsys, edit):
        # an rgb document whose b kernel is a rank-one 2x2, or whose r
        # record claims an order its kernel does not have
        scene = patch_scene().planes[0]
        frame = tmp_path / "frame.ppm"
        write_image(str(frame), ImageStack((scene, 255.0 - scene, 0.5 * scene)))
        model, doc = self._design_doc(tmp_path, frame, "--channels", "rgb")
        order = tuple(doc["order"])
        if edit == "kernel":
            doc["filters"][2]["kernel"] = [[1.0, 2.0], [2.0, 4.0]]
            reason = f"b filter: kernel (2, 2) must match its order {list(order)}"
        else:
            doc["filters"][0]["order"] = [99, 99]
            reason = f"r filter: kernel {order} must match its order [99, 99]"
        self._refused(capsys, frame, model, doc, f"{reason} and the model's {order}")

    @pytest.mark.parametrize(
        "option,value,field",
        [("--multiplier", "inf", "sigma_multiplier"),
         ("--multiplier", "nan", "sigma_multiplier"),
         ("--hist-epsilon", "nan", "hist_epsilon"),
         ("--hist-epsilon", "inf", "hist_epsilon")],
    )
    def test_non_finite_threshold_is_config_error(self, tmp_path, capsys,
                                                  option, value, field):
        tex = self._synth(tmp_path)
        code = main(["detect", "--input", str(tex), "--order", "8,8", option, value])
        assert code == EXIT_USAGE
        assert f"configuration error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rgb_frame,mode", [(False, "gray"), (True, "rgb"), (True, "gray")]
    )
    def test_mask_file_holds_originals_at_flagged_pixels(self, tmp_path, rgb_frame, mode):
        # the mask file is the frame's channel planes of the run, rounded and
        # clipped to 0..255, at flagged pixels and 0 elsewhere
        scene = patch_scene(patch_value=220.0).planes[0]
        planes = (scene, 255.0 - scene, 0.5 * scene) if rgb_frame else (scene,)
        frame = tmp_path / ("frame.ppm" if rgb_frame else "frame.pgm")
        write_image(str(frame), ImageStack(planes))
        mask = tmp_path / "mask.out"
        assert main(["detect", "--input", str(frame), "--order", "8,8", "--post", "none",
                     "--channels", mode, "--mask-out", str(mask)]) == EXIT_OK
        stack = read_image(str(frame))
        cfg = PipelineConfig(order=(8, 8), post="none", channel_mode=mode)
        flagged = run_pipeline(cfg, [stack]).mask.positive()
        assert flagged.any() and not flagged.all()
        originals = [stack.gray()] if mode == "gray" else list(stack.planes)
        quantised = [np.where(flagged, np.clip(np.rint(p), 0, 255), 0).astype(np.uint8)
                     for p in originals]
        rows, cols = flagged.shape
        magic = b"P5" if len(quantised) == 1 else b"P6"
        body = np.stack(quantised, axis=-1).tobytes()
        assert mask.read_bytes() == magic + f"\n{cols} {rows}\n255\n".encode() + body

    @pytest.mark.parametrize(
        "rgb_frame,mode", [(False, "gray"), (True, "rgb"), (True, "gray")]
    )
    def test_outputs_equal_the_float_plane_path(self, tmp_path, rgb_frame, mode):
        # the CLI keeps 8-bit frames 8-bit; its mask, overlay and report are
        # the bytes of a run on float planes quantised at write time (the
        # gray mode of an rgb frame masks the float gray plane)
        scene = patch_scene(patch_value=220.0).planes[0]
        planes = (scene, 255.0 - scene, 0.5 * scene) if rgb_frame else (scene,)
        frame = tmp_path / ("frame.ppm" if rgb_frame else "frame.pgm")
        write_image(str(frame), ImageStack(planes))
        got = {name: tmp_path / f"{name}.out" for name in ("mask", "overlay", "report")}
        assert main(["detect", "--input", str(frame), "--order", "8,8",
                     "--hist-epsilon", "0.05", "--channels", mode,
                     "--mask-out", str(got["mask"]), "--overlay-out", str(got["overlay"]),
                     "--report-out", str(got["report"])]) == EXIT_OK
        floats = ImageStack(tuple(p.astype(float) for p in read_image(str(frame)).planes))
        cfg = PipelineConfig(order=(8, 8), hist_epsilon=0.05, channel_mode=mode)
        result = run_pipeline(cfg, [floats])
        assert result.confirmed[0]
        planes, _ = pipeline._channels(floats, mode)
        assert all(p.dtype == np.float64 for p in planes)
        flagged = result.mask.positive()
        want = {name: tmp_path / f"{name}.ref" for name in got}
        write_image(str(want["mask"]), ImageStack(
            tuple(np.where(flagged, p, 0.0) for p in planes)))
        write_image(str(want["overlay"]), draw_boxes(floats, result.confirmed[0]))
        dump_json(result.report.to_doc(include_timings=False), str(want["report"]))
        for name in got:
            assert got[name].read_bytes() == want[name].read_bytes(), name

    def test_determinism_bytes(self, tmp_path):
        tex = self._synth(tmp_path)
        outs = []
        for tag in ("a", "b"):
            report = tmp_path / f"report_{tag}.json"
            mask = tmp_path / f"mask_{tag}.pgm"
            assert main(["detect", "--input", str(tex), "--order", "8,8",
                         "--hist-epsilon", "0.05",
                         "--mask-out", str(mask), "--report-out", str(report)]) == EXIT_OK
            outs.append((report.read_bytes(), mask.read_bytes()))
        assert outs[0] == outs[1]


def test_cli_runs_without_scipy_ndimage_or_linalg(tmp_path):
    # conftest imports scipy.ndimage, and with it scipy.linalg, so only a
    # fresh interpreter shows what importing and running resofilt loads:
    # no scipy module at all
    script = (
        "import sys\n"
        "from resofilt.cli import main\n"
        f"d = {str(tmp_path)!r}\n"
        "frames = [f'{d}/f{i}.pgm' for i in range(3)]\n"
        "assert main(['synth', '--out', d + '/f{i}.pgm', '--frames', '3',\n"
        "             '--size', '96,96', '--pair', '0.2,0.15,30,0', '--mean', '120',\n"
        "             '--noise', '1.0', '--patch', '60,60,9,9', '--patch-value', '210']) == 0\n"
        "assert main(['detect', '--input', frames[0], '--order', '6,6',\n"
        "             '--estimator', 'ls', '--base', '0,0,48,48']) == 0\n"
        "assert main(['track', '--inputs', *frames, '--order', '6,6',\n"
        "             '--base', '0,0,48,48']) == 0\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
        "assert not loaded, f'{loaded} were imported'\n"
        "print('ok')\n"
    )
    package_root = str(Path(pipeline.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=package_root),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("ok")
