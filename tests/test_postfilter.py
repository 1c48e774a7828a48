"""Histogram evidence, density verdict, and cross-frame correlation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resofilt import (
    ObjectBox,
    TrackState,
    binarize_evidence,
    binary_correlation,
    connected_components,
    density_verdict,
    histogram_difference,
    synth_texture,
    track_filter,
)
from resofilt.postfilter import (
    _histogram,
    _window_slices,
    combine_binaries,
    default_evidence_threshold,
)

from conftest import FOUR_PAIRS, components_oracle


def _corners(boxes):
    return [(b.x0, b.y0, b.x1, b.y1) for b in boxes]


class TestConnectedComponents:
    def test_empty_mask(self):
        assert connected_components(np.zeros((8, 8))) == []

    def test_two_disjoint_blobs(self):
        mask = np.zeros((12, 12))
        mask[1:4, 1:4] = 1.0
        mask[7:10, 8:11] = 1.0
        boxes = connected_components(mask)
        coords = sorted((b.x0, b.y0, b.x1, b.y1) for b in boxes)
        assert coords == [(1, 1, 3, 3), (7, 8, 9, 10)]

    def test_diagonal_touch_is_one_component(self):
        mask = np.zeros((6, 6))
        mask[1, 1] = 1.0
        mask[2, 2] = 1.0
        assert len(connected_components(mask)) == 1

    def test_min_area_filter(self):
        mask = np.zeros((10, 10))
        mask[1, 1] = 1.0
        mask[5:8, 5:8] = 1.0
        boxes = connected_components(mask, min_area=2)
        assert len(boxes) == 1
        assert boxes[0].area == 9

    @pytest.mark.parametrize("min_area", range(1, 7))
    def test_same_boxes_as_full_labelling(self, rng, min_area):
        mask = rng.random((64, 80)) < 0.12
        mask[10:14, 20:23] = True
        boxes = connected_components(mask.astype(float), min_area=min_area)
        assert _corners(boxes) == components_oracle(mask, min_area)
        assert connected_components(mask, min_area=min_area) == boxes

    @given(
        rows=st.integers(1, 24),
        cols=st.integers(1, 24),
        density=st.sampled_from([0.0, 0.05, 0.3, 0.6, 1.0]),
        kind=st.sampled_from(["bool", "float", "uint8", "int"]),
        min_area=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_boxes_match_the_find_objects_oracle(self, rows, cols, density, kind,
                                                 min_area, seed):
        # empty and all-True rasters (density 0 and 1), 1 x n and n x 1
        # strips, and non-bool rasters labelled by their positive entries
        rng = np.random.default_rng(seed)
        raster = rng.random((rows, cols)) < density
        if kind == "float":
            raster = np.where(raster, rng.uniform(0.1, 9.0, raster.shape),
                              rng.uniform(-9.0, 0.0, raster.shape))
        elif kind != "bool":
            raster = raster.astype(kind)
        boxes = connected_components(raster, min_area=min_area)
        assert _corners(boxes) == components_oracle(raster, min_area)
        assert all(type(v) is int for corners in _corners(boxes) for v in corners)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_zero_size_raster_has_no_components(self, shape):
        assert connected_components(np.zeros(shape, dtype=bool)) == []


def _snake(rows, cols):
    """One-pixel boustrophedon path: every other row flagged, consecutive
    rows joined at alternate ends."""
    raster = np.zeros((rows, cols), dtype=bool)
    raster[::2] = True
    raster[1::4, -1] = True
    raster[3::4, 0] = True
    return raster


def _spiral(rows, cols):
    """One-pixel inward spiral from the top-left corner, one blank pixel
    between its turns."""
    raster = np.zeros((rows, cols), dtype=bool)
    x, y, dx, dy = 0, 0, 0, 1
    raster[0, 0] = True
    turns = 0
    while turns < 2:
        nx, ny, ax, ay = x + dx, y + dy, x + 2 * dx, y + 2 * dy
        free = 0 <= nx < rows and 0 <= ny < cols and not raster[nx, ny]
        blocked = 0 <= ax < rows and 0 <= ay < cols and raster[ax, ay]
        if free and not blocked:
            x, y, turns = nx, ny, 0
            raster[x, y] = True
        else:
            dx, dy, turns = dy, -dx, turns + 1
    return raster


def _comb(rows, cols):
    """Lines down every other column from seeded random heights, each joined
    to the next by one pixel below both, so that the lines only meet at the
    bottom and their first runs come in a scrambled order."""
    raster = np.zeros((rows, cols), dtype=bool)
    tops = np.random.default_rng(rows * cols).integers(0, rows - 2, (cols + 1) // 2)
    for k, top in enumerate(tops):
        raster[top : rows - 1, 2 * k] = True
    raster[rows - 1, 1::2] = True
    return raster


_PATHS = {
    "rows": _snake,
    "columns": lambda rows, cols: _snake(cols, rows).T,
    "spiral": _spiral,
    "comb": _comb,
}


class TestRunLabelling:
    """Row runs and their unions against the full-labelling oracle."""

    @pytest.mark.parametrize("cols", [5, 6, 24, 257])
    def test_run_at_the_last_column_does_not_wrap_into_the_next_row(self, cols):
        # flat indices continue from (0, cols-1) to (1, 0), yet the pixels are apart
        raster = np.zeros((3, cols), dtype=bool)
        raster[0, -2:] = True
        raster[1, :2] = True
        raster[2, -1] = True
        boxes = _corners(connected_components(raster))
        assert boxes == components_oracle(raster)
        assert boxes == [(0, cols - 2, 0, cols - 1), (1, 0, 1, 1), (2, cols - 1, 2, cols - 1)]

    def test_first_and_last_columns_stay_two_lines(self):
        raster = np.zeros((40, 9), dtype=bool)
        raster[:, 0] = raster[:, -1] = True
        assert _corners(connected_components(raster)) == [(0, 0, 39, 0), (0, 8, 39, 8)]

    @pytest.mark.parametrize("shape", [(64, 257), (257, 64)])
    @pytest.mark.parametrize("kind", list(_PATHS))
    def test_snakes_and_spirals_are_one_component(self, shape, kind):
        raster = _PATHS[kind](*shape)
        boxes = _corners(connected_components(raster))
        assert boxes == components_oracle(raster)
        assert len(boxes) == 1
        # cut the path in two: each piece keeps its own box
        path = raster.copy()
        path[np.unravel_index(np.flatnonzero(raster)[raster.sum() // 2], shape)] = False
        assert _corners(connected_components(path)) == components_oracle(path)

    @pytest.mark.parametrize("shape", [(1, 3000), (3000, 1), (40, 700), (700, 40), (97, 301)])
    @pytest.mark.parametrize("density", [0.05, 0.3, 0.6, 0.95])
    @pytest.mark.parametrize("min_area", [1, 3])
    def test_strips_and_wide_rasters(self, shape, density, min_area):
        raster = np.random.default_rng(len(shape) + shape[0]).random(shape) < density
        boxes = _corners(connected_components(raster, min_area=min_area))
        assert boxes == components_oracle(raster, min_area)

    @pytest.mark.parametrize("min_area", [1, 4])
    def test_sparse_patches_and_speckle_on_a_1024_frame(self, min_area):
        rng = np.random.default_rng(18)
        raster = rng.random((1024, 1024)) < 0.01
        for side in range(7, 16):
            for _ in range(3):
                x, y = rng.integers(0, 1024 - side, 2)
                raster[x : x + side, y : y + side] = True
        boxes = _corners(connected_components(raster, min_area=min_area))
        assert boxes == components_oracle(raster, min_area)
        assert len(boxes) >= 27


class TestHistogramDifference:
    def test_identical_constants_zero_evidence(self):
        image = np.full((40, 40), 80.0)
        box = ObjectBox(15, 15, 24, 24)
        ev = histogram_difference(image, box, e=5)
        assert np.abs(ev.g_row).max() == 0.0
        assert np.abs(ev.g_col).max() == 0.0
        assert np.abs(ev.product).max() == 0.0

    def test_two_bin_closed_form(self):
        # object constant a over ring constant b: each histogram difference
        # has +1 at bin a and -1 at bin b, so every product entry is 2
        image = np.full((40, 40), 30.0)
        image[15:25, 15:25] = 90.0
        box = ObjectBox(15, 15, 24, 24)
        ev = histogram_difference(image, box, e=5)
        row = ev.g_row[0]
        assert row[90] == pytest.approx(1.0)
        assert row[30] == pytest.approx(-1.0)
        assert np.count_nonzero(row) == 2
        assert np.allclose(ev.product, 2.0)

    def test_clipped_extension_warns(self):
        image = np.full((20, 20), 10.0)
        image[0:5, 0:5] = 99.0
        with pytest.warns(UserWarning):
            histogram_difference(image, ObjectBox(0, 0, 4, 4), e=7)

    def test_negative_extension_rejected(self):
        with pytest.raises(ValueError, match="extension must be non-negative"):
            histogram_difference(np.zeros((20, 20)), ObjectBox(8, 8, 10, 10), e=-1)

    @pytest.mark.filterwarnings("ignore:extended box clipped")
    def test_empty_ring_rejected(self):
        image = np.full((6, 6), 10.0)
        with pytest.raises(ValueError):
            histogram_difference(image, ObjectBox(0, 0, 5, 5), e=3)

    def test_statistically_identical_mean_shrinks(self, rng):
        # two i.i.d. samples of one distribution: the evidence mean tends
        # to zero as the region grows (3-sigma band check at two sizes)
        means = []
        for size in (12, 36):
            image = rng.integers(0, 256, size=(3 * size, 3 * size)).astype(float)
            box = ObjectBox(size, size, 2 * size - 1, 2 * size - 1)
            ev = histogram_difference(image, box, e=size // 2)
            means.append(abs(ev.product.mean()))
        assert means[1] < means[0]
        assert means[1] < 3.0 / 36  # loose 3-sigma style band


def _histogram_reference(image, box, e, levels):
    """Row and column evidence from one _histogram call per box row and column."""
    outer = box.extended(e, image.shape)
    ring = np.ones((outer.height, outer.width), dtype=bool)
    ring[box.x0 - outer.x0 : box.x1 - outer.x0 + 1, box.y0 - outer.y0 : box.y1 - outer.y0 + 1] = False
    g_ring = _histogram(image[outer.x0 : outer.x1 + 1, outer.y0 : outer.y1 + 1][ring], levels)
    g_row = np.empty((box.height, levels))
    for i in range(box.height):
        g_row[i] = _histogram(image[box.x0 + i, box.y0 : box.y1 + 1], levels) - g_ring
    g_col = np.empty((levels, box.width))
    for j in range(box.width):
        g_col[:, j] = _histogram(image[box.x0 : box.x1 + 1, box.y0 + j], levels) - g_ring
    return g_row, g_col, g_row @ g_col


class TestHistogramEquivalence:
    @given(
        height=st.integers(1, 12),
        width=st.integers(1, 12),
        e=st.integers(1, 4),
        levels=st.integers(2, 299),
        integral=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_bit_equal_to_per_row_and_column_histograms(
        self, height, width, e, levels, integral, seed
    ):
        # values span negatives, fractions and values at or above levels,
        # so the floor and both clips are exercised
        rng = np.random.default_rng(seed)
        image = rng.uniform(-0.5 * levels, 1.5 * levels, (height + 2 * e, width + 2 * e))
        if integral:
            image = np.floor(image)
        box = ObjectBox(e, e, e + height - 1, e + width - 1)
        ev = histogram_difference(image, box, e=e, levels=levels)
        g_row, g_col, product = _histogram_reference(image, box, e, levels)
        assert np.array_equal(ev.g_row, g_row)
        assert np.array_equal(ev.g_col, g_col)
        assert np.array_equal(ev.product, product)


class TestEightBitBins:
    @pytest.mark.filterwarnings("ignore:extended box clipped")
    @pytest.mark.parametrize("levels", [256, 100, 2, 299])
    def test_uint8_plane_gives_the_evidence_of_its_float_copy(self, levels):
        # a seeded textured frame with dark and bright patches, some at the
        # border, quantised to 8 bits as frames are read
        rng = np.random.default_rng(9)
        scene = 128.0 + 30.0 * synth_texture(FOUR_PAIRS, 160, 160, noise_sigma=0.3, seed=9)
        boxes = []
        for _ in range(12):
            side = int(rng.integers(3, 16))
            x, y = (int(v) for v in rng.integers(0, 160 - side, 2))
            scene[x : x + side, y : y + side] = rng.choice([rng.uniform(0, 40),
                                                            rng.uniform(215, 255)])
            boxes.append(ObjectBox(x, y, x + side - 1, y + side - 1))
        plane = np.clip(np.rint(scene), 0, 255).astype(np.uint8)
        assert plane.max() >= levels or levels > 255
        for box in boxes:
            got = histogram_difference(plane, box, levels=levels)
            want = histogram_difference(plane.astype(np.float64), box, levels=levels)
            assert np.array_equal(got.g_row, want.g_row)
            assert np.array_equal(got.g_col, want.g_col)
            assert np.array_equal(got.product, want.product)


class TestBinarize:
    def test_zero_evidence_positive_threshold(self):
        assert binarize_evidence(np.zeros((4, 4)), 0.5).sum() == 0

    def test_threshold_below_min_all_ones(self, rng):
        c = rng.normal(0, 1, (6, 6))
        assert binarize_evidence(c, c.min() - 1.0).all()

    def test_median_threshold_half_ones(self, rng):
        c = rng.normal(0, 1, (20, 20))
        ones = binarize_evidence(c, float(np.median(c))).sum()
        assert abs(ones - c.size / 2) <= c.size * 0.05

    def test_monotone_in_threshold(self, rng):
        c = rng.normal(0, 1, (10, 10))
        prev = binarize_evidence(c, -5.0)
        for eps in (-1.0, 0.0, 1.0, 5.0):
            cur = binarize_evidence(c, eps)
            assert not np.any(cur > prev)  # raising eps never turns 0 into 1
            prev = cur

    def test_default_threshold_policy(self, rng):
        c = rng.normal(3.0, 2.0, (50, 50))
        assert default_evidence_threshold(c) == pytest.approx(c.mean() + 2 * c.std())


def _fills_by_loop(binary, cell_size):
    """Per-cell fill fractions, one cell at a time: the reference tiling."""
    rows = -(-binary.shape[0] // cell_size)
    cols = -(-binary.shape[1] // cell_size)
    fills = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            cell = binary[i * cell_size : (i + 1) * cell_size, j * cell_size : (j + 1) * cell_size]
            fills[i, j] = np.count_nonzero(cell) / (cell_size * cell_size)
    return fills


class TestDensityVerdict:
    @given(
        rows=st.integers(0, 23),
        cols=st.integers(0, 23),
        cell_size=st.integers(1, 7),
        density=st.floats(0.0, 1.0),
        fill=st.floats(0.01, 1.0),
        kind=st.sampled_from(["uint8", "bool", "float"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_fills_equal_the_cell_loop(self, rows, cols, cell_size, density, fill, kind, seed):
        rng = np.random.default_rng(seed)
        binary = (rng.random((rows, cols)) < density).astype(kind)
        verdict, fills = density_verdict(binary, cell_size=cell_size, fill=fill)
        expected = _fills_by_loop(binary, cell_size)
        assert fills.shape == expected.shape and fills.dtype == expected.dtype
        assert np.array_equal(fills, expected)
        assert verdict is bool((expected >= fill).any())

    def test_single_full_cell_true(self):
        binary = np.zeros((10, 10), dtype=np.uint8)
        binary[0:5, 0:5] = 1
        verdict, fills = density_verdict(binary, cell_size=5, fill=0.75)
        assert verdict
        assert fills[0, 0] == 1.0

    def test_uniform_half_density_false(self):
        binary = np.indices((10, 10)).sum(axis=0) % 2
        verdict, _ = density_verdict(binary.astype(np.uint8), cell_size=5, fill=0.75)
        assert not verdict

    def test_monotone_in_fill(self, rng):
        binary = (rng.random((20, 20)) < 0.6).astype(np.uint8)
        verdicts = [density_verdict(binary, 5, f)[0] for f in (0.2, 0.4, 0.6, 0.8, 1.0)]
        for earlier, later in zip(verdicts, verdicts[1:]):
            assert earlier or not later  # lowering fill never flips True->False

    def test_partial_cells_judged_against_full_area(self):
        binary = np.ones((4, 1), dtype=np.uint8)
        verdict, fills = density_verdict(binary, cell_size=5, fill=0.75)
        assert not verdict
        assert fills[0, 0] == pytest.approx(4 / 25)

    def test_channel_disjunction(self):
        a = np.zeros((6, 6), dtype=np.uint8)
        b = np.zeros((6, 6), dtype=np.uint8)
        a[0:5, 0:3] = 1
        b[0:5, 2:5] = 1
        combined = combine_binaries([a, b], "or")
        verdict, _ = density_verdict(combined, cell_size=5, fill=0.75)
        assert verdict
        assert not density_verdict(a, 5, 0.75)[0]
        conj = combine_binaries([a, b], "and")
        assert conj.sum() == 5  # single overlapping column


def _track(masks, boxes, threshold=0.3):
    return TrackState(masks=tuple(masks), objects=tuple(boxes), r_threshold=threshold)


class TestBinaryCorrelation:
    def test_identical_frames_unity(self):
        m = np.zeros((20, 20))
        m[5:9, 6:11] = 3.0
        state = _track([m, m, m], connected_components(m))
        assert binary_correlation(state, 0) == 1.0

    def test_disjoint_ten_ten_ten(self):
        # frame 0: 10 positives; frames 1-2: disjoint sets of 10 inside the
        # object window -> r = 10 / 30 exactly
        f0 = np.zeros((30, 30))
        f0[10, 10:20] = 1.0
        f1 = np.zeros((30, 30))
        f1[12, 10:20] = 1.0
        f2 = np.zeros((30, 30))
        f2[8, 10:20] = 1.0
        box = ObjectBox(6, 10, 14, 19)  # 9x10 window around the streaks
        state = _track([f0, f1, f2], [box])
        assert binary_correlation(state, 0) == pytest.approx(1.0 / 3.0)

    def test_empty_window_flagged_zero(self):
        empty = np.zeros((10, 10))
        box = ObjectBox(2, 2, 4, 4)
        state = _track([empty, empty], [box])
        with pytest.warns(UserWarning):
            assert binary_correlation(state, 0) == 0.0

    def test_range_bounds(self, rng):
        for _ in range(20):
            masks = [(rng.random((16, 16)) < 0.3).astype(float) for _ in range(3)]
            boxes = connected_components(masks[0]) or [ObjectBox(4, 4, 8, 8)]
            state = _track(masks, boxes[:3])
            for i in range(len(state.objects)):
                r = binary_correlation(state, i)
                assert 0.0 <= r <= 1.0

    @pytest.mark.parametrize(
        "box, window",
        [
            ((4, 5, 6, 9), (4, 5, 6, 9)),
            ((4, 5, 7, 9), (3, 5, 7, 9)),
            ((4, 5, 6, 8), (4, 4, 6, 8)),
            ((2, 2, 5, 5), (1, 1, 5, 5)),
            ((0, 5, 3, 9), (0, 5, 3, 9)),
            ((4, 0, 6, 3), (4, 0, 6, 3)),
        ],
        ids=["odd", "even-height", "even-width", "even-both", "row-0", "column-0"],
    )
    def test_window_is_the_centre_plus_minus_half_the_side(self, rng, box, window):
        # an odd side spans the box, an even side adds the row above or the
        # column to the left, and a window is clipped at row and column 0
        sx, sy = _window_slices(ObjectBox(*box))
        assert (sx.start, sy.start, sx.stop - 1, sy.stop - 1) == window
        # the ratio reads that window and nothing else
        masks = [rng.random((12, 12)) < 0.5 for _ in range(3)]
        x0, y0, x1, y1 = window
        cut = [m[x0 : x1 + 1, y0 : y1 + 1] for m in masks]
        want = sum(int((cut[0] & c).sum()) for c in cut) / sum(int(c.sum()) for c in cut)
        assert binary_correlation(_track(masks, [ObjectBox(*box)]), 0) == want


class TestTrackStateMasks:
    def test_masks_kept_as_boolean_support(self):
        m = np.array([[0.0, 2.0], [-1.0, 5e-324]])
        state = _track([m], [])
        assert state.masks[0].dtype == bool
        assert state.masks[0].tolist() == [[False, True], [False, True]]

    def test_masks_of_different_shapes_raise(self):
        # a short frame would broadcast its window against frame 0's and
        # give a ratio outside [0, 1]
        f0 = np.zeros((20, 20))
        f0[5:9, 6:11] = 1.0
        with pytest.raises(ValueError, match=r"\(20, 20\), \(5, 20\), \(20, 20\)"):
            _track([f0, np.ones((5, 20)), f0], [ObjectBox(5, 6, 8, 10)])

    def test_boolean_raster_is_not_copied(self):
        m = np.zeros((6, 6), dtype=bool)
        m[2:4, 2:4] = True
        state = _track([m], [])
        assert state.masks[0] is m

    def test_float_and_boolean_masks_equal_ratios(self, rng):
        for _ in range(10):
            masks = [rng.random((24, 24)) * (rng.random((24, 24)) < 0.3) for _ in range(3)]
            masks[1][masks[0] > 0] *= -1.0  # negative entries are not support
            boxes = connected_components(masks[0]) or [ObjectBox(4, 4, 8, 8)]
            floats = _track(masks, boxes)
            bools = _track([m > 0 for m in masks], boxes)
            for i in range(len(boxes)):
                assert binary_correlation(floats, i) == binary_correlation(bools, i)


class TestTrackFilter:
    def test_given_ratios_replace_the_correlation(self):
        m = np.zeros((30, 30))
        m[5:9, 5:9] = 1.0
        m[20:24, 20:24] = 1.0
        state = _track([m, m, m], connected_components(m))
        ratios = [binary_correlation(state, i) for i in range(len(state.objects))]
        assert len(track_filter(state, ratios, extension=1)) == 2
        assert len(track_filter(state, extension=1, ratios=[1.0, 1.0])) == 2
        kept = track_filter(state, extension=1, ratios=[0.0, 1.0])
        assert [(b.x0, b.y0) for b in kept] == [(19, 19)]
        with pytest.raises(ValueError):
            track_filter(state, ratios=[1.0])

    def test_unity_confirmed_zero_dropped(self):
        keep = np.zeros((40, 40))
        keep[10:15, 10:15] = 5.0
        f0 = keep.copy()
        f0[29, 29] = 5.0  # transient 2-pixel diagonal speck
        f0[30, 30] = 5.0
        # later frames: object persists, the speck's surroundings erupt
        # while its own pixels go dark
        f1 = keep.copy()
        f1[27:34, 27:34] = 4.0
        f1[29, 29] = 0.0
        f1[30, 30] = 0.0
        f2 = f1.copy()
        boxes = connected_components(f0)
        state = _track([f0, f1, f2], boxes)
        ratios = [binary_correlation(state, i) for i in range(len(boxes))]
        confirmed = track_filter(state, ratios, extension=2)
        assert len(confirmed) == 1
        c = confirmed[0]
        assert (c.x0, c.y0, c.x1, c.y1) == (8, 8, 16, 16)  # extended by 2

    def test_speckle_field_harness(self):
        # Persistent object over three frames plus single-frame speckle
        # streaks.  The overlap ratio only drops a candidate when later
        # frames carry more mask mass in its window than frame 0 did, so
        # the speckle events intensify after their first appearance (wave
        # trains developing), mirroring dynamic-texture surges.
        length = 16

        def add_streak(m, r, c, d=1):
            rr = r + (np.arange(length) if d > 0 else length - 1 - np.arange(length))
            cc = c + np.arange(length)
            ok = (rr >= 0) & (rr < m.shape[0]) & (cc >= 0) & (cc < m.shape[1])
            m[rr[ok], cc[ok]] = 150.0

        def overlaps_object(b):
            return not (b.x1 < 60 or b.x0 > 66 or b.y1 < 60 or b.y0 > 66)

        total, dropped_total = 0, 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            events = []
            while len(events) < 10:
                r = int(rng.integers(10, 102))
                c = int(rng.integers(10, 102))
                if 36 <= r <= 90 and 36 <= c <= 90:
                    continue
                if any(max(abs(r - er), abs(c - ec)) < 22 for er, ec, _ in events):
                    continue
                events.append((r, c, int(rng.choice([-1, 1]))))
            obj = np.zeros((128, 128))
            obj[60:67, 60:67] = 250.0
            frames = []
            for t in range(3):
                f = np.zeros((128, 128))
                for (r, c, d) in events:
                    if t == 0:
                        add_streak(f, r, c, d)
                    else:
                        for off in (-6, -2, 2, 6):
                            jitter = int(rng.integers(-1, 2))
                            eff = off + jitter if abs(off + jitter) >= 1 else off
                            add_streak(f, r + eff, c, d)
                f[50:77, 50:77] = 0.0
                f += obj
                frames.append(f)
            boxes = connected_components(frames[0] > 0, min_area=1)
            state = _track(frames, boxes)
            ratios = [binary_correlation(state, i) for i in range(len(boxes))]
            persist = [i for i, b in enumerate(boxes) if overlaps_object(b)]
            assert len(persist) == 1
            assert ratios[persist[0]] > 0.3
            speckle = [i for i in range(len(boxes)) if i not in persist]
            total += len(speckle)
            dropped_total += sum(1 for i in speckle if ratios[i] <= 0.3)
        assert dropped_total / total >= 0.9
