"""False-detection removal: histogram evidence and cross-frame correlation.

Static scenes: each candidate object box is compared against its
surrounding ring through per-row and per-column gray-level histograms;
the outer product of the differences concentrates where the object really
differs, and a density rule over small cells gives the verdict.

Dynamic scenes: candidate boxes are confirmed by the overlap ratio of
detection masks, in each box's window, across a short run of consecutive
frames; transient speckle decorrelates and is dropped.

The constants are fixed (``GRAY_LEVELS``, the "or" channel rule,
``TRACK_EXTENSION``); only ``e``, ``cell_size`` and ``fill`` stay keyword
defaults, which the acceptance suite sets.

Coordinates follow (row, column) = (x, y) throughout, boxes inclusive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# histogram bins: one per 8-bit gray level
GRAY_LEVELS = 256
# background pixels a confirmed track box is grown by on each side
TRACK_EXTENSION = 7


@dataclass(frozen=True)
class ObjectBox:
    """Inclusive pixel rectangle."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError("box corners are not ordered")

    @property
    def height(self) -> int:
        return self.x1 - self.x0 + 1

    @property
    def width(self) -> int:
        return self.y1 - self.y0 + 1

    @property
    def area(self) -> int:
        return self.height * self.width

    @property
    def center(self):
        return ((self.x0 + self.x1) // 2, (self.y0 + self.y1) // 2)

    def extended(self, e: int, shape) -> "ObjectBox":
        """Box grown by e >= 0 on all sides, clipped to an image shape."""
        if e < 0:
            raise ValueError("extension must be non-negative")
        return ObjectBox(
            x0=max(0, self.x0 - e),
            y0=max(0, self.y0 - e),
            x1=min(shape[0] - 1, self.x1 + e),
            y1=min(shape[1] - 1, self.y1 + e),
        )


@dataclass(frozen=True)
class HistogramEvidence:
    """Row/column histogram differences against the ring, and their product."""

    g_row: np.ndarray
    g_col: np.ndarray
    product: np.ndarray


@dataclass(frozen=True)
class TrackState:
    """Immutable snapshot of L consecutive detection masks plus candidates.

    ``masks`` are kept as boolean support rasters (positive entries of
    the given rasters, mask convention of the detector), all of one shape.
    A boolean raster, such as ``DetectionMask.positive()``, is kept as
    given, not copied; ``objects`` are the frame-0 boxes to confirm.
    """

    masks: tuple
    objects: tuple
    r_threshold: float

    def __post_init__(self):
        if len(self.masks) < 1:
            raise ValueError("at least one frame is required")
        if not (0.0 <= self.r_threshold <= 1.0):
            raise ValueError("r_threshold must lie in [0, 1]")
        masks = tuple(_support(m) for m in self.masks)
        if any(m.shape != masks[0].shape for m in masks):
            raise ValueError(f"masks differ in shape: {[m.shape for m in masks]}")
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "objects", tuple(self.objects))


def _support(raster) -> np.ndarray:
    raster = np.asarray(raster)
    return raster if raster.dtype == bool else raster > 0


def connected_components(raster, min_area: int = 1):
    """Bounding boxes of 8-connected positive components, small ones dropped.

    A boolean raster, such as ``DetectionMask.positive()``, is labelled as
    given; any other raster by its positive entries.  The boxes come in the
    row-major order of each component's first pixel.

    The work follows the flagged pixels, not the frame: they are split into
    row runs, each run is joined to the runs of the row above that come
    within one pixel of its columns, and joined runs are merged by min-label
    union-find (He, Chao & Suzuki 2008, IEEE TIP 17(5)).
    """
    raster = _support(raster)
    flagged = np.flatnonzero(raster)
    if flagged.size == 0:
        return []
    width = raster.shape[1]
    # a run starts where a pixel does not continue its left neighbour, or at column 0
    starts = np.empty(flagged.size, dtype=bool)
    starts[0] = True
    np.not_equal(np.diff(flagged), 1, out=starts[1:])
    starts[flagged % width == 0] = True
    first = np.flatnonzero(starts)
    begin = flagged[first]
    end = flagged[np.append(first[1:], flagged.size) - 1]
    rows = begin // width
    # flat indices of a raster two columns wider: no span widened by one
    # pixel reaches into another row
    begin_key = begin + 2 * rows
    end_key = end + 2 * rows
    above = width + 2
    # the runs of the row above within one pixel of each run are a
    # contiguous block [lo, hi) of the run order
    lo = np.searchsorted(end_key, begin_key - above - 1, side="left")
    hi = np.searchsorted(begin_key, end_key - above + 1, side="right")
    # each run points at the first run it touches above (a smaller index),
    # and is joined to the others, lo + 1 .. hi - 1, by an edge (a, b)
    runs = np.arange(first.size)
    labels = np.where(hi > lo, lo, runs)
    extra = np.maximum(hi - lo - 1, 0)
    a = np.repeat(runs, extra)
    b = lo[a] + 1 + np.arange(a.size) - np.repeat(np.cumsum(extra) - extra, extra)
    while True:
        while True:  # pointer jumping: every run points at its root
            up = labels[labels]
            if np.array_equal(up, labels):
                break
            labels = up
        la, lb = labels[a], labels[b]
        apart = la != lb
        if not apart.any():
            break
        # joined edges stay joined; each apart edge hooks the larger root to the smaller
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
    # every root is its component's first run; number components in run order
    roots = labels == runs
    component = (np.cumsum(roots) - 1)[labels]
    count = int(roots.sum())
    x0 = rows[roots]
    y0 = np.full(count, width)
    x1 = np.zeros(count, dtype=rows.dtype)
    y1 = np.zeros(count, dtype=rows.dtype)
    np.minimum.at(y0, component, begin - rows * width)
    np.maximum.at(x1, component, rows)
    np.maximum.at(y1, component, end - rows * width)
    kept = np.bincount(component, weights=end - begin + 1, minlength=count) >= min_area
    return [
        ObjectBox(x0=a, y0=b, x1=c, y1=d)
        for a, b, c, d in zip(*(v[kept].tolist() for v in (x0, y0, x1, y1)))
    ]


def _bins(values: np.ndarray) -> np.ndarray:
    """Integer bin 0..GRAY_LEVELS-1 of every value (floored, then clipped).

    An 8-bit value is its own bin, so a uint8 window skips the float copy.
    """
    if values.dtype == np.uint8:
        return values.astype(np.intp)
    return np.clip(np.floor(np.asarray(values, dtype=float)).astype(int), 0, GRAY_LEVELS - 1)


def _histogram(values: np.ndarray) -> np.ndarray:
    """Unit-mass histogram over the gray-level bins (values clipped)."""
    h = np.bincount(_bins(values.ravel()), minlength=GRAY_LEVELS).astype(float)
    total = h.sum()
    return h / total if total > 0 else h


def histogram_difference(image_gray: np.ndarray, box: ObjectBox, e: int = 7) -> HistogramEvidence:
    """Row and column histogram differences of a box against its ring.

    Every histogram (per object row, per object column, and the single
    ring histogram over the extended box minus the object) is normalised
    to unit mass before subtraction; otherwise the wildly different sample
    counts would dominate the product matrix.
    """
    image_gray = np.asarray(image_gray)
    outer = box.extended(e, image_gray.shape)
    if (
        box.x0 - e < 0
        or box.y0 - e < 0
        or box.x1 + e >= image_gray.shape[0]
        or box.y1 + e >= image_gray.shape[1]
    ):
        warnings.warn("extended box clipped to the image bounds", stacklevel=2)

    window = image_gray[outer.x0 : outer.x1 + 1, outer.y0 : outer.y1 + 1]
    inner = (slice(box.x0 - outer.x0, box.x1 - outer.x0 + 1),
             slice(box.y0 - outer.y0, box.y1 - outer.y0 + 1))
    ring = np.ones(window.shape, dtype=bool)
    ring[inner] = False
    ring_values = window[ring]
    if ring_values.size == 0:
        raise ValueError("empty ring: extension does not clear the object box")
    g_ring = _histogram(ring_values)

    # All row histograms in one bincount of row * GRAY_LEVELS + bin, all column
    # histograms in one of bin * cols + column; each row (column) holds
    # cols (rows) samples, the unit-mass divisor of _histogram.
    rows = box.height
    cols = box.width
    bins = _bins(window[inner])
    row_keys = np.arange(rows)[:, np.newaxis] * GRAY_LEVELS + bins
    col_keys = bins * cols + np.arange(cols)
    row_counts = np.bincount(row_keys.ravel(), minlength=rows * GRAY_LEVELS)
    col_counts = np.bincount(col_keys.ravel(), minlength=GRAY_LEVELS * cols)
    g_row = row_counts.reshape(rows, GRAY_LEVELS) / float(cols) - g_ring
    g_col = col_counts.reshape(GRAY_LEVELS, cols) / float(rows) - g_ring[:, np.newaxis]

    return HistogramEvidence(g_row=g_row, g_col=g_col, product=g_row @ g_col)


def binarize_evidence(product: np.ndarray, epsilon_c: float) -> np.ndarray:
    """Binary evidence: 1 where the product exceeds the threshold."""
    product = np.asarray(product, dtype=float)
    if not np.all(np.isfinite(product)):
        raise ValueError("evidence matrix has non-finite entries")
    return (product > epsilon_c).astype(np.uint8)


def default_evidence_threshold(product: np.ndarray) -> float:
    """Threshold policy when none is configured: mean + 2 std of the evidence."""
    product = np.asarray(product, dtype=float)
    return float(product.mean() + 2.0 * product.std())


def density_verdict(binary: np.ndarray, cell_size: int = 5, fill: float = 0.75):
    """True when any cell of the tiling reaches the fill fraction.

    Returns (verdict, per-cell fill fractions).  Fill is always counted
    against the full cell area, so trailing partial cells (and boxes
    smaller than one cell) must light up proportionally more of what they
    have; a box far smaller than a cell can never confirm.
    """
    if cell_size < 1:
        raise ValueError("cell_size must be positive")
    if not (0.0 < fill <= 1.0):
        raise ValueError("fill must lie in (0, 1]")
    binary = np.asarray(binary)
    rows = -(-binary.shape[0] // cell_size)
    cols = -(-binary.shape[1] // cell_size)
    # zero-pad to whole cells, then count each cell's nonzero entries at once
    padded = np.zeros((rows * cell_size, cols * cell_size), dtype=bool)
    padded[: binary.shape[0], : binary.shape[1]] = binary != 0
    counts = padded.reshape(rows, cell_size, cols, cell_size).sum(axis=(1, 3))
    fills = counts / (cell_size * cell_size)
    return bool((fills >= fill).any()), fills


def combine_binaries(binaries) -> np.ndarray:
    """Channel combination of binary evidence: their disjunction."""
    return np.stack([np.asarray(b, dtype=bool) for b in binaries]).any(axis=0).astype(np.uint8)


def _window_slices(box: ObjectBox):
    """Correlation window of a box: its centre +- half its side per axis, so
    an even side spans side + 1 pixels from one pixel before the box.
    Clipped at row and column 0 here, and at the far edges by the slicing."""
    cx, cy = box.center
    hi, hk = box.height // 2, box.width // 2
    return slice(max(0, cx - hi), cx + hi + 1), slice(max(0, cy - hk), cy + hk + 1)


def binary_correlation(track: TrackState, object_index: int) -> float:
    """Mask overlap ratio of one candidate across the frame window.

    r = sum_t |{v0 > 0} and {vt > 0}| / sum_t |{vt > 0}| over the object's
    correlation window (``_window_slices``); 1 when every frame repeats the
    frame-0 support, small when later frames are disorganised.  An
    all-empty window yields 0 with a warning.
    """
    sx, sy = _window_slices(track.objects[object_index])
    ref = track.masks[0][sx, sy]
    numerator = 0
    denominator = 0
    for frame in track.masks:
        cur = frame[sx, sy]
        numerator += int(np.count_nonzero(ref & cur))
        denominator += int(np.count_nonzero(cur))
    if denominator == 0:
        warnings.warn("empty track window: correlation undefined, using 0", stacklevel=2)
        return 0.0
    return numerator / denominator


def track_filter(track: TrackState, ratios):
    """Confirmed objects, re-emitted with their boxes grown by
    ``TRACK_EXTENSION`` pixels of background.

    ``ratios`` holds each object's ``binary_correlation`` value; an object
    whose ratio exceeds the track's threshold is confirmed.
    """
    if len(ratios) != len(track.objects):
        raise ValueError("one correlation ratio per object is required")
    shape = track.masks[0].shape
    confirmed = []
    for box, r in zip(track.objects, ratios):
        if r > track.r_threshold:
            confirmed.append(box.extended(TRACK_EXTENSION, shape))
    return confirmed
