"""End-to-end orchestration: estimate, design, filter, detect, post-filter.

The pipeline estimates resonance roots on the base region of the first
frame (shared across channels), fits amplitudes and designs one inverse
filter per channel, then streams the frames: each one is filtered,
thresholded by the union rule and split into candidate boxes, which the
static histogram post-filter judges at once and the dynamic cross-frame
correlation filter judges once the window of L frames they open is
complete.  A run holds one frame at a time, plus the boolean rasters of
the last L frames and frame 0's mask.  The frame loop alone cuts a frame
into row strips (the filter's strip rule), so no filtered plane is ever
whole: each channel's filter writes a strip into one strip-sized set,
which the run allocates once, and the detector judges it into its rows of
the frame's verdict raster.

Stages run sequentially and deterministically: identical configuration
and inputs produce identical reports and masks.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, NumericError, ResofiltError
from .filtering import (
    DetectionMask,
    _finite_number,
    _strip_rows,
    apply_filter,
    design_filter,
    detect,
    filter_buffers,
)
from .harmonic import HarmonicModel
from .imageio import ImageStack
from .linear_symmetry import estimate_model_ls
from .model_doc import RunReport, model_to_doc
from .pencil import default_split, estimate_model_pencil
from .postfilter import (
    TrackState,
    binarize_evidence,
    binary_correlation,
    combine_binaries,
    connected_components,
    default_evidence_threshold,
    density_verdict,
    histogram_difference,
    track_filter,
)

_ESTIMATORS = ("ls", "pencil")
# Channel names of each channel mode, in plane order: the one such table.
_CHANNELS = {"gray": ("gray",), "rgb": ("r", "g", "b")}
_POSTS = ("hist", "track", "none")


def _integer(value) -> bool:
    """A Python or NumPy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class PipelineConfig:
    """Run settings; defaults follow the reference operating points.

    ``base_region`` is (row, col, height, width).  Its entries, ``order``'s,
    ``min_area``, ``track_window`` and ``split`` are Python or NumPy
    integers; ``validate`` rejects bools, floats and strings.  Fields whose
    defaults are not dictated by the method itself (min_area, the
    histogram threshold policy) are artifact defaults.  The post-filters'
    fixed operating points (ring width 7 over 256 levels, 5x5 cells at
    0.75 fill, the "or" channel rule, track boxes grown by 7) are the
    defaults of the ``postfilter`` functions, which the pipeline calls
    with them.  The method itself has no switches: the ls estimator solves
    for palindromic coefficients (so its orders are even), both estimators
    project their roots onto the unit circle and append the unit root, and
    every filter drives the texture to the base region's mean.
    """

    base_region: tuple = (0, 0, 64, 64)
    order: tuple = (16, 16)
    estimator: str = "ls"
    channel_mode: str = "gray"
    sigma_multiplier: float = 3.0
    min_area: int = 4
    split: int = None
    post: str = "hist"
    hist_epsilon: float = None
    track_window: int = 3
    track_threshold: float = 0.3

    def validate(self, image_shape=None):
        x, y, h, w = self._require_int_tuple("base_region", self.base_region, 4)
        if x < 0 or y < 0 or h < 1 or w < 1:
            raise ConfigError("base_region: origin must be >= 0 and size positive")
        p, q = self._require_int_tuple("order", self.order, 2)
        if p < 1 or q < 1:
            raise ConfigError("order: both orders must be positive")
        # the correlation window (order + 1) must fit strictly inside
        if p + 2 > h or q + 2 > w:
            raise ConfigError("order: must leave room inside the base region")
        if self.estimator not in _ESTIMATORS:
            raise ConfigError(f"estimator: unknown value {self.estimator!r}")
        if self.estimator == "ls" and (p % 2 or q % 2):
            raise ConfigError("order: symmetric estimation needs even orders")
        if self.channel_mode not in tuple(_CHANNELS):  # by equality: a list is refused too
            raise ConfigError(f"channel_mode: unknown value {self.channel_mode!r}")
        if not (_finite_number(self.sigma_multiplier) and self.sigma_multiplier > 0):
            raise ConfigError("sigma_multiplier: must be a finite positive number")
        if not (_integer(self.min_area) and self.min_area >= 1):
            raise ConfigError("min_area: must be a positive integer")
        if self.post not in _POSTS:
            raise ConfigError(f"post: unknown value {self.post!r}")
        if self.hist_epsilon is not None and not _finite_number(self.hist_epsilon):
            raise ConfigError("hist_epsilon: must be a finite number or None")
        if not (_integer(self.track_window) and self.track_window >= 1):
            raise ConfigError("track_window: must be a positive integer")
        if not (_finite_number(self.track_threshold) and 0 <= self.track_threshold <= 1):
            raise ConfigError("track_threshold: must lie in [0, 1]")
        if self.split is not None:
            if not (_integer(self.split) and self.split >= 1):
                raise ConfigError("split: must be a positive integer or None")
            if self.estimator != "pencil":
                raise ConfigError(
                    f"split: only the pencil estimator takes a split, "
                    f"not {self.estimator!r}"
                )
        if self.estimator == "pencil":
            if p != q:
                raise ConfigError(
                    f"order: the pencil estimator takes one mode count for "
                    f"both axes, got {p},{q}"
                )
            if self.split is not None:
                hi = min(h, w) - 2
                if not p <= self.split <= hi:
                    raise ConfigError(
                        f"split: {self.split} outside [{p}, {hi}] for order "
                        f"{p} on a {h}x{w} base region"
                    )
            split = default_split((h, w), p) if self.split is None else self.split
            rows = (h - split - 1) * (w - split - 1)
            if rows < p:
                # the default split is derived, so its shortfall is the order's
                cause = (
                    f"order: the default split {split}"
                    if self.split is None
                    else f"split: {split}"
                )
                raise ConfigError(
                    f"{cause} leaves {rows} pencil rows for {p} modes on a "
                    f"{h}x{w} base region"
                )
        if image_shape is not None:
            if x + h > image_shape[0] or y + w > image_shape[1]:
                raise ConfigError("base_region: falls outside the image")

    @staticmethod
    def _require_int_tuple(name, value, n):
        try:
            items = tuple(value)
        except TypeError:
            items = ()
        if len(items) != n or not all(_integer(v) for v in items):
            raise ConfigError(f"{name}: expected {n} integers")
        return items


@dataclass
class PipelineResult:
    """Outcome of one run.

    ``mask`` is frame 0's detection mask, the only one a run keeps.
    ``boxes`` holds each frame's candidates; ``confirmed`` holds one list
    per report record (a frame, or a track window).
    """

    report: RunReport
    model: HarmonicModel
    filters: list
    mask: DetectionMask
    boxes: list
    confirmed: list


@contextmanager
def _stage(name: str):
    try:
        yield
    except ConfigError:
        raise
    except ResofiltError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise NumericError(f"{name}: {exc}") from exc


def _channels(stack: ImageStack, mode: str):
    """Planes and channel names (``_CHANNELS``) of a mode: the frame's own
    planes when it has one per name, else its gray plane once per name."""
    names = _CHANNELS[mode]
    if stack.channels == len(names):
        return list(stack.planes), names
    return [stack.gray()] * len(names), names


def estimate_model(base: np.ndarray, config: PipelineConfig):
    """Root estimation on one base-region plane, per the configured method."""
    p, q = (int(v) for v in config.order)
    if config.estimator == "ls":
        return estimate_model_ls(base, p, q)
    return estimate_model_pencil(base, p, split=config.split)


def estimate(stack: ImageStack, config: PipelineConfig):
    """Estimate stage: validate ``config`` against the frame's shape, cut
    the base region once and estimate the model on its gray plane.

    Returns (base region as an ImageStack, HarmonicModel, diagnostics).
    Unless the frame has one plane per channel of the run, the returned
    base region is its gray plane alone, so a run builds that plane once.
    """
    config.validate(image_shape=stack.shape)
    x, y, h, w = (int(v) for v in config.base_region)
    with _stage("estimate"):
        base = ImageStack(tuple(p[x : x + h, y : y + w] for p in stack.planes))
        gray = base.gray()
        if base.channels != len(_CHANNELS[config.channel_mode]):
            base = ImageStack((gray,))
        model, diag = estimate_model(gray, config)
    return base, model, diag


def design(base: ImageStack, model: HarmonicModel, config: PipelineConfig) -> list:
    """Design stage: one inverse filter per channel of the base region."""
    with _stage("design"):
        planes, names = _channels(base, config.channel_mode)
        return [
            design_filter(plane, model, channel=name)
            for plane, name in zip(planes, names)
        ]


def _box_doc(box) -> dict:
    return {"x0": box.x0, "y0": box.y0, "x1": box.x1, "y1": box.y1}


def _hist_verdicts(planes, boxes, config: PipelineConfig):
    """Histogram evidence verdict per candidate box (static post-filter),
    on the frame's planes of the configured channel mode."""
    records = []
    for box in boxes:
        binaries = []
        fill_max = 0.0
        try:
            for plane in planes:
                ev = histogram_difference(plane, box)
                eps = (
                    config.hist_epsilon
                    if config.hist_epsilon is not None
                    else default_evidence_threshold(ev.product)
                )
                binaries.append(binarize_evidence(ev.product, eps))
            verdict, fills = density_verdict(combine_binaries(binaries))
            fill_max = float(fills.max()) if fills.size else 0.0
        except ValueError:
            # Ring unavailable (box at the margin): cannot verify, reject.
            verdict = False
        records.append((box, verdict, fill_max))
    return records


def _size(stack: ImageStack) -> str:
    rows, cols = stack.shape
    return f"{rows}x{cols} with {stack.channels} channel(s)"


def _track_window(start: int, recent, config: PipelineConfig):
    """Correlate the frame-``start`` candidates over the window ``recent``
    of (positive raster, boxes) pairs; return the confirmed boxes and the
    window's report record."""
    boxes = recent[0][1]
    state = TrackState(
        masks=tuple(raster for raster, _ in recent),
        objects=tuple(boxes),
        r_threshold=config.track_threshold,
    )
    ratios = [binary_correlation(state, i) for i in range(len(boxes))]
    confirmed = track_filter(state, ratios)
    record = {
        "frame": start,
        "boxes": [_box_doc(b) for b in boxes],
        "correlations": [float(r) for r in ratios],
        "confirmed": [_box_doc(b) for b in confirmed],
    }
    return confirmed, record


def _frame_verdicts(index: int, planes, boxes, config: PipelineConfig):
    """Histogram verdicts (or none) of one frame's candidates, judged on
    its ``planes``; return the kept boxes and the frame's report record."""
    if config.post == "hist":
        records = _hist_verdicts(planes, boxes, config)
    else:
        records = [(b, True, None) for b in boxes]
    kept = [b for b, verdict, _ in records if verdict]
    record = {
        "frame": index,
        "boxes": [_box_doc(b) for b in boxes],
        "verdicts": [bool(v) for _, v, _ in records],
        "cell_fill_max": [None if f is None else float(f) for _, _, f in records],
        "confirmed": [_box_doc(b) for b in kept],
    }
    return kept, record


def _check_track_frames(config: PipelineConfig, count: int) -> None:
    """ConfigError when a track run of ``count`` frames cannot fill one
    window."""
    if config.post == "track" and count < config.track_window:
        raise ConfigError("track_window: more frames than provided are required")


def run_pipeline(config: PipelineConfig, frames) -> PipelineResult:
    """Run the full chain over an iterable of frames, one frame at a time.

    Frame 0 supplies the base region and fixes the shape and channel count
    of every later frame.  Each frame is filtered, detected and, for the
    hist and none post-filters, judged before the next one is taken from
    ``frames``.  The track post-filter keeps the positive rasters and boxes
    of the last ``track_window`` frames and correlates the window starting
    at frame k - L + 1 once frame k has been detected.  Of the detection
    masks only frame 0's is kept.  Each frame is filtered and detected one
    strip of ``_strip_rows`` output rows at a time: rows a..b-1 are
    filtered from source rows a..b+P-2 into the leading rows of each
    channel's one ``FilterBuffers`` set, then detected into verdict rows
    a..b-1 (the last strip's run to the frame's end).  The run makes the
    sets once.
    """
    frames = iter(frames)
    first = next(frames, None)
    if first is None:
        raise ConfigError("frames: at least one frame is required")
    base, model, diag = estimate(first, config)
    filters = design(base, model, config)
    p, q = filters[0].order
    ox, oy = valid = (first.shape[0] - p + 1, first.shape[1] - q + 1)
    step = min(_strip_rows(oy), ox)
    with _stage("filter+detect"):
        sets = filter_buffers((step + p - 1, first.shape[1]), filters)

    first_mask = None
    recent = []
    per_frame_boxes = []
    frames_doc = []
    confirmed_all = []
    # Frames are taken outside every stage, so a frame that cannot be read
    # keeps its own error type and message.
    for index, frame in enumerate(chain((first,), frames)):
        if (frame.shape, frame.channels) != (first.shape, first.channels):
            raise ConfigError(
                f"frames: frame {index} is {_size(frame)}, frame 0 is {_size(first)}"
            )
        with _stage("filter+detect"):
            planes, _ = _channels(frame, config.channel_mode)
            verdicts = np.empty(frame.shape, dtype=bool)
            for a in range(0, ox, step):
                b = min(a + step, ox)
                rows = slice(a, b if b < ox else frame.shape[0])
                detect(
                    [apply_filter(plane[a : b + p - 1], irf, out=bufs)
                     for plane, irf, bufs in zip(planes, filters, sets)],
                    filters,
                    [plane[rows] for plane in planes],
                    multiplier=config.sigma_multiplier,
                    out=verdicts[rows],
                )
            mask = DetectionMask(verdicts, valid)
            boxes = connected_components(mask.positive(), min_area=config.min_area)
        if index == 0:
            first_mask = mask
        per_frame_boxes.append(boxes)
        if config.post == "track":
            recent.append((mask.positive(), boxes))
            del recent[: -int(config.track_window)]
            if len(recent) < config.track_window:
                continue
            with _stage("track"):
                confirmed, record = _track_window(index + 1 - len(recent), recent, config)
        else:
            with _stage("post-filter"):
                confirmed, record = _frame_verdicts(index, planes, boxes, config)
        confirmed_all.append(confirmed)
        frames_doc.append(record)
    _check_track_frames(config, len(per_frame_boxes))

    model_doc = model_to_doc(model, filters, diagnostics=diag)
    report = RunReport(
        config=_config_doc(config),
        model=model_doc,
        frames=frames_doc,
    )
    return PipelineResult(
        report=report,
        model=model,
        filters=filters,
        mask=first_mask,
        boxes=per_frame_boxes,
        confirmed=confirmed_all,
    )


def _config_doc(config: PipelineConfig) -> dict:
    doc = asdict(config)
    doc["base_region"] = [int(v) for v in doc["base_region"]]
    doc["order"] = [int(v) for v in doc["order"]]
    # validate() admits NumPy integers, which JSON does not encode
    return {k: v.item() if isinstance(v, np.integer) else v for k, v in doc.items()}
