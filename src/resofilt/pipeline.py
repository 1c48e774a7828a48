"""End-to-end orchestration: estimate, design, filter, detect, post-filter.

The pipeline estimates resonance roots on the base region of the first
frame (shared across channels), fits amplitudes and designs one inverse
filter per channel, then streams the frames: each one is filtered,
thresholded by the union rule and split into candidate boxes, which the
static histogram post-filter judges at once and the dynamic cross-frame
correlation filter judges once the window of L frames they open is
complete.  A run holds one frame at a time, plus the boolean rasters of
the last L frames and frame 0's mask; each channel's filter writes into
one output buffer that the run allocates once and reuses for every frame.

Stages run sequentially and deterministically: identical configuration
and inputs produce identical reports and masks.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, NumericError, ResofiltError
from .filtering import DetectionMask, apply_filter, design_filter, detect, filter_buffer
from .harmonic import HarmonicModel
from .imageio import ImageStack
from .linear_symmetry import estimate_model_ls
from .model_doc import RunReport, model_to_doc
from .pencil import default_split, estimate_model_pencil
from .postfilter import (
    TrackedObject,
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
_CHANNEL_MODES = ("gray", "rgb")
_POSTS = ("hist", "track", "none")


def _finite_number(value) -> bool:
    """An int or float (not a bool) that is neither NaN nor infinite."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and math.isfinite(value)


def _integer(value) -> bool:
    """A Python or NumPy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _valid_e_policy(policy) -> bool:
    return policy == "mean" if isinstance(policy, str) else _finite_number(policy)


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
    with them.
    """

    base_region: tuple = (0, 0, 64, 64)
    order: tuple = (16, 16)
    estimator: str = "ls"
    symmetric: bool = True
    channel_mode: str = "gray"
    sigma_multiplier: float = 3.0
    min_area: int = 4
    e_policy: object = "mean"
    dc_root: bool = True
    project_roots: bool = True
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
        if self.estimator == "ls" and self.symmetric and (p % 2 or q % 2):
            raise ConfigError("order: symmetric estimation needs even orders")
        if not _valid_e_policy(self.e_policy):
            raise ConfigError(
                f"e_policy: unknown value {self.e_policy!r}; "
                "expected 'mean' or a finite number"
            )
        if self.channel_mode not in _CHANNEL_MODES:
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
    """Planes and channel names of a mode: the gray plane, or three planes
    (an image without three planes gives its gray plane three times)."""
    if mode == "gray":
        return [stack.gray()], ["gray"]
    if stack.channels == 3:
        return list(stack.planes), ["r", "g", "b"]
    return [stack.gray()] * 3, ["r", "g", "b"]


def estimate_model(base: np.ndarray, config: PipelineConfig):
    """Root estimation on one base-region plane, per the configured method."""
    p, q = (int(v) for v in config.order)
    if config.estimator == "ls":
        return estimate_model_ls(
            base,
            p,
            q,
            symmetric=config.symmetric,
            project=config.project_roots,
            dc_root=config.dc_root,
        )
    return estimate_model_pencil(
        base,
        p,
        split=config.split,
        project=config.project_roots,
        dc_root=config.dc_root,
    )


def estimate(stack: ImageStack, config: PipelineConfig):
    """Estimate stage: validate ``config`` against the frame's shape, cut
    the base region once and estimate the model on its gray plane.

    Returns (base region as an ImageStack, HarmonicModel, diagnostics).
    Unless the run designs on three colour planes, the returned base
    region is its gray plane alone, so a run builds that plane once.
    """
    config.validate(image_shape=stack.shape)
    x, y, h, w = (int(v) for v in config.base_region)
    with _stage("estimate"):
        base = ImageStack(tuple(p[x : x + h, y : y + w] for p in stack.planes))
        gray = base.gray()
        if config.channel_mode == "gray" or base.channels != 3:
            base = ImageStack((gray,))
        model, diag = estimate_model(gray, config)
    return base, model, diag


def _require_designable(config: PipelineConfig):
    if not config.dc_root:
        raise ConfigError(
            "dc_root: filter design needs the unit root; only estimate runs without it"
        )


def design(base: ImageStack, model: HarmonicModel, config: PipelineConfig) -> list:
    """Design stage: one inverse filter per channel of the base region.

    A config without ``dc_root`` is a ConfigError: the design is built on
    the unit root.
    """
    _require_designable(config)
    with _stage("design"):
        planes, names = _channels(base, config.channel_mode)
        return [
            design_filter(plane, model, e_policy=config.e_policy, channel=name)
            for plane, name in zip(planes, names)
        ]


def _diag_doc(diag) -> dict:
    out = {}
    for key, value in asdict(diag).items():
        if isinstance(value, np.ndarray):
            out[key] = [float(v) for v in value]
        elif isinstance(value, np.bool_):
            out[key] = bool(value)
        elif isinstance(value, (np.floating, np.integer)):
            out[key] = float(value)
        else:
            out[key] = value
    return out


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
    objects = tuple(
        TrackedObject(center=b.center, size=(b.height, b.width), box=b) for b in boxes
    )
    state = TrackState(
        masks=tuple(raster for raster, _ in recent),
        objects=objects,
        r_threshold=config.track_threshold,
    )
    ratios = [binary_correlation(state, i) for i in range(len(objects))]
    confirmed = track_filter(state, ratios=ratios)
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


def run_pipeline(config: PipelineConfig, frames) -> PipelineResult:
    """Run the full chain over an iterable of frames, one frame at a time.

    Frame 0 supplies the base region and fixes the shape and channel count
    of every later frame.  Each frame is filtered, detected and, for the
    hist and none post-filters, judged before the next one is taken from
    ``frames``.  The track post-filter keeps the positive rasters and boxes
    of the last ``track_window`` frames and correlates the window starting
    at frame k - L + 1 once frame k has been detected.  Of the detection
    masks only frame 0's is kept.  Every frame's filter output for a
    channel lands in the same buffer, allocated once per run.
    """
    frames = iter(frames)
    first = next(frames, None)
    if first is None:
        raise ConfigError("frames: at least one frame is required")
    _require_designable(config)
    base, model, diag = estimate(first, config)
    filters = design(base, model, config)
    with _stage("filter+detect"):
        outs = [filter_buffer(first.shape, irf) for irf in filters]

    first_mask = None
    recent = deque(maxlen=int(config.track_window))
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
            mask = detect(
                [apply_filter(p, irf, out=out) for p, irf, out in zip(planes, filters, outs)],
                filters,
                planes,
                multiplier=config.sigma_multiplier,
            )
            boxes = connected_components(mask.positive(), min_area=config.min_area)
        if index == 0:
            first_mask = mask
        per_frame_boxes.append(boxes)
        if config.post == "track":
            recent.append((mask.positive(), boxes))
            if len(recent) < recent.maxlen:
                continue
            with _stage("track"):
                confirmed, record = _track_window(index + 1 - len(recent), recent, config)
        else:
            with _stage("post-filter"):
                confirmed, record = _frame_verdicts(index, planes, boxes, config)
        confirmed_all.append(confirmed)
        frames_doc.append(record)
    if config.post == "track" and len(per_frame_boxes) < config.track_window:
        raise ConfigError("track_window: more frames than provided are required")

    model_doc = model_to_doc(model, filters, extra=_diag_doc(diag))
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
