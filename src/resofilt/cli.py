"""Command-line surface of the toolkit.

Subcommands: synth (fixture generator), estimate, design, filter, detect,
track, report.  Exit codes: 0 ok, 1 usage/configuration error, 2 input
parse error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import fields

import numpy as np

from .errors import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    ImageFormatError,
    NumericError,
    ResofiltError,
)
from .filtering import apply_filter
from .harmonic import synth_texture
from .imageio import ImageStack, draw_boxes, read_image, write_image
from .model_doc import RunReport, doc_to_model, dump_json, load_json, model_to_doc
from .pipeline import _CHANNELS, PipelineConfig, _channels, _check_track_frames
from .pipeline import design, estimate, run_pipeline

# Not called here: the benchmark's tracer (perfbench/tracing.py BINDINGS)
# wraps these two names of this module and fails when they are missing.
from .filtering import design_filter  # noqa: F401
from .pipeline import estimate_model  # noqa: F401


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _ints(count: int):
    """argparse type of ``count`` comma-separated integers."""
    word = {2: "two", 4: "four"}[count]

    def parse(text: str):
        try:
            values = tuple(int(p) for p in text.split(","))
        except ValueError:
            values = ()
        if len(values) != count:
            raise argparse.ArgumentTypeError(f"expected {word} comma-separated integers")
        return values

    return parse


def _pair_spec(text: str):
    parts = text.split(",")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError("expected fx,fy,amplitude[,phase]")
    fx, fy, amp = (float(p) for p in parts[:3])
    phase = float(parts[3]) if len(parts) == 4 else 0.0
    return (fx, fy, amp, phase)


def _listed(values) -> str:
    return ",".join(str(v) for v in values)


def _add_common_estimation(p: _Parser):
    p.add_argument("--base", dest="base_region", type=_ints(4), metavar="ROW,COL,H,W",
                   help=f"base region (default {_listed(PipelineConfig.base_region)})")
    p.add_argument("--order", type=_ints(2), metavar="P,Q",
                   help=f"model order per axis (default {_listed(PipelineConfig.order)}); "
                        "the pencil estimator needs P = Q")
    p.add_argument("--estimator", choices=("ls", "pencil"))
    p.add_argument("--split", type=int,
                   help="splitting parameter of the pencil estimator, in "
                        "[P, min(H, W) - 2] of the base region")


def _add_common_detection(p: _Parser):
    p.add_argument("--channels", dest="channel_mode", choices=tuple(_CHANNELS))
    p.add_argument("--multiplier", dest="sigma_multiplier", type=float, metavar="MULTIPLIER")
    p.add_argument("--min-area", type=int)


def _config_from_args(args) -> PipelineConfig:
    """The config of the pipeline options given; one not given is absent
    from ``args`` and keeps its ``PipelineConfig`` default."""
    given = vars(args)
    return PipelineConfig(**{f.name: given[f.name] for f in fields(PipelineConfig)
                             if f.name in given})


def build_parser() -> _Parser:
    parser = _Parser(prog="resofilt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic texture")
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=_ints(2), default=(128, 128), metavar="NX,NY")
    p.add_argument("--pair", type=_pair_spec, action="append", default=[],
                   metavar="FX,FY,AMP[,PHASE]", help="harmonic pair (repeatable)")
    p.add_argument("--mean", type=float, default=128.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--patch", type=_ints(4), default=None, metavar="ROW,COL,H,W",
                   help="insert a constant patch")
    p.add_argument("--patch-value", type=float, default=200.0)
    p.add_argument("--frames", type=int, default=1,
                   help="emit N frames; {i} in --out becomes the frame index "
                        "(required when N > 1)")

    # The pipeline subcommands leave an option that is not given out of the
    # namespace, so that PipelineConfig alone holds the defaults.
    p = sub.add_parser("estimate", help="estimate the resonance model",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--input", required=True)
    _add_common_estimation(p)
    p.add_argument("--model-out", default=None)
    p.add_argument("--report-out", default=None, help="diagnostics dump")

    p = sub.add_parser("design", help="estimate and design per-channel filters",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--input", required=True)
    _add_common_estimation(p)
    p.add_argument("--channels", dest="channel_mode", choices=tuple(_CHANNELS))
    p.add_argument("--model-out", required=True)

    p = sub.add_parser("filter", help="apply designed filters to an image")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("detect", help="full anomaly-detection run on one image",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--input", required=True)
    _add_common_estimation(p)
    _add_common_detection(p)
    p.add_argument("--post", choices=("hist", "none"))
    p.add_argument("--hist-epsilon", type=float,
                   help="evidence threshold (default: mean + 2 std policy)")
    p.add_argument("--mask-out", default=None)
    p.add_argument("--overlay-out", default=None)
    p.add_argument("--report-out", default=None)
    p.add_argument("--timings", action="store_true", default=False,
                   help="include wall-clock timings in the report")

    p = sub.add_parser("track", help="dynamic run over consecutive frames",
                       argument_default=argparse.SUPPRESS)
    p.set_defaults(post="track")
    p.add_argument("--inputs", nargs="+", required=True)
    _add_common_estimation(p)
    _add_common_detection(p)
    p.add_argument("--window", dest="track_window", type=int, metavar="WINDOW",
                   help="frame window L")
    p.add_argument("--threshold", dest="track_threshold", type=float, metavar="THRESHOLD",
                   help="correlation threshold")
    p.add_argument("--report-out", default=None)

    p = sub.add_parser("report", help="pretty-print a report or model document")
    p.add_argument("--path", required=True)

    return parser


# One parser serves every call: parsing reads it and never changes it
# (``append`` copies its default list before adding to it).
_PARSER = build_parser()


def _cmd_synth(args) -> int:
    nx, ny = args.size
    if nx < 1 or ny < 1:
        raise ConfigError(f"size: {nx},{ny} is not a positive size")
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise ConfigError(f"noise: {args.noise} is not a finite number >= 0")
    if args.frames < 1:
        raise ConfigError(f"frames: {args.frames} is not a positive count")
    if args.seed < 0:
        raise ConfigError(f"seed: {args.seed} is not an integer >= 0")
    values = [("mean", args.mean), ("patch-value", args.patch_value)]
    values += [("pair", v) for pair in args.pair for v in pair[2:]]  # amplitude, phase
    for name, value in values:
        if not math.isfinite(value):
            raise ConfigError(f"{name}: {value} is not a finite number")
    try:
        image = synth_texture(args.pair, nx, ny, noise_sigma=0.0, mean=args.mean)
    except ValueError as exc:
        raise ConfigError(f"pair: {exc}") from exc
    if args.patch is not None:
        r, c, h, w = args.patch
        if r < 0 or c < 0 or h < 1 or w < 1 or r + h > nx or c + w > ny:
            raise ConfigError(
                f"patch: {r},{c},{h},{w} is not wholly inside the {nx}x{ny} image"
            )
        image[r : r + h, c : c + w] = args.patch_value
    if args.frames > 1 and "{i}" not in args.out:
        raise ConfigError("frames: --out must contain '{i}' when --frames > 1")
    for i in range(args.frames):
        out = image.copy()
        if args.noise:
            out += np.random.default_rng(args.seed + i).normal(0, args.noise, out.shape)
        path = args.out.replace("{i}", str(i))
        write_image(path, ImageStack((out,)))
    return EXIT_OK


def _cmd_estimate(args) -> int:
    _, model, diag = estimate(read_image(args.input), _config_from_args(args))
    doc = model_to_doc(model, diagnostics=diag)
    text = dump_json(doc, args.model_out)
    if getattr(args, "report_out", None):
        dump_json(doc.get("diagnostics", {}), args.report_out)
    if not args.model_out:
        print(text)
    return EXIT_OK


def _cmd_design(args) -> int:
    config = _config_from_args(args)
    base, model, diag = estimate(read_image(args.input), config)
    filters = design(base, model, config)
    dump_json(model_to_doc(model, filters, diagnostics=diag), args.model_out)
    return EXIT_OK


def _cmd_filter(args) -> int:
    stack = read_image(args.input)
    model, filters = doc_to_model(load_json(args.model))
    if not filters:
        raise ConfigError("model: the document carries no designed filters")
    channels = [f.channel for f in filters]
    modes = [mode for mode, names in _CHANNELS.items() if list(names) == channels]
    if not modes:
        known = " or ".join(str(list(names)) for names in _CHANNELS.values())
        raise ConfigError(f"model: the filters' channels are {channels}, not {known} in order")
    planes, _ = _channels(stack, modes[0])
    for plane, f in zip(planes, filters):
        if plane.shape[0] < f.kernel.shape[0] or plane.shape[1] < f.kernel.shape[1]:
            raise ConfigError(
                f"model: {f.channel} kernel {f.kernel.shape} is larger than the "
                f"image {plane.shape}"
            )
    filtered = [apply_filter(p, f) for p, f in zip(planes, filters)]
    write_image(args.out, ImageStack(tuple(filtered)))
    return EXIT_OK


def _run_and_write(args, frames, first=None) -> int:
    """Run the pipeline and write what ``args`` asks for; ``first`` is
    frame 0, whose channel planes ``--mask-out`` masks with its verdicts
    and on which ``--overlay-out`` draws."""
    config = _config_from_args(args)
    t0 = time.perf_counter()
    result = run_pipeline(config, frames)
    result.report.timings["total_s"] = time.perf_counter() - t0
    if getattr(args, "mask_out", None):
        # no name holds the mask planes, so they are freed before the overlay copy
        flagged = result.mask.positive()
        write_image(args.mask_out, ImageStack(
            tuple(p * flagged for p in _channels(first, config.channel_mode)[0])))
    if getattr(args, "overlay_out", None):
        write_image(args.overlay_out, draw_boxes(first, result.confirmed[0]))
    if getattr(args, "report_out", None):
        include = bool(getattr(args, "timings", False))
        dump_json(result.report.to_doc(include_timings=include), args.report_out)
    for frame_doc in result.report.frames:
        kept = frame_doc["confirmed"]
        print(f"frame {frame_doc['frame']}: {len(frame_doc['boxes'])} candidates, "
              f"{len(kept)} confirmed")
        for box in kept:
            print(f"  box x0={box['x0']} y0={box['y0']} x1={box['x1']} y1={box['y1']}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    stack = read_image(args.input)
    return _run_and_write(args, [stack], first=stack)


def _cmd_track(args) -> int:
    # refused before any frame is read, filtered and detected
    _check_track_frames(_config_from_args(args), len(args.inputs))
    # a generator: the pipeline reads each frame when it reaches it
    frames = (read_image(path) for path in args.inputs)
    return _run_and_write(args, frames)


def _cmd_report(args) -> int:
    doc = load_json(args.path)
    if doc.get("kind") == "run-report":
        report = RunReport.from_doc(doc)
        print(f"run report: {len(report.frames)} frame record(s)")
        print(f"model order: {report.model.get('order')}")
        for frame_doc in report.frames:
            print(f"frame {frame_doc['frame']}: {len(frame_doc.get('boxes', []))} candidates, "
                  f"{len(frame_doc.get('confirmed', []))} confirmed")
    elif doc.get("kind") == "resonance-model":
        model, filters = doc_to_model(doc)
        print(f"resonance model: order {list(model.order)}, "
              f"fit residual {model.fit_residual:.3g}, {len(filters)} filter(s)")
        for f in filters:
            print(f"  channel {f.channel}: flat level {f.flat_level:.4g}, "
                  f"sigma2 {f.sigma2:.4g}")
    else:
        raise ImageFormatError(f"unknown document kind {doc.get('kind')!r}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "estimate": _cmd_estimate,
    "design": _cmd_design,
    "filter": _cmd_filter,
    "detect": _cmd_detect,
    "track": _cmd_track,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"resofilt: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ImageFormatError as exc:
        print(f"resofilt: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"resofilt: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ResofiltError as exc:
        print(f"resofilt: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
