"""Benchmark of the resofilt command line, run in-process on seeded fixtures.

    python3 perfbench/run.py --workload static-1024 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload track-rgb --seed 1 --seconds 2 --trace 1 --smoke

Each run generates the workload's scenes from the seed (in a child
process, outside every measurement), then drives ``resofilt.cli.main``
in a closed loop with one client: one untimed warm-up call, then
``detect``/``track`` calls for ``--seconds`` seconds, with the timed
``design`` calls of the set-up time spread among them.  Every call's exit
code and outputs are checked.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics (self times
and exact counters) plus the tracing overhead.  The last line of standard
output is one JSON object; a results file with the fixture parameters and
machine facts goes to ``perfbench/out/``.  The exit code is 0 when every
check passed, 1 when one failed and 2 when the program cannot be loaded.
See ``perfbench/README.md`` for the rationale.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1  # steadier than 2 on a shared 2-core machine; see README.md
SETUP_REPEATS = 7
SETUP_SECONDS = 2.0


class Workload:
    """One workload: its fixture recipe and the CLI calls it makes."""

    def __init__(self, name, scenes, estimator, order, channels, run_args, outputs, spans):
        self.name = name
        self.scenes = scenes  # independent scenes cycled through by the loop
        self.estimator = estimator
        self.order = order
        self.channels = channels
        self.run_args = run_args  # (inputs, outdir) -> argv
        self.outputs = outputs  # files the run call writes into outdir
        self.spans = spans  # span names a traced run must record

    def design_argv(self, scene_dir, truth):
        return ["design", "--input", os.path.join(scene_dir, truth["inputs"][0]),
                "--order", self.order, "--estimator", self.estimator,
                "--channels", self.channels,
                "--model-out", os.path.join(scene_dir, "model.json")]


_COMMON_SPANS = {
    "cli.main", "imageio.read_image", "pipeline.run_pipeline", "pipeline.estimate_model",
    "filtering.design_filter", "filtering.apply_filter", "filtering.detect",
    "postfilter.connected_components", "model_doc.model_to_doc", "model_doc.dump_json",
}
_HIST_SPANS = {"postfilter.histogram_difference", "postfilter.density_verdict"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "static-1024", 4, "ls", "16,16", "gray",
            lambda inputs, out: [
                "detect", "--input", inputs[0], "--order", "16,16", "--estimator", "ls",
                "--hist-epsilon", "0.05", "--mask-out", os.path.join(out, "mask.pgm"),
                "--overlay-out", os.path.join(out, "overlay.pgm"),
                "--report-out", os.path.join(out, "report.json")],
            ("mask.pgm", "overlay.pgm", "report.json"),
            _COMMON_SPANS | _HIST_SPANS | {"linear_symmetry.estimate_model_ls",
                                           "imageio.write_image"},
        ),
        Workload(
            "pencil-256", 12, "pencil", "4,4", "gray",
            lambda inputs, out: [
                "detect", "--input", inputs[0], "--estimator", "pencil", "--order", "4,4",
                "--hist-epsilon", "0.05", "--report-out", os.path.join(out, "report.json")],
            ("report.json",),
            _COMMON_SPANS | _HIST_SPANS | {"pencil.estimate_model_pencil"},
        ),
        Workload(
            "track-rgb", 4, "ls", "8,8", "rgb",
            lambda inputs, out: [
                "track", "--inputs", *inputs, "--channels", "rgb", "--order", "8,8",
                "--window", "3", "--threshold", "0.3",
                "--report-out", os.path.join(out, "report.json")],
            ("report.json",),
            _COMMON_SPANS | {"linear_symmetry.estimate_model_ls",
                             "postfilter.binary_correlation", "postfilter.track_filter"},
        ),
    )
}

# Per-layer time metric: the span names whose self times it sums.
LAYER_TIMES = {
    "filtering.apply_s": ("filtering.apply_filter",),
    "filtering.design_s": ("filtering.design_filter",),
    "filtering.detect_s": ("filtering.detect",),
    "pencil.estimate_s": ("pencil.estimate_model_pencil",),
    "linear_symmetry.estimate_s": ("linear_symmetry.estimate_model_ls",),
    "postfilter.components_s": ("postfilter.connected_components",),
    "postfilter.hist_s": ("postfilter.histogram_difference", "postfilter.density_verdict"),
    "postfilter.track_s": ("postfilter.track_filter", "postfilter.binary_correlation"),
    "pipeline.self_s": ("pipeline.run_pipeline", "pipeline.estimate_model"),
    "imageio.read_s": ("imageio.read_image",),
    "imageio.write_s": ("imageio.write_image",),
    "model_doc.dump_s": ("model_doc.dump_json",),
    "model_doc.to_doc_s": ("model_doc.model_to_doc",),
    "cli.self_s": ("cli.main",),
}


# ---------------------------------------------------------------- helpers

def _median(samples) -> float:
    """Median, or NaN when every call failed."""
    return statistics.median(samples) if samples else float("nan")


def tail(samples):
    """(value, percentile) of the highest percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return (ordered[-1] if ordered else float("nan")), 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _area(box) -> int:
    return (box[2] - box[0] + 1) * (box[3] - box[1] + 1)


def iou(a, b) -> float:
    """Intersection over union of two inclusive [x0, y0, x1, y1] boxes."""
    x0, y0 = max(a[0], b[0]), max(a[1], b[1])
    x1, y1 = min(a[2], b[2]), min(a[3], b[3])
    if x0 > x1 or y0 > y1:
        return 0.0
    inter = _area((x0, y0, x1, y1))
    return inter / (_area(a) + _area(b) - inter)


def score(report: dict, truth: dict) -> dict:
    """Detection quality of one report against the generator's ground truth."""
    objects = hits = confirmed = true_boxes = 0
    ious = []
    for frame in report["frames"]:
        planted = truth["objects"][frame["frame"]]
        boxes = [[b["x0"], b["y0"], b["x1"], b["y1"]] for b in frame["confirmed"]]
        for obj in planted:
            best = max((iou(obj, b) for b in boxes), default=0.0)
            objects += 1
            hits += best > 0.0
            ious.append(best)
        confirmed += len(boxes)
        true_boxes += sum(any(iou(obj, b) > 0.0 for obj in planted) for b in boxes)
    return {"objects": objects, "hits": hits, "iou_sum": sum(ious),
            "confirmed": confirmed, "true_boxes": true_boxes,
            "frames": len(report["frames"])}


def check_model(doc: dict):
    """Degenerate-output guard on a design model document."""
    problems = []
    if doc.get("kind") != "resonance-model" or not doc.get("filters"):
        problems.append("design: not a model document with filters")
    for f in doc.get("filters", []):
        if not f["sigma2"] > 0.0:
            problems.append(f"design: channel {f['channel']} has sigma2 = {f['sigma2']}")
        if not any(v != 0.0 for row in f["kernel"] for v in row):
            problems.append(f"design: channel {f['channel']} has an all-zero kernel")
    return problems


def machine_facts(blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


# ---------------------------------------------------------------- the run

class Session:
    """CLI calls of one benchmark process, with their checks."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed_calls = set()
        self.problems = []

    @property
    def failed(self) -> int:
        return len(self.failed_calls)

    def call(self, argv, tracer=None):
        """One in-process CLI call; returns (exit code, wall seconds)."""
        sink = io.StringIO()
        self.attempted += 1
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.main(argv)
                else:
                    with tracer.span("cli.main"):
                        code = self.main(argv)
            except Exception:  # a traceback is a failed run, not a crash of the benchmark
                code = traceback.format_exc()
            elapsed = time.perf_counter() - start
        if code != 0:
            self.fail(f"{argv[0]} exited with {code!r}: {sink.getvalue()[-2000:]}")
        return code, elapsed

    def fail(self, message: str):
        """Record a failed check; it fails the most recent call."""
        self.failed_calls.add(self.attempted)
        self.problems.append(message)


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Generate, warm up, measure and check one workload; return the results."""
    from resofilt.cli import main
    from resofilt.model_doc import RunReport

    import tracing

    wl = WORKLOADS[name]
    n_scenes = 1 if smoke else wl.scenes
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        cmd = [sys.executable, os.path.join(HERE, "fixtures.py"), "--workload", name,
               "--seed", str(seed), "--out", work, "--scenes", str(n_scenes)]
        subprocess.run(cmd + (["--smoke"] if smoke else []), check=True, timeout=120)
        scenes = []
        for k in range(n_scenes):
            scene_dir = os.path.join(work, f"scene{k}")
            with open(os.path.join(scene_dir, "truth.json"), encoding="utf-8") as fh:
                truth = json.load(fh)
            inputs = [os.path.join(scene_dir, p) for p in truth["inputs"]]
            scenes.append({"dir": scene_dir, "truth": truth,
                           "argv": wl.run_args(inputs, scene_dir),
                           "outputs": [os.path.join(scene_dir, p) for p in wl.outputs]})

        session = Session(main)
        quality = []

        def check_outputs(sc) -> None:
            """The first good run of a scene is parsed and scored; later runs
            of it must write the same bytes."""
            if "digest" in sc:
                if _digest(sc["outputs"]) != sc["digest"]:
                    session.fail(f"outputs of {sc['dir']} differ between two runs")
                return
            try:
                with open(sc["outputs"][-1], encoding="utf-8") as fh:
                    report = json.load(fh)
                RunReport.from_doc(report)
            except Exception as exc:  # noqa: BLE001 - any parse failure fails the check
                session.fail(f"report of {sc['dir']} is not a run-report: {exc!r}")
                return
            sc["digest"] = _digest(sc["outputs"])
            quality.append(score(report, sc["truth"]))
            if quality[-1]["hits"] == 0:
                session.fail(f"no planted object confirmed in {sc['dir']}")

        # Warm-up: the first call pays one-off library set-up and is not timed.
        if session.call(scenes[0]["argv"])[0] == 0:
            check_outputs(scenes[0])

        # Set-up: design on the first frame of scene 0.  The first call warms
        # up and sets the reference model; the timed calls are spread over
        # the closed loop below, so that setup_s sees the same stretch of
        # machine load as the run calls.  There are at least SETUP_REPEATS of
        # them, lasting at least SETUP_SECONDS in total.
        first = scenes[0]
        design = wl.design_argv(first["dir"], first["truth"])
        repeats, budget = (2, 0.0) if smoke else (SETUP_REPEATS, SETUP_SECONDS)
        setup, model = [], {}

        def design_once() -> bool:
            code, elapsed = session.call(design)
            if code != 0:
                return False
            with open(design[-1], "rb") as fh:
                raw = fh.read()
            if "bytes" not in model:
                model["bytes"] = raw
                for problem in check_model(json.loads(raw)):
                    session.fail(problem)
            else:
                setup.append(elapsed)
                if raw != model["bytes"]:
                    session.fail("design: two calls wrote different model documents")
            return True

        def setup_due(progress: float) -> bool:
            return len(setup) < repeats * progress or sum(setup) < budget * progress

        design_ok = design_once()

        # Timed closed loop.  With tracing, untraced and traced calls alternate.
        tracer = tracing.Tracer() if trace else None
        untraced, traced, traced_runs = [], [], []
        start = time.perf_counter()
        i = 0
        while time.perf_counter() < start + seconds or i < 2 * len(scenes):
            progress = min(1.0, (time.perf_counter() - start) / seconds) if seconds else 0.0
            if design_ok and setup_due(progress):
                design_ok = design_once()
                continue
            use_trace = trace and i % 2 == 1
            sc = scenes[(i // 2 if trace else i) % len(scenes)]
            i += 1
            if use_trace:
                tracer.run_id = i
                mark = len(tracer.spans)
                with tracer.installed():
                    code, elapsed = session.call(sc["argv"], tracer)
            else:
                code, elapsed = session.call(sc["argv"])
            if code != 0:
                continue
            check_outputs(sc)
            if use_trace:
                counts = tracing.counters(tracer.spans[mark:])
                if "counts" in sc and sc["counts"] != counts:
                    session.fail(f"counters of {sc['dir']} differ between two runs")
                sc.setdefault("counts", counts)
                traced.append(elapsed)
                traced_runs.append(i)
            else:
                untraced.append(elapsed)
        while design_ok and setup_due(1.0):
            design_ok = design_once()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        truth = first["truth"]
        pixels = len(truth["inputs"]) * truth["channels"] * truth["shape"][0] * truth["shape"][1]
        total = {k: sum(q[k] for q in quality) for k in
                 ("objects", "hits", "iou_sum", "confirmed", "true_boxes", "frames")}
        p50 = _median(untraced)
        tail_value, tail_pct = tail(untraced)
        e2e = {
            "setup_s": (_median(setup), "s"),
            "run_s.p50": (p50, "s"),
            "run_s.tail": (tail_value, "s"),
            "mpix_per_s": (pixels / 1e6 / p50, "Mpx/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "recall": (total["hits"] / max(total["objects"], 1), "ratio"),
            "precision": (total["true_boxes"] / max(total["confirmed"], 1), "ratio"),
            "box_iou": (total["iou_sum"] / max(total["objects"], 1), "ratio"),
        }
        extra = {
            "false_alarms": ((total["confirmed"] - total["true_boxes"]) / max(total["frames"], 1),
                             "1/frame"),
            "failed_frac": (session.failed / max(session.attempted, 1), "ratio"),
            "run_s.samples": (len(untraced), "count"),
            "run_s.tail_pct": (tail_pct, "%"),
        }
        result = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "smoke": smoke, "pixels_per_run": pixels,
            "fixtures": [sc["truth"] for sc in scenes],
            "quality_totals": total,
            "end_to_end": e2e, "extra": extra,
            "run_s_samples": untraced, "setup_s_samples": setup,
            "attempted": session.attempted, "failed": session.failed,
            "problems": session.problems,
        }
        if trace:
            result.update(layer_metrics(wl, tracer, traced_runs, scenes, traced, untraced, session))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(wl, tracer, traced_runs, scenes, traced, untraced, session) -> dict:
    """Per-layer metrics of the traced calls: median self times, exact counts."""
    import tracing

    seen = {s.name for s in tracer.spans}
    for name in sorted(wl.spans - seen):
        session.fail(f"trace: span {name} was never recorded")
    per_run = tracing.self_times(tracer.spans)
    runs = [per_run.get(r, {}) for r in traced_runs]
    layers = {}
    for metric, names in LAYER_TIMES.items():
        layers[metric] = (_median([sum(r.get(n, 0.0) for n in names) for r in runs]), "s")
    counts = [sc.get("counts") for sc in scenes]
    if None in counts:
        session.fail("trace: a scene has no traced run")
        counts = [c for c in counts if c is not None] or [tracing.counters([])]
    mean = {k: sum(c[k] for c in counts) / len(counts) for k in counts[0]}
    apply_s = layers["filtering.apply_s"][0]
    layers.update({
        "filtering.apply_calls": (mean["apply_calls"], "count"),
        "filtering.apply_gmac_per_s": (mean["macs"] / 1e9 / apply_s if apply_s else 0.0, "GMAC/s"),
        "filtering.flagged_px": (mean["flagged_px"], "count"),
        "postfilter.candidates": (mean["candidates"], "count"),
        "postfilter.hist_confirmed_ratio": (
            mean["hist_confirmed"] / mean["hist_boxes"] if mean["hist_boxes"] else 0.0, "ratio"),
        "postfilter.hist_ring_missing": (mean["hist_ring_missing"], "count"),
        "postfilter.corr_calls_per_object": (
            mean["corr_calls"] / mean["track_objects"] if mean["track_objects"] else 0.0, "ratio"),
        "imageio.bytes": (mean["image_bytes"], "bytes"),
        "model_doc.report_bytes": (mean["report_bytes"], "bytes"),
        "trace.overhead_s": (_median(traced) - _median(untraced), "s"),
    })
    selfs = {m: v for m, (v, _) in layers.items() if m in LAYER_TIMES}
    return {
        "per_layer": layers,
        "counters_per_scene": counts,
        "largest_self": max(selfs, key=selfs.get),
        "spans": tracer.to_doc(),
    }


# ---------------------------------------------------------------- entry

def _load_program():
    """Import resofilt from this checkout's src/, or exit 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "resofilt", "cli.py")):
        print(f"perfbench: no resofilt sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import resofilt

    if os.path.dirname(os.path.dirname(os.path.abspath(resofilt.__file__))) != src:
        print(f"perfbench: resofilt imported from {resofilt.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small frames, quick check")
    args = parser.parse_args(argv)

    blas_threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:  # must precede the first numpy import
        os.environ[var] = str(blas_threads)
    _load_program()

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    result["machine"] = machine_facts(blas_threads)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    shown = dict(metrics) if args.trace else {**metrics, **result["extra"]}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    if args.trace:
        with open(os.path.join(OUT, tag + ".spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "run_id", "error"],
                       "spans": result.pop("spans")}, fh)
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"machine={json.dumps(result['machine'], sort_keys=True)}")
    for key, (value, unit) in shown.items():
        print(f"{key:34s} {value:14.6g} {unit}")
    if args.trace:
        print(f"largest self time: {result['largest_self']}")
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
