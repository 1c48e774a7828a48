"""Span tracing of resofilt from outside the program.

``Tracer.installed()`` replaces the module-level bindings through which
``resofilt.cli`` and ``resofilt.pipeline`` call into the other modules
with timing wrappers, and puts the originals back on exit.  Each wrapper
records one span (name, start, end, parent, run id) in memory; the span
name is ``<module>.<function>`` of the wrapped function, so its layer is
the module that defines it.  A binding that no longer exists raises
``MissingBinding`` instead of leaving a layer silently unmeasured.

Results of a few calls are kept on their spans and turned into counters
by ``counters()`` after the traced call has returned, so counting adds
nothing to any span's time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from dataclasses import dataclass

# (module, attribute) pairs that get a wrapper.  ``estimate_model`` is
# wrapped in the pipeline too because run_pipeline calls it through that
# binding; ``postfilter.binary_correlation`` is the binding track_filter
# uses internally, so every correlation is counted.
BINDINGS = (
    ("resofilt.cli", "read_image"),
    ("resofilt.cli", "write_image"),
    ("resofilt.cli", "dump_json"),
    ("resofilt.cli", "model_to_doc"),
    ("resofilt.cli", "run_pipeline"),
    ("resofilt.cli", "estimate_model"),
    ("resofilt.cli", "design_filter"),
    ("resofilt.pipeline", "estimate_model"),
    ("resofilt.pipeline", "estimate_model_ls"),
    ("resofilt.pipeline", "estimate_model_pencil"),
    ("resofilt.pipeline", "design_filter"),
    ("resofilt.pipeline", "apply_filter"),
    ("resofilt.pipeline", "detect"),
    ("resofilt.pipeline", "connected_components"),
    ("resofilt.pipeline", "histogram_difference"),
    ("resofilt.pipeline", "density_verdict"),
    ("resofilt.pipeline", "binary_correlation"),
    ("resofilt.pipeline", "track_filter"),
    ("resofilt.pipeline", "model_to_doc"),
    ("resofilt.postfilter", "binary_correlation"),
)

# Spans whose call arguments or result feed a counter.
_KEEP = {
    "imageio.read_image",
    "imageio.write_image",
    "model_doc.dump_json",
    "filtering.apply_filter",
    "filtering.detect",
    "postfilter.connected_components",
    "postfilter.density_verdict",
    "postfilter.track_filter",
}


class MissingBinding(RuntimeError):
    """A binding the tracer must wrap is absent from its module."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run_id: int
    error: bool = False
    args: tuple = ()
    result: object = None


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        span = self._open(name)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            self._close(span)

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        keep = name in _KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if keep:
                span.args, span.result = args, result
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding in BINDINGS for the duration of the block."""
        modules = {name: importlib.import_module(name) for name, _ in BINDINGS}
        missing = [f"{m}.{a}" for m, a in BINDINGS if not hasattr(modules[m], a)]
        if missing:
            raise MissingBinding("traced bindings are missing: " + ", ".join(missing))
        originals = [(modules[m], a, getattr(modules[m], a)) for m, a in BINDINGS]
        try:
            for module, attr, fn in originals:
                setattr(module, attr, self.wrap(fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def to_doc(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.run_id, s.error] for s in self.spans]


def counters(spans) -> dict:
    """Exact counts of one run, computed from the call data kept on its spans."""
    c = dict.fromkeys(
        ("apply_calls", "macs", "flagged_px", "candidates", "hist_boxes",
         "hist_confirmed", "hist_ring_missing", "corr_calls", "track_objects",
         "image_bytes", "report_bytes"),
        0,
    )
    for s in spans:
        if s.name == "filtering.apply_filter":
            image, irf = s.args
            p, q = irf.kernel.shape
            c["apply_calls"] += 1
            c["macs"] += p * q * (image.shape[0] - p + 1) * (image.shape[1] - q + 1)
        elif s.name == "filtering.detect":
            c["flagged_px"] += int(s.result.positive().sum())
        elif s.name == "postfilter.connected_components":
            c["candidates"] += len(s.result)
        elif s.name == "postfilter.density_verdict":
            c["hist_confirmed"] += int(bool(s.result[0]))
        elif s.name == "postfilter.histogram_difference":
            c["hist_boxes"] += 1
            c["hist_ring_missing"] += int(s.error)
        elif s.name == "postfilter.binary_correlation":
            c["corr_calls"] += 1
        elif s.name == "postfilter.track_filter":
            c["track_objects"] += len(s.args[0].objects)
        elif s.name in ("imageio.read_image", "imageio.write_image"):
            c["image_bytes"] += os.path.getsize(s.args[0])
        elif s.name == "model_doc.dump_json" and len(s.args) > 1 and s.args[0].get("kind") == "run-report":
            c["report_bytes"] += os.path.getsize(s.args[1])
        s.args, s.result = (), None  # counted once; free the arrays
    return c


def self_times(spans) -> dict:
    """Per run id, total self time per span name.

    Self time is a span's duration minus the durations of its child spans.
    Spans of one process nest but never overlap otherwise, so the children's
    durations are exactly the part of the parent's interval they cover.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out = {}
    for s, covered in zip(spans, child):
        per_run = out.setdefault(s.run_id, {})
        per_run[s.name] = per_run.get(s.name, 0.0) + (s.end - s.start) - covered
    return out
