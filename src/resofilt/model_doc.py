"""Versioned structured-text documents for models, filters, and run reports.

Everything is JSON.  Complex values are stored as [re, im] pairs and
floats rely on the encoder's shortest round-trip decimal form, so a
parse(write(x)) cycle reproduces every double exactly.  Documents carry a
``format_version`` field; see docs/formats.md for the schema and a golden
example.  ``dump_json`` writes through ``imageio.write_bytes``, so a
document rewrites an existing file in place.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ImageFormatError, NumericError
from .filtering import IRFilter
from .harmonic import HarmonicModel, ResonanceRoots
from .imageio import write_bytes

FORMAT_VERSION = 1


def _complex_list(values: np.ndarray):
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, complex).ravel()]


def _complex_matrix(matrix: np.ndarray):
    m = np.asarray(matrix, complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _to_complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


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


def _check_finite(model: HarmonicModel, error) -> None:
    """Raise ``error`` naming the first model field a document cannot hold:
    one that is non-finite, which JSON would write as NaN or Infinity."""
    for name, values in (("amplitudes", model.amplitudes), ("zx_moduli", model.zx.source_moduli),
                         ("zy_moduli", model.zy.source_moduli),
                         ("fit_residual", model.fit_residual)):
        if not np.all(np.isfinite(values)):
            raise error(f"non-finite {name}")


def model_to_doc(model: HarmonicModel, filters=(), diagnostics=None) -> dict:
    """Model document of a model and its filters; NumericError for a model
    with a non-finite field (such as the NaN ``fit_residual`` of a model
    built without ``HarmonicModel.fit``), which ``doc_to_model`` would
    refuse."""
    _check_finite(model, NumericError)
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "resonance-model",
        "order": [len(model.zx), len(model.zy)],
        "zx": _complex_list(model.zx.roots),
        "zx_moduli": [float(v) for v in model.zx.source_moduli],
        "zy": _complex_list(model.zy.roots),
        "zy_moduli": [float(v) for v in model.zy.source_moduli],
        "amplitudes": _complex_matrix(model.amplitudes),
        "fit_residual": float(model.fit_residual),
        "filters": [
            {
                "channel": f.channel,
                "order": list(f.order),
                "kernel": [[float(v) for v in row] for row in f.kernel],
                "flat_level": float(f.flat_level),
                "sigma2": float(f.sigma2),
            }
            for f in filters
        ],
    }
    if diagnostics is not None:
        doc["diagnostics"] = _diag_doc(diagnostics)
    return doc


def doc_to_model(doc: dict):
    """Parse a model document back into (HarmonicModel, [IRFilter...]).
    A filter whose kernel is not rank one, or whose shape is not both its
    record's ``order`` and the model's, makes the document malformed."""
    try:
        if doc.get("format_version") != FORMAT_VERSION:
            raise ImageFormatError(
                f"unsupported model document version {doc.get('format_version')!r}"
            )
        zx = ResonanceRoots(_to_complex(doc["zx"]), source_moduli=np.array(doc["zx_moduli"]))
        zy = ResonanceRoots(_to_complex(doc["zy"]), source_moduli=np.array(doc["zy_moduli"]))
        amp = np.array(
            [[complex(re, im) for re, im in row] for row in doc["amplitudes"]], dtype=complex
        )
        model = HarmonicModel(zx, zy, amp, fit_residual=float(doc["fit_residual"]))
        _check_finite(model, ValueError)
        filters = []
        for f in doc.get("filters", []):
            irf = IRFilter(np.array(f["kernel"], dtype=float), float(f["flat_level"]),
                           float(f["sigma2"]), f["channel"])
            if list(f["order"]) != list(irf.order) or irf.order != model.order:
                raise ValueError(f"{irf.channel} filter: kernel {irf.order} must match "
                                 f"its order {f['order']} and the model's {model.order}")
            filters.append(irf)
    except (KeyError, TypeError, ValueError, NumericError) as exc:
        raise ImageFormatError(f"malformed model document: {exc}") from exc
    return model, filters


def dump_json(doc: dict, path=None) -> str:
    """Encode ``doc``; with a path, also write the text plus a newline as UTF-8."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is not None:
        write_bytes(path, (text + "\n").encode("utf-8"))
    return text


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ImageFormatError(f"malformed JSON document {path!r}: {exc}") from exc
    except RecursionError:
        raise ImageFormatError(f"JSON document {path!r} nests too deeply to parse") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ImageFormatError(f"cannot read JSON document {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ImageFormatError(f"JSON document {path!r} is not an object")
    return doc


@dataclass
class RunReport:
    """Serializable record of one pipeline run.

    Wall-clock timings are kept out of the serialised form unless
    explicitly requested, so identical runs produce identical bytes.
    """

    config: dict
    model: dict
    frames: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_doc(self, include_timings: bool = False) -> dict:
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "run-report",
            "config": self.config,
            "model": self.model,
            "frames": self.frames,
        }
        if include_timings:
            doc["timings"] = self.timings
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "RunReport":
        if doc.get("kind") != "run-report" or doc.get("format_version") != FORMAT_VERSION:
            raise ImageFormatError("not a run-report document")
        try:
            report = cls(
                config=doc["config"],
                model=doc["model"],
                frames=doc["frames"],
                timings=doc.get("timings", {}),
            )
        except KeyError as exc:
            raise ImageFormatError(f"run-report document lacks {exc}") from exc
        if not isinstance(report.model, dict):
            raise ImageFormatError("run-report model is not an object")
        if not (
            isinstance(report.frames, list)
            and all(isinstance(f, dict) for f in report.frames)
        ):
            raise ImageFormatError("run-report frames is not a list of objects")
        for i, frame in enumerate(report.frames):
            index = frame.get("frame")
            if not isinstance(index, int) or isinstance(index, bool):
                raise ImageFormatError(f"run-report frames[{i}] lacks an integer 'frame'")
            for key in ("boxes", "confirmed"):
                if not isinstance(frame.get(key, []), list):
                    raise ImageFormatError(f"run-report frames[{i}].{key} is not a list")
        return report
