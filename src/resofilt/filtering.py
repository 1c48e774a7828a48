"""Inverse resonance filter: design, application, and the 3-sigma detector.

The filter kernel is the scaled outer product of the two axes' unit-root
Lagrange polynomials, so convolving it over a texture in the model span
returns a flat level E everywhere; residual fluctuation on the training
(base) region defines the noise dispersion, and pixels whose filtered value
leaves the E +- k*sigma band in any colour channel are flagged as anomalies
in one boolean verdict raster.

Functions are pure; per-channel designs are independent and may run
concurrently.  Every kernel has rank one (every designed kernel is
c * hx (x) hy, and ``IRFilter`` refuses any other), so it is applied as a
column pass then a row pass, P + Q shifted adds instead of P * Q.  Each
shifted add is one BLAS daxpy over a flat row-major buffer as wide as the
image: one fused multiply-add per pixel and tap, with taps in a fixed
order, so results depend neither on scheduling nor on the BLAS thread
count.

The filter runs in strips of output rows sized by STRIP_BYTES, so its
buffers stay in L2.  A strip reads only its own source rows, in both
passes, and carries nothing to the next; it sums the same taps in the
same order as a whole-plane pass, so strips do not change the result.
Planes may be 8-bit: each strip's source rows are converted to float64
as they are read, and the sums go into a ``FilterBuffers`` set the
caller may own and reuse.  The detector judges the rows it is given in
one pass into one boolean raster, and may be given that raster and its
deviation buffer, so a caller that filters a frame one strip at a time
can detect each strip into its rows of the frame's raster.  A given
float64 buffer may have more rows than needed; its leading ones are used.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

from .errors import ModelError, NumericError
from .harmonic import UNIT_ROOT_TOL, HarmonicModel, amplitude_basis

# Unit-root amplitude, relative to the base region's largest, at or below
# which the region has no mean component to design on.
MEAN_TOL = 1e-9

# Largest deviation, relative to max|kernel|, of the outer product of a
# kernel's factors from the kernel itself.
RANK_ONE_TOL = 1e-12

# Bytes of float64 output held per row strip by apply_filter and the
# pipeline's frame loop; a strip's temporaries are a few times this.
STRIP_BYTES = 256 * 1024


def _bind_daxpy():
    """The daxpy of scipy's f2py BLAS wrapper, without ``scipy.linalg``.

    ``scipy.linalg.blas`` re-exports the routines of the compiled module
    ``scipy.linalg._fblas``, but importing it runs the whole
    ``scipy.linalg`` package, which adds some 24 MB of memory and 0.2 s
    to a process.  So the extension is loaded from its file under its own
    name, whose last part selects its entry point ``PyInit__fblas``: the
    same compiled routine, so the filter's bits are the same.  When
    ``scipy.linalg`` is loaded already, or scipy has no such file, the
    routine comes from ``scipy.linalg.blas``.
    """
    name = "scipy.linalg._fblas"
    linalg = [os.path.join(path, "linalg") for path in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec(name, linalg)
    if spec is None or name in sys.modules:
        from scipy.linalg.blas import daxpy

        return daxpy
    fblas = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fblas)
    # Creating a single-phase extension module may register it in
    # sys.modules; a later import of scipy.linalg would then bind no
    # _fblas attribute, so the entry goes and that import makes its own.
    sys.modules.pop(name, None)
    return fblas.daxpy


daxpy = _bind_daxpy()


@dataclass(frozen=True)
class IRFilter:
    """Inverse resonance filter for one colour channel.

    ``kernel`` is the real P x Q transient characteristic, ``flat_level``
    the constant the filter drives own-texture output toward, ``sigma2``
    the dispersion of the filtered base region around that level.
    ``factors`` is the (column, row) pair whose outer product is the
    kernel.  A kernel that is not rank one within RANK_ONE_TOL raises
    ValueError, and an all-zero kernel NumericError.
    """

    kernel: np.ndarray
    flat_level: float
    sigma2: float
    channel: str = "gray"
    factors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float).copy()
        if k.ndim != 2 or 0 in k.shape:
            raise ValueError(f"kernel must be 2D with at least one tap, got shape {k.shape}")
        if not np.all(np.isfinite(k)):
            raise NumericError("kernel has non-finite entries")
        if not (np.isfinite(self.flat_level) and np.isfinite(self.sigma2)):
            raise NumericError(
                f"flat level {self.flat_level} and sigma2 {self.sigma2} must be finite"
            )
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be non-negative")
        k.setflags(write=False)
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "factors", _rank_one_factors(k))

    @property
    def order(self):
        return self.kernel.shape


@dataclass(frozen=True, eq=False)
class DetectionMask:
    """Anomaly verdicts of one frame at original-image coordinates.

    ``verdicts`` is the detector's boolean raster, of the frame's shape:
    True where the pixel is anomalous in any channel.  Only the top-left
    valid region (the part fully covered by filter windows) can be True;
    ``valid_shape`` gives its extent from the (0, 0) corner.  The raster is
    held as a read-only view (the caller's array stays writable); the
    intensities stay with the frame.
    """

    verdicts: np.ndarray
    valid_shape: tuple

    def __post_init__(self):
        verdicts = np.asarray(self.verdicts, dtype=bool).view()
        if verdicts.ndim != 2:
            raise ValueError("verdicts must be a (rows, cols) raster")
        verdicts.setflags(write=False)
        object.__setattr__(self, "verdicts", verdicts)

    def positive(self) -> np.ndarray:
        """Boolean raster, anomalous in any channel: the same read-only
        array on every call."""
        return self.verdicts


def _rank_one_factors(kernel: np.ndarray):
    """Column and row through the largest entry, whose outer product must
    reproduce the kernel within RANK_ONE_TOL (ValueError otherwise;
    NumericError for an all-zero kernel).  The column is a view of the
    read-only kernel."""
    mags = np.abs(kernel)
    peak = mags.max()
    if peak == 0.0:
        raise NumericError("kernel is all zero: the filter would flag nothing")
    i, j = np.unravel_index(np.argmax(mags), kernel.shape)
    col = kernel[:, j]
    row = kernel[i, :] / kernel[i, j]
    miss = np.abs(np.outer(col, row) - kernel).max()
    if miss > RANK_ONE_TOL * peak:
        raise ValueError(
            f"kernel {kernel.shape} is not rank one: its factors miss it by "
            f"{miss / peak:.3g} of its largest tap"
        )
    row.setflags(write=False)
    return col, row


def design_filter(
    base_region: np.ndarray, model: HarmonicModel, channel: str = "gray"
) -> IRFilter:
    """Design the inverse filter of a base region under a harmonic model.

    The kernel is (E / A_uu) hx hy^T: hx and hy are the axes' unit-root
    Lagrange polynomials and A_uu is the base region's unit-root amplitude,
    so every texture in the model span filters to the flat level E, the
    region's mean.  A model without a unit root raises ModelError; no mean
    component, a model that is not conjugate-closed or an all-zero kernel
    (a zero-mean region, whose E = 0 flags nothing) raise NumericError.
    The noise dispersion is the mean squared deviation from E of the base
    region as ``apply_filter`` filters it, the arithmetic whose output
    ``detect`` judges.  The Lagrange factors are the model's own, and so is
    the amplitude basis when the model was fitted on a region of the base
    region's shape; otherwise the basis is built here.
    """
    base_region = np.asarray(base_region, dtype=float)
    p, q = model.order
    if base_region.shape[0] < p + 1 or base_region.shape[1] < q + 1:
        raise ValueError(f"base region {base_region.shape} must exceed the model order ({p}, {q})")
    flat = float(base_region.mean())
    for axis, factor in (("x", model.lagrange_x), ("y", model.lagrange_y)):
        if factor is None:
            raise ModelError(f"axis {axis}: no root within {UNIT_ROOT_TOL:g} of 1 to design on")
    (ux, hx), (uy, hy) = model.lagrange_x, model.lagrange_y
    basis = model.basis
    if basis is None or basis.shape != base_region.shape:
        basis = amplitude_basis(model.zx, model.zy, base_region.shape)
    amp = basis.spectrum(base_region)
    if not abs(amp[ux, uy]) > MEAN_TOL * np.abs(amp).max():
        raise NumericError("no mean component: the base region's unit-root amplitude vanishes")
    kernel_c = (flat / amp[ux, uy]) * np.outer(hx, hy)
    residue = np.abs(kernel_c.imag).max() / max(1.0, np.abs(kernel_c.real).max())
    if residue > 1e-8:
        raise NumericError(
            f"kernel synthesis left imaginary residue {residue:.3g}: "
            "model is not conjugate-closed"
        )
    kernel = kernel_c.real
    if not np.any(kernel):
        raise NumericError(
            f"flat level {flat:g} gives an all-zero kernel: "
            "the filter would flag nothing"
        )

    irf = IRFilter(kernel=kernel, flat_level=flat, sigma2=0.0, channel=channel)
    return replace(irf, sigma2=noise_dispersion(apply_filter(base_region, irf), flat))


def _accumulate(acc: np.ndarray, flat: np.ndarray, taps, offsets) -> None:
    """acc[i] = sum_k taps[k] * flat[i + offsets[k]] for every i of ``acc``.

    ``acc`` is zero-filled, then each tap in turn adds with one BLAS daxpy:
    one fused multiply-add per element, one pass over memory.  Each
    element's sum depends only on its own inputs and the tap order, not on
    where the call starts or how long it is.  Both arrays are 1D float64;
    ``flat`` must reach index max(offsets) + acc.size - 1, which daxpy
    checks.  ``taps`` and ``offsets`` are Python floats and ints, passed
    positionally as daxpy's (n, a, offx): f2py parses them in 0.46 us a
    call against 1.35 us for NumPy scalars by keyword (2-vCPU Xeon), and
    a frame's filter makes one call per tap and strip.
    """
    acc.fill(0.0)
    n = acc.size
    for tap, offset in zip(taps, offsets):
        # f2py updates y in place only for a contiguous float64 array; any
        # other y comes back as a copy and the tap would be lost
        if daxpy(flat, acc, n, tap, offset) is not acc:
            raise RuntimeError("daxpy did not accumulate in place")


def _correlate_valid(image: np.ndarray, kernel: np.ndarray, out=None) -> np.ndarray:
    """Valid-region sliding sum: out[i,k] = sum_{m,n} h[m,n] d[m+i, n+k].

    The image is read as one flat row-major buffer W = image.shape[1]
    wide, and the taps accumulate over it at offsets m*W + n in row-major
    (m, n) order, so every output pixel reproduces the definitional double
    sum bit for bit with one fused multiply-add per tap.  The sums are
    computed W wide: columns oy..W-1 of each row are scratch (the last
    row's are left unwritten).  ``out``, when given, is that C-contiguous
    (ox, W) buffer.  Returns the valid (ox, oy) view of it.  Each 1D pass
    of ``apply_filter`` is one call.
    """
    p, q = kernel.shape
    ox, oy = _valid_shape(image.shape, kernel.shape)
    w = image.shape[1]
    out = np.empty((ox, w)) if out is None else _scratch(out, (ox, w))
    offsets = [m * w + n for m in range(p) for n in range(q)]
    flat = np.ascontiguousarray(image, dtype=float).reshape(-1)
    _accumulate(out.reshape(-1)[: ox * w - q + 1], flat, kernel.ravel().tolist(), offsets)
    return out[:, :oy]


def _valid_shape(image_shape, kernel_shape):
    ox = image_shape[0] - kernel_shape[0] + 1
    oy = image_shape[1] - kernel_shape[1] + 1
    if ox < 1 or oy < 1:
        raise ValueError(f"image {image_shape} smaller than kernel {kernel_shape}")
    return ox, oy


def _strip_rows(cols: int) -> int:
    """Rows of a float64 strip ``cols`` wide that fit in STRIP_BYTES (at
    least one)."""
    return max(1, STRIP_BYTES // (8 * cols))


def _buffer_shapes(shape, irf: IRFilter):
    """Shapes of ``apply_filter``'s buffers for planes of ``shape``: the
    output buffer, one strip's float64 source rows, and the column pass's
    sums over them."""
    ox, oy = _valid_shape(shape, irf.kernel.shape)
    w = shape[1]
    rows = min(_strip_rows(oy), ox)
    return (ox, w), (rows + irf.kernel.shape[0] - 1, w), (rows, w)


@dataclass(frozen=True)
class FilterBuffers:
    """Buffers of ``apply_filter`` kept for call after call (``filter_buffers``
    makes them).  ``out`` receives the sums, ``src`` holds a strip's source
    rows as float64 and ``cols`` the column pass's sums over them.  A call
    uses the leading rows of each, so a set made for planes of one shape
    also serves planes with fewer rows of the same width."""

    out: np.ndarray
    src: np.ndarray
    cols: np.ndarray


def filter_buffers(shape, filters) -> list:
    """One ``FilterBuffers`` per filter for planes of ``shape`` (or fewer
    rows): a new output buffer each, and one pair of strip scratch buffers,
    large enough for every filter, that all of them share.  So they serve
    one ``apply_filter`` call at a time between them."""
    needs = [_buffer_shapes(shape, irf) for irf in filters]
    src = np.empty(max(s for _, s, _ in needs))
    cols = np.empty(max(c for _, _, c in needs))
    return [FilterBuffers(np.empty(out), src, cols) for out, _, _ in needs]


def _scratch(buf, shape):
    """The leading ``shape[0]`` rows of ``buf``, which must be a C-contiguous
    float64 array (a flattened copy would lose the sums) of ``shape[1:]``
    trailing shape and at least ``shape[0]`` rows; ValueError otherwise.
    Every float64 buffer a caller gives is checked here."""
    if (not isinstance(buf, np.ndarray) or buf.dtype != np.float64
            or not buf.flags.c_contiguous
            or buf.shape[1:] != shape[1:] or buf.shape[0] < shape[0]):
        held = getattr(buf, "shape", buf)
        raise ValueError(f"scratch buffer {held} does not hold {shape} C-contiguous float64")
    return buf[: shape[0]]


def apply_filter(image: np.ndarray, irf: IRFilter, *, out=None) -> np.ndarray:
    """Filter one plane; output shape (n_x - P + 1, n_y - Q + 1).

    Output rows are computed in strips: rows a..b-1 of the result read
    image rows a..b+P-2 and nothing else, so buffers stay strip-sized, no
    value passes from one strip to the next, and every output pixel sums
    the same taps in the same order as a whole-plane pass.  An 8-bit (or
    any other) plane is converted to float64 one strip of source rows at a
    time.  Each tap is one daxpy over a flat buffer W = n_y columns wide
    (see _correlate_valid).  The kernel runs, per strip, as a column pass
    of its P column taps (offsets m*W) over the source rows, then a row
    pass of its Q row taps (offsets 0..Q-1) over that result.

    The sums land in the leading n_x - P + 1 rows of a float64 buffer W
    wide, and the result is their valid ``[:, :n_y - Q + 1]`` view; the
    last Q - 1 columns of each buffer row are scratch.  ``out`` is a
    ``FilterBuffers`` set (``filter_buffers`` makes them) holding that
    buffer and the strip scratch, so that repeated calls allocate nothing;
    a bad buffer is refused (``_scratch``) before any sum is written.  When
    None, the call makes a new set.  A set serves one call at a time: the
    next call that is given it overwrites the previous result.
    """
    image = np.asarray(image)
    out_shape, src_shape, cols_shape = _buffer_shapes(image.shape, irf)
    bufs = filter_buffers(image.shape, [irf])[0] if out is None else out
    out = _scratch(bufs.out, out_shape)
    src = _scratch(bufs.src, src_shape)
    cols = _scratch(bufs.cols, cols_shape)
    col, row = irf.factors
    p = irf.kernel.shape[0]
    ox, oy = _valid_shape(image.shape, irf.kernel.shape)
    step = _strip_rows(oy)
    for a in range(0, ox, step):
        b = min(a + step, ox)
        rows = src[: b - a + p - 1]
        rows[:] = image[a : b + p - 1]
        _correlate_valid(rows, col[:, np.newaxis], out=cols[: b - a])
        _correlate_valid(cols[: b - a], row[np.newaxis, :], out=out[a:b])
    return out[:, :oy]


def noise_dispersion(filtered: np.ndarray, flat_level: float) -> float:
    """Mean squared deviation of a filtered raster from the flat level."""
    filtered = np.asarray(filtered, dtype=float)
    if filtered.size == 0:
        raise ValueError("empty filtered raster")
    return float(np.mean((filtered - flat_level) ** 2))


def detect(
    filtered_channels,
    filters,
    original_planes,
    multiplier: float = 3.0,
    *,
    out=None,
    scratch=None,
) -> DetectionMask:
    """Union 3-sigma rule across channels.

    A pixel is anomalous when |filtered - E| exceeds multiplier * sigma in
    any channel.  The verdicts form one boolean raster of the originals'
    shape, which every plane must share; that shape and the channel count
    are all ``original_planes`` gives;
    the filtered rows given are judged in one pass per channel, whose
    deviations are taken into a float64 buffer of the filtered shape, so
    every pass over them runs on contiguous memory.  ``out``, when given,
    is that raster (a boolean array of the originals' shape, every element
    of which the call writes), and ``scratch`` that buffer (holding the
    filtered shape in its leading rows); when None, the call makes them.
    """
    if len(filtered_channels) != len(filters) or len(filters) != len(original_planes):
        raise ValueError("channel counts of filtered, filters and original differ")
    if not filters:
        raise ValueError("at least one channel is required")
    shape = np.shape(original_planes[0])
    if any(np.shape(plane) != shape for plane in original_planes):
        raise ValueError("original planes disagree in shape")
    out_shape = np.asarray(filtered_channels[0]).shape
    ox, oy = out_shape
    if ox > shape[0] or oy > shape[1]:
        raise ValueError("filtered channels exceed the original planes")
    deviation = _scratch(np.empty(out_shape) if scratch is None else scratch, out_shape)
    verdicts = np.empty(shape, dtype=bool) if out is None else out
    if not (isinstance(verdicts, np.ndarray) and verdicts.dtype == bool
            and verdicts.shape == shape):
        raise ValueError(f"out must be a boolean raster of shape {shape}")
    verdicts.fill(False)
    flagged = verdicts[:ox, :oy]
    for filt_plane, irf in zip(filtered_channels, filters):
        filt_plane = np.asarray(filt_plane, dtype=float)
        if filt_plane.shape != out_shape:
            raise ValueError("filtered channels disagree in shape")
        np.subtract(filt_plane, irf.flat_level, out=deviation)
        np.abs(deviation, out=deviation)
        flagged |= deviation > multiplier * np.sqrt(irf.sigma2)
    return DetectionMask(verdicts=verdicts, valid_shape=out_shape)
