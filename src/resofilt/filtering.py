"""Inverse resonance filter: design, application, and the 3-sigma detector.

The filter kernel is the scaled outer product of the two axes' unit-root
Lagrange polynomials, so convolving it over a texture in the model span
returns a flat level E everywhere; residual fluctuation on the training
(base) region defines the noise dispersion, and pixels whose filtered value
leaves the E +- k*sigma band in any colour channel are flagged as anomalies
carrying their original intensities.

Functions are pure; per-channel designs are independent and may run
concurrently.  A rank-one kernel (every designed kernel is c * hx (x) hy)
is applied as a column pass then a row pass, P + Q shifted adds instead
of P * Q; any other kernel, which only a loaded model document can carry,
runs the direct double sum.  Each shifted add is one BLAS daxpy over a
flat row-major buffer as wide as the image: one fused multiply-add per
pixel and tap, with taps in a fixed order, so results depend neither on
scheduling nor on the BLAS thread count.  The two-pass result is not
bit-equal to the double sum.

The filter runs in strips of output rows sized by STRIP_BYTES, so its
buffers stay in L2.  A strip reads only its own source rows, in both
passes, and carries nothing to the next; it sums the same taps in the
same order as a whole-plane pass, so strips do not change the result.
Planes may be 8-bit: each strip's source rows are converted to float64
as they are read, and the sums go into an output buffer the caller may
own and reuse.  The detector ORs its verdicts into one boolean raster,
strip by strip as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy

from .errors import ModelError, NumericError
from .harmonic import UNIT_ROOT_TOL, HarmonicModel, ResonanceRoots, spectrum

# Unit-root amplitude, relative to the base region's largest, at or below
# which the region has no mean component to design on.
MEAN_TOL = 1e-9

# Largest deviation, relative to max|kernel|, of the outer product of a
# kernel's factors from the kernel itself for the two-pass apply path.
RANK_ONE_TOL = 1e-12

# Bytes of float64 output held per row strip by apply_filter and detect;
# a strip's temporaries are a few times this, sized to stay in L2.
STRIP_BYTES = 256 * 1024


@dataclass(frozen=True)
class IRFilter:
    """Inverse resonance filter for one colour channel.

    ``kernel`` is the real P x Q transient characteristic, ``flat_level``
    the constant the filter drives own-texture output toward, ``sigma2``
    the dispersion of the filtered base region around that level.
    ``factors`` is the (column, row) pair whose outer product is the
    kernel when it has rank one, else None.
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
    ``valid_shape`` gives its extent from the (0, 0) corner.  ``originals``
    are the frame's planes, one per channel, 8-bit planes as given and any
    other values as float64.  Both are held as read-only views (the
    caller's arrays stay writable).
    """

    verdicts: np.ndarray
    originals: tuple
    valid_shape: tuple

    def __post_init__(self):
        verdicts = np.asarray(self.verdicts, dtype=bool).view()
        originals = tuple(_plane(p).view() for p in self.originals)
        if verdicts.ndim != 2:
            raise ValueError("verdicts must be a (rows, cols) raster")
        if not originals or any(p.shape != verdicts.shape for p in originals):
            raise ValueError("original channels must match the verdict raster's shape")
        verdicts.setflags(write=False)
        for plane in originals:
            plane.setflags(write=False)
        object.__setattr__(self, "verdicts", verdicts)
        object.__setattr__(self, "originals", originals)

    def positive(self) -> np.ndarray:
        """Boolean raster, anomalous in any channel: the same read-only
        array on every call."""
        return self.verdicts


def _plane(values) -> np.ndarray:
    """An 8-bit (uint8) plane as given; any other values as float64."""
    plane = np.asarray(values)
    return plane if plane.dtype == np.uint8 else plane.astype(float, copy=False)


def _rank_one_factors(kernel: np.ndarray):
    """Column and row through the largest entry if their outer product
    reproduces the kernel within RANK_ONE_TOL, else None (also for an
    all-zero kernel).  The column is a view of the read-only kernel."""
    mags = np.abs(kernel)
    peak = mags.max(initial=0.0)
    if peak == 0.0:
        return None
    i, j = np.unravel_index(np.argmax(mags), kernel.shape)
    col = kernel[:, j]
    row = kernel[i, :] / kernel[i, j]
    if np.abs(np.outer(col, row) - kernel).max() > RANK_ONE_TOL * peak:
        return None
    row.setflags(write=False)
    return col, row


def _unit_lagrange(roots: ResonanceRoots, axis: str):
    """Unit-root index and ascending coefficients of the unit root's Lagrange
    polynomial prod_{i != u} (z - z_i) / (1 - z_i): 1 at z = 1, 0 at the rest."""
    u = roots.unit_root_index()
    if u is None:
        raise ModelError(f"axis {axis}: no root within {UNIT_ROOT_TOL:g} of 1 to design on")
    others = np.delete(roots.roots, u)
    return u, np.atleast_1d(np.poly(others))[::-1] / np.prod(1.0 - others)


def design_filter(
    base_region: np.ndarray,
    model: HarmonicModel,
    e_policy="mean",
    channel: str = "gray",
) -> IRFilter:
    """Design the inverse filter of a base region under a harmonic model.

    The kernel is (E / A_uu) hx hy^T: hx and hy are the axes' unit-root
    Lagrange polynomials and A_uu is the base region's unit-root amplitude,
    so every texture in the model span filters to the flat level E, the
    region's mean (``e_policy='mean'``) or a given number.  A model without
    a unit root raises ModelError; no mean component, a model that is not
    conjugate-closed or an all-zero kernel (E = 0, which flags nothing)
    raise NumericError.  The noise dispersion is the filtered base region's
    mean squared deviation from E.
    """
    base_region = np.asarray(base_region, dtype=float)
    p, q = model.order
    if base_region.shape[0] < p + 1 or base_region.shape[1] < q + 1:
        raise ValueError(f"base region {base_region.shape} must exceed the model order ({p}, {q})")
    if e_policy == "mean":
        flat = float(base_region.mean())
    elif isinstance(e_policy, (int, float)) and not isinstance(e_policy, bool):
        flat = float(e_policy)
    else:
        raise ValueError(f"unknown flat-level policy {e_policy!r}")
    ux, hx = _unit_lagrange(model.zx, "x")
    uy, hy = _unit_lagrange(model.zy, "y")

    amp = spectrum(base_region, model.zx, model.zy)
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

    filtered = _correlate_valid(base_region, kernel)
    sig2 = noise_dispersion(filtered, flat)
    return IRFilter(kernel=kernel, flat_level=flat, sigma2=sig2, channel=channel)


def _accumulate(acc: np.ndarray, flat: np.ndarray, taps, offsets) -> None:
    """acc[i] = sum_k taps[k] * flat[i + offsets[k]] for every i of ``acc``.

    ``acc`` is zero-filled, then each tap in turn adds with one BLAS daxpy:
    one fused multiply-add per element, one pass over memory.  Each
    element's sum depends only on its own inputs and the tap order, not on
    where the call starts or how long it is.  Both arrays are 1D float64;
    ``flat`` must reach index max(offsets) + acc.size - 1, which daxpy
    checks.
    """
    acc.fill(0.0)
    for tap, offset in zip(taps, offsets):
        # f2py updates y in place only for a contiguous float64 array; any
        # other y comes back as a copy and the tap would be lost
        if daxpy(flat, acc, n=acc.size, a=tap, offx=offset) is not acc:
            raise RuntimeError("daxpy did not accumulate in place")


def _correlate_valid(image: np.ndarray, kernel: np.ndarray, out=None) -> np.ndarray:
    """Valid-region sliding sum: out[i,k] = sum_{m,n} h[m,n] d[m+i, n+k].

    The image is read as one flat row-major buffer W = image.shape[1]
    wide, and the taps accumulate over it at offsets m*W + n in row-major
    (m, n) order, so every output pixel reproduces the definitional double
    sum bit for bit with one fused multiply-add per tap.  The sums are
    computed W wide: columns oy..W-1 of each row are scratch (the last
    row's are left unwritten).  ``out``, when given, is that C-contiguous
    (ox, W) buffer.  Returns the valid (ox, oy) view of it.  This is the
    apply path of kernels without rank-one factors, and each 1D pass of
    those with them.
    """
    p, q = kernel.shape
    ox, oy = _valid_shape(image.shape, kernel.shape)
    w = image.shape[1]
    if out is None:
        out = np.empty((ox, w))
    elif not out.flags.c_contiguous:
        # reshape would flatten a copy, and the sums would be lost with it
        raise ValueError("out must be a C-contiguous buffer")
    offsets = (np.arange(p)[:, np.newaxis] * w + np.arange(q)).ravel()
    flat = np.ascontiguousarray(image, dtype=float).reshape(-1)
    _accumulate(out.reshape(-1)[: ox * w - q + 1], flat, kernel.ravel(), offsets)
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


def filter_buffer(shape, irf: IRFilter) -> np.ndarray:
    """Output buffer of ``apply_filter`` for planes of ``shape``: a new
    C-contiguous float64 array of n_x - P + 1 rows and n_y columns."""
    ox, _ = _valid_shape(shape, irf.kernel.shape)
    return np.empty((ox, shape[1]))


def apply_filter(image: np.ndarray, irf: IRFilter, *, out=None) -> np.ndarray:
    """Filter one plane; output shape (n_x - P + 1, n_y - Q + 1).

    Output rows are computed in strips: rows a..b-1 of the result read
    image rows a..b+P-2 and nothing else, so buffers stay strip-sized, no
    value passes from one strip to the next, and every output pixel sums
    the same taps in the same order as a whole-plane pass.  An 8-bit (or
    any other) plane is converted to float64 one strip of source rows at a
    time.  Each tap is one daxpy over a flat buffer W = n_y columns wide
    (see _correlate_valid).  A rank-one kernel runs, per strip, as a
    column pass of its P column taps (offsets m*W) over the source rows,
    then a row pass of its Q row taps (offsets 0..Q-1) over that result.

    The sums land in ``out``, a C-contiguous float64 (n_x - P + 1, W)
    buffer (``filter_buffer`` makes one; a new one when None), and the
    result is its valid ``[:, :n_y - Q + 1]`` view; the last Q - 1 columns
    of each buffer row are scratch.  A buffer serves one call at a time:
    the next call that is given it overwrites the previous result.
    """
    image = np.asarray(image)
    p = irf.kernel.shape[0]
    ox, oy = _valid_shape(image.shape, irf.kernel.shape)
    w = image.shape[1]
    if out is None:
        out = np.empty((ox, w))
    elif out.shape != (ox, w) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 buffer of shape {(ox, w)}")
    step = _strip_rows(oy)
    # float64 copy of one strip's source rows, and a rank-one kernel's
    # column-pass sums over them
    src = np.empty((min(step, ox) + p - 1, w))
    if irf.factors is not None:
        col, row = irf.factors
        cols = np.empty((min(step, ox), w))
    for a in range(0, ox, step):
        b = min(a + step, ox)
        rows = src[: b - a + p - 1]
        rows[:] = image[a : b + p - 1]
        if irf.factors is None:
            _correlate_valid(rows, irf.kernel, out=out[a:b])
        else:
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
) -> DetectionMask:
    """Union 3-sigma rule across channels.

    A pixel is anomalous when |filtered - E| exceeds multiplier * sigma in
    any channel.  The verdicts form one boolean raster of the originals'
    shape, built strip by strip.
    """
    if len(filtered_channels) != len(filters) or len(filters) != len(original_planes):
        raise ValueError("channel counts of filtered, filters and original differ")
    if not filters:
        raise ValueError("at least one channel is required")
    shape = np.asarray(original_planes[0]).shape
    out_shape = np.asarray(filtered_channels[0]).shape
    ox, oy = out_shape
    if ox > shape[0] or oy > shape[1]:
        raise ValueError("filtered channels exceed the original planes")

    verdicts = np.zeros(shape, dtype=bool)
    flagged = verdicts[:ox, :oy]
    step = _strip_rows(oy)
    deviation = np.empty((min(step, ox), oy))
    for filt_plane, irf in zip(filtered_channels, filters):
        filt_plane = np.asarray(filt_plane, dtype=float)
        if filt_plane.shape != out_shape:
            raise ValueError("filtered channels disagree in shape")
        band = multiplier * np.sqrt(irf.sigma2)
        for a in range(0, ox, step):
            dev = deviation[: min(step, ox - a)]
            np.subtract(filt_plane[a : a + step], irf.flat_level, out=dev)
            np.abs(dev, out=dev)
            flagged[a : a + step] |= dev > band
    return DetectionMask(verdicts=verdicts, originals=original_planes, valid_shape=out_shape)
