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
column pass then a row pass, P + Q taps per pixel instead of P * Q.  Each
pass is one batch of GEMMs, a banded Toeplitz matrix of its taps times
overlapping windows of the plane (the lowering of convolution to matrix
products, in its banded 1D form): one fused multiply-add per pixel and
tap, with taps in a fixed order, so results depend neither on scheduling
nor on the BLAS thread count.

The filter runs in strips of output rows sized by STRIP_BYTES, so its
buffers stay in L2.  A strip reads only its own source rows, in both
passes, and carries nothing to the next; it sums the same taps in the
same order as a whole-plane pass, so strips do not change the result.
Planes may be 8-bit or strided (the interleaved planes of an rgb frame):
each strip's source rows are gathered and converted to float64 as they
are read, and the sums go into a ``FilterBuffers`` set the caller may own
and reuse, whose output buffer has exactly the filtered width.  A given
float64 buffer may have more rows than needed; its leading ones are used.

The detector flags a filtered value that lies outside its channel's band
[fl(E - k*sigma), fl(E + k*sigma)], which is the real-number rule
|f - E| > k*sigma for every double but one equal to an edge that rounded
outward; so a pixel costs its taps and two comparisons.  It
judges the rows it is given into one boolean raster, and may be given
that raster, so a caller that filters a frame one strip at a time can
detect each strip into its rows of the frame's raster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

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

# Output rows of one column-pass GEMM block and output columns of one
# row-pass block: the fastest of 8/16 and 8/16/32 for 17 x 17 on 1024-wide
# planes and 9 x 9 on 256-wide planes (2-vCPU Xeon, one BLAS thread).
COL_BLOCK = 8
ROW_BLOCK = 16


@dataclass(frozen=True)
class IRFilter:
    """Inverse resonance filter for one colour channel.

    ``kernel`` is the real P x Q transient characteristic, ``flat_level``
    the constant the filter drives own-texture output toward, ``sigma2``
    the dispersion of the filtered base region around that level.
    ``factors`` is the (column, row) pair whose outer product is the
    kernel, and ``bands`` the two banded matrices ``apply_filter`` runs
    them as (see _bands).  A kernel that is not rank one within
    RANK_ONE_TOL raises ValueError, and an all-zero kernel NumericError.
    """

    kernel: np.ndarray
    flat_level: float
    sigma2: float
    channel: str = "gray"
    factors: tuple = field(init=False, repr=False, compare=False)
    bands: tuple = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "bands", _bands(*self.factors))

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


def _bands(col: np.ndarray, row: np.ndarray):
    """The column pass's (COL_BLOCK, COL_BLOCK + P - 1) band T, with
    T[r, r + m] = col[m], and the row pass's (ROW_BLOCK + Q - 1, ROW_BLOCK)
    band R, with R[k + n, k] = row[n]; zero elsewhere, read-only.

    Each is stored contiguous along its output index (T in Fortran order, R
    in C order): with numpy's bundled OpenBLAS, that layout makes every
    output of ``T @ rows`` and ``cols @ R`` one fused multiply-add per band
    entry in index order, bit for bit the taps in order.  The zero entries
    leave a sum alone, as long as the values they meet are finite.
    """
    p, q = col.size, row.size
    col_band = np.zeros((COL_BLOCK, COL_BLOCK + p - 1), order="F")
    for r in range(COL_BLOCK):
        col_band[r, r : r + p] = col
    row_band = np.zeros((ROW_BLOCK + q - 1, ROW_BLOCK))
    for k in range(ROW_BLOCK):
        row_band[k : k + q, k] = row
    col_band.setflags(write=False)
    row_band.setflags(write=False)
    return col_band, row_band


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


def _block_count(n: int, block: int) -> int:
    """Blocks of ``block`` that cover ``n``."""
    return -(-n // block)


def _buffer_shapes(shape, irf: IRFilter):
    """Shapes of ``apply_filter``'s buffers for planes of ``shape``: the
    output buffer, exactly the filtered shape, then one strip's float64
    source rows and the column pass's sums over them.  The strip buffers
    have whole column-pass blocks of rows and ROW_BLOCK - 1 columns more
    than the plane, room for the zero padding of the last blocks of each
    pass."""
    ox, oy = _valid_shape(shape, irf.kernel.shape)
    w = shape[1] + ROW_BLOCK - 1
    rows = _block_count(min(_strip_rows(oy), ox), COL_BLOCK) * COL_BLOCK
    return (ox, oy), (rows + irf.kernel.shape[0] - 1, w), (rows, w)


@dataclass(frozen=True)
class FilterBuffers:
    """Buffers of ``apply_filter`` kept for call after call (``filter_buffers``
    makes them).  ``out`` receives the sums, ``src`` holds a strip's source
    rows as float64 (then, once the column pass has read them, the row
    pass's padded last blocks) and ``cols`` the column pass's sums over
    them.  A call uses the leading rows of each, so a set made for planes
    of one shape also serves planes with fewer rows of the same width."""

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


def _blocks(a: np.ndarray, axis: int, step: int, shape, count: int):
    """``count`` views of ``shape`` into the C-contiguous 2D float64 array
    ``a``, the j-th from element j * step along ``axis``: a stack of blocks
    or of overlapping windows, as one strided view with no copy (numpy
    refuses one that would reach past ``a``)."""
    strides = (step * a.strides[axis], *a.strides)
    return np.ndarray((count, *shape), np.float64, a, 0, strides)


def _column_pass(source: np.ndarray, band: np.ndarray, src: np.ndarray, cols: np.ndarray,
                 width: int) -> np.ndarray:
    """cols[i, k] = sum_m col[m] * source[i + m, k], for the i of every
    source row but the last P - 1 and k < ``width``: ``band @ windows`` in
    blocks of COL_BLOCK output rows.  ``source`` is copied as float64 into
    the leading elements of the flat buffer ``src``, as rows ``width``
    wide, and the rows and columns the last blocks read past it are
    zeroed; the sums fill whole blocks of rows ``width`` wide at the start
    of the flat buffer ``cols``, and are returned as that 2D view."""
    n, w = source.shape
    p = band.shape[1] - COL_BLOCK + 1
    count = _block_count(n - p + 1, COL_BLOCK)
    rows = src[: (count * COL_BLOCK + p - 1) * width].reshape(-1, width)
    rows[:n, :w] = source
    rows[n:] = 0.0
    rows[:n, w:] = 0.0
    sums = cols[: count * COL_BLOCK * width].reshape(count, COL_BLOCK, width)
    np.matmul(band, _blocks(rows, 0, COL_BLOCK, (band.shape[1], width), count), out=sums)
    return sums.reshape(-1, width)


def _row_pass(cols: np.ndarray, band: np.ndarray, out: np.ndarray, pad: np.ndarray):
    """out[i, k] = sum_n row[n] * cols[i, k + n] for every row i and column
    k of the C-contiguous ``out``: ``windows @ band`` in blocks of
    ROW_BLOCK output columns, written through a strided view of ``out``.
    The last, partial block, and every block of a one-row ``out``, run
    padded (to ROW_BLOCK columns and two rows, from the padding
    ``_column_pass`` left in ``cols``) into the flat buffer ``pad`` and
    are copied from there."""
    h, oy = out.shape
    m = max(h, 2)
    count = _block_count(oy, ROW_BLOCK)
    windows = _blocks(cols[:m], 1, ROW_BLOCK, (m, band.shape[0]), count)
    full = oy // ROW_BLOCK if h > 1 else 0
    if full:
        np.matmul(windows[:full], band, out=_blocks(out, 1, ROW_BLOCK, (h, ROW_BLOCK), full))
    if full < count:
        rest = pad[: (count - full) * m * ROW_BLOCK].reshape(count - full, m, ROW_BLOCK)
        np.matmul(windows[full:], band, out=rest)
        tail = rest[:, :h].transpose(1, 0, 2).reshape(h, -1)
        out[:, full * ROW_BLOCK :] = tail[:, : oy - full * ROW_BLOCK]


def apply_filter(image: np.ndarray, irf: IRFilter, *, out=None) -> np.ndarray:
    """Filter one plane; output shape (n_x - P + 1, n_y - Q + 1).

    Output rows are computed in strips: rows a..b-1 of the result read
    image rows a..b+P-2 and nothing else, so buffers stay strip-sized, no
    value passes from one strip to the next, and every output pixel sums
    the same taps in the same order as a whole-plane pass.  An 8-bit (or
    any other, and any strided) plane is converted to float64 one strip of
    source rows at a time, by the copy that feeds the column pass.  The
    kernel runs, per strip, as a column pass of its P column taps over the
    source rows, then a row pass of its Q row taps over that result; each
    pass is one batch of GEMMs of its band (``irf.bands``) with windows of
    the rows it reads.  Every GEMM, the last blocks included, is at least
    two wide and two high and runs on zero padding where the plane ends,
    so every pixel gets the same arithmetic: one fused multiply-add per
    tap, in tap order (the band's zeros also meet neighbouring pixels, so
    a non-finite value in a plane makes NaN of every output of its
    blocks).

    The result is the leading n_x - P + 1 rows of a C-contiguous float64
    buffer n_y - Q + 1 columns wide.  ``out`` is a ``FilterBuffers`` set
    (``filter_buffers`` makes them) holding that buffer and the strip
    scratch, so that repeated calls allocate nothing; a bad buffer is
    refused (``_scratch``) before any sum is written.  When None, the call
    makes a new set.  A set serves one call at a time: the next call that
    is given it overwrites the previous result.
    """
    image = np.asarray(image)
    out_shape, src_shape, cols_shape = _buffer_shapes(image.shape, irf)
    bufs = filter_buffers(image.shape, [irf])[0] if out is None else out
    out = _scratch(bufs.out, out_shape)
    src = _scratch(bufs.src, src_shape).reshape(-1)
    cols = _scratch(bufs.cols, cols_shape).reshape(-1)
    col_band, row_band = irf.bands
    p, q = irf.kernel.shape
    ox, oy = out_shape
    # both passes run on the columns the row pass's last block reads
    width = _block_count(oy, ROW_BLOCK) * ROW_BLOCK + q - 1
    step = _strip_rows(oy)
    for a in range(0, ox, step):
        b = min(a + step, ox)
        sums = _column_pass(image[a : b + p - 1], col_band, src, cols, width)
        # the column pass has read src, so the row pass pads into it
        _row_pass(sums, row_band, out[a:b], src)
    return out


def noise_dispersion(filtered: np.ndarray, flat_level: float) -> float:
    """Mean squared deviation of a filtered raster from the flat level."""
    filtered = np.asarray(filtered, dtype=float)
    if filtered.size == 0:
        raise ValueError("empty filtered raster")
    return float(np.mean((filtered - flat_level) ** 2))


def _finite_number(value) -> bool:
    """An int or float (not a bool) that is neither NaN nor infinite, nor
    an int beyond the doubles."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def detect(
    filtered_channels,
    filters,
    original_planes,
    multiplier: float = 3.0,
    *,
    out=None,
) -> DetectionMask:
    """Union 3-sigma rule across channels.

    A pixel is anomalous when its filtered value f lies outside the band
    [fl(E - t), fl(E + t)] of any channel, t = multiplier * sigma: two
    comparisons, f > fl(E + t) or f < fl(E - t).  That is the real-number
    rule |f - E| > t for every double except one equal to an edge that
    rounded outward.  NaN is never flagged; ``multiplier`` must be a
    finite positive number (ValueError otherwise), and a channel whose t
    overflows flags nothing.  The verdicts form one boolean raster of the
    originals' shape, which every plane must share; that shape and the
    channel count are all ``original_planes`` gives.  The channels' flags
    are ORed into one boolean strip of the filtered shape, which is then
    copied into the raster.  ``out``, when given, is that raster (a
    boolean array of the originals' shape, every element of which the call
    writes); when None, the call makes it.
    """
    if not (_finite_number(multiplier) and multiplier > 0):
        raise ValueError(f"multiplier: must be a finite positive number, got {multiplier!r}")
    if len(filtered_channels) != len(filters) or len(filters) != len(original_planes):
        raise ValueError("channel counts of filtered, filters and original differ")
    if not filters:
        raise ValueError("at least one channel is required")
    shape = np.shape(original_planes[0])
    if any(np.shape(plane) != shape for plane in original_planes):
        raise ValueError("original planes disagree in shape")
    filtered = [np.asarray(plane, dtype=float) for plane in filtered_channels]
    out_shape = filtered[0].shape
    if any(plane.shape != out_shape for plane in filtered):
        raise ValueError("filtered channels disagree in shape")
    ox, oy = out_shape
    if ox > shape[0] or oy > shape[1]:
        raise ValueError("filtered channels exceed the original planes")
    verdicts = np.empty(shape, dtype=bool) if out is None else out
    if not (isinstance(verdicts, np.ndarray) and verdicts.dtype == bool
            and verdicts.shape == shape):
        raise ValueError(f"out must be a boolean raster of shape {shape}")
    flagged = np.zeros(out_shape, dtype=bool)
    beyond = np.empty(out_shape, dtype=bool)
    for plane, irf in zip(filtered, filters):
        level, t = float(irf.flat_level), float(multiplier) * math.sqrt(irf.sigma2)
        np.greater(plane, level + t, out=beyond)
        flagged |= beyond
        np.less(plane, level - t, out=beyond)
        flagged |= beyond
    verdicts[:ox, :oy] = flagged
    verdicts[:ox, oy:] = False
    verdicts[ox:] = False
    return DetectionMask(verdicts=verdicts, valid_shape=out_shape)
