"""Inverse resonance filter: design, application, and the 3-sigma detector.

The filter kernel is the scaled outer product of the two axes' unit-root
Lagrange polynomials, so convolving it over a texture in the model span
returns a flat level E everywhere; residual fluctuation on the training
(base) region defines the noise dispersion, and pixels whose filtered value
leaves the E +- k*sigma band in any colour channel are flagged as anomalies
carrying their original intensities.

Functions are pure; per-channel designs are independent and may run
concurrently.  A rank-one kernel (every designed kernel is c * hx (x) hy)
is applied as a row pass then a column pass, P + Q shifted adds instead of
P * Q; any other kernel, which only a loaded model document can carry,
runs the direct double sum.  Both paths accumulate taps in a fixed order,
so results do not depend on scheduling; the two-pass result is not
bit-equal to the double sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, NumericError
from .harmonic import UNIT_ROOT_TOL, HarmonicModel, ResonanceRoots, spectrum

# Unit-root amplitude, relative to the base region's largest, at or below
# which the region has no mean component to design on.
MEAN_TOL = 1e-9

# Largest deviation, relative to max|kernel|, of the outer product of a
# kernel's factors from the kernel itself for the two-pass apply path.
RANK_ONE_TOL = 1e-12


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
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be non-negative")
        k.setflags(write=False)
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "factors", _rank_one_factors(k))

    @property
    def order(self):
        return self.kernel.shape


@dataclass(frozen=True)
class DetectionMask:
    """Per-channel anomaly verdicts at original-image coordinates.

    ``values[c][i, k]`` holds the original pixel value where the pixel is
    anomalous and 0 elsewhere.  Only the top-left valid region (the part
    fully covered by filter windows) can be nonzero; ``valid_shape`` gives
    its extent from the (0, 0) corner.  ``values`` is held as a read-only
    view, and the positive raster is computed once at construction and
    kept read-only, so the two cannot drift apart.
    """

    values: np.ndarray
    valid_shape: tuple
    _positive: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).view()
        if v.ndim != 3:
            raise ValueError("mask values must be (channels, rows, cols)")
        positive = (v > 0).any(axis=0)
        v.setflags(write=False)
        positive.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_positive", positive)

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    def positive(self) -> np.ndarray:
        """Boolean raster, anomalous in any channel: the same read-only
        array on every call."""
        return self._positive


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


def _correlate_valid(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-region sliding sum: out[i,k] = sum_{m,n} h[m,n] d[m+i, n+k].

    Accumulated as kernel-sized shifted adds in row-major (m, n) order, so
    every output pixel reproduces the definitional double sum bit for bit.
    This is the apply path of kernels without rank-one factors, and each
    1D pass of those with them.
    """
    p, q = kernel.shape
    ox, oy = _valid_shape(image.shape, kernel.shape)
    out = np.zeros((ox, oy))
    for m in range(p):
        for n in range(q):
            out += kernel[m, n] * image[m : m + ox, n : n + oy]
    return out


def _valid_shape(image_shape, kernel_shape):
    ox = image_shape[0] - kernel_shape[0] + 1
    oy = image_shape[1] - kernel_shape[1] + 1
    if ox < 1 or oy < 1:
        raise ValueError(f"image {image_shape} smaller than kernel {kernel_shape}")
    return ox, oy


def apply_filter(image: np.ndarray, irf: IRFilter) -> np.ndarray:
    """Filter one plane; output shape (n_x - P + 1, n_y - Q + 1).

    A rank-one kernel runs as a row pass of its Q row taps, then a column
    pass of its P column taps over that result.
    """
    image = np.asarray(image, dtype=float)
    if irf.factors is None:
        return _correlate_valid(image, irf.kernel)
    _valid_shape(image.shape, irf.kernel.shape)
    col, row = irf.factors
    return _correlate_valid(_correlate_valid(image, row[np.newaxis, :]), col[:, np.newaxis])


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
    any channel; anomalous pixels copy their original values into the mask
    (all channels), others are zero.  An anomalous pixel whose original
    value is exactly zero is stored as the smallest positive double so the
    v > 0 convention stays faithful.
    """
    if len(filtered_channels) != len(filters) or len(filters) != len(original_planes):
        raise ValueError("channel counts of filtered, filters and original differ")
    if not filters:
        raise ValueError("at least one channel is required")
    shape = np.asarray(original_planes[0]).shape
    out_shape = np.asarray(filtered_channels[0]).shape
    ox, oy = out_shape

    flagged = np.zeros(out_shape, dtype=bool)
    deviation = np.empty(out_shape)
    for filt_plane, irf in zip(filtered_channels, filters):
        filt_plane = np.asarray(filt_plane, dtype=float)
        if filt_plane.shape != out_shape:
            raise ValueError("filtered channels disagree in shape")
        band = multiplier * np.sqrt(irf.sigma2)
        np.subtract(filt_plane, irf.flat_level, out=deviation)
        np.abs(deviation, out=deviation)
        flagged |= deviation > band

    tiny = np.nextafter(0.0, 1.0)
    values = np.zeros((len(original_planes),) + shape)
    for c, plane in enumerate(original_planes):
        plane = np.asarray(plane, dtype=float)
        if plane.shape != shape:
            raise ValueError("original channels disagree in shape")
        region = plane[:ox, :oy]
        np.copyto(values[c, :ox, :oy], region, where=flagged)
        np.copyto(values[c, :ox, :oy], tiny, where=flagged & (region == 0.0))
    return DetectionMask(values=values, valid_shape=out_shape)


def within_band_fraction(filtered: np.ndarray, irf: IRFilter, multiplier: float = 3.0) -> float:
    """Fraction of filtered pixels inside the flat-level band (diagnostic)."""
    band = multiplier * np.sqrt(irf.sigma2)
    return float(np.mean(np.abs(filtered - irf.flat_level) <= band))
