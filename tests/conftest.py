"""Shared fixture builders for synthetic textures and reference oracles."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from resofilt import ResonanceRoots, synth_texture

# Four harmonic pairs with distinct per-axis frequencies, so both the
# marginal and the joint estimators see simple root multiplicities.
FOUR_PAIRS = [
    (0.11, 0.23, 1.0, 0.3),
    (0.27, 0.08, 0.8, 1.1),
    (0.34, 0.41, 0.6, 2.0),
    (0.05, 0.33, 0.9, 0.5),
]


def pairs_subset(k, rng=None):
    """First k reference pairs, optionally re-phased from a generator."""
    pairs = FOUR_PAIRS[:k]
    if rng is None:
        return pairs
    return [(fx, fy, amp, float(rng.uniform(0, 2 * np.pi))) for fx, fy, amp, _ in pairs]


def zero_mean_base():
    """np.rint of a 32x32 texture of the first two pairs (amplitudes x40),
    one pixel corrected so that its sum, and so its mean, is exactly 0.
    Its unit-root amplitude does not vanish (about 0.8% of the largest)."""
    pairs = [(fx, fy, 40 * amp, phase) for fx, fy, amp, phase in FOUR_PAIRS[:2]]
    base = np.rint(synth_texture(pairs, 32, 32))
    base[0, 0] -= base.sum()
    return base


def unit_roots(freqs):
    return ResonanceRoots(np.exp(2j * np.pi * np.asarray(freqs, dtype=float)))


def conj_freqs(pairs, axis):
    """Signed per-axis frequencies (each pair contributes +f and -f)."""
    idx = 0 if axis == "x" else 1
    out = []
    for p in pairs:
        out += [p[idx], -p[idx]]
    return sorted(out)


def root_set_error(estimated, truth):
    """max over true roots of the distance to the nearest estimate."""
    est = np.asarray(estimated, dtype=complex)
    return max(min(abs(z - t) for z in est) for t in np.asarray(truth, dtype=complex))


def lag_correlation(image, wx, wy):
    """Full lag-product correlation of wx x wy windows, flattened.

    Entry (ix*wy + iy, kx*wy + ky) sums u[m+ix, n+iy] * u[m+kx, n+ky] over
    every window position (m, n), taken in row-major order.
    """
    f = sliding_window_view(np.asarray(image, dtype=float), (wx, wy)).reshape(-1, wx * wy)
    return f.T @ f


def correlate_valid(image, kernel):
    """Valid-region sliding sum of a kernel of any rank:
    out[i, k] = sum_{m,n} h[m, n] d[m + i, n + k], the taps added over the
    whole plane in row-major (m, n) order."""
    image = np.asarray(image, dtype=float)
    p, q = kernel.shape
    ox, oy = image.shape[0] - p + 1, image.shape[1] - q + 1
    out = np.zeros((ox, oy))
    for m in range(p):
        for n in range(q):
            out += kernel[m, n] * image[m : m + ox, n : n + oy]
    return out


def components_oracle(raster, min_area=1):
    """Inclusive (x0, y0, x1, y1) boxes of the 8-connected positive
    components with at least ``min_area`` pixels, in label order: a full
    ``ndimage.label`` raster scanned by ``find_objects``, areas counted over
    the whole raster."""
    labels, _ = ndimage.label(np.asarray(raster) > 0, structure=np.ones((3, 3), dtype=int))
    areas = np.bincount(labels.ravel())
    return [
        (sx.start, sy.start, sx.stop - 1, sy.stop - 1)
        for idx, (sx, sy) in enumerate(ndimage.find_objects(labels), start=1)
        if areas[idx] >= min_area
    ]


def dft_peak_frequencies(signal_2d, k_pairs, pad=1024):
    """Independent frequency oracle: zero-padded 2D DFT peak picking.

    Returns the (fx, fy) locations of the k strongest positive-fx peaks,
    using a local-maximum scan with a guard zone around found peaks.
    """
    spec = np.abs(np.fft.fft2(signal_2d - signal_2d.mean(), s=(pad, pad)))
    fx = np.fft.fftfreq(pad)
    fy = np.fft.fftfreq(pad)
    half = spec[: pad // 2 + 1, :].copy()  # keep fx >= 0 half-plane
    found = []
    guard = max(3, pad // 128)
    for _ in range(k_pairs):
        i, j = np.unravel_index(np.argmax(half), half.shape)
        found.append((fx[i], fy[j]))
        half[max(0, i - guard) : i + guard + 1, :][
            :, np.abs((np.arange(pad) - j + pad // 2) % pad - pad // 2) <= guard
        ] = 0.0
    return sorted(found)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def four_pair_texture():
    return synth_texture(FOUR_PAIRS, 64, 64)
