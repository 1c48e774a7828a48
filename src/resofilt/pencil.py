"""Resonance estimation by splitting the subspace of sliding lag windows.

Every (M-L, N-L) lag window of the region is one row of the window
matrix F; its principal right singular vectors (the eigenvectors of the
2D lag correlation F^T F) span the signal subspace.  They are taken from
whichever Gram of F is smaller, so the lag correlation itself is never
formed when there are fewer window positions than lags.  Only the top few
eigenpairs are needed, and signal eigenvalues stand orders of magnitude
above the noise ones, so they come from block subspace iteration.  F is
block Hankel, so its products with a block of vectors are 2D
correlations of the region, taken by FFT: the iteration forms neither F
nor a Gram.  A dense eigensolve of the Gram formed from F takes over when
the iteration does not converge, or shows after two steps that it cannot
(no eigen-gap).  Shifted row selections of that subspace form a matrix
pencil whose eigenvalues are the per-axis resonance roots.

Row-extraction convention (frozen; see docs/formats.md): for a data
window of size (M, N) with splitting parameter L, the lag window is
(M-L, N-L) and subspace rows are indexed by lag pairs (i_x, i_y) in
row-major order.  The base selection keeps i_x < M-L-1 and i_y < N-L-1;
the x-shifted selection moves i_x up by one, the y-shifted selection
moves i_y up by one.  All three have the same row count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericError
from .harmonic import ResonanceRoots, _sorted_roots, fit_estimate

# Extra eigenvalues reported beyond the requested subspace.  They ride in
# the iteration block, so they are Rayleigh-Ritz values: lower bounds of
# the exact ones (exact when the dense eigensolve runs).
_DIAG_TAIL = 8
# Steps of subspace iteration before the dense eigensolve takes over, and
# the residual ||G v - theta v|| <= tol * theta_1 every requested pair meets.
_MAX_STEPS = 8
_RESIDUAL_TOL = 1e-10


def eigh(*args, **kwargs):
    """``scipy.linalg.eigh``, imported on the dense eigensolve's first call.

    Only that fallback needs ``scipy.linalg``, whose import adds some
    24 MB of memory and 0.2 s to a process.
    """
    from scipy.linalg import eigh as dense_eigh

    return dense_eigh(*args, **kwargs)


@dataclass(frozen=True)
class SubspaceBasis:
    """Principal right singular vectors of a region's window matrix.

    ``vectors`` holds the top ``n_modes`` columns; ``singular_values``
    holds the top ``n_modes`` eigenvalues of the lag correlation F^T F
    (squared singular values of F), then a diagnostic tail of up to
    ``_DIAG_TAIL`` Rayleigh-Ritz values: non-increasing lower bounds of
    the next exact eigenvalues, and those eigenvalues themselves when the
    dense eigensolve ran.  ``dims`` is the size of the data region and
    ``split`` the splitting parameter, so the lag window is (dims - split)
    per axis.
    """

    vectors: np.ndarray
    singular_values: np.ndarray
    split: int
    dims: tuple

    @property
    def n_modes(self) -> int:
        return self.vectors.shape[1]

    @property
    def lag_window(self) -> tuple:
        return (self.dims[0] - self.split, self.dims[1] - self.split)


def default_split(dims: tuple, n_modes: int) -> int:
    """floor(min(M, N)/3), clamped into [n_modes, min(M, N) - 2]."""
    lo, hi = n_modes, min(dims) - 2
    if lo > hi:
        raise ValueError(
            f"region {dims} is too small for {n_modes} modes: no admissible split"
        )
    return int(np.clip(min(dims) // 3, lo, hi))


def svd_windows(region: np.ndarray, split: int, n_modes: int) -> SubspaceBasis:
    """Top-``n_modes`` principal right singular vectors of the window matrix.

    F stacks every (M-L, N-L) lag window of the region as one row, so its
    right singular vectors are the eigenvectors of the lag correlation
    R = F^T F.  The eigenproblem is posed on the smaller Gram: F F^T
    (positions squared) when there are fewer window positions than lags,
    with the eigenvectors mapped back as V = F^T U / sqrt(lambda), else
    R itself.  The nonzero eigenvalues of both Grams coincide; R's others
    are zero.  A Gram larger than the block of n_modes + _DIAG_TAIL
    columns goes to ``_subspace_iteration``, which applies F by FFT and
    forms neither F nor the Gram.  A smaller Gram, or one on which the
    iteration does not converge, is formed from F and handed to the dense
    ``eigh`` of its top eigenpairs.  Raises when the requested subspace
    exceeds the numerical rank.
    """
    region = np.asarray(region, dtype=float)
    m, n = region.shape
    if not (1 <= split <= min(m, n) - 2):
        raise ValueError(f"split {split} out of range [1, {min(m, n) - 2}]")
    wx, wy = m - split, n - split
    dim = wx * wy
    if not (1 <= n_modes <= dim):
        raise ValueError(f"n_modes {n_modes} out of range 1..{dim}")
    positions = (split + 1) ** 2
    by_positions = positions < dim
    size = positions if by_positions else dim

    keep = min(dim, n_modes + _DIAG_TAIL)
    top = min(size, keep)
    found = None
    if size > top:
        windows = _WindowMatrix(region, split, top)
        found = _subspace_iteration(windows, by_positions, (size, top), n_modes)
    if found is None:
        f = sliding_window_view(region, (wx, wy)).reshape(-1, dim)
        gram = f @ f.T if by_positions else f.T @ f
        vals, vecs = eigh(gram, subset_by_index=[size - top, size - 1])
        vals, vecs = vals[::-1], vecs[:, ::-1][:, :n_modes]
        found = vals, (f.T @ vecs if by_positions else vecs)
    vals, vecs = found
    vals = np.maximum(vals, 0.0)
    vals = np.concatenate([vals, np.zeros(keep - top)])
    if vals[n_modes - 1] < 1e-12 * max(vals[0], 1e-300):
        raise NumericError(
            f"requested subspace of {n_modes} exceeds the numerical rank: "
            "model order is overestimated"
        )
    if by_positions:
        vecs = vecs / np.sqrt(vals[:n_modes])
    return SubspaceBasis(
        vectors=vecs,
        singular_values=vals,
        split=split,
        dims=(m, n),
    )


class _WindowMatrix:
    """The window matrix F of a region, applied to blocks of vectors by FFT.

    Row (a, b) of F is the lag window at position (a, b), so
    F[(a, b), (i, j)] = region[a + i, b + j]: ``dot`` (F @ y) correlates
    the region with each column of y laid out as an (M-L, N-L) lag window,
    ``tdot`` (F^T @ u) with each column of u laid out as the (L+1, L+1)
    grid of positions, both over the valid shifts only.  A valid
    correlation is the circular convolution with the flipped kernel, read
    from the kernel's far corner; kernel and output together span the
    region plus one per axis, so no sum wraps around and one (M, N)
    spectrum of the region serves both products.

    Every transform writes into buffers allocated once for blocks of
    ``columns`` vectors (``out=``, NumPy >= 2.0); a result is a view of
    them that the next product of the same kind overwrites.  The inverse
    runs as an ``ifft`` along the first axis, then an ``irfft`` along the
    second: ``irfft2`` leaves its ``out=`` unwritten on NumPy 2.4.
    """

    def __init__(self, region: np.ndarray, split: int, columns: int):
        m, n = region.shape
        self._shape = (m, n)
        self._lags = (m - split, n - split)
        self._positions = (split + 1, split + 1)
        self._spectrum = np.fft.rfft2(region)
        self._spec = np.empty((columns, m, n // 2 + 1), dtype=complex)
        self._rows = np.empty((columns, max(m - split, split + 1), n))
        self._to_positions = np.empty((columns, (split + 1) ** 2))
        self._to_lags = np.empty((columns, (m - split) * (n - split)))

    def dot(self, block: np.ndarray) -> np.ndarray:
        """F @ block for a (lags, columns) block."""
        return self._correlate(block, self._lags, self._to_positions)

    def tdot(self, block: np.ndarray) -> np.ndarray:
        """F^T @ block for a (positions, columns) block."""
        return self._correlate(block, self._positions, self._to_lags)

    def _correlate(self, block, kernel, out):
        (m, n), (kx, ky) = self._shape, kernel
        ox, oy = m - kx + 1, n - ky + 1
        spec, rows = self._spec, self._rows[:, :ox]
        kernels = block.T.reshape(-1, kx, ky)[:, ::-1, ::-1]
        np.fft.rfft(kernels, n=n, axis=2, out=spec[:, :kx])
        spec[:, kx:] = 0.0
        np.fft.fft(spec, axis=1, out=spec)
        spec *= self._spectrum
        np.fft.ifft(spec, axis=1, out=spec)
        np.fft.irfft(spec[:, kx - 1 :], n=n, axis=2, out=rows)
        np.copyto(out.reshape(-1, ox, oy), rows[:, :, ky - 1 :])
        return out.T


def _subspace_iteration(windows: _WindowMatrix, by_positions: bool, shape: tuple, n_modes: int):
    """Top Ritz pairs of the smaller Gram G of F, largest first, by block
    subspace iteration on a block of ``shape`` (Gram size, columns).

    Each step orthonormalises the block (QR) to Q and takes Y = F^T Q on
    the position Gram G = F F^T, or Y = F Q on the lag Gram G = F^T F.
    So the Rayleigh-Ritz matrix Q^T G Q is Y^T Y, and G Q is F Y or F^T Y.
    Returns (values, vectors) once every one of the top ``n_modes`` pairs
    has ||G v - theta v|| <= _RESIDUAL_TOL * theta_1: the top-``n_modes``
    eigenvectors of F^T F, as F^T U = Y w (scaled by sqrt(theta), which
    the caller divides out) or as Q w.  Returns None after _MAX_STEPS
    steps without that, or earlier when the residual cannot get there in
    the steps left.  The error of pair k shrinks by lambda_{top+1} /
    lambda_k per step, so from the second step on the largest residual is
    projected forward at the rate theta_top / theta_{n_modes}; the first
    step's Ritz values, taken from a random start, are not judged.  A Gram
    without a gap below the requested pairs thus returns None after two
    steps.

    The start is a fixed Gaussian block from a locally seeded generator:
    results repeat exactly, and no structure of the data (a harmonic
    eigenvector vanishing on a start built from Gram columns) can hide a
    dominant pair, which the residual test alone would not notice.
    """
    across, back = (windows.tdot, windows.dot) if by_positions else (windows.dot, windows.tdot)
    x = np.random.default_rng(0).standard_normal(shape)
    for step in range(_MAX_STEPS):
        q, _ = np.linalg.qr(x)
        y = across(q)
        theta, w = np.linalg.eigh(y.T @ y)
        theta, w = theta[::-1], w[:, ::-1]
        yw, vecs = y @ w, q @ w
        x = back(yw)
        residual = np.linalg.norm(x[:, :n_modes] - vecs[:, :n_modes] * theta[:n_modes], axis=0)
        limit = _RESIDUAL_TOL * theta[0]
        if np.all(residual <= limit):
            return theta, (yw if by_positions else vecs)[:, :n_modes]
        rate = max(theta[-1], 0.0) / theta[n_modes - 1] if theta[n_modes - 1] > 0 else 1.0
        if step and residual.max() * rate ** (_MAX_STEPS - 1 - step) > limit:
            return None
    return None


def extraction_indices(window_x: int, window_y: int):
    """Frozen row-index sets (base, x-shift, y-shift) for a lag window."""
    ix = np.repeat(np.arange(window_x), window_y)
    iy = np.tile(np.arange(window_y), window_x)
    base = np.flatnonzero((ix < window_x - 1) & (iy < window_y - 1))
    shift_x = np.flatnonzero((ix >= 1) & (iy < window_y - 1))
    shift_y = np.flatnonzero((ix < window_x - 1) & (iy >= 1))
    return base, shift_x, shift_y


def extract_submatrices(basis: SubspaceBasis):
    """Base and shifted row selections (U0, Ux, Uy) of the subspace."""
    m, n = basis.dims
    el = basis.split
    if not (basis.n_modes <= el):
        raise ValueError(f"split {el} below the mode count {basis.n_modes}")
    if not (el < min(m, n) - 1):
        raise ValueError(f"split {el} too large for region {basis.dims}")
    wx, wy = basis.lag_window
    if basis.vectors.shape[0] != wx * wy:
        raise ValueError("subspace row count does not match the lag window")
    if (wx - 1) * (wy - 1) < basis.n_modes:
        raise NumericError(
            f"split {el} leaves {(wx - 1) * (wy - 1)} pencil rows for "
            f"{basis.n_modes} modes: shrink the split or the order"
        )
    base, shift_x, shift_y = extraction_indices(wx, wy)
    u = basis.vectors
    return u[base], u[shift_x], u[shift_y]


def gram_inverse_direct(u0: np.ndarray) -> np.ndarray:
    """(U0^H U0)^-1 by a dense solve."""
    g = u0.conj().T @ u0
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise NumericError("pencil base selection is rank deficient") from exc


def gram_inverse_iterative(u0: np.ndarray) -> np.ndarray:
    """(U0^H U0)^-1 accumulated by rank-one Sherman-Morrison updates.

    Seeded with the exact inverse of the Gram of the first k rows, then
    updated row by row: E <- E - (E u^H)(u E) / (1 + u E u^H).  Must match
    the direct inverse, which the estimator uses, to 1e-8 max-abs.
    """
    u0 = np.asarray(u0)
    n, k = u0.shape
    if n < k:
        raise NumericError("fewer rows than columns: Gram matrix is singular")
    seed = u0[:k]
    g0 = seed.conj().T @ seed
    if np.linalg.cond(g0) > 1e12:
        raise NumericError("seed rows 0..{0} are rank deficient".format(k - 1))
    e = np.linalg.inv(g0)
    for alpha in range(k, n):
        u = u0[alpha : alpha + 1]
        eu = e @ u.conj().T
        denom = 1.0 + (u @ eu).item()
        if abs(denom) < 1e-12:
            raise NumericError(f"near-zero update denominator at row {alpha}")
        e = e - (eu @ (u @ e)) / denom
    return e


def pencil_eigenvalues(u0: np.ndarray, u_shift: np.ndarray, gram_inv: np.ndarray) -> ResonanceRoots:
    """Eigenvalues of (U0^H U0)^-1 U0^H Ushift as resonance roots."""
    if u0.shape != u_shift.shape:
        raise ValueError("base and shifted selections must have equal shapes")
    z = gram_inv @ (u0.conj().T @ u_shift)
    vals = np.linalg.eigvals(z)
    if not np.all(np.isfinite(vals)):
        raise NumericError("pencil produced non-finite eigenvalues")
    return ResonanceRoots(_sorted_roots(vals))


@dataclass(frozen=True)
class PencilDiagnostics:
    singular_values: np.ndarray
    dampings_x: np.ndarray
    dampings_y: np.ndarray
    split: int
    fit_residual: float


def estimate_model_pencil(
    region: np.ndarray, n_modes: int, split: int = None, dc_root: bool = True
):
    """Full pencil estimate of a region: roots of both axes plus amplitudes.

    The estimate runs on the mean-removed region, and its roots are
    projected onto the unit circle; the diagnostics' dampings are those of
    the roots before projection.  With ``dc_root`` a unit root is appended
    to both axes afterwards and the amplitudes are fitted on the raw
    region, so the mean rides on the unit-root component.  Returns
    (HarmonicModel, PencilDiagnostics).
    """
    region = np.asarray(region, dtype=float)
    work = region - region.mean() if dc_root else region
    if split is None:
        split = default_split(region.shape, n_modes)
    basis = svd_windows(work, split, n_modes)
    u0, ux, uy = extract_submatrices(basis)
    gram_inv = gram_inverse_direct(u0)
    zx = pencil_eigenvalues(u0, ux, gram_inv).projected()
    zy = pencil_eigenvalues(u0, uy, gram_inv).projected()
    model = fit_estimate(region, zx, zy, dc_root)
    diag = PencilDiagnostics(
        singular_values=basis.singular_values,
        dampings_x=zx.dampings,
        dampings_y=zy.dampings,
        split=split,
        fit_residual=model.fit_residual,
    )
    return model, diag

