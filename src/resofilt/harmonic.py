"""Eigen-harmonic texture model.

A textured raster is modelled as a sum of 2D complex exponentials
``z_x^i * z_y^k`` with an amplitude matrix coupling the two axes.  This
module holds the model types (polynomial coefficients, resonance roots,
amplitude model) and the operations on them: the linear shift operator in
companion form, root extraction, Vandermonde bases, forward and inverse
spectral transforms, the unit-root amplitude fit that ends both
estimators, kernel shifting, and a synthetic-texture generator used
throughout the tests.  A fitted model keeps the amplitude basis of its
fit and every model its unit-root Lagrange factors, which filter design
reuses.

Everything here is a pure function over immutable inputs; concurrent use
needs no locking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, NumericError

# Relative singular-value cutoff for pseudoinverses of Vandermonde bases.
PINV_RCOND = 1e-10

# Largest distance from 1 at which a root counts as the unit (mean) root.
UNIT_ROOT_TOL = 1e-6

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PolynomialCoeffs:
    """Real coefficients a_1..a_P of the prediction polynomial 1 + sum a_i z^i.

    When ``symmetric`` is set the coefficients must be exactly palindromic
    (a_P = 1 and a_i = a_{P-i}); the symmetric estimator constructs them
    that way bit for bit.
    """

    a: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if a.ndim != 1 or a.size == 0:
            raise ValueError("coefficient list must be a non-empty 1D sequence")
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        if self.symmetric:
            p = a.size
            if p % 2 != 0:
                raise ValueError("symmetric coefficients require even order")
            if a[-1] != 1.0:
                raise ValueError("symmetric coefficients require a_P = 1")
            for i in range(1, p // 2):
                if a[i - 1] != a[p - i - 1]:
                    raise ValueError("symmetric coefficients must be palindromic")

    @property
    def order(self) -> int:
        return int(self.a.size)


@dataclass(frozen=True)
class ResonanceRoots:
    """Complex resonance roots z_i = |z_i| exp(i 2 pi f_i) of one image axis.

    ``source_moduli`` keeps the moduli seen before any unit-circle
    projection so damping diagnostics survive the projection.
    """

    roots: np.ndarray
    source_moduli: np.ndarray = field(default=None)

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.roots, dtype=complex)).copy()
        if z.ndim != 1 or z.size == 0:
            raise ValueError("roots must be a non-empty 1D sequence")
        if not np.all(np.isfinite(z)):
            raise NumericError("non-finite resonance root")
        mod = self.source_moduli
        mod = np.abs(z) if mod is None else np.asarray(mod, dtype=float).copy()
        if mod.shape != z.shape:
            raise ValueError("source_moduli must match the root count")
        z.setflags(write=False)
        mod.setflags(write=False)
        object.__setattr__(self, "roots", z)
        object.__setattr__(self, "source_moduli", mod)

    def __len__(self) -> int:
        return int(self.roots.size)

    @property
    def frequencies(self) -> np.ndarray:
        """Root angles in cycles per pixel, in (-0.5, 0.5]."""
        f = np.angle(self.roots) / _TWO_PI
        return np.where(f <= -0.5, f + 1.0, f)

    @property
    def dampings(self) -> np.ndarray:
        """|z| - 1 per root, from the pre-projection moduli."""
        return self.source_moduli - 1.0

    def projected(self) -> "ResonanceRoots":
        """Copy with every root moved radially onto the unit circle."""
        mod = np.abs(self.roots)
        if np.any(mod == 0.0):
            raise NumericError("cannot project a zero root onto the unit circle")
        return ResonanceRoots(self.roots / mod, source_moduli=self.source_moduli)

    def unit_root_index(self):
        """Index of the root nearest 1 if it lies within UNIT_ROOT_TOL, else None."""
        u = int(np.argmin(np.abs(self.roots - 1.0)))
        return u if abs(self.roots[u] - 1.0) < UNIT_ROOT_TOL else None

    def with_appended(self, value: complex) -> "ResonanceRoots":
        return ResonanceRoots(
            np.concatenate([self.roots, [complex(value)]]),
            source_moduli=np.concatenate([self.source_moduli, [abs(value)]]),
        )


@dataclass(frozen=True)
class TextureKernel:
    """One period of the texture: a real P x Q block of pixel intensities."""

    values: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.values, dtype=float).copy()
        if b.ndim != 2:
            raise ValueError("kernel must be 2D")
        if not np.all(np.isfinite(b)):
            raise ValueError("kernel entries must be finite")
        b.setflags(write=False)
        object.__setattr__(self, "values", b)

    @property
    def shape(self):
        return self.values.shape


def _sorted_roots(z: np.ndarray) -> np.ndarray:
    order = np.lexsort((np.abs(z), np.round(np.angle(z), 12)))
    return z[order]


def companion_matrix(coeffs: PolynomialCoeffs) -> np.ndarray:
    """Linear shift operator in companion form.

    Superdiagonal ones; last row (-a_P, -a_{P-1}, ..., -a_1).  Applying it
    to a window of P consecutive samples shifts the window by one step,
    synthesising the new sample by linear prediction.
    """
    p = coeffs.order
    k = np.zeros((p, p))
    if p > 1:
        k[np.arange(p - 1), np.arange(1, p)] = 1.0
    k[-1, :] = -coeffs.a[::-1]
    return k


def polynomial_roots(coeffs: PolynomialCoeffs) -> ResonanceRoots:
    """Roots of 1 + sum a_i z^i = 0 via companion-matrix eigenvalues, as
    found: ``fit_estimate`` projects an estimator's roots.

    Trailing near-zero coefficients are stripped first (they only lower
    the order).
    """
    a = np.asarray(coeffs.a, dtype=float)
    scale = max(1.0, float(np.abs(a).max()))
    keep = a.size
    while keep > 0 and abs(a[keep - 1]) <= 1e-14 * scale:
        keep -= 1
    if keep == 0:
        raise NumericError("degenerate polynomial: no significant coefficients")
    a = a[:keep]
    # np.roots builds the companion matrix of the reversed (monic) polynomial
    # and takes its eigenvalues.
    z = np.roots(np.concatenate([a[::-1], [1.0]]))
    return ResonanceRoots(_sorted_roots(np.asarray(z, dtype=complex)))


def coeffs_from_roots(roots) -> PolynomialCoeffs:
    """Polynomial coefficients whose root set is the given one.

    The root set must be closed under conjugation so the coefficients are
    real.
    """
    z = roots.roots if isinstance(roots, ResonanceRoots) else np.asarray(roots, complex)
    d = np.atleast_1d(np.poly(z))  # monic, descending powers
    if abs(d[-1]) < 1e-300:
        raise NumericError("root at zero has no finite prediction polynomial")
    ascending = d[::-1] / d[-1]
    a = ascending[1:]
    if np.abs(a.imag).max(initial=0.0) > 1e-8 * max(1.0, np.abs(a.real).max(initial=0.0)):
        raise NumericError("root set is not conjugate-closed; coefficients not real")
    return PolynomialCoeffs(a.real)


def vandermonde(roots, n: int) -> np.ndarray:
    """n x P basis with entry (t, i) = z_i^t, t = 0..n-1."""
    z = roots.roots if isinstance(roots, ResonanceRoots) else np.asarray(roots, complex)
    p = z.size
    if n < p:
        raise ValueError(f"basis length {n} is below the root count {p}")
    return z[None, :] ** np.arange(n)[:, None]


def _checked_pinv(basis: np.ndarray) -> np.ndarray:
    """Pseudoinverse of a Vandermonde basis from one SVD.

    The steps are ``np.linalg.pinv(basis, rcond=PINV_RCOND)``'s own (SVD
    of the conjugate, relative cutoff, vt^H (s^-1 u^H)), so the result is
    the same bit for bit; that SVD's singular values also judge whether the
    roots are too close to fit amplitudes to.
    """
    u, s, vt = np.linalg.svd(basis.conj(), full_matrices=False)
    if s[-1] < PINV_RCOND * s[0]:
        raise ModelError(
            "coincident resonance roots: the amplitude fit is ill-posed"
        )
    large = s > PINV_RCOND * s.max()
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    pinv = np.matmul(vt.T, np.multiply(s[:, None], u.T))
    pinv.setflags(write=False)
    return pinv


def unit_lagrange(roots: ResonanceRoots):
    """Unit-root index and ascending coefficients of the unit root's Lagrange
    polynomial prod_{i != u} (z - z_i) / (1 - z_i): 1 at z = 1, 0 at the
    rest.  None when no root lies within UNIT_ROOT_TOL of 1."""
    u = roots.unit_root_index()
    if u is None:
        return None
    others = np.delete(roots.roots, u)
    h = np.atleast_1d(np.poly(others))[::-1] / np.prod(1.0 - others)
    h.setflags(write=False)
    return u, h


@dataclass(frozen=True, eq=False)
class AmplitudeBasis:
    """Pseudoinverses of both axes' Vandermonde bases over an n_x x n_y
    region, from one SVD each: what an amplitude fit on the region and
    every filter design on a base region of its shape share.  Read-only;
    ``amplitude_basis`` builds one.
    """

    zx: ResonanceRoots
    zy: ResonanceRoots
    pinv_x: np.ndarray = field(repr=False)
    pinv_y: np.ndarray = field(repr=False)

    @property
    def shape(self):
        return (self.pinv_x.shape[1], self.pinv_y.shape[1])

    def spectrum(self, region: np.ndarray) -> np.ndarray:
        """Amplitude matrix of a float region of this basis's shape."""
        return self.pinv_x @ region @ self.pinv_y.T


def _bases(zx, zy, shape):
    if len(shape) != 2:
        raise ValueError("region must be 2D")
    return vandermonde(zx, shape[0]), vandermonde(zy, shape[1])


def amplitude_basis(zx: ResonanceRoots, zy: ResonanceRoots, shape) -> AmplitudeBasis:
    """The ``AmplitudeBasis`` of the roots over a region of ``shape``."""
    vx, vy = _bases(zx, zy, shape)
    return AmplitudeBasis(zx, zy, _checked_pinv(vx), _checked_pinv(vy))


def spectrum(region: np.ndarray, zx: ResonanceRoots, zy: ResonanceRoots) -> np.ndarray:
    """Amplitude matrix of a region in the harmonic basis (least squares).

    Solves region ~ Zx A Zy^T for A with the overdetermined Vandermonde
    bases of both axes, using SVD pseudoinverses with a relative cutoff of
    ``PINV_RCOND``.  Builds its own ``AmplitudeBasis``; a fitted model
    carries the one its fit built.
    """
    region = np.asarray(region, dtype=float)
    return amplitude_basis(zx, zy, region.shape).spectrum(region)


def _residual(region, vx, vy, amplitudes) -> float:
    synth = vx @ amplitudes @ vy.T
    return float(np.abs(synth.real - region).max())


@dataclass(frozen=True)
class HarmonicModel:
    """Resonance roots of both axes plus the complex amplitude matrix.

    ``lagrange_x`` and ``lagrange_y`` are each axis's ``unit_lagrange``
    (None without a unit root), built with the model.  ``basis`` is the
    ``AmplitudeBasis`` of the region ``fit`` fitted on, which filter
    design on a base region of that shape reuses; a model built from its
    parts (a loaded document, say) has none.  All are read-only.
    """

    zx: ResonanceRoots
    zy: ResonanceRoots
    amplitudes: np.ndarray
    fit_residual: float = float("nan")
    basis: AmplitudeBasis = field(default=None, repr=False, compare=False)
    lagrange_x: tuple = field(init=False, repr=False, compare=False)
    lagrange_y: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).copy()
        if a.shape != (len(self.zx), len(self.zy)):
            raise ValueError("amplitude matrix must be (len(zx), len(zy))")
        basis = self.basis
        if basis is not None and (basis.zx is not self.zx or basis.zy is not self.zy):
            raise ValueError("amplitude basis was built on other roots")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "lagrange_x", unit_lagrange(self.zx))
        object.__setattr__(self, "lagrange_y", unit_lagrange(self.zy))

    @property
    def order(self):
        return (len(self.zx), len(self.zy))

    @classmethod
    def fit(cls, region: np.ndarray, zx: ResonanceRoots, zy: ResonanceRoots) -> "HarmonicModel":
        """Least-squares amplitudes of a region (see ``spectrum``) and their
        fit residual, from one ``AmplitudeBasis`` that the model keeps."""
        region = np.asarray(region, dtype=float)
        vx, vy = _bases(zx, zy, region.shape)
        basis = AmplitudeBasis(zx, zy, _checked_pinv(vx), _checked_pinv(vy))
        amp = basis.spectrum(region)
        return cls(zx, zy, amp, fit_residual=_residual(region, vx, vy, amp), basis=basis)


def fit_estimate(
    region: np.ndarray, zx: ResonanceRoots, zy: ResonanceRoots, dc_root: bool
) -> HarmonicModel:
    """Shared ending of both estimators: roots found on a region to a model.

    Each axis's roots are projected onto the unit circle (``projected``,
    which keeps their moduli as found).  With ``dc_root`` a unit root is
    then appended to each axis, unless the axis already carries one, which
    is warned about at the estimator's caller.  The amplitudes are fitted
    on the raw region, so the mean rides on the unit-root component.
    """
    axes = []
    for roots in (zx.projected(), zy.projected()):
        if dc_root and roots.unit_root_index() is not None:
            warnings.warn(
                "estimate already carries a unit root; skipping the mean component",
                stacklevel=3,
            )
        elif dc_root:
            roots = roots.with_appended(1.0)
        axes.append(roots)
    return HarmonicModel.fit(region, *axes)


def reconstruct(model: HarmonicModel, n_x: int, n_y: int) -> np.ndarray:
    """Pixel values d_{i,k} = Re[ sum A_{m,n} zx_m^i zy_n^k ] on an n_x x n_y grid."""
    synth = (
        vandermonde(model.zx, n_x) @ model.amplitudes @ vandermonde(model.zy, n_y).T
    )
    return synth.real


def shift_kernel(
    kernel: TextureKernel,
    coeffs_x: PolynomialCoeffs,
    coeffs_y: PolynomialCoeffs,
    t: int,
    tau: int,
) -> TextureKernel:
    """Kernel shifted t rows and tau columns through the companion operators."""
    if t < 0 or tau < 0:
        raise ValueError("shifts must be non-negative")
    kx = np.linalg.matrix_power(companion_matrix(coeffs_x), t)
    ky = np.linalg.matrix_power(companion_matrix(coeffs_y), tau)
    return TextureKernel(kx @ kernel.values @ ky.T)


def synth_texture(
    freq_pairs,
    n_x: int,
    n_y: int,
    noise_sigma: float = 0.0,
    seed: int = 0,
    mean: float = 0.0,
) -> np.ndarray:
    """Sum of real 2D harmonics plus optional white Gaussian noise.

    ``freq_pairs`` holds (fx, fy, amplitude, phase) tuples with frequencies
    in (-0.5, 0.5] cycles/pixel.  The noise stream is seeded, so fixtures
    are reproducible.
    """
    rows = np.arange(n_x)[:, None]
    cols = np.arange(n_y)[None, :]
    out = np.full((n_x, n_y), float(mean))
    seen = []
    for entry in freq_pairs:
        fx, fy, amp, phase = (float(v) for v in entry)
        for f in (fx, fy):
            if not (-0.5 < f <= 0.5):
                raise ValueError(f"frequency {f} outside (-0.5, 0.5]")
        for gx, gy in seen:
            if abs(gx - fx) < 1e-12 and abs(gy - fy) < 1e-12:
                raise ValueError(f"aliased duplicate frequency pair ({fx}, {fy})")
        seen.append((fx, fy))
        out += amp * np.cos(_TWO_PI * (fx * rows + fy * cols) + phase)
    if noise_sigma:
        out += np.random.default_rng(seed).normal(0.0, noise_sigma, out.shape)
    return out
