"""Axis correlation matrices and linear-symmetry coefficient estimation.

The estimators here recover the prediction polynomial of one image axis
from its lag-product correlation matrix.  Two solvers are provided: the
plain linear-prediction read from the inverse correlation matrix, and the
symmetry-constrained solve that forces a palindromic polynomial (a_P = 1,
a_i = a_{P-i}), which pins the roots to reciprocal pairs and makes the
estimate insensitive to phase breaks in the data.

All functions are pure; each axis correlation is accumulated by one fixed
BLAS product, so results are deterministic for given inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericError
from .harmonic import PolynomialCoeffs, fit_estimate, polynomial_roots

# Condition number beyond which a correlation matrix is treated as rank
# deficient and inverted through a tiny ridge.
COND_LIMIT = 1e12
_RIDGE = 1e-12


@dataclass(frozen=True)
class LsSolution:
    """Estimated coefficients plus the model-error dispersion.

    ``rho_last`` is the last diagonal element of the inverse correlation
    matrix; ``sigma2`` is its reciprocal.  ``condition`` is the condition
    number of the P x P block that inverse is taken of, and ``degenerate``
    flags that it exceeded COND_LIMIT (rank-deficient input, typically an
    order above the data rank), so a tiny ridge was added before the
    inversion.  The plain solve reads its coefficients from that inverse;
    the palindromic solve solves a (P/2) x (P/2) system of its own with no
    ridge, so the ridge reaches its ``sigma2`` and ``rho_last`` only.
    """

    coeffs: PolynomialCoeffs
    sigma2: float
    rho_last: float
    condition: float
    degenerate: bool = False


def marginal_correlations(image: np.ndarray, window_x: int, window_y: int):
    """Axis marginals (rx, ry) of the window_x x window_y lag correlation.

    ``rx[i, k]`` sums u[m+i, n] * u[m+k, n] and ``ry[i, k]`` sums
    u[m, n+i] * u[m, n+k] over every position (m, n) of a window_x x
    window_y window: the blocks of the full 2D lag correlation whose
    orthogonal lags are both zero.  Positions are taken in row-major
    (m, n) order, as the rows of the full window matrix.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("image must be 2D")
    n_x, n_y = image.shape
    if window_x < 1 or window_y < 1:
        raise ValueError("window sizes must be positive")
    if n_x <= window_x or n_y <= window_y:
        raise ValueError(
            f"window ({window_x}, {window_y}) does not fit image ({n_x}, {n_y})"
        )
    fx = sliding_window_view(image[:, : n_y - window_y + 1], window_x, axis=0)
    fy = sliding_window_view(image[: n_x - window_x + 1], window_y, axis=1)
    fx = fx.reshape(-1, window_x)
    fy = fy.reshape(-1, window_y)
    return fx.T @ fx, fy.T @ fy


def _guarded_inverse(r: np.ndarray):
    """Inverse with a scale-relative ridge fallback for rank-deficient input.

    Returns (inverse, condition number, degenerate flag).  A hard error is
    reserved for non-finite or all-zero input; a singular but structured
    matrix (an exact annihilation order) still carries the information we
    need in its dominant inverse directions.
    """
    if not np.all(np.isfinite(r)):
        raise NumericError("correlation matrix has non-finite entries")
    scale = float(np.trace(r)) / r.shape[0]
    if scale <= 0.0:
        raise NumericError("correlation matrix is not positive: degenerate data")
    cond = np.linalg.cond(r)
    degenerate = bool(not np.isfinite(cond) or cond > COND_LIMIT)
    if degenerate:
        r = r + (_RIDGE * scale) * np.eye(r.shape[0])
    return np.linalg.inv(r), float(cond), degenerate


def ls_coefficients(corr, order: int) -> LsSolution:
    """Plain linear-prediction solve from the inverse correlation matrix.

    Needs lags 0..order, so the supplied matrix must be at least
    (order+1) x (order+1); its leading block is used.  The last column of
    the inverse, normalised by its last element, carries the prediction
    filter; reading it back to front gives a_1..a_P of 1 + sum a_i z^i.
    """
    r = np.asarray(corr, dtype=float)
    m = order + 1
    if order < 1:
        raise ValueError("order must be at least 1")
    if r.shape[0] < m:
        raise ValueError(
            f"correlation matrix of size {r.shape[0]} cannot support order {order}: "
            f"lags 0..{order} are required"
        )
    rho, cond, degenerate = _guarded_inverse(r[:m, :m])
    last = rho[:, -1]
    denom = last[-1]
    if denom <= 0.0:
        raise NumericError("inverse correlation has non-positive last diagonal entry")
    filt = last / denom  # filt[i] = a_{order-i}, filt[-1] = 1
    a = filt[:-1][::-1]
    return LsSolution(
        coeffs=PolynomialCoeffs(a),
        sigma2=1.0 / denom,
        rho_last=float(denom),
        condition=cond,
        degenerate=degenerate,
    )


def ls_symmetric_coefficients(corr, order: int) -> LsSolution:
    """Symmetry-constrained solve: palindromic coefficients, even order.

    Minimises the prediction quadratic form under a_P = 1 and
    a_i = a_{P-i}.  The form needs lag products up to lag P, so the
    supplied matrix must be at least (P+1) x (P+1); its leading block is
    used.
    """
    p = order
    if p < 2 or p % 2 != 0:
        raise ValueError("symmetric solve requires an even order >= 2")
    r_full = np.asarray(corr, dtype=float)
    if r_full.shape[0] < p + 1:
        raise ValueError(
            f"correlation matrix of size {r_full.shape[0]} cannot support order {p}: "
            f"lags 0..{p} are required"
        )

    rho, cond, degenerate = _guarded_inverse(r_full[:p, :p])
    rho_last = float(rho[-1, -1])
    if rho_last <= 0.0:
        raise NumericError("inverse correlation has non-positive last diagonal entry")

    # Row j of the basis is e_j + e_{p-j} (e_q alone at the middle); row 0
    # carries the fixed a_0 = a_P = 1.  Each entry of rb, m and rhs sums at
    # most two nonzero terms, so no BLAS summation order changes its bits.
    q = p // 2
    j = np.arange(q + 1)
    b = np.zeros((q + 1, p + 1))
    b[j, j] = 1.0
    b[j, p - j] = 1.0
    rb = b[1:] @ r_full[: p + 1, : p + 1]
    m = rb @ b[1:].T
    rhs = -(rb @ b[0])
    try:
        x = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric system is singular at order {p}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericError(f"symmetric system is ill-conditioned at order {p}")

    i = np.arange(1, p)
    a = np.append(x[np.minimum(i, p - i) - 1], 1.0)
    return LsSolution(
        coeffs=PolynomialCoeffs(a, symmetric=True),
        sigma2=1.0 / rho_last,
        rho_last=rho_last,
        condition=cond,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class LsDiagnostics:
    sigma2_x: float
    sigma2_y: float
    degenerate_x: bool
    degenerate_y: bool
    condition_x: float
    condition_y: float


def estimate_model_ls(region: np.ndarray, order_x: int, order_y: int, dc_root: bool = True):
    """Full LS estimate of a region: per-axis roots plus joint amplitudes.

    Roots come from the palindromic solve on each axis marginal of the 2D
    lag correlation of the region (mean-removed with ``dc_root``), and
    ``fit_estimate`` ends the estimate: it projects them onto the unit
    circle, appends the unit root with ``dc_root`` and fits the amplitudes
    on the raw region, so the mean rides on the unit root.  The
    diagnostics' condition numbers are those the solves judged.  Returns
    (HarmonicModel, LsDiagnostics).
    """
    region = np.asarray(region, dtype=float)
    work = region - region.mean() if dc_root else region
    rx, ry = marginal_correlations(work, order_x + 1, order_y + 1)
    sol_x = ls_symmetric_coefficients(rx, order_x)
    sol_y = ls_symmetric_coefficients(ry, order_y)
    model = fit_estimate(region, polynomial_roots(sol_x.coeffs),
                         polynomial_roots(sol_y.coeffs), dc_root)
    return model, LsDiagnostics(
        sigma2_x=sol_x.sigma2,
        sigma2_y=sol_y.sigma2,
        degenerate_x=sol_x.degenerate,
        degenerate_y=sol_y.degenerate,
        condition_x=sol_x.condition,
        condition_y=sol_y.condition,
    )
