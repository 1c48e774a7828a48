"""Correlation matrices and linear-symmetry coefficient estimation.

The estimators here recover the prediction polynomial of one image axis
from lag-product correlation matrices.  Two solvers are provided: the
plain linear-prediction read from the inverse correlation matrix, and the
symmetry-constrained solve that forces a palindromic polynomial (a_P = 1,
a_i = a_{P-i}), which pins the roots to reciprocal pairs and makes the
estimate insensitive to phase breaks in the data.

All functions are pure; correlation accumulation uses one fixed BLAS
product, so results are deterministic for given inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericError
from .harmonic import PolynomialCoeffs, fit_estimate, polynomial_roots

# Condition number beyond which a correlation matrix is treated as rank
# deficient and solved through a tiny ridge.
COND_LIMIT = 1e12
_RIDGE = 1e-12


@dataclass(frozen=True)
class Correlation2D:
    """Lag-product correlation of P x Q sliding windows, flattened.

    Entry ((i_x*Q + i_y), (k_x*Q + k_y)) is the unnormalised sum over all
    window positions of u[m+i_x, n+i_y] * u[m+k_x, n+k_y].
    """

    matrix: np.ndarray
    window: tuple
    source_size: tuple

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        wx, wy = self.window
        if m.shape != (wx * wy, wx * wy):
            raise ValueError("correlation matrix shape is inconsistent with the window")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class MarginalCorrelation:
    """Per-axis marginals: x lags at zero y lag, and the other way round."""

    rx: np.ndarray
    ry: np.ndarray


@dataclass(frozen=True)
class LsSolution:
    """Estimated coefficients plus the model-error dispersion.

    ``rho_last`` is the last diagonal element of the inverse correlation
    matrix; ``sigma2`` is its reciprocal.  ``degenerate`` flags solves that
    needed ridge regularisation (rank-deficient input, typically an order
    above the data rank).
    """

    coeffs: PolynomialCoeffs
    sigma2: float
    rho_last: float
    degenerate: bool = False


@dataclass(frozen=True)
class OrderSelection:
    """Result of the even-order scan: chosen order plus diagnostics."""

    order: int
    warned: bool
    rho_scan: dict
    reason: str


def correlation_2d(image: np.ndarray, window_x: int, window_y: int) -> Correlation2D:
    """Unnormalised 2D correlation matrix of window_x x window_y lags."""
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
    patches = sliding_window_view(image, (window_x, window_y))
    flat = patches.reshape(-1, window_x * window_y)
    return Correlation2D(flat.T @ flat, (window_x, window_y), (n_x, n_y))


def marginal_correlations(corr: Correlation2D) -> MarginalCorrelation:
    """Axis marginals: fix the orthogonal lag pair at zero."""
    wy = corr.window[1]
    rx = corr.matrix[::wy, ::wy].copy()
    ry = corr.matrix[:wy, :wy].copy()
    return MarginalCorrelation(rx, ry)


def _as_matrix(corr) -> np.ndarray:
    if isinstance(corr, Correlation2D):
        return corr.matrix
    return np.asarray(corr, dtype=float)


def _guarded_inverse(r: np.ndarray):
    """Inverse with a scale-relative ridge fallback for rank-deficient input.

    Returns (inverse, degenerate_flag).  A hard error is reserved for
    non-finite or all-zero input; a singular but structured matrix (an
    exact annihilation order) still carries the information we need in its
    dominant inverse directions.
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
    return np.linalg.inv(r), degenerate


def ls_coefficients(corr, order: int) -> LsSolution:
    """Plain linear-prediction solve from the inverse correlation matrix.

    Needs lags 0..order, so the supplied matrix must be at least
    (order+1) x (order+1); its leading block is used.  The last column of
    the inverse, normalised by its last element, carries the prediction
    filter; reading it back to front gives a_1..a_P of 1 + sum a_i z^i.
    """
    r = _as_matrix(corr)
    m = order + 1
    if order < 1:
        raise ValueError("order must be at least 1")
    if r.shape[0] < m:
        raise ValueError(
            f"correlation matrix of size {r.shape[0]} cannot support order {order}: "
            f"lags 0..{order} are required"
        )
    rho, degenerate = _guarded_inverse(r[:m, :m])
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
        degenerate=degenerate,
    )


def _palindromic_basis(p: int, j: int) -> np.ndarray:
    """Basis vector of the constrained filter: e_j + e_{p-j} (e_q alone at the middle)."""
    v = np.zeros(p + 1)
    if j == 0:
        v[0] = 1.0
        v[p] = 1.0
    elif j == p // 2:
        v[j] = 1.0
    else:
        v[j] = 1.0
        v[p - j] = 1.0
    return v


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
    r_full = _as_matrix(corr)
    if r_full.shape[0] < p + 1:
        raise ValueError(
            f"correlation matrix of size {r_full.shape[0]} cannot support order {p}: "
            f"lags 0..{p} are required"
        )

    rho, degenerate = _guarded_inverse(r_full[:p, :p])
    rho_last = float(rho[-1, -1])
    if rho_last <= 0.0:
        raise NumericError("inverse correlation has non-positive last diagonal entry")

    r = r_full[: p + 1, : p + 1]
    q = p // 2
    basis = [_palindromic_basis(p, j) for j in range(q + 1)]
    m = np.empty((q, q))
    rhs = np.empty(q)
    for k in range(1, q + 1):
        rk = basis[k] @ r
        for j in range(1, q + 1):
            m[k - 1, j - 1] = rk @ basis[j]
        rhs[k - 1] = -(rk @ basis[0])
    try:
        x = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric system is singular at order {p}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericError(f"symmetric system is ill-conditioned at order {p}")

    a = np.empty(p)
    for i in range(1, p):
        a[i - 1] = x[min(i, p - i) - 1]
    a[p - 1] = 1.0
    return LsSolution(
        coeffs=PolynomialCoeffs(a, symmetric=True),
        sigma2=1.0 / rho_last,
        rho_last=rho_last,
        degenerate=degenerate,
    )


def order_select(image: np.ndarray, p_max: int, axis: str = "x") -> OrderSelection:
    """Scan even orders 2..p_max and pick the model order for one axis.

    For each candidate the marginal correlation with lags 0..p is built
    and rho = 1/sigma2 of the plain solve recorded.  A rank collapse of
    the lag matrix (condition beyond COND_LIMIT) means candidate p already
    annihilates the data exactly and ends the scan.  Otherwise the first
    local maximum of rho that beats both even neighbours by at least 1% is
    chosen; with no such maximum, p_max is returned with a warning flag.
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    if p_max < 2:
        raise ValueError("p_max must be at least 2")
    image = np.asarray(image, dtype=float)
    work = image if axis == "x" else image.T

    rho_scan = {}
    candidates = list(range(2, p_max + 1, 2))
    for p in candidates:
        if work.shape[0] <= p + 1:
            raise ValueError(f"image too small for the order scan at p={p}")
        corr = correlation_2d(work, p + 1, 1)
        cond = np.linalg.cond(corr.matrix)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            rho_scan[p] = float("inf")
            return OrderSelection(p, False, rho_scan, "rank-collapse")
        sol = ls_coefficients(corr.matrix, p)
        rho_scan[p] = sol.rho_last

    if len(candidates) == 1:
        return OrderSelection(p_max, False, rho_scan, "single-candidate")

    for idx in range(1, len(candidates) - 1):
        p = candidates[idx]
        lo, hi = candidates[idx - 1], candidates[idx + 1]
        if rho_scan[p] >= 1.01 * rho_scan[lo] and rho_scan[p] >= 1.01 * rho_scan[hi]:
            return OrderSelection(p, False, rho_scan, "local-maximum")

    return OrderSelection(p_max, True, rho_scan, "no-local-maximum")


@dataclass(frozen=True)
class LsDiagnostics:
    sigma2_x: float
    sigma2_y: float
    degenerate_x: bool
    degenerate_y: bool
    condition_x: float
    condition_y: float
    fit_residual: float


def estimate_model_ls(
    region: np.ndarray,
    order_x: int,
    order_y: int,
    symmetric: bool = True,
    project: bool = True,
    dc_root: bool = True,
):
    """Full LS estimate of a region: per-axis roots plus joint amplitudes.

    Roots come from the axis marginals of the 2D correlation (symmetric
    palindromic solve by default).  The estimate runs on the mean-removed
    region; with ``dc_root`` a unit root is appended to both axes and the
    amplitudes are fitted on the raw region so the mean rides on it.
    Returns (HarmonicModel, LsDiagnostics).
    """
    region = np.asarray(region, dtype=float)
    work = region - region.mean() if dc_root else region
    corr = correlation_2d(work, order_x + 1, order_y + 1)
    marg = marginal_correlations(corr)
    solver = ls_symmetric_coefficients if symmetric else ls_coefficients
    sol_x = solver(marg.rx, order_x)
    sol_y = solver(marg.ry, order_y)
    zx = polynomial_roots(sol_x.coeffs, project=project)
    zy = polynomial_roots(sol_y.coeffs, project=project)
    model = fit_estimate(region, zx, zy, dc_root)
    diag = LsDiagnostics(
        sigma2_x=sol_x.sigma2,
        sigma2_y=sol_y.sigma2,
        degenerate_x=sol_x.degenerate,
        degenerate_y=sol_y.degenerate,
        condition_x=float(np.linalg.cond(marg.rx)),
        condition_y=float(np.linalg.cond(marg.ry)),
        fit_residual=model.fit_residual,
    )
    return model, diag
