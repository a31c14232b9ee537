"""The estimator's numerical kernels, one copy of each.

The hot math of every estimator lives here as plain numpy functions:

* :func:`pair_params_from_fits` — the standardized ``(a, h, k)``
  reduction of the fitted ``(a, b, c)`` leakage triplets;
* :func:`cross_moment_chunks` — the closed-form pairwise cross moments
  ``E[X_m X_n](rho_L)`` (paper eqs. 8-13) over a ``rho_L`` grid,
  yielded in memory-bounded chunks. The RG covariance grid
  (:func:`rg_covariance_grid`), the delta engine's sub-blocks and
  quadratic forms, and the cached cross-moment tables are all built on
  it, so their entries agree bit for bit;
* :func:`contract_grid` — the terminal ``alphas @ M_g @ alphas -
  mu_tot**2`` contraction of the eq. (9) covariance;
* :func:`lattice_rho` — the correlation at every lattice lag (the
  lag table of :class:`~repro.core.lattice.SiteLattice`), with the
  exponential/Gaussian (+ D2D floor) families evaluated directly and
  any other model through its own ``evaluate_xy``;
* :func:`lag_reduce` — the fused covariance mapping and
  multiplicity-weighted lag sum of eq. (17).

Every expression reproduces the historical inline estimator code, so
results are bit-identical to it (``tests/core/test_kernels.py``).
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import MomentExistenceError
from repro.process.correlation import (
    ExponentialCorrelation,
    GaussianCorrelation,
    ScaledCorrelation,
    TotalCorrelation,
)

#: Bound on ``chunk * rows * cols`` elements per batched cross-moment
#: temporary (~32 MiB of float64), keeping peak memory flat no matter
#: how fine the rho grid or how large the mixture.
_GRID_CHUNK_ELEMENTS = 1 << 22

#: The directly evaluated kernel families, mapped to their
#: ``gaussian`` flag.
_BASE_FAMILIES = {ExponentialCorrelation: False, GaussianCorrelation: True}


def pair_params_from_fits(
    fits: Sequence, mu_l: float, sigma_l: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-gate ``(a, h, k)`` parameter arrays for exact pair moments.

    For gate ``g`` with fit ``(a_g, b_g, c_g)``:
    ``a = c*sigma_l^2``, ``h = (b + 2*c*mu_l)*sigma_l``,
    ``k = ln(a_g) + b*mu_l + c*mu_l^2`` (standardized-variable form).
    """
    a = np.array([fit.c for fit in fits]) * sigma_l ** 2
    if np.any(1.0 - 2.0 * a <= 0):
        raise MomentExistenceError(
            "a mixture component has c*sigma^2 >= 1/2; its pairwise "
            "moments do not exist")
    h = np.array([(fit.b + 2.0 * fit.c * mu_l) * sigma_l for fit in fits])
    k = np.array([math.log(fit.a) + fit.b * mu_l + fit.c * mu_l ** 2
                  for fit in fits])
    return a, h, k


def cross_moment_chunks(
    a: np.ndarray, h: np.ndarray, k: np.ndarray, grid: np.ndarray,
    rows: Optional[np.ndarray] = None, cols: Optional[np.ndarray] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Pairwise cross moments ``M_g[rows, cols]`` over ``grid``, chunked.

    Yields ``(start, cross)`` where ``cross`` has shape ``(chunk, R,
    C)`` and holds ``E[X_m X_n](rho_L)`` for ``rho_L = grid[start:start
    + chunk]``; ``rows``/``cols`` select a sub-block (default: all
    components). The rho-independent pairwise building blocks are
    hoisted and every operation is elementwise, so an entry does not
    depend on the chunking or on which sub-block it was computed in.
    Raises :class:`~repro.exceptions.MomentExistenceError` at the first
    grid point where some pair's cross moment does not exist.
    """
    if rows is None:
        rows = np.arange(a.shape[0])
    if cols is None:
        cols = rows
    a_r, h_r, k_r = a[rows], h[rows], k[rows]
    a_c, h_c, k_c = a[cols], h[cols], k[cols]
    one_r = 1.0 - 2.0 * a_r
    one_c = 1.0 - 2.0 * a_c
    d0 = np.outer(one_r, one_c)
    aa = np.outer(a_r, a_c)
    h_sq_r = h_r * h_r
    h_sq_c = h_c * h_c
    p0 = h_sq_r[:, None] * one_c[None, :] + h_sq_c[None, :] * one_r[:, None]
    p2 = 2.0 * (h_sq_r[:, None] * a_c[None, :]
                + h_sq_c[None, :] * a_r[:, None])
    p1 = 2.0 * np.outer(h_r, h_c)
    k_sum = k_r[:, None] + k_c[None, :]

    chunk = max(1, _GRID_CHUNK_ELEMENTS // max(1, d0.size))
    for start in range(0, grid.shape[0], chunk):
        rho = grid[start:start + chunk]
        # (4*rho)*rho == 4*(rho*rho) exactly: scaling by a power of two
        # commutes with IEEE rounding, so the batched form below matches
        # the historical per-scalar "4.0 * rho * rho * aa".
        rho_sq = rho * rho
        det = d0[None] - (4.0 * rho_sq)[:, None, None] * aa[None]
        exists = det > 0
        if not exists.all():
            bad = int(np.argmin(exists.all(axis=(1, 2))))
            raise MomentExistenceError(
                "pairwise cross moment does not exist at "
                f"rho_L = {grid[start + bad]:.3f}")
        quad = (p0[None] + rho[:, None, None] * p1[None]
                + rho_sq[:, None, None] * p2[None]) / det
        yield start, det ** -0.5 * np.exp(k_sum[None] + 0.5 * quad)


def contract_grid(alphas: np.ndarray, cross: np.ndarray,
                  mean_total: float) -> np.ndarray:
    """``alphas @ cross[g] @ alphas - mean_total**2`` for every ``g``.

    The eq. (9) covariance from a stack of ``(q, q)`` cross-moment
    matrices; each point contracts its own contiguous slice.
    """
    values = np.empty(cross.shape[0])
    for g in range(cross.shape[0]):
        values[g] = float(alphas @ cross[g] @ alphas) - mean_total ** 2
    return values


def rg_covariance_grid(alphas: np.ndarray, a: np.ndarray, h: np.ndarray,
                       k: np.ndarray, grid: np.ndarray,
                       mean_total: float) -> np.ndarray:
    """RG covariance ``C_XI(rho_L)`` on a grid of ``rho_L`` values.

    For each grid point: the alpha-weighted sum of the closed-form
    pairwise cross moments of all mixture-component pairs, minus
    ``mean_total**2`` (paper eqs. 9-10 through the standardized
    ``(a, h, k)`` parameters).
    """
    values = np.empty_like(grid)
    for start, cross in cross_moment_chunks(a, h, k, grid):
        values[start:start + cross.shape[0]] = contract_grid(
            alphas, cross, mean_total)
    return values


def lattice_family(correlation) -> Optional[Tuple[float, float, float,
                                                   bool]]:
    """``(length, floor, scale, gaussian)`` when ``correlation`` is a
    recognised exponential/Gaussian shape, else ``None``.

    ``rho = floor + scale * f(d / length)`` with ``f = exp(-u)`` or
    ``exp(-u**2)`` and the same scalar ``scale`` the model multiplies
    by, so :func:`lattice_rho` stays bit-identical to ``evaluate_xy``.
    Recognition is exact-type-based: a subclass overriding
    ``_evaluate`` must not be silently replaced by the stock formula.
    """
    kind = type(correlation)
    if kind in _BASE_FAMILIES:
        return (correlation.length, 0.0, 1.0, _BASE_FAMILIES[kind])
    if kind is TotalCorrelation:
        wid = correlation.wid
        if type(wid) in _BASE_FAMILIES:
            return (wid.length, correlation.rho_floor,
                    1.0 - correlation.rho_floor, _BASE_FAMILIES[type(wid)])
    if kind is ScaledCorrelation:
        base = correlation.base
        if type(base) in _BASE_FAMILIES:
            return (base.length, 0.0, correlation.scale,
                    _BASE_FAMILIES[type(base)])
    return None


def lattice_rho(correlation, dx: np.ndarray, dy: np.ndarray,
                distance: Optional[np.ndarray] = None) -> np.ndarray:
    """Correlation at every lattice lag ``(dx_i, dy_j)``, x on axis 0.

    ``dx``/``dy`` are the 1-D physical x/y lag arrays. ``distance`` is
    an optional precomputed ``hypot`` grid, shared by callers that
    evaluate many recognised kernels on one lattice. Recognised
    families (:func:`lattice_family`) evaluate their formula on the
    distance grid; other models (e.g. anisotropic) go through their own
    ``evaluate_xy``.
    """
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    family = lattice_family(correlation)
    if family is None:
        return correlation.evaluate_xy(dx[:, None], dy[None, :])
    length, floor, scale, gaussian = family
    if distance is None:
        distance = np.hypot(dx[:, None], dy[None, :])
    if gaussian:
        base = np.exp(-((distance / length) ** 2))
    else:
        base = np.exp(-distance / length)
    if floor == 0.0 and scale == 1.0:
        return base
    return floor + scale * base


def lag_reduce(counts: np.ndarray, rho: np.ndarray,
               zero_lag: Tuple[int, int], same_site: float,
               scale: Optional[float], grid: Optional[np.ndarray],
               values: Optional[np.ndarray]) -> float:
    """Eq. (17): map lag correlations to RG covariances and reduce.

    ``cov = scale * rho`` (simplified model, ``scale`` given) or
    ``cov = interp(rho, grid, values)`` (exact mapping); the
    ``zero_lag`` entry is replaced by ``same_site`` (the eq. 11
    same-site variance); returns ``sum(counts * cov)``. ``rho`` is
    never mutated.
    """
    rho = np.asarray(rho, dtype=float)
    if scale is not None:
        cov = scale * rho
    else:
        cov = np.interp(rho, grid, values)
    cov[zero_lag] = same_site
    return float(np.sum(counts * cov))
