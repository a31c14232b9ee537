"""Pairwise cross-moment algebra for incremental estimation.

The exact RG covariance (paper eqs. 9-13) at a grid point ``rho_g`` is
the quadratic form

``C_g = alpha^T M_g alpha - mu_tot^2``

where ``M_g[m, n] = E[X_m X_n](rho_g)`` is the pairwise cross-moment
matrix — a function of the fitted ``(a, b, c)`` triplets and the process
statistics only, *independent of the mixture weights*. Everything this
module computes exploits that split:

* :func:`cross_block` — an arbitrary ``rows x cols`` sub-block of
  ``M_g`` over the whole grid, element-for-element identical to the
  entries :func:`repro.core.kernels.rg_covariance_grid` builds
  internally (both come from
  :func:`~repro.core.kernels.cross_moment_chunks`);
* :func:`quadratic_products` — the one-pass chunked contraction
  producing everything :class:`~repro.delta.base.BaseEstimate` and
  :class:`~repro.delta.engine.DeltaProbe` snapshot: ``vq_g = a^T M_g
  a``, ``U_g = M_g a``, and optional line coefficients ``b_g = d^T M_g
  a`` / ``c_g = d^T M_g d`` for a probe direction ``d``;
* :class:`CrossMomentTable` — a cached full ``(G, q, q)`` tensor whose
  :meth:`contract` runs the same final ``alphas @ cross[g] @ alphas -
  mu_tot**2`` contraction (:func:`~repro.core.kernels.contract_grid`),
  making usage-only rebuilds of the covariance grid **bit-identical**
  to a fresh ``rg_covariance_grid`` call.

The per-component ``(a, h, k)`` reduction of the fits is
:func:`repro.core.kernels.pair_params_from_fits`.

An edit with support ``S`` (the components whose weight changed) then
updates the quadratic form in ``o(q)``:

``vq' = vq + 2 (U[:, S] @ delta) + delta^T M_SS delta``

with only the ``|S| x |S|`` block ``M_SS`` recomputed; committing the
edit additionally refreshes ``U' = U + M[:, S] @ delta`` so further
edits compose.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.kernels import (
    contract_grid,
    cross_moment_chunks,
    pair_params_from_fits,
)


def cross_block(a: np.ndarray, h: np.ndarray, k: np.ndarray,
                grid: np.ndarray, rows: np.ndarray,
                cols: np.ndarray) -> np.ndarray:
    """``M_g[rows, cols]`` for every grid point — shape ``(G, R, C)``.

    Entries are bit-identical to the corresponding entries of the full
    cross-moment matrices :func:`~repro.core.kernels.rg_covariance_grid`
    builds: both come from the same elementwise chunk iterator.
    """
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    out = np.empty((grid.shape[0], rows.shape[0], cols.shape[0]))
    for start, cross in cross_moment_chunks(a, h, k, grid, rows, cols):
        out[start:start + cross.shape[0]] = cross
    return out


def quadratic_products(a: np.ndarray, h: np.ndarray, k: np.ndarray,
                       grid: np.ndarray, alphas: np.ndarray,
                       direction: Optional[np.ndarray] = None,
                       want_u: bool = True):
    """One chunked pass over the grid computing the quadratic-form state.

    Returns ``(vq, U, b, c)`` where ``vq_g = alphas^T M_g alphas``,
    ``U_g = M_g alphas`` (``None`` when ``want_u`` is false), and — when
    a probe ``direction`` ``d`` is given — ``b_g = d^T M_g alphas`` and
    ``c_g = d^T M_g d`` (else ``None``). One pass costs the same as a
    covariance-grid build; every later edit or probe then works
    from these ``O(G q)`` summaries without touching ``M`` again.
    """
    q = alphas.shape[0]
    n_grid = grid.shape[0]
    vq = np.empty(n_grid)
    u = np.empty((n_grid, q)) if want_u else None
    b = np.empty(n_grid) if direction is not None else None
    c = np.empty(n_grid) if direction is not None else None
    for start, cross in cross_moment_chunks(a, h, k, grid):
        for offset in range(cross.shape[0]):
            g = start + offset
            m_alpha = cross[offset] @ alphas
            vq[g] = float(alphas @ m_alpha)
            if want_u:
                u[g] = m_alpha
            if direction is not None:
                b[g] = float(direction @ m_alpha)
                c[g] = float(direction @ (cross[offset] @ direction))
    return vq, u, b, c


class CrossMomentTable:
    """Cached full cross-moment tensor for usage-only rebuild reuse.

    Holds the ``(G, q, q)`` tensor ``cross[g] = M_g`` for one component
    set (one label tuple + process point + grid). :meth:`contract`
    runs the same terminal contraction as a fresh build — ``float(alphas
    @ cross[g] @ alphas) - mean_total**2`` per grid point, on a C-order
    contiguous ``(q, q)`` slice — so for any mixture weights over the
    *same* components the produced covariance values are bit-identical
    to a fresh ``rg_covariance_grid`` build. This is what lets
    usage-axis sweep points skip the O(G q^2) moment build and pay only
    the O(G q) contraction.

    ``max_elements`` bounds the cached tensor (default ~128 MiB of
    float64); :meth:`build` returns ``None`` above the bound so callers
    fall back to the normal path.
    """

    def __init__(self, grid: np.ndarray, cross: np.ndarray) -> None:
        self.grid = grid
        self.cross = np.ascontiguousarray(cross)

    @classmethod
    def build(cls, fits, mu_l: float, sigma_l: float, grid: np.ndarray,
              max_elements: int = 1 << 24) -> Optional["CrossMomentTable"]:
        q = len(fits)
        if grid.shape[0] * q * q > max_elements:
            return None
        a, h, k = pair_params_from_fits(fits, mu_l, sigma_l)
        idx = np.arange(q)
        return cls(grid, cross_block(a, h, k, grid, idx, idx))

    @property
    def nbytes(self) -> int:
        return int(self.cross.nbytes)

    def contract(self, alphas: np.ndarray, mean_total: float) -> np.ndarray:
        """Covariance values for mixture ``alphas`` — bit-identical to a
        fresh build over the same components."""
        return contract_grid(alphas, self.cross, mean_total)
