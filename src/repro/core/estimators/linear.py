"""The O(n) linear-time variance on the RG site grid (paper eqs. 16-17).

Because the leakage correlation depends only on the distance between
sites, the O(n^2) pairwise sum over a rectangular ``rows x cols`` grid
collapses into a sum over *distance vectors* ``(i, j)``, each occurring

``n_ij = (cols - |i|) * (rows - |j|)``

times (eq. 16). The ``(0, 0)`` entry counts exactly the ``n`` self-pairs
and contributes the full RG variance; every other entry uses the
distinct-site covariance. The transform is exact — no approximation
relative to eq. (15) on a grid.

The transform splits cleanly into a *geometry* half and a *parameter*
half: the lag vectors and their multiplicities depend only on the
placement grid (:class:`~repro.core.lattice.SiteLattice`), while the
correlation kernel and the RG covariance mapping depend only on
process/usage parameters. :func:`variance_from_rho` is the parameter
half, so sweeps reuse one lattice and one lag table across many
points; :func:`linear_variance` composes both halves for a single
point.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import lag_reduce
from repro.core.lattice import SiteLattice
from repro.core.rg_correlation import RGCorrelation
from repro.exceptions import EstimationError
from repro.obs import span
from repro.process.correlation import SpatialCorrelation


def variance_from_rho(lattice: SiteLattice, rho: np.ndarray,
                      rg_correlation: RGCorrelation) -> float:
    """Complete eq. (17) from a (possibly cached) lag correlation table.

    ``rho`` is never mutated (the covariance mapping allocates), so one
    cached table may serve many RG correlation models. The mapping +
    weighted reduction run in the fused ``lag_reduce`` kernel; the
    zero-lag entry is the n self-pairs and gets the full RG variance
    (eq. 11).
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(np.abs(rho) > 1.0 + 1e-12):
        raise EstimationError("length correlation must lie in [-1, 1]")
    with span("linear.reduce"):
        return lag_reduce(
            lattice.counts, rho, lattice.zero_lag,
            rg_correlation.same_site_covariance,
            rg_correlation.covariance_scale,
            rg_correlation.covariance_grid,
            rg_correlation.covariance_values)


def linear_variance(
    rows: int,
    cols: int,
    pitch_x: float,
    pitch_y: float,
    correlation: SpatialCorrelation,
    rg_correlation: RGCorrelation,
) -> float:
    """Total-leakage variance of the ``rows x cols`` RG array — eq. (17).

    Parameters
    ----------
    rows / cols:
        Site grid dimensions (``k`` and ``m`` in the paper).
    pitch_x / pitch_y:
        Site pitches ``Delta W`` / ``Delta H`` [m].
    correlation:
        Total channel-length correlation function.
    rg_correlation:
        The RG covariance structure.
    """
    lattice = SiteLattice(rows, cols, pitch_x, pitch_y)
    with span("linear.kernel", n_lags=lattice.counts.size):
        rho = lattice.rho(correlation)
    return variance_from_rho(lattice, rho, rg_correlation)
