"""Random-Gate leakage covariance (paper Section 2.2.3).

For two RGs at distinct locations, the covariance of their leakages is
the usage-weighted average over all gate-type pairs (eq. 9):

``C_XI(rho_L) = sum_mn alpha_m alpha_n [E[X_m X_n](rho_L) - mu_m mu_n]``

evaluated through the leakage-correlation mapping ``f_mn`` (eq. 10). At
the *same* location the covariance is the full RG variance (eq. 11) —
note the discontinuity: ``C_XI(rho_L -> 1) < sigma_XI^2`` because gate
*selection* at two distinct sites is independent even when the process
correlation is perfect.

Two evaluation modes:

* **exact** — the closed-form pairwise cross moment from the fitted
  ``(a, b, c)`` triplets, precomputed on a dense grid of ``rho_L`` and
  linearly interpolated (the mapping is smooth and nearly linear);
* **simplified** — the paper's Section 3.1.2 assumption
  ``rho_mn = rho_L`` for all pairs, giving
  ``C_XI(rho_L) = rho_L * (sum_i alpha_i sigma_i)^2``. This is the only
  option when cells were characterized by Monte Carlo (no triplets).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.kernels import pair_params_from_fits, rg_covariance_grid
from repro.core.random_gate import RandomGate
from repro.exceptions import EstimationError


class RGCorrelation:
    """Distance-free RG covariance as a function of length correlation.

    Parameters
    ----------
    random_gate:
        The RG whose mixture defines the covariance.
    mu_l / sigma_l:
        Channel-length mean and *total* standard deviation.
    simplified:
        Force the simplified ``rho_mn = rho_L`` assumption. Defaults to
        exact when fits are available, simplified otherwise.
    n_grid:
        Grid resolution for the precomputed exact mapping on [-1, 1].
    """

    def __init__(self, random_gate: RandomGate, mu_l: float, sigma_l: float,
                 simplified: Optional[bool] = None, n_grid: int = 65) -> None:
        mixture = random_gate.mixture
        if simplified is None:
            simplified = not mixture.has_fits
        if not simplified and not mixture.has_fits:
            raise EstimationError(
                "exact RG correlation requires (a, b, c) fits; characterize "
                "the library in analytical mode or set simplified=True")
        self.random_gate = random_gate
        self.simplified = bool(simplified)
        self.variance = random_gate.variance

        if self.simplified:
            self._scale = random_gate.mean_of_stds ** 2
            self._grid = None
            self._values = None
        else:
            self._grid = np.linspace(-1.0, 1.0, n_grid)
            self._values = self._exact_covariance_grid(
                mixture, mu_l, sigma_l, self._grid)
            self._scale = None

    @classmethod
    def from_values(cls, random_gate: RandomGate, grid: np.ndarray,
                    values: np.ndarray) -> "RGCorrelation":
        """Exact-mode instance from a precomputed covariance mapping.

        ``grid``/``values`` must be the exact mapping for this random
        gate's mixture (e.g. produced by a cached
        :class:`repro.delta.moments.CrossMomentTable` contraction,
        which is bit-identical to a fresh build). Skips the
        O(grid x q^2) moment pass entirely.
        """
        instance = cls.__new__(cls)
        instance.random_gate = random_gate
        instance.simplified = False
        instance.variance = random_gate.variance
        instance._scale = None
        instance._grid = np.asarray(grid, dtype=float)
        instance._values = np.asarray(values, dtype=float)
        return instance

    @staticmethod
    def _exact_covariance_grid(mixture, mu_l: float, sigma_l: float,
                               grid: np.ndarray) -> np.ndarray:
        a, h, k = pair_params_from_fits(mixture.fits, mu_l, sigma_l)
        mean_total = float(mixture.alphas @ mixture.means)
        return rg_covariance_grid(mixture.alphas, a, h, k, grid,
                                  mean_total)

    @property
    def covariance_scale(self) -> Optional[float]:
        """Simplified-mode slope ``(sum_i alpha_i sigma_i)^2``, or
        ``None`` in exact mode. With :attr:`covariance_grid` /
        :attr:`covariance_values` this exposes the covariance mapping in
        the exact representation :func:`repro.core.kernels.lag_reduce`
        consumes."""
        return self._scale

    @property
    def covariance_grid(self) -> Optional[np.ndarray]:
        """Exact-mode ``rho_L`` interpolation grid, or ``None``."""
        return self._grid

    @property
    def covariance_values(self) -> Optional[np.ndarray]:
        """Exact-mode ``C_XI`` values on :attr:`covariance_grid`."""
        return self._values

    def covariance(self, rho_l) -> np.ndarray:
        """``C_XI`` between two *distinct* sites with length correlation
        ``rho_l`` (scalar or array)."""
        rho_l = np.asarray(rho_l, dtype=float)
        if np.any(np.abs(rho_l) > 1.0 + 1e-12):
            raise EstimationError("length correlation must lie in [-1, 1]")
        if self.simplified:
            return self._scale * rho_l
        return np.interp(rho_l, self._grid, self._values)

    def rho(self, rho_l) -> np.ndarray:
        """Normalized RG leakage correlation ``C_XI(rho_l) / sigma_XI^2``
        (the ``rho_XI`` entering eqs. (15)-(26)) for distinct sites."""
        if self.variance <= 0:
            raise EstimationError("random gate has zero variance")
        return self.covariance(rho_l) / self.variance

    @property
    def same_site_covariance(self) -> float:
        """Covariance at the same site: the RG variance (eq. 11)."""
        return self.variance

    @property
    def selection_gap(self) -> float:
        """``sigma_XI^2 - C_XI(1)``: the covariance discontinuity due to
        independent gate selection at distinct sites."""
        return float(self.variance - self.covariance(1.0))
