"""Full-chip leakage estimators.

Four routes to the variance of total leakage, in decreasing cost:

* :mod:`exact` — the O(n^2) pairwise "true leakage" of a placed design
  (paper eq. 15; the reference the paper validates against), with the
  fast paths of :mod:`fast_exact` (spatial pruning, lattice lag
  deduplication, multiprocess block parallelism) behind its
  ``method=`` dispatcher;
* :mod:`linear` — the O(n) distance-multiplicity transform on the RG
  site grid (eqs. 16-17; an exact rewrite of eq. 15 for grids);
* :mod:`integral2d` — the O(1) two-dimensional integral (eq. 20);
* :mod:`polar` — the O(1) one-dimensional polar integral with the
  analytic angular kernel and the D2D correlation-floor split
  (eqs. 24-26).
"""

from repro.core.estimators.exact import exact_moments
from repro.core.estimators.fast_exact import GridInfo, detect_grid
from repro.core.estimators.linear import linear_variance
from repro.core.estimators.integral2d import integral2d_variance
from repro.core.estimators.polar import polar_variance
from repro.core.kernels import pair_params_from_fits

__all__ = [
    "GridInfo",
    "detect_grid",
    "exact_moments",
    "pair_params_from_fits",
    "linear_variance",
    "integral2d_variance",
    "polar_variance",
]
