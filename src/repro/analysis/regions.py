"""Region-level leakage decomposition.

Power-delivery and thermal planning need more than the chip total: they
need the expected leakage *per region* and how regions co-vary (a die
whose left half runs hot leaks more on that half on the same dies). The
Random-Gate machinery yields this directly: partition the site grid into
``by x bx`` equal blocks; block means are proportional to site counts,
and the block-to-block covariance is the same distance-lag sum as the
paper's eq. (17), restricted to site pairs spanning the two blocks.

Because all blocks are congruent and the site grid is uniform, the
covariance depends only on the *block offset*; each distinct offset is a
cross-window lag sum with triangular lag counts — the cross-correlation
of two boxcar windows — read off one correlation table over the whole
chip's lags, so the whole map costs O(n + offsets * block_sites), not
O(n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.chip_model import FullChipModel
from repro.core.lattice import SiteLattice
from repro.core.random_gate import RandomGate
from repro.core.rg_correlation import RGCorrelation
from repro.exceptions import EstimationError
from repro.process.correlation import SpatialCorrelation


@dataclass(frozen=True)
class RegionLeakageMap:
    """Block decomposition of full-chip leakage statistics.

    Attributes
    ----------
    block_rows / block_cols:
        Grid of blocks (``by`` x ``bx``).
    means:
        Expected block leakage [A], shape ``(by, bx)``.
    covariance:
        Block covariance matrix, shape ``(by*bx, by*bx)`` in row-major
        block order [A^2].
    """

    block_rows: int
    block_cols: int
    means: np.ndarray
    covariance: np.ndarray

    @property
    def stds(self) -> np.ndarray:
        """Per-block standard deviation [A], shape ``(by, bx)``."""
        return np.sqrt(np.diag(self.covariance)).reshape(
            self.block_rows, self.block_cols)

    @property
    def total_mean(self) -> float:
        return float(self.means.sum())

    @property
    def total_std(self) -> float:
        return float(math.sqrt(self.covariance.sum()))

    def correlation_matrix(self) -> np.ndarray:
        """Block-to-block leakage correlation matrix."""
        stds = np.sqrt(np.diag(self.covariance))
        return self.covariance / np.outer(stds, stds)

    def worst_block(self) -> Tuple[int, int]:
        """(row, col) of the block with the largest 3-sigma leakage."""
        corner = self.means + 3.0 * self.stds
        index = int(np.argmax(corner))
        return divmod(index, self.block_cols)

    def sample(self, n_samples: int, rng=None) -> np.ndarray:
        """Joint block-leakage samples, shape ``(n_samples, by*bx)`` [A].

        Draws from the multivariate normal defined by the block means
        and covariance — the joint view that per-block marginals cannot
        give (e.g. "how often does *any* block exceed its budget?").
        """
        if n_samples <= 0:
            raise EstimationError(
                f"n_samples must be positive, got {n_samples!r}")
        rng = np.random.default_rng() if rng is None else rng
        return rng.multivariate_normal(
            self.means.ravel(), self.covariance, size=n_samples,
            method="eigh")

    def hotspot_exceedance(self, block_budget: float,
                           n_samples: int = 20_000, rng=None) -> float:
        """P(max block leakage > block_budget) by joint sampling.

        Because blocks are strongly positively correlated, this is far
        below the union bound of the per-block exceedances — the
        quantity a per-region power budget actually needs.
        """
        if block_budget <= 0:
            raise EstimationError(
                f"block_budget must be positive, got {block_budget!r}")
        samples = self.sample(n_samples, rng)
        return float(np.mean(samples.max(axis=1) > block_budget))


def region_leakage_map(
    chip: FullChipModel,
    random_gate: RandomGate,
    rg_correlation: RGCorrelation,
    correlation: SpatialCorrelation,
    block_rows: int,
    block_cols: int,
) -> RegionLeakageMap:
    """Compute the block-level leakage map of an RG chip model.

    The site grid must divide evenly into the requested blocks.
    """
    if chip.rows % block_rows or chip.cols % block_cols:
        raise EstimationError(
            f"site grid {chip.rows}x{chip.cols} does not divide into "
            f"{block_rows}x{block_cols} blocks")
    sites_y = chip.rows // block_rows
    sites_x = chip.cols // block_cols
    sites_per_block = sites_x * sites_y

    means = np.full((block_rows, block_cols),
                    sites_per_block * random_gate.mean)

    # All blocks are congruent, so a pair of blocks at offset (dbx, dby)
    # sees one block's lag multiplicities centred on the offset: a
    # window of the whole chip's lag table.
    lattice = SiteLattice(chip.rows, chip.cols, chip.pitch_x, chip.pitch_y)
    block = SiteLattice(sites_y, sites_x, chip.pitch_x, chip.pitch_y)
    rho = lattice.rho(correlation)
    cov_by_offset = {}
    for dby in range(-(block_rows - 1), block_rows):
        for dbx in range(-(block_cols - 1), block_cols):
            cov = rg_correlation.covariance(lattice.window(
                rho, block, offset=(dbx * sites_x, dby * sites_y)))
            if dbx == 0 and dby == 0:
                cov[block.zero_lag] = rg_correlation.same_site_covariance
            cov_by_offset[(dbx, dby)] = float((block.counts * cov).sum())

    n_blocks = block_rows * block_cols
    covariance = np.empty((n_blocks, n_blocks))
    for a in range(n_blocks):
        ay, ax = divmod(a, block_cols)
        for b in range(n_blocks):
            by, bx = divmod(b, block_cols)
            covariance[a, b] = cov_by_offset[(bx - ax, by - ay)]

    return RegionLeakageMap(block_rows=block_rows, block_cols=block_cols,
                            means=means, covariance=covariance)
