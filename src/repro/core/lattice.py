"""The Random-Gate site lattice and its lag transform (paper eqs. 16-17).

On a ``rows x cols`` site lattice a pairwise sum whose summand depends
only on the displacement of two sites collapses into a sum over the
``(2*cols - 1) x (2*rows - 1)`` lag vectors. :class:`SiteLattice` is the
one place that knows that layout: a *lag table* is indexed
``[cols - 1 + i, rows - 1 + j]`` for the displacement
``(i * pitch_x, j * pitch_y)`` — x lags on axis 0. Per-site grids keep
the chip's ``(rows, cols)`` layout, the row index running along y.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.kernels import lattice_rho
from repro.exceptions import EstimationError
from repro.obs import span


class SiteLattice:
    """Lag layout, multiplicities and FFT machinery of a site lattice.

    The geometry half of eq. (17): everything here depends only on the
    placement, so a sweep over correlation or usage parameters builds
    it once per floorplan.
    """

    def __init__(self, rows: int, cols: int, pitch_x: float,
                 pitch_y: float) -> None:
        if rows <= 0 or cols <= 0:
            raise EstimationError("grid dimensions must be positive")
        if pitch_x <= 0 or pitch_y <= 0:
            raise EstimationError("site pitches must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        self.pitch_x = float(pitch_x)
        self.pitch_y = float(pitch_y)
        with span("lattice.geometry", rows=self.rows, cols=self.cols):
            i = np.arange(-(cols - 1), cols)
            j = np.arange(-(rows - 1), rows)
            count_x = cols - np.abs(i)
            count_y = rows - np.abs(j)
            #: Lag displacement components [m]; (2m-1,) and (2k-1,).
            self.x = i * pitch_x
            self.y = j * pitch_y
            #: Pair multiplicities n_ij (eq. 16); (2m-1) x (2k-1).
            self.counts = count_x[:, None] * count_y[None, :]
            #: Index of the (0, 0) lag — the n self-pairs.
            self.zero_lag = (cols - 1, rows - 1)
        # Zero padding that makes every FFT product below linear: lags
        # reach +-(rows-1, cols-1), so a period of 2x the grid never
        # wraps a wanted entry.
        self._fft_shape = (2 * self.rows, 2 * self.cols)

    def distance(self) -> np.ndarray:
        """Euclidean length of every lag vector [m] — the grid that
        :meth:`rho` shares across many recognised kernels."""
        return np.hypot(self.x[:, None], self.y[None, :])

    def rho(self, correlation,
            distance: Optional[np.ndarray] = None) -> np.ndarray:
        """The correlation model at every lag (a lag table).

        Exponential/Gaussian families evaluate their formula on
        ``distance`` (default: :meth:`distance`); other models go
        through their own ``evaluate_xy``, which keeps anisotropic
        models exact.
        """
        return lattice_rho(correlation, self.x, self.y, distance=distance)

    def window(self, table: np.ndarray, inner: "SiteLattice",
               offset: Tuple[int, int] = (0, 0)) -> np.ndarray:
        """The entries of ``table`` over ``inner``'s lag range shifted
        by ``offset`` sites — a lag table in ``inner``'s layout. The
        shifted range must lie inside this lattice's lags.

        A view, never a copy: lags are pure coordinates, so the window
        of a table equals the table evaluated on the smaller lattice
        (same pitches) bit for bit.
        """
        x0 = self.cols - inner.cols + offset[0]
        y0 = self.rows - inner.rows + offset[1]
        return table[x0:x0 + 2 * inner.cols - 1,
                     y0:y0 + 2 * inner.rows - 1]

    # -- FFT machinery -----------------------------------------------------

    def spectrum(self, grid: np.ndarray) -> np.ndarray:
        """Zero-padded spectrum of ``(..., rows, cols)`` per-site grids,
        the input of :meth:`correlate` and :meth:`convolve`."""
        return np.fft.rfft2(grid, s=self._fft_shape)

    def correlate(self, spectrum_a: np.ndarray,
                  spectrum_b: np.ndarray) -> np.ndarray:
        """Lag table of ``sum_s A[s] B[s + lag]`` from two site spectra.

        For per-type occupancy grids this is the pair multiplicity of
        every lag; for a sigma grid with itself, the sigma-weighted
        multiplicity of the simplified eq. (15).
        """
        circular = np.fft.irfft2(np.conj(spectrum_a) * spectrum_b,
                                 s=self._fft_shape)
        rolled = np.roll(circular, (self.rows - 1, self.cols - 1),
                         axis=(0, 1))
        return rolled[:2 * self.rows - 1, :2 * self.cols - 1].T

    def table_spectrum(self, table: np.ndarray) -> np.ndarray:
        """Spectrum of a lag table as a :meth:`convolve` kernel."""
        return np.fft.rfft2(np.asarray(table, dtype=float).T,
                            s=self._fft_shape)

    def convolve(self, kernel_spectrum: np.ndarray,
                 grid: np.ndarray) -> np.ndarray:
        """``out[s] = sum_t K(s - t) grid[t]`` for ``(..., rows, cols)``
        per-site grids, with ``K`` the lag table behind
        ``kernel_spectrum`` (:meth:`table_spectrum`)."""
        full = np.fft.irfft2(self.spectrum(grid) * kernel_spectrum,
                             s=self._fft_shape)
        # The kernel's zero lag sits at (rows-1, cols-1) of the padded
        # table, so site (i, j) lands at (i + rows - 1, j + cols - 1).
        return full[..., self.rows - 1:2 * self.rows - 1,
                    self.cols - 1:2 * self.cols - 1]
