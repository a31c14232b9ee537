"""The numerical kernels against the historical inline formulas.

Every kernel in :mod:`repro.core.kernels` must reproduce, bit for bit,
the array operations the estimators performed before the kernels were
factored out. The randomized cases draw standardized mixture parameters
inside the moment-existence region (``a < 1/(2(1+|rho|))`` for
``|rho| <= 1`` requires ``a < 0.25``; we draw ``a in [0, 0.2]``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.kernels import lag_reduce, lattice_rho, rg_covariance_grid
from repro.core.lattice import SiteLattice
from repro.core.sweep import _batched_lag_rho, _correlation_key
from repro.exceptions import MomentExistenceError
from repro.process.correlation import (
    AnisotropicCorrelation,
    ExponentialCorrelation,
    GaussianCorrelation,
    TotalCorrelation,
)
from repro.process.parameters import ProcessParameter


def floored(wid, d2d_fraction):
    """``wid`` under a D2D floor of ``d2d_fraction`` of the L variance."""
    length = ProcessParameter("L", 1.0, d2d_fraction ** 0.5,
                              (1.0 - d2d_fraction) ** 0.5)
    return TotalCorrelation(wid, length)


def historical_rg_grid(alphas, a, h, k, grid, mean_total):
    """The original per-grid-point loop, verbatim op order."""
    one = 1.0 - 2.0 * a
    d0 = np.outer(one, one)
    aa = np.outer(a, a)
    h_sq = h * h
    p0 = h_sq[:, None] * one[None, :] + h_sq[None, :] * one[:, None]
    p2 = 2.0 * (h_sq[:, None] * a[None, :] + h_sq[None, :] * a[:, None])
    p1 = 2.0 * np.outer(h, h)
    k_sum = k[:, None] + k[None, :]
    values = np.empty_like(grid)
    for idx, rho in enumerate(grid):
        det = d0 - 4.0 * rho * rho * aa
        if np.any(det <= 0):
            raise MomentExistenceError(
                f"pairwise cross moment does not exist at rho_L = {rho:.3f}")
        quad = (p0 + rho * p1 + rho * rho * p2) / det
        cross = det ** -0.5 * np.exp(k_sum + 0.5 * quad)
        values[idx] = float(alphas @ cross @ alphas) - mean_total ** 2
    return values


def rg_case(q, rng):
    alphas = rng.uniform(0.5, 1.5, q)
    alphas /= alphas.sum()
    a = rng.uniform(0.0, 0.2, q)
    h = rng.normal(0.0, 0.4, q)
    k = rng.normal(-1.0, 0.3, q)
    one = 1.0 - 2.0 * a
    means = one ** -0.5 * np.exp(k + 0.5 * h * h / one)
    return alphas, a, h, k, float(alphas @ means)


def lag_case(rows, cols, rng, pitch=2e-6):
    x = (np.arange(2 * cols - 1) - (cols - 1)) * pitch
    y = (np.arange(2 * rows - 1) - (rows - 1)) * pitch
    counts = rng.integers(1, 50, (2 * cols - 1, 2 * rows - 1)).astype(float)
    rho = rng.uniform(-1.0, 1.0, counts.shape)
    return x, y, counts, rho, (cols - 1, rows - 1)


# -- RG covariance grid ---------------------------------------------------


@pytest.mark.parametrize("q", [1, 2, 17, 130])
def test_rg_grid_bit_identical_to_historical_loop(q, rng):
    alphas, a, h, k, mean_total = rg_case(q, rng)
    grid = np.linspace(-1.0, 1.0, 65)
    got = rg_covariance_grid(alphas, a, h, k, grid, mean_total)
    want = historical_rg_grid(alphas, a, h, k, grid, mean_total)
    assert np.array_equal(got, want)


def test_rg_grid_chunking_is_bit_identical(rng, monkeypatch):
    """A chunk boundary inside the grid must not change a single bit."""
    alphas, a, h, k, mean_total = rg_case(17, rng)
    grid = np.linspace(-1.0, 1.0, 65)
    want = rg_covariance_grid(alphas, a, h, k, grid, mean_total)
    monkeypatch.setattr(kernels, "_GRID_CHUNK_ELEMENTS", 1)
    got = rg_covariance_grid(alphas, a, h, k, grid, mean_total)
    assert np.array_equal(got, want)


def test_rg_grid_existence_error_matches_historical(rng):
    alphas, a, h, k, mean_total = rg_case(4, rng)
    a = a + 0.3  # push pairs past a = 1/(2(1+|rho|)) at |rho| near 1
    grid = np.linspace(-1.0, 1.0, 65)
    with pytest.raises(MomentExistenceError) as err_kernel:
        rg_covariance_grid(alphas, a, h, k, grid, mean_total)
    with pytest.raises(MomentExistenceError) as err_historical:
        historical_rg_grid(alphas, a, h, k, grid, mean_total)
    assert str(err_kernel.value) == str(err_historical.value)


# -- eq. (17) lag reduction -----------------------------------------------


def test_lag_reduce_bit_identical(rng):
    x, y, counts, rho, zero_lag = lag_case(7, 9, rng)
    # Simplified mapping: cov = scale * rho, zero lag replaced.
    scale = 2.5e-13
    cov = scale * rho
    cov[zero_lag] = 4.0e-13
    want = float(np.sum(counts * cov))
    got = lag_reduce(counts, rho, zero_lag, 4.0e-13, scale, None, None)
    assert got == want
    # Exact mapping: cov = interp(rho, grid, values).
    grid = np.linspace(-1.0, 1.0, 33)
    values = np.sort(rng.normal(0.0, 1e-13, 33))
    cov = np.interp(rho, grid, values)
    cov[zero_lag] = 4.0e-13
    want = float(np.sum(counts * cov))
    got = lag_reduce(counts, rho, zero_lag, 4.0e-13, None, grid, values)
    assert got == want


def test_lag_reduce_does_not_mutate_rho(rng):
    _, _, counts, rho, zero_lag = lag_case(5, 5, rng)
    before = rho.copy()
    lag_reduce(counts, rho, zero_lag, 1.0, 2.0, None, None)
    assert np.array_equal(rho, before)


# -- lattice correlation --------------------------------------------------


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("d2d_fraction", [0.0, 0.35])
def test_lattice_rho_bit_identical(gaussian, d2d_fraction, rng):
    x, y, _, _, _ = lag_case(11, 13, rng)
    length = 0.5e-3
    distance = np.hypot(x[:, None], y[None, :])
    if gaussian:
        base = np.exp(-((distance / length) ** 2))
        correlation = GaussianCorrelation(length)
    else:
        base = np.exp(-distance / length)
        correlation = ExponentialCorrelation(length)
    if d2d_fraction:
        correlation = floored(correlation, d2d_fraction)
        floor = correlation.rho_floor
        want = floor + (1.0 - floor) * base
    else:
        want = base
    assert np.array_equal(lattice_rho(correlation, x, y), want)
    assert np.array_equal(
        lattice_rho(correlation, x, y, distance=distance), want)


def test_lattice_rho_axis_mapping_for_anisotropic_fallback():
    """The fallback path must map x lags onto axis 0 and y lags onto
    axis 1 — the one lag layout of :class:`SiteLattice`."""
    correlation = AnisotropicCorrelation(
        ExponentialCorrelation(0.5e-3), scale_x=2.0, scale_y=0.5)
    x = np.linspace(-1e-3, 1e-3, 7)
    y = np.linspace(-2e-3, 2e-3, 5)
    layout = lattice_rho(correlation, x, y)
    assert layout.shape == (7, 5)
    assert np.array_equal(layout,
                          correlation.evaluate_xy(x[:, None], y[None, :]))
    lattice = SiteLattice(3, 4, 2.5e-4, 1e-3)
    table = lattice.rho(correlation)
    assert table.shape == (7, 5)
    assert np.array_equal(table, correlation.evaluate_xy(
        lattice.x[:, None], lattice.y[None, :]))
    # One site to the right is the (+1, 0) lag: x on axis 0.
    assert table[lattice.zero_lag[0] + 1, lattice.zero_lag[1]] == \
        float(correlation.evaluate_xy(2.5e-4, 0.0))


def test_lattice_rho_kernel_path_matches_model(technology):
    """The recognised-family path must equal evaluate_xy bit for bit
    (same hypot/exp sequence), with and without a shared distance
    grid."""
    correlation = technology.total_correlation
    x = np.linspace(-1e-3, 1e-3, 9)
    y = np.linspace(-5e-4, 5e-4, 11)
    want = correlation.evaluate_xy(x[:, None], y[None, :])
    assert np.array_equal(lattice_rho(correlation, x, y), want)
    assert np.array_equal(
        lattice_rho(correlation, x, y,
                    distance=np.hypot(x[:, None], y[None, :])), want)


def test_geometry_rho_matches_evaluate_xy(technology):
    lattice = SiteLattice(6, 8, 2e-6, 3e-6)
    want = technology.total_correlation.evaluate_xy(
        lattice.x[:, None], lattice.y[None, :])
    assert np.array_equal(lattice.rho(technology.total_correlation), want)
    assert np.array_equal(lattice.rho(technology.total_correlation,
                                      distance=lattice.distance()), want)


def test_batched_lag_rho_matches_per_point_lattice_rho():
    """The sweep's shared-distance batch equals per-point evaluation
    bitwise for exponential, Gaussian and floored families."""
    lattice = SiteLattice(9, 12, 2e-6, 3e-6)
    families = {
        "exponential": [ExponentialCorrelation(length)
                        for length in (0.2e-3, 0.5e-3, 0.9e-3)],
        "gaussian": [GaussianCorrelation(length)
                     for length in (0.2e-3, 0.5e-3)],
        "total": [floored(ExponentialCorrelation(length), fraction)
                  for length in (0.3e-3, 0.6e-3)
                  for fraction in (0.2, 0.45)],
    }
    for name, correlations in families.items():
        batch = {_correlation_key(c): c for c in correlations}
        stats = {}
        got = _batched_lag_rho(lattice, batch, stats)
        assert stats["rho_kernel_evaluations"] == len(correlations), name
        for key, correlation in batch.items():
            want = lattice.rho(correlation)
            assert np.array_equal(got[key], want), name
