"""Per-kernel microbenchmarks of :mod:`repro.core.kernels`.

Times every estimator kernel and records two end-to-end headlines — the
linear transform and the lag-deduplicated fast exact estimator at 10^6
sites.

Sizes follow the acceptance ladder: the lag-grid kernels (the fused
``lag_reduce`` and the ``lattice_rho`` lattice correlation) run at lag
grids corresponding to 10^4, 10^6 and 10^8 sites; the Random-Gate
covariance grid scales with the mixture size (its cost is O(q^2) per
grid point, independent of the chip).

Machine-readable timings land in ``BENCH_kernels.json`` at the repo
root. Set ``BENCH_QUICK=1`` for a CI smoke run over reduced sizes
(``BENCH_kernels_quick.json``).
"""

import math
import os
import time

import numpy as np

from benchmarks._common import emit, emit_json
from repro.analysis import format_table
from repro.core import CellUsage, RandomGate, RGCorrelation, expand_mixture
from repro.core.estimators import exact_moments, linear_variance
from repro.core.kernels import lag_reduce, lattice_rho, rg_covariance_grid
from repro.process.correlation import ExponentialCorrelation

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Lattice sides for the lag-grid kernels: 10^4 / 10^6 / 10^8 sites.
SIDES = (100, 1000) if QUICK else (100, 1000, 10_000)
#: Mixture sizes for the RG covariance-grid kernel (full 62-cell
#: libraries expand to a few hundred (cell, state) components).
MIXTURE_SIZES = (8, 64) if QUICK else (8, 64, 512)
#: The end-to-end headline lattice (10^6 sites).
HEADLINE_SIDE = 100 if QUICK else 1000

N_GRID = 65
CORR_LENGTH = 0.5e-3
PITCH = math.sqrt(3.5e-12)

USAGE = CellUsage({"INV_X1": 0.4, "NAND2_X1": 0.4, "NOR2_X1": 0.2})


def time_once(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def rg_inputs(q, rng):
    """Synthetic standardized mixture parameters with existing moments."""
    alphas = rng.uniform(0.5, 1.5, q)
    alphas /= alphas.sum()
    a = rng.uniform(0.0, 0.2, q)
    h = rng.normal(0.0, 0.4, q)
    k = rng.normal(-1.0, 0.3, q)
    one = 1.0 - 2.0 * a
    means = one ** -0.5 * np.exp(k + 0.5 * h * h / one)
    return alphas, a, h, k, float(alphas @ means)


def lag_inputs(side, rng):
    """Lag-grid arrays matching a ``side x side`` lattice."""
    m = 2 * side - 1
    lags = (np.arange(m) - (side - 1)) * PITCH
    counts = rng.integers(1, side, (m, m)).astype(float)
    return lags, counts, (side - 1, side - 1)


def test_kernels(characterization):
    rng = np.random.default_rng(20070611)
    rows = []
    records = []

    def measure(kernel, size_label, fn):
        seconds, _ = time_once(fn)
        records.append({"kernel": kernel, "size": size_label,
                        "t_s": seconds})
        rows.append([kernel, size_label, f"{seconds:.4f}"])

    grid = np.linspace(-1.0, 1.0, N_GRID)
    for q in MIXTURE_SIZES:
        alphas, a, h, k, mean_total = rg_inputs(q, rng)
        measure("rg_covariance_grid", f"q={q}",
                lambda: rg_covariance_grid(alphas, a, h, k, grid,
                                           mean_total))

    correlation = ExponentialCorrelation(CORR_LENGTH)
    for side in SIDES:
        lags, counts, zero_lag = lag_inputs(side, rng)
        values = np.linspace(-0.5, 0.5, N_GRID)
        sites = f"{side * side:.0e} sites"
        seconds, rho = time_once(
            lambda: lattice_rho(correlation, lags, lags))
        records.append({"kernel": "lattice_rho", "size": sites,
                        "t_s": seconds})
        rows.append(["lattice_rho", sites, f"{seconds:.4f}"])
        measure("lag_reduce", sites,
                lambda: lag_reduce(counts, rho, zero_lag, 2.0, None, grid,
                                   values))
        del rho, counts

    # -- end-to-end headlines at 10^6 sites ------------------------------
    tech = characterization.technology
    total = tech.total_correlation
    rg = RandomGate(expand_mixture(characterization, USAGE, 0.5))
    rgc = RGCorrelation(rg, tech.length.nominal, tech.length.sigma)
    side = HEADLINE_SIDE
    n = side * side
    cc, rr = np.meshgrid(np.arange(side), np.arange(side))
    positions = np.column_stack([cc.ravel() * PITCH, rr.ravel() * PITCH])
    means = np.full(n, rg.mean)
    stds = np.full(n, rg.mean_of_stds)
    t_linear, linear = time_once(lambda: linear_variance(
        side, side, PITCH, PITCH, total, rgc))
    t_fast, (_, fast_std) = time_once(lambda: exact_moments(
        positions, means, stds, total, method="lagsum",
        grid=(side, side)))
    headline = {"t_linear_s": t_linear, "t_fast_exact_s": t_fast,
                "linear_variance": linear, "fast_exact_std": fast_std}
    rows.append(["linear_variance (e2e)", f"{n:.0e} sites",
                 f"{t_linear:.4f}"])
    rows.append(["fast_exact lagsum (e2e)", f"{n:.0e} sites",
                 f"{t_fast:.4f}"])

    table = format_table(
        ["kernel", "size", "time [s]"], rows,
        title=f"Estimator kernels; headline lattice "
              f"{HEADLINE_SIDE}x{HEADLINE_SIDE}")
    emit("kernels", table)

    emit_json("kernels_quick" if QUICK else "kernels", {
        "quick": QUICK,
        "kernels": records,
        "headline": headline,
    })
