"""The site lattice: lag layout, multiplicities, and a differential oracle.

:class:`~repro.core.lattice.SiteLattice` is the one lag transform of the
site grid (paper eqs. 16-17). The oracle draws ``rows x cols`` grids —
1xN, Nx1 and prime sides among them — with unequal pitches and several
correlation families, and checks every engine built on the lattice
against the dense O(n^2) pair sum of eq. (15) over the site positions.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.regions import region_leakage_map
from repro.core import CellUsage, FullChipLeakageEstimator
from repro.core.api import build_base, estimate_delta, estimate_sweep
from repro.core.chip_model import FullChipModel
from repro.core.estimators.exact import exact_moments
from repro.core.estimators.linear import linear_variance, variance_from_rho
from repro.core.lattice import SiteLattice
from repro.core.sweep import correlation_axis
from repro.delta.edits import FloorplanResizeEdit
from repro.exceptions import EstimationError
from repro.process import ExponentialCorrelation, GaussianCorrelation
from repro.process.correlation import AnisotropicCorrelation, TotalCorrelation
from repro.process.parameters import ProcessParameter

#: The oracle's contract: every engine within rel 1e-9 of the dense sum.
ORACLE_RTOL = 1e-9


@pytest.fixture(scope="module")
def usage():
    return CellUsage({"INV_X1": 0.5, "NAND2_X1": 0.3, "NOR2_X1": 0.2})


class TestSiteLattice:
    """The geometry/parameter split underlying the shared hot path."""

    def test_matches_linear_variance(self, small_characterization, usage):
        estimator = FullChipLeakageEstimator(
            small_characterization, usage, 2_000, 0.8e-3, 0.8e-3)
        chip = estimator.chip
        correlation = \
            small_characterization.technology.total_correlation
        lattice = SiteLattice(chip.rows, chip.cols, chip.pitch_x,
                              chip.pitch_y)
        split = variance_from_rho(lattice, lattice.rho(correlation),
                                  estimator.rg_correlation)
        direct = linear_variance(chip.rows, chip.cols, chip.pitch_x,
                                 chip.pitch_y, correlation,
                                 estimator.rg_correlation)
        assert split == direct

    def test_cached_rho_not_mutated(self, small_characterization, usage):
        estimator = FullChipLeakageEstimator(
            small_characterization, usage, 1_000, 0.5e-3, 0.5e-3)
        chip = estimator.chip
        lattice = SiteLattice(chip.rows, chip.cols, chip.pitch_x,
                              chip.pitch_y)
        rho = lattice.rho(
            small_characterization.technology.total_correlation)
        snapshot = rho.copy()
        first = variance_from_rho(lattice, rho, estimator.rg_correlation)
        second = variance_from_rho(lattice, rho, estimator.rg_correlation)
        assert first == second
        assert np.array_equal(rho, snapshot)

    def test_multiplicities_sum_to_pair_count(self):
        lattice = SiteLattice(7, 11, 1e-5, 2e-5)
        n = 7 * 11
        assert int(lattice.counts.sum()) == n * n
        assert int(lattice.counts[lattice.zero_lag]) == n

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (5, 1), (7, 11)])
    def test_correlate_of_full_occupancy_is_counts(self, rows, cols):
        lattice = SiteLattice(rows, cols, 1e-5, 3e-5)
        spectrum = lattice.spectrum(np.ones((rows, cols)))
        assert np.array_equal(
            np.rint(lattice.correlate(spectrum, spectrum)), lattice.counts)

    def test_correlate_puts_x_lags_on_axis_0(self):
        lattice = SiteLattice(3, 4, 1e-5, 3e-5)
        a = np.zeros((3, 4))
        b = np.zeros((3, 4))
        a[1, 1] = 1.0
        b[2, 3] = 1.0  # two sites right (+x), one row up (+y)
        table = np.rint(lattice.correlate(lattice.spectrum(a),
                                          lattice.spectrum(b)))
        x0, y0 = lattice.zero_lag
        assert table[x0 + 2, y0 + 1] == 1.0
        assert table.sum() == 1.0

    def test_convolve_matches_direct_sum(self, rng):
        lattice = SiteLattice(4, 6, 1e-5, 2.5e-5)
        table = rng.uniform(0.0, 1.0, (2 * 6 - 1, 2 * 4 - 1))
        grids = rng.uniform(0.0, 1.0, (2, 4, 6))
        got = lattice.convolve(lattice.table_spectrum(table), grids)
        x0, y0 = lattice.zero_lag
        want = np.zeros_like(grids)
        for r in range(4):
            for c in range(6):
                for t in range(4):
                    for u in range(6):
                        want[:, r, c] += table[x0 + c - u, y0 + r - t] \
                            * grids[:, t, u]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_window_is_the_smaller_lattice_table(self, technology):
        correlation = technology.total_correlation
        big = SiteLattice(9, 12, 2e-6, 3e-6)
        small = SiteLattice(4, 5, 2e-6, 3e-6)
        table = big.rho(correlation)
        assert np.array_equal(big.window(table, small),
                              small.rho(correlation))
        shifted = big.window(table, small, offset=(3, -2))
        assert shifted.shape == small.counts.shape
        assert shifted[small.zero_lag] == table[big.zero_lag[0] + 3,
                                                big.zero_lag[1] - 2]

    def test_rejects_empty_or_flat_lattices(self):
        with pytest.raises(EstimationError):
            SiteLattice(0, 3, 1e-5, 1e-5)
        with pytest.raises(EstimationError):
            SiteLattice(3, 3, 1e-5, 0.0)


# -- differential oracle --------------------------------------------------


def _floored(wid, d2d_fraction):
    length = ProcessParameter("L", 1.0, d2d_fraction ** 0.5,
                              (1.0 - d2d_fraction) ** 0.5)
    return TotalCorrelation(wid, length)


SIDES = st.sampled_from([1, 2, 3, 4, 5, 7, 11, 13, 17])


@st.composite
def lattices(draw):
    """``(rows, cols, pitch_x, pitch_y)`` that ``from_design`` rebuilds.

    ``from_design`` rounds ``rows * sqrt(pitch_y / pitch_x)``, so the
    pitch ratio is drawn inside the window that keeps the drawn grid.
    """
    rows, cols = draw(SIDES), draw(SIDES)
    assume(rows * cols <= 300)
    lo, hi = (rows - 0.45) / rows, (rows + 0.45) / rows
    stretch = draw(st.floats(lo, hi))
    assume(abs(stretch - 1.0) > 1e-3)
    pitch_x = draw(st.floats(2e-6, 2e-5))
    return rows, cols, pitch_x, pitch_x * stretch ** 2


@st.composite
def correlations(draw, extent):
    length = extent * draw(st.floats(0.2, 3.0))
    wid = draw(st.sampled_from([ExponentialCorrelation,
                                GaussianCorrelation]))(length)
    kind = draw(st.sampled_from(["plain", "floor", "anisotropic"]))
    if kind == "floor":
        return _floored(wid, draw(st.floats(0.05, 0.6)))
    if kind == "anisotropic":
        return AnisotropicCorrelation(
            wid, scale_x=draw(st.floats(0.3, 3.0)),
            scale_y=draw(st.floats(0.3, 3.0)))
    return wid


@st.composite
def scenarios(draw):
    rows, cols, pitch_x, pitch_y = draw(lattices())
    extent = max(cols * pitch_x, rows * pitch_y)
    correlation = draw(correlations(extent))
    block_rows = draw(st.sampled_from(
        [d for d in range(1, rows + 1) if rows % d == 0]))
    block_cols = draw(st.sampled_from(
        [d for d in range(1, cols + 1) if cols % d == 0]))
    return (rows, cols, pitch_x, pitch_y, correlation, block_rows,
            block_cols)


def _dense_site_variance(chip, random_gate, correlation):
    n = chip.n_sites
    _, std = exact_moments(
        chip.site_positions(), np.full(n, random_gate.mean),
        np.full(n, random_gate.std), correlation,
        corr_stds=np.full(n, random_gate.mean_of_stds), method="dense")
    return std ** 2


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.filter_too_much])
@given(scenario=scenarios())
def test_lattice_engines_match_dense_pair_sum(scenario,
                                              small_characterization,
                                              usage):
    (rows, cols, pitch_x, pitch_y, correlation, block_rows,
     block_cols) = scenario
    n_cells, width, height = rows * cols, cols * pitch_x, rows * pitch_y
    chip = FullChipModel.from_design(n_cells, width, height)
    assert (chip.rows, chip.cols) == (rows, cols)
    estimator = FullChipLeakageEstimator(
        small_characterization, usage, n_cells, width, height,
        correlation=correlation, simplified_correlation=True)
    want = _dense_site_variance(chip, estimator.random_gate, correlation)

    def check(label, got):
        assert got == pytest.approx(want, rel=ORACLE_RTOL, abs=0.0), label

    check("linear", estimator.estimate("linear").details["site_variance"])
    check("exact", estimator.estimate("exact").details["site_variance"])
    sweep = estimate_sweep(
        small_characterization, usage, n_cells, width, height,
        axes=[correlation_axis([correlation], values=["drawn"])],
        method="linear", simplified_correlation=True)
    check("sweep", sweep.estimates[0].details["site_variance"])
    base = build_base(small_characterization, usage, n_cells, width,
                      height, correlation=correlation,
                      simplified_correlation=True)
    edited = estimate_delta(base, FloorplanResizeEdit(
        n_cells=n_cells, width=width, height=height))
    check("delta", edited.details["site_variance"])
    regions = region_leakage_map(
        chip, estimator.random_gate, estimator.rg_correlation,
        correlation, block_rows, block_cols)
    check("regions", float(regions.covariance.sum()))
