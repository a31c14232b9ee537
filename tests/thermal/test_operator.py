"""The thermal operator's spreading kernel against the site geometry.

A 1 W point source with no package path must heat every site in
proportion to ``exp(-d / lambda)``, with ``d`` the true distance between
site centres — on grids whose pitches differ, too.
"""

import numpy as np
import pytest

from repro.core.chip_model import FullChipModel
from repro.thermal import ThermalConfig
from repro.thermal.model import ThermalOperator

SPREADING_LENGTH = 1e-3


@pytest.mark.parametrize("n_cells, width, height, grid", [
    (3, 2e-3, 1e-3, (1, 3)),
    (60, 4e-3, 1e-3, (4, 15)),
])
def test_point_source_follows_site_distances(n_cells, width, height, grid):
    chip = FullChipModel.from_design(n_cells, width, height)
    assert (chip.rows, chip.cols) == grid
    assert chip.pitch_x != chip.pitch_y
    config = ThermalConfig(package_resistance=0.0, spreading_resistance=0.5,
                           spreading_length=SPREADING_LENGTH)
    theta = ThermalOperator(chip.rows, chip.cols, chip.pitch_x,
                            chip.pitch_y, config)
    positions = chip.site_positions()
    for source in (0, chip.n_sites // 2, chip.n_sites - 1):
        power = np.zeros(chip.n_sites)
        power[source] = 1.0
        rise = theta.apply(power.reshape(chip.rows, chip.cols)).ravel()
        distance = np.hypot(*(positions - positions[source]).T)
        assert rise / rise[source] == pytest.approx(
            np.exp(-distance / SPREADING_LENGTH), rel=1e-12, abs=0.0)
