"""Convenience wrapper: leakage of a cell state.

The characterization layer only needs "leakage current per sample for a
given cell state"; this module provides that single entry point over the
netlist + solver machinery.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.devices.mosfet import DeviceModel
from repro.spice.netlist import CellNetlist
from repro.spice.solver import solve_dc


def state_leakage(
    netlist: CellNetlist,
    state: Union[Mapping[str, int], Sequence[Mapping[str, int]]],
    model: DeviceModel,
    length,
    vt_shifts: Optional[Mapping[str, np.ndarray]] = None,
    include_gate_leakage: bool = False,
) -> np.ndarray:
    """Supply-to-ground leakage of ``netlist`` in logic state ``state``.

    Parameters mirror :func:`repro.spice.solver.solve_dc`; returns the
    leakage current per sample [A], shape ``(S,)`` for one state and
    ``(K, S)`` for a sequence of ``K`` states (solved in one call).
    """
    return solve_dc(netlist, state, model, length, vt_shifts,
                    include_gate_leakage=include_gate_leakage).leakage
