"""Vectorized Newton DC solver for cell leakage states.

Given a :class:`~repro.spice.netlist.CellNetlist`, a pinned logic state,
and per-sample device parameters (shared channel length per cell, one
RDF Vt shift per transistor), the solver finds the stack-internal node
voltages satisfying KCL and reports the supply-to-ground leakage.

All arithmetic is vectorized over the sample axis; the per-sample
Jacobian is a tiny dense ``(F, F)`` matrix (cells have at most a handful
of stack-internal nodes), solved with a batched ``numpy.linalg.solve``.
A SPICE-style ``gmin`` to ground keeps the Jacobian non-singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.devices.mosfet import NMOS, DeviceModel
from repro.exceptions import SolverError
from repro.spice.netlist import CellNetlist, GND

#: Conductance from every free node to ground [S]; standard convergence aid.
_GMIN = 1e-15

#: Maximum Newton step per iteration [V].
_MAX_STEP = 0.25

_MAX_ITER = 120
_VTOL = 1e-10


@dataclass
class DCSolution:
    """Converged DC operating point for one cell state.

    Attributes
    ----------
    leakage:
        Supply-to-ground current per sample [A], shape ``(S,)``.
    free_voltages:
        Solved stack-internal node voltages, shape ``(S, F)`` where the
        column order matches ``netlist.free_nodes``.
    iterations:
        Newton iterations used.
    max_residual:
        Largest final KCL residual magnitude [A].
    """

    leakage: np.ndarray
    free_voltages: np.ndarray
    iterations: int
    max_residual: float


def _device_arrays(netlist: CellNetlist, length: np.ndarray,
                   vt_shifts: Optional[Mapping[str, np.ndarray]]):
    """Broadcast per-device parameter arrays to the sample axis."""
    shifts = []
    for t in netlist.transistors:
        if vt_shifts is None:
            shifts.append(0.0)
        else:
            shifts.append(np.asarray(vt_shifts.get(t.name, 0.0), dtype=float))
    return shifts


def solve_dc(
    netlist: CellNetlist,
    state: Mapping[str, int],
    model: DeviceModel,
    length,
    vt_shifts: Optional[Mapping[str, np.ndarray]] = None,
    include_gate_leakage: bool = False,
) -> DCSolution:
    """Solve one cell state and return leakage per sample.

    Parameters
    ----------
    netlist:
        The cell.
    state:
        Logic values (0/1) for every input and logic node.
    model:
        Device model (technology-bound).
    length:
        Channel length per sample [m], scalar or shape ``(S,)``. All
        devices in a cell share the length (the within-cell lengths are
        fully correlated; Section 2.1.1 of the paper).
    vt_shifts:
        Optional per-transistor RDF threshold shifts, mapping transistor
        name to a scalar or ``(S,)`` array [V]. Missing names get zero.
    include_gate_leakage:
        Also account for gate-oxide tunneling (an extension beyond the
        paper's subthreshold-only model). Gate currents are evaluated at
        the subthreshold operating point without re-solving KCL — they
        are injected at rail-pinned gate nodes and are small compared to
        the channel currents of the devices that set the free-node
        voltages, so the feedback on those voltages is second order.

    Returns
    -------
    DCSolution

    Raises
    ------
    SolverError
        If Newton iteration fails to converge from every initial guess.
    """
    tech = model.technology
    length = np.atleast_1d(np.asarray(length, dtype=float))
    n_samples = length.shape[0]
    shifts = _device_arrays(netlist, length, vt_shifts)

    pinned = netlist.node_voltages(state, tech.vdd)
    free_nodes = netlist.free_nodes
    index = {node: i for i, node in enumerate(free_nodes)}
    n_free = len(free_nodes)

    # Netlist order, not a set: the supply current sums over these
    # nodes, and a hash-ordered sum would vary with PYTHONHASHSEED.
    high_nodes = tuple(node for node, volt in pinned.items()
                       if volt == tech.vdd and node != GND)

    def node_voltage(node: str, x: np.ndarray) -> np.ndarray:
        if node in pinned:
            return np.full(n_samples, pinned[node])
        return x[:, index[node]]

    def evaluate(x: np.ndarray):
        """KCL residuals, Jacobian, and supply outflow at point ``x``."""
        residual = np.zeros((n_samples, n_free))
        jacobian = np.zeros((n_samples, n_free, n_free))
        outflow: Dict[str, np.ndarray] = {
            node: np.zeros(n_samples) for node in high_nodes}

        for t, shift in zip(netlist.transistors, shifts):
            v_gate = node_voltage(t.gate, x)
            v_src = node_voltage(t.source, x)
            v_drn = node_voltage(t.drain, x)
            width = t.width_mult * tech.min_width
            if t.kind == NMOS:
                current, di_dvs, di_dvd = model.nmos_branch(
                    v_gate, v_src, v_drn, length, width, shift)
                into_src, into_drn = current, -current
                src_sign, drn_sign = 1.0, -1.0
            else:
                current, di_dvs, di_dvd = model.pmos_branch(
                    v_gate, v_src, v_drn, length, width, shift)
                into_src, into_drn = -current, current
                src_sign, drn_sign = -1.0, 1.0

            if t.source in index:
                i = index[t.source]
                residual[:, i] += into_src
                jacobian[:, i, i] += src_sign * di_dvs
                if t.drain in index:
                    jacobian[:, i, index[t.drain]] += src_sign * di_dvd
            elif t.source in outflow:
                outflow[t.source] -= into_src
            if t.drain in index:
                i = index[t.drain]
                residual[:, i] += into_drn
                jacobian[:, i, i] += drn_sign * di_dvd
                if t.source in index:
                    jacobian[:, i, index[t.source]] += drn_sign * di_dvs
            elif t.drain in outflow:
                outflow[t.drain] -= into_drn

        supply = np.zeros(n_samples)
        for node in high_nodes:
            supply += outflow[node]
        return residual, jacobian, supply

    def gate_supply(x: np.ndarray) -> np.ndarray:
        """Supply-to-ground gate-tunneling current at operating point x."""
        total = np.zeros(n_samples)
        for t in netlist.transistors:
            v_gate = node_voltage(t.gate, x)
            v_src = node_voltage(t.source, x)
            v_drn = node_voltage(t.drain, x)
            width = t.width_mult * tech.min_width
            i_gs, i_gd = model.gate_current_split(
                t.kind, v_gate, v_src, v_drn, length, width)
            if t.kind == NMOS:
                flows = ((t.gate, t.source, i_gs), (t.gate, t.drain, i_gd))
            else:
                flows = ((t.source, t.gate, i_gs), (t.drain, t.gate, i_gd))
            for origin, target, current in flows:
                if origin in high_nodes:
                    total += current
                if target in high_nodes:
                    total -= current
        return total

    if n_free == 0:
        _, __, supply = evaluate(np.zeros((n_samples, 0)))
        if include_gate_leakage:
            supply = supply + gate_supply(np.zeros((n_samples, 0)))
        return DCSolution(leakage=supply,
                          free_voltages=np.zeros((n_samples, 0)),
                          iterations=0, max_residual=0.0)

    for guess_level in (0.5, 0.05, 0.95):
        x = np.full((n_samples, n_free), guess_level * tech.vdd)
        converged = False
        iterations = 0
        for iterations in range(1, _MAX_ITER + 1):
            residual, jacobian, _ = evaluate(x)
            residual += _GMIN * x
            jacobian += _GMIN * np.eye(n_free)
            try:
                delta = np.linalg.solve(jacobian, -residual[..., None])[..., 0]
            except np.linalg.LinAlgError:
                break
            delta = np.clip(delta, -_MAX_STEP, _MAX_STEP)
            x = np.clip(x + delta, -0.2, tech.vdd + 0.2)
            if float(np.max(np.abs(delta))) < _VTOL:
                converged = True
                break
        if converged:
            residual, _, supply = evaluate(x)
            if include_gate_leakage:
                supply = supply + gate_supply(x)
            return DCSolution(
                leakage=supply,
                free_voltages=x,
                iterations=iterations,
                max_residual=float(np.max(np.abs(residual))),
            )

    raise SolverError(
        f"{netlist.name}: DC solve failed to converge for state {dict(state)!r}")
