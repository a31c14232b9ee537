"""Vectorized Newton DC solver for cell leakage states.

Given a :class:`~repro.spice.netlist.CellNetlist`, one pinned logic
state or a sequence of states, and per-sample device parameters (shared
channel length per cell, one RDF Vt shift per transistor), the solver
finds the stack-internal node voltages satisfying KCL and reports the
supply-to-ground leakage.

All arithmetic is vectorized over the sample axis; the per-sample
Jacobian is a tiny dense ``(F, F)`` matrix (cells have at most a handful
of stack-internal nodes), solved with a batched ``numpy.linalg.solve``.
A SPICE-style ``gmin`` to ground keeps the Jacobian non-singular.

A sequence of ``K`` states is solved in one Newton loop: the ``K x S``
samples are stacked along the sample axis, so every pinned node carries
a per-sample voltage. Each state keeps its own stop test, iteration
count and ladder of initial guesses; once a state converges its rows
are frozen and leave the evaluation. The stacked solve therefore
returns, bit for bit, what ``K`` one-state solves return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.devices.mosfet import NMOS, DeviceModel
from repro.exceptions import NetlistError, SolverError
from repro.obs import span
from repro.spice.netlist import CellNetlist, GND

#: Conductance from every free node to ground [S]; standard convergence aid.
_GMIN = 1e-15

#: Maximum Newton step per iteration [V].
_MAX_STEP = 0.25

_MAX_ITER = 120
_VTOL = 1e-10

#: Initial free-node voltages, as fractions of VDD, tried in order.
_GUESSES = (0.5, 0.05, 0.95)


@dataclass
class DCSolution:
    """Converged DC operating points of one cell state or of ``K`` states.

    Attributes
    ----------
    leakage:
        Supply-to-ground current per sample [A]: shape ``(S,)`` for one
        state, ``(K, S)`` for a sequence of states.
    free_voltages:
        Solved stack-internal node voltages, shape ``(S, F)`` (or
        ``(K, S, F)``) where the column order matches
        ``netlist.free_nodes``.
    iterations:
        Newton iterations used from the initial guess that converged:
        an ``int`` for one state, a ``(K,)`` integer array otherwise.
    max_residual:
        Largest final KCL residual magnitude [A]: a ``float`` for one
        state, a ``(K,)`` array otherwise.
    """

    leakage: np.ndarray
    free_voltages: np.ndarray
    iterations: Union[int, np.ndarray]
    max_residual: Union[float, np.ndarray]


class _Rows:
    """Per-sample inputs of the stacked rows of some states: channel
    length, one Vt shift per device (a scalar when there are none) and
    the potential of every pinned node."""

    __slots__ = ("length", "shifts", "volts")

    def __init__(self, length: np.ndarray, shifts: List,
                 volts: Dict[str, np.ndarray]) -> None:
        self.length = length
        self.shifts = shifts
        self.volts = volts

    def keep(self, states: np.ndarray, n_samples: int) -> "_Rows":
        """The rows of the states selected by boolean mask ``states``."""
        def pick(values):
            return values.reshape(-1, n_samples)[states].ravel()

        return _Rows(pick(self.length),
                     [s if np.ndim(s) == 0 else pick(s) for s in self.shifts],
                     {node: pick(v) for node, v in self.volts.items()})


def _device_shifts(netlist: CellNetlist,
                   vt_shifts: Optional[Mapping[str, np.ndarray]],
                   n_samples: int, n_states: int) -> List:
    """Per-device Vt shifts tiled to the ``K x S`` stacked rows."""
    if vt_shifts is None:
        return [0.0] * netlist.n_devices
    return [np.tile(np.broadcast_to(
                np.asarray(vt_shifts.get(t.name, 0.0), dtype=float),
                (n_samples,)), n_states)
            for t in netlist.transistors]


def _solve_each(jacobian: np.ndarray, rhs: np.ndarray, n_states: int):
    """Solve each state's block of Newton systems on its own.

    Returns the steps of the states whose Jacobians factor (stacked in
    state order) and a boolean mask of those states.
    """
    blocks = zip(jacobian.reshape(n_states, -1, *jacobian.shape[1:]),
                 rhs.reshape(n_states, -1, *rhs.shape[1:]))
    steps, solved = [], np.ones(n_states, dtype=bool)
    for k, (block, b) in enumerate(blocks):
        try:
            steps.append(np.linalg.solve(block, b)[..., 0])
        except np.linalg.LinAlgError:
            solved[k] = False
    width = jacobian.shape[-1]
    return (np.concatenate(steps) if steps else np.empty((0, width))), solved


def solve_dc(
    netlist: CellNetlist,
    state: Union[Mapping[str, int], Sequence[Mapping[str, int]]],
    model: DeviceModel,
    length,
    vt_shifts: Optional[Mapping[str, np.ndarray]] = None,
    include_gate_leakage: bool = False,
) -> DCSolution:
    """Solve one cell state, or ``K`` states at once, and return leakage
    per sample.

    Parameters
    ----------
    netlist:
        The cell.
    state:
        Logic values (0/1) for every input and logic node — one mapping,
        or a sequence of ``K`` mappings solved together in one Newton
        loop (shapes in :class:`DCSolution` gain a leading ``K`` axis).
    model:
        Device model (technology-bound).
    length:
        Channel length per sample [m], scalar or shape ``(S,)``. All
        devices in a cell share the length (the within-cell lengths are
        fully correlated; Section 2.1.1 of the paper). Every state sees
        the same samples.
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
    NetlistError
        If the state sequence is empty or a state does not pin every
        input and logic node.
    SolverError
        If Newton iteration fails to converge from every initial guess
        for some state; the message names each such state.
    """
    single = isinstance(state, Mapping)
    states = (state,) if single else tuple(state)
    if not states:
        raise NetlistError(f"{netlist.name}: no states to solve")
    with span("spice.solve", cell=netlist.name,
              states=len(states)) as solve_span:
        solution, fallbacks = _solve_states(
            netlist, states, model, length, vt_shifts, include_gate_leakage)
        solve_span.annotate(iterations=int(np.max(solution.iterations)),
                            fallbacks=fallbacks)
    if single:
        return DCSolution(leakage=solution.leakage[0],
                          free_voltages=solution.free_voltages[0],
                          iterations=int(solution.iterations[0]),
                          max_residual=float(solution.max_residual[0]))
    return solution


def _solve_states(netlist, states, model, length, vt_shifts,
                  include_gate_leakage):
    """The stacked solve behind :func:`solve_dc`; returns the ``K``-axis
    solution and how many states were re-run from a later guess."""
    tech = model.technology
    length = np.atleast_1d(np.asarray(length, dtype=float))
    n_samples = length.shape[0]
    n_states = len(states)
    pinned = [netlist.node_voltages(s, tech.vdd) for s in states]

    free_nodes = netlist.free_nodes
    index = {node: i for i, node in enumerate(free_nodes)}
    n_free = len(free_nodes)

    full = _Rows(
        np.tile(length, n_states),
        _device_shifts(netlist, vt_shifts, n_samples, n_states),
        {node: np.repeat([p[node] for p in pinned], n_samples)
         for node in pinned[0]})
    # Netlist order, not a set: the supply current sums over these
    # nodes, and a hash-ordered sum would vary with PYTHONHASHSEED. A
    # node that sits at VDD in only some states is masked to them.
    high_masks = {}
    for node, volts in full.volts.items():
        if node != GND:
            mask = volts == tech.vdd
            if mask.any():
                high_masks[node] = mask
    devices = [(t, t.width_mult * tech.min_width) for t in netlist.transistors]

    def terminals(t, x: np.ndarray, rows: _Rows):
        """Gate, source and drain potentials of device ``t``."""
        return (x[:, index[node]] if node in index else rows.volts[node]
                for node in (t.gate, t.source, t.drain))

    def evaluate(x: np.ndarray, rows: _Rows, supply: bool = False):
        """KCL residuals and Jacobian at point ``x``; with ``supply``,
        also the supply-to-ground current."""
        n_rows = x.shape[0]
        residual = np.zeros((n_rows, n_free))
        jacobian = np.zeros((n_rows, n_free, n_free))
        outflow = ({node: np.zeros(n_rows) for node in high_masks}
                   if supply else {})

        for (t, width), shift in zip(devices, rows.shifts):
            v_gate, v_src, v_drn = terminals(t, x, rows)
            if t.kind == NMOS:
                current, di_dvs, di_dvd = model.nmos_branch(
                    v_gate, v_src, v_drn, rows.length, width, shift)
                into_src, into_drn = current, -current
                src_sign, drn_sign = 1.0, -1.0
            else:
                current, di_dvs, di_dvd = model.pmos_branch(
                    v_gate, v_src, v_drn, rows.length, width, shift)
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

        if not supply:
            return residual, jacobian, None
        total = np.zeros(n_rows)
        for node, mask in high_masks.items():
            total += np.where(mask, outflow[node], 0.0)
        if include_gate_leakage:
            total += gate_supply(x, rows)
        return residual, jacobian, total

    def gate_supply(x: np.ndarray, rows: _Rows) -> np.ndarray:
        """Supply-to-ground gate-tunneling current at operating point x."""
        total = np.zeros(x.shape[0])
        for t, width in devices:
            v_gate, v_src, v_drn = terminals(t, x, rows)
            i_gs, i_gd = model.gate_current_split(
                t.kind, v_gate, v_src, v_drn, rows.length, width)
            if t.kind == NMOS:
                flows = ((t.gate, t.source, i_gs), (t.gate, t.drain, i_gd))
            else:
                flows = ((t.source, t.gate, i_gs), (t.drain, t.gate, i_gd))
            for origin, target, current in flows:
                if origin in high_masks:
                    total += np.where(high_masks[origin], current, 0.0)
                if target in high_masks:
                    total -= np.where(high_masks[target], current, 0.0)
        return total

    def newton(level: float, todo: np.ndarray) -> np.ndarray:
        """Run Newton from ``level * VDD`` for the states in ``todo``;
        store every state that converges and return the others."""
        def narrow(keep):
            """Drop the states outside boolean mask ``keep``."""
            return (active[keep], rows.keep(keep, n_samples),
                    x.reshape(-1, n_samples, n_free)[keep].reshape(
                        -1, n_free))

        active = todo
        rows = full if todo.size == n_states else full.keep(
            np.isin(np.arange(n_states), todo), n_samples)
        x = np.full((todo.size * n_samples, n_free), level * tech.vdd)
        failed = []
        for iteration in range(1, _MAX_ITER + 1):
            residual, jacobian, _ = evaluate(x, rows)
            residual += _GMIN * x
            jacobian += _GMIN * np.eye(n_free)
            rhs = -residual[..., None]
            try:
                delta = np.linalg.solve(jacobian, rhs)[..., 0]
            except np.linalg.LinAlgError:
                # Only the states whose own Jacobian is singular give up
                # on this guess; the others take their steps.
                delta, solved = _solve_each(jacobian, rhs, active.size)
                failed.extend(active[~solved])
                active, rows, x = narrow(solved)
            delta = np.clip(delta, -_MAX_STEP, _MAX_STEP)
            x = np.clip(x + delta, -0.2, tech.vdd + 0.2)
            steps = np.abs(delta).reshape(active.size, n_samples, n_free)
            done = np.max(steps, axis=(1, 2)) < _VTOL
            if done.any():
                solution[active[done]] = x.reshape(steps.shape)[done]
                iterations[active[done]] = iteration
                active, rows, x = narrow(~done)
            if not active.size:
                break
        return np.sort(np.concatenate([np.asarray(failed, dtype=int),
                                       active]))

    solution = np.zeros((n_states, n_samples, n_free))
    iterations = np.zeros(n_states, dtype=int)
    fallbacks = 0
    if n_free:
        todo = np.arange(n_states)
        for level in _GUESSES:
            if level != _GUESSES[0]:
                fallbacks += todo.size
            todo = newton(level, todo)
            if not todo.size:
                break
        if todo.size:
            raise SolverError(
                f"{netlist.name}: DC solve failed to converge for "
                + "; ".join(f"state {dict(states[k])!r}" for k in todo))

    x = solution.reshape(n_states * n_samples, n_free)
    residual, _, supply = evaluate(x, full, supply=True)
    max_residual = (np.max(np.abs(residual).reshape(n_states, -1), axis=1)
                    if n_free else np.zeros(n_states))
    return DCSolution(
        leakage=supply.reshape(n_states, n_samples),
        free_voltages=solution,
        iterations=iterations,
        max_residual=max_residual,
    ), fallbacks
