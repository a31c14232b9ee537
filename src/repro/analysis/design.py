"""Realized placed designs: per-gate leakage statistic arrays.

A *realization* fixes, for every placed gate, its cell type (from the
netlist) and its input state (drawn from the state distribution under
the applicable signal probabilities). It carries exactly the arrays the
O(n^2) "true leakage" estimator and the chip Monte Carlo need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.characterization.characterizer import LibraryCharacterization
from repro.characterization.fitting import LeakageFit
from repro.circuits.netlist import Netlist
from repro.core.estimators.exact import exact_moments
from repro.core.kernels import pair_params_from_fits
from repro.exceptions import EstimationError
from repro.process.correlation import SpatialCorrelation


@dataclass(frozen=True)
class DesignRealization:
    """Per-gate arrays of a placed, state-assigned design.

    Attributes
    ----------
    positions:
        ``(n, 2)`` gate coordinates [m].
    means / stds:
        Per-gate leakage statistics at the realized state [A].
    fits:
        Per-gate ``(a, b, c)`` fits, or ``None`` in Monte-Carlo mode.
    labels:
        ``(cell_name, state_label)`` per gate.
    """

    positions: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    fits: Optional[Tuple[LeakageFit, ...]]
    labels: Tuple[Tuple[str, str], ...]

    @property
    def n_gates(self) -> int:
        return self.positions.shape[0]

    def pair_params(self, mu_l: float, sigma_l: float):
        """Per-gate ``(a, h, k)`` arrays for exact pairwise moments."""
        if self.fits is None:
            raise EstimationError(
                "realization has no fits (Monte-Carlo characterization); "
                "use the simplified correlation model")
        return pair_params_from_fits(self.fits, mu_l, sigma_l)

    def true_moments(
        self,
        correlation: SpatialCorrelation,
        mu_l: Optional[float] = None,
        sigma_l: Optional[float] = None,
        *,
        method: str = "auto",
        n_jobs: int = 1,
        tolerance: float = 0.0,
    ) -> Tuple[float, float]:
        """``(mean, std)`` of the realized design's total leakage.

        Uses the exact per-pair ``f_mn`` moments when ``mu_l``/``sigma_l``
        are given (and fits exist), the simplified ``rho_leak = rho_L``
        model otherwise. ``method``/``n_jobs``/``tolerance`` select the
        fast paths of :func:`repro.core.estimators.exact_moments`.
        """
        pair_params = None
        if mu_l is not None or sigma_l is not None:
            if mu_l is None or sigma_l is None:
                raise EstimationError(
                    "exact pair moments need both mu_l and sigma_l")
            pair_params = self.pair_params(mu_l, sigma_l)
        return exact_moments(
            self.positions, self.means, self.stds, correlation,
            pair_params=pair_params, method=method, n_jobs=n_jobs,
            tolerance=tolerance)


@dataclass(frozen=True)
class ExpectedDesign:
    """Per-gate *expected-state* arrays of a placed design.

    Instead of sampling one concrete input state per gate, each gate
    carries its state-mixture statistics: ``means``/``stds`` are the
    full mixture moments (diagonal terms), while ``corr_stds`` is the
    state-weighted average of per-state sigmas — the *correlatable*
    spread, since input states are independent across gates and their
    selection variance does not couple through the process correlation
    (the same structure as the Random Gate's eq. (11) discontinuity).
    """

    positions: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    corr_stds: np.ndarray

    @property
    def n_gates(self) -> int:
        return self.positions.shape[0]

    def true_moments(
        self,
        correlation: SpatialCorrelation,
        *,
        method: str = "auto",
        n_jobs: int = 1,
        tolerance: float = 0.0,
    ) -> Tuple[float, float]:
        """``(mean, std)`` of the expected-state design's total leakage
        (the late-mode "true leakage" reference), with the eq. (11)
        diagonal/off-diagonal sigma split applied via ``corr_stds``."""
        return exact_moments(
            self.positions, self.means, self.stds, correlation,
            corr_stds=self.corr_stds, method=method, n_jobs=n_jobs,
            tolerance=tolerance)


def expected_design(
    netlist: Netlist,
    characterization: LibraryCharacterization,
    signal_probability: float = 0.5,
    net_probabilities: Optional[Mapping[str, float]] = None,
) -> ExpectedDesign:
    """Expected-state per-gate arrays for a placed netlist.

    This is the deterministic "true leakage" view used for late-mode
    validation (paper Table 1): every gate contributes its expected
    mean, its full state-mixture variance on the diagonal, and its
    correlatable sigma off the diagonal.
    """
    if not netlist.is_placed:
        raise EstimationError(
            f"{netlist.name}: place the netlist before analyzing it")
    positions = netlist.positions()
    n = netlist.n_gates
    means = np.empty(n)
    stds = np.empty(n)
    corr_stds = np.empty(n)
    for k, gate in enumerate(netlist.gates):
        cell_char = characterization[gate.cell_name]
        cell = cell_char.cell
        if net_probabilities is None:
            weights = cell.state_probabilities(signal_probability)
        else:
            pin_probs = {pin: net_probabilities[net]
                         for pin, net in gate.pin_nets.items()}
            weights = cell.state_probabilities_per_pin(pin_probs)
        state_means = np.array([s.mean for s in cell_char.states])
        state_stds = np.array([s.std for s in cell_char.states])
        mean = float(weights @ state_means)
        second = float(weights @ (state_stds ** 2 + state_means ** 2))
        means[k] = mean
        stds[k] = np.sqrt(max(0.0, second - mean * mean))
        corr_stds[k] = float(weights @ state_stds)
    return ExpectedDesign(positions=positions, means=means, stds=stds,
                          corr_stds=corr_stds)


def realize_design(
    netlist: Netlist,
    characterization: LibraryCharacterization,
    rng: Optional[np.random.Generator] = None,
    signal_probability: float = 0.5,
    net_probabilities: Optional[Mapping[str, float]] = None,
) -> DesignRealization:
    """Assign a concrete input state to every gate of a placed netlist.

    States are drawn per gate from the cell's state distribution — under
    the chip-wide ``signal_probability``, or under per-gate pin
    probabilities when a propagated ``net_probabilities`` map is given
    (the late-mode refinement).
    """
    if not netlist.is_placed:
        raise EstimationError(
            f"{netlist.name}: place the netlist before realizing it")
    rng = np.random.default_rng() if rng is None else rng

    positions = netlist.positions()
    means = np.empty(netlist.n_gates)
    stds = np.empty(netlist.n_gates)
    fits = []
    labels = []
    have_fits = characterization.has_fits
    for k, gate in enumerate(netlist.gates):
        cell_char = characterization[gate.cell_name]
        cell = cell_char.cell
        if net_probabilities is None:
            weights = cell.state_probabilities(signal_probability)
        else:
            pin_probs = {pin: net_probabilities[net]
                         for pin, net in gate.pin_nets.items()}
            weights = cell.state_probabilities_per_pin(pin_probs)
        choice = int(rng.choice(len(weights), p=weights))
        state_char = cell_char.states[choice]
        means[k] = state_char.mean
        stds[k] = state_char.std
        labels.append((gate.cell_name, state_char.state_label))
        if have_fits:
            fits.append(state_char.fit)
    return DesignRealization(
        positions=positions,
        means=means,
        stds=stds,
        fits=tuple(fits) if have_fits else None,
        labels=tuple(labels),
    )
