"""A stacked DC solve of a cell's K states equals K one-state solves.

``solve_dc`` takes one state mapping or a sequence of them; the sequence
is solved in one Newton loop with the states stacked along the sample
axis. Every state keeps its own stop test, iteration count and ladder of
initial guesses, so the stacked answer must be bit-identical to solving
the states one at a time — at every corner, with gate leakage and with
per-transistor Vt shifts — and a failure of one state must leave the
others untouched.
"""

import numpy as np
import pytest

from repro.characterization.fitting import sample_lengths
from repro.devices import DeviceModel
from repro.exceptions import NetlistError, SolverError
from repro.obs import Tracer
from repro.process import synthetic_90nm
from repro.spice import solve_dc

#: Corners of the equivalence suite: nominal, 125 C and 1.4x sigma_L.
CORNERS = {
    "nominal": synthetic_90nm(),
    "125C": synthetic_90nm().at_temperature(398.15),
    "sigma_l_x1.4": synthetic_90nm(relative_sigma_l=0.07),
}


def fit_lengths(tech):
    return sample_lengths(tech.length.nominal, tech.length.sigma)


def assert_stacked_matches_singles(netlist, states, model, lengths,
                                   **kwargs):
    stacked = solve_dc(netlist, states, model, lengths, **kwargs)
    n_samples = np.atleast_1d(lengths).shape[0]
    assert stacked.leakage.shape == (len(states), n_samples)
    assert stacked.free_voltages.shape == (
        len(states), n_samples, len(netlist.free_nodes))
    singles = [solve_dc(netlist, state, model, lengths, **kwargs)
               for state in states]
    for k, single in enumerate(singles):
        where = (netlist.name, k)
        assert np.array_equal(stacked.leakage[k], single.leakage), where
        assert np.array_equal(stacked.free_voltages[k],
                              single.free_voltages), where
        assert stacked.max_residual[k] == single.max_residual, where
    assert np.array_equal(stacked.iterations,
                          [single.iterations for single in singles])
    return stacked, singles


class TestEquivalence:
    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_every_library_cell(self, library, corner):
        tech = CORNERS[corner]
        model, lengths = DeviceModel(tech), fit_lengths(tech)
        for cell in library:
            assert_stacked_matches_singles(
                cell.netlist, [s.nodes for s in cell.states], model, lengths)

    def test_with_gate_leakage(self, library):
        tech = CORNERS["nominal"]
        model, lengths = DeviceModel(tech), fit_lengths(tech)
        for cell in library:
            assert_stacked_matches_singles(
                cell.netlist, [s.nodes for s in cell.states], model,
                lengths, include_gate_leakage=True)

    def test_with_vt_shifts(self, library):
        tech = CORNERS["nominal"]
        model, lengths = DeviceModel(tech), fit_lengths(tech)
        rng = np.random.default_rng(7)
        for cell in library:
            names = [t.name for t in cell.netlist.transistors]
            # Per-sample shifts on all but one device, a scalar on one,
            # so both broadcast forms are stacked.
            shifts = {name: rng.normal(0.0, tech.vt.sigma, lengths.shape)
                      for name in names[1:]}
            shifts[names[0]] = 0.01
            assert_stacked_matches_singles(
                cell.netlist, [s.nodes for s in cell.states], model,
                lengths, vt_shifts=shifts)

    def test_one_mapping_keeps_one_state_shapes(self, library):
        tech = CORNERS["nominal"]
        cell = library["NAND2_X1"]
        solution = solve_dc(cell.netlist, cell.states[0].nodes,
                            DeviceModel(tech), fit_lengths(tech))
        assert solution.leakage.shape == (9,)
        assert solution.free_voltages.shape == (9, 1)
        assert isinstance(solution.iterations, int)
        assert isinstance(solution.max_residual, float)

    def test_sequence_of_one_is_the_single_state(self, library):
        tech = CORNERS["nominal"]
        cell = library["AOI21_X1"]
        model, lengths = DeviceModel(tech), fit_lengths(tech)
        stacked, (single,) = assert_stacked_matches_singles(
            cell.netlist, [cell.states[3].nodes], model, lengths)
        assert stacked.leakage.shape == (1, 9)
        assert stacked.iterations.shape == (1,)


class TestCharacterization:
    def test_one_solve_per_cell(self, library, monkeypatch):
        import repro.spice.leakage as leakage
        from repro.characterization import characterize_library

        calls = []
        real = leakage.solve_dc

        def counted(netlist, state, *args, **kwargs):
            calls.append((netlist.name, len(state)))
            return real(netlist, state, *args, **kwargs)

        monkeypatch.setattr(leakage, "solve_dc", counted)
        table = characterize_library(library, CORNERS["nominal"])
        assert calls == [(cell.name, len(cell.states)) for cell in library]
        assert sum(1 for _ in table.state_table()) == sum(
            n_states for _, n_states in calls)


def _captured_jacobians(netlist, state, model, lengths, monkeypatch):
    """Every Jacobian batch a one-state solve tries to factor while every
    factorization fails: the first Newton matrices of each initial guess."""
    seen = []

    def explode(a, b):
        seen.append(np.array(a))
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "solve", explode)
    with pytest.raises(SolverError):
        solve_dc(netlist, state, model, lengths)
    monkeypatch.undo()
    return seen


def _failing_on(poisoned, real_solve):
    """An ``np.linalg.solve`` that raises for any batch that holds one of
    the ``poisoned`` matrices and solves the others normally."""
    marks = {m.tobytes() for batch in poisoned for m in batch}

    def solve(a, b):
        a = np.asarray(a)
        if any(m.tobytes() in marks for m in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("injected")
        return real_solve(a, b)

    return solve


def _spice_spans(document):
    found = []

    def walk(spans):
        for node in spans:
            if node["name"] == "spice.solve":
                found.append(node)
            walk(node.get("children", ()))

    walk(document["spans"])
    return found


class TestFailureIsolation:
    TARGET = 2

    @pytest.fixture
    def nand(self, library):
        tech = CORNERS["nominal"]
        cell = library["NAND2_X1"]
        return (cell.netlist, [s.nodes for s in cell.states],
                DeviceModel(tech), fit_lengths(tech))

    def test_singular_state_alone_moves_to_next_guess(self, nand,
                                                      monkeypatch):
        netlist, states, model, lengths = nand
        clean = [solve_dc(netlist, s, model, lengths) for s in states]
        captured = _captured_jacobians(netlist, states[self.TARGET], model,
                                       lengths, monkeypatch)
        # Poison only the target's first matrix at the 0.5 VDD guess.
        monkeypatch.setattr(np.linalg, "solve",
                            _failing_on(captured[:1], np.linalg.solve))
        tracer = Tracer("test")
        with tracer:
            stacked, singles = assert_stacked_matches_singles(
                netlist, states, model, lengths)
        for k, (single, reference) in enumerate(zip(singles, clean)):
            if k != self.TARGET:
                assert np.array_equal(single.leakage, reference.leakage)
                assert single.iterations == reference.iterations
        attrs = _spice_spans(tracer.export())[0]["attrs"]
        assert attrs["states"] == len(states)
        assert attrs["fallbacks"] == 1

    def test_error_names_only_the_failing_state(self, nand, monkeypatch):
        netlist, states, model, lengths = nand
        captured = _captured_jacobians(netlist, states[self.TARGET], model,
                                       lengths, monkeypatch)
        monkeypatch.setattr(np.linalg, "solve",
                            _failing_on(captured, np.linalg.solve))
        with pytest.raises(SolverError) as failure:
            solve_dc(netlist, states, model, lengths)
        message = str(failure.value)
        assert repr(dict(states[self.TARGET])) in message
        for k, state in enumerate(states):
            if k != self.TARGET:
                assert repr(dict(state)) not in message

    def test_error_names_every_failing_state(self, nand, monkeypatch):
        netlist, states, model, lengths = nand
        real_solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: real_solve(a, b) + 1.0)
        with pytest.raises(SolverError) as failure:
            solve_dc(netlist, states, model, lengths)
        for state in states:
            assert repr(dict(state)) in str(failure.value)

    def test_empty_state_sequence_is_a_netlist_error(self, nand):
        netlist, _, model, lengths = nand
        with pytest.raises(NetlistError, match="no states"):
            solve_dc(netlist, [], model, lengths)

    def test_bad_state_in_sequence_is_a_netlist_error(self, nand):
        netlist, states, model, lengths = nand
        with pytest.raises(NetlistError, match="missing pinned node"):
            solve_dc(netlist, [states[0], {"I0": 0}], model, lengths)


class TestSolveSpan:
    def test_one_span_per_call_with_state_attrs(self, library):
        tech = CORNERS["nominal"]
        cell = library["AOI22_X1"]
        states = [s.nodes for s in cell.states]
        tracer = Tracer("test")
        with tracer:
            solution = solve_dc(cell.netlist, states, DeviceModel(tech),
                                fit_lengths(tech))
        (found,) = _spice_spans(tracer.export())
        assert found["attrs"] == {
            "cell": cell.netlist.name, "states": len(states),
            "iterations": int(solution.iterations.max()), "fallbacks": 0}
