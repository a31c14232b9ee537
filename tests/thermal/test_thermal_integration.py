"""Thermal wiring through the sweep engine and the service layer.

The thermal configuration must ride every existing transport
unchanged: sweep axes over ambient temperature and power scale cross
with the other axes (and each sweep point is bit-identical to the
direct ``estimate(..., thermal=...)`` call), and the service request
carries/validates/hashes the config — with isothermal requests keeping
their historical content hashes byte-for-byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization import characterize_library
from repro.core.api import FullChipLeakageEstimator, estimate_sweep
from repro.core.sweep import (
    ambient_temperature_axis,
    cell_count_axis,
    power_scale_axis,
)
from repro.exceptions import ConfigurationError, EstimationError
from repro.service.jobs import EstimateRequest
from repro.service.metrics import MetricsRegistry
from repro.service.pipeline import EstimationPipeline
from repro.thermal import ThermalConfig


class TestSweepAxes:
    def test_axis_validation(self):
        with pytest.raises(EstimationError, match="> 0 K"):
            ambient_temperature_axis([300.0, -10.0])
        with pytest.raises(EstimationError, match="power scale"):
            power_scale_axis([1.0, -1.0])

    def test_ambient_crosses_power_scale(self, thermal_characterization,
                                         thermal_usage):
        base = ThermalConfig(package_resistance=40.0, power_scale=1.0)
        sweep = estimate_sweep(
            thermal_characterization, thermal_usage, 1024, 1e-3, 1e-3,
            axes=[
                ambient_temperature_axis([313.15, 333.15]),
                power_scale_axis([100.0, 400.0]),
            ],
            method="linear", simplified_correlation=True, thermal=base)
        assert sweep.shape == (2, 2)
        for (ambient, scale), estimate in zip(
                np.array(np.meshgrid(*sweep.values,
                                     indexing="ij")).reshape(2, -1).T,
                sweep):
            doc = estimate.details["thermal"]
            assert doc["converged"] is True
            assert doc["ambient"] == ambient
        # Hotter ambient and stronger power coupling both raise the
        # mean: the grid must be strictly increasing along both axes.
        grid = np.reshape([e.mean for e in sweep], sweep.shape)
        assert (np.diff(grid, axis=0) > 0).all()
        assert (np.diff(grid, axis=1) > 0).all()

    def test_sweep_point_bit_identical_to_direct_estimate(
            self, thermal_characterization, thermal_usage,
            make_estimator):
        base = ThermalConfig(package_resistance=40.0)
        sweep = estimate_sweep(
            thermal_characterization, thermal_usage, 2048, 1e-3, 1e-3,
            axes=[power_scale_axis([100.0, 400.0])],
            method="linear", simplified_correlation=True, thermal=base)
        estimator = make_estimator(simplified_correlation=True)
        for scale, from_sweep in zip([100.0, 400.0], sweep):
            direct = estimator.estimate(
                "linear", thermal=base.with_power_scale(scale))
            assert from_sweep.mean == direct.mean
            assert from_sweep.std == direct.std

    def test_thermal_crosses_structural_axes(
            self, thermal_characterization, thermal_usage):
        sweep = estimate_sweep(
            thermal_characterization, thermal_usage, 1024, 1e-3, 1e-3,
            axes=[
                cell_count_axis([1024, 4096]),
                ambient_temperature_axis([313.15]),
            ],
            method="linear", simplified_correlation=True,
            thermal=ThermalConfig(package_resistance=40.0,
                                  power_scale=100.0))
        assert sweep.shape == (2, 1)
        assert all(e.details["thermal"]["converged"] for e in sweep)


class TestTracing:
    def test_traced_solve_emits_thermal_spans(self, make_estimator):
        estimator = make_estimator(n_cells=1024,
                                   simplified_correlation=True)
        thermal = ThermalConfig(package_resistance=40.0,
                                power_scale=400.0)
        traced = estimator.estimate("linear", thermal=thermal,
                                    trace=True)
        plain = estimator.estimate("linear", thermal=thermal)
        # Tracing never perturbs the solve.
        assert traced.mean == plain.mean
        assert traced.std == plain.std
        stages = traced.details["trace"]["stages"]
        assert any(name.startswith("thermal.solve")
                   for name in stages), sorted(stages)
        assert any(name.split("/")[-1].startswith("thermal.operator")
                   for name in stages), sorted(stages)

    def test_bin_characterizations_trace_their_spice_solves(
            self, library, technology, thermal_usage):
        # The bin cache is per characterization: a fresh one starts cold.
        characterization = characterize_library(
            library, technology, cells=thermal_usage.names)
        estimator = FullChipLeakageEstimator(
            characterization, thermal_usage, 1024, 1e-3, 1e-3,
            simplified_correlation=True)
        traced = estimator.estimate(
            "linear", thermal=ThermalConfig(package_resistance=40.0,
                                            power_scale=400.0),
            trace=True)
        bins = []

        def walk(spans):
            for node in spans:
                if node["name"] == "thermal.characterize":
                    bins.append(node)
                walk(node.get("children", ()))

        walk(traced.details["trace"]["spans"])
        assert bins
        for node in bins:
            solves = [child for child in node.get("children", ())
                      if child["name"] == "spice.solve"]
            assert [s["attrs"]["cell"] for s in solves] == list(
                characterization.cell_names)


class TestServiceTransport:
    BASE = dict(n_cells=1024, width_mm=1.0, height_mm=1.0,
                usage={"INV_X1": 0.6, "NAND2_X1": 0.4},
                cells=("INV_X1", "NAND2_X1"), method="linear",
                simplified_correlation=True)

    def test_isothermal_hash_has_no_thermal_key(self):
        request = EstimateRequest(**self.BASE)
        assert "thermal" not in request.canonical_dict()

    def test_thermal_requests_hash_distinctly(self):
        plain = EstimateRequest(**self.BASE)
        defaults = EstimateRequest(**self.BASE, thermal={})
        tuned = EstimateRequest(**self.BASE,
                                thermal={"power_scale": 2.0})
        assert len({plain.key(), defaults.key(), tuned.key()}) == 3
        # ...but the dict and dataclass spellings coalesce.
        spelled = EstimateRequest(
            **self.BASE, thermal=ThermalConfig(power_scale=2.0))
        assert spelled.key() == tuned.key()

    @pytest.mark.parametrize("overrides, match", [
        (dict(thermal={"ambient": -3.0}), "absolute kelvin"),
        (dict(thermal={"unknown_knob": 1.0}), "unknown thermal"),
        (dict(thermal={}, simplified_correlation=None),
         "simplified_correlation"),
        (dict(thermal={}, method="exact"), "method"),
        (dict(thermal={}, mode="montecarlo"), "analytical"),
    ])
    def test_invalid_thermal_requests_rejected_at_construction(
            self, overrides, match):
        fields = dict(self.BASE)
        fields.update(overrides)
        with pytest.raises(ConfigurationError, match=match):
            EstimateRequest(**fields)

    def test_open_loop_passes_without_simplified_correlation(self):
        fields = dict(self.BASE, simplified_correlation=None,
                      thermal={"feedback": False})
        request = EstimateRequest(**fields)
        assert request.thermal.feedback is False

    def test_pipeline_runs_thermal_and_observes_metrics(self):
        registry = MetricsRegistry()
        pipeline = EstimationPipeline(metrics=registry)
        coupled = pipeline(EstimateRequest(
            **self.BASE, thermal={"package_resistance": 40.0,
                                  "power_scale": 400.0}))
        doc = coupled.details["thermal"]
        assert doc["converged"] is True
        open_loop = pipeline(EstimateRequest(
            **self.BASE, thermal={"feedback": False}))
        assert open_loop.details["thermal"]["iterations"] == 0
        rendered = registry.render()
        assert ('repro_thermal_requests_total{outcome="coupled"} 1'
                in rendered)
        assert ('repro_thermal_requests_total{outcome="open_loop"} 1'
                in rendered)
        assert "repro_thermal_iterations" in rendered

    def test_thermal_results_cache_and_coalesce(self):
        pipeline = EstimationPipeline()
        request = EstimateRequest(
            **self.BASE, thermal={"package_resistance": 40.0,
                                  "power_scale": 400.0})
        first = pipeline(request)
        again = pipeline(EstimateRequest(
            **self.BASE, thermal={"package_resistance": 40.0,
                                  "power_scale": 400.0}))
        assert again.mean == first.mean
        assert again.details["thermal"] == first.details["thermal"]
