"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import inspect
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import inputs
from perfbench.common import (ROOT, SRC, quantile, summarize, tail_quantile,
                              trace_stages)
from perfbench.run import catalogue

NAMES = tuple(f"CELL_{i}" for i in range(62))


@pytest.fixture(scope="module")
def program():
    sys.path.insert(0, SRC)
    try:
        yield
    finally:
        sys.path.remove(SRC)


def _warm_stream(seed, count=200):
    mix = inputs.WarmMix(seed, NAMES)
    return [mix.next_request() for _ in range(count)]


def _design_rounds(seed, count=2):
    space = inputs.DesignSpace(seed, NAMES)
    return [space.round_inputs() for _ in range(count)]


@pytest.mark.parametrize("generate", [
    lambda seed: inputs.cold_corners(seed, 16),
    _warm_stream,
    lambda seed: inputs.WarmMix(seed, NAMES).ranked,
    lambda seed: inputs.arrivals(seed, [(8.0, 5.0), (24.0, 3.0)]),
    _design_rounds,
    lambda seed: inputs.check_sample("warm_mix", seed, 500, 5),
], ids=["corners", "warm_stream", "population", "arrivals", "design",
        "checks"])
def test_generators_are_deterministic_per_seed(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_cold_corners_never_repeat_a_characterization_key(program):
    from perfbench.cold_corners import MAX_CORNERS
    from repro.service import EstimateRequest

    for seed in range(3):
        keys = [EstimateRequest.from_dict(inputs.corner_request(c))
                .characterization_key()
                for c in inputs.cold_corners(seed, MAX_CORNERS)]
        assert len(set(keys)) == len(keys) == MAX_CORNERS


def test_warm_population_outgrows_the_default_estimate_cache(program):
    from repro.service import ServiceClient

    default = inspect.signature(ServiceClient).parameters["cache_entries"]
    assert default.default == inputs.ESTIMATE_CACHE_ENTRIES
    mix = inputs.WarmMix(3, NAMES)
    distinct = {json.dumps(body, sort_keys=True) for body in mix.population}
    assert len(distinct) == inputs.POPULATION
    assert len(distinct) >= 3 * inputs.ESTIMATE_CACHE_ENTRIES
    # Both estimators of method="auto" run: block designs stay at most
    # 250,000 cells (linear), chips exceed it (integral2d).
    cells = sorted(body["n_cells"] for body in mix.population)
    assert cells[0] >= 4_000 and cells[-1] <= 10_000_000
    assert sum(n > 250_000 for n in cells) == pytest.approx(
        inputs.CHIP_SHARE * len(cells), abs=2)
    # Probes and sweeps never collide with a population request.
    assert not distinct & {json.dumps(body, sort_keys=True)
                           for body in mix.heavy_probes}


def test_warm_run_touches_more_estimate_keys_than_the_cache_holds(program):
    from perfbench.warm_mix import plan

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for seed in range(3):
        *_, keys = plan(seed, spec["run_seconds"], trace=False)
        assert len(keys) > 1.1 * inputs.ESTIMATE_CACHE_ENTRIES


def test_warm_stream_deals_a_fixed_chip_share():
    mix = inputs.WarmMix(4, NAMES)
    drawn = [body for kind, _, body in
             (mix.next_request() for _ in range(2000))
             if kind == "population"]
    chips = sum(body["n_cells"] > inputs.BLOCK_CELLS[1] for body in drawn)
    assert chips == pytest.approx(inputs.CHIP_SHARE * len(drawn), abs=1)


def test_warm_stream_holds_the_mix_shares():
    kinds = [kind for kind, _, _ in _warm_stream(5, count=1000)]
    for kind, share in inputs.MIX:
        assert kinds.count(kind) == share * 10


def test_swap_edits_move_at_most_one_percent():
    rng = inputs._rng("test", 0)
    for _ in range(200):
        edit = inputs.swap_edit(rng, NAMES)
        assert 0 < edit["fraction"] <= inputs.EDIT_FRACTION_MAX
        assert edit["from_cell"] != edit["to_cell"]


def test_metric_names_are_valid():
    """The runner reports exactly the metrics ``BENCHMARK.json`` lists."""
    metrics = catalogue()
    names = [*metrics["end_to_end"], *metrics["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
    assert "setup_s" in metrics["end_to_end"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail_quantile(19) is None
    assert tail_quantile(100) == pytest.approx(0.9)
    assert tail_quantile(1000) == pytest.approx(0.99)
    assert tail_quantile(10 ** 6) == 0.999
    values = list(range(1, 101))
    assert summarize(values)["tail"] == pytest.approx(quantile(values, 0.9))
    assert summarize([3.0, 1.0, 2.0])["tail"] == 3.0


def test_trace_stages_attribute_each_variance_to_its_estimator():
    document = {"spans": [
        {"name": "service.request", "wall_s": 1.0, "children": [
            {"name": "api.variance", "wall_s": 0.5,
             "attrs": {"method": "integral2d"}},
            {"name": "api.variance", "wall_s": 0.25,
             "attrs": {"method": "linear"}, "children": [
                 {"name": "linear.reduce", "wall_s": 0.125}]}]},
        {"name": "sweep.points", "wall_s": 0.1, "children": [
            {"name": "linear.reduce", "wall_s": 0.0625}]}]}
    totals = {}
    trace_stages(document, totals)
    assert totals["estimators.integral2d"] == [0.5, 1]
    assert totals["estimators.linear"] == [0.3125, 2]
    assert totals["linear.reduce"] == [0.1875, 2]


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_corners",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not (tmp_path / ".perfbench-tmp").exists()
