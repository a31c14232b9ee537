"""Seeded process-level chaos: kill/stall storms against the worker pool.

Every storm asserts the crash-only contract end to end: results are
bit-identical to a calm baseline or a typed, documented error -- never
a hang, never a partial grid, never an orphaned process.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.service import ServiceClient
from repro.service.faults import FaultInjector
from repro.service.jobs import EstimateRequest
from repro.service.sweep import SweepRequest

from .conftest import CELLS

REQUEST = EstimateRequest(
    n_cells=900,
    width_mm=0.6,
    height_mm=0.6,
    usage={"INV_X1": 0.5, "NAND2_X1": 0.5},
    cells=CELLS,
    method="linear",
)

POOL_OPTIONS = {
    "heartbeat_interval": 0.02,
    "heartbeat_timeout": 1.0,
    "restart_backoff": 0.01,
    "max_backoff": 0.1,
    "init_timeout": 60.0,
}


@pytest.fixture(scope="module")
def calm_baseline():
    """Thread-mode reference results nothing was injected into."""
    client = ServiceClient(workers=1)
    try:
        estimate = client.estimate(REQUEST)
        sweep = client.sweep(
            SweepRequest(base=REQUEST,
                         axes=({"name": "n_cells",
                                "values": (300, 500)},)))
        yield estimate, sweep
    finally:
        client.close()


def _assert_no_orphans(pids):
    for pid in pids:
        if pid is None:
            continue
        with pytest.raises(OSError):
            os.kill(pid, 0)


class TestWorkerChaos:
    def test_kill_and_stall_storm_is_bit_identical(self):
        # Three distinct requests so every one dispatches cold (a warm
        # parent-cache hit never reaches the pool, hence never draws).
        storm_requests = [
            dataclasses.replace(REQUEST, n_cells=n)
            for n in (700, 900, 1100)]
        reference = ServiceClient(workers=1)
        try:
            baselines = [reference.estimate(request).to_dict()
                         for request in storm_requests]
        finally:
            reference.close()

        faults = FaultInjector("worker.kill:1.0:2,worker.stall:1.0:1",
                               seed=7)
        client = ServiceClient(workers=1, worker_mode="process",
                               faults=faults,
                               process_pool=dict(POOL_OPTIONS))
        try:
            # Every dispatch in the storm window draws chaos: two kills
            # and one stall land on first attempts, the requeued
            # attempts compute -- the caller never notices.
            for request, baseline in zip(storm_requests, baselines):
                estimate = client.estimate(request, timeout=240.0)
                assert estimate.to_dict() == baseline
            pool = client._process_pool
            assert pool.restarts >= 2
            assert any("exited with code 23" in note
                       for note in pool.failures)
            assert any("heartbeat missed" in note
                       for note in pool.failures)
            assert faults.fires("worker.kill") == 2
            assert faults.fires("worker.stall") == 1
            pids = [entry["pid"] for entry in client.worker_liveness()]
        finally:
            client.close()
        _assert_no_orphans(pids)

    def test_sweep_grid_is_never_partial_under_kill(self, calm_baseline):
        _, baseline_sweep = calm_baseline
        faults = FaultInjector("worker.kill:1.0:1", seed=11)
        client = ServiceClient(workers=1, worker_mode="process",
                               faults=faults,
                               process_pool=dict(POOL_OPTIONS))
        try:
            response = client.sweep(
                SweepRequest(base=REQUEST,
                             axes=({"name": "n_cells",
                                    "values": (300, 500)},)),
                timeout=240.0)
            # The kill lands mid-grid; the requeued attempt recomputes
            # the whole sweep: full grid, point-for-point identical.
            assert len(response.estimates) == 2
            assert ([point.to_dict() for point in response.estimates]
                    == [point.to_dict()
                        for point in baseline_sweep.estimates])
            assert faults.fires("worker.kill") == 1
            assert client._process_pool.restarts >= 1
        finally:
            client.close()

    def test_storm_with_cache_faults_still_answers(self, calm_baseline,
                                                   tmp_path):
        baseline, _ = calm_baseline
        # Worker kills layered over child-side disk-cache corruption:
        # corrupt entries are quarantined, reads degrade to recompute.
        faults = FaultInjector("worker.kill:1.0:1,cache.write:0.5",
                               seed=13)
        client = ServiceClient(workers=1, worker_mode="process",
                               cache_dir=str(tmp_path / "cache"),
                               faults=faults,
                               process_pool=dict(POOL_OPTIONS))
        try:
            estimate = client.estimate(REQUEST, timeout=240.0)
            assert estimate.to_dict() == baseline.to_dict()
        finally:
            client.close()
