"""``design_space``: single-threaded library calls, no service layer.

Set-up imports the program and characterizes the full library once.
Each round then runs (a) a 100-point ``estimate_sweep`` over 20
correlation lengths x 5 fresh usage mixes, (b) ECO what-ifs through
``estimate_delta`` against a ``build_base`` snapshot, (c) three
``estimate("exact")`` calls at 10^6 sites, spread over the round, and
(d) one ``mode="full"`` coupled thermal solve on a two-cell library,
which re-characterizes per temperature bin.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import subprocess
import sys
import time

from perfbench import inputs
from perfbench.common import (
    HASH_SEED, HASH_SEED_DRIFT_RTOL, ROOT, BenchError, CallCounter, Spans,
    estimator_layers, import_times, program_env, self_peak_rss_mb,
    summarize, trace_stages)

#: The thermal operating point of ``benchmarks/bench_thermal.py``: a few
#: kelvin of self-heating, quantized finely enough for tens of bins.
THERMAL = dict(mode="full", package_resistance=40.0,
               spreading_resistance=3e5, spreading_length=0.3e-3,
               power_scale=400.0, full_quantization=0.005)
#: ``exact`` against ``linear`` on the same grid (tests/core/test_api.py).
EXACT_MEAN_RTOL = 1e-12
EXACT_STD_RTOL = 1e-9
SWEEP_CHECKS = 2
DELTA_CHECKS = 2
#: String hash seeds of the set-ups timed per run, each in a fresh
#: interpreter: one before the rounds and the rest after, so that they
#: sample the whole run. The one under another seed shows how far the
#: program's answers depend on it (see ``HASH_SEED``).
SETUP_HASH_SEEDS = (HASH_SEED, "1", HASH_SEED)
WHATIF_BATCHES = 4

_SETUP = """
import sys, time
t0 = time.perf_counter()
from repro import build_library, characterize_library, synthetic_90nm
characterization = characterize_library(build_library(), synthetic_90nm())
print(time.perf_counter() - t0)
from repro import CellUsage, FullChipLeakageEstimator
side = float(sys.argv[2])
answer = FullChipLeakageEstimator(
    characterization, CellUsage.uniform(characterization.cell_names),
    int(sys.argv[1]), side, side).estimate("linear")
print(repr(answer.mean), repr(answer.std))
"""


def _setup_probe(hash_seed: str):
    """Import, library and characterization in a fresh interpreter under
    ``hash_seed``; returns their seconds and, computed after the timing,
    ``(mean, std)`` of the uniform-usage base scenario."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP, str(inputs.N_CELLS),
         repr(inputs.DIE_MM * 1e-3)], cwd=ROOT,
        env=program_env(hash_seed), capture_output=True, text=True,
        timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr[-500:]}")
    seconds, mean, std = map(float, proc.stdout.split())
    return seconds, (mean, std)


class Study:
    """The program's library calls, imported once set-up is timed, and
    the state one run of rounds shares."""

    def __init__(self, seed: int, trace: bool) -> None:
        from repro import (CellUsage, FullChipLeakageEstimator,
                           build_library, characterize_library,
                           synthetic_90nm)
        self.technology = synthetic_90nm()
        self.characterization = characterize_library(build_library(),
                                                     self.technology)
        #: End of the set-up that the fresh-interpreter probes also time.
        self.ready = time.perf_counter()
        import repro.spice.leakage as spice_leakage
        import repro.thermal.leakage as thermal_leakage
        from repro.core import api
        from repro.core.sweep import correlation_length_axis, usage_axis
        from repro.thermal import ThermalConfig

        self.CellUsage = CellUsage
        self.Estimator = FullChipLeakageEstimator
        self.build_library = build_library
        self.characterize_library = characterize_library
        self.api = api
        self.usage_axis = usage_axis
        self.space = inputs.DesignSpace(seed, self.characterization.cell_names)
        self.lengths = correlation_length_axis(
            [mm * 1e-3 for mm in self.space.lengths_mm()], self.technology)
        self.thermal = ThermalConfig(**THERMAL)
        self.solves = CallCounter(spice_leakage, "solve_dc", trace)
        self.thermal_characterizations = CallCounter(
            thermal_leakage, "characterize_library", trace)
        self.spans = Spans(trace)
        self.problems = []

    def restore(self) -> None:
        self.solves.restore()
        self.thermal_characterizations.restore()

    def round(self) -> dict:
        """One round. The what-ifs run in four batches and the exact
        calls one at a time between the other steps, so their latencies
        sample the whole round, not one instant of it."""
        space, spans, die = self.space, self.spans, inputs.DIE_MM * 1e-3
        data = space.round_inputs()
        record = {"inputs": data, "wrong": 0, "deltas": [], "delta_s": [],
                  "exact_s": []}
        mixes = [self.CellUsage(mix) for mix in data["mixes"]]
        batches = iter([data["edits"][i::WHATIF_BATCHES]
                        for i in range(WHATIF_BATCHES)])
        exact_mixes = iter(data["exact_mixes"])

        # (b) ECO what-ifs against a base snapshot of the first mix.
        with spans.span("delta.base_build"):
            base = self.api.build_base(self.characterization, mixes[0],
                                       inputs.N_CELLS, die, die)

        def whatifs():
            for edit in next(batches):
                with spans.span("delta.edit"):
                    start = time.perf_counter()
                    result = self.api.estimate_delta(base, edit)
                    record["delta_s"].append(time.perf_counter() - start)
                record["deltas"].append((edit, result))

        whatifs()
        self._exact(record, next(exact_mixes))
        # (a) The sweep; fresh mixes each round, so no RG reuse across
        # rounds.
        axis = self.usage_axis(mixes, values=tuple(
            f"mix-{i}" for i in range(len(mixes))))
        with spans.span("sweep"):
            start = time.perf_counter()
            sweep = self.api.estimate_sweep(
                self.characterization, None, inputs.N_CELLS, die, die,
                axes=[self.lengths, axis], method="linear")
            record["sweep_s"] = time.perf_counter() - start
        record["sweep"] = list(sweep)
        record["stats"] = dict(sweep.stats)
        if sweep.stats["rg_builds"] != len(mixes):
            self._wrong(record, f"sweep built {sweep.stats['rg_builds']} RG "
                                f"bundles for {len(mixes)} usage mixes")
        whatifs()
        self._exact(record, next(exact_mixes))

        # (d) The full thermal solve on a fresh two-cell characterization
        # (the thermal layer memoizes per characterization object).
        cells = list(space.THERMAL_CELLS)
        small = self.characterize_library(
            self.build_library(), self.technology, cells=cells)
        record["thermal_states"] = sum(1 for _ in small.state_table())
        estimator = self.Estimator(small, self.CellUsage.uniform(cells),
                                   inputs.N_CELLS, die, die,
                                   simplified_correlation=True)
        with spans.span("thermal"):
            start = time.perf_counter()
            solved = estimator.estimate("linear", thermal=self.thermal)
            record["thermal_s"] = time.perf_counter() - start
        doc = solved.details["thermal"]
        record["iterations"] = int(doc["iterations"])
        if not doc["converged"] or doc["residual"] > doc["tolerance"]:
            self._wrong(record, f"thermal solve did not converge: {doc}")
        whatifs()
        self._exact(record, next(exact_mixes))
        return record

    def _exact(self, record, mix) -> None:
        """(c) The exact engine at 10^6 sites, checked against linear on
        the same grid."""
        side = self.space.EXACT_DIE_MM * 1e-3
        estimator = self.Estimator(
            self.characterization, self.CellUsage(mix),
            self.space.EXACT_CELLS, side, side, simplified_correlation=True)
        with self.spans.span("estimators.exact"):
            start = time.perf_counter()
            exact = estimator.estimate("exact")
            record["exact_s"].append(time.perf_counter() - start)
        linear = estimator.estimate("linear")
        if not (math.isclose(exact.mean, linear.mean,
                             rel_tol=EXACT_MEAN_RTOL)
                and math.isclose(exact.std, linear.std,
                                 rel_tol=EXACT_STD_RTOL)):
            self._wrong(record, f"exact {exact} disagrees with {linear}")

    def _wrong(self, record, problem: str) -> None:
        record["wrong"] += 1
        self.problems.append(problem)

    def check(self, seed: int, rounds) -> int:
        """Sampled sweep points against single-point estimates (bit for
        bit) and sampled what-ifs against fresh estimates of the edited
        scenario (delta tolerances); returns the wrong answers."""
        from repro.delta import DELTA_MEAN_RTOL, DELTA_STD_RTOL
        from repro.delta.edits import edit_from_dict

        space, die, wrong = self.space, inputs.DIE_MM * 1e-3, 0
        points = [(r, i) for r, record in enumerate(rounds)
                  for i in range(len(record["sweep"]))]
        for pick in inputs.check_sample("design_space", seed, len(points),
                                        SWEEP_CHECKS):
            r, i = points[pick]
            length = self.lengths.overrides[i // space.N_MIXES]
            usage = self.CellUsage(
                rounds[r]["inputs"]["mixes"][i % space.N_MIXES])
            want = self.Estimator(
                self.characterization, usage, inputs.N_CELLS, die, die,
                correlation=length["correlation"]).estimate("linear")
            got = rounds[r]["sweep"][i]
            if (got.mean, got.std) != (want.mean, want.std):
                wrong += 1
                self.problems.append(f"sweep point {i} of round {r}: {got} "
                                     f"!= single-point {want}")
        edits = [(r, i) for r, record in enumerate(rounds)
                 for i in range(len(record["deltas"]))]
        for pick in inputs.check_sample("design_space", seed + 1,
                                        len(edits), DELTA_CHECKS):
            r, i = edits[pick]
            edit, got = rounds[r]["deltas"][i]
            fractions = dict(self.CellUsage(
                rounds[r]["inputs"]["mixes"][0]).items())
            edit_from_dict(edit).apply(fractions, inputs.N_CELLS)
            want = self.Estimator(
                self.characterization, self.CellUsage(fractions),
                inputs.N_CELLS, die, die).estimate("linear")
            if not (math.isclose(got.mean, want.mean,
                                 rel_tol=DELTA_MEAN_RTOL)
                    and math.isclose(got.std, want.std,
                                     rel_tol=DELTA_STD_RTOL)):
                wrong += 1
                self.problems.append(f"what-if {i} of round {r}: {got} vs "
                                     f"fresh {want}")
        return wrong

    def check_probes(self, probes) -> int:
        """The fresh interpreters' answers for the uniform-usage base
        scenario against this process's: bit for bit under the same
        hash seed, within ``HASH_SEED_DRIFT_RTOL`` under another;
        returns the wrong answers."""
        die, wrong = inputs.DIE_MM * 1e-3, 0
        want = self.Estimator(
            self.characterization,
            self.CellUsage.uniform(self.characterization.cell_names),
            inputs.N_CELLS, die, die).estimate("linear")
        for hash_seed, (_, (mean, std)) in zip(SETUP_HASH_SEEDS, probes):
            drift = max(abs(mean / want.mean - 1.0),
                        abs(std / want.std - 1.0))
            if (drift > HASH_SEED_DRIFT_RTOL if hash_seed != HASH_SEED
                    else (mean, std) != (want.mean, want.std)):
                wrong += 1
                self.problems.append(
                    f"fresh interpreter under PYTHONHASHSEED={hash_seed} "
                    f"answered ({mean!r}, {std!r}) against ({want.mean!r}, "
                    f"{want.std!r}) here")
        return wrong


def run(seed: int, seconds: float, trace: bool) -> dict:
    probes = [_setup_probe(SETUP_HASH_SEEDS[0])]
    begin = time.perf_counter()
    study = Study(seed, trace)
    in_process_setup_s = study.ready - begin

    from repro.obs import Tracer

    tracer = Tracer("perfbench.design_space")
    rounds = []
    deadline = time.perf_counter() + seconds
    try:
        with contextlib.ExitStack() as stack:
            if trace:
                stack.enter_context(tracer)
            while time.perf_counter() < deadline or not rounds:
                rounds.append(study.round())
    finally:
        study.restore()
    rss = self_peak_rss_mb()
    probes += [_setup_probe(s) for s in SETUP_HASH_SEEDS[len(probes):]]
    setups = [seconds for seconds, _ in probes]
    wrong = (study.check(seed, rounds) + study.check_probes(probes)
             + sum(r["wrong"] for r in rounds))

    spans = study.spans
    sweep_s = sum(r["sweep_s"] for r in rounds)
    n_points = sum(len(r["sweep"]) for r in rounds)
    n_edits = sum(len(r["delta_s"]) for r in rounds)
    whatif = summarize([t * 1e3 for r in rounds for t in r["delta_s"]])
    thermal = summarize([r["thermal_s"] for r in rounds])
    exact = summarize([t for r in rounds for t in r["exact_s"]])
    e2e = {"setup_s": statistics.median(setups), "peak_rss_mb": rss,
           "throughput_per_s": n_points / sweep_s,
           "heavy_call_s": exact["p50"]}
    named = [("sweep_points_per_s", n_points / sweep_s, "1/s"),
             ("whatif_per_s",
              n_edits / sum(sum(r["delta_s"]) for r in rounds), "1/s"),
             ("whatif_p50_ms", whatif["p50"], "ms"),
             (f"whatif_{whatif['tail_label']}_ms", whatif["tail"], "ms"),
             ("exact_1m_s", exact["p50"], "s"),
             ("thermal_full_s", thermal["p50"], "s")]
    report = {"setups_s": setups, "in_process_setup_s": in_process_setup_s,
              "rounds": len(rounds),
              "sweep_rg_builds": [r["stats"]["rg_builds"] for r in rounds],
              "usage_mixes_per_sweep": study.space.N_MIXES,
              "whatif_ms": whatif, "exact_1m_s": exact,
              "exact_1m_samples_s": [t for r in rounds for t in r["exact_s"]],
              "sweep_s": [r["sweep_s"] for r in rounds],
              "thermal_full_s": thermal,
              "thermal_iterations": [r["iterations"] for r in rounds]}
    layers = {}
    if trace:
        totals = {}
        trace_stages(tracer.export(), totals)
        characterizations = study.thermal_characterizations
        layers.update(import_times())
        layers.update(estimator_layers(totals))
        layers.update({
            "characterization.busy_s": characterizations.busy,
            "characterization.states": characterizations.calls
            * rounds[0]["thermal_states"],
            "spice.solve_calls": study.solves.calls,
            "spice.busy_s": study.solves.busy,
            "rg.busy_s": totals.get("api.rg_build", (0.0, 0))[0],
            "rg.builds": totals.get("api.rg_build", (0.0, 0))[1],
            "estimators.exact_s": spans.busy("estimators.exact"),
            "estimators.exact_calls": spans.count("estimators.exact"),
            "sweep.points": n_points,
            "sweep.rg_builds": sum(r["stats"]["rg_builds"] for r in rounds),
            "sweep.rho_kernel_evaluations": sum(
                r["stats"]["rho_kernel_evaluations"] for r in rounds),
            "delta.edit_s": spans.busy("delta.edit"),
            "delta.edits": spans.count("delta.edit"),
            "delta.base_build_s": spans.busy("delta.base_build"),
            "thermal.busy_s": spans.busy("thermal"),
            "thermal.iterations": sum(r["iterations"] for r in rounds),
        })
    return {"e2e": e2e, "layers": layers, "report": report, "named": named,
            "attempted": n_points + n_edits + exact["n"] + len(rounds)
            + SWEEP_CHECKS + DELTA_CHECKS + len(probes),
            "failed": wrong, "problems": study.problems, "worker_mode": None,
            "spans": spans}
