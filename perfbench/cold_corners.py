"""``cold_corners``: closed loop, two clients, every request a new corner.

Each request asks for the full 62-cell library at a process corner the
server has never seen, so every cache tier misses and characterization
plus the Random-Gate build do nearly all the work. The answers are
checked bit for bit against an in-process estimator for the same corner.
"""

from __future__ import annotations

import http.client
import json
import math
import statistics
import subprocess
import sys
import threading
import time

from perfbench import inputs
from perfbench.common import (
    HASH_SEED_DRIFT_RTOL, ROOT, BenchError, CallCounter, Connection,
    Scrape, Server, Spans, import_times, program_env, quantile, scratch_dir,
    service_layers, summarize, timed_server_starts, use_program_sources)

CLIENTS = 2
#: More corners than two clients can finish in a run.
MAX_CORNERS = 256
#: Server starts timed per run (probes and the measured server).
SERVER_STARTS = 3


def _client(port, corners, state, trace, spans):
    conn = Connection(port, timeout=150.0)
    done, previous_end = [], None
    try:
        while True:
            with state["lock"]:
                if time.perf_counter() >= state["end"]:
                    break
                index = state["next"]
                state["next"] += 1
            body = inputs.corner_request(corners[index])
            if trace:
                body["trace"] = True
            record = {"index": index, "ok": False}
            with spans.span("http.request", corner=index):
                record["start"] = time.perf_counter()
                try:
                    status, data = conn.post("/v1/estimate", body)
                except (OSError, http.client.HTTPException) as exc:
                    status, data = None, str(exc).encode()
                record["end"] = time.perf_counter()
            # Closed loop: a request is due when the previous one ends.
            record["lateness"] = (0.0 if previous_end is None
                                  else record["start"] - previous_end)
            previous_end = record["end"]
            record["status"] = status
            if status == 200:
                estimate = json.loads(data)["estimate"]
                record["estimate"] = estimate
                record["ok"] = (estimate["method"] == "linear"
                                and estimate["n_cells"] == inputs.N_CELLS
                                and math.isfinite(estimate["std"])
                                and estimate["mean"] > 0
                                and estimate["std"] > 0)
            else:
                record["error"] = data[:300].decode(errors="replace")
            done.append(record)
    finally:
        conn.close()
        state["results"].append(done)


def _replay(bodies, spans):
    """Recompute corners in-process through the public library calls.
    Returns the answers, the characterization seconds of each corner and,
    traced, the SPICE solves behind them."""
    with spans.span("import"):
        use_program_sources()
        import repro.spice.leakage as leakage
        from repro import CellUsage, FullChipLeakageEstimator, build_library
        from repro.characterization import characterize_library
        from repro.core.api import RGComponents
        from repro.service import EstimateRequest

    solves = CallCounter(leakage, "solve_dc", spans.enabled)
    answers, seconds, states = [], [], 0
    try:
        library = build_library()
        for body in bodies:
            request = EstimateRequest.from_dict(body)
            technology = request.technology.build()
            with spans.span("characterization"):
                start = time.perf_counter()
                characterization = characterize_library(library, technology)
                seconds.append(time.perf_counter() - start)
            states += sum(1 for _ in characterization.state_table())
            usage = CellUsage.uniform(characterization.cell_names)
            with spans.span("rg"):
                components = RGComponents.build(characterization, usage)
            estimator = FullChipLeakageEstimator(
                characterization, usage, request.n_cells,
                request.width_mm * 1e-3, request.height_mm * 1e-3,
                components=components)
            with spans.span("estimators.linear"):
                answers.append(estimator.estimate("linear"))
    finally:
        solves.restore()
    return answers, seconds, {"calls": solves.calls, "busy": solves.busy,
                              "states": states}


_DRIFT = """
import json, sys
from perfbench.cold_corners import _replay
from perfbench.common import Spans
answers, seconds, _ = _replay([json.loads(sys.argv[1])], Spans(False))
print(repr(answers[0].mean), repr(answers[0].std), repr(seconds[0]))
"""


def _hash_seed_replay(body, served):
    """Recompute one corner in a fresh interpreter under another string
    hash seed (a known program defect: see ``HASH_SEED``). Returns the
    relative change of (mean, std) from the served answer and the
    characterization seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", _DRIFT, json.dumps(body)], cwd=ROOT,
        env=program_env(hash_seed="1"), capture_output=True, text=True,
        timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"hash-seed replay failed: {proc.stderr[-500:]}")
    mean, std, seconds = map(float, proc.stdout.split())
    return {"mean_rel": abs(mean / served["mean"] - 1.0),
            "std_rel": abs(std / served["std"] - 1.0)}, seconds


def run(seed: int, seconds: float, trace: bool) -> dict:
    spans = Spans(trace)
    corners = inputs.cold_corners(seed, MAX_CORNERS)
    with scratch_dir() as work:
        starts = timed_server_starts(work, SERVER_STARTS // 2, "before")
        server = Server(work, "main")
        try:
            starts.append(server.start())
            before = Scrape(server.port)
            state = {"lock": threading.Lock(), "next": 0, "results": [],
                     "end": time.perf_counter() + seconds}
            begin = time.perf_counter()
            threads = [threading.Thread(
                target=_client,
                args=(server.port, corners, state, trace, spans))
                for _ in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            after = Scrape(server.port)
            rss = server.peak_rss_mb()
            worker_mode = after.health.get("worker_mode")
        finally:
            server.stop()
        starts += timed_server_starts(work, SERVER_STARTS - len(starts),
                                      "after")

    records = [r for client in state["results"] for r in client]
    ok = [r for r in records if r["ok"]]
    failed = len(records) - len(ok)
    if not ok:
        raise BenchError("no corner completed")
    throughput = sum(
        sum(1 for r in client if r["ok"])
        / (max(r["end"] for r in client) - begin)
        for client in state["results"] if client)
    latency = summarize([(r["end"] - r["start"]) * 1e3 for r in ok])
    layers = service_layers(before, after)
    lookups = (after.value("repro_cache_requests_total",
                           tier="characterization")
               - before.value("repro_cache_requests_total",
                              tier="characterization"))
    misses = (after.value("repro_cache_requests_total",
                          tier="characterization", result="miss")
              - before.value("repro_cache_requests_total",
                             tier="characterization", result="miss"))
    miss_ratio = misses / lookups if lookups else 0.0
    problems = []
    if miss_ratio != 1.0:
        problems.append(f"characterization miss ratio {miss_ratio} != 1.0")

    # A seeded sample of two served corners is characterized again after
    # the server stopped: the first in this process (every corner when
    # traced), where the answer must equal the served one bit for bit,
    # the other in a fresh interpreter under another string hash seed,
    # where it may move only in the last bits.
    sample = [ok[i] for i in inputs.check_sample("cold_corners", seed,
                                                 len(ok), 2)]
    checked = ok if trace else sample[:1]
    bodies = [inputs.corner_request(corners[r["index"]]) for r in checked]
    answers, char_seconds, counts = _replay(bodies, spans)
    wrong = 0
    for record, answer in zip(checked, answers):
        got = record["estimate"]
        if got["mean"] != answer.mean or got["std"] != answer.std:
            wrong += 1
            problems.append(f"corner {record['index']}: served "
                            f"({got['mean']!r}, {got['std']!r}) != in-process "
                            f"({answer.mean!r}, {answer.std!r})")
    identical = len(checked) - wrong
    other = sample[-1]
    drift, fresh_seconds = _hash_seed_replay(
        inputs.corner_request(corners[other["index"]]), other["estimate"])
    if max(drift.values()) > HASH_SEED_DRIFT_RTOL:
        wrong += 1
        problems.append(f"corner {other['index']} moved by {drift} "
                        f"under another hash seed")
    e2e = {"setup_s": statistics.median(starts), "peak_rss_mb": rss,
           "throughput_per_s": throughput,
           "heavy_call_s": latency["p50"] / 1e3}
    report = {"worker_mode": worker_mode, "server_starts_s": starts,
              "corners": len(records), "latency": latency,
              "characterization_miss_ratio": miss_ratio,
              "checked_bit_identical": identical,
              "checked": len(checked), "hash_seed_drift": drift,
              "replay_characterization_s": [
                  char_seconds[checked.index(sample[0])], fresh_seconds]}
    if trace:
        hops = [(r["end"] - r["start"]) * 1e3
                - r["estimate"]["details"]["trace"]["spans"][0]["wall_s"] * 1e3
                for r in ok]
        layers.update(import_times())
        layers.update({
            "characterization.busy_s": spans.busy("characterization"),
            "characterization.states": counts["states"],
            "spice.solve_calls": counts["calls"],
            "spice.busy_s": counts["busy"],
            "rg.busy_s": spans.busy("rg"),
            "rg.builds": spans.count("rg"),
            "estimators.linear_s": spans.busy("estimators.linear"),
            "estimators.linear_calls": spans.count("estimators.linear"),
            "http.hop_ms": summarize(hops)["p50"],
            "loadgen.lateness_p99_ms": quantile(
                [r["lateness"] * 1e3 for r in records], 0.99),
        })
    named = [("corners_per_s", throughput, "1/s"),
             ("cold_latency_p50_s", latency["p50"] / 1e3, "s"),
             (f"cold_latency_{latency['tail_label']}_s",
              latency["tail"] / 1e3, "s")]
    return {"e2e": e2e, "layers": layers, "report": report, "named": named,
            "attempted": len(records) + len(checked) + 1,
            "failed": failed + wrong, "problems": problems,
            "worker_mode": worker_mode, "spans": spans}
