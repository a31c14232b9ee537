"""``warm_mix``: open loop over HTTP at a ladder of Poisson rates.

Set-up characterizes two corners and builds their Random-Gate bundles
and what-if bases; the timed traffic then draws no new corner. Requests
come from a Zipf-skewed population of 1,000 estimates (about four times
the 256-entry estimate cache) from 4k to 10^7 cells under
``method="auto"``, plus what-if swaps, 16-point sweeps and fresh usage
mixes. Each request is timed from the moment it was due, so a stall
also delays the requests queued behind it. The top rung offers more
than the server can answer; its completion rate is the saturated
throughput.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import statistics
import threading
import time

from perfbench import inputs
from perfbench.common import (
    BenchError, Connection, Scrape, Server, Spans, estimator_layers,
    import_times, quantile, scratch_dir, service_layers, summarize,
    trace_stages, use_program_sources)

SENDERS = 2
#: Latency limit on each rung's p99, failures counting as misses.
LATENCY_LIMIT_S = 2.0
#: ``(rate per second, share of the run)``: light load, heavy load, past
#: saturation at the parent commit, and light load again.
#: ``REFERENCE_RATE`` is the rate of the reported median and tail,
#: pooled over its two rungs so that they sample the start and the end
#: of the run.
LADDER = ((4.0, 0.2), (12.0, 0.3), (64.0, 0.25), (4.0, 0.2))
REFERENCE_RATE = 4.0
#: The rung past saturation: two senders then run back to back, and
#: its completed requests per second are the saturated throughput.
SATURATION_RATE = 64.0
#: A rung keeps up when the backlog it leaves clears within this time.
DRAIN_LIMIT_S = 1.0
WHATIF_CHECKS = 2
REQUEST_TIMEOUT_S = 60.0


def _valid(kind, document) -> bool:
    if kind == "sweep":
        estimates = document["sweep"]["estimates"]
        return (len(estimates) == inputs.SWEEP_POINTS
                and all(_valid_estimate(e) for e in estimates))
    return _valid_estimate(document["estimate"])


def _valid_estimate(estimate) -> bool:
    return (math.isfinite(estimate["mean"]) and math.isfinite(estimate["std"])
            and estimate["mean"] > 0 and estimate["std"] > 0)


def send(port, schedule, spans):
    """Send ``schedule``, a list of ``(offset_s, kind, path, body)``, from
    ``SENDERS`` threads with one connection each; a request waits for a
    free sender past its due time. Returns the start time and the
    records in due order."""
    items = iter(schedule)
    lock = threading.Lock()
    records = []
    start = time.perf_counter()

    def sender():
        conn = Connection(port, timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    item = next(items, None)
                if item is None:
                    return
                offset, kind, path, body = item
                free = time.perf_counter()
                due = start + offset
                if due > free:
                    time.sleep(due - free)
                record = {"kind": kind, "body": body, "due": due,
                          "ok": False}
                with spans.span(f"http.{kind}"):
                    record["sent"] = time.perf_counter()
                    try:
                        status, data = conn.post(path, body)
                    except (OSError, http.client.HTTPException) as exc:
                        status, data = None, str(exc).encode()
                    record["end"] = time.perf_counter()
                record["lateness"] = record["sent"] - max(due, free)
                record["status"] = status
                if status == 200:
                    record["doc"] = json.loads(data)
                    record["ok"] = _valid(kind, record["doc"])
                else:
                    record["error"] = data[:300].decode(errors="replace")
                with lock:
                    records.append(record)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender) for _ in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, sorted(records, key=lambda r: r["due"])


def _rung_summary(rate, seconds, records, start) -> dict:
    """A rung meets the limit when its p99 latency, failures counting as
    misses, is within ``LATENCY_LIMIT_S`` and the backlog it leaves
    clears within ``DRAIN_LIMIT_S``."""
    latencies = [(r["end"] - r["due"]) if r["ok"] else math.inf
                 for r in records]
    misses = sum(1 for value in latencies if value > LATENCY_LIMIT_S)
    drain = max(r["end"] for r in records) - (start + seconds)
    by_kind = {}
    for record, latency in zip(records, latencies):
        by_kind.setdefault(record["kind"], []).append(latency * 1e3)
    failed = sum(1 for r in records if not r["ok"])
    return {"rate": rate, "sent": len(records),
            "succeeded": len(records) - failed, "failed": failed,
            "limit_misses": misses, "drain_s": drain,
            "meets_limit": misses <= 0.01 * len(records)
            and drain <= DRAIN_LIMIT_S,
            "latency_ms": summarize([v * 1e3 for v in latencies
                                     if math.isfinite(v)] or [math.inf]),
            "p50_ms_by_kind": {kind: summarize(values)["p50"]
                               for kind, values in by_kind.items()}}


def _check_whatifs(conn, seed, mix, base_keys, records, problems) -> int:
    """Sampled what-ifs against a fresh full estimate of the edited
    scenario, within the delta engine's tolerances."""
    from repro.core import CellUsage
    from repro.delta import DELTA_MEAN_RTOL, DELTA_STD_RTOL
    from repro.delta.edits import edit_from_dict

    whatifs = [r for r in records if r["kind"] == "whatif" and r["ok"]]
    checked = [whatifs[i] for i in inputs.check_sample(
        "warm_mix", seed, len(whatifs), WHATIF_CHECKS)]
    for record in checked:
        base = mix.bases[base_keys.index(record["body"]["base"])]
        fractions = dict(CellUsage.uniform(mix.names).items())
        for edit in record["body"]["edits"]:
            edit_from_dict(edit).apply(fractions, base["n_cells"])
        status, data = conn.post("/v1/estimate", dict(base, usage=fractions))
        got = record["doc"]["estimate"]
        want = json.loads(data)["estimate"] if status == 200 else None
        if (want is None
                or not math.isclose(got["mean"], want["mean"],
                                    rel_tol=DELTA_MEAN_RTOL)
                or not math.isclose(got["std"], want["std"],
                                    rel_tol=DELTA_STD_RTOL)):
            problems.append(f"what-if {record['body']} = {got} "
                            f"vs fresh {want}")
    return len(checked)


def _heavy_call(port, body, problems) -> float:
    """The costliest request class, alone on the quiet server between
    two rungs: a fresh full-library usage mix, building a new RG bundle."""
    with contextlib.closing(Connection(port, REQUEST_TIMEOUT_S)) as conn:
        start = time.perf_counter()
        status, data = conn.post("/v1/estimate", body)
        seconds = time.perf_counter() - start
    if status != 200 or not _valid("fresh", json.loads(data)):
        problems.append(f"fresh-mix probe answered {status}: "
                        f"{data[:200]!r}")
    return seconds


def plan(seed: int, seconds: float, trace: bool):
    """The run's inputs: the request mix, the content keys of the
    what-if bases, the ladder as ``(rate, seconds)``, one schedule per
    rung, and the content keys of every request that fills the estimate
    tier (pre-warm, probes, population, fresh mixes and sweep points)."""
    from repro.cells import build_library
    from repro.service import EstimateRequest
    from repro.service.sweep import SweepRequest

    mix = inputs.WarmMix(seed, build_library().names)
    base_keys = [EstimateRequest.from_dict(b).key() for b in mix.bases]
    estimate_keys = set(base_keys)
    estimate_keys.update(EstimateRequest.from_dict(b).key()
                         for b in mix.heavy_probes)
    ladder = [(rate, share * seconds) for rate, share in LADDER]
    schedules = []
    for rung in inputs.arrivals(seed, ladder):
        schedule = []
        for offset in rung:
            kind, path, body = mix.next_request()
            if kind == "whatif":
                body = {"base": base_keys[path], "edits": [body]}
                path = "/v1/estimate"
            elif kind == "sweep":
                estimate_keys.update(point.key() for point in
                                     SweepRequest.from_dict(body).expand())
            else:
                estimate_keys.add(EstimateRequest.from_dict(body).key())
            if trace:
                target = body["base"] if kind == "sweep" else body
                target["trace"] = True
            schedule.append((offset, kind, path, body))
        schedules.append(schedule)
    return mix, base_keys, ladder, schedules, estimate_keys


def _prewarm(server, mix, base_keys, spans) -> float:
    """Characterize both corners with their RG bundles (the base
    requests) and build both what-if bases; returns the seconds taken."""
    start = time.perf_counter()
    _, warm = send(server.port, [(0.0, "base", "/v1/estimate", body)
                                 for body in mix.bases], spans)
    _, more = send(server.port, [
        (0.0, "whatif", "/v1/estimate", {"base": key, "edits": [edit]})
        for key, edit in zip(base_keys, mix.prewarm_edits)], spans)
    seconds = time.perf_counter() - start
    if not all(r["ok"] for r in warm + more):
        raise BenchError(f"pre-warm failed: {warm + more}")
    return seconds


def run(seed: int, seconds: float, trace: bool) -> dict:
    spans = Spans(trace)
    use_program_sources()
    mix, base_keys, ladder, schedules, estimate_keys = plan(seed, seconds,
                                                            trace)

    problems = []
    with scratch_dir() as work:
        server = Server(work, "main")
        try:
            server.start()
            scrapes = [Scrape(server.port)]
            prewarm_s = _prewarm(server, mix, base_keys, spans)
            scrapes.append(Scrape(server.port))
            rungs, rung_starts, heavy = [], [], []
            # One fresh-mix probe after each rung.
            for (rate, rung_s), schedule, probe in zip(ladder, schedules,
                                                       mix.heavy_probes):
                start, records = send(server.port, schedule, spans)
                rung_starts.append(start)
                scrapes.append(Scrape(server.port))
                rungs.append((_rung_summary(rate, rung_s, records, start),
                              records))
                heavy.append(_heavy_call(server.port, probe, problems))
            records = [r for _, rung in rungs for r in rung]
            with contextlib.closing(Connection(
                    server.port, timeout=REQUEST_TIMEOUT_S)) as conn:
                checked = _check_whatifs(conn, seed, mix, base_keys, records,
                                         problems)
            rss = server.peak_rss_mb()
            worker_mode = scrapes[-1].health.get("worker_mode")
        finally:
            server.stop()

    # Repeats of one content key must answer bit-identically.
    answers, repeats, wrong = {}, 0, len(problems)
    for record in records:
        if not record["ok"] or record["kind"] == "sweep":
            continue
        body = {k: v for k, v in record["body"].items() if k != "trace"}
        key = json.dumps(body, sort_keys=True)
        got = (record["doc"]["estimate"]["mean"],
               record["doc"]["estimate"]["std"])
        if key in answers:
            repeats += 1
            if answers[key] != got:
                wrong += 1
                problems.append(f"repeat of {key[:80]} answered {got} "
                                f"after {answers[key]}")
        else:
            answers[key] = got

    summaries = [summary for summary, _ in rungs]
    passing = [rate for rate in {s["rate"] for s in summaries}
               if all(s["meets_limit"] for s in summaries
                      if s["rate"] == rate)]
    if not passing:
        problems.append("no ladder rate met the latency limit")
    for summary in summaries:
        if summary["rate"] < max(passing or [0.0]) and summary["failed"]:
            problems.append(f"{summary['failed']} failures at "
                            f"{summary['rate']}/s, below the max rate")
    reference = summarize(
        [(r["end"] - r["due"]) * 1e3 for summary, rung in rungs
         if summary["rate"] == REFERENCE_RATE for r in rung if r["ok"]])
    (saturated, start), = [(rung, start) for (summary, rung), start
                           in zip(rungs, rung_starts)
                           if summary["rate"] == SATURATION_RATE]
    saturated_rps = (sum(1 for r in saturated if r["ok"])
                     / (max(r["end"] for r in saturated) - start))
    layers = service_layers(scrapes[1], scrapes[-1])
    # The workload's defining property: more distinct estimate keys than
    # the estimate tier holds, so it evicts.
    if layers["service.cache_evictions"] <= 0:
        problems.append(f"the estimate tier never evicted "
                        f"({len(estimate_keys)} distinct keys)")
    kinds = [r["kind"] for r in records]
    report = {
        "worker_mode": worker_mode, "server_start_s": server.ready_s,
        "prewarm_s": prewarm_s, "latency_limit_s": LATENCY_LIMIT_S,
        "rungs": summaries,
        "estimate_hit_ratio": layers["service.cache_hit_ratio.estimate"],
        "evictions": layers["service.cache_evictions"],
        "distinct_estimate_keys": len(estimate_keys),
        "shares": {kind: kinds.count(kind) / len(kinds)
                   for kind, _ in inputs.MIX},
        "repeats_checked": repeats, "whatifs_checked": checked,
        "fresh_mix_probe_s": heavy}
    e2e = {"setup_s": server.ready_s + prewarm_s,
           "peak_rss_mb": rss, "throughput_per_s": saturated_rps,
           "heavy_call_s": statistics.median(heavy)}
    if trace:
        layers.update(_traced_layers(records))
        layers.update(import_times())
    named = [("warm_p50_ms", reference["p50"], "ms"),
             (f"warm_{reference['tail_label']}_ms", reference["tail"], "ms"),
             ("warm_max_rps", max(passing or [0.0]), "1/s"),
             ("warm_saturated_rps", saturated_rps, "1/s")]
    failed = sum(s["failed"] for s in summaries) + wrong
    return {"e2e": e2e, "layers": layers, "report": report, "named": named,
            "attempted": len(records) + checked + len(heavy),
            "failed": failed,
            "problems": problems, "worker_mode": worker_mode, "spans": spans}


def _traced_layers(records) -> dict:
    """Layer busy times from the program's own request traces."""
    totals, hops, lateness = {}, [], []
    for record in records:
        lateness.append(record["lateness"] * 1e3)
        if not record["ok"]:
            continue
        if record["kind"] == "sweep":
            document = record["doc"]["sweep"]["stats"].get("trace")
        else:
            document = record["doc"]["estimate"]["details"].get("trace")
        if not document:
            continue
        trace_stages(document, totals)
        hops.append((record["end"] - record["sent"]
                     - document["spans"][0]["wall_s"]) * 1e3)

    def wall(name):
        return totals.get(name, [0.0, 0])[0]

    def calls(name):
        return totals.get(name, [0.0, 0])[1]

    layers = estimator_layers(totals)
    layers.update({
        "characterization.busy_s": wall("characterize"),
        "rg.busy_s": wall("api.rg_build"), "rg.builds": calls("api.rg_build"),
        "sweep.points": calls("sweep.point"),
        "delta.edit_s": wall("service.whatif") - wall("delta.base_estimate"),
        "delta.edits": calls("service.whatif"),
        "delta.base_build_s": wall("delta.base_estimate"),
        "delta.fallbacks": sum(
            1 for r in records if r["ok"] and r["kind"] == "whatif"
            and r["doc"]["estimate"]["details"].get("delta", {})
            .get("fallback")),
        "http.hop_ms": summarize(hops)["p50"] if hops else 0.0,
        "loadgen.lateness_p99_ms": quantile(lateness, 0.99),
    })
    return layers
