"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--workload all`` runs every workload untraced and then
traced, each in a fresh interpreter, and prints every metric by name
with its unit plus the tracing overhead. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.common import (  # noqa: E402
    HASH_SEED, BenchError, stamp, use_program_sources)

WORKLOADS = ("cold_corners", "warm_mix", "design_space")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def catalogue() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from
    ``BENCHMARK.json``, the one place the metrics are declared. Every
    workload reports every metric: an end-to-end metric is the same
    user-visible quantity on each workload (``perfbench/README.md``),
    and a per-layer metric is 0 on a workload that never enters that
    layer."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def _result_line(outcome: dict, trace: bool) -> dict:
    if trace:
        values = dict(outcome["layers"])
        values.update({f"traced.{name}": value
                       for name, value in outcome["e2e"].items()})
        units = catalogue()["per_layer"]
    else:
        values = outcome["e2e"]
        units = catalogue()["end_to_end"]
    chosen = {}
    for name, unit in units.items():
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite: {value}")
        chosen[name] = {"value": value, "unit": unit}
    correct = not outcome["problems"]
    return {"correct": correct, "attempted": int(outcome["attempted"]),
            "failed": int(outcome["failed"]), "metrics": chosen}


def run_one(args) -> int:
    use_program_sources()
    started = time.perf_counter()
    workload = importlib.import_module(f"perfbench.{args.workload}")
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    line = _result_line(outcome, bool(args.trace))
    info = stamp(args.workload, args.seed, outcome.get("worker_mode"))
    info["trace"] = bool(args.trace)
    info["wall_s"] = time.perf_counter() - started
    print(f"# stamp {json.dumps(info)}")
    print(f"# report {json.dumps(outcome['report'], default=str)}")
    for name, value, unit in outcome["named"]:
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    for problem in outcome["problems"]:
        print(f"# PROBLEM {problem}")
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        outcome["spans"].dump(os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json"))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    lines, status = {}, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            named = [line for line in proc.stdout.splitlines()
                     if line.startswith("# ")]
            print("\n".join(named))
            if proc.returncode != 0:
                status = 1
                print(proc.stderr[-2000:], file=sys.stderr)
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            try:
                lines[(workload, trace)] = json.loads(last[0])
            except json.JSONDecodeError:
                lines[(workload, trace)] = {}
                status = 1
    print(f"\n{'workload':14} {'metric':24} {'untraced':>12} {'traced':>12} "
          f"{'overhead':>9}  unit")
    for workload in WORKLOADS:
        plain = lines[(workload, 0)].get("metrics", {})
        traced = lines[(workload, 1)].get("metrics", {})
        for name, unit in catalogue()["end_to_end"].items():
            value = plain.get(name, {}).get("value", float("nan"))
            shadow = traced.get(f"traced.{name}", {}).get("value",
                                                          float("nan"))
            overhead = (shadow - value) / value if value else float("nan")
            print(f"{workload:14} {name:24} {value:12.6g} {shadow:12.6g} "
                  f"{overhead:+9.1%}  {unit}")
    summary = {
        "correct": all(line.get("correct") for line in lines.values()),
        "attempted": sum(line.get("attempted", 0) for line in lines.values()),
        "failed": sum(line.get("failed", 0) for line in lines.values()),
        "metrics": {f"{workload}.{'traced' if trace else 'untraced'}."
                    f"{name}": entry
                    for (workload, trace), line in lines.items()
                    for name, entry in line.get("metrics", {}).items()}}
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        argv = sys.argv[1:] if argv is None else list(argv)
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *argv], env)
    # SIGTERM unwinds like an exception, so the server is still stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
