"""Shared plumbing for the workloads: statistics, spans, the server
process, the HTTP connection, metric scrapes and the result stamp.

Nothing here imports ``repro``: the load generator of the serving
workloads stays light, and the in-process workload times its own import.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Run-time scratch space inside the checkout (ignored by git).
WORK_ROOT = os.path.join(ROOT, ".perfbench-tmp")



class BenchError(RuntimeError):
    """The run cannot produce a valid result."""


#: String hash seed of every interpreter the benchmark runs. The DC
#: solver sums supply currents in set order (``repro/spice/solver.py``),
#: so answers differ in the last bits between hash seeds; the bit-for-bit
#: checks compare processes under this one seed, and the traced
#: ``cold_corners`` run measures the drift under another.
HASH_SEED = "0"
#: Largest relative change of (mean, std) allowed when the same answer
#: is recomputed under another string hash seed.
HASH_SEED_DRIFT_RTOL = 1e-12


def program_env(hash_seed: str = HASH_SEED) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = hash_seed
    env.pop("REPRO_FAULTS", None)  # the benchmark never injects faults
    return env


def use_program_sources() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program sources at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


@contextlib.contextmanager
def scratch_dir():
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only when no other run uses it


# -- statistics -------------------------------------------------------------

def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(count: int):
    """The highest quantile with at least ten samples beyond it (at most
    p99.9), or ``None`` below 20 samples, where the tail is the maximum."""
    if count < 20:
        return None
    return min(0.999, 1.0 - 10.0 / count)


def summarize(values) -> dict:
    """Median, tail (highest supported percentile) and sample count."""
    values = list(values)
    if not values:
        raise BenchError("no samples to summarize")
    q = tail_quantile(len(values))
    return {"n": len(values), "p50": quantile(values, 0.5),
            "tail": max(values) if q is None else quantile(values, q),
            "tail_label": "max" if q is None else f"p{q * 100:.3g}"}


# -- spans ------------------------------------------------------------------

class Spans:
    """In-memory span recorder for the benchmark's own layer boundaries.

    Each span keeps its name, start, end and the index of the span that
    was open on the same thread when it began. Disabled, ``span`` only
    yields.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        stack = getattr(self._stack, "open", None)
        if stack is None:
            stack = self._stack.open = []
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": stack[-1] if stack else None, "attrs": attrs}
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def busy(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name and r["end"] is not None)

    def count(self, name: str) -> int:
        return sum(1 for r in self.records if r["name"] == name)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.records, handle)


class CallCounter:
    """Counts and times calls of a module-level function (traced runs)."""

    def __init__(self, module, name: str, enabled: bool) -> None:
        self.module, self.name = module, name
        self.calls, self.busy = 0, 0.0
        self.original = getattr(module, name)
        if enabled:
            setattr(module, name, self._wrapped)

    def _wrapped(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self.original(*args, **kwargs)
        finally:
            self.calls += 1
            self.busy += time.perf_counter() - start

    def restore(self) -> None:
        setattr(self.module, self.name, self.original)


def trace_stages(document, totals: dict) -> None:
    """Fold a program trace document (``details["trace"]``) into
    ``totals``: summed wall time and call count per span name, plus one
    ``estimators.<method>`` entry per variance evaluation (the
    ``api.variance`` span, or a sweep point's ``linear.reduce``)."""
    def add(name, wall):
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += wall
        entry[1] += 1

    def walk(spans, in_variance):
        for node in spans:
            name, wall = node["name"], float(node.get("wall_s") or 0.0)
            add(name, wall)
            if name == "api.variance":
                add(f"estimators.{node.get('attrs', {}).get('method')}", wall)
            elif name == "linear.reduce" and not in_variance:
                add("estimators.linear", wall)
            walk(node.get("children", ()),
                 in_variance or name == "api.variance")
    walk(document.get("spans", ()), False)


def estimator_layers(totals: dict) -> dict:
    layers = {}
    for method in ("linear", "integral2d", "exact"):
        wall, calls = totals.get(f"estimators.{method}", (0.0, 0))
        layers[f"estimators.{method}_s"] = wall
        layers[f"estimators.{method}_calls"] = calls
    return layers


# -- result stamp -----------------------------------------------------------

def _git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def source_digest() -> str:
    """SHA-256 over ``src/`` (paths and bytes): identifies the revision
    also in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def stamp(workload: str, seed: int, worker_mode=None) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None
    return {"workload": workload, "seed": seed,
            "git_rev": _git_revision(), "src_sha256": source_digest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "worker_mode": worker_mode}


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the server process -----------------------------------------------------

_LISTENING = re.compile(r"listening on http://[0-9.]+:([0-9]+)")


def _children(pid: int):
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(p) for p in handle.read().split()]
    except OSError:
        return []


def _descendants(pid: int):
    found, frontier = [], [pid]
    while frontier:
        kids = _children(frontier.pop())
        found.extend(kids)
        frontier.extend(kids)
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """``python -m repro serve`` on an OS-assigned port with two workers
    and a fresh cache directory, started in its own session so that no
    process it leaves behind can hide."""

    def __init__(self, workdir: str, name: str) -> None:
        self.dir = os.path.join(workdir, name)
        os.makedirs(self.dir)
        self.proc = None
        self.port = None
        self.known = set()
        self.ready_s = None

    def start(self, timeout: float = 120.0) -> float:
        """Start and wait for ``/v1/readyz``; returns the seconds it took."""
        log = open(os.path.join(self.dir, "server.log"), "wb")
        begin = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--cache-dir", os.path.join(self.dir, "cache")],
            cwd=ROOT, env=program_env(), stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True)
        log.close()
        deadline = begin + timeout
        while self.port is None:
            self._check_running(deadline)
            with open(os.path.join(self.dir, "server.log"), "rb") as handle:
                text = handle.read().decode(errors="replace")
            match = _LISTENING.search(text)
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.01)
        probe = Connection(self.port, timeout=5.0)
        try:
            while True:
                self._check_running(deadline)
                with contextlib.suppress(OSError, http.client.HTTPException):
                    if probe.get("/v1/readyz")[0] == 200:
                        break
                time.sleep(0.01)
        finally:
            probe.close()
        self.ready_s = time.perf_counter() - begin
        self.note_processes()
        return self.ready_s

    def _check_running(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise BenchError(f"server exited with {self.proc.returncode}: "
                             f"{self.log_tail()}")
        if time.perf_counter() > deadline:
            raise BenchError("server did not become ready")

    def log_tail(self) -> str:
        with open(os.path.join(self.dir, "server.log"), "rb") as handle:
            return handle.read()[-2000:].decode(errors="replace")

    def note_processes(self) -> None:
        """Remember every process of the server's tree seen so far."""
        if self.proc is not None:
            self.known.update(_descendants(self.proc.pid))

    def peak_rss_mb(self) -> float:
        self.note_processes()
        return sum(_hwm_mb(pid) for pid in [self.proc.pid, *self.known]
                   if _alive(pid))

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM (graceful drain), then fail loudly if the server or
        any of its processes outlives it."""
        if self.proc is None:
            return
        self.note_processes()
        pgid = self.proc.pid
        with contextlib.suppress(ProcessLookupError):
            self.proc.send_signal(signal.SIGTERM)
        killed = False
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            killed = True
        end = time.monotonic() + 10.0
        leftovers = [pid for pid in self.known if _alive(pid)]
        while leftovers and time.monotonic() < end:
            time.sleep(0.05)
            leftovers = [pid for pid in self.known if _alive(pid)]
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(pgid, 0)
            leftovers.append(pgid)  # some process still holds the group
        for pid in leftovers:
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(pgid, signal.SIGKILL)
        self.proc = None
        if killed:
            raise BenchError("server ignored SIGTERM and was killed")
        if leftovers:
            raise BenchError(f"processes outlived the server: {leftovers}")


@contextlib.contextmanager
def running_server(workdir: str, name: str):
    server = Server(workdir, name)
    try:
        server.start()
        yield server
    finally:
        server.stop()


def timed_server_starts(workdir: str, count: int, label: str) -> list:
    """Start-to-ready seconds of ``count`` throw-away servers."""
    times = []
    for index in range(count):
        with running_server(workdir, f"probe-{label}-{index}") as server:
            times.append(server.ready_s)
    return times


class Connection:
    """One persistent HTTP/1.1 connection to the server."""

    def __init__(self, port: int, timeout: float) -> None:
        self.port = port
        self.timeout = timeout
        self._conn = None

    def _request(self, method: str, path: str, body=None):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout)
        headers = {}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return response.status, data

    def get(self, path: str):
        return self._request("GET", path)

    def post(self, path: str, body):
        return self._request("POST", path, body)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# -- metric scrapes --------------------------------------------------------

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict:
    samples = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if not match or line.startswith("#"):
            continue
        labels = tuple(sorted(_LABEL.findall(match.group(2) or "")))
        samples[(match.group(1), labels)] = float(match.group(3))
    return samples


class Scrape:
    """``/v1/metrics`` and ``/v1/healthz`` at one instant."""

    def __init__(self, port: int) -> None:
        conn = Connection(port, timeout=30.0)
        try:
            status, body = conn.get("/v1/metrics")
            if status != 200:
                raise BenchError(f"/v1/metrics answered {status}")
            self.samples = parse_prometheus(body.decode())
            status, body = conn.get("/v1/healthz")
            if status != 200:
                raise BenchError(f"/v1/healthz answered {status}")
            self.health = json.loads(body)
        finally:
            conn.close()

    def value(self, name: str, **labels) -> float:
        """Sum of the samples of ``name`` that carry all ``labels``."""
        wanted = set(labels.items())
        return sum(value for (metric, have), value in self.samples.items()
                   if metric == name and wanted <= set(have))

    def evictions(self) -> int:
        return sum(tier["evictions"]
                   for tier in self.health["details"]["cache"].values())


def service_layers(before: Scrape, after: Scrape) -> dict:
    """Per-layer service metrics over the interval between two scrapes."""
    def delta(name, **labels):
        return after.value(name, **labels) - before.value(name, **labels)

    layers = {}
    for tier in ("estimate", "characterization", "rg"):
        hits = (delta("repro_cache_requests_total", tier=tier, result="hit")
                + delta("repro_cache_requests_total", tier=tier,
                        result="disk_hit"))
        lookups = delta("repro_cache_requests_total", tier=tier)
        layers[f"service.cache_hit_ratio.{tier}"] = (
            hits / lookups if lookups else 0.0)
    layers["service.cache_evictions"] = after.evictions() - before.evictions()
    layers["service.queue_wait_s"] = delta("repro_stage_seconds_sum",
                                           stage="queue_wait")
    for stage in ("cache_lookup", "characterize", "rg", "estimate",
                  "serialize"):
        layers[f"service.stage_s.{stage}"] = delta("repro_stage_seconds_sum",
                                                   stage=stage)
    layers["service.coalesced"] = delta("repro_coalesced_requests_total")
    layers["service.worker_restarts"] = delta("repro_worker_restarts_total")
    layers["service.http_errors"] = delta("repro_http_errors_total")
    return layers


def import_times() -> dict:
    """``import repro`` and then ``import repro.service`` in a fresh
    interpreter."""
    code = ("import time;t0=time.perf_counter();import repro;"
            "t1=time.perf_counter();import repro.service;"
            "t2=time.perf_counter();print(t1-t0,t2-t1)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=program_env(), capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr[-500:]}")
    repro_s, service_s = map(float, proc.stdout.split())
    return {"import.repro_s": repro_s, "import.service_s": service_s}
