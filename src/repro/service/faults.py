"""Deterministic, seedable fault injection for the estimation service.

The reliability layer (worker supervision, retries, cache quarantine,
graceful degradation) is driven by faults injected at five well-defined
sites:

``worker.crash``
    A scheduler worker thread dies between dequeuing a job and running
    it — the supervision path must requeue the job and restart a
    replacement worker.
``compute.hang``
    The pipeline's estimate stage stalls for ``hang_seconds`` — jobs
    with deadlines must still terminate (cooperative deadline check
    after the stall, or supervisor abandonment for a genuine hang).
``cache.read``
    Bytes read back from a persistent cache entry are corrupted — the
    checksum must catch it and quarantine-and-recompute.
``cache.write``
    A persistent cache entry is torn mid-write — the next read must
    treat it as corrupt, never as data.
``http.disconnect``
    The HTTP server drops the connection after computing a response —
    the remote client must retry (safe: requests are content-hashed
    and idempotent).

Process-level deployments add three more sites:

``worker.kill``
    A process worker hard-exits (``os._exit``) mid-task — the
    heartbeat supervisor must requeue the task and restart the worker.
``worker.stall``
    A process worker stops heartbeating and blocks (as a GIL-held hang
    would) — the supervisor must kill and replace it.
``shard.lock_timeout``
    A cache shard-lock acquisition times out — reads degrade to a
    miss and writes are skipped; results must still be computed.

Injection is **off by default and free when off**: components hold
``faults=None`` and guard every site with a single ``is None`` check,
so the fault-free hot path pays one pointer comparison per injection
point at most. When on, each site draws from its own
``random.Random(f"{seed}:{site}")`` stream, so a fixed seed reproduces
the same fire/no-fire sequence per site regardless of which other
sites are configured.

Configuration is programmatic (tests build a :class:`FaultInjector`
directly) or environmental (``repro serve`` honors ``REPRO_FAULTS``,
``REPRO_FAULTS_SEED``, and ``REPRO_FAULTS_HANG_S`` via
:func:`injector_from_env`). The spec grammar is
``site:probability[:max_fires]`` joined by commas, e.g.::

    REPRO_FAULTS="worker.crash:0.2:3,cache.read:1.0:1,http.disconnect:0.5"
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Union

from repro.exceptions import ConfigurationError

SITE_WORKER_CRASH = "worker.crash"
SITE_COMPUTE_HANG = "compute.hang"
SITE_CACHE_READ = "cache.read"
SITE_CACHE_WRITE = "cache.write"
SITE_HTTP_DISCONNECT = "http.disconnect"
SITE_WORKER_KILL = "worker.kill"
SITE_WORKER_STALL = "worker.stall"
SITE_SHARD_LOCK_TIMEOUT = "shard.lock_timeout"

SITES = (
    SITE_WORKER_CRASH,
    SITE_COMPUTE_HANG,
    SITE_CACHE_READ,
    SITE_CACHE_WRITE,
    SITE_HTTP_DISCONNECT,
    SITE_WORKER_KILL,
    SITE_WORKER_STALL,
    SITE_SHARD_LOCK_TIMEOUT,
)

#: Environment knobs read by :func:`injector_from_env`.
ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"
ENV_HANG_SECONDS = "REPRO_FAULTS_HANG_S"


class InjectedFault(RuntimeError):
    """A deliberately injected failure (never raised in production).

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: chaos
    tests must see injected faults surface through the same generic
    isolation boundaries that real defects (``KeyError``, segfault-like
    thread death) would hit, not through the library's typed-error
    paths.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at {site!r}")
        self.site = site


@dataclass(frozen=True)
class FaultRule:
    """One site's firing policy.

    ``probability`` is the per-draw fire chance in [0, 1];
    ``max_fires`` caps the total number of fires (``None`` = unlimited)
    so a chaos run can, e.g., crash exactly two workers and then let
    the system heal.
    """

    probability: float
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], "
                f"got {self.probability!r}")
        if self.max_fires is not None and self.max_fires < 0:
            raise ConfigurationError(
                f"max_fires must be >= 0, got {self.max_fires!r}")


def parse_spec(spec: str) -> Dict[str, FaultRule]:
    """Parse a ``site:prob[:max]`` comma-separated spec string."""
    rules: Dict[str, FaultRule] = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (2, 3):
            raise ConfigurationError(
                f"bad fault spec {chunk!r}; expected site:prob[:max_fires]")
        site = parts[0].strip()
        if site not in SITES:
            raise ConfigurationError(
                f"unknown fault site {site!r}; one of {SITES}")
        try:
            probability = float(parts[1])
            max_fires = int(parts[2]) if len(parts) == 3 else None
        except ValueError as exc:
            raise ConfigurationError(f"bad fault spec {chunk!r}: {exc}")
        rules[site] = FaultRule(probability, max_fires)
    return rules


class _SiteState:
    """Per-site RNG stream and accounting (own lock: sites independent)."""

    __slots__ = ("rule", "rng", "lock", "draws", "fires")

    def __init__(self, rule: FaultRule, seed: int, site: str) -> None:
        self.rule = rule
        self.rng = random.Random(f"{seed}:{site}")
        self.lock = threading.Lock()
        self.draws = 0
        self.fires = 0


class FaultInjector:
    """Deterministic fault source shared across service components.

    Parameters
    ----------
    rules:
        ``site -> probability`` (floats), ``site -> FaultRule``, or a
        spec string (see :func:`parse_spec`). Sites not named never
        fire.
    seed:
        Seeds every site's independent RNG stream.
    hang_seconds:
        Stall duration for :meth:`hang` at ``compute.hang``.
    metrics:
        Optional :class:`~repro.service.metrics.MetricsRegistry`; fires
        land in ``repro_faults_injected_total{site=...}``.
    """

    def __init__(self,
                 rules: Union[str, Mapping[str, Union[float, FaultRule]]],
                 seed: int = 0,
                 hang_seconds: float = 0.5,
                 metrics=None) -> None:
        if isinstance(rules, str):
            rules = parse_spec(rules)
        self.seed = int(seed)
        self.hang_seconds = float(hang_seconds)
        self._sites: Dict[str, _SiteState] = {}
        for site, rule in rules.items():
            if site not in SITES:
                raise ConfigurationError(
                    f"unknown fault site {site!r}; one of {SITES}")
            if not isinstance(rule, FaultRule):
                rule = FaultRule(float(rule))
            self._sites[site] = _SiteState(rule, self.seed, site)
        self.metrics = None
        self._injected_total = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, metrics) -> None:
        """Attach (or re-attach) a metrics registry for fire counters.

        Lets ``ServiceClient`` adopt an injector built before its
        registry existed (e.g. from :func:`injector_from_env`).
        """
        self.metrics = metrics
        self._injected_total = metrics.counter(
            "repro_faults_injected_total",
            "Faults deliberately injected, by site.",
            labelnames=("site",))

    # -- firing decisions -------------------------------------------------

    def enabled(self, site: str) -> bool:
        return site in self._sites

    def should_fire(self, site: str) -> bool:
        """Draw the site's next fire/no-fire decision (thread-safe)."""
        state = self._sites.get(site)
        if state is None:
            return False
        with state.lock:
            state.draws += 1
            rule = state.rule
            if rule.max_fires is not None and state.fires >= rule.max_fires:
                return False
            if rule.probability <= 0.0:
                return False
            fired = (rule.probability >= 1.0
                     or state.rng.random() < rule.probability)
            if fired:
                state.fires += 1
        if fired and self._injected_total is not None:
            self._injected_total.inc(site=site)
        return fired

    # -- site-shaped helpers ----------------------------------------------

    def crash(self, site: str) -> None:
        """Raise :class:`InjectedFault` when the site fires."""
        if self.should_fire(site):
            raise InjectedFault(site)

    def hang(self, site: str) -> None:
        """Stall for ``hang_seconds`` when the site fires."""
        if self.should_fire(site):
            time.sleep(self.hang_seconds)

    def corrupt(self, site: str, raw: bytes) -> bytes:
        """Return ``raw`` torn-and-garbled when the site fires.

        The corruption (truncate to half, append non-JSON garbage) is
        deterministic, so a seeded run corrupts identically every time.
        """
        if not self.should_fire(site):
            return raw
        return raw[: len(raw) // 2] + b"\x00<torn>"

    def rules(self) -> Dict[str, FaultRule]:
        """The configured per-site rules.

        :class:`FaultRule` is a frozen picklable dataclass while the
        injector itself is not (per-site locks), so this is how a
        parent process ships a site subset to its worker processes.
        """
        return {site: state.rule for site, state in self._sites.items()}

    # -- accounting -------------------------------------------------------

    def fires(self, site: str) -> int:
        state = self._sites.get(site)
        if state is None:
            return 0
        with state.lock:
            return state.fires

    def draws(self, site: str) -> int:
        state = self._sites.get(site)
        if state is None:
            return 0
        with state.lock:
            return state.draws

    def report(self) -> Dict[str, Dict[str, int]]:
        """Per-site draw/fire counts (for chaos-test diagnostics)."""
        return {site: {"draws": self.draws(site), "fires": self.fires(site)}
                for site in self._sites}

    def __repr__(self) -> str:
        sites = ",".join(sorted(self._sites))
        return f"FaultInjector(seed={self.seed}, sites=[{sites}])"


def injector_from_env(environ: Optional[Mapping[str, str]] = None,
                      metrics: Any = None) -> Optional[FaultInjector]:
    """Build an injector from ``REPRO_FAULTS*`` env vars; None when unset."""
    environ = os.environ if environ is None else environ
    spec = environ.get(ENV_SPEC, "").strip()
    if not spec:
        return None
    seed = int(environ.get(ENV_SEED, "0"))
    hang_seconds = float(environ.get(ENV_HANG_SECONDS, "0.5"))
    return FaultInjector(spec, seed=seed, hang_seconds=hang_seconds,
                         metrics=metrics)
