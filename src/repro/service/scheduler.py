"""Worker-pool scheduler: priority queue, coalescing, backpressure,
supervision.

Jobs are drained by a :class:`repro.parallel.ThreadWorkerPool` — threads
rather than processes, because the estimator kernels are numpy-bound
(GIL-releasing).

Serving behaviors that live here:

* **request coalescing** — submissions whose content hash matches an
  in-flight (queued or running) job attach to that job instead of
  enqueueing a duplicate: N identical concurrent requests perform the
  computation once and share the result.
* **bounded-queue backpressure** — the queue holds at most
  ``queue_limit`` jobs; past that, :meth:`submit` fails fast with
  :class:`~repro.service.jobs.QueueFullError` so callers can shed load
  or retry, instead of stacking unbounded memory.
* **deadlines and cancellation** — a per-job timeout (submit argument
  or scheduler default) sets a monotonic deadline checked when the job
  is dequeued and again between pipeline stages; exceeding it fails the
  job with the typed :class:`~repro.service.jobs.DeadlineExceeded`.
  :meth:`cancel` flags a job cooperatively. Waiting with
  :meth:`wait(timeout=...)` is independent: it bounds the caller's
  patience without killing the job (coalesced waiters may still want
  the result).
* **worker supervision** — a crashed worker (its loop died on an
  exception, e.g. an injected ``worker.crash`` fault) requeues the job
  it held (up to ``max_requeues`` times) and is replaced by a fresh
  thread; a *hung* worker — one still computing past its job's deadline
  plus ``hang_grace`` — is abandoned: the job fails with
  ``DeadlineExceeded`` so no waiter blocks forever, a replacement
  worker restores capacity, and the stuck thread's eventual late result
  is dropped by the job's idempotent ``finish``.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.api import LeakageEstimate
from repro.parallel import ThreadWorkerPool
from repro.service.faults import SITE_WORKER_CRASH, FaultInjector
from repro.service.jobs import (
    DeadlineExceeded,
    EstimateRequest,
    Job,
    JobCancelledError,
    JobFailedError,
    JobState,
    JobTimeoutError,
    QueueFullError,
)


class EstimationScheduler:
    """Bounded priority scheduler over a supervised thread worker pool.

    Parameters
    ----------
    compute:
        ``compute(request, job) -> LeakageEstimate`` — typically an
        :class:`~repro.service.pipeline.EstimationPipeline`. Must be
        thread-safe.
    workers:
        Worker-thread count (``-1`` for one per CPU).
    queue_limit:
        Maximum number of *queued* (not yet running) jobs.
    default_timeout:
        Default per-job deadline in seconds; ``None`` means no deadline.
    metrics:
        Optional registry for queue-depth gauge and job counters.
    job_history:
        How many finished jobs stay resolvable by id for status polls.
    max_requeues:
        How many times a job survives its worker crashing before it is
        failed for good (requeues bypass the queue limit — the job
        already held a slot).
    hang_grace:
        Seconds past a job's deadline before the supervisor declares
        its worker hung and abandons it. Generous by default:
        abandonment is a last resort, and a worker that lapsed its
        deadline cooperatively still needs time to finish the degraded
        RG fallback or unwind cleanly.
    supervise_interval:
        Supervisor sweep period in seconds.
    faults:
        Optional :class:`~repro.service.faults.FaultInjector`; the
        ``worker.crash`` site fires between dequeue and compute.
    live_workers:
        Optional count of live compute slots, for when ``compute``
        hands work to another pool (process mode). Health, readiness,
        and the ``repro_workers_alive`` gauge read it; the default
        counts the scheduler's own worker threads.
    """

    def __init__(self, compute: Callable[[EstimateRequest, Job],
                                         LeakageEstimate],
                 workers: int = 2, queue_limit: int = 64,
                 default_timeout: Optional[float] = None,
                 metrics=None, job_history: int = 1024,
                 max_requeues: int = 2,
                 hang_grace: float = 1.0,
                 supervise_interval: float = 0.05,
                 faults: Optional[FaultInjector] = None,
                 live_workers: Optional[Callable[[], int]] = None) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit!r}")
        self._compute = compute
        self.queue_limit = int(queue_limit)
        self.default_timeout = default_timeout
        self.max_requeues = int(max_requeues)
        self.hang_grace = float(hang_grace)
        self._faults = faults
        self._live_workers = live_workers
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._heap: List[Tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._inflight: Dict[str, Job] = {}
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._job_history = int(job_history)
        self._closed = False
        #: thread ident -> the job that worker is currently computing.
        self._active: Dict[int, Job] = {}
        #: idents the supervisor gave up on; their loops exit on return.
        self._abandoned: Set[int] = set()

        self._queue_depth = None
        self._jobs_total = None
        self._coalesced_total = None
        self._requeued_total = None
        self._restarts_total = None
        self._hung_total = None
        if metrics is not None:
            self._queue_depth = metrics.gauge(
                "repro_queue_depth", "Jobs queued, not yet running.")
            self._jobs_total = metrics.counter(
                "repro_jobs_total", "Jobs finished, by terminal state.",
                labelnames=("state",))
            self._coalesced_total = metrics.counter(
                "repro_coalesced_requests_total",
                "Submissions absorbed by an identical in-flight job.")
            self._workers_gauge = metrics.gauge(
                "repro_workers_alive",
                "Live compute slots (worker threads or processes).")
            self._requeued_total = metrics.counter(
                "repro_requeued_jobs_total",
                "Jobs requeued after their worker crashed.")
            self._restarts_total = metrics.counter(
                "repro_worker_restarts_total",
                "Replacement worker threads started by supervision.")
            self._hung_total = metrics.counter(
                "repro_hung_workers_total",
                "Workers abandoned for computing past a job deadline.")
        else:
            self._workers_gauge = None

        self._pool = ThreadWorkerPool(self._worker_loop, n_workers=workers,
                                      name="repro-estimator", restart=True,
                                      on_crash=self._on_worker_crash)
        self._update_worker_gauge()
        self._supervision_stop = threading.Event()
        self._supervise_interval = float(supervise_interval)
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="repro-supervisor", daemon=True)
        self._supervisor.start()

    # -- submission -------------------------------------------------------

    def submit(self, request: EstimateRequest,
               timeout: Optional[float] = None) -> Job:
        """Enqueue ``request`` (or attach to an identical in-flight job).

        ``timeout`` (seconds, default the scheduler's ``default_timeout``)
        becomes the job's deadline: exceeded in queue -> the job fails
        without running; exceeded mid-run -> the pipeline aborts at the
        next stage boundary. Raises :class:`QueueFullError` when the
        queue is at its limit.
        """
        if timeout is None:
            timeout = self.default_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._work_available:
            if self._closed:
                raise QueueFullError("scheduler is shut down")
            existing = self._inflight.get(request.key())
            if existing is not None and not existing.finished:
                existing.coalesced += 1
                if self._coalesced_total is not None:
                    self._coalesced_total.inc()
                return existing
            if len(self._heap) >= self.queue_limit:
                raise QueueFullError(
                    f"estimation queue is full ({self.queue_limit} jobs "
                    "queued); retry later or raise --queue-limit")
            job = Job(request, deadline=deadline)
            heapq.heappush(self._heap,
                           (-job.priority, next(self._seq), job))
            self._inflight[job.key] = job
            self._remember(job)
            self._set_queue_depth()
            self._work_available.notify()
            return job

    def estimate(self, request: EstimateRequest,
                 timeout: Optional[float] = None) -> LeakageEstimate:
        """Submit and wait: the synchronous one-call path."""
        job = self.submit(request, timeout=timeout)
        return self.wait(job, timeout=timeout)

    # -- completion -------------------------------------------------------

    def wait(self, job: Job,
             timeout: Optional[float] = None) -> LeakageEstimate:
        """Block until ``job`` finishes and return (or raise) its outcome.

        Raises :class:`JobTimeoutError` when ``timeout`` elapses first —
        the job itself keeps running (other waiters may be coalesced
        onto it); cancel it explicitly to stop the computation. A job
        that failed because *its own* deadline lapsed raises the typed
        :class:`DeadlineExceeded` instead.
        """
        if not job.wait(timeout):
            raise JobTimeoutError(
                f"timed out after {timeout:g}s waiting for {job.id} "
                f"(state {job.state!r}); the job is still in flight")
        if job.state == JobState.DONE:
            return job.result
        if job.state == JobState.CANCELLED:
            raise JobCancelledError(job.error or f"job {job.id} cancelled")
        if job.error_kind == "deadline":
            raise DeadlineExceeded(
                job.error or f"job {job.id} exceeded its deadline")
        raise JobFailedError(job.error or f"job {job.id} failed")

    def job(self, job_id: str) -> Optional[Job]:
        """Resolve a job by id (in flight or recently finished)."""
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job: Job) -> None:
        """Request cooperative cancellation of ``job``."""
        job.cancel()
        with self._work_available:
            # Wake workers so a queued cancelled job is retired promptly.
            self._work_available.notify_all()

    # -- introspection ----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def workers_alive(self) -> int:
        if self._live_workers is not None:
            return self._live_workers()
        return self._pool.alive_count

    @property
    def worker_restarts(self) -> int:
        return self._pool.restarts

    def worker_liveness(self):
        """Per-worker-thread liveness entries (see
        :meth:`repro.parallel.ThreadWorkerPool.liveness`)."""
        return self._pool.liveness()

    @property
    def inflight_count(self) -> int:
        with self._lock:
            return len(self._inflight)

    @property
    def saturated(self) -> bool:
        """True while the bounded queue would reject a new submission."""
        with self._lock:
            return self._closed or len(self._heap) >= self.queue_limit

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle --------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs and drain the worker pool.

        Queued jobs that never started are failed with a shutdown error
        so no waiter blocks forever.
        """
        with self._work_available:
            self._closed = True
            pending = [entry[2] for entry in self._heap]
            self._heap.clear()
            self._set_queue_depth()
            self._work_available.notify_all()
        for job in pending:
            if not job.finished:
                self._retire(job, JobState.CANCELLED,
                             error="scheduler shut down before the job ran",
                             kind="shutdown")
        self._supervision_stop.set()
        self._pool.stop(join=wait)
        if wait:
            self._supervisor.join(timeout=5.0)
        self._update_worker_gauge()

    def __enter__(self) -> "EstimationScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals --------------------------------------------------------

    def _remember(self, job: Job) -> None:
        self._jobs[job.id] = job
        while len(self._jobs) > self._job_history:
            oldest_id, oldest = next(iter(self._jobs.items()))
            if not oldest.finished:
                break  # never forget a live job
            del self._jobs[oldest_id]

    def _set_queue_depth(self) -> None:
        if self._queue_depth is not None:
            self._queue_depth.set(len(self._heap))

    def _update_worker_gauge(self) -> None:
        if self._workers_gauge is not None:
            self._workers_gauge.set(self.workers_alive)

    def _next_job(self, stop: threading.Event) -> Optional[Job]:
        with self._work_available:
            while not stop.is_set():
                if self._heap:
                    job = heapq.heappop(self._heap)[2]
                    self._set_queue_depth()
                    return job
                self._work_available.wait(timeout=0.1)
            return None

    def _retire(self, job: Job, state: str, result=None,
                error: Optional[str] = None,
                kind: Optional[str] = None) -> bool:
        if not job.finish(state, result=result, error=error, kind=kind):
            return False  # someone (e.g. the supervisor) beat us to it
        with self._lock:
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
        if self._jobs_total is not None:
            self._jobs_total.inc(state=state)
        return True

    def _requeue_or_fail(self, job: Job, cause: str) -> None:
        """After a worker crash: give the job another chance, or fail it."""
        job.requeue()
        if job.requeues > self.max_requeues:
            self._retire(
                job, JobState.FAILED, kind="crash",
                error=f"worker crashed {job.requeues}x running {job.id} "
                      f"(last: {cause}); giving up")
            return
        with self._work_available:
            if self._closed:
                pass  # fall through to retire below
            else:
                # Requeues bypass the queue limit: the job already held
                # a slot, and dropping it would turn one crash into a
                # lost request.
                heapq.heappush(self._heap,
                               (-job.priority, next(self._seq), job))
                self._set_queue_depth()
                self._work_available.notify()
                if self._requeued_total is not None:
                    self._requeued_total.inc()
                return
        self._retire(job, JobState.CANCELLED, kind="shutdown",
                     error="scheduler shut down while the job was requeued")

    def _on_worker_crash(self, exc: BaseException) -> None:
        """Pool crash callback — runs in the dying worker thread."""
        ident = threading.get_ident()
        with self._lock:
            job = self._active.pop(ident, None)
            self._abandoned.discard(ident)
        if self._restarts_total is not None:
            self._restarts_total.inc()
        if job is not None and not job.finished:
            self._requeue_or_fail(job, f"{type(exc).__name__}: {exc}")

    def _supervise_loop(self) -> None:
        """Periodic sweep: restart dead workers, abandon hung ones."""
        while not self._supervision_stop.wait(self._supervise_interval):
            restarted = self._pool.ensure_workers()
            if restarted and self._restarts_total is not None:
                self._restarts_total.inc(restarted)
            now = time.monotonic()
            with self._lock:
                hung = [(ident, job) for ident, job in self._active.items()
                        if job.deadline is not None
                        and now > job.deadline + self.hang_grace
                        and not job.finished]
            for ident, job in hung:
                with self._lock:
                    if self._active.get(ident) is not job:
                        continue  # the worker just finished it
                    del self._active[ident]
                    self._abandoned.add(ident)
                self._retire(
                    job, JobState.FAILED, kind="deadline",
                    error=f"job {job.id} exceeded its deadline; worker "
                          "unresponsive, abandoned and replaced")
                if self._hung_total is not None:
                    self._hung_total.inc()
                replacement = self._pool.replace(ident)
                if replacement is not None and self._restarts_total is not None:
                    self._restarts_total.inc()
            self._update_worker_gauge()

    def _worker_loop(self, stop: threading.Event) -> None:
        while True:
            job = self._next_job(stop)
            if job is None:
                return
            if job.cancel_requested:
                self._retire(job, JobState.CANCELLED, kind="cancelled",
                             error="cancelled while queued")
                continue
            if job.deadline is not None and time.monotonic() > job.deadline:
                self._retire(job, JobState.FAILED, kind="deadline",
                             error=f"job {job.id} exceeded its deadline "
                                   "while queued")
                continue
            job.mark_running()
            ident = threading.get_ident()
            with self._lock:
                self._active[ident] = job
            if self._faults is not None:
                # Outside the isolation try-block below: an injected
                # crash must kill this worker loop the way a real
                # defect in the drain plumbing would, exercising the
                # requeue-and-restart path rather than job failure.
                self._faults.crash(SITE_WORKER_CRASH)
            try:
                result = self._compute(job.request, job)
            except JobCancelledError as exc:
                self._retire(job, JobState.CANCELLED, error=str(exc),
                             kind="cancelled")
            except DeadlineExceeded as exc:
                self._retire(job, JobState.FAILED, error=str(exc),
                             kind="deadline")
            except JobTimeoutError as exc:
                self._retire(job, JobState.FAILED, error=str(exc),
                             kind="deadline")
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                self._retire(job, JobState.FAILED, kind="error",
                             error=f"{type(exc).__name__}: {exc}")
            else:
                self._retire(job, JobState.DONE, result=result)
            finally:
                with self._lock:
                    self._active.pop(ident, None)
                    abandoned = ident in self._abandoned
                    self._abandoned.discard(ident)
            if abandoned:
                return  # a replacement took over; exit quietly
