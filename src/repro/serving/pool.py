"""Process-pool compute for the cold serving path.

The plan/compute/commit split (PR 5) made the compute phase of cold
serving mutation-free: between the serving locks, a prediction is pure
function application against a read-only model snapshot, and its inputs
(``SignalRecord`` batches) and outputs (``FloorPrediction`` lists) are
plain picklable values.  That seam is exactly a process boundary —
in-process threads stay GIL-bound no matter how many cores the host has,
so this module puts a persistent :class:`ComputePool` of worker processes
behind it:

* **Workers hold read-only model snapshots** keyed by ``(building,
  generation)``.  A snapshot ships (pickled) to a worker once per
  generation; every later request for that model sends only the lightweight
  record batch and receives the computed predictions back.  A hot swap
  bumps the generation — the same fence idea as the retrain executor's
  per-building generation fence — so stale snapshots are never served and
  the superseded pickle is dropped worker-side.
* **Plan and commit stay in the parent**, under the existing serving
  locks: routing, cache lookups, the stale-swap cache guard and every
  rejection path are byte-for-byte the code the in-process mode runs.
  Only the engine work moves, so pooled predictions are byte-identical to
  in-process ones (test-enforced) — online inference is deterministic and
  a pickled model predicts exactly like its source.  Errors keep the
  in-process order too: a call raises the error of the earliest failing
  group in plan order.
* **One message per worker per request.**  ``independent=True``
  inference is per-record deterministic and independent of batch
  composition (the invariant the cache and micro-batcher already rely
  on), so a request's miss groups can be cut anywhere without changing a
  single output byte.  :meth:`ComputePool.compute` takes *every* miss
  group of a request at once, picks ``clamp(total // MIN_CHUNK_RECORDS,
  1, workers)`` workers, cuts each group into that many contiguous
  slices (the remainder rotating across workers, so per-worker record
  totals differ by at most one) and sends each worker **one** task
  holding its slice of every group.  The worker runs its slices in group
  order and returns per-slice outcomes; the parent reassembles one flat
  prediction list in group order.  A request is therefore one barrier,
  not one per building — this is what converts cold `predict_batch` from
  a single-core ceiling into a per-core-scaling path.
* **Faults stay deterministic.**  The parent evaluates the
  ``serve.compute`` failpoint (one process-global hit counter, seeded RNG
  streams intact) and ships the resulting directives; the worker executes
  them — raising :class:`~repro.faults.plan.FaultInjected`, sleeping, or
  hard-exiting on a ``kill`` (the pool-mode analogue of ``ProcessKilled``:
  the process that dies at ``serve.compute`` is the one computing).
  Directives ride only on the message carrying group 0's first slice and
  run before any compute in it: one ``serve.compute`` hit per call, as
  in-process.  Worker death is detected via the process sentinel,
  surfaces as :class:`WorkerCrashError` (a retryable rejection on the
  micro-batched path, never a hang), and the pool respawns the worker
  with a fresh snapshot cache.
* **Worker footprint is visible.**  Every reply carries the worker's peak
  resident set size; the parent keeps the maximum over live workers in
  the ``compute_pool_worker_peak_rss_bytes`` gauge.

The default start method is ``"spawn"``: safe regardless of what threads
and locks the parent holds when a worker (re)starts, at the cost of
roughly an interpreter start + import per worker, paid once per pool.
``"fork"`` starts workers in milliseconds and is fine when the pool is
created before serving threads exist, but a *respawn* after a worker
crash forks a live multi-threaded parent — only opt in where that risk is
understood.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import sys
import threading
import time
from multiprocessing.connection import Connection, wait as connection_wait

import numpy as np

from ..faults import failpoints
from ..obs import runtime as obs
from ..obs.log import log_event

__all__ = ["ComputePool", "WorkerCrashError"]

#: Fewest records worth a worker of their own: a call engages one worker
#: per this many records (at most the pool size), because below it the
#: IPC round trip outweighs the parallelism.
MIN_CHUNK_RECORDS = 8


def _slice_bounds(sizes: list[int], workers: int) -> list[list[tuple]]:
    """Cut each group into ``workers`` contiguous ``(start, end)`` slices.

    Each group splits evenly; its remainder records go one each to the
    next workers in a rotation carried across groups, so per-worker record
    totals over the whole call differ by at most one.  The rotation starts
    at worker 0, which therefore holds group 0's first (non-empty) slice.

    Every group is split across every engaged worker, rather than the
    call's records being cut into one range per worker, because a record's
    cost depends on its building (the size of the graph it joins): equal
    record counts are equal work only when each worker gets the same mix
    of buildings.  On ``bulk_cold`` (2-CPU host, six interleaved runs)
    the single-range cut served about 7% fewer records per second with a
    15% higher batch p90.  The price is a snapshot of every building on
    every engaged worker, which a warmed pool holds anyway.
    """
    bounds, offset = [], 0
    for size in sizes:
        base, extra = divmod(size, workers)
        group, start = [], 0
        for slot in range(workers):
            end = start + base + ((slot - offset) % workers < extra)
            group.append((start, end))
            start = end
        bounds.append(group)
        offset = (offset + extra) % workers
    return bounds


class WorkerCrashError(RuntimeError):
    """A pool worker died while computing a request.

    Retryable: the pool has already respawned the worker by the time the
    caller sees this, and the request's inputs are unmodified — on the
    micro-batched path it surfaces as a rejected :class:`ServingResult`,
    on the synchronous path it propagates to the caller to retry.
    """


def _peak_rss_bytes() -> int:
    """This process's own peak resident set size, in bytes (0 if unknown).

    Linux's ``VmHWM`` is the high-water mark of the process's current
    address space.  ``getrusage``'s ``ru_maxrss`` is not usable for
    spawned workers there: it survives ``execve``, so a worker spawned from
    a 400 MB parent reports 400 MB while its own peak is about 30 MB.
    Elsewhere ``ru_maxrss`` is the only source (KiB on most platforms,
    bytes on macOS).
    """
    try:
        with open("/proc/self/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
    except ImportError:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def _execute_directives(directives) -> None:
    """Run parent-evaluated fault directives on the worker side."""
    from ..faults.plan import FaultInjected

    for directive in directives or ():
        kind = directive["kind"]
        if kind == "kill":
            # A real worker death, observable only from the parent via the
            # process sentinel — like ProcessKilled, no worker-side handler
            # may absorb it.
            os._exit(17)
        if kind == "latency":
            time.sleep(directive["delay_seconds"])
        elif kind == "error":
            raise FaultInjected(directive["message"])


def _pool_worker_main(conn: Connection, worker_index: int) -> None:
    """Long-lived worker loop: receive tasks, compute, send results.

    A task holds this worker's slice of every miss group of one request,
    in group order, plus the fault directives when it carries group 0's
    first slice.  Every snapshot the task ships is installed first: the
    parent counts it as held from the moment it sends it, so a failing
    directive or slice must not drop it.  Then the directives run, then
    the slices in order; the reply holds one outcome per slice, ending at
    the first failure (a later group can never be the earliest failure of
    the request), plus the worker's peak RSS in bytes.

    Holds at most one snapshot per building — a slice carrying a newer
    generation drops the superseded pickle before installing the new one,
    so worker memory is bounded by the registry size, not by swap churn.
    """
    snapshots: dict[tuple[str, int], object] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away; nothing left to serve
        if message[0] == "shutdown":
            conn.close()
            return
        _, task_id, directives, slices = message
        for building_id, generation, model, _ in slices:
            if model is not None:
                for stale in [k for k in snapshots if k[0] == building_id]:
                    del snapshots[stale]
                snapshots[(building_id, generation)] = model
        outcomes: list[tuple] = []
        try:
            _execute_directives(directives)
            for building_id, generation, _, records in slices:
                key = (building_id, generation)
                snapshot = snapshots.get(key)
                if snapshot is None:
                    raise RuntimeError(
                        f"worker {worker_index} has no snapshot for {key!r}")
                start = time.perf_counter()
                predictions = snapshot.predict_batch(list(records),
                                                     independent=True)
                outcomes.append(("ok", predictions,
                                 time.perf_counter() - start))
        except Exception as error:  # shipped back, re-raised parent-side
            outcomes.append(("err", error))
        peak_rss = _peak_rss_bytes()
        try:
            conn.send(("done", task_id, outcomes, peak_rss))
        except Exception:
            # An unpicklable error: ship its repr instead.
            conn.send(("done", task_id, [
                outcome if outcome[0] == "ok"
                else ("err", RuntimeError(repr(outcome[1])))
                for outcome in outcomes], peak_rss))


def _canonicalize(predictions) -> None:
    """Restore dtype-object identity on unpickled prediction embeddings.

    Unpickling an ndarray yields a fresh ``dtype`` instance instead of
    numpy's builtin singleton, so two slices unpickled from two workers
    carry two distinct (equal) dtype objects where the in-process path has
    one.  Per-prediction bytes are unaffected, but a combined pickle of a
    whole batch memoizes by identity and would differ.  Re-binding the
    dtype by its string spec restores the singleton in place (no copy —
    same itemsize), making pooled output byte-identical to in-process even
    under whole-batch serialization.
    """
    for prediction in predictions:
        embedding = getattr(prediction, "embedding", None)
        if isinstance(embedding, np.ndarray):
            embedding.dtype = np.dtype(embedding.dtype.str)


class _Task:
    """Parent-side handle for one worker's message of a call."""

    __slots__ = ("groups", "done", "outcome")

    def __init__(self, groups: list[int]) -> None:
        #: Group index of each slice in the message, in message order.
        self.groups = groups
        self.done = threading.Event()
        #: ``("done", [per-slice outcome])`` or ``("err", WorkerCrashError)``.
        self.outcome: tuple | None = None

    def resolve(self, outcome: tuple) -> None:
        self.outcome = outcome
        self.done.set()


class _PoolCall:
    """All messages of one ``submit``; reassembles outputs in group order."""

    __slots__ = ("_pool", "_tasks", "_num_groups")

    def __init__(self, pool: "ComputePool", tasks: list[_Task],
                 num_groups: int) -> None:
        self._pool = pool
        self._tasks = tasks  # in slot order: a group's slices in input order
        self._num_groups = num_groups

    def result(self) -> list:
        parts: list[list] = [[] for _ in range(self._num_groups)]
        errors: dict[int, BaseException] = {}
        for task in self._tasks:
            task.done.wait()
            kind, payload = task.outcome
            if kind == "err":  # the worker died: every slice failed
                for group in task.groups:
                    errors.setdefault(group, payload)
                continue
            # Slices past the outcomes were skipped after an earlier
            # group's failure, which is then the error raised.
            for group, outcome in zip(task.groups, payload):
                if outcome[0] == "ok":
                    _, predictions, seconds = outcome
                    _canonicalize(predictions)
                    parts[group].append(predictions)
                    self._pool._record_slice_stats(seconds, len(predictions))
                else:
                    errors.setdefault(group, outcome[1])
        if errors:
            raise errors[min(errors)]
        return [prediction for group in parts for predictions in group
                for prediction in predictions]


class _Worker:
    """One worker process plus its parent-side bookkeeping.

    Outbound messages go through a FIFO ``outbox`` drained by a dedicated
    sender thread rather than a direct ``conn.send``: a pickled model
    snapshot can exceed the pipe buffer, and a blocking send under the
    pool lock would deadlock against the collector (which needs the lock
    to drain results the worker is itself blocked sending).  Enqueueing
    under the pool lock keeps ship-before-use ordering; the sender thread
    does the blocking I/O with no locks held.
    """

    __slots__ = ("index", "process", "conn", "shipped", "inflight",
                 "outbox", "sender", "peak_rss")

    def __init__(self, index: int, process, conn: Connection) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        #: ``(building, generation)`` snapshots this worker already holds.
        self.shipped: set[tuple[str, int]] = set()
        self.inflight: dict[int, _Task] = {}
        #: Peak RSS in bytes, as last reported by the worker (0 until then).
        self.peak_rss = 0
        self.outbox: queue.SimpleQueue = queue.SimpleQueue()
        self.sender = threading.Thread(
            target=self._send_loop, name=f"compute-pool-sender-{index}",
            daemon=True)
        self.sender.start()

    def _send_loop(self) -> None:
        while True:
            message = self.outbox.get()
            if message is None:
                return
            try:
                self.conn.send(message)
            except (BrokenPipeError, OSError):
                # Worker death is observed (and the task failed/respawned)
                # via the process sentinel; dropping the send is correct.
                pass


class ComputePool:
    """Persistent worker processes computing cold-path predictions.

    Parameters
    ----------
    workers:
        Number of long-lived worker processes (must be >= 1; a serving
        config of ``compute_workers=0`` means "no pool" and never
        constructs one).
    telemetry:
        The owning service's :class:`~repro.serving.telemetry.
        ServingTelemetry`.  The pool records its own counters there
        (``compute_pool_dispatch_total``, ``compute_pool_snapshot_ships_
        total``, ``compute_pool_worker_restarts_total``, the
        ``compute_pool_queue_depth`` and ``compute_pool_worker_peak_rss_
        bytes`` gauges) *and* aggregates worker-side
        compute timings back into the parent registry (``batch_seconds``
        observations, ``batches_total`` / ``batched_records_total``
        counts), so ``/metrics`` shows one coherent view regardless of
        where the compute ran.
    start_method:
        ``"spawn"`` (default, thread-safe respawns), ``"fork"`` or
        ``"forkserver"`` where the platform offers them.
    """

    def __init__(self, workers: int, telemetry=None,
                 start_method: str | None = None) -> None:
        if workers < 1:
            raise ValueError("a compute pool needs at least one worker")
        start_method = start_method or "spawn"
        if start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start method {start_method!r} is unavailable on this "
                f"platform; choose from "
                f"{multiprocessing.get_all_start_methods()}")
        self._context = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.num_workers = workers
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._closed = False
        self._task_ids = iter(range(1, 2 ** 62))
        #: building -> (generation, model); the strong model ref pins the
        #: identity comparison (an ``is`` check against the snapshot taken
        #: under the serving lock), so a generation can never be reused for
        #: a different model object.
        self._generations: dict[str, tuple[int, object]] = {}
        self._workers: list[_Worker] = [self._spawn(i) for i in range(workers)]
        # Collector: one daemon thread resolving results and watching
        # sentinels, so worker death is detected even mid-request.
        self._wake_recv, self._wake_send = self._context.Pipe(duplex=False)
        self._collector = threading.Thread(target=self._collect,
                                           name="compute-pool-collector",
                                           daemon=True)
        self._collector.start()

    # ------------------------------------------------------------- lifecycle
    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_pool_worker_main, args=(child_conn, index),
            name=f"compute-pool-{index}", daemon=True)
        process.start()
        child_conn.close()
        return _Worker(index, process, parent_conn)

    def close(self, timeout: float = 5.0) -> None:
        """Shut the pool down; idempotent, fails any still-inflight tasks."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
            for worker in workers:
                self._fail_inflight(worker, "compute pool closed")
                worker.outbox.put(("shutdown",))
                worker.outbox.put(None)
        try:
            self._wake_send.send(b"x")
        except (BrokenPipeError, OSError):
            pass
        for worker in workers:
            worker.sender.join(timeout=timeout)
            worker.process.join(timeout=timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=timeout)
            worker.conn.close()
        self._collector.join(timeout=timeout)

    def __enter__(self) -> "ComputePool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -------------------------------------------------------------- dispatch
    def submit(self, groups, directives=None) -> _PoolCall:
        """Dispatch a request's miss groups; returns a waitable handle.

        ``groups`` is ``[(building_id, model, records), ...]`` in plan
        order.  The call engages ``clamp(total // MIN_CHUNK_RECORDS, 1,
        workers)`` workers — the least loaded, preferring on ties those
        already holding the groups' ``(building, generation)`` snapshots
        so models ship as rarely as possible — and sends each **one**
        message with its contiguous slice of every group (see
        :func:`_slice_bounds`).  Fault ``directives`` (parent-evaluated
        ``serve.compute`` decisions) ride only on the message carrying
        group 0's first slice: one failpoint hit per call, exactly like
        the in-process path.  ``compute_pool_dispatch_total`` counts one
        per non-empty (worker, group) slice and a snapshot ships at most
        once per slice, so ships never exceed dispatches.
        """
        groups = [(building_id, model, list(records))
                  for building_id, model, records in groups]
        sizes = [len(records) for _, _, records in groups]
        with self._lock:
            if self._closed:
                raise WorkerCrashError("compute pool is closed")
            keys = [(building_id, self._generation_for(building_id, model))
                    for building_id, model, _ in groups]
            used = min(self.num_workers,
                       max(1, sum(sizes) // MIN_CHUNK_RECORDS))
            workers = sorted(
                self._workers,
                key=lambda w: (len(w.inflight),
                               sum(key not in w.shipped for key in keys),
                               w.index))[:used]
            bounds = _slice_bounds(sizes, used)
            tasks: list[_Task] = []
            for slot, worker in enumerate(workers):
                slices, slice_groups = [], []
                for group, ((building_id, model, records), key) in enumerate(
                        zip(groups, keys)):
                    start, end = bounds[group][slot]
                    if start == end:
                        continue
                    payload_model = None
                    if key not in worker.shipped:
                        payload_model = model
                        worker.shipped.add(key)
                        self._increment("compute_pool_snapshot_ships_total")
                    self._increment("compute_pool_dispatch_total")
                    slices.append((building_id, key[1], payload_model,
                                   records[start:end]))
                    slice_groups.append(group)
                if not slices:
                    continue
                task = _Task(slice_groups)
                task_id = next(self._task_ids)
                worker.inflight[task_id] = task
                tasks.append(task)
                # Slot 0 holds group 0's first slice (the remainder
                # rotation starts there), so it carries the directives.
                worker.outbox.put(("task", task_id,
                                   directives if slot == 0 else None,
                                   slices))
            self._set_queue_depth_locked()
        return _PoolCall(self, tasks, len(groups))

    def compute(self, groups, directives=None) -> list:
        """Blocking convenience: ``submit(...)`` + ``result()``.

        Returns one flat prediction list, group after group, each group's
        predictions in its records' order.
        """
        return self.submit(groups, directives=directives).result()

    def _generation_for(self, building_id: str, model) -> int:
        entry = self._generations.get(building_id)
        if entry is not None and entry[1] is model:
            return entry[0]
        generation = entry[0] + 1 if entry is not None else 1
        self._generations[building_id] = (generation, model)
        # Hot swap: superseded generations can never be requested again.
        for worker in self._workers:
            worker.shipped = {k for k in worker.shipped
                              if k[0] != building_id}
        return generation

    # ------------------------------------------------------------- collector
    def _collect(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                conns = {worker.conn: worker for worker in self._workers}
                sentinels = {worker.process.sentinel: worker
                             for worker in self._workers}
            ready = connection_wait(
                list(conns) + list(sentinels) + [self._wake_recv])
            for item in ready:
                if item is self._wake_recv:
                    return  # close() woke us
                worker = conns.get(item)
                if worker is not None:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        self._handle_death(worker)
                        continue
                    self._resolve(worker, message)
                    continue
                worker = sentinels.get(item)
                if worker is not None and not worker.process.is_alive():
                    # Drain results the worker managed to send before dying.
                    try:
                        while worker.conn.poll():
                            self._resolve(worker, worker.conn.recv())
                    except (EOFError, OSError):
                        pass
                    self._handle_death(worker)

    def _resolve(self, worker: _Worker, message: tuple) -> None:
        kind, task_id = message[0], message[1]
        with self._lock:
            task = worker.inflight.pop(task_id, None)
            self._set_queue_depth_locked()
            worker.peak_rss = message[3]
            self._set_peak_rss_locked()
        if task is None:
            return  # already failed by a death handler
        task.resolve((kind, message[2]))

    def _handle_death(self, worker: _Worker) -> None:
        """A worker died: fail its inflight work, respawn it fresh."""
        with self._lock:
            if self._closed or self._workers[worker.index] is not worker:
                return
            exitcode = worker.process.exitcode
            worker.outbox.put(None)
            worker.conn.close()
            replacement = self._spawn(worker.index)
            self._workers[worker.index] = replacement
            self._set_peak_rss_locked()  # the dead worker's peak is gone
            self._increment("compute_pool_worker_restarts_total")
            # Fail the inflight work only after the respawn is recorded:
            # a caller woken by the rejection must already see the restart
            # counter and a live replacement worker.
            self._fail_inflight(
                worker,
                f"compute pool worker {worker.index} died "
                f"(exit code {exitcode}) mid-request; the request is "
                "retryable and the worker has been respawned")
            self._set_queue_depth_locked()
        log_event("compute_pool_worker_restarted", worker=worker.index,
                  exitcode=exitcode)

    def _fail_inflight(self, worker: _Worker, message: str) -> None:
        """Resolve every inflight task of ``worker`` as a crash (lock held)."""
        inflight, worker.inflight = worker.inflight, {}
        for task in inflight.values():
            task.resolve(("err", WorkerCrashError(message)))

    # ------------------------------------------------------------- telemetry
    def _increment(self, name: str, amount: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.increment(name, amount)

    def _set_queue_depth_locked(self) -> None:
        if self.telemetry is not None:
            depth = sum(len(w.inflight) for w in self._workers)
            self.telemetry.set_gauge("compute_pool_queue_depth", depth)

    def _set_peak_rss_locked(self) -> None:
        if self.telemetry is not None:
            self.telemetry.set_gauge(
                "compute_pool_worker_peak_rss_bytes",
                max(w.peak_rss for w in self._workers))

    def _record_slice_stats(self, seconds: float, records: int) -> None:
        """Fold one slice's worker-side measurements into parent telemetry."""
        if self.telemetry is not None:
            self.telemetry.observe("batch_seconds", seconds)
            self.telemetry.increment("batches_total")
            self.telemetry.increment("batched_records_total", records)
        # Pre-aggregated worker span: visible in traces without the worker
        # needing any parent-side tracer state.
        obs.stage("serving.pool_compute", seconds, {"records": records})

    def stats(self) -> dict[str, int | str]:
        """Pool gauges for telemetry snapshots and scorecards."""
        with self._lock:
            return {
                "workers": self.num_workers,
                "start_method": self.start_method,
                "queue_depth": sum(len(w.inflight) for w in self._workers),
                "snapshots_tracked": len(self._generations),
            }


def pooled_compute_directives(building_id: str | None = None):
    """Parent-side ``serve.compute`` failpoint evaluation for pool dispatch.

    Counts the same process-global hit the in-process ``fire`` would, and
    returns the picklable directives the worker must execute (or ``None``
    on the disabled fast path).
    """
    return failpoints.evaluate("serve.compute", building_id=building_id)
