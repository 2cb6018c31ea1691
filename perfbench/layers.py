"""Per-layer measurement from outside the program.

Only the traced run uses this module.  It measures each layer two ways:

* **Timing proxies.**  A :class:`LayerProxy` replaces a layer object that
  a façade holds (``service.router``, ``shard.cache``, ``pipeline.windows``,
  ...) and times the listed public methods; every other attribute passes
  through to the real object.  The façade's own entry points and a few
  module functions are wrapped the same way.  Time is kept *exclusive*:
  a call's time minus the time of measured layers it called on the same
  thread, so the layers' ``busy_s`` figures partition the measured time
  and ``service.self_s`` is the façade's time minus the nested layers.
* **The program's own spans.**  ``obs.enable()`` turns on the spans the
  program already emits (``fit.graph``, ``fit.embedding``,
  ``fit.clustering``, ``embed.alias_build``, ``embed.sampling``,
  ``embed.kernel``); :class:`SpanCollector` drains and sums them as the
  run goes.  Pool workers' compute time comes from the service
  telemetry's ``batch_seconds``, which the workers report.

The layer map (module, what is timed, which end-to-end metric it should
move on which workload) is in ``README.md`` beside this file.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict

from repro.core import pipeline as core_pipeline
from repro.core.inference import UnknownEnvironmentError
from repro.core.pipeline import GRAFICS
from repro.obs import runtime as obs
from repro.obs.tracer import SpanTracer
from repro.serving import service as serving_service
from repro.serving import sharding as serving_sharding

from common import percentile

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS = {
    "router.calls": "count", "router.busy_s": "s", "router.rejected": "count",
    "cache.lookups": "count", "cache.busy_s": "s", "cache.hit_ratio": "ratio",
    "cache.invalidated": "count",
    "batcher.batches": "count", "batcher.batch_size_mean": "records",
    "batcher.queue_wait_p50_ms": "ms", "batcher.queue_wait_p99_ms": "ms",
    "batcher.deadline_share": "share",
    "service.self_s": "s", "service.swaps": "count",
    "service.swap_busy_s": "s",
    "pool.calls": "count", "pool.busy_s": "s", "pool.records": "count",
    "pool.overhead_share": "share", "pool.snapshot_ships": "count",
    "pool.worker_restarts": "count",
    "inference.records": "count", "inference.ms_per_record": "ms",
    "embed.alias_build_s": "s", "embed.sampling_s": "s",
    "embed.kernel_s": "s",
    "graph.busy_s": "s", "graph.edges": "count",
    "embedding.busy_s": "s", "embedding.edge_samples_per_s": "1/s",
    "clustering.busy_s": "s",
    "ingest.calls": "count", "ingest.busy_s": "s", "ingest.rejected": "count",
    "window.busy_s": "s", "window.evicted": "count",
    "drift.busy_s": "s", "drift.events": "count",
    "scheduler.busy_s": "s", "scheduler.retrains": "count",
    "scheduler.skipped": "count",
    "executor.jobs": "count", "executor.fit_busy_s": "s",
    "executor.wait_s": "s", "executor.stale_share": "share",
    "stream.swap_lag_s": "s", "stream.retrain_s": "s",
    "obs.tracing_overhead": "ratio",
}

#: Methods timed on each held layer object.
ROUTER_METHODS = ("route",)
CACHE_METHODS = ("get", "put", "invalidate_building")
BATCHER_METHODS = ("enqueue", "due", "drain", "evict")
POOL_METHODS = ("compute",)
INGEST_METHODS = ("submit", "drain")
WINDOW_METHODS = ("window_for", "append")
DRIFT_METHODS = ("observe_routing", "observe_distance", "check_vocabulary",
                 "reset_building")
SCHEDULER_METHODS = ("note_append", "note_drift", "maybe_retrain", "collect")
EXECUTOR_METHODS = ("submit", "drain_completed")
#: Façade entry points; calls between them nest and are counted once.
SERVICE_METHODS = ("predict", "predict_batch", "submit", "poll", "drain",
                   "install_building")


class Ledger:
    """Call counts, exclusive busy time and event counters per layer."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, after=None, key: str | None = None):
        """``fn`` timed as ``layer``; ``after(result, args, kwargs)`` sees
        each result.

        ``key`` names the call in :attr:`calls` and :attr:`busy` in
        addition to the layer (``"service.install_building"``).
        """
        clock = self._clock

        def timed(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][0] == layer:
                # A façade method calling another façade method: one call.
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            except UnknownEnvironmentError:
                self.count(f"{layer}.rejected")
                raise
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                own = elapsed - frame[1]
                with self._lock:
                    self.calls[layer] += 1
                    self.busy[layer] += own
                    if key is not None:
                        self.calls[key] += 1
                        self.busy[key] += elapsed
            if after is not None:
                after(result, args, kwargs)
            return result

        return timed

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)


class LayerProxy:
    """Stands in for a layer object; times ``methods``, forwards the rest."""

    def __init__(self, target, layer: str, ledger: Ledger, methods,
                 hooks: dict | None = None) -> None:
        hooks = hooks or {}
        object.__setattr__(self, "_target", target)
        for name in methods:
            object.__setattr__(self, name, ledger.wrap(
                layer, getattr(target, name), after=hooks.get(name),
                key=f"{layer}.{name}"))

    def __getattr__(self, name):
        return getattr(self._target, name)

    def __setattr__(self, name, value) -> None:
        setattr(self._target, name, value)

    def __len__(self) -> int:
        return len(self._target)


class SpanCollector:
    """Drains the program's spans and keeps running sums per span name.

    ``embed.*`` spans are split by their parent: under ``online.embed``
    they are cold-path inference, under ``fit.embedding`` they are fits.
    """

    PARENTS = {"online.embed": "online", "fit.embedding": "fit"}
    KEPT = {"fit.graph", "fit.embedding", "fit.clustering",
            "embed.alias_build", "embed.sampling", "embed.kernel"}

    def __init__(self, tracer: SpanTracer) -> None:
        self.tracer = tracer
        self._parents: dict[str, str] = {}
        self._kept: list = []

    def forget_serving(self) -> None:
        """Drop the serving spans seen so far (set-up warm-up); keep fits."""
        self.pump()
        self._kept = [kept for kept in self._kept
                      if self._parents.get(kept[1]) != "online"]

    def pump(self) -> None:
        for span in self.tracer.drain():
            context = self.PARENTS.get(span.name)
            if context is not None:
                self._parents[span.span_id] = context
            if span.name in self.KEPT:
                self._kept.append((span.name, span.parent_id,
                                   span.duration_seconds,
                                   span.attributes.get("samples", 0)))

    def totals(self) -> dict:
        """``{(name, context): [seconds, samples]}``."""
        self.pump()
        sums: dict = defaultdict(lambda: [0.0, 0])
        for name, parent_id, seconds, samples in self._kept:
            entry = sums[(name, self._parents.get(parent_id, ""))]
            entry[0] += seconds
            entry[1] += samples
        return sums


class Instrumentation:
    """Installs the proxies and spans for one traced measurement."""

    def __init__(self) -> None:
        self.ledger = Ledger()
        self.tracer = SpanTracer(capacity=1_000_000)
        self.spans = SpanCollector(self.tracer)
        self._restore: list = []
        self._enqueued_at: dict = {}
        self._submitted_at: dict = defaultdict(list)
        self._compute_before = (0, 0.0)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Enable spans and count graph edges; call before set-up.

        Set-up fits are part of the fit layers, so they are traced too.
        """
        obs.enable(tracer=self.tracer)
        self._patch(core_pipeline, "build_graph",
                    self.ledger.wrap("graph", core_pipeline.build_graph,
                                     after=self._count_edges))

    def after_setup(self, service) -> None:
        """Proxy the serving layers once set-up and warm-up are done."""
        self.spans.forget_serving()
        self._compute_before = self._worker_compute(service)
        for module in (serving_service, serving_sharding):
            self._patch(module, "fingerprint_key",
                        self.ledger.wrap("cache", module.fingerprint_key))
        self._patch(GRAFICS, "predict_batch",
                    self.ledger.wrap("inference", GRAFICS.predict_batch,
                                     after=self._count_records))
        self.wrap_service(service)

    def stop(self) -> None:
        self.spans.pump()
        obs.disable()
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # ------------------------------------------------------------- serving
    @staticmethod
    def _worker_compute(service) -> tuple[int, float]:
        """Records and seconds the pool workers report computing."""
        snapshot = service.telemetry_snapshot()
        latency = snapshot["latency"].get("batch_seconds")
        seconds = latency["count"] * latency["mean"] if latency else 0.0
        return (snapshot["counters"].get("batched_records_total", 0),
                seconds)

    def wrap_service(self, service) -> None:
        """Proxy the layers a one-lock or sharded façade holds."""
        ledger = self.ledger
        for name in SERVICE_METHODS:
            key = "service.install_building" if name == "install_building" \
                else None
            setattr(service, name,
                    ledger.wrap("service", getattr(service, name), key=key))
        service.router = LayerProxy(service.router, "router", ledger,
                                    ROUTER_METHODS)
        holders = getattr(service, "shards", None) or (service,)
        for holder in holders:
            holder.cache = LayerProxy(holder.cache, "cache", ledger,
                                      CACHE_METHODS, hooks={
                                          "get": self._count_lookup,
                                          "invalidate_building":
                                              self._count_invalidated})
            holder.batcher = LayerProxy(holder.batcher, "batcher", ledger,
                                        BATCHER_METHODS, hooks={
                                            "enqueue": self._enqueued,
                                            "due": self._released,
                                            "drain": self._released})
        if service.compute_pool is not None:
            service.compute_pool = LayerProxy(
                service.compute_pool, "pool", ledger, POOL_METHODS,
                hooks={"compute": self._count_pool_records})

    def wrap_pipeline(self, pipeline) -> None:
        """Proxy the stream layers; call after :meth:`after_setup`."""
        ledger = self.ledger
        pipeline.ingestor = LayerProxy(pipeline.ingestor, "ingest", ledger,
                                       INGEST_METHODS,
                                       hooks={"submit": self._ingested})
        windows = LayerProxy(pipeline.windows, "window", ledger,
                             WINDOW_METHODS)
        pipeline.windows = windows
        pipeline.drift = LayerProxy(pipeline.drift, "drift", ledger,
                                    DRIFT_METHODS)
        executor = pipeline.executor
        fit = ledger.wrap("executor", executor._train, key="executor.fit")

        def train(job, previous_embedding):
            queue = self._submitted_at.get(job.building_id)
            if queue:
                ledger.sample("executor.wait_s",
                              time.perf_counter() - queue.pop(0))
            return fit(job, previous_embedding)

        executor._train = train
        proxy = LayerProxy(executor, "executor", ledger, EXECUTOR_METHODS,
                           hooks={"submit": self._job_submitted})
        pipeline.executor = proxy
        scheduler = LayerProxy(pipeline.scheduler, "scheduler", ledger,
                               SCHEDULER_METHODS)
        pipeline.scheduler.executor = proxy
        pipeline.scheduler.windows = windows
        pipeline.scheduler = scheduler

    # --------------------------------------------------------------- hooks
    def _count_edges(self, graph, args, kwargs) -> None:
        self.ledger.count("graph.edges", graph.num_edges)

    def _count_records(self, predictions, args, kwargs) -> None:
        self.ledger.count("inference.records", len(predictions))

    def _count_pool_records(self, predictions, args, kwargs) -> None:
        self.ledger.count("pool.records", len(predictions))

    def _count_lookup(self, value, args, kwargs) -> None:
        self.ledger.count("cache.lookups")
        if value is not None:
            self.ledger.count("cache.hits")

    def _count_invalidated(self, removed, args, kwargs) -> None:
        self.ledger.count("cache.invalidated", removed)

    def _enqueued(self, full, args, kwargs) -> None:
        item = args[1]
        self._enqueued_at[item[3]] = time.perf_counter()
        if full is not None:
            self._released([full], args, kwargs)

    def _released(self, batches, args, kwargs) -> None:
        now = time.perf_counter()
        for batch in batches:
            self.ledger.count("batcher.batches")
            self.ledger.count("batcher.items", len(batch.items))
            if batch.reason == "deadline":
                self.ledger.count("batcher.deadline")
            for item in batch.items:
                enqueued = self._enqueued_at.pop(item[3], None)
                if enqueued is not None:
                    self.ledger.sample("batcher.queue_wait",
                                       now - enqueued)

    def _ingested(self, decision, args, kwargs) -> None:
        if not decision.accepted:
            self.ledger.count("ingest.rejected")

    def _job_submitted(self, completion, args, kwargs) -> None:
        building_id = kwargs.get("building_id", args[0] if args else None)
        if completion is None:
            # Background job: its queue wait ends when the fit starts.
            self._submitted_at[building_id].append(time.perf_counter())

    # -------------------------------------------------------------- report
    def metrics(self, service, pipeline=None, stream: dict | None = None,
                overhead: float = 0.0) -> dict:
        """Every per-layer metric; zero where the layer did not run."""
        ledger = self.ledger
        calls, busy, counts = ledger.calls, ledger.busy, ledger.counts
        spans = self.spans.totals()

        def span_seconds(name, context=""):
            return spans.get((name, context), [0.0])[0]

        waits = ledger.samples.get("batcher.queue_wait", [])
        batches = counts["batcher.batches"]
        lookups = counts["cache.lookups"]
        counters = service.telemetry_snapshot()["counters"]
        pool_workers = (service.compute_pool.num_workers
                        if service.compute_pool is not None else 0)
        worker_compute = 0.0
        if pool_workers:
            # Cold compute ran in the workers: take their own timings.
            records, seconds = self._worker_compute(service)
            inference_records = records - self._compute_before[0]
            worker_compute = seconds - self._compute_before[1]
            inference_seconds = worker_compute
        else:
            inference_records = counts["inference.records"]
            inference_seconds = busy["inference"]
        fit_sampling = spans.get(("embed.sampling", "fit"), [0.0, 0])
        fit_kernel = span_seconds("embed.kernel", "fit")
        fit_train = fit_sampling[0] + fit_kernel
        values = {
            "router.calls": calls["router.route"],
            "router.busy_s": busy["router"],
            "router.rejected": counts["router.rejected"],
            "cache.lookups": lookups,
            "cache.busy_s": busy["cache"],
            "cache.hit_ratio": counts["cache.hits"] / lookups
            if lookups else 0.0,
            "cache.invalidated": counts["cache.invalidated"],
            "batcher.batches": batches,
            "batcher.batch_size_mean": counts["batcher.items"] / batches
            if batches else 0.0,
            "batcher.queue_wait_p50_ms": 1e3 * percentile(waits, 50)
            if waits else 0.0,
            "batcher.queue_wait_p99_ms": 1e3 * percentile(waits, 99)
            if waits else 0.0,
            "batcher.deadline_share": counts["batcher.deadline"] / batches
            if batches else 0.0,
            "service.self_s": busy["service"],
            "service.swaps": calls["service.install_building"],
            "service.swap_busy_s": busy["service.install_building"],
            "pool.calls": calls["pool.compute"],
            "pool.busy_s": busy["pool"],
            "pool.records": counts["pool.records"],
            "pool.overhead_share": 1.0 - worker_compute
            / (busy["pool"] * pool_workers) if busy["pool"] else 0.0,
            "pool.snapshot_ships":
                counters.get("compute_pool_snapshot_ships_total", 0),
            "pool.worker_restarts":
                counters.get("compute_pool_worker_restarts_total", 0),
            "inference.records": inference_records,
            "inference.ms_per_record": 1e3 * inference_seconds
            / inference_records if inference_records else 0.0,
            "embed.alias_build_s": span_seconds("embed.alias_build",
                                                "online"),
            "embed.sampling_s": span_seconds("embed.sampling", "online"),
            "embed.kernel_s": span_seconds("embed.kernel", "online"),
            "graph.busy_s": span_seconds("fit.graph"),
            "graph.edges": counts["graph.edges"],
            "embedding.busy_s": span_seconds("fit.embedding"),
            "embedding.edge_samples_per_s": fit_sampling[1] / fit_train
            if fit_train else 0.0,
            "clustering.busy_s": span_seconds("fit.clustering"),
            "ingest.calls": calls["ingest.submit"],
            "ingest.busy_s": busy["ingest"],
            "ingest.rejected": counts["ingest.rejected"],
            "window.busy_s": busy["window"],
            "window.evicted": 0,
            "drift.busy_s": busy["drift"],
            "drift.events": 0,
            "scheduler.busy_s": busy["scheduler"],
            "scheduler.retrains": 0,
            "scheduler.skipped": 0,
            "executor.jobs": 0,
            "executor.fit_busy_s": busy["executor.fit"],
            "executor.wait_s": sum(ledger.samples.get("executor.wait_s", [])),
            "executor.stale_share": 0.0,
            "stream.swap_lag_s": 0.0,
            "stream.retrain_s": 0.0,
            "obs.tracing_overhead": overhead,
        }
        if pipeline is not None:
            windows = pipeline.windows.stats()
            executor = pipeline.executor.stats()
            scheduler = pipeline.scheduler.stats()
            landed = executor["executed_total"] + executor["stale_total"]
            values.update({
                "window.evicted": sum(w["evicted"]
                                      for w in windows.values()),
                "drift.events": len(pipeline.drift_events),
                "scheduler.retrains": scheduler["retrains_total"],
                "scheduler.skipped": scheduler["skipped_total"],
                "executor.jobs": landed + executor["errors_total"],
                "executor.stale_share": executor["stale_total"] / landed
                if landed else 0.0,
            })
        if stream is not None:
            values["stream.swap_lag_s"] = stream["swap_lag_s"]
            values["stream.retrain_s"] = stream["retrain_s"]
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in LAYER_METRICS.items()}
