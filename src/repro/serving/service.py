"""The serving façade: router → cache → batcher → per-building engines.

:class:`FloorServingService` wraps a :class:`MultiBuildingFloorService`
registry with the production plumbing the research pipeline lacks:

* **routing** — building attribution via the O(|record.rss|) inverted MAC
  index (:mod:`repro.serving.router`), kept exactly equivalent to the
  registry's reference linear scan;
* **caching** — a bounded LRU/TTL prediction cache keyed on the canonical
  quantised fingerprint (:mod:`repro.serving.cache`);
* **micro-batching** — an asynchronous ``submit``/``poll``/``drain`` intake
  that coalesces requests into per-building batches with size- and
  deadline-triggered dispatch (:mod:`repro.serving.batcher`);
* **telemetry** — counters and latency histograms for every stage
  (:mod:`repro.serving.telemetry`);
* **hot swap** — per-building retrain-and-replace through the persistence
  layer, atomic with respect to concurrent serving calls.

The synchronous :meth:`predict` / :meth:`predict_batch` path computes
predictions identical to the sequential
``MultiBuildingFloorService.predict`` reference — per-record incremental
embedding is deterministic and independent of batch composition — which is
what makes the cache and the grouped dispatch safe to layer on top.  The
one deliberate deviation: with caching enabled, records that agree on the
quantised fingerprint (RSS rounded to ``rss_quantum``) share one cached
prediction instead of each being recomputed.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from ..core.inference import UnknownEnvironmentError
from ..core.persistence import _atomic_save_model, load_model
from ..core.pipeline import GRAFICS, GraficsConfig
from ..core.registry import BuildingPrediction, MultiBuildingFloorService
from ..core.types import FingerprintDataset, SignalRecord
from ..faults import failpoints
from ..obs import runtime as obs
from ..obs.log import log_event
from .batcher import Batch, MicroBatcher
from .cache import PredictionCache, fingerprint_key
from .pool import ComputePool, WorkerCrashError
from .router import MacInvertedRouter
from .telemetry import ServingTelemetry

__all__ = ["ServingConfig", "ServingResult", "FloorServingService"]


@dataclass
class _ServePlan:
    """The locked-phase outcome of one ``predict_batch`` slice.

    Cache hits are already written into ``results`` when the plan is built;
    what remains is the per-building engine work, pinned to the *model
    snapshots* taken under the lock so the computation can run without it.
    """

    misses: list[tuple[str, object, list[int]]]  # (building, model, positions)
    keys: dict[int, str]
    served: int                                  # positions covered (hits + misses)


def _plan_positions(records: Sequence[SignalRecord],
                    routed: Sequence, positions: Iterable[int],
                    *, registry: MultiBuildingFloorService,
                    cache: PredictionCache, telemetry: ServingTelemetry,
                    config: ServingConfig,
                    results: list[BuildingPrediction | None]) -> _ServePlan:
    """Cache lookups + model snapshots for a slice of a batch (lock held).

    The first of the three phases of the synchronous serving core, shared
    verbatim by the one-lock service (slice = the whole batch) and by each
    shard of the sharded service (slice = that shard's positions): the
    "predictions byte-identical" guarantee between the two is structural
    because this is literally the same code.  The caller holds whatever
    lock guards ``registry``/``cache``/``telemetry``.
    """
    with obs.span("serving.plan") as plan_span:
        positions = list(positions)
        miss_positions: dict[str, list[int]] = {}
        keys: dict[int, str] = {}
        for position in positions:
            record, decision = records[position], routed[position]
            if config.enable_cache:
                key = fingerprint_key(decision.building_id, record,
                                      quantum=config.rss_quantum)
                keys[position] = key
                cached = cache.get(key)
                if cached is not None:
                    telemetry.increment("cache_hits_total")
                    results[position] = replace(cached,
                                                record_id=record.record_id)
                    continue
                telemetry.increment("cache_misses_total")
            miss_positions.setdefault(decision.building_id, []).append(position)

        misses = []
        for building_id, miss in miss_positions.items():
            try:
                model = registry.model_for(building_id)
            except KeyError:
                # A building can be evicted between routing and the serving
                # lock (sharded routing, or the lock-light window of the
                # one-lock service).  Surface the clean rejection routing a
                # vanished building would have produced.
                raise UnknownEnvironmentError(
                    f"building {building_id!r} was evicted between routing "
                    "and dispatch") from None
            misses.append((building_id, model, miss))
        plan_span.set("positions", len(positions))
        plan_span.set("miss_groups", len(misses))
        return _ServePlan(misses=misses, keys=keys, served=len(positions))


def _still_installed(registry: MultiBuildingFloorService, building_id: str,
                     model) -> bool:
    """Is ``model`` still the installed model of ``building_id``?

    The stale-swap cache guard: predictions computed during the unlocked
    phase are cached only while their snapshot model is still live — a hot
    swap or eviction already invalidated the building's entries, and
    re-inserting a pre-swap prediction would resurrect exactly the
    staleness the invalidation removed.
    """
    try:
        return registry.model_for(building_id) is model
    except KeyError:
        return False


def _compute_plan(records: Sequence[SignalRecord], plan: _ServePlan,
                  *, telemetry: ServingTelemetry,
                  pool: ComputePool | None = None) -> list[list]:
    """Run the planned engine work — *without* any serving lock.

    Online inference is mutation-free (overlay-based), so concurrent
    computations against one model snapshot need no mutual exclusion; only
    the thread-safe telemetry is touched.  Returns one prediction list per
    planned miss group, in plan order.

    With a ``pool``, the plan's miss groups go to worker processes in one
    :meth:`~repro.serving.pool.ComputePool.compute` call, computed against
    the shipped model snapshots (byte-identical output: ``independent=True``
    inference is per-record deterministic and a pickled model predicts
    exactly like its source).  The ``serve.compute`` failpoint is still
    evaluated here, in the parent — one hit per call, same process-global
    counter as the in-process fire — but its effect executes inside the
    worker computing the first miss group's first slice; a batch of pure
    cache hits counts the hit with no compute left to fault.  The pool
    records compute timings and batch counters itself, from the workers'
    own measurements.
    """
    with obs.span("serving.compute") as compute_span:
        if pool is not None:
            groups = [(building_id, model, [records[i] for i in miss])
                      for building_id, model, miss in plan.misses]
            directives = failpoints.evaluate("serve.compute")
            flat = pool.compute(groups, directives=directives) \
                if groups else []
            outputs, start = [], 0
            for _, _, batch in groups:
                outputs.append(flat[start:start + len(batch)])
                start += len(batch)
            compute_span.set("records", len(flat))
            return outputs
        failpoints.fire("serve.compute")
        outputs = []
        computed = 0
        for building_id, model, miss in plan.misses:
            batch = [records[i] for i in miss]
            with telemetry.time("batch_seconds"):
                floor_predictions = model.predict_batch(batch,
                                                        independent=True)
            telemetry.increment("batches_total")
            telemetry.increment("batched_records_total", len(batch))
            computed += len(batch)
            outputs.append(floor_predictions)
        compute_span.set("records", computed)
        return outputs


def _commit_plan(routed: Sequence, plan: _ServePlan, outputs: list[list],
                 *, registry: MultiBuildingFloorService,
                 cache: PredictionCache, telemetry: ServingTelemetry,
                 config: ServingConfig,
                 results: list[BuildingPrediction | None]) -> None:
    """Fill results and the cache from computed predictions (lock held again).

    Cache fills go through the :func:`_still_installed` stale-swap guard;
    the computed predictions themselves are always returned — the request
    was routed and served by the model that was live when it was planned.
    """
    with obs.span("serving.commit"):
        for (building_id, model, miss), floor_predictions in zip(plan.misses,
                                                                 outputs):
            cacheable = (config.enable_cache
                         and _still_installed(registry, building_id, model))
            for position, floor_prediction in zip(miss, floor_predictions):
                prediction = BuildingPrediction(
                    record_id=floor_prediction.record_id,
                    building_id=building_id,
                    floor=floor_prediction.floor,
                    mac_overlap=routed[position].overlap,
                    distance=floor_prediction.distance)
                results[position] = prediction
                if cacheable:
                    cache.put(plan.keys[position], prediction,
                              building_id=building_id)
        telemetry.increment("predictions_total", plan.served)


def _dispatch_batch(batch: Batch, *, lock,
                    registry: MultiBuildingFloorService,
                    cache: PredictionCache, telemetry: ServingTelemetry,
                    config: ServingConfig,
                    buffer_result: Callable[[ServingResult], None],
                    pool: ComputePool | None = None) -> None:
    """Run one released micro-batch through the engine; buffer its results.

    Shared by the one-lock service and every shard, for the same
    byte-identity reason as the :func:`_plan_positions` /
    :func:`_compute_plan` / :func:`_commit_plan` trio — and with the same
    locking shape: the caller must *not* hold ``lock``; it is taken only to
    snapshot the model and to commit results, while the engine computation
    in between runs unlocked (online inference is mutation-free).  A batch
    whose building vanished between release and dispatch surfaces as
    rejected results, exactly as an eviction of the still-queued requests
    would have; a batch overlapping a hot swap is served wholly by the
    snapshot model — the building's *current* model at dispatch time, which
    may post-date the routing decision — and skips the cache fill (the
    stale-put guard).  If that newer model can no longer attribute the
    batch's records (their MACs left the vocabulary), the whole batch
    surfaces as rejected instead of the exception escaping and losing the
    sibling results.  ``buffer_result`` is invoked under ``lock`` so the
    owner's completion buffer may be swapped concurrently by
    ``poll``/``drain``.
    """
    def reject_all(error: str) -> None:
        with lock:
            for record, _, _, request_id in batch.items:
                telemetry.increment("rejections_total")
                buffer_result(ServingResult(record_id=record.record_id,
                                            prediction=None,
                                            source="rejected", error=error,
                                            trace_id=request_id))

    with obs.span("serving.dispatch") as dispatch_span:
        dispatch_span.set("building", batch.building_id)
        dispatch_span.set("reason", batch.reason)
        dispatch_span.set("size", len(batch.items))
        telemetry.observe("queue_wait_seconds", batch.queued_seconds)
        with lock:
            try:
                model = registry.model_for(batch.building_id)
            except KeyError:
                reject_all(f"building {batch.building_id!r} was evicted "
                           "before the request was dispatched")
                return
        records = [record for record, _, _, _ in batch.items]
        if pool is None:
            failpoints.fire("serve.compute", building_id=batch.building_id)
            try:
                with telemetry.time("batch_seconds"):
                    floor_predictions = model.predict_batch(records,
                                                            independent=True)
            except UnknownEnvironmentError as error:
                reject_all(str(error))
                return
            telemetry.increment("batches_total")
            telemetry.increment("batched_records_total", len(records))
        else:
            # The parent decides the serve.compute hit (keeping the
            # process-global fault counter deterministic); the worker
            # computing the batch executes it.  A worker dying mid-batch
            # surfaces as retryable rejections — never a hang — while the
            # pool respawns the worker underneath.
            directives = failpoints.evaluate("serve.compute",
                                             building_id=batch.building_id)
            try:
                floor_predictions = pool.compute(
                    [(batch.building_id, model, records)],
                    directives=directives)
            except (UnknownEnvironmentError, WorkerCrashError) as error:
                reject_all(str(error))
                return
        telemetry.increment(f"batch_flush_{batch.reason}_total")
        telemetry.increment("predictions_total", len(records))
        with lock:
            cacheable = (config.enable_cache
                         and _still_installed(registry, batch.building_id,
                                              model))
            for (record, decision, key, request_id), floor_prediction in zip(
                    batch.items, floor_predictions):
                prediction = BuildingPrediction(
                    record_id=floor_prediction.record_id,
                    building_id=batch.building_id,
                    floor=floor_prediction.floor,
                    mac_overlap=decision.overlap,
                    distance=floor_prediction.distance)
                if cacheable and key is not None:
                    cache.put(key, prediction, building_id=batch.building_id)
                buffer_result(ServingResult(record_id=record.record_id,
                                            prediction=prediction,
                                            source="batch",
                                            trace_id=request_id))


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of the serving stack."""

    max_batch_size: int = 32
    max_delay_seconds: float = 0.05
    cache_entries: int = 4096
    cache_ttl_seconds: float | None = None
    rss_quantum: float = 1.0
    enable_cache: bool = True
    #: Cold-path compute processes.  0 (default) keeps today's in-process
    #: path, byte-for-byte; N >= 1 puts a persistent
    #: :class:`~repro.serving.pool.ComputePool` of N workers behind the
    #: plan/compute/commit split — plan and commit stay in-process under
    #: the serving locks, only the engine work crosses the process
    #: boundary, and predictions stay byte-identical either way.
    compute_workers: int = 0
    #: Worker start method: ``None`` → ``"spawn"`` (always safe to respawn
    #: after a crash).  ``"fork"`` starts workers far faster but forks a
    #: possibly multi-threaded parent on respawn; opt in deliberately.
    compute_start_method: str | None = None

    def __post_init__(self) -> None:
        # The other fields are validated by the components they configure;
        # the quantum would otherwise only fail on the first cached lookup.
        if self.rss_quantum <= 0.0:
            raise ValueError("rss_quantum must be positive")
        if self.compute_workers < 0:
            raise ValueError("compute_workers must be >= 0 "
                             "(0 disables the compute pool)")
        if self.compute_start_method is not None and self.compute_workers == 0:
            raise ValueError("compute_start_method is only meaningful with "
                             "compute_workers > 0")


@dataclass(frozen=True)
class ServingResult:
    """Outcome of one asynchronously submitted request."""

    record_id: str
    prediction: BuildingPrediction | None
    source: str  # "cache" | "batch" | "rejected"
    error: str | None = None
    #: Request ID minted at intake, carried through dispatch and every
    #: rejection path (mid-flight eviction, post-swap unattributable), so a
    #: rejected result can be correlated with logs and traces.
    trace_id: str | None = None

    @property
    def ok(self) -> bool:
        return self.prediction is not None


class FloorServingService:
    """Production serving stack over a multi-building GRAFICS registry."""

    def __init__(self, registry: MultiBuildingFloorService | None = None,
                 config: ServingConfig | None = None,
                 grafics_config: GraficsConfig | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.registry = registry or MultiBuildingFloorService(grafics_config)
        self.config = config or ServingConfig()
        self._clock = clock
        self._lock = threading.RLock()
        self.router = MacInvertedRouter.from_vocabularies(
            self.registry.vocabularies, min_overlap=self.registry.min_overlap)
        self.cache = PredictionCache(max_entries=self.config.cache_entries,
                                     ttl_seconds=self.config.cache_ttl_seconds,
                                     clock=clock)
        self.batcher = MicroBatcher(max_batch_size=self.config.max_batch_size,
                                    max_delay_seconds=self.config.max_delay_seconds,
                                    clock=clock)
        self.telemetry = ServingTelemetry(clock=clock)
        # Only a compute_workers > 0 config pays the worker-process
        # startup cost; the default stays pool-free and byte-identical.
        self.compute_pool: ComputePool | None = None
        if self.config.compute_workers > 0:
            self.compute_pool = ComputePool(
                self.config.compute_workers, telemetry=self.telemetry,
                start_method=self.config.compute_start_method)
        self._completed: list[ServingResult] = []
        # Deterministic request IDs (no RNG): minted at intake, threaded
        # through queued items into results and rejection paths.
        self._request_ids = itertools.count(1)

    def close(self) -> None:
        """Release the compute pool's worker processes, if any.

        Idempotent.  Close when done serving: pooled compute after close
        surfaces as :class:`~repro.serving.pool.WorkerCrashError`.  A
        service with ``compute_workers=0`` has nothing to release.
        """
        if self.compute_pool is not None:
            self.compute_pool.close()

    def __enter__(self) -> "FloorServingService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ----------------------------------------------------- building lifecycle
    @property
    def building_ids(self) -> list[str]:
        return self.registry.building_ids

    @property
    def grafics_config(self):
        """The GRAFICS configuration new and retrained models are built with."""
        return self.registry.config

    def vocabulary_for(self, building_id: str) -> frozenset[str]:
        """The attribution vocabulary of one trained building."""
        return self.registry.vocabulary_for(building_id)

    def model_for(self, building_id: str):
        """The live model of one trained building."""
        return self.registry.model_for(building_id)

    def export_registry(self) -> MultiBuildingFloorService:
        """The registry backing this service, for persistence checkpoints.

        Exists so callers (the stream checkpoint, operational tooling) can
        treat the one-lock and the sharded service uniformly —
        :meth:`repro.serving.sharding.ShardedServingService.export_registry`
        materialises the same view from its shards.
        """
        return self.registry

    def fit_building(self, dataset: FingerprintDataset,
                     labels: Mapping[str, int]) -> GRAFICS:
        """Train a building in place and register it for routing."""
        with self._lock:
            model = self.registry.fit_building(dataset, labels)
            self._register(dataset.building_id)
            return model

    def fit_corpus(self, datasets: Iterable[FingerprintDataset],
                   labels_by_building: Mapping[str, Mapping[str, int]]) -> None:
        for dataset in datasets:
            try:
                labels = labels_by_building[dataset.building_id]
            except KeyError:
                raise ValueError(
                    f"no labels provided for building {dataset.building_id!r}"
                ) from None
            self.fit_building(dataset, labels)

    def install_building(self, building_id: str, model: GRAFICS,
                         vocabulary: Iterable[str] | None = None) -> None:
        """Atomically (re)place a building's model — the hot-swap primitive.

        The registry entry, the router index and the cache are updated under
        one lock, so a concurrent ``predict`` sees either the old model or
        the new one, never a mix.  Requests still queued for the building
        were routed against the old vocabulary; they are re-routed against
        the new one (and re-queued, dispatched or rejected accordingly).  A
        batch already released for dispatch when the swap lands is served by
        the building's model as snapshotted at dispatch time — the same
        "whichever model was installed when it was planned" semantics as
        the synchronous path — with records the newer model cannot
        attribute surfacing as rejected results rather than crashing the
        dispatch.
        """
        # Fired before the lock: a kill here models a process dying on the
        # way into a swap — the installed model must remain the old one.
        failpoints.fire("swap.install", building_id=building_id)
        full_batches: list[Batch] = []
        with self._lock:
            self.registry.install_model(building_id, model,
                                        vocabulary=vocabulary)
            self.router.add_building(building_id,
                                     self.registry.vocabulary_for(building_id))
            self.cache.invalidate_building(building_id)
            self.telemetry.increment("hot_swaps_total")
            evicted = self.batcher.evict(building_id)
            for record, _, _, request_id in evicted:
                # Re-routed requests keep their original intake ID so the
                # eventual result is attributable to the original submit.
                result, full = self._route_and_enqueue(record,
                                                       request_id=request_id)
                if result is not None:
                    self._completed.append(result)
                if full is not None:
                    full_batches.append(full)
        log_event("hot_swap_installed", building_id=building_id,
                  requeued=len(evicted))
        for batch in full_batches:
            self._dispatch(batch)

    def load_building(self, building_id: str, path: str | Path) -> GRAFICS:
        """Hot-swap a building from a model saved via the persistence layer."""
        model = load_model(path)
        self.install_building(building_id, model)
        return model

    def retrain_building(self, dataset: FingerprintDataset,
                         labels: Mapping[str, int],
                         model_path: str | Path | None = None,
                         warm_start: bool = False,
                         kernel: str | None = None,
                         sampler_mode: str | None = None) -> GRAFICS:
        """Retrain one building off to the side, then hot-swap it in.

        Training happens on a fresh :class:`GRAFICS` instance, so the live
        model keeps serving until the replacement is ready.  When
        ``model_path`` is given the new model is round-tripped through
        :func:`save_model`/:func:`load_model` (written to a temporary file
        and atomically renamed), so what goes live is exactly what a later
        restart would load from disk.  ``warm_start=True`` initialises the
        embedding from the building's currently installed model (nodes
        surviving the retrain resume from their learned vectors) — the
        continuous-learning path, where retrains happen on a sliding window
        that mostly overlaps the previous one.  ``kernel`` optionally selects
        the training kernel for this retrain (``"fused"`` halves fit time;
        the model records the kernel, so its online path keeps using it);
        ``sampler_mode`` likewise selects the cold-path negative-sampler
        mode (``"delta"`` skips the per-predict O(V) alias rebuild) for the
        installed model's serving traffic.
        """
        previous_embedding = None
        if warm_start and dataset.building_id in self.registry.building_ids:
            previous_embedding = self.registry.model_for(
                dataset.building_id).embedding
        with self.telemetry.time("retrain_seconds"):
            model = GRAFICS(self.registry.config)
            model.fit(dataset, labels, warm_start=previous_embedding,
                      kernel=kernel, sampler_mode=sampler_mode)
            if model_path is not None:
                model_path = Path(model_path)
                _atomic_save_model(model, model_path)
                model = load_model(model_path)
        self.install_building(dataset.building_id, model,
                              vocabulary=frozenset(dataset.macs))
        return model

    def evict_building(self, building_id: str) -> None:
        """Remove a building from serving entirely.

        Requests already queued for the building can no longer be served;
        they surface from the next :meth:`poll`/:meth:`drain` as rejected
        results rather than crashing the dispatch or vanishing.
        """
        with self._lock:
            self.registry.remove_building(building_id)
            self.router.remove_building(building_id)
            self.cache.invalidate_building(building_id)
            for record, _, _, request_id in self.batcher.evict(building_id):
                self.telemetry.increment("rejections_total")
                self._completed.append(ServingResult(
                    record_id=record.record_id, prediction=None,
                    source="rejected",
                    error=f"building {building_id!r} was evicted before the "
                          "request was dispatched",
                    trace_id=request_id))

    def _register(self, building_id: str) -> None:
        self.router.add_building(building_id,
                                 self.registry.vocabulary_for(building_id))
        self.cache.invalidate_building(building_id)

    # ------------------------------------------------------ synchronous path
    def predict(self, record: SignalRecord) -> BuildingPrediction:
        """Route, consult the cache and predict one sample synchronously."""
        return self.predict_batch([record])[0]

    def predict_batch(self, records: Sequence[SignalRecord]) -> list[BuildingPrediction]:
        """Predict several samples, grouped per attributed building.

        Every prediction actually computed is identical to the sequential
        ``MultiBuildingFloorService.predict`` reference path, in input
        order; with the cache enabled, a record whose *quantised* fingerprint
        (RSS rounded to ``rss_quantum``) matches a cached entry is served
        that entry instead of being recomputed — exact re-submissions always
        get the identical prediction, while records differing only by
        sub-quantum RSS noise deliberately share one.  Set
        ``enable_cache=False`` (or shrink ``rss_quantum``) for strict
        per-record recomputation.  Raises :class:`UnknownEnvironmentError`
        on the first record that cannot be attributed, mirroring the
        reference.

        Locking: routing and cache lookups hold the service lock, the
        engine computation does not (online inference is mutation-free), so
        concurrent cold predictions proceed in parallel and never stall
        swaps or evictions.  A request overlapping a hot swap is served
        entirely by whichever model was installed when it was planned.
        """
        records = list(records)
        with self.telemetry.time("request_seconds"), \
                obs.span("serving.request") as request_span:
            request_span.set("records", len(records))
            results: list[BuildingPrediction | None] = [None] * len(records)
            with self._lock:
                self.telemetry.increment("requests_total", len(records))
                routed = []
                with obs.span("serving.route"):
                    for record in records:
                        try:
                            routed.append(self.router.route(record))
                        except UnknownEnvironmentError:
                            self.telemetry.increment("rejections_total")
                            raise
                plan = _plan_positions(records, routed, range(len(records)),
                                       registry=self.registry,
                                       cache=self.cache,
                                       telemetry=self.telemetry,
                                       config=self.config, results=results)
            # Engine work runs without the lock: cold predictions are
            # mutation-free, so they neither need the write lock nor bump
            # the model graph's version, and concurrent cold traffic on
            # this service no longer serialises behind the cache/batcher
            # bookkeeping.  Each miss group is served by the model that
            # was installed when it was planned (never a mix of two).
            outputs = _compute_plan(records, plan, telemetry=self.telemetry,
                                    pool=self.compute_pool)
            with self._lock:
                _commit_plan(routed, plan, outputs, registry=self.registry,
                             cache=self.cache, telemetry=self.telemetry,
                             config=self.config, results=results)
            return results

    # ---------------------------------------------------- micro-batched path
    def submit(self, record: SignalRecord) -> ServingResult | None:
        """Submit one request to the micro-batching intake.

        Returns immediately with a :class:`ServingResult` when the request
        is served from cache or rejected; returns ``None`` when it was
        queued (its result will surface from :meth:`poll` or
        :meth:`drain`).  A size-triggered batch is dispatched inline —
        with the lock released during the engine computation, like the
        synchronous path, so a full batch never stalls other intake.
        """
        with self._lock:
            self.telemetry.increment("requests_total")
            result, full = self._route_and_enqueue(record)
        if full is not None:
            self._dispatch(full)
        return result

    def _route_and_enqueue(
            self, record: SignalRecord, request_id: str | None = None,
    ) -> tuple[ServingResult | None, Batch | None]:
        """Route one record through cache/batcher (lock held by caller).

        Returns ``(result, full_batch)``: a result when the record was
        served from cache or rejected, and/or the batch its enqueue filled
        — which the caller must dispatch *after* releasing the lock.  A
        fresh request ID is minted unless the caller passes the one a
        previous intake already assigned (the hot-swap re-route path).
        """
        if request_id is None:
            request_id = f"req{next(self._request_ids):06d}"
        try:
            decision = self.router.route(record)
        except UnknownEnvironmentError as error:
            self.telemetry.increment("rejections_total")
            return ServingResult(record_id=record.record_id,
                                 prediction=None, source="rejected",
                                 error=str(error),
                                 trace_id=request_id), None

        key = None
        if self.config.enable_cache:
            key = fingerprint_key(decision.building_id, record,
                                  quantum=self.config.rss_quantum)
            cached = self.cache.get(key)
            if cached is not None:
                self.telemetry.increment("cache_hits_total")
                self.telemetry.increment("predictions_total")
                return ServingResult(
                    record_id=record.record_id,
                    prediction=replace(cached, record_id=record.record_id),
                    source="cache", trace_id=request_id), None
            self.telemetry.increment("cache_misses_total")

        full = self.batcher.enqueue(decision.building_id,
                                    (record, decision, key, request_id))
        return None, full

    def poll(self) -> list[ServingResult]:
        """Dispatch deadline-expired batches and collect finished results."""
        with self._lock:
            due = list(self.batcher.due())
        for batch in due:
            self._dispatch(batch)
        with self._lock:
            completed, self._completed = self._completed, []
            return completed

    def drain(self) -> list[ServingResult]:
        """Flush every pending batch and collect all finished results."""
        with self._lock:
            pending = list(self.batcher.drain())
        for batch in pending:
            self._dispatch(batch)
        with self._lock:
            completed, self._completed = self._completed, []
            return completed

    @property
    def pending_count(self) -> int:
        return self.batcher.pending_count

    def _dispatch(self, batch: Batch) -> None:
        """Three-phase dispatch of a released batch (must not hold the lock)."""
        # The buffer callback re-reads ``self._completed`` on every call
        # (under the lock): ``poll``/``drain`` swap the list out, and a
        # result committed after a swap must land in the *new* buffer.
        _dispatch_batch(batch, lock=self._lock, registry=self.registry,
                        cache=self.cache, telemetry=self.telemetry,
                        config=self.config,
                        buffer_result=lambda r: self._completed.append(r),
                        pool=self.compute_pool)

    # ---------------------------------------------------------- observability
    def telemetry_snapshot(self) -> dict[str, object]:
        """Telemetry counters/latencies plus cache and batcher gauges."""
        snapshot = self.telemetry.snapshot()
        snapshot["cache"] = self.cache.stats()
        snapshot["pending"] = self.batcher.pending_by_building()
        snapshot["buildings"] = len(self.registry.building_ids)
        if self.compute_pool is not None:
            snapshot["compute_pool"] = self.compute_pool.stats()
        return snapshot
