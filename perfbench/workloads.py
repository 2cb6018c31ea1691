"""The three workloads: bulk cold serving, open-loop intake, stream retrain.

Each ``run_*`` function returns ``(result, details)``: ``result`` holds
``correct``, ``attempted``, ``failed`` and ``metrics`` as the last output
line reports them; ``details`` is everything else worth keeping (sample
counts, generator lateness, secondary figures).

Untraced runs (``trace=False``) set up ``SETUP_REPEATS`` times, report
the median set-up time and measure the last set-up for ``seconds``.
Traced runs measure twice for ``seconds / 2``: once plain, for the
tracing-overhead baseline, and once on a fresh set-up with the layer
proxies and the program's spans on.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import random
import time
from collections import Counter
from dataclasses import replace

from repro.core.inference import UnknownEnvironmentError
from repro.faults import failpoints
from repro.faults.plan import FaultPlan
from repro.serving import FloorServingService, ServingConfig
from repro.serving.cache import fingerprint_key
from repro.serving.pool import MIN_CHUNK_RECORDS, WorkerCrashError
from repro.serving.sharding import ShardedServingService
from repro.stream import (
    ContinuousLearningPipeline,
    DriftConfig,
    SchedulerConfig,
    StreamConfig,
    WindowConfig,
)

from common import (
    SETUP_REPEATS,
    HostSpeed,
    floor_scores,
    jittered,
    median,
    peak_rss_mb,
    percentile,
)
from layers import Instrumentation

NPROC = os.cpu_count() or 1
RSS_QUANTUM = ServingConfig().rss_quantum


def _e2e(setup_s, micro_f, macro_f, records_per_s, latencies_s,
         within_limit, tail: float = 99.0, factor: float = 1.0) -> dict:
    """The end-to-end metrics every workload reports.

    ``tail`` is the percentile ``tail_ms`` reports: p99, or lower where a
    run yields too few samples to leave ten beyond p99.  Medians go to the
    details: the intake median is a cache hit, and a sub-0.1 ms Python
    path read up to twice as slow in one run as in another.  ``factor``
    is the closed loops' :attr:`HostSpeed.factor`: throughput and latency
    are scaled to the reference host speed.
    """
    values = {
        "setup_s": (setup_s, "s"),
        "micro_f": (micro_f, "ratio"),
        "macro_f": (macro_f, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "records_per_s": (records_per_s * factor, "records/s"),
        "tail_ms": (1e3 * percentile(latencies_s, tail) / factor, "ms"),
        "within_limit": (within_limit, "share"),
    }
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in values.items()}


#: Held-out records with fewer readings are not used as never-seen
#: sources: jitter gives them too few distinct cache keys to stay unique
#: over a run (the stream's ``MinReadingsFilter`` drops them too).
MIN_READINGS = 3
#: Jitter redraws allowed before a source record counts as exhausted.
MAX_REDRAWS = 1000


class ColdSource:
    """Never-seen fingerprints: held-out records, jittered, fresh ids."""

    def __init__(self, fleet, seed: int, prefix: str,
                 building_id: str | None = None,
                 order_seed: int | None = None) -> None:
        self.fleet = fleet
        self.rng = random.Random(f"{seed}:{prefix}")
        self.records = [(b, r) for b, r in fleet.held_out()
                        if len(r.rss) >= MIN_READINGS
                        and building_id in (None, b)]
        order = (self.rng if order_seed is None
                 else random.Random(f"{order_seed}:{prefix}"))
        order.shuffle(self.records)
        self.prefix = prefix
        self.issued = 0
        self.truth: dict = {}

    def take(self, count: int) -> list:
        out = []
        for _ in range(count):
            building_id, record = self.records[self.issued
                                               % len(self.records)]
            record_id = f"{self.prefix}{self.issued:07d}"
            self.issued += 1
            self.truth[record_id] = (building_id, record.floor)
            for _ in range(MAX_REDRAWS):
                # Redraw the rare copy that quantises onto a fingerprint
                # already issued in this run: it would be a cache hit.
                copy = jittered(record, record_id, self.rng)
                key = fingerprint_key(building_id, copy, quantum=RSS_QUANTUM)
                if key not in self.fleet.issued_keys:
                    break
            else:
                raise RuntimeError(
                    f"no unseen jitter left for {record.record_id!r}")
            self.fleet.issued_keys.add(key)
            out.append(copy)
        return out


def _timed_setups(build, repeats: int):
    """Run ``build`` ``repeats`` times; keep the last, close the others."""
    seconds, built = [], None
    for _ in range(repeats):
        if built is not None:
            built.close()
        started = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - started)
    return built, median(seconds), seconds


def _scores(truth: dict, predictions: dict) -> tuple[float, float]:
    """Micro/macro-F over every record in ``truth``; unanswered is a miss."""
    return floor_scores(truth, predictions) if truth else (0.0, 0.0)


# ------------------------------------------------------------------ bulk_cold
BULK_BATCH = 64
BULK_LIMIT_S = 0.5
#: A 20 s run yields 130-180 batches: p90 is the highest percentile
#: with ten batches beyond it.
BULK_TAIL = 90.0
IDENTITY_SAMPLE = 48
SELFCHECK_BATCHES = 6
SELFCHECK_DELAY_S = 0.1


def _build_bulk(fleet, seed: int):
    service = FloorServingService(registry=fleet.fit_registry(),
                                  config=ServingConfig(compute_workers=NPROC))
    # Warm-up: one batch per building, large enough to be chunked across
    # every worker, ships each model snapshot to each worker.
    for building_id in fleet.building_ids:
        warm = ColdSource(fleet, seed, f"warm-{building_id}-", building_id)
        service.predict_batch(warm.take(MIN_CHUNK_RECORDS * NPROC * 2))
    return service


def _bulk_loop(service, source: ColdSource, seconds: float,
               speed: HostSpeed, pump=None):
    """Returns batch latencies, predictions, records attempted and failed,
    and records answered within ``BULK_LIMIT_S``.  ``speed`` is probed
    before every batch, while the pool is idle."""
    latencies, predictions = [], {}
    attempted = failed = within = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        speed.probe()
        batch = source.take(BULK_BATCH)
        attempted += len(batch)
        started = time.perf_counter()
        try:
            served = service.predict_batch(batch)
        except (UnknownEnvironmentError, WorkerCrashError):
            failed += len(batch)
            served = []
        latencies.append(time.perf_counter() - started)
        if latencies[-1] <= BULK_LIMIT_S:
            within += len(served)
        for prediction in served:
            predictions[prediction.record_id] = (prediction.building_id,
                                                 prediction.floor)
        if pump is not None:
            pump()
    return latencies, predictions, attempted, failed, within


def _identity_check(service, fleet, seed: int) -> bool:
    """Pooled predictions equal in-process ones, byte for byte."""
    sample = ColdSource(fleet, seed, "ident-").take(IDENTITY_SAMPLE)
    pooled = service.predict_batch(sample)
    reference = FloorServingService(registry=service.registry,
                                    config=ServingConfig())
    expected = reference.predict_batch(sample)
    return [pickle.dumps(p) for p in pooled] == \
        [pickle.dumps(p) for p in expected]


def _attribution_check(service, source: ColdSource, inst) -> dict:
    """An injected ``serve.compute`` delay must land in the compute layers."""
    ledger = inst.ledger

    def layer_times() -> dict:
        return {"compute": ledger.busy["pool"] + ledger.busy["inference"],
                "front": ledger.busy["router"] + ledger.busy["cache"]
                + ledger.busy["service"]}

    def one_pass() -> dict:
        before = layer_times()
        for _ in range(SELFCHECK_BATCHES):
            service.predict_batch(source.take(BULK_BATCH))
        after = layer_times()
        return {name: after[name] - before[name] for name in after}

    plain = one_pass()
    with failpoints.active(FaultPlan(seed=0).delay("serve.compute",
                                                   SELFCHECK_DELAY_S)):
        delayed = one_pass()
    injected = SELFCHECK_DELAY_S * SELFCHECK_BATCHES
    compute_share = (delayed["compute"] - plain["compute"]) / injected
    front_share = (delayed["front"] - plain["front"]) / injected
    return {"injected_s": injected, "compute_share": compute_share,
            "front_share": front_share,
            "ok": compute_share > 0.5 and abs(front_share) < 0.1}


def run_bulk_cold(fleet, seed: int, seconds: float, trace: bool):
    details: dict = {"batch_records": BULK_BATCH, "compute_workers": NPROC}
    if not trace:
        service, setup_s, setups = _timed_setups(
            lambda: _build_bulk(fleet, seed), SETUP_REPEATS)
        details["pool_start_method"] = service.compute_pool.start_method
        try:
            source = ColdSource(fleet, seed, "bulk-")
            speed = HostSpeed()
            latencies, predictions, attempted, failed, within = _bulk_loop(
                service, source, seconds, speed)
            identical = _identity_check(service, fleet, seed)
            hits = service.telemetry_snapshot()["counters"].get(
                "cache_hits_total", 0)
        finally:
            service.close()
        micro_f, macro_f = _scores(source.truth, predictions)
        served = attempted - failed
        metrics = _e2e(setup_s, micro_f, macro_f, served / sum(latencies),
                       latencies, within / attempted, tail=BULK_TAIL,
                       factor=speed.factor)
        details.update(setups_s=setups, batches=len(latencies),
                       host_speed=speed.summary(),
                       raw_records_per_s=served / sum(latencies),
                       batch_ms={q: 1e3 * percentile(latencies, q)
                                 for q in (50, 90, 95, 99)},
                       pool_identical=identical, cache_hits=hits)
        correct = identical and hits == 0 and len(predictions) == served
        return _result(correct, attempted, failed, metrics), details

    half = seconds / 2.0
    service = _build_bulk(fleet, seed)
    plain_speed, traced_speed = HostSpeed(), HostSpeed()
    try:
        plain, _, plain_attempted, _, _ = _bulk_loop(
            service, ColdSource(fleet, seed, "bulk-"), half, plain_speed)
    finally:
        service.close()
    inst = Instrumentation()
    inst.start()
    try:
        service = _build_bulk(fleet, seed)
        details["pool_start_method"] = service.compute_pool.start_method
        try:
            inst.after_setup(service)
            source = ColdSource(fleet, seed, "traced-")
            traced, predictions, attempted, failed, _ = _bulk_loop(
                service, source, half, traced_speed, pump=inst.spans.pump)
            overhead = _ratio(
                sum(traced) / attempted / traced_speed.factor,
                sum(plain) / plain_attempted / plain_speed.factor)
            metrics = inst.metrics(service, overhead=overhead)
            check = _attribution_check(service, source, inst)
        finally:
            service.close()
    finally:
        inst.stop()
    details.update(attribution_check=check)
    correct = check["ok"] and len(predictions) == attempted - failed
    return _result(correct, attempted, failed, metrics), details


# ---------------------------------------------------------------- intake_open
#: Fixed arrival rates (requests/s), sized from measured capacity: the
#: in-process cold path serves ~380 records/s on a 2-CPU host, so at 10%
#: never-seen traffic ``hi`` keeps the compute path about an eighth busy.
INTAKE_RATES = {"lo": 200.0, "hi": 450.0}
HOT_SET = 256
#: Share of requests that repeat a hot-set entry.  With 80% hits about
#: two requests in five were cold or queued behind cold compute, and the
#: ``hi`` p99 spread by 5-10% between runs; with 90% it spread by 2-3%.
HOT_SHARE = 0.9
ZIPF_EXPONENT = 1.1
INTAKE_LIMIT_S = 0.1


def _hot_set(fleet, seed: int) -> tuple[list, dict]:
    """The cached hot set, most popular first.

    Which records are hot, and their popularity ranks, come from the fleet
    seed, so every run seed serves equally large popular fingerprints (a
    hit costs O(readings) and the top ten ranks take half the hits); the
    run seed only jitters them.
    """
    source = ColdSource(fleet, seed, "hot-", order_seed=fleet.seed)
    return source.take(HOT_SET), source.truth


def _build_intake(fleet, hot: list):
    service = FloorServingService(registry=fleet.fit_registry(),
                                  config=ServingConfig())
    service.predict_batch(hot)         # warm the cache with the hot set
    return service


def _schedule(fleet, seed: int, hot: list, phase: str, rate: float,
              seconds: float, truth: dict) -> list:
    """Seeded Poisson arrivals: ``(due_offset_s, record, fingerprint)``.

    ``fingerprint`` is the id whose ground truth scores the request: the
    hot-set entry a repeat copies, or the never-seen record itself.
    """
    rng = random.Random(f"{seed}:{phase}:arrivals")
    cold = ColdSource(fleet, seed, f"{phase}-cold-")
    cum_weights = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(hot))))
    arrivals, offset, n = [], 0.0, 0
    while True:
        offset += rng.expovariate(rate)
        if offset >= seconds:
            break
        if rng.random() < HOT_SHARE:
            source = rng.choices(hot, cum_weights=cum_weights)[0]
            record = replace(source, record_id=f"{phase}-hot-{n:07d}")
            fingerprint = source.record_id
        else:
            record = cold.take(1)[0]
            fingerprint = record.record_id
            truth[fingerprint] = cold.truth[fingerprint]
        arrivals.append((offset, record, fingerprint))
        n += 1
    return arrivals


def _wait_until(deadline: float) -> None:
    """Busy-wait until ``deadline``.

    The generator never sleeps, so sleep granularity cannot delay a send
    and every request finds the CPU awake.  The spin shares its thread
    with the service's in-process compute, so it takes no CPU from the
    system under test.
    """
    while time.perf_counter() < deadline:
        pass


def _intake_phase(service, arrivals: list, pump=None) -> dict:
    """Drive one open-loop phase; time each request from when it was due.

    Floors are scored once per distinct fingerprint: every repeat of a hot
    entry is served the same cached prediction.  ``service_s`` is the time
    spent inside the service's ``submit``/``poll``/``drain`` calls.
    """
    clock = time.perf_counter
    start = clock() + 0.01
    due, fingerprints = {}, {}
    latency, ok_latency, outcome, lateness = {}, {}, Counter(), []
    hit_latency = []
    predictions = {}
    service_s = 0.0

    def call(method, *args):
        nonlocal service_s
        began = clock()
        try:
            return method(*args)
        finally:
            service_s += clock() - began

    def complete(results, at: float) -> None:
        for result in results:
            if result.record_id in latency:
                outcome["duplicate"] += 1
                continue
            latency[result.record_id] = at - due[result.record_id]
            outcome[result.source] += 1
            if result.source == "cache":
                hit_latency.append(latency[result.record_id])
            if result.ok:
                ok_latency[result.record_id] = latency[result.record_id]
                predictions[fingerprints[result.record_id]] = (
                    result.prediction.building_id, result.prediction.floor)

    for offset, record, fingerprint in arrivals:
        due_at = start + offset
        while True:
            deadline = service.batcher.next_deadline()
            if deadline is None or deadline >= due_at:
                break
            _wait_until(deadline)
            complete(call(service.poll), clock())
        _wait_until(due_at)
        sent = clock()
        lateness.append(sent - due_at)
        due[record.record_id] = due_at
        fingerprints[record.record_id] = fingerprint
        result = call(service.submit, record)
        if result is not None:
            complete([result], clock())
        else:
            complete(call(service.poll), clock())
        if pump is not None:
            pump()
    while service.pending_count:
        deadline = service.batcher.next_deadline()
        if deadline is not None:
            _wait_until(deadline)
        complete(call(service.poll), clock())
    complete(call(service.drain), clock())
    ended = clock()
    sent = len(arrivals)
    ok = list(ok_latency.values())
    within = sum(1 for seconds in ok if seconds <= INTAKE_LIMIT_S)
    return {"sent": sent, "answered": len(latency), "ok": len(ok),
            "latencies": list(latency.values()),
            "within_limit": within / sent if sent else 0.0,
            "records_per_s": len(ok) / (ended - start),
            "service_s": service_s,
            "fingerprints": set(fingerprints.values()),
            "predictions": predictions, "outcome": dict(outcome),
            "hit_latencies": hit_latency,
            "lateness_ms": {"p50": 1e3 * percentile(lateness, 50),
                            "p99": 1e3 * percentile(lateness, 99),
                            "max": 1e3 * max(lateness)}
            if lateness else {},
            "exactly_once": (outcome["duplicate"] == 0
                             and len(latency) == sent)}


def _phase_summary(phase: dict) -> dict:
    return {"sent": phase["sent"], "ok": phase["ok"],
            "p50_ms": 1e3 * percentile(phase["latencies"], 50),
            "p99_ms": 1e3 * percentile(phase["latencies"], 99),
            "hit_p50_ms": 1e3 * percentile(phase["hit_latencies"], 50),
            "within_limit": phase["within_limit"],
            "records_per_s": phase["records_per_s"],
            "service_ms_per_request": 1e3 * _service_s_per_request([phase]),
            "outcome": phase["outcome"],
            "generator_lateness_ms": phase["lateness_ms"]}


def _service_s_per_request(phases) -> float:
    return (sum(phase["service_s"] for phase in phases)
            / max(1, sum(phase["sent"] for phase in phases)))


def _intake_scores(truth: dict, phases) -> tuple[float, float]:
    """F over every distinct fingerprint sent in any phase."""
    predictions, sent = {}, set()
    for phase in phases:
        predictions.update(phase["predictions"])
        sent |= phase["fingerprints"]
    return _scores({fp: truth[fp] for fp in sent}, predictions)


def _intake_phases(service, fleet, seed: int, hot: list, seconds: float,
                   truth: dict, tag: str, pump=None) -> dict:
    phases = {}
    for name, rate in INTAKE_RATES.items():
        arrivals = _schedule(fleet, seed, hot, f"{tag}{name}", rate,
                             seconds / len(INTAKE_RATES), truth)
        phases[name] = _intake_phase(service, arrivals, pump=pump)
    return phases


def run_intake_open(fleet, seed: int, seconds: float, trace: bool):
    details: dict = {"rates": INTAKE_RATES, "hot_set": HOT_SET,
                     "hot_share": HOT_SHARE, "limit_s": INTAKE_LIMIT_S}
    hot, truth = _hot_set(fleet, seed)
    if not trace:
        service, setup_s, setups = _timed_setups(
            lambda: _build_intake(fleet, hot), SETUP_REPEATS)
        phases = _intake_phases(service, fleet, seed, hot, seconds, truth,
                                "")
        hi = phases["hi"]
        micro_f, macro_f = _intake_scores(truth, phases.values())
        metrics = _e2e(setup_s, micro_f, macro_f, hi["records_per_s"],
                       hi["latencies"], hi["within_limit"])
        attempted = sum(p["sent"] for p in phases.values())
        failed = attempted - sum(p["ok"] for p in phases.values())
        details.update(setups_s=setups, phases={
            name: _phase_summary(phase) for name, phase in phases.items()})
        correct = all(p["exactly_once"] for p in phases.values())
        return _result(correct, attempted, failed, metrics), details

    half = seconds / 2.0
    service = _build_intake(fleet, hot)
    plain = _intake_phases(service, fleet, seed, hot, half, truth, "plain-")
    inst = Instrumentation()
    inst.start()
    try:
        service = _build_intake(fleet, hot)
        inst.after_setup(service)
        phases = _intake_phases(service, fleet, seed, hot, half, truth, "",
                                pump=inst.spans.pump)
        overhead = _ratio(_service_s_per_request(phases.values()),
                          _service_s_per_request(plain.values()))
        metrics = inst.metrics(service, overhead=overhead)
    finally:
        inst.stop()
    attempted = sum(p["sent"] for p in phases.values())
    failed = attempted - sum(p["ok"] for p in phases.values())
    details.update(phases={name: _phase_summary(phase)
                           for name, phase in phases.items()})
    correct = all(p["exactly_once"] for p in phases.values())
    return _result(correct, attempted, failed, metrics), details


# -------------------------------------------------------------- stream_retrain
STREAM_SHARDS = 4
STREAM_WINDOW = 256
STREAM_CADENCE = 400
STREAM_MIN_WINDOW = 64
LABEL_EVERY = 3
#: Global record index of building ``b``'s AP-churn burst:
#: ``BURST_FIRST + b * BURST_GAP``.  Half its MACs are renamed from there on.
BURST_FIRST = 400
BURST_GAP = 200
STREAM_LIMIT_S = 0.1
#: A record these ingest stages reject is a failed prediction; the quality
#: filters' drops (too few readings, out of bounds, near duplicate) are by
#: design and leave the record unscored.
FAILED_STAGES = ("router", "window")
#: p99 of a ``process()`` call is set by the few calls that collide with
#: a background fit and spread by 22% between runs; p90 reads the same
#: contention (p90/p50 = 1.45-1.55) and spreads like the host's speed.
STREAM_TAIL = 90.0
#: The run goes past ``--seconds`` until every burst has swapped, for at
#: most this long; a burst that never swaps fails the run.
STREAM_GRACE_S = 30.0
#: micro_f and macro_f score the first this many stream records, a fixed
#: count past the last swap, so that a faster host, which streams more
#: post-swap records in ``--seconds``, does not read as better accuracy
#: (scored to the end of the run, micro-F rose with the run's speed:
#: 0.773 at 200 records/s, 0.805-0.813 at 265-283).  The untraced run
#: streams at least this many.
STREAM_SCORED = 3600
#: Every ``PROBE_EVERY``-th held-out record is a probe, never streamed;
#: each is scored as ``PROBE_COPIES`` differently jittered copies.
PROBE_EVERY = 4
PROBE_COPIES = 4
#: The host speed is probed before every this many ``process()`` calls
#: (about every 30 ms; a probe takes about 0.4 ms).
SPEED_PROBE_EVERY = 10


def _split_probes(fleet):
    """Per building: the stream's held-out pool and the probe set."""
    pools, probes = {}, {}
    for building_id in fleet.building_ids:
        records = list(fleet.splits[building_id].test_records)
        probes[building_id] = records[::PROBE_EVERY]
        pools[building_id] = [record for i, record in enumerate(records)
                              if i % PROBE_EVERY]
    return pools, probes


def _renames(fleet, min_overlap: float) -> dict:
    """Each building's churned MACs, drawn from the fleet seed.

    Half of a building's MACs churn, except that every held-out record
    keeps enough of the MACs its building was trained on for the router's
    ``min_overlap``.  A scan whose every AP was replaced belongs to no
    known building until a retrain, so the router rejects it by design;
    with such scans in the stream a run would fail a few records whatever
    the program did.  Which MACs churn decides which records the stale
    models can still serve; like the hot set, it is part of the fleet, so
    every run seed replays the same churn.
    """
    rng = random.Random(f"{fleet.seed}:churn")
    renames = {}
    for dataset in fleet.datasets:
        split = fleet.splits[dataset.building_id]
        trained = {mac for record in split.train_records
                   for mac in record.rss}
        kept: set = set()
        for record in split.test_records:
            need = (math.ceil(min_overlap * len(record.rss))
                    - len(kept.intersection(record.rss)))
            choices = sorted(trained.intersection(record.rss) - kept)
            kept.update(rng.sample(choices, max(0, min(need, len(choices)))))
        macs = sorted(set(dataset.macs) - kept)
        churned = rng.sample(macs, min(len(macs), len(dataset.macs) // 2))
        renames[dataset.building_id] = {mac: f"{mac}~churn" for mac in churned}
    return renames


def _build_stream(fleet, seed: int):
    service = ShardedServingService(registry=fleet.fit_registry(),
                                    config=ServingConfig(),
                                    num_shards=STREAM_SHARDS)
    # Churn checks wait for a full window, as DriftConfig documents: a
    # filling window's vocabulary is a subset of the trained one, and on
    # the large buildings the default 24-record warm-up reads that as
    # churn and retrains from a sliver of the building.
    pipeline = ContinuousLearningPipeline(service, StreamConfig(
        window=WindowConfig(max_records=STREAM_WINDOW),
        drift=DriftConfig(vocabulary_warmup_records=STREAM_WINDOW),
        scheduler=SchedulerConfig(retrain_every_records=STREAM_CADENCE,
                                  min_window_records=STREAM_MIN_WINDOW),
        retrain_workers=1, predict=True))
    for building_id in fleet.building_ids:
        warm = ColdSource(fleet, seed, f"warm-{building_id}-", building_id)
        service.predict_batch(warm.take(1))
    return pipeline


class _StreamRun:
    """One closed-loop replay of the round-robin crowdsourced stream."""

    def __init__(self, fleet, seed: int, tag: str, min_overlap: float) -> None:
        self.fleet = fleet
        self.buildings = fleet.building_ids
        self.pools, self.probes = _split_probes(fleet)
        self.renames = _renames(fleet, min_overlap)
        self.speed = HostSpeed()
        self.rng = random.Random(f"{seed}:{tag}stream")
        self.tag = tag
        self.burst_at = {b: BURST_FIRST + i * BURST_GAP
                         for i, b in enumerate(self.buildings)}
        self.burst_started: dict = {}
        self.swap_lag: dict = {}
        self.retrain_s: list = []
        self.latencies: list = []
        self.truth: dict = {}
        self.served: dict = {}
        self.rejected: Counter = Counter()
        self.failed_predictions = 0
        self.failed_retrains = 0
        self.processed = 0
        self.within_limit = 0

    def next_record(self):
        n = self.processed
        building_id = self.buildings[n % len(self.buildings)]
        pool = self.pools[building_id]
        base = pool[(n // len(self.buildings)) % len(pool)]
        rename = None
        if n >= self.burst_at[building_id]:
            rename = self.renames[building_id]
        record = jittered(base, f"{self.tag}s{n:07d}", self.rng, rename)
        if n < STREAM_SCORED:
            self.truth[record.record_id] = (building_id, base.floor)
        if n % LABEL_EVERY:
            record = replace(record, floor=None)
        return building_id, rename is not None, record

    def note(self, reports, service, now: float) -> None:
        for report in reports:
            if report.swapped:
                self.retrain_s.append(report.duration_seconds)
            elif (report.skipped_reason or "").startswith("retrain failed"):
                self.failed_retrains += 1
        for building_id, started in self.burst_started.items():
            if building_id in self.swap_lag:
                continue
            vocabulary = service.vocabulary_for(building_id)
            if any(mac in vocabulary
                   for mac in self.renames[building_id].values()):
                self.swap_lag[building_id] = now - started

    def run(self, pipeline, seconds: float, pump=None,
            min_records: int = 0) -> None:
        service = pipeline.service
        deadline = time.perf_counter() + seconds
        limit = deadline + STREAM_GRACE_S
        while time.perf_counter() < deadline or (
                (len(self.swap_lag) < len(self.buildings)
                 or self.processed < min_records)
                and time.perf_counter() < limit):
            building_id, churned, record = self.next_record()
            if self.processed % SPEED_PROBE_EVERY == 0:
                self.speed.probe()
            started = time.perf_counter()
            if churned and building_id not in self.burst_started:
                self.burst_started[building_id] = started
            result = pipeline.process(record)
            ended = time.perf_counter()
            self.latencies.append(ended - started)
            self.processed += 1
            failed = False
            if result.prediction is not None:
                self.served[record.record_id] = (
                    result.prediction.building_id, result.prediction.floor)
            elif result.accepted or result.rejected_by in FAILED_STAGES:
                failed = True
                self.failed_predictions += 1
            else:
                self.truth.pop(record.record_id, None)
            if not result.accepted:
                self.rejected[result.rejected_by] += 1
            if not failed and ended - started <= STREAM_LIMIT_S:
                self.within_limit += 1
            reports = list(result.completed_retrains)
            if result.retrain is not None:
                reports.append(result.retrain)
            if reports:
                self.note(reports, service, ended)
            if pump is not None:
                pump()
        self.note(pipeline.close(), service, time.perf_counter())

    def probe_scores(self, service) -> tuple[float, float, int, int]:
        """Micro/macro-F on the held-out probes, in the post-churn world.

        Returns the scores, with a rejected probe counted as a wrong
        floor, the number of probes and the number the service rejected.
        """
        truth, predictions = {}, {}
        rng = random.Random(f"{self.tag}probes")
        for building_id, records in self.probes.items():
            for i, record in enumerate(records * PROBE_COPIES):
                probe = jittered(record, f"{self.tag}probe-{building_id}-{i}",
                                 rng, self.renames[building_id])
                truth[probe.record_id] = (building_id, record.floor)
                try:
                    served = service.predict(probe)
                except UnknownEnvironmentError:
                    continue
                predictions[probe.record_id] = (served.building_id,
                                                served.floor)
        micro_f, macro_f = _scores(truth, predictions)
        return micro_f, macro_f, len(truth), len(truth) - len(predictions)

    def summary(self) -> dict:
        return {
            "swap_lag_s": median(self.swap_lag.values())
            if self.swap_lag else 0.0,
            "retrain_s": median(self.retrain_s) if self.retrain_s else 0.0,
        }


def run_stream_retrain(fleet, seed: int, seconds: float, trace: bool):
    details: dict = {"shards": STREAM_SHARDS, "window": STREAM_WINDOW,
                     "cadence": STREAM_CADENCE}
    if not trace:
        pipeline, setup_s, setups = _timed_setups(
            lambda: _build_stream(fleet, seed), SETUP_REPEATS)
        run = _StreamRun(fleet, seed, "", pipeline.service.min_overlap)
        run.run(pipeline, seconds, min_records=STREAM_SCORED)
        micro_f, macro_f = _scores(run.truth, run.served)
        probe_micro_f, probe_macro_f, probes, probe_failed = \
            run.probe_scores(pipeline.service)
        attempted = (run.processed + len(run.retrain_s) + run.failed_retrains
                     + probes)
        failed = (run.failed_predictions + run.failed_retrains
                  + probe_failed)
        handled = run.processed - run.failed_predictions
        metrics = _e2e(setup_s, micro_f, macro_f,
                       handled / sum(run.latencies), run.latencies,
                       run.within_limit / run.processed, tail=STREAM_TAIL,
                       factor=run.speed.factor)
        details.update(setups_s=setups, records=run.processed,
                       host_speed=run.speed.summary(),
                       raw_records_per_s=handled / sum(run.latencies),
                       churned_macs={b: len(r) for b, r in run.renames.items()},
                       call_ms={q: 1e3 * percentile(run.latencies, q)
                                for q in (50, 90, 95, 99)},
                       rejected_by=dict(run.rejected),
                       failed_predictions=run.failed_predictions,
                       probes=probes, probe_failed=probe_failed,
                       probe_micro_f=probe_micro_f,
                       probe_macro_f=probe_macro_f,
                       retrains=len(run.retrain_s),
                       swap_lags_s=run.swap_lag, **run.summary())
        correct = (len(run.swap_lag) == len(run.buildings)
                   and run.processed >= STREAM_SCORED)
        return _result(correct, attempted, failed, metrics), details

    half = seconds / 2.0
    pipeline = _build_stream(fleet, seed)
    min_overlap = pipeline.service.min_overlap
    plain = _StreamRun(fleet, seed, "plain-", min_overlap)
    plain.run(pipeline, half)
    inst = Instrumentation()
    inst.start()
    try:
        pipeline = _build_stream(fleet, seed)
        inst.after_setup(pipeline.service)
        inst.wrap_pipeline(pipeline)
        run = _StreamRun(fleet, seed, "", min_overlap)
        run.run(pipeline, half, pump=inst.spans.pump)
        overhead = _ratio(
            sum(run.latencies) / run.processed / run.speed.factor,
            sum(plain.latencies) / plain.processed / plain.speed.factor)
        metrics = inst.metrics(pipeline.service, pipeline,
                               stream=run.summary(), overhead=overhead)
    finally:
        inst.stop()
    attempted = run.processed + len(run.retrain_s) + run.failed_retrains
    failed = run.failed_predictions + run.failed_retrains
    details.update(records=run.processed, retrains=len(run.retrain_s),
                   rejected_by=dict(run.rejected),
                   failed_predictions=run.failed_predictions)
    correct = len(run.swap_lag) == len(run.buildings)
    return _result(correct, attempted, failed, metrics), details


# -------------------------------------------------------------------- helpers
def _ratio(traced: float, plain: float) -> float:
    """``(traced - plain) / plain``: the tracing overhead on one figure."""
    return (traced - plain) / plain if plain else 0.0


def _result(correct: bool, attempted: int, failed: int,
            metrics: dict) -> dict:
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}


WORKLOADS = {
    "bulk_cold": run_bulk_cold,
    "intake_open": run_intake_open,
    "stream_retrain": run_stream_retrain,
}
