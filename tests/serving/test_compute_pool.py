"""Process-pool cold path: pickle seams, byte-identity, lifecycle.

The compute pool's whole contract is "same bytes, more cores": plan and
commit stay in-process, the engine work crosses a process boundary, and
nothing about the predictions may change.  These tests pin that down from
three directions — the pickle seams the pool rides on (model snapshots,
serve plans, computed outputs), byte-identity of every serving mode
against the in-process path, and the pool's operational surface
(config gating, telemetry, worker restart, close).
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from serving_helpers import clone_registry, interleaved_probes, make_service  # noqa: E402

from repro.core.pipeline import GRAFICS  # noqa: E402
from repro.data import make_experiment_split, small_test_building  # noqa: E402
from repro.obs.health import HealthMonitor  # noqa: E402
from repro.obs.server import ObsServer  # noqa: E402
from repro.serving import (  # noqa: E402
    ComputePool,
    ServingConfig,
    ShardedServingService,
    WorkerCrashError,
)
from repro.serving.pool import MIN_CHUNK_RECORDS, _slice_bounds  # noqa: E402
from repro.serving.sharding import _ServePlan  # noqa: E402
from repro.serving.telemetry import ServingTelemetry  # noqa: E402

# Workers are started with fork throughout (milliseconds instead of a full
# interpreter start per worker); the dedicated spawn test below covers the
# default start method's pickle discipline end to end.
FORK = {"compute_workers": 2, "compute_start_method": "fork"}

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="compute-pool tests drive the fork start method")


def fitted_model(serving_corpus, building_id="bldg-north"):
    registry, _, training = serving_corpus
    dataset, labels = training[building_id]
    return GRAFICS(registry.config).fit(dataset, labels)


# --------------------------------------------------------------------------
# Satellite: pickle round-trip regression suite
# --------------------------------------------------------------------------
class TestPickleRoundTrips:
    def test_model_snapshot_predicts_byte_identically(self, serving_corpus):
        """A pickled model is a faithful snapshot: same prediction bytes."""
        _, held_out, _ = serving_corpus
        model = fitted_model(serving_corpus)
        probes = held_out["bldg-north"][:10]
        expected = model.predict_batch(list(probes), independent=True)
        clone = pickle.loads(pickle.dumps(model))
        got = clone.predict_batch(list(probes), independent=True)
        assert pickle.dumps(got) == pickle.dumps(expected)

    def test_serve_plan_round_trips(self, serving_corpus):
        """``_ServePlan`` — the object pinning compute to its snapshots —
        survives pickling with its model still predicting identically."""
        _, held_out, _ = serving_corpus
        model = fitted_model(serving_corpus)
        plan = _ServePlan(misses=[("bldg-north", model, [0, 2, 3])],
                          keys={1: "bldg-north|fp"}, served=4)
        clone = pickle.loads(pickle.dumps(plan))
        assert [(b, positions) for b, _, positions in clone.misses] == \
               [("bldg-north", [0, 2, 3])]
        assert clone.keys == plan.keys
        assert clone.served == plan.served
        probes = held_out["bldg-north"][:5]
        assert pickle.dumps(
            clone.misses[0][1].predict_batch(list(probes), independent=True)
        ) == pickle.dumps(model.predict_batch(list(probes), independent=True))

    def test_outputs_round_trip(self, serving_corpus):
        """Computed predictions come back through a pickle unchanged."""
        _, held_out, _ = serving_corpus
        model = fitted_model(serving_corpus)
        outputs = model.predict_batch(list(held_out["bldg-north"][:8]),
                                      independent=True)
        clone = pickle.loads(pickle.dumps(outputs))
        for original, restored in zip(outputs, clone):
            assert pickle.dumps(restored) == pickle.dumps(original)

    def test_spawn_context_round_trip(self, serving_corpus):
        """The default spawn start method — fresh interpreter, nothing
        inherited — computes byte-identical predictions from a shipped
        snapshot.  This is the satellite's named case: everything the
        worker needs must arrive through the pickle, or this test fails."""
        _, held_out, _ = serving_corpus
        model = fitted_model(serving_corpus)
        probes = held_out["bldg-north"][:6]
        expected = model.predict_batch(list(probes), independent=True)
        with ComputePool(1, start_method="spawn") as pool:
            got = pool.compute([("bldg-north", model, probes)])
        assert pickle.dumps(got) == pickle.dumps(expected)


# --------------------------------------------------------------------------
# Acceptance: pooled serving is byte-identical in every mode
# --------------------------------------------------------------------------
class TestPoolIdentity:
    def test_predict_and_predict_batch_identical(self, serving_corpus,
                                                 fake_clock):
        registry, held_out, _ = serving_corpus
        probes = interleaved_probes(held_out, per_building=8)
        control = make_service(registry, fake_clock, enable_cache=False)
        expected = control.predict_batch(probes)
        with make_service(registry, fake_clock, enable_cache=False,
                          **FORK) as pooled:
            assert pickle.dumps(pooled.predict_batch(probes)) == \
                   pickle.dumps(expected)
            singles = [pooled.predict(p) for p in probes[:4]]
            assert pickle.dumps(singles) == pickle.dumps(expected[:4])

    def test_identity_with_cache_enabled(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        probes = interleaved_probes(held_out, per_building=6)
        control = make_service(registry, fake_clock)
        with make_service(registry, fake_clock, **FORK) as pooled:
            # Two passes: the second is served from each service's cache,
            # which must have been filled with identical entries.
            for _ in range(2):
                assert pickle.dumps(pooled.predict_batch(probes)) == \
                       pickle.dumps(control.predict_batch(probes))

    def test_micro_batched_identical(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        probes = interleaved_probes(held_out, per_building=8)
        control = make_service(registry, fake_clock, max_batch_size=4)
        with make_service(registry, fake_clock, max_batch_size=4,
                          **FORK) as pooled:
            for service in (control, pooled):
                for probe in probes:
                    service.submit(probe)
            expected = {r.record_id: r for r in control.drain()}
            got = {r.record_id: r for r in pooled.drain()}
            assert got.keys() == expected.keys()
            for record_id, result in got.items():
                assert result.prediction == expected[record_id].prediction
                assert result.source == expected[record_id].source

    def test_identity_across_hot_swap(self, serving_corpus, fake_clock):
        """A swap bumps the generation: post-swap pooled predictions match
        a control service that swapped the same model in-process."""
        registry, held_out, training = serving_corpus
        probes = held_out["bldg-north"][:8]
        # A different seed, so the swapped-in model serves different bytes.
        config = registry.config
        replacement = GRAFICS(replace(
            config, embedding=replace(config.embedding, seed=1))).fit(
                *training["bldg-north"])
        control = make_service(registry, fake_clock, enable_cache=False)
        with make_service(registry, fake_clock, enable_cache=False,
                          **FORK) as pooled:
            assert pickle.dumps(pooled.predict_batch(probes)) == \
                   pickle.dumps(control.predict_batch(probes))
            ships_before = pooled.telemetry.counter(
                "compute_pool_snapshot_ships_total")
            for service in (control, pooled):
                service.install_building("bldg-north", replacement)
            assert pickle.dumps(pooled.predict_batch(probes)) == \
                   pickle.dumps(control.predict_batch(probes))
            # The swapped model had to ship — the old generation is dead.
            assert pooled.telemetry.counter(
                "compute_pool_snapshot_ships_total") > ships_before

    def test_sharded_service_identical(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        probes = interleaved_probes(held_out, per_building=8)
        control = make_service(registry, fake_clock, enable_cache=False)
        expected = control.predict_batch(probes)
        with ShardedServingService(
                clone_registry(registry),
                ServingConfig(enable_cache=False, **FORK),
                num_shards=2, clock=fake_clock) as sharded:
            assert pickle.dumps(sharded.predict_batch(probes)) == \
                   pickle.dumps(expected)
            for probe in probes:
                sharded.submit(probe)
            by_id = {r.record_id: r.prediction for r in sharded.drain()}
            assert all(by_id[e.record_id] == e for e in expected)


# --------------------------------------------------------------------------
# Operational surface: config gating, telemetry, restart, close
# --------------------------------------------------------------------------
class TestPoolLifecycle:
    def test_compute_workers_zero_means_no_pool(self, serving_corpus,
                                                fake_clock):
        registry, held_out, _ = serving_corpus
        service = make_service(registry, fake_clock)
        assert service.compute_pool is None
        service.predict(held_out["bldg-north"][0])
        assert "compute_pool" not in service.telemetry_snapshot()
        service.close()  # no-op, must not raise

    def test_config_validation(self):
        with pytest.raises(ValueError, match="compute_workers"):
            ServingConfig(compute_workers=-1)
        with pytest.raises(ValueError, match="compute_start_method"):
            ServingConfig(compute_start_method="fork")
        with pytest.raises(ValueError):
            ComputePool(0)
        with pytest.raises(ValueError, match="start method"):
            ComputePool(1, start_method="no-such-method")

    def test_dispatch_and_ship_counters(self, serving_corpus, fake_clock):
        registry, held_out, _ = serving_corpus
        probes = held_out["bldg-north"][:6]
        with make_service(registry, fake_clock, enable_cache=False,
                          **FORK) as service:
            service.predict_batch(probes)
            counters = service.telemetry_snapshot()["counters"]
            assert counters["compute_pool_dispatch_total"] >= 1
            ships = counters["compute_pool_snapshot_ships_total"]
            assert ships >= 1
            service.predict_batch(probes)
            counters = service.telemetry_snapshot()["counters"]
            # Same generation: the snapshot is already on the workers.
            assert counters["compute_pool_snapshot_ships_total"] == ships
            assert service.telemetry_snapshot()["gauges"][
                "compute_pool_queue_depth"] == 0
            stats = service.telemetry_snapshot()["compute_pool"]
            assert stats["workers"] == 2
            assert stats["start_method"] == "fork"
            # The counters and the queue-depth gauge ride the service
            # telemetry, so they surface on /metrics with no extra wiring.
            exposition = service.telemetry.to_prometheus_text()
            for name in ("compute_pool_dispatch_total",
                         "compute_pool_snapshot_ships_total",
                         "compute_pool_queue_depth"):
                assert name in exposition

    def test_worker_peak_rss_gauge_on_metrics(self, serving_corpus,
                                              fake_clock):
        registry, held_out, _ = serving_corpus
        probes = held_out["bldg-north"][:6]
        with make_service(registry, fake_clock, enable_cache=False,
                          compute_workers=1,
                          compute_start_method="fork") as service:
            service.predict_batch(probes)
            gauges = service.telemetry_snapshot()["gauges"]
            assert gauges["compute_pool_worker_peak_rss_bytes"] > 0
            body = ObsServer(service).render_metrics()
            line = next(l for l in body.splitlines() if l.split(" ")[0]
                        .endswith("compute_pool_worker_peak_rss_bytes"))
            assert float(line.split()[1]) > 0
            # Maximum over *live* workers: a respawned worker has not
            # reported yet.
            os.kill(service.compute_pool._workers[0].process.pid, 9)
            deadline = time.monotonic() + 10.0
            while (service.telemetry.counter(
                    "compute_pool_worker_restarts_total") == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert service.telemetry.gauge(
                "compute_pool_worker_peak_rss_bytes") == 0
            service.predict_batch(probes)
            assert service.telemetry.gauge(
                "compute_pool_worker_peak_rss_bytes") > 0
        without_pool = make_service(registry, fake_clock)
        without_pool.predict(probes[0])
        assert not [name for name in without_pool.telemetry_snapshot()["gauges"]
                    if name.startswith("compute_pool_")]
        without_pool.close()

    def test_worker_restart_after_external_kill(self, serving_corpus,
                                                fake_clock):
        registry, held_out, _ = serving_corpus
        probes = held_out["bldg-north"][:6]
        with make_service(registry, fake_clock, enable_cache=False,
                          compute_workers=1,
                          compute_start_method="fork") as service:
            expected = service.predict_batch(probes)
            victim = service.compute_pool._workers[0].process
            os.kill(victim.pid, 9)
            deadline = time.monotonic() + 10.0
            while (service.telemetry.counter(
                    "compute_pool_worker_restarts_total") == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert service.telemetry.counter(
                "compute_pool_worker_restarts_total") == 1
            # The respawned worker has an empty snapshot cache; the model
            # re-ships and predictions are unchanged.
            assert pickle.dumps(service.predict_batch(probes)) == \
                   pickle.dumps(expected)

    def test_close_is_idempotent_and_fails_late_compute(self, serving_corpus,
                                                        fake_clock):
        registry, held_out, _ = serving_corpus
        service = make_service(registry, fake_clock, enable_cache=False,
                               **FORK)
        service.predict(held_out["bldg-north"][0])
        pool = service.compute_pool
        service.close()
        service.close()
        model = registry.model_for("bldg-north")
        with pytest.raises(WorkerCrashError, match="closed"):
            pool.compute([("bldg-north", model, held_out["bldg-north"][:2])])


# --------------------------------------------------------------------------
# Group-aware dispatch: one message per worker per call
# --------------------------------------------------------------------------
class _FailingModel:
    """A picklable stand-in model whose every prediction raises ``tag``."""

    def __init__(self, tag: str) -> None:
        self.tag = tag

    def predict_batch(self, records, independent=False):
        raise ValueError(self.tag)


class _RecordingOutbox:
    """Wraps a worker's outbox, keeping every task message put on it."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.tasks: list[tuple] = []

    def put(self, message) -> None:
        if message is not None and message[0] == "task":
            self.tasks.append(message)
        self.inner.put(message)

    def get(self):
        return self.inner.get()


def _record_outboxes(pool: ComputePool) -> list[_RecordingOutbox]:
    outboxes = []
    for worker in pool._workers:
        worker.outbox = _RecordingOutbox(worker.outbox)
        outboxes.append(worker.outbox)
    return outboxes


def _mixed_groups(serving_corpus, sizes=(1, 3, 7, 17)):
    """Groups of the given sizes over four building ids and two models."""
    registry, held_out, _ = serving_corpus
    north = registry.model_for("bldg-north")
    south = registry.model_for("bldg-south")
    sources = [("bldg-north", north, held_out["bldg-north"]),
               ("bldg-south", south, held_out["bldg-south"]),
               ("bldg-north-annex", north, held_out["bldg-north"][20:]),
               ("bldg-south-annex", south, held_out["bldg-south"][20:])]
    return [(building_id, model, records[:size])
            for (building_id, model, records), size in zip(sources, sizes)]


def _in_process(groups) -> list:
    return [prediction for _, model, records in groups
            for prediction in model.predict_batch(list(records),
                                                  independent=True)]


class TestGroupDispatch:
    def test_slice_bounds_contiguous_and_balanced(self):
        for sizes in ([1, 3, 7, 17], [16], [5, 5, 5], [0, 9, 2], [40, 1]):
            for workers in (1, 2, 3, 4):
                bounds = _slice_bounds(sizes, workers)
                totals = [0] * workers
                for size, group in zip(sizes, bounds):
                    assert group[0][0] == 0 and group[-1][1] == size
                    for (_, end), (start, _) in zip(group, group[1:]):
                        assert end == start
                    for slot, (start, end) in enumerate(group):
                        totals[slot] += end - start
                assert max(totals) - min(totals) <= 1
                # The rotation starts at slot 0, which holds group 0's
                # first slice whenever group 0 has records.
                if sizes[0]:
                    assert bounds[0][0][1] > 0

    def test_mixed_group_sizes_byte_identical(self, serving_corpus):
        groups = _mixed_groups(serving_corpus)
        assert sum(len(r) for _, _, r in groups) >= 2 * MIN_CHUNK_RECORDS
        expected = _in_process(groups)
        with ComputePool(2, start_method="fork") as pool:
            for _ in range(2):  # cold (snapshots ship), then resident
                got = pool.compute(groups)
                assert pickle.dumps(got) == pickle.dumps(expected)

    def test_each_worker_gets_at_most_one_task_per_call(self,
                                                        serving_corpus):
        groups = _mixed_groups(serving_corpus)
        with ComputePool(2, start_method="fork") as pool:
            outboxes = _record_outboxes(pool)
            for call in range(1, 4):
                pool.compute(groups)
                assert [len(o.tasks) for o in outboxes] == [call, call]
            # A call under 2 * MIN_CHUNK_RECORDS engages one worker only.
            pool.compute(_mixed_groups(serving_corpus, sizes=(1, 3, 7, 2)))
            assert sum(len(o.tasks) for o in outboxes) == 7

    def test_earliest_failing_group_error_is_raised(self, serving_corpus):
        registry, held_out, _ = serving_corpus
        north = registry.model_for("bldg-north")
        probes = held_out["bldg-north"]
        # With two workers, group 1's single record lands on the second
        # worker only, while group 2 fails on both: the first worker's
        # reply names the later group, and must not win.
        groups = [("bldg-north", north, probes[:1]),
                  ("bldg-first", _FailingModel("first"), probes[1:2]),
                  ("bldg-second", _FailingModel("second"), probes[2:19])]
        with pytest.raises(ValueError, match="first"):
            _in_process(groups)
        with ComputePool(2, start_method="fork") as pool:
            with pytest.raises(ValueError, match="first"):
                pool.compute(groups)
            # The failure leaves the pool serving.
            clean = groups[:1]
            assert pickle.dumps(pool.compute(clean)) == \
                   pickle.dumps(_in_process(clean))

    def test_failure_keeps_later_groups_snapshots(self, serving_corpus):
        """A group failing early in a worker's message must not cost the
        later groups of that message their shipped snapshots: the parent
        counts them as held and never ships them again."""
        registry, held_out, _ = serving_corpus
        north = registry.model_for("bldg-north")
        probes = held_out["bldg-north"]
        # Both workers get a north slice; the first also gets the broken
        # group's single record, ahead of its north slice.
        groups = [("bldg-broken", _FailingModel("broken"), probes[:1]),
                  ("bldg-north", north, probes[1:18])]
        later = groups[1:]
        telemetry = ServingTelemetry()
        with ComputePool(2, telemetry=telemetry,
                         start_method="fork") as pool:
            with pytest.raises(ValueError, match="broken"):
                pool.compute(groups)
            ships = telemetry.counter("compute_pool_snapshot_ships_total")
            assert pickle.dumps(pool.compute(later)) == \
                   pickle.dumps(_in_process(later))
            assert telemetry.counter(
                "compute_pool_snapshot_ships_total") == ships

    def test_concurrent_calls_stay_byte_identical(self, serving_corpus):
        """Calls from several threads interleave their messages on the
        same workers; each still gets exactly its own predictions."""
        layouts = [(1, 3, 7, 17), (9, 9, 0, 0), (2, 2, 2, 2), (17, 1, 1, 1)]
        cases = []
        for sizes in layouts:
            groups = [g for g in _mixed_groups(serving_corpus, sizes=sizes)
                      if g[2]]
            cases.append((groups, pickle.dumps(_in_process(groups))))
        failures: list[str] = []
        with ComputePool(2, start_method="fork") as pool:
            def caller(index: int) -> None:
                groups, expected = cases[index % len(cases)]
                for _ in range(4):
                    if pickle.dumps(pool.compute(groups)) != expected:
                        failures.append(f"caller {index}")
            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert pool.stats()["queue_depth"] == 0
        assert failures == []

    def test_latency_directive_delays_exactly_one_message(self,
                                                          serving_corpus):
        groups = _mixed_groups(serving_corpus)
        delay = 1.0
        directives = [{"kind": "latency", "delay_seconds": delay,
                       "message": "injected latency"}]
        with ComputePool(2, start_method="fork") as pool:
            pool.compute(groups)  # ship snapshots outside the timing
            outboxes = _record_outboxes(pool)
            start = time.perf_counter()
            call = pool.submit(groups, directives=directives)
            delayed, undelayed = call._tasks
            assert undelayed.done.wait(timeout=30.0)
            if time.perf_counter() - start < delay * 0.9:
                assert not delayed.done.is_set()
            got = call.result()
            assert time.perf_counter() - start >= delay
        carried = [task for outbox in outboxes for task in outbox.tasks
                   if task[2] is not None]
        assert len(carried) == 1
        # It is the message holding group 0's first slice.
        assert carried[0][3][0][0] == groups[0][0]
        assert carried[0][3][0][3][0] is groups[0][2][0]
        assert pickle.dumps(got) == pickle.dumps(_in_process(groups))

    def test_kill_directive_crashes_restarts_and_recovers(self,
                                                         serving_corpus):
        groups = _mixed_groups(serving_corpus)
        expected = _in_process(groups)
        telemetry = ServingTelemetry()
        with ComputePool(2, telemetry=telemetry,
                         start_method="fork") as pool:
            with pytest.raises(WorkerCrashError, match="died"):
                pool.compute(groups, directives=[
                    {"kind": "kill", "delay_seconds": 0.0,
                     "message": "injected kill"}])
            deadline = time.monotonic() + 10.0
            while (telemetry.counter("compute_pool_worker_restarts_total")
                   == 0 and time.monotonic() < deadline):
                time.sleep(0.01)
            assert telemetry.counter(
                "compute_pool_worker_restarts_total") == 1
            assert pickle.dumps(pool.compute(groups)) == \
                   pickle.dumps(expected)
            assert telemetry.counter(
                "compute_pool_worker_restarts_total") == 1


@pytest.fixture(scope="module")
def four_building_registry(serving_corpus):
    """The serving corpus plus two more trained buildings."""
    registry, held_out, _ = serving_corpus
    registry = clone_registry(registry)
    held_out = dict(held_out)
    for building_id, seed in (("bldg-east", 43), ("bldg-west", 44)):
        dataset = small_test_building(num_floors=3, records_per_floor=40,
                                      aps_per_floor=20, seed=seed,
                                      building_id=building_id)
        split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
        registry.fit_building(dataset.subset(split.train_records),
                              split.labels)
        held_out[building_id] = [r.without_floor()
                                 for r in split.test_records]
    return registry, held_out


def test_snapshot_hit_rate_on_first_mixed_building_batch(
        four_building_registry, fake_clock):
    """A fresh 2-worker pool's first 4-building batch ships a snapshot per
    (worker, building) slice; counting dispatches per slice keeps ships
    at most dispatches, so the health monitor's snapshot hit rate is a
    true rate — 0 on the cold batch, rising once snapshots are resident."""
    registry, held_out = four_building_registry
    probes = interleaved_probes(held_out, per_building=6)
    with make_service(registry, fake_clock, enable_cache=False,
                      **FORK) as service:
        monitor = HealthMonitor(service, clock=fake_clock)
        service.predict_batch(probes)
        counters = service.telemetry_snapshot()["counters"]
        dispatches = counters["compute_pool_dispatch_total"]
        ships = counters["compute_pool_snapshot_ships_total"]
        assert ships == dispatches == 8  # 4 buildings x 2 workers, cold
        fake_clock.advance(5.0)
        metrics = monitor.report()["service"]["metrics"]
        assert metrics["compute_pool_snapshot_hit_rate"] == 0.0
        service.predict_batch(probes)
        counters = service.telemetry_snapshot()["counters"]
        assert counters["compute_pool_snapshot_ships_total"] == ships
        assert counters["compute_pool_snapshot_ships_total"] <= \
               counters["compute_pool_dispatch_total"]
        fake_clock.advance(5.0)
        metrics = monitor.report()["service"]["metrics"]
        assert 0.0 < metrics["compute_pool_snapshot_hit_rate"] <= 1.0
