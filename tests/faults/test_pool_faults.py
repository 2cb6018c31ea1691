"""Fault injection across the compute-pool process boundary.

The pool splits a failpoint in two: the *decision* (hit counting, seeded
RNG draws) stays in the parent via ``failpoints.evaluate``, keeping the
process-global schedule deterministic, while the *effect* executes inside
the worker that computes the batch.  A ``kill`` directive becomes a real
worker death (``os._exit``) — the pool-mode analogue of
:class:`ProcessKilled` — observable only from the parent via the process
sentinel, surfacing as retryable rejections while the pool respawns the
worker underneath.  These tests pin all three directive kinds plus the
schedule parity between ``fire`` and ``evaluate``.
"""

from __future__ import annotations

import multiprocessing
import pickle
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "serving"))
from serving_helpers import make_service  # noqa: E402

from repro import faults  # noqa: E402
from repro.faults import FaultInjected, FaultPlan, failpoints  # noqa: E402

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool fault tests drive the fork start method")

FORK = {"compute_workers": 1, "compute_start_method": "fork"}


@pytest.fixture(scope="module")
def corpus():
    sys.path.insert(0, str(Path(__file__).parent.parent / "serving"))
    from serving_helpers import FakeClock
    from repro import GraficsConfig, EmbeddingConfig
    from repro.core.registry import MultiBuildingFloorService
    from repro.data import make_experiment_split, small_test_building

    config = GraficsConfig(
        embedding=EmbeddingConfig(samples_per_edge=40.0, seed=0))
    registry = MultiBuildingFloorService(config)
    dataset = small_test_building(num_floors=3, records_per_floor=40,
                                  aps_per_floor=20, seed=41,
                                  building_id="bldg-north")
    split = make_experiment_split(dataset, labels_per_floor=4, seed=0)
    registry.fit_building(dataset.subset(split.train_records), split.labels)
    probes = [r.without_floor() for r in split.test_records]
    return registry, probes, FakeClock


class TestWorkerKill:
    def test_kill_mid_request_rejects_respawns_and_recovers(self, corpus):
        """The satellite's named scenario: kill a worker mid-request → the
        batch surfaces rejected (never hangs), the pool respawns the
        worker, and subsequent predictions are byte-identical to an
        undisturbed control run."""
        registry, probes, FakeClock = corpus
        batch = probes[:4]
        control = make_service(registry, FakeClock(), max_batch_size=4,
                               enable_cache=False)
        with make_service(registry, FakeClock(), max_batch_size=4,
                          enable_cache=False, **FORK) as service:
            plan = FaultPlan(seed=0).kill("serve.compute", hits=[1])
            with faults.active(plan):
                for probe in batch:
                    service.submit(probe)
                results = service.drain()
            assert len(results) == len(batch)
            assert all(r.source == "rejected" for r in results)
            assert all("died" in r.error and "retryable" in r.error
                       for r in results)
            assert plan.fired and plan.fired[0].kind == "kill"
            assert service.telemetry.counter(
                "compute_pool_worker_restarts_total") == 1

            # Same records again, no plan armed: the respawned worker gets
            # a fresh snapshot ship and serves identical bytes.
            for probe in batch:
                control.submit(probe)
            expected = {r.record_id: r.prediction for r in control.drain()}
            for probe in batch:
                service.submit(probe)
            redo = {r.record_id: r.prediction for r in service.drain()}
            assert redo == expected
            assert all(p is not None for p in redo.values())

    def test_kill_on_sync_path_raises_retryable_crash(self, corpus):
        from repro.serving import WorkerCrashError
        registry, probes, FakeClock = corpus
        with make_service(registry, FakeClock(), enable_cache=False,
                          **FORK) as service:
            plan = FaultPlan(seed=0).kill("serve.compute", hits=[1])
            with faults.active(plan):
                with pytest.raises(WorkerCrashError, match="retryable"):
                    service.predict_batch(probes[:3])
            # Retry succeeds against the respawned worker.
            got = service.predict_batch(probes[:3])
            assert all(p is not None for p in got)


class TestDirectiveRoundTrips:
    def test_error_directive_raises_fault_injected_in_parent(self, corpus):
        registry, probes, FakeClock = corpus
        with make_service(registry, FakeClock(), enable_cache=False,
                          **FORK) as service:
            plan = FaultPlan(seed=0).fail("serve.compute", hits=[1],
                                          message="pooled boom")
            with faults.active(plan):
                with pytest.raises(FaultInjected, match="pooled boom"):
                    service.predict_batch(probes[:3])
            assert service.telemetry.counter(
                "compute_pool_worker_restarts_total") == 0

    def test_error_directive_keeps_the_shipped_snapshot(self, corpus):
        """The failing call is the worker's first, so it carries the
        snapshot; the worker installs it before running the directive,
        and the next call computes against it."""
        registry, probes, FakeClock = corpus
        control = make_service(registry, FakeClock(), enable_cache=False)
        expected = control.predict_batch(probes[3:6])
        with make_service(registry, FakeClock(), enable_cache=False,
                          **FORK) as service:
            plan = FaultPlan(seed=0).fail("serve.compute", hits=[1])
            with faults.active(plan):
                with pytest.raises(FaultInjected):
                    service.predict_batch(probes[:3])
                got = service.predict_batch(probes[3:6])
            assert pickle.dumps(got) == pickle.dumps(expected)
            assert service.telemetry.counter(
                "compute_pool_snapshot_ships_total") == 1

    def test_latency_directive_executes_without_changing_bytes(self, corpus):
        registry, probes, FakeClock = corpus
        control = make_service(registry, FakeClock(), enable_cache=False)
        expected = control.predict_batch(probes[:4])
        with make_service(registry, FakeClock(), enable_cache=False,
                          **FORK) as service:
            plan = FaultPlan(seed=0).delay("serve.compute", seconds=0.05,
                                           hits=[1])
            with faults.active(plan):
                got = service.predict_batch(probes[:4])
            assert plan.fired and plan.fired[0].kind == "latency"
            assert pickle.dumps(got) == pickle.dumps(expected)


class TestScheduleParity:
    def test_evaluate_counts_the_same_hits_as_fire(self):
        plan = FaultPlan(seed=0).fail("serve.compute", hits=[2])
        with faults.active(plan):
            assert failpoints.evaluate("serve.compute") == []
            directives = failpoints.evaluate("serve.compute")
            assert [d["kind"] for d in directives] == ["error"]
            assert plan.hit_count("serve.compute") == 2

    def test_pooled_and_inprocess_services_fault_on_the_same_request(
            self, corpus):
        """One workload, two serving modes, the same plan schedule: the
        fault lands on the second request either way."""
        registry, probes, FakeClock = corpus
        for mode_kwargs in ({}, FORK):
            service = make_service(registry, FakeClock(), enable_cache=False,
                                   **mode_kwargs)
            try:
                plan = FaultPlan(seed=0).fail("serve.compute", hits=[2])
                with faults.active(plan):
                    service.predict_batch(probes[:2])  # hit 1: clean
                    with pytest.raises(FaultInjected):
                        service.predict_batch(probes[:2])  # hit 2: fault
            finally:
                service.close()

    def test_torn_write_directive_is_rejected_at_evaluate(self):
        plan = FaultPlan(seed=0).torn_write("serve.compute", hits=[1])
        with faults.active(plan):
            with pytest.raises(ValueError, match="torn_write"):
                failpoints.evaluate("serve.compute")
