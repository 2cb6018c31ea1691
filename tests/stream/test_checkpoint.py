"""Checkpoint/resume tests: a killed-and-resumed pipeline replays identically."""

from __future__ import annotations

import json
import pickle
import shutil

import numpy as np
import pytest

from stream_helpers import stream_records, train_service

from repro import ShardedServingService, StreamConfig
from repro.core.persistence import (
    load_model,
    load_stream_state,
    save_model,
    save_stream_state,
)
from repro.stream import (
    ContinuousLearningPipeline,
    DriftConfig,
    SchedulerConfig,
    WindowConfig,
)


def drift_config():
    return StreamConfig(window=WindowConfig(max_records=96),
                        drift=DriftConfig(vocabulary_jaccard_min=0.6),
                        scheduler=SchedulerConfig(min_window_records=48,
                                                  warm_start=True))


def churn_stream(split, count=200):
    macs = sorted({mac for record in split.test_records for mac in record.rss})
    rename = {mac: f"{mac}:v2" for mac in macs[: len(macs) // 2]}
    return stream_records(split, count, prefix="churn-", rename=rename,
                          rng_seed=1, jitter=2.0)


def summarize(results):
    """Everything observable about a stream result, prediction bytes included."""
    return [(r.record_id, r.accepted, r.building_id, r.rejected_by,
             None if r.prediction is None
             else (r.prediction.floor, r.prediction.distance,
                   r.prediction.mac_overlap),
             tuple((e.kind.value, e.building_id) for e in r.drift_events),
             r.eviction.record_ids, r.swapped)
            for r in results]


class TestResumeReplaysIdentically:
    def test_killed_and_resumed_equals_uninterrupted(self, tmp_path):
        """The acceptance bar: same retrains, same predictions, byte-level."""
        service_a, splits = train_service()
        split = splits["bldg-A"]
        steady = stream_records(split, 80, prefix="steady-", jitter=2.0)
        churn = churn_stream(split)

        uninterrupted = ContinuousLearningPipeline(service_a, drift_config())
        results_full = uninterrupted.process_stream(steady + churn)

        service_b, _ = train_service()
        interrupted = ContinuousLearningPipeline(service_b, drift_config())
        interrupted.process_stream(steady)
        interrupted.checkpoint(tmp_path / "ckpt")
        # "Kill" the node: resume from disk alone, no in-memory state reused.
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        results_resumed = resumed.process_stream(churn)

        assert (summarize(results_resumed)
                == summarize(results_full[len(steady):]))
        # Both runs retrained (the churn is designed to drift) and the
        # models they installed are byte-identical.
        assert uninterrupted.scheduler.retrains_total == 1
        assert resumed.scheduler.retrains_total == 1
        assert np.array_equal(
            uninterrupted.service.model_for("bldg-A").embedding.ego,
            resumed.service.model_for("bldg-A").embedding.ego)

    def test_resume_restores_configs_and_counters(self, tmp_path):
        service, splits = train_service()
        pipeline = ContinuousLearningPipeline(service, drift_config())
        pipeline.process_stream(stream_records(splits["bldg-A"], 40,
                                               jitter=2.0))
        pipeline.checkpoint(tmp_path / "ckpt")
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")

        assert resumed.config == pipeline.config
        assert resumed.processed_total == pipeline.processed_total
        assert resumed.ingestor.stats() == pipeline.ingestor.stats()
        assert resumed.windows.stats() == pipeline.windows.stats()
        assert resumed.drift.stats() == pipeline.drift.stats()
        assert (resumed.scheduler.stats()["pending"]
                == pipeline.scheduler.stats()["pending"])
        assert resumed.service.grafics_config == service.grafics_config

    def test_sharded_service_round_trips_through_checkpoint(self, tmp_path):
        service, splits = train_service(building_ids=("bldg-A", "bldg-B"))
        sharded = ShardedServingService(registry=service.export_registry(),
                                        num_shards=4)
        pipeline = ContinuousLearningPipeline(sharded, drift_config())
        pipeline.process_stream(stream_records(splits["bldg-A"], 30,
                                               jitter=2.0))
        pipeline.checkpoint(tmp_path / "ckpt")
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        assert isinstance(resumed.service, ShardedServingService)
        assert resumed.service.num_shards == 4
        probes = [r.without_floor()
                  for r in splits["bldg-B"].test_records[:4]]
        assert (resumed.service.predict_batch(probes)
                == pipeline.service.predict_batch(probes))

    @pytest.mark.parametrize("descriptor_shape, num_shards", [
        ({"kind": "single"}, 1),
        ({"kind": "sharded", "num_shards": 4}, 4),
    ])
    def test_pre_change_service_descriptors_resume(self, tmp_path,
                                                   descriptor_shape,
                                                   num_shards):
        """Payloads written when the one-lock and the sharded service were
        two classes: ``"single"`` had no ``num_shards`` and resumes as one
        shard, ``"sharded"`` keeps its shard count; both serve the same
        bytes as the pipeline that wrote the checkpoint."""
        service, splits = train_service(building_ids=("bldg-A", "bldg-B"))
        pipeline = ContinuousLearningPipeline(service, drift_config())
        pipeline.process_stream(stream_records(splits["bldg-A"], 30,
                                               jitter=2.0))
        pipeline.checkpoint(tmp_path / "ckpt")
        state_path = tmp_path / "ckpt" / "stream_state.json"
        state = load_stream_state(state_path)
        state["service"] = {
            **descriptor_shape,
            "serving_config": state["service"]["serving_config"],
            "grafics_config": state["service"]["grafics_config"]}
        save_stream_state(state, state_path)

        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        assert resumed.service.num_shards == num_shards
        probes = [r.without_floor()
                  for building_id in ("bldg-A", "bldg-B")
                  for r in splits[building_id].test_records[:4]]
        assert (pickle.dumps(resumed.service.predict_batch(probes))
                == pickle.dumps(pipeline.service.predict_batch(probes)))

    def test_retired_mode_keys_in_saved_model_load(self, tmp_path):
        """A model saved when the training kernel and the cold-path negative
        sampler were selectable names both in its embedding config; it
        loads and predicts the same bytes as the payload without them."""
        service, splits = train_service()
        save_model(service.model_for("bldg-A"), tmp_path / "plain.npz")
        with np.load(tmp_path / "plain.npz") as archive:
            arrays = dict(archive)
        metadata = json.loads(arrays["metadata"].tobytes().decode("utf-8"))
        metadata["config"]["embedding"].update(kernel="fused",
                                               sampler_mode="delta")
        arrays["metadata"] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(tmp_path / "retired.npz", **arrays)

        plain = load_model(tmp_path / "plain.npz")
        retired = load_model(tmp_path / "retired.npz")
        assert retired.config == plain.config
        probes = [r.without_floor()
                  for r in splits["bldg-A"].test_records[:8]]
        assert (pickle.dumps(retired.predict_batch(probes, independent=True))
                == pickle.dumps(plain.predict_batch(probes, independent=True)))

    def test_retired_mode_keys_in_stream_state_resume(self, tmp_path):
        """Stream state written when the kernel and the negative sampler
        were selectable names them in the stream config and the service's
        embedding config; it resumes, serves and retrains exactly like the
        same state without those keys."""
        service, splits = train_service()
        split = splits["bldg-A"]
        pipeline = ContinuousLearningPipeline(service, drift_config())
        pipeline.process_stream(stream_records(split, 80, prefix="steady-",
                                               jitter=2.0))
        pipeline.checkpoint(tmp_path / "plain")
        shutil.copytree(tmp_path / "plain", tmp_path / "retired")
        state_path = tmp_path / "retired" / "stream_state.json"
        state = load_stream_state(state_path)
        state["stream_config"].update(retrain_kernel="fused",
                                      retrain_sampler_mode="delta")
        state["service"]["grafics_config"]["embedding"].update(
            kernel="fused", sampler_mode="delta")
        save_stream_state(state, state_path)

        plain = ContinuousLearningPipeline.resume(tmp_path / "plain")
        retired = ContinuousLearningPipeline.resume(tmp_path / "retired")
        assert retired.config == plain.config
        assert retired.service.grafics_config == plain.service.grafics_config
        churn = churn_stream(split)
        assert (pickle.dumps(summarize(retired.process_stream(churn)))
                == pickle.dumps(summarize(plain.process_stream(churn))))
        assert retired.scheduler.retrains_total == 1
        assert plain.scheduler.retrains_total == 1
        assert np.array_equal(retired.service.model_for("bldg-A").embedding.ego,
                              plain.service.model_for("bldg-A").embedding.ego)

    def test_dedup_filter_memory_survives_resume(self, tmp_path):
        """A duplicate of a pre-checkpoint record must still be rejected."""
        service, splits = train_service()
        pipeline = ContinuousLearningPipeline(service, drift_config())
        records = stream_records(splits["bldg-A"], 30, jitter=2.0)
        pipeline.process_stream(records)
        pipeline.checkpoint(tmp_path / "ckpt")
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        replay = records[0]
        duplicate = type(replay)(record_id="dup-0", rss=dict(replay.rss),
                                 floor=replay.floor)
        result = resumed.process(duplicate)
        assert not result.accepted
        assert result.rejected_by == "near_duplicate"


class TestCheckpointFormat:
    def test_stream_state_version_is_checked(self, tmp_path):
        path = tmp_path / "state.json"
        save_stream_state({"anything": 1}, path)
        raw = path.read_text().replace('"format_version": 1',
                                       '"format_version": 99')
        path.write_text(raw)
        with pytest.raises(ValueError, match="format version"):
            load_stream_state(path)

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_stream_state(tmp_path / "nope.json")
        with pytest.raises(FileNotFoundError):
            ContinuousLearningPipeline.resume(tmp_path / "empty")

    def test_filter_chain_mismatch_is_an_error(self, tmp_path):
        service, splits = train_service()
        pipeline = ContinuousLearningPipeline(service, drift_config())
        pipeline.process_stream(stream_records(splits["bldg-A"], 10,
                                               jitter=2.0))
        pipeline.checkpoint(tmp_path / "ckpt")
        with pytest.raises(ValueError, match="filter chain"):
            ContinuousLearningPipeline.resume(tmp_path / "ckpt", filters=[])

    def test_checkpoint_with_inflight_retrain_joins_first(self, tmp_path):
        """checkpoint() must quiesce the executor, not fail or tear state."""
        config = StreamConfig(
            window=WindowConfig(max_records=96),
            drift=DriftConfig(vocabulary_jaccard_min=0.6),
            scheduler=SchedulerConfig(min_window_records=48,
                                      retrain_every_records=60,
                                      warm_start=True),
            retrain_workers=1)
        service, splits = train_service()
        pipeline = ContinuousLearningPipeline(service, config)
        swapped_during_stream = 0
        for record in stream_records(splits["bldg-A"], 70, jitter=2.0):
            result = pipeline.process(record)
            swapped_during_stream += sum(
                r.swapped for r in result.completed_retrains)
        pipeline.checkpoint(tmp_path / "ckpt")
        pipeline.close()
        total = pipeline.scheduler.retrains_total
        assert total >= 1  # the cadence retrain landed, inline or via join
        resumed = ContinuousLearningPipeline.resume(tmp_path / "ckpt")
        assert resumed.scheduler.retrains_total == total


class TestStreamConfigCodec:
    def test_old_checkpoint_payload_without_key_loads(self):
        """Checkpoints written before the failure-domain layer existed have
        no ``retrain_deadline_seconds`` key; they must load with the
        default."""
        from dataclasses import asdict

        from repro.stream.pipeline import _stream_config_from_payload

        payload = asdict(StreamConfig())
        del payload["retrain_deadline_seconds"]
        rebuilt = _stream_config_from_payload(payload)
        assert rebuilt == StreamConfig()
