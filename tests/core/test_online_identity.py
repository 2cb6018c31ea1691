"""Byte-identity of mutation-free online inference vs the legacy path.

Before this PR, every online prediction mutated the shared graph: the probe
record was inserted, embedded against the frozen model and removed again.
The overlay-based engine must reproduce that path's output *byte for byte*
— same floors, same distances, same embedding bytes — for every mode
(single predicts, ``independent`` batches, joint batches, ``persist`` on
and off) on the campus preset.  The reference below *is* the legacy
implementation, re-enacted through the still-supported mutate-the-graph
route (``BipartiteGraph.add_record`` + generic ``embed_new_nodes``), so a
regression in any composed overlay view or in the RNG consumption order
shows up as a byte mismatch here.

Also pinned: the satellite regressions — non-persisting predictions no
longer bump ``BipartiteGraph.version``, and the version-keyed
``SamplerCache`` entry survives a sequence of cold predicts instead of
being evicted by each one.
"""

from __future__ import annotations

import pytest

from repro.core import GRAFICS, GraficsConfig
from repro.core.embedding import EmbeddingConfig
from repro.core.embedding.trainer import (
    _SAMPLER_CACHE,
    EdgeSamplingTrainer,
    ObjectiveTerms,
    clear_sampler_cache,
)
from repro.core.graph import NodeKind
from repro.core.inference import FloorPrediction
from repro.data import make_experiment_split, three_story_campus_building

CONFIG = GraficsConfig(embedding=EmbeddingConfig(samples_per_edge=40.0, seed=0),
                       allow_unreachable_clusters=True)


def legacy_predict_group(model: GRAFICS, records, persist=False):
    """The pre-overlay online path: mutate, embed, classify, restore.

    A faithful re-enactment of the historical ``_predict_group`` using the
    public mutating graph API and the generic ``embed_new_nodes`` (which
    still serves the mutated-graph case unchanged).
    """
    engine = model.engine
    graph, embedding = engine.graph, engine.embedding
    known_macs = set(graph.mac_index_map())
    for record in records:
        assert not graph.has_node(NodeKind.RECORD, record.record_id)
        assert set(record.rss) & known_macs

    added_macs = []
    for record in records:
        for mac in record.rss:
            if not graph.has_node(NodeKind.MAC, mac):
                added_macs.append(mac)
        graph.add_record(record)

    new_ids = [record.record_id for record in records]
    enlarged = engine.embedder.embed_new_nodes(graph, embedding, new_ids)

    predictions = []
    for record in records:
        vector = enlarged.record_vector(record.record_id)
        floor, distance = engine.cluster_model.predict_with_distance(vector)
        predictions.append(FloorPrediction(record_id=record.record_id,
                                           floor=floor, distance=distance,
                                           embedding=vector.copy()))
    if persist:
        engine.embedding = enlarged
    else:
        for record in records:
            graph.remove_record(record.record_id)
        for mac in added_macs:
            node = graph.get_node(NodeKind.MAC, mac)
            if graph.degree(node.index) == 0:
                graph.remove_mac(mac)
    return predictions


def legacy_predict_batch(model, records, persist=False, independent=False):
    if independent:
        return [legacy_predict_group(model, [record], persist=persist)[0]
                for record in records]
    return legacy_predict_group(model, list(records), persist=persist)


def assert_identical(new_predictions, legacy_predictions):
    assert len(new_predictions) == len(legacy_predictions)
    for new, old in zip(new_predictions, legacy_predictions):
        assert new.record_id == old.record_id
        assert new.floor == old.floor
        assert new.distance == old.distance
        assert new.embedding.tobytes() == old.embedding.tobytes()


@pytest.fixture(scope="module")
def campus_split():
    dataset = three_story_campus_building(records_per_floor=40, seed=7)
    return make_experiment_split(dataset, labels_per_floor=4, seed=0)


def fit_campus(campus_split) -> GRAFICS:
    """A deterministic fit — two calls produce byte-identical models."""
    return GRAFICS(CONFIG).fit(list(campus_split.train_records),
                               campus_split.labels)


@pytest.fixture(scope="module")
def probes(campus_split):
    return [r.without_floor() for r in campus_split.test_records[:8]]


class TestByteIdentityToLegacyPath:
    """Acceptance: all predict modes byte-identical to the pre-PR code."""

    def test_single_predicts(self, campus_split, probes):
        model_new, model_old = fit_campus(campus_split), fit_campus(campus_split)
        new = [model_new.predict(p) for p in probes]
        old = [legacy_predict_group(model_old, [p])[0] for p in probes]
        assert_identical(new, old)

    def test_independent_batch(self, campus_split, probes):
        model_new, model_old = fit_campus(campus_split), fit_campus(campus_split)
        assert_identical(
            model_new.predict_batch(probes, independent=True),
            legacy_predict_batch(model_old, probes, independent=True))

    def test_joint_batch(self, campus_split, probes):
        model_new, model_old = fit_campus(campus_split), fit_campus(campus_split)
        assert_identical(model_new.predict_batch(probes),
                         legacy_predict_batch(model_old, probes))

    def test_persist_single_then_follow_ups(self, campus_split, probes):
        model_new, model_old = fit_campus(campus_split), fit_campus(campus_split)
        assert_identical(
            [model_new.predict(p, persist=True) for p in probes[:3]],
            legacy_predict_batch(model_old, probes[:3], persist=True,
                                 independent=True))
        # The committed graph + embedding serve follow-ups identically.
        assert_identical(
            model_new.predict_batch(probes[3:], independent=True),
            legacy_predict_batch(model_old, probes[3:], independent=True))
        assert (model_new.graph.record_index_map()
                == model_old.graph.record_index_map())
        assert (model_new.graph.mac_index_map()
                == model_old.graph.mac_index_map())

    def test_persist_joint_batch(self, campus_split, probes):
        model_new, model_old = fit_campus(campus_split), fit_campus(campus_split)
        assert_identical(model_new.predict_batch(probes[:4], persist=True),
                         legacy_predict_batch(model_old, probes[:4],
                                              persist=True))
        assert_identical([model_new.predict(probes[5])],
                         [legacy_predict_group(model_old, [probes[5]])[0]])

    def test_repeated_predicts_stay_identical(self, campus_split, probes):
        """Repeat predictions of one record never drift (no hidden state)."""
        model = fit_campus(campus_split)
        first = model.predict(probes[0])
        for _ in range(3):
            again = model.predict(probes[0])
            assert again.floor == first.floor
            assert again.distance == first.distance
            assert again.embedding.tobytes() == first.embedding.tobytes()


class TestMutationFreeRegression:
    """Satellite: no version bumps, sampler-cache entries survive predicts."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_sampler_cache()
        yield
        clear_sampler_cache()

    def test_cold_predicts_do_not_bump_version(self, campus_split, probes):
        model = fit_campus(campus_split)
        version = model.graph.version
        for probe in probes:
            model.predict(probe)
        model.predict_batch(probes, independent=True)
        model.predict_batch(probes)
        assert model.graph.version == version

    def test_sampler_cache_survives_cold_predicts(self, campus_split, probes):
        model = fit_campus(campus_split)
        terms = ObjectiveTerms(second_order=True, symmetric=True)
        config = CONFIG.resolved_embedding_config()
        # Populate the cache for the model's graph at its current version.
        EdgeSamplingTrainer(model.graph, config, terms)
        misses_before = _SAMPLER_CACHE.misses
        hits_before = _SAMPLER_CACHE.hits

        for probe in probes[:4]:
            model.predict(probe)

        # Pre-PR behaviour: each predict bumped the version twice (insert +
        # restore), so this second construction missed every time.  Now the
        # entry is still live and served as a hit, with no new misses.
        trainer = EdgeSamplingTrainer(model.graph, config, terms)
        assert _SAMPLER_CACHE.misses == misses_before
        assert _SAMPLER_CACHE.hits > hits_before
        assert trainer._edge_sampler is _SAMPLER_CACHE.edge_sampler(model.graph)

    def test_predicts_do_not_grow_index_capacity(self, campus_split, probes):
        """The legacy path retired one index per transient record; the
        overlay path allocates past the base capacity without consuming it."""
        model = fit_campus(campus_split)
        capacity = model.graph.index_capacity
        for probe in probes:
            model.predict(probe)
        assert model.graph.index_capacity == capacity

    def test_engine_scratch_buffers_reused(self, campus_split, probes):
        """Consecutive cold predicts refill the engine's per-thread
        incident-edge scratch buffers instead of allocating new ones."""
        model = fit_campus(campus_split)
        engine = model.engine
        for _ in range(3):
            engine.predict(probes[2])
        scratch = engine._scratch.edges
        assert scratch is not None
        assert scratch.reuses >= 1
