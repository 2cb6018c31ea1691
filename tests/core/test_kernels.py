"""Tests for the training kernel and the trainer's warm start."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import GRAFICS, GraficsConfig
from repro.core.embedding.trainer import EdgeSamplingTrainer, ObjectiveTerms
from repro.core.graph import build_graph
from repro.data import make_experiment_split, small_test_building

ELINE_TERMS = ObjectiveTerms(second_order=True, symmetric=True)


@pytest.fixture(scope="module")
def preset_split():
    dataset = small_test_building(records_per_floor=30)
    return make_experiment_split(dataset, labels_per_floor=4, seed=0)


class TestWarmStartVectorisation:
    def test_bulk_row_copy_matches_naive_loop(self, preset_split):
        """The fancy-indexed warm-start copy equals the per-node dict loop."""
        from repro.core.graph import NodeKind

        config = GraficsConfig(allow_unreachable_clusters=True)
        previous = GRAFICS(config).fit(list(preset_split.train_records),
                                       preset_split.labels)
        # A shifted window: drop some records, keep the rest.
        survivors = list(preset_split.train_records)[10:]
        graph = build_graph(survivors)
        embedding_config = config.resolved_embedding_config()
        trainer = EdgeSamplingTrainer(graph, embedding_config, ELINE_TERMS)
        ego, context = trainer.initial_embeddings(
            warm_start=previous.embedding)

        # Naive reference: same random draw, then the historical loop.
        rng = np.random.default_rng(embedding_config.seed)
        scale = embedding_config.init_scale / embedding_config.dimension
        shape = (graph.index_capacity, embedding_config.dimension)
        naive_ego = rng.uniform(-scale, scale, size=shape)
        naive_context = rng.uniform(-scale, scale, size=shape)
        warm = previous.embedding
        for node in graph.nodes():
            index_map = (warm.record_index if node.kind is NodeKind.RECORD
                         else warm.mac_index)
            old_row = index_map.get(node.key)
            if old_row is not None:
                naive_ego[node.index] = warm.ego[old_row]
                naive_context[node.index] = warm.context[old_row]
        np.testing.assert_array_equal(ego, naive_ego)
        np.testing.assert_array_equal(context, naive_context)

    def test_dimension_mismatch_rejected(self, preset_split):
        config = GraficsConfig(allow_unreachable_clusters=True)
        previous = GRAFICS(config).fit(list(preset_split.train_records),
                                       preset_split.labels)
        graph = build_graph(list(preset_split.train_records))
        other = replace(config.resolved_embedding_config(), dimension=4)
        trainer = EdgeSamplingTrainer(graph, other, ELINE_TERMS)
        with pytest.raises(ValueError, match="dimension"):
            trainer.initial_embeddings(warm_start=previous.embedding)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads minor page faults from getrusage on Linux")
def test_reference_steps_reuse_heap_memory():
    """A reference step's (B, K, D) temporaries are not faulted in afresh.

    Runs in a fresh interpreter: what decides it is the allocator state
    right after ``import repro``, which a long test session has long since
    changed.
    """
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from repro.core.embedding import EmbeddingConfig, ReferenceKernel\n"
        "from repro.core.embedding.trainer import ObjectiveTerms\n"
        "config = EmbeddingConfig()\n"
        "rng = np.random.default_rng(0)\n"
        "ego, context = (rng.normal(size=(400, config.dimension))\n"
        "                for _ in range(2))\n"
        "kernel = ReferenceKernel()\n"
        "terms = ObjectiveTerms(second_order=True, symmetric=True)\n"
        "def step():\n"
        "    heads, tails = rng.integers(0, 400, (2, config.batch_size))\n"
        "    negatives = rng.integers(\n"
        "        0, 400, (config.batch_size, config.negative_samples))\n"
        "    kernel.train_batch(ego, context, heads, tails, negatives,\n"
        "                       learning_rate=0.01, terms=terms,\n"
        "                       config=config, rng=rng)\n"
        "step()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(40):\n"
        "    step()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # Each temporary is 40 pages; faulting them in afresh costs ~175 faults
    # per step (7040 over these 40 steps).
    assert int(result.stdout) < 40 * 10
