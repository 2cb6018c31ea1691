"""Sampling utilities for LINE / E-LINE training.

Both algorithms are trained by *edge sampling* with *negative sampling*
(paper Section IV-B, Eq. 10):

* positive examples are edges drawn with probability proportional to their
  weight ``c_ij``;
* negative examples are nodes drawn from the noise distribution
  ``Pr(z) ∝ d_z^{3/4}`` where ``d_z`` is the (weighted) degree of ``z``.

Drawing from an arbitrary discrete distribution in O(1) per sample uses
Walker's alias method, implemented here as :class:`AliasTable`.
:class:`SamplerCache` keeps the tables of an unchanged graph across
trainers.  An online prediction's overlay graph gets fresh tables every
time: its samplers draw from the composed (base + staged) distribution and
consume the RNG exactly as the same draws on the mutated graph would, which
is what keeps online predictions byte-identical to the sequential reference.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from ...obs import runtime as obs

__all__ = ["AliasTable", "EdgeSampler", "NegativeSampler", "SamplerCache",
           "unigram_power_distribution"]


class AliasTable:
    """O(1) sampling from a discrete distribution via Walker's alias method.

    The build partitions and assembles with numpy and runs the sequential
    Walker pairing over native floats — bit-identical to the historical
    pure-Python-list construction (test-enforced by a hypothesis property),
    because every comparison and residual subtraction happens on the same
    IEEE-754 doubles in the same order; only the bookkeeping around them was
    vectorised.

    Parameters
    ----------
    weights:
        Non-negative, not-all-zero weights; they are normalised internally.
    """

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights must not all be zero")

        n = weights.size
        with np.errstate(over="ignore"):
            scale = n / total
        if not np.isfinite(scale):
            # A subnormal total overflows the normalisation; the historical
            # build silently produced a table that sampled zero-weight
            # entries in this regime.
            raise ValueError("weights sum is too small to normalise")
        probabilities = weights * scale
        # Entries never claimed by the pairing loop below are the historical
        # "leftover" entries: probability one, aliased to themselves.
        self._prob = np.ones(n, dtype=np.float64)
        self._alias = np.arange(n, dtype=np.int64)
        self._n = n
        self._weights = weights / total

        if n <= 2:
            # Closed form of the Walker pairing for the tiny tables the
            # per-predict restricted edge samplers build (one or two incident
            # edges): a single entry is always a leftover, and two entries
            # pair at most once — only when exactly one of them is small,
            # which writes the small entry's scaled probability and aliases
            # it to the other.  Bit-identical to the general loop below
            # (test-enforced), without the list conversions.
            if n == 2:
                first, second = probabilities.tolist()
                if (first < 1.0) != (second < 1.0):
                    small_index = 0 if first < 1.0 else 1
                    self._prob[small_index] = first if first < 1.0 else second
                    self._alias[small_index] = 1 - small_index
            return

        scaled = probabilities.tolist()
        small = np.flatnonzero(probabilities < 1.0).tolist()
        large = np.flatnonzero(probabilities >= 1.0).tolist()
        paired_index: list[int] = []
        paired_prob: list[float] = []
        paired_alias: list[int] = []
        while small and large:
            s = small.pop()
            g = large.pop()
            residual_s = scaled[s]
            paired_index.append(s)
            paired_prob.append(residual_s)
            paired_alias.append(g)
            residual_g = scaled[g] - (1.0 - residual_s)
            scaled[g] = residual_g
            if residual_g < 1.0:
                small.append(g)
            else:
                large.append(g)
        if paired_index:
            index = np.asarray(paired_index, dtype=np.int64)
            self._prob[index] = paired_prob
            self._alias[index] = paired_alias

    @property
    def size(self) -> int:
        return self._n

    @property
    def probabilities(self) -> np.ndarray:
        """The normalised target distribution (for tests and diagnostics)."""
        return self._weights.copy()

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` independent indices from the distribution."""
        if count < 0:
            raise ValueError("count must be non-negative")
        columns = rng.integers(0, self._n, size=count)
        coins = rng.random(count)
        accept = coins < self._prob[columns]
        return np.where(accept, columns, self._alias[columns])


def unigram_power_distribution(degrees: np.ndarray, power: float = 0.75) -> np.ndarray:
    """The noise distribution ``Pr(z) ∝ d_z^power`` over node indices.

    Indices with zero degree (retired or isolated nodes) get probability zero.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    if np.any(degrees < 0):
        raise ValueError("degrees must be non-negative")
    weights = np.power(degrees, power, where=degrees > 0,
                       out=np.zeros_like(degrees))
    return weights


class EdgeSampler:
    """Samples directed edges proportionally to their weight.

    The bipartite graph is undirected; following LINE, every undirected edge
    ``(m, v)`` is interpreted as the two directed edges ``m -> v`` and
    ``v -> m`` with the same weight, so a directed sample is an undirected
    sample plus a fair coin for direction.
    """

    def __init__(self, sources: np.ndarray, targets: np.ndarray,
                 weights: np.ndarray) -> None:
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (sources.shape == targets.shape == weights.shape):
            raise ValueError("sources, targets and weights must have equal shapes")
        if sources.size == 0:
            raise ValueError("cannot build an EdgeSampler with no edges")
        self._sources = sources
        self._targets = targets
        self._table = AliasTable(weights)

    @property
    def num_edges(self) -> int:
        return self._sources.size

    def sample(self, count: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(heads, tails)`` of ``count`` sampled directed edges."""
        picks = self._table.sample(count, rng)
        sources = self._sources[picks]
        targets = self._targets[picks]
        flip = rng.random(count) < 0.5
        heads = np.where(flip, targets, sources)
        tails = np.where(flip, sources, targets)
        return heads, tails


class NegativeSampler:
    """Samples negative nodes from ``Pr(z) ∝ d_z^{3/4}``.

    The alias table is built over the *positive-degree* indices only and the
    drawn positions are mapped back to the original index space.  Zero-degree
    slots could never be sampled anyway, but keeping them inside the table
    would make the RNG consumption (``rng.integers(0, table_size)``) depend
    on how many retired node indices the graph has accumulated — repeated
    online predictions on the same model would then drift apart.  Compacting
    makes sampling a function of the live degree distribution alone, and is
    bit-for-bit identical to the uncompacted table when no degree is zero
    (the offline training case).
    """

    def __init__(self, degrees: np.ndarray, power: float = 0.75) -> None:
        weights = unigram_power_distribution(degrees, power=power)
        live = np.flatnonzero(weights > 0)
        if live.size == 0:
            raise ValueError("cannot build a NegativeSampler: all degrees are zero")
        self._live = live
        # With no zero-degree slots (the offline training case) the live map
        # is the identity; skip the remap gather on the sampling hot path.
        self._identity = live.size == degrees.size
        self._table = AliasTable(weights[live])

    def sample(self, count: int, negatives_per_example: int,
               rng: np.random.Generator) -> np.ndarray:
        """Return an ``(count, negatives_per_example)`` array of node indices."""
        flat = self._table.sample(count * negatives_per_example, rng)
        if not self._identity:
            flat = self._live[flat]
        return flat.reshape(count, negatives_per_example)


class SamplerCache:
    """Reuses :class:`EdgeSampler`/:class:`NegativeSampler` per graph version.

    Keyed weakly on the graph object and strongly on its monotonic
    :attr:`~repro.core.graph.BipartiteGraph.version` counter: any mutation
    bumps the version, so a cached sampler is only ever returned for the
    exact graph state it was built from — a hit is byte-identical to a fresh
    construction (samplers are immutable once built).  Repeated trainer
    constructions over an *unchanged* graph (joint ``embed_new_nodes``
    batches at one version, repeated fits/ablations on one graph) reuse the
    alias tables instead of re-running the O(V+E) builds.  Online
    inference stages its probe records on a ``GraphOverlay`` instead of
    mutating the graph, so the graph's version — and therefore any entry
    cached here — survives arbitrarily many ``persist=False`` predictions;
    the overlay's own per-predict samplers are deliberately not cached
    (ephemeral views, one per prediction).

    Lookups take a short global lock; sampler construction itself happens
    outside it, so concurrent builds for different graphs (sharded serving)
    never serialise behind each other.  Two threads racing on the same miss
    may both build; the samplers are identical and the last insert wins.
    """

    def __init__(self) -> None:
        self._entries: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _lookup(self, graph, kind: str):
        """Return the cached sampler for the graph's current version."""
        entry = self._entries.get(graph)
        if entry is None or entry["version"] != graph.version:
            if entry is not None:
                # A stale entry for an older graph version is being replaced
                # — the cache's only eviction besides the weakref reaping a
                # dead graph.  Every cached object in the entry is built for
                # the old version and discarded with it, so count one
                # eviction *per object* (the entry holds them under their
                # kind keys, plus the "version" marker): replacing an entry
                # holding both an edge and a negative sampler evicts two
                # samplers, and ``sampler_cache_evictions_total`` must say
                # so.
                discarded = len(entry) - 1
                if discarded:
                    self.evictions += discarded
                    obs.metric_increment("sampler_cache_evictions_total",
                                         discarded)
            entry = {"version": graph.version}
            self._entries[graph] = entry
            return entry, None
        return entry, entry.get(kind)

    def _get(self, graph, kind: str, build) -> object:
        with self._lock:
            _, sampler = self._lookup(graph, kind)
            if sampler is not None:
                self.hits += 1
                obs.metric_increment("sampler_cache_hits_total")
                return sampler
            self.misses += 1
            obs.metric_increment("sampler_cache_misses_total")
        sampler = build()
        with self._lock:
            # Insert only if the graph state is still the one we built for.
            current = self._entries.get(graph)
            if current is not None and current["version"] == graph.version:
                current[kind] = sampler
        return sampler

    def edge_sampler(self, graph) -> EdgeSampler:
        """The full-graph edge sampler for the graph's current version."""
        return self._get(graph, "edge",
                         lambda: EdgeSampler(*graph.edge_arrays()))

    def negative_sampler(self, graph) -> NegativeSampler:
        """The full-graph negative sampler for the graph's current version."""
        return self._get(graph, "negative",
                         lambda: NegativeSampler(graph.degree_array()))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
