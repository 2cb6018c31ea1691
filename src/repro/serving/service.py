"""The single-lock serving façade: the one-shard :class:`ShardedServingService`.

:class:`FloorServingService` guards its whole stack — registry, router
postings, cache, batcher — with one lock.  That is exactly the sharded
service with a single shard, so it is implemented as that configuration;
see :mod:`repro.serving.sharding` for the serving semantics.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from ..core.pipeline import GraficsConfig
from ..core.registry import MultiBuildingFloorService
from .batcher import MicroBatcher
from .cache import PredictionCache, fingerprint_key
from .sharding import ServingConfig, ServingResult, ShardedServingService

__all__ = ["ServingConfig", "ServingResult", "FloorServingService",
           "fingerprint_key"]


class FloorServingService(ShardedServingService):
    """Production serving stack over a multi-building GRAFICS registry.

    The one-shard configuration of :class:`ShardedServingService`: every
    building lives on ``shards[0]``, whose registry, cache and batcher are
    exposed directly.
    """

    def __init__(self, registry: MultiBuildingFloorService | None = None,
                 config: ServingConfig | None = None,
                 grafics_config: GraficsConfig | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        super().__init__(registry=registry, config=config,
                         grafics_config=grafics_config, num_shards=1,
                         clock=clock)

    @property
    def registry(self) -> MultiBuildingFloorService:
        """The registry holding every served building's model."""
        return self.shards[0].registry

    @property
    def cache(self) -> PredictionCache:
        return self.shards[0].cache

    @property
    def batcher(self) -> MicroBatcher:
        return self.shards[0].batcher
