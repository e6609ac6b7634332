"""Supervised sharded identification fleet.

Shared-memory codebook shards scored by supervised worker processes,
fronted by a dispatcher whose merged results are
bit-identical to single-process ``identify_many`` at full coverage and
explicitly degraded (``coverage < 1.0``) when shards are down.
"""

from repro.service.fleet.config import DEFAULT_RESTART_POLICY, FleetConfig
from repro.service.fleet.dispatcher import (
    OverloadError,
    ShardDispatcher,
)
from repro.service.fleet.events import FleetEvent, FleetLog, FleetOutcome
from repro.service.fleet.shm import ShardSegment, ShardSpec
from repro.service.fleet.supervisor import (
    ShardState,
    ShardSupervisor,
    WorkerHandle,
)
from repro.service.fleet.worker import WORKER_EXIT_INJECTED, shard_worker_main

__all__ = [
    "DEFAULT_RESTART_POLICY",
    "FleetConfig",
    "OverloadError",
    "ShardDispatcher",
    "FleetEvent",
    "FleetLog",
    "FleetOutcome",
    "ShardSegment",
    "ShardSpec",
    "ShardState",
    "ShardSupervisor",
    "WorkerHandle",
    "WORKER_EXIT_INJECTED",
    "shard_worker_main",
]
