"""Configuration of the supervised shard-pool runtime."""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.engine.runtime import RetryPolicy
from repro.utils.validation import check_positive_int

__all__ = ["FleetConfig", "DEFAULT_RESTART_POLICY"]

#: Restart backoff for crashed/hung shard workers: quick first respawn,
#: exponential afterwards, deterministic jitter keyed by shard index so
#: two shards never thunder-herd their restarts onto the same instant.
DEFAULT_RESTART_POLICY = RetryPolicy(
    max_attempts=5, base_delay=0.05, backoff=2.0, max_delay=2.0, jitter=0.1
)


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """Shape of one sharded identification fleet.

    Attributes
    ----------
    n_shards:
        Worker processes / shared-memory segments the packed codebook
        is partitioned into.  More shards than codebook rows is legal
        (trailing shards are empty).
    n_challenges:
        Identification block length per identity (the codebook key).
    inline:
        ``True`` executes every shard's scoring pass in the calling
        process over the same shared-memory segments, with no worker
        processes or supervision -- the data plane alone, byte for byte
        the multiprocess path's computation.  Used by the bit-identity
        tests and the lifecycle simulator's sharded mode.
    max_pending:
        Batch bound: the most responders one
        :meth:`~ShardDispatcher.identify_many` call may carry (the
        service serves larger batches in bound-sized chunks).  One more
        raises a typed ``OverloadError`` -- load is shed
        explicitly, never dropped silently.
    request_timeout:
        Per-request deadline (seconds): a shard that has not replied by
        then is treated as uncovered for this request and handed to the
        supervisor for liveness checking.
    heartbeat_interval:
        How often an idle worker refreshes its heartbeat slot.
    heartbeat_timeout:
        Heartbeat staleness past which an alive-but-silent worker is
        declared hung and killed.
    max_restarts:
        Restart budget per shard; once exhausted the shard is degraded
        to DOWN (partial-coverage serving) until revived.
    restart_policy:
        :class:`~repro.engine.runtime.RetryPolicy` supplying the
        exponential-backoff + deterministic-jitter delay between a
        worker's death and its respawn.
    start_method:
        ``multiprocessing`` start method (``None`` = platform default).
    """

    n_shards: int = 2
    n_challenges: int = 64
    inline: bool = False
    max_pending: int = 64
    request_timeout: float = 5.0
    heartbeat_interval: float = 0.05
    heartbeat_timeout: float = 1.0
    max_restarts: int = 5
    restart_policy: RetryPolicy = DEFAULT_RESTART_POLICY
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive_int(self.n_shards, "n_shards")
        check_positive_int(self.n_challenges, "n_challenges")
        check_positive_int(self.max_pending, "max_pending")
        for name in ("request_timeout", "heartbeat_interval",
                     "heartbeat_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got "
                                 f"{getattr(self, name)}")
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
