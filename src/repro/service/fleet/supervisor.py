"""Heartbeat-based supervision of the shard worker pool.

The supervisor owns process lifecycles, nothing else: it spawns one
worker per shard, watches PID liveness and the shared heartbeat array,
kills hung workers, respawns dead ones behind the
:class:`~repro.engine.runtime.RetryPolicy`'s exponential backoff with
deterministic jitter (keyed by shard index), and degrades a shard to
``DOWN`` once its restart budget is spent.  The dispatcher drives it
(``ensure_alive`` before/after every request batch) and feeds it attach
acknowledgements; the supervisor never reads the reply queue itself.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import enum
import time
from typing import Dict, List, Optional

from repro.engine.runtime import RetryPolicy
from repro.faults import FaultPlan
from repro.service.fleet.config import FleetConfig
from repro.service.fleet.events import FleetLog, FleetOutcome
from repro.service.fleet.shm import ShardSpec
from repro.service.fleet.worker import shard_worker_main

__all__ = ["ShardState", "WorkerHandle", "ShardSupervisor"]


class ShardState(str, enum.Enum):
    """Supervision state machine of one shard.

    ``STARTING -> UP`` on the worker's attach acknowledgement;
    ``UP -> STARTING`` through a kill + respawn when the worker dies or
    its heartbeat goes stale; ``-> DOWN`` when the restart budget is
    exhausted (degraded, partial-coverage serving); ``DOWN -> STARTING``
    only through an explicit :meth:`ShardSupervisor.revive`.
    """

    STARTING = "starting"
    UP = "up"
    DOWN = "down"


@dataclasses.dataclass
class WorkerHandle:
    """Book-keeping for one shard's worker process."""

    index: int
    spec: ShardSpec
    state: ShardState = ShardState.STARTING
    process: Optional[multiprocessing.process.BaseProcess] = None
    request_queue: object = None
    generation: int = 0
    restarts: int = 0


class ShardSupervisor:
    """Spawn, watch, kill, respawn: the fleet's robustness layer."""

    def __init__(
        self,
        specs: List[ShardSpec],
        reply_queue,
        config: FleetConfig,
        log: FleetLog,
        *,
        faults: Optional[FaultPlan] = None,
        context=None,
    ) -> None:
        self._config = config
        self._log = log
        self._faults = faults
        self._ctx = context or multiprocessing.get_context(config.start_method)
        self._reply_queue = reply_queue
        self._heartbeat = self._ctx.Array("d", len(specs), lock=False)
        self._handles: List[WorkerHandle] = [
            WorkerHandle(index=i, spec=spec,
                         request_queue=self._ctx.Queue())
            for i, spec in enumerate(specs)
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def handles(self) -> List[WorkerHandle]:
        return list(self._handles)

    def up_handles(self) -> List[WorkerHandle]:
        """Shards currently attached and serving."""
        return [h for h in self._handles if h.state is ShardState.UP]

    def states(self) -> Dict[int, str]:
        """``shard index -> state value`` snapshot."""
        return {h.index: h.state.value for h in self._handles}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker (states land in ``STARTING``)."""
        for handle in self._handles:
            self._spawn(handle)

    def _spawn(self, handle: WorkerHandle) -> None:
        # Stamp the slot *before* the child runs so a worker that dies
        # during attach is judged by spawn time, not leftover garbage.
        self._heartbeat[handle.index] = time.monotonic()
        handle.process = self._ctx.Process(
            target=shard_worker_main,
            args=(handle.index, handle.generation, handle.spec,
                  handle.request_queue, self._reply_queue, self._heartbeat,
                  self._config.heartbeat_interval, self._faults),
            daemon=True,
            name=f"repro-shard-{handle.index}",
        )
        handle.state = ShardState.STARTING
        handle.process.start()
        self._log.record(
            FleetOutcome.WORKER_SPAWNED, shard=handle.index,
            generation=handle.generation,
            detail=f"pid {handle.process.pid}",
        )

    def mark_attached(self, worker_index: int, generation: int) -> None:
        """Handle an attach acknowledgement routed in by the dispatcher."""
        handle = self._handles[worker_index]
        if generation != handle.generation:
            return  # stale ack from a kill-raced predecessor
        was_restart = handle.restarts > 0
        handle.state = ShardState.UP
        self._log.record(
            FleetOutcome.WORKER_ATTACHED, shard=handle.index,
            generation=generation,
        )
        if was_restart:
            self._log.record(
                FleetOutcome.SHARD_RECOVERED, shard=handle.index,
                generation=generation,
                detail=f"serving again after {handle.restarts} restart(s)",
            )

    def ensure_alive(self) -> None:
        """Detect dead/hung workers; kill and respawn within budget."""
        now = time.monotonic()
        for handle in self._handles:
            if handle.state is ShardState.DOWN or handle.process is None:
                continue
            alive = handle.process.is_alive()
            stale = (
                now - self._heartbeat[handle.index]
                > self._config.heartbeat_timeout
            )
            if alive and not stale:
                continue
            if alive:
                self._log.record(
                    FleetOutcome.WORKER_HUNG, shard=handle.index,
                    generation=handle.generation,
                    detail=(
                        "heartbeat stale by "
                        f"{now - self._heartbeat[handle.index]:.2f}s; killing"
                    ),
                )
            else:
                self._log.record(
                    FleetOutcome.WORKER_CRASHED, shard=handle.index,
                    generation=handle.generation,
                    detail=f"exit code {handle.process.exitcode}",
                )
            self._kill(handle)
            self._restart(handle)

    def _kill(self, handle: WorkerHandle) -> None:
        process = handle.process
        if process is None:
            return
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - stuck in a syscall
                process.kill()
                process.join(timeout=1.0)
        else:
            process.join(timeout=1.0)

    def _restart(self, handle: WorkerHandle) -> None:
        if handle.restarts >= self._config.max_restarts:
            handle.state = ShardState.DOWN
            self._log.record(
                FleetOutcome.SHARD_DOWN, shard=handle.index,
                generation=handle.generation,
                detail=(
                    f"restart budget ({self._config.max_restarts}) "
                    "exhausted; serving degraded"
                ),
            )
            return
        delay = self._config.restart_policy.delay(
            handle.restarts, key=handle.index
        )
        if delay > 0:
            time.sleep(delay)
        handle.restarts += 1
        handle.generation += 1
        self._spawn(handle)
        self._log.record(
            FleetOutcome.WORKER_RESTARTED, shard=handle.index,
            generation=handle.generation,
            detail=f"restart {handle.restarts} after {delay:.3f}s backoff",
        )

    def revive(self) -> List[int]:
        """Operator action: reset DOWN shards' budgets and respawn them."""
        revived = []
        for handle in self._handles:
            if handle.state is ShardState.DOWN:
                handle.restarts = 0
                handle.generation += 1
                self._spawn(handle)
                revived.append(handle.index)
        return revived

    def reattach(self, specs: List[ShardSpec]) -> None:
        """Point every live worker at fresh segments (re-layout)."""
        if len(specs) != len(self._handles):
            raise ValueError(
                f"re-layout changed the shard count: {len(specs)} specs "
                f"for {len(self._handles)} workers"
            )
        for handle, spec in zip(self._handles, specs):
            handle.spec = spec
            if handle.state is ShardState.UP:
                handle.state = ShardState.STARTING
                handle.request_queue.put(("attach", spec))

    def stop(self) -> None:
        """Shut the pool down: polite stop, then terminate stragglers."""
        for handle in self._handles:
            if handle.process is not None and handle.process.is_alive():
                try:
                    handle.request_queue.put(("stop",))
                except Exception:  # pragma: no cover - queue torn down
                    pass
        deadline = time.monotonic() + 2.0
        for handle in self._handles:
            if handle.process is None:
                continue
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        for handle in self._handles:
            queue = handle.request_queue
            if queue is not None:
                queue.close()
                queue.cancel_join_thread()
