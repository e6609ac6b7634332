"""The shard worker process: attach, heartbeat, score, die honestly.

One worker owns one shard.  Its loop is deliberately tiny -- update the
heartbeat slot, pull a message, score -- because everything around it
is the failure surface under test: injected faults at
:attr:`Site.SHARD_ATTACH` / :attr:`Site.SHARD_HEARTBEAT` /
:attr:`Site.SHARD_SCORE` terminate the *process* (``os._exit``), not
just raise, so the supervisor sees exactly what a real segfault or
OOM-kill looks like: a dead PID mid-query, no reply, no cleanup.

Fault attempt keys are chosen so chaos heals deterministically:

* attach/heartbeat faults key on the worker's **spawn generation** --
  generation 0 crashes, its respawn (generation 1) succeeds;
* score faults key on the dispatcher's **request sequence** -- request
  0 dies whoever serves it, later requests succeed even though the
  respawned process has fresh fault counters.
"""

from __future__ import annotations

import os
import queue
import time
from typing import List, Optional

import numpy as np

from repro.core.codebook import (
    IdentificationResult,
    best_matches,
    packed_match_fractions,
)
from repro.faults import FaultPlan, InjectedFault, Site
from repro.service.fleet.shm import ShardSegment, ShardSpec

__all__ = ["score_shard", "shard_worker_main", "WORKER_EXIT_INJECTED"]

#: Exit status of a worker killed by an injected fault (distinguishes
#: chaos deaths from real bugs in test postmortems).
WORKER_EXIT_INJECTED = 3


def score_shard(
    segment: ShardSegment,
    packed_queries: np.ndarray,
    min_match_fraction: float,
) -> List[IdentificationResult]:
    """One shard's decisions for a packed ``(n_queries, n_rows, n_bytes)``
    batch slice: the codebook's scoring pass and winner rule over the
    shard's rows.  A winner is named by its global row number (a shard
    holds no chip ids).  Worker processes and the dispatcher's inline
    mode both score through here.
    """
    spec = segment.spec
    match = packed_match_fractions(
        packed_queries, segment.packed[None, :, :], spec.n_challenges
    )
    return best_matches(
        range(spec.start, spec.stop), match, segment.active,
        min_match_fraction,
    )


def _die(exc: InjectedFault) -> None:  # pragma: no cover - exits the process
    """Injected faults kill the worker *process*, exactly like a crash."""
    os._exit(WORKER_EXIT_INJECTED)


def _check(
    faults: Optional[FaultPlan], site: str, index: int, attempt: int
) -> None:
    """Consult the plan; ``hang`` sleeps in place, everything else dies."""
    if faults is None:
        return
    try:
        faults.check(site, index, attempt=attempt)
    except InjectedFault as exc:
        _die(exc)


def shard_worker_main(
    worker_index: int,
    generation: int,
    spec: ShardSpec,
    request_queue,
    reply_queue,
    heartbeat,
    heartbeat_interval: float,
    faults: Optional[FaultPlan] = None,
) -> None:
    """Entry point of one shard worker process.

    Protocol (requests on *request_queue*, replies on *reply_queue*):

    * ``("attach", spec)`` -> re-map a new segment (re-layout), reply
      ``("attached", worker_index, shard_index, generation, epoch)``;
    * ``("score", req_id, packed_queries, min_match_fraction)`` ->
      reply ``("result", req_id, shard_index, generation, epoch,
      results)`` with one :func:`score_shard` decision per query;
    * ``("stop",)`` -> clean exit.

    The heartbeat slot is refreshed every loop iteration (idle loops
    time out of the queue read after *heartbeat_interval*), so a stall
    anywhere -- injected or real -- goes silent within one interval.
    """
    segment: Optional[ShardSegment] = None
    try:
        heartbeat[worker_index] = time.monotonic()
        _check(faults, Site.SHARD_ATTACH, spec.shard_index, generation)
        segment = ShardSegment.attach(spec)
        reply_queue.put(
            ("attached", worker_index, spec.shard_index, generation,
             segment.epoch)
        )
        while True:
            heartbeat[worker_index] = time.monotonic()
            _check(faults, Site.SHARD_HEARTBEAT, spec.shard_index, generation)
            try:
                message = request_queue.get(timeout=heartbeat_interval)
            except queue.Empty:
                continue
            kind = message[0]
            if kind == "stop":
                return
            if kind == "attach":
                spec = message[1]
                _check(faults, Site.SHARD_ATTACH, spec.shard_index, generation)
                segment.close()
                segment = ShardSegment.attach(spec)
                reply_queue.put(
                    ("attached", worker_index, spec.shard_index, generation,
                     segment.epoch)
                )
                continue
            if kind == "score":
                _, req_id, packed_queries, min_match_fraction = message
                _check(faults, Site.SHARD_SCORE, spec.shard_index, req_id)
                reply_queue.put(
                    ("result", req_id, spec.shard_index, generation,
                     segment.epoch,
                     score_shard(segment, packed_queries, min_match_fraction))
                )
    finally:
        if segment is not None:
            segment.close()
