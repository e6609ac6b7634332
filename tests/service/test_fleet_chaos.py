"""Chaos tests: the shard fleet under worker death and hangs mid-query.

Real worker processes, seeded fault plans.  The robustness contract
under test:

* a worker killed or hung **mid-query** never produces a wrong
  identification -- the affected shard goes uncovered (``coverage <
  1.0``) and surviving shards still answer correctly;
* the supervisor detects the failure (dead PID / stale heartbeat),
  respawns behind backoff, and the *next* request serves at full
  coverage -- bounded recovery, not an operator page;
* a crash-looping shard lands in ``DOWN`` once its restart budget is
  spent, serving stays degraded-but-correct, and an explicit
  ``revive()`` brings it back;
* chaos never corrupts the authentication plane: interleaved
  zero-HD authentications stay replay-free.

Fault plans are deterministic (site + index + attempt), so every run
sees the same kill schedule; the suite is chaos in effect, not in
repeatability.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.enrollment import enroll_chip
from repro.core.server import AuthenticationServer
from repro.faults import FaultPlan, FaultSpec, Site
from repro.service import AuthenticationService, ServiceConfig
from repro.service.fleet import (
    FleetConfig,
    FleetOutcome,
    ShardDispatcher,
)
from repro.silicon.chip import fabricate_lot

pytestmark = [
    pytest.mark.service,
    pytest.mark.chaos,
    pytest.mark.shard,
    pytest.mark.timeout(180),
]

N_STAGES = 16
N_XORS = 2
N_CHALLENGES = 64
BOOK_SEED = 873


@pytest.fixture(scope="module")
def fleet_fixture():
    """Four enrolled chips, their server, and replay transcripts."""
    lot = fabricate_lot(4, N_XORS, N_STAGES, seed=880)
    server = AuthenticationServer()
    for index, chip in enumerate(lot):
        server.register(
            enroll_chip(
                chip,
                n_enroll_challenges=300,
                n_validation_challenges=400,
                seed=881 + index,
            )
        )
    book = server.codebook(N_CHALLENGES, seed=BOOK_SEED)

    class Replay:
        def __init__(self, chip):
            self.chip_id = chip.chip_id
            self._bits = np.asarray(
                chip.xor_response(book.stacked_challenges)
            )

        def xor_response(self, challenges, condition=None):
            return self._bits

    replays = [Replay(chip) for chip in lot]
    reference = server.identify_many(
        replays, n_challenges=N_CHALLENGES, seed=BOOK_SEED
    )
    return lot, server, replays, reference


def chaos_config(**overrides):
    defaults = dict(
        n_shards=2,
        n_challenges=N_CHALLENGES,
        request_timeout=3.0,
        heartbeat_interval=0.05,
        heartbeat_timeout=0.75,
        max_restarts=5,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def assert_never_wrong(reference, results):
    """Degraded answers may miss (None) but must never misidentify."""
    for ref, got in zip(reference, results):
        if got.chip_id is not None:
            assert got.chip_id == ref.chip_id, (
                f"WRONG identification under chaos: {got} (expected "
                f"{ref.chip_id})"
            )


class TestMultiprocessBitIdentity:
    def test_worker_fleet_matches_single_process(self, fleet_fixture):
        lot, server, replays, reference = fleet_fixture
        with ShardDispatcher(
            server, chaos_config(), seed=BOOK_SEED
        ) as dispatcher:
            results = dispatcher.identify_many(replays)
            singles = server.identify_many(
                replays, n_challenges=N_CHALLENGES, seed=BOOK_SEED,
            )
            for ref, got in zip(singles, results):
                assert got.coverage == 1.0
                assert ref.chip_id == got.chip_id
                assert ref.match_fraction == got.match_fraction


class TestCrashMidQuery:
    def test_kill_degrades_then_recovers(self, fleet_fixture):
        lot, server, replays, reference = fleet_fixture
        # Whoever serves request 0 on any shard dies mid-query (the
        # process exits, no reply).  Attempt keys on the dispatcher's
        # request sequence, so the respawned worker heals for request 1.
        plan = FaultPlan([
            FaultSpec(
                site=Site.SHARD_SCORE, kind="crash", at=0, fail_attempts=1
            ),
        ])
        with ShardDispatcher(
            server, chaos_config(), seed=BOOK_SEED, faults=plan
        ) as dispatcher:
            degraded = dispatcher.identify_many(replays)
            assert all(r.coverage < 1.0 for r in degraded)
            assert all(0 in r.uncovered_shards for r in degraded)
            assert_never_wrong(reference, degraded)
            # Surviving shards still answered correctly: every probe
            # whose identity lives on shard 1 must be identified.
            assert any(r.chip_id is not None for r in degraded)

            recovered = dispatcher.identify_many(replays)
            assert all(r.coverage == 1.0 for r in recovered)
            for ref, got in zip(reference, recovered):
                assert ref.chip_id == got.chip_id
                assert ref.match_fraction == got.match_fraction

            counts = dispatcher.log.outcome_counts()
            assert counts.get(FleetOutcome.WORKER_CRASHED.value, 0) >= 1
            assert counts.get(FleetOutcome.WORKER_RESTARTED.value, 0) >= 1
            assert counts.get(FleetOutcome.SHARD_RECOVERED.value, 0) >= 1
            assert counts.get(FleetOutcome.DEGRADED_SERVE.value, 0) == 1
            assert dispatcher.log.min_coverage() < 1.0

    def test_chaos_never_touches_the_replay_invariant(self, fleet_fixture):
        """Worker chaos on the identification plane cannot corrupt the
        zero-HD authentication plane's no-replay accounting."""
        lot, server, replays, reference = fleet_fixture
        service = AuthenticationService(server, ServiceConfig())
        plan = FaultPlan([
            FaultSpec(
                site=Site.SHARD_SCORE, kind="crash", at=0, fail_attempts=1
            ),
        ])
        with ShardDispatcher(
            server, chaos_config(), seed=BOOK_SEED, faults=plan
        ) as dispatcher:
            service.attach_fleet(dispatcher)
            for _ in range(3):
                for chip in lot[:2]:
                    service.authenticate(chip)
                results = service.identify_many(replays)
                assert_never_wrong(reference, results)
            service.detach_fleet()
        assert service.audit.replayed_digests() == {}


class TestHangMidQuery:
    def test_hang_detected_by_heartbeat_and_recovered(self, fleet_fixture):
        lot, server, replays, reference = fleet_fixture
        # Shard 1's worker stalls inside the scoring path for far longer
        # than the request deadline; the heartbeat goes stale and the
        # supervisor must kill + respawn it.
        plan = FaultPlan([
            FaultSpec(
                site=Site.SHARD_SCORE, kind="hang", at=1, fail_attempts=1,
                seconds=60.0,
            ),
        ])
        with ShardDispatcher(
            server, chaos_config(), seed=BOOK_SEED, faults=plan
        ) as dispatcher:
            degraded = dispatcher.identify_many(replays)
            assert all(1 in r.uncovered_shards for r in degraded)
            assert_never_wrong(reference, degraded)

            recovered = dispatcher.identify_many(replays)
            assert all(r.coverage == 1.0 for r in recovered)
            for ref, got in zip(reference, recovered):
                assert ref.chip_id == got.chip_id

            counts = dispatcher.log.outcome_counts()
            assert counts.get(FleetOutcome.WORKER_HUNG.value, 0) >= 1
            assert counts.get(FleetOutcome.WORKER_RESTARTED.value, 0) >= 1


class TestRestartBudget:
    def test_crash_loop_lands_down_then_revive(self, fleet_fixture):
        lot, server, replays, reference = fleet_fixture
        max_restarts = 2
        # Shard 0's worker dies during attach for spawn generations
        # 0..2 (initial + both budgeted restarts); generation 3 -- only
        # reachable through an explicit revive -- heals.
        plan = FaultPlan([
            FaultSpec(
                site=Site.SHARD_ATTACH, kind="crash", at=0,
                fail_attempts=max_restarts + 1,
            ),
        ])
        with ShardDispatcher(
            server, chaos_config(max_restarts=max_restarts),
            seed=BOOK_SEED, faults=plan,
        ) as dispatcher:
            degraded = dispatcher.identify_many(replays)
            assert dispatcher.shard_states()[0] == "down"
            assert all(r.coverage < 1.0 for r in degraded)
            assert_never_wrong(reference, degraded)
            counts = dispatcher.log.outcome_counts()
            assert counts.get(FleetOutcome.SHARD_DOWN.value, 0) == 1

            assert dispatcher.revive() == [0]
            recovered = dispatcher.identify_many(replays)
            assert all(r.coverage == 1.0 for r in recovered)
            for ref, got in zip(reference, recovered):
                assert ref.chip_id == got.chip_id
            assert dispatcher.shard_states()[0] == "up"
