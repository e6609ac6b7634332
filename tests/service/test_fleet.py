"""Unit + property tests of the sharded identification fleet (inline mode).

Inline mode runs the dispatcher's exact shard partition, shared-memory
segments, scoring kernels and merge -- everything but the worker
processes -- so these tests pin the data-plane contract fast and
deterministically:

* the merged batch is **bit-identical** to single-process
  ``identify_many`` (chip id and match fraction, at coverage 1.0),
  property-tested across register / retighten / revoke interleavings;
* refresh folds journalled mutations correctly: content-only changes
  rewrite rows in place, membership changes re-partition;
* bounded queues shed load with a typed :class:`OverloadError`;
* degenerate populations surface typed errors, not numpy internals.

The process-level robustness layer (crash/hang detection, restart
backoff, degraded coverage) is exercised by the ``shard``-marked chaos
suite in ``test_fleet_chaos.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.codebook import (
    CodebookPolicy,
    best_matches,
    packed_match_fractions,
)
from repro.core.enrollment import enroll_chip
from repro.core.server import AuthenticationServer, UnknownChipError
from repro.service import AuthenticationService, ServiceConfig
from repro.service.fleet import (
    FleetConfig,
    FleetLog,
    FleetOutcome,
    OverloadError,
    ShardDispatcher,
)
from repro.service.fleet.shm import ShardSegment, ShardSpec
from repro.silicon.chip import PufChip, fabricate_lot

pytestmark = pytest.mark.service

N_STAGES = 16
N_XORS = 2
N_CHALLENGES = 64
BOOK_SEED = 873


@pytest.fixture(scope="module")
def chip_pool():
    """Six small enrolled chips; enrollment runs once per module."""
    lot = fabricate_lot(6, N_XORS, N_STAGES, seed=860)
    records = {
        chip.chip_id: enroll_chip(
            chip,
            n_enroll_challenges=300,
            n_validation_challenges=400,
            seed=861 + index,
        )
        for index, chip in enumerate(lot)
    }
    return lot, records


class Replay:
    """One recorded device read, replayed identically to both planes.

    Live ``xor_response`` reads are noisy (fresh noise per call), so
    bit-identity can only be asserted on a shared transcript.
    """

    def __init__(self, chip: PufChip, challenges: np.ndarray) -> None:
        self.chip_id = chip.chip_id
        self._bits = np.asarray(chip.xor_response(challenges))

    def xor_response(self, challenges, condition=None):
        return self._bits


def build_server(records, ids):
    server = AuthenticationServer()
    for chip_id in ids:
        server.register(records[chip_id])
    return server


def assert_bit_identical(server, dispatcher, probes):
    """The fleet's merged batch == the single-process batch, exactly."""
    book = server.codebook(N_CHALLENGES, seed=BOOK_SEED)
    replays = [Replay(chip, book.stacked_challenges) for chip in probes]
    reference = server.identify_many(
        replays, n_challenges=N_CHALLENGES, seed=BOOK_SEED,
    )
    merged = dispatcher.identify_many(replays)
    assert len(reference) == len(merged)
    for ref, got in zip(reference, merged):
        assert got.coverage == 1.0
        assert got.uncovered_shards == ()
        assert ref.chip_id == got.chip_id
        assert ref.match_fraction == got.match_fraction


# ----------------------------------------------------------------------
# Bit-identity
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
    def test_static_population(self, chip_pool, n_shards):
        """Any shard count reproduces the single-process batch exactly
        -- including shard counts above the population (empty shards)."""
        lot, records = chip_pool
        server = build_server(records, [c.chip_id for c in lot[:5]])
        with ShardDispatcher(
            server, FleetConfig(n_shards=n_shards, inline=True),
            seed=BOOK_SEED,
        ) as dispatcher:
            assert_bit_identical(server, dispatcher, lot)

    @given(
        ops=st.lists(
            st.sampled_from(["register", "retighten", "revoke"]),
            min_size=1, max_size=6,
        ),
        n_shards=st.integers(1, 4),
        data=st.data(),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_mutation_interleavings(self, chip_pool, ops, n_shards, data):
        """Bit-identity survives arbitrary register/retighten/revoke
        interleavings -- every op is compared through refresh before
        the next is applied, so in-place rewrites, epoch restamps and
        full re-layouts all get hit."""
        lot, records = chip_pool
        by_id = {chip.chip_id: chip for chip in lot}
        initial = sorted(records)[:3]
        server = build_server(records, initial)
        enrolled = set(initial)
        revoked = set()
        with ShardDispatcher(
            server, FleetConfig(n_shards=n_shards, inline=True),
            seed=BOOK_SEED,
        ) as dispatcher:
            assert_bit_identical(server, dispatcher, lot[:4])
            for op in ops:
                if op == "register":
                    candidates = sorted(
                        set(records) - enrolled - revoked
                    )
                    if not candidates:
                        continue
                    chip_id = data.draw(
                        st.sampled_from(candidates), label="register"
                    )
                    server.register(records[chip_id])
                    enrolled.add(chip_id)
                elif op == "retighten":
                    active = sorted(enrolled - revoked)
                    if not active:
                        continue
                    chip_id = data.draw(
                        st.sampled_from(active), label="retighten"
                    )
                    server.retighten(chip_id, 0.9, 1.1)
                else:
                    active = sorted(enrolled - revoked)
                    if len(active) <= 1:
                        continue  # keep the fleet serveable
                    chip_id = data.draw(
                        st.sampled_from(active), label="revoke"
                    )
                    server.revoke(chip_id)
                    revoked.add(chip_id)
                assert_bit_identical(server, dispatcher, lot[:4])

    def test_refresh_event_kinds(self, chip_pool):
        """Content-only mutations refresh in place; membership changes
        re-partition."""
        lot, records = chip_pool
        server = build_server(records, sorted(records)[:4])
        log = FleetLog()
        with ShardDispatcher(
            server, FleetConfig(n_shards=2, inline=True),
            seed=BOOK_SEED, log=log,
        ) as dispatcher:
            server.retighten(lot[0].chip_id, 0.9, 1.1)
            assert dispatcher.refresh()
            assert log.with_outcome(FleetOutcome.SHARD_REFRESHED)
            assert not log.with_outcome(FleetOutcome.SHARD_RELAYOUT)

            server.register(records[sorted(records)[4]])
            assert dispatcher.refresh()
            assert log.with_outcome(FleetOutcome.SHARD_RELAYOUT)
            assert dispatcher.epoch == server.epoch
            assert not dispatcher.refresh()  # already synced

    def test_refresh_drains_capped_deferred_backlog(self, chip_pool):
        """The fleet drains a deferred backlog whole (rows the policy
        would still serve stale), so a later sync never grows the
        codebook under the segments."""
        lot, records = chip_pool
        ids = sorted(records)
        server = AuthenticationServer(
            codebook_policy=CodebookPolicy(deferred=True)
        )
        for chip_id in ids[:3]:
            server.register(records[chip_id])
        with ShardDispatcher(
            server, FleetConfig(n_shards=2, inline=True), seed=BOOK_SEED,
        ) as dispatcher:
            for chip_id in ids[3:5]:
                server.register(records[chip_id])
            assert dispatcher.refresh()
            book = server.codebook(N_CHALLENGES, seed=BOOK_SEED)
            assert book.synced_epoch == server.epoch == dispatcher.epoch
            server.sync_codebooks()
            assert_bit_identical(server, dispatcher, lot)


# ----------------------------------------------------------------------
# Robustness contract (inline-reachable parts)
# ----------------------------------------------------------------------
class TestBoundedQueues:
    def test_oversized_batch_sheds_typed(self, chip_pool):
        lot, records = chip_pool
        server = build_server(records, sorted(records)[:3])
        config = FleetConfig(n_shards=2, inline=True, max_pending=2)
        with ShardDispatcher(server, config, seed=BOOK_SEED) as dispatcher:
            book = server.codebook(N_CHALLENGES, seed=BOOK_SEED)
            replays = [
                Replay(chip, book.stacked_challenges) for chip in lot[:3]
            ]
            with pytest.raises(OverloadError) as excinfo:
                dispatcher.identify_many(replays)
            assert excinfo.value.limit == 2
            assert dispatcher.log.with_outcome(FleetOutcome.OVERLOAD_SHED)

    def test_service_serves_oversized_batch_in_bound_sized_passes(
        self, chip_pool
    ):
        """The service chunks a batch at the bound instead of shedding it."""
        lot, records = chip_pool
        server = build_server(records, sorted(records)[:3])
        service = AuthenticationService(server, ServiceConfig())
        with ShardDispatcher(
            server, FleetConfig(n_shards=2, inline=True, max_pending=2),
            seed=BOOK_SEED,
        ) as dispatcher:
            service.attach_fleet(dispatcher)
            book = server.codebook(N_CHALLENGES, seed=BOOK_SEED)
            replays = [
                Replay(chip, book.stacked_challenges) for chip in lot[:3]
            ]
            results = service.identify_many(replays)
            assert [r.chip_id for r in results] == [
                c.chip_id for c in lot[:3]
            ]
            assert dispatcher.score_passes == 2  # slots [0, 1] then [2]
            assert not dispatcher.log.with_outcome(FleetOutcome.OVERLOAD_SHED)
            assert [
                e.request for e in service.audit.events
                if e.outcome.value == "identified"
            ] == [0, 1, 2]


class TestDegeneratePopulations:
    def test_empty_server_refused_at_construction(self):
        with pytest.raises(UnknownChipError):
            ShardDispatcher(
                AuthenticationServer(),
                FleetConfig(n_shards=2, inline=True),
            )

    def test_total_revocation_surfaces_typed_error(self, chip_pool):
        lot, records = chip_pool
        server = build_server(records, sorted(records)[:2])
        with ShardDispatcher(
            server, FleetConfig(n_shards=2, inline=True), seed=BOOK_SEED,
        ) as dispatcher:
            book = server.codebook(N_CHALLENGES, seed=BOOK_SEED)
            replay = Replay(lot[0], book.stacked_challenges)
            for chip_id in list(server.active_ids):
                server.revoke(chip_id)
            with pytest.raises(UnknownChipError):
                dispatcher.identify_many([replay])

    def test_single_identity_fleet(self, chip_pool):
        lot, records = chip_pool
        server = build_server(records, [lot[0].chip_id])
        with ShardDispatcher(
            server, FleetConfig(n_shards=3, inline=True), seed=BOOK_SEED,
        ) as dispatcher:
            assert_bit_identical(server, dispatcher, [lot[0], lot[1]])


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------
class TestServiceIntegration:
    def test_attach_fleet_routes_and_audits(self, chip_pool):
        lot, records = chip_pool
        server = build_server(records, sorted(records)[:3])
        service = AuthenticationService(server, ServiceConfig())
        with ShardDispatcher(
            server, FleetConfig(n_shards=2, inline=True), seed=BOOK_SEED,
        ) as dispatcher:
            service.attach_fleet(dispatcher)
            book = server.codebook(N_CHALLENGES, seed=BOOK_SEED)
            replays = [
                Replay(chip, book.stacked_challenges) for chip in lot[:3]
            ]
            results = service.identify_many(replays)
            assert [r.chip_id for r in results] == [
                c.chip_id for c in lot[:3]
            ]
            assert all(r.coverage == 1.0 for r in results)
            identified = [
                e for e in service.audit.events
                if e.outcome.value == "identified"
            ]
            assert len(identified) == 3
            service.detach_fleet()
            # Detached, the service serves from the in-process book.
            assert [
                r.chip_id for r in service.identify_many(replays)
            ] == [c.chip_id for c in lot[:3]]


# ----------------------------------------------------------------------
# Building blocks
# ----------------------------------------------------------------------
class TestShardSegment:
    def _spec(self, n_rows=4, n_bytes=8, epoch=3):
        import uuid

        return ShardSpec(
            shard_index=0,
            name=f"repro-test-{uuid.uuid4().hex[:12]}",
            start=0, stop=n_rows, n_bytes=n_bytes,
            n_challenges=64, epoch=epoch,
        )

    def test_create_attach_round_trip(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 256, size=(4, 8), dtype=np.uint8)
        active = np.array([True, False, True, True])
        spec = self._spec()
        owner = ShardSegment.create(spec, rows, active)
        try:
            mapped = ShardSegment.attach(spec)
            assert mapped.epoch == 3
            assert (mapped.packed == rows).all()
            assert (mapped.active == active).all()
            mapped.close()
        finally:
            owner.close()
            owner.unlink()

    def test_write_restamps_epoch_in_place(self):
        rng = np.random.default_rng(6)
        spec = self._spec()
        owner = ShardSegment.create(
            spec, np.zeros((4, 8), np.uint8), np.ones(4, bool)
        )
        try:
            mapped = ShardSegment.attach(owner.spec)
            fresh = rng.integers(0, 256, size=(4, 8), dtype=np.uint8)
            owner.write(fresh, np.array([True, True, False, True]), 9)
            # The attached view sees the rewrite without re-mapping.
            assert mapped.epoch == 9
            assert (mapped.packed == fresh).all()
            assert not mapped.active[2]
            mapped.close()
        finally:
            owner.close()
            owner.unlink()

    def test_set_epoch_leaves_rows_untouched(self):
        spec = self._spec()
        rows = np.full((4, 8), 7, np.uint8)
        owner = ShardSegment.create(spec, rows, np.ones(4, bool))
        try:
            owner.set_epoch(11)
            assert owner.epoch == 11
            assert (owner.packed == rows).all()
        finally:
            owner.close()
            owner.unlink()

    def test_attach_rejects_layout_mismatch(self):
        import dataclasses as dc

        spec = self._spec()
        owner = ShardSegment.create(
            spec, np.zeros((4, 8), np.uint8), np.ones(4, bool)
        )
        try:
            bad = dc.replace(spec, stop=spec.stop + 1)
            with pytest.raises(ValueError, match="holds"):
                ShardSegment.attach(bad)
        finally:
            owner.close()
            owner.unlink()

    def test_empty_shard_is_legal(self):
        spec = self._spec(n_rows=0)
        owner = ShardSegment.create(
            spec, np.zeros((0, 8), np.uint8), np.zeros(0, bool)
        )
        try:
            assert owner.packed.shape == (0, 8)
        finally:
            owner.close()
            owner.unlink()


class TestScoring:
    """The codebook's winner rule as a shard applies it to its slice:
    chip labels are global row numbers."""

    def test_sentinel_masks_inactive_rows(self):
        match = np.array([[0.3, 0.9, 0.1], [0.5, 0.2, 1.0]])
        active = np.array([True, False, True])
        results = best_matches(range(4, 7), match, active, 0.25)
        # Row 5 is masked: request 0's winner is row 4 (0.3), request
        # 1's is row 6 (1.0).
        assert [r.chip_id for r in results] == [4, 6]
        assert [r.match_fraction for r in results] == [0.3, 1.0]

    def test_all_inactive_contributes_nothing(self):
        match = np.array([[0.3, 1.0]])
        [result] = best_matches(range(2), match, np.zeros(2, bool), 0.25)
        assert (result.chip_id, result.match_fraction) == (None, 0.0)

    def test_empty_shard_contributes_nothing(self):
        match = np.zeros((2, 0))
        results = best_matches(range(3, 3), match, np.zeros(0, bool), 0.5)
        assert [(r.chip_id, r.match_fraction) for r in results] == [
            (None, 0.0), (None, 0.0)
        ]

    def test_first_occurrence_tie_break(self):
        match = np.array([[0.75, 0.75, 0.75]])
        [result] = best_matches(range(3), match, np.ones(3, bool), 0.5)
        assert result.chip_id == 0
        [below] = best_matches(range(3), match, np.ones(3, bool), 0.8)
        assert (below.chip_id, below.match_fraction) == (None, 0.75)

    def test_shard_distances_empty_rows(self):
        out = packed_match_fractions(
            np.zeros((3, 0, 8), np.uint8), np.zeros((1, 0, 8), np.uint8), 64
        )
        assert out.shape == (3, 0)


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(n_shards=0)
        with pytest.raises(ValueError):
            FleetConfig(max_pending=0)
        with pytest.raises(ValueError):
            FleetConfig(request_timeout=0)


class TestFleetLog:
    def test_min_coverage_over_degraded_serves(self):
        log = FleetLog()
        assert log.min_coverage() == 1.0
        log.record(FleetOutcome.DEGRADED_SERVE, coverage=0.5)
        log.record(FleetOutcome.DEGRADED_SERVE, coverage=0.75)
        assert log.min_coverage() == 0.5
        counts = log.outcome_counts()
        assert counts[FleetOutcome.DEGRADED_SERVE.value] == 2
