"""Property tests of incremental codebook invalidation.

The tentpole claim: after *any* interleaving of ``register`` /
``retighten`` / ``revoke`` / partial syncs, the incrementally
maintained codebook is **bit-identical** to one rebuilt from scratch
against the final database -- same row order, same packed bytes, same
stacked challenges, same fingerprints.  Records here are synthetic
(random delay models, wide thresholds) so hypothesis can afford real
op sequences; selection maths is identical to enrolled records.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.adjustment import BetaFactors
from repro.core.codebook import CodebookPolicy, IdentificationCodebook
from repro.core.enrollment import EnrollmentRecord
from repro.core.lifecycle import LifecycleError, RevokedChipError
from repro.core.model import LinearPufModel, XorPufModel
from repro.core.server import AuthenticationServer
from repro.core.thresholds import ThresholdPair

N_STAGES = 32


def synth_record(chip_id: str, seed: int, n_xors: int = 2) -> EnrollmentRecord:
    """A millisecond-cheap enrollment record with real selection maths."""
    rng = np.random.default_rng(seed)
    models = [
        LinearPufModel(rng.normal(size=N_STAGES + 1)) for _ in range(n_xors)
    ]
    return EnrollmentRecord(
        chip_id=chip_id,
        xor_model=XorPufModel(models),
        base_pairs=[ThresholdPair(0.4, 0.6)] * n_xors,
        betas=BetaFactors(1.0, 1.0),
        n_trials=1000,
    )


def seeded_server(seed: int, n_chips: int = 3) -> AuthenticationServer:
    server = AuthenticationServer()
    for index in range(n_chips):
        server.register(synth_record(f"chip-{index}", seed * 997 + index))
    return server


def fresh_rebuild(
    server: AuthenticationServer, n_challenges: int, seed: int
) -> IdentificationCodebook:
    """A from-scratch codebook over the server's final state."""
    book = IdentificationCodebook(n_challenges, seed=seed)
    book.sync(
        server._records,
        server.selector,
        epoch=server.epoch,
        revoked=server.revocations,
    )
    return book


def assert_bit_identical(
    book: IdentificationCodebook, fresh: IdentificationCodebook
) -> None:
    assert book.ids == fresh.ids
    fingerprints = {c: row.fingerprint for c, row in book._rows.items()}
    assert fingerprints == {
        c: row.fingerprint for c, row in fresh._rows.items()
    }
    if book.ids:
        np.testing.assert_array_equal(book.packed_matrix, fresh.packed_matrix)
        np.testing.assert_array_equal(
            book.stacked_challenges, fresh.stacked_challenges
        )
        assert book.active_mask.all() and fresh.active_mask.all()


OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "replace", "retighten", "revoke", "sync"]),
        st.integers(0, 2**20),
    ),
    max_size=14,
)


class TestIncrementalEqualsFullRebuild:
    @given(
        n_challenges=st.sampled_from([13, 61, 64]),
        ops=OPS,
        seed=st.integers(0, 2**20),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_interleaving(self, n_challenges, ops, seed):
        """Incremental state converges to the from-scratch rebuild.

        Odd block lengths exercise packbits padding; ops aimed at
        revoked identities exercise (and assert) the refusal paths;
        interleaved syncs make sure partial progress never poisons the
        final state.
        """
        server = seeded_server(seed)
        server.codebook(n_challenges, seed=seed)
        next_chip = 3
        for op, arg in ops:
            targets = server.enrolled_ids
            target = targets[arg % len(targets)]
            if op == "add":
                server.register(synth_record(f"chip-{next_chip}", seed + arg))
                next_chip += 1
            elif op == "replace":
                record = synth_record(target, seed ^ arg)
                if server.is_revoked(target):
                    with pytest.raises(RevokedChipError):
                        server.register(record)
                else:
                    server.register(record)
            elif op == "retighten":
                if server.is_revoked(target):
                    with pytest.raises(RevokedChipError):
                        server.retighten(target, 0.95, 1.02)
                else:
                    server.retighten(target, 0.95, 1.02)
            elif op == "revoke":
                if server.is_revoked(target):
                    with pytest.raises(LifecycleError):
                        server.revoke(target)
                else:
                    server.revoke(target, reason="property test")
            else:  # sync
                server.codebook(n_challenges)
        book = server.codebook(n_challenges)
        assert_bit_identical(book, fresh_rebuild(server, n_challenges, seed))

    @given(
        max_stale=st.integers(0, 6),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=15, deadline=None)
    def test_deferred_batched_drain(self, max_stale, seed):
        """A deferred policy drains to the same bits.

        Whatever the staleness bound, one maintenance call must reach
        the exact from-scratch state, and serve-time staleness must
        never exceed the bound.
        """
        policy = CodebookPolicy(deferred=True, max_stale_rows=max_stale)
        server = seeded_server(seed, n_chips=4)
        server.codebook(61, seed=seed)
        for index, chip_id in enumerate(server.enrolled_ids):
            if index % 2:
                server.retighten(chip_id, 0.95, 1.02)
        server.register(synth_record("chip-extra", seed + 99))
        deferred = AuthenticationServer(
            dict(server._records), codebook_policy=policy
        )
        book = deferred.codebook(61, seed=seed)
        for index, chip_id in enumerate(sorted(deferred.enrolled_ids)):
            if index % 3 == 0:
                deferred.retighten(chip_id, 0.9, 1.05)
        served = deferred.codebook(61)
        assert served.pending_rows(
            deferred._records, deferred.dirty_since(served.synced_epoch)
        ) <= max_stale  # a breached bound drained on the spot
        deferred.sync_codebooks()
        assert served.synced_epoch == deferred.epoch
        mirror = AuthenticationServer(dict(deferred._records))
        assert_bit_identical(
            deferred.codebook(61), fresh_rebuild(mirror, 61, seed)
        )


class TestTombstones:
    def test_revoke_masks_immediately_without_restack(self):
        server = seeded_server(31)
        book = server.codebook(64, seed=31)
        restacks = book.restacks
        victim = server.enrolled_ids[1]
        server.revoke(victim, reason="tombstone test")
        assert book.restacks == restacks  # mask flip only, no rebuild
        assert victim in book.ids  # bytes still present...
        mask = book.active_mask
        assert not mask[book.ids.index(victim)]  # ...but never argmax-able
        server.codebook(64)  # next sync compacts
        assert victim not in server.codebook(64).ids

    def test_revoked_id_never_rebuilt(self):
        server = seeded_server(32)
        victim = server.enrolled_ids[0]
        server.revoke(victim)
        book = server.codebook(64, seed=32)
        assert victim not in book.ids
        assert victim in server.enrolled_ids  # audit record retained
        assert victim not in server.active_ids

    def test_all_rows_tombstoned_identifies_nothing(self):
        server = seeded_server(33, n_chips=2)
        server.codebook(64, seed=33)
        for chip_id in list(server.active_ids):
            server.revoke(chip_id)
        book = server.codebook(64)
        assert book.ids == ()
