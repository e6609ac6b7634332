"""The bit-packed identification codebook and its popcount matcher.

1:N identification asks "which enrolled chip is this device?".  The
naive data plane answers it by running every identity's model-assisted
challenge selection (:class:`~repro.core.selection.ChallengeSelector`)
on every call -- a linear-regression sweep over tens of thousands of
candidate challenges *per identity per request*.  That is what capped
the server at ~10^2 identifications/sec.

This module turns identification into a table lookup:

* at enrollment (and whenever a record changes -- re-registration,
  threshold re-tightening) each identity's selected challenge block and
  predicted XOR responses are materialized **once**;
* predicted responses are bit-packed with :func:`numpy.packbits` into a
  contiguous ``(n_identities, n_bytes)`` codebook;
* ``identify`` becomes one stacked responder query followed by
  XOR + popcount Hamming scoring against **all** rows at once
  (:func:`numpy.bitwise_count` where available, a 256-entry lookup
  table otherwise).

Scores are bit-identical to the dense ``(responses == predicted).mean``
path: both reduce to ``n_equal / n_challenges`` with the same two
integers (pad bits cancel in the XOR), divided in the same float64 op.

Staleness is tracked **per record**: the server journals which chip ids
mutated at which epoch, and :meth:`IdentificationCodebook.sync` takes
that dirty set so a register/retighten/revoke wave touches only the
affected rows -- a fingerprint check and selector run per dirty id, an
in-place row write when membership is unchanged, one memory-only
restack when it is.  A full fingerprint sweep (``dirty=None``) remains
the recovery path for codebooks loaded from disk or servers without a
journal.  Revocation is cheaper still: :meth:`revoke_row` tombstones
the row out of the argmax *immediately* (a mask flip, no rebuild); the
next sync compacts the row away so the codebook converges to exactly
the matrix a from-scratch rebuild over the surviving identities would
produce.

Naming a winner is one rule, :func:`best_matches`, for every plane: the
server over its whole codebook, each fleet shard over its row slice,
and the dense reference sweep.

Persistence is crash-safe (PR 2's tmp + fsync + rename pattern with an
embedded SHA-256 payload checksum): a save interrupted mid-write leaves
the previous generation loadable, and corrupt bytes on disk surface as
:class:`~repro.crp.dataset.CorruptDatasetError` -- which the server
treats as "discard and rebuild", never as garbage scores.
"""

from __future__ import annotations

import dataclasses
import io
import json
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.enrollment import EnrollmentRecord
from repro.core.selection import ChallengeSelector
from repro.kernels import get_backend
from repro.utils.rng import derive_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "CodebookPolicy",
    "IdentificationCodebook",
    "IdentificationResult",
    "CodebookRow",
    "best_matches",
    "pack_responses",
    "popcount",
    "packed_match_fractions",
]

#: Per-byte popcount lookup table (fallback when numpy lacks
#: ``bitwise_count``; also handy for tests of the fast path).
_POPCOUNT_LUT = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)

_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount(packed: np.ndarray, *, use_lut: bool = False) -> np.ndarray:
    """Per-byte set-bit counts of a uint8 array.

    Uses :func:`numpy.bitwise_count` when the installed numpy provides
    it (>= 1.26); *use_lut* forces the table fallback so both kernels
    stay testable on any environment.
    """
    packed = np.asarray(packed, dtype=np.uint8)
    if _HAVE_BITWISE_COUNT and not use_lut:
        return np.bitwise_count(packed)
    return _POPCOUNT_LUT[packed]


def pack_responses(bits: np.ndarray) -> np.ndarray:
    """Bit-pack 0/1 response bits along the last axis (big-endian).

    ``n_challenges`` that is not a multiple of 8 is padded with zero
    bits; because both sides of every comparison are packed the same
    way, the pad bits XOR to zero and never contribute to a Hamming
    distance.
    """
    bits = np.asarray(bits)
    # Validation must not allocate grid-sized temporaries: a batched
    # serving pass packs (n_requests, n_identities * n_challenges)
    # grids that dwarf the cache, where the old
    # ``np.isin(bits, (0, 1))`` sort was the dominant cost of the
    # whole pass.  Integer/bool grids are range-checked with two
    # read-only reductions; only odd dtypes (floats, objects) pay for
    # elementwise comparisons.
    if bits.size:
        if bits.dtype == np.bool_:
            pass
        elif np.issubdtype(bits.dtype, np.integer):
            if int(bits.min()) < 0 or int(bits.max()) > 1:
                raise ValueError("response bits must be 0/1")
        elif not ((bits == 0) | (bits == 1)).all():
            raise ValueError("response bits must be 0/1")
    if bits.dtype.itemsize == 1 and bits.dtype != np.uint8:
        # A validated 0/1 int8/bool array reinterprets as uint8 for
        # free; astype would copy the full grid.
        bits = bits.view(np.uint8)
    return np.packbits(bits.astype(np.uint8, copy=False), axis=-1)


def packed_match_fractions(
    packed_responses: np.ndarray,
    packed_predicted: np.ndarray,
    n_challenges: int,
    *,
    use_lut: bool = False,
) -> np.ndarray:
    """Match fractions from two bit-packed response arrays.

    Parameters
    ----------
    packed_responses / packed_predicted:
        Broadcast-compatible uint8 arrays whose last axis holds
        ``ceil(n_challenges / 8)`` packed bytes.
    n_challenges:
        True (unpadded) number of response bits per row.

    Returns
    -------
    numpy.ndarray
        Float64 agreement fractions with the last (byte) axis reduced:
        exactly ``(n_challenges - hamming_distance) / n_challenges``.

    On a kernel backend that provides compiled packed scorers
    (:mod:`repro.kernels`), the two serving-hot shapes -- row-aligned
    pairs and the request-grid-vs-codebook matrix -- run through a
    parallel XOR + popcount kernel; every other broadcast combination
    (and ``use_lut=True``) takes the vectorized numpy path.  Distances
    are integers either way, so the scores are bit-identical.
    """
    check_positive_int(n_challenges, "n_challenges")
    distances = _packed_distances(
        np.asarray(packed_responses, dtype=np.uint8),
        np.asarray(packed_predicted, dtype=np.uint8),
        use_lut=use_lut,
    )
    return (n_challenges - distances) / float(n_challenges)


def _packed_distances(
    a: np.ndarray, b: np.ndarray, *, use_lut: bool
) -> np.ndarray:
    """Broadcast Hamming distances (int64) with kernel-backend dispatch."""
    if not use_lut and a.size:
        backend = get_backend()
        if (
            backend.packed_score_rows is not None
            and a.ndim == 2
            and a.shape == b.shape
        ):
            out = np.empty(a.shape[0], dtype=np.int64)
            backend.packed_score_rows(
                np.ascontiguousarray(a), np.ascontiguousarray(b), out
            )
            return out
        if backend.packed_score_matrix is not None:
            codebook = b[0] if (b.ndim == 3 and b.shape[0] == 1) else b
            if (
                a.ndim == 3
                and codebook.ndim == 2
                and a.shape[1:] == codebook.shape
            ):
                out = np.empty(a.shape[:2], dtype=np.int64)
                backend.packed_score_matrix(
                    np.ascontiguousarray(a),
                    np.ascontiguousarray(codebook),
                    out,
                )
                return out
    xored = np.bitwise_xor(a, b)
    return popcount(xored, use_lut=use_lut).sum(axis=-1, dtype=np.int64)


@dataclasses.dataclass(frozen=True)
class IdentificationResult:
    """Outcome of a 1:N identification.

    Attributes
    ----------
    chip_id:
        Best-matching enrolled identity, or ``None`` if nothing cleared
        the match threshold.
    match_fraction:
        Per-challenge agreement of the best candidate.
    scores:
        ``chip_id -> match fraction`` for every active identity, or
        ``None`` unless the caller opted in with ``return_scores=True``
        (building the dict is O(N) per request at scale).
    coverage:
        Fraction of active codebook rows searched: ``1.0`` except for
        a shard fleet with shards down, whose answer is then
        best-effort over the surviving shards.
    uncovered_shards:
        The fleet shards that did not answer (empty at full coverage).
    """

    chip_id: Optional[str]
    match_fraction: float
    scores: Optional[Dict[str, float]] = None
    coverage: float = 1.0
    uncovered_shards: Tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        """Whether any active rows went unsearched."""
        return self.coverage < 1.0


def best_matches(
    ids: Sequence,
    match: np.ndarray,
    active: Optional[np.ndarray],
    min_match_fraction: float,
    *,
    return_scores: bool = False,
) -> List[IdentificationResult]:
    """The identification decision for a batch of score rows.

    *match* is a ``(n_requests, len(ids))`` match-fraction matrix whose
    columns follow *ids* in ascending order.  Rows with a ``False``
    *active* entry (tombstones) never win; the first-occurrence best
    of each request wins, so the lowest id breaks ties; a best below
    *min_match_fraction* names no one.  Without an active row the
    result is ``(None, 0.0)``.  *ids* labels the winners: chip ids
    for a whole codebook, global row numbers for a fleet shard (which
    holds no ids).  ``scores`` are built only on *return_scores*.
    """
    match = np.asarray(match)
    if active is not None and active.all():
        active = None
    if not len(ids) or (active is not None and not active.any()):
        return [
            IdentificationResult(None, 0.0, {} if return_scores else None)
            for _ in range(len(match))
        ]
    masked = match if active is None else np.where(active, match, -1.0)
    best = masked.argmax(axis=1)
    best_scores = match[np.arange(len(match)), best].tolist()
    results = []
    for request, (index, score) in enumerate(zip(best.tolist(), best_scores)):
        scores = None
        if return_scores:
            scores = {
                chip_id: float(value)
                for position, (chip_id, value) in enumerate(
                    zip(ids, match[request])
                )
                if active is None or active[position]
            }
        results.append(IdentificationResult(
            chip_id=ids[index] if score >= min_match_fraction else None,
            match_fraction=score,
            scores=scores,
        ))
    return results


@dataclasses.dataclass(frozen=True)
class CodebookPolicy:
    """How eagerly a server keeps its codebooks in sync with the records.

    Attributes
    ----------
    deferred:
        ``False`` (default): every identification sees a fully synced
        codebook -- the historical behaviour.  ``True``: the serving
        path tolerates **bounded** staleness so a register/retighten
        wave does not stall the request that happens to arrive next;
        rows are rebuilt by explicit
        :meth:`~repro.core.server.AuthenticationServer.sync_codebooks`
        maintenance calls (or forcibly, once the bound is hit).
    max_stale_rows:
        Deferred mode's staleness bound: the serving path serves a
        stale codebook only while the number of pending dirty rows is
        at or below this; one row more forces a sync on the spot.

    Revocations are **never** deferred: a revoked identity is
    tombstoned out of every built codebook at revoke time, whatever the
    policy says -- staleness is a liveness trade-off, not a security
    one.
    """

    deferred: bool = False
    max_stale_rows: int = 64

    def __post_init__(self) -> None:
        if self.max_stale_rows < 0:
            raise ValueError(
                f"max_stale_rows must be >= 0, got {self.max_stale_rows}"
            )


@dataclasses.dataclass(frozen=True)
class CodebookRow:
    """One identity's materialized identification block.

    Attributes
    ----------
    chip_id:
        Identity the row belongs to.
    fingerprint:
        :meth:`EnrollmentRecord.fingerprint` of the record the row was
        built from (staleness detection).
    challenges:
        ``(n_challenges, k)`` selected challenge block.
    packed:
        ``(ceil(n_challenges / 8),)`` bit-packed predicted XOR bits
        (uint8).
    """

    chip_id: str
    fingerprint: str
    challenges: np.ndarray
    packed: np.ndarray


class IdentificationCodebook:
    """Contiguous, incrementally synced codebook over one enrollment database.

    Parameters
    ----------
    n_challenges:
        Identification block length per identity.
    seed:
        Root seed of the per-identity selection streams.  Row ``c`` is
        selected with ``derive_generator(seed, "identify", c)`` -- the
        *same* derivation as the dense reference sweep, so a codebook
        built with seed ``s`` reproduces exactly the blocks
        :func:`~repro.core.server.dense_identify` draws from ``s``.
        Must be an int or ``None`` (persisted alongside the rows).
    """

    def __init__(self, n_challenges: int = 64, seed: Optional[int] = None) -> None:
        self.n_challenges = check_positive_int(n_challenges, "n_challenges")
        if seed is not None and not isinstance(seed, (int, np.integer)):
            raise TypeError(
                "codebook seed must be an int or None (it is persisted), "
                f"got {type(seed).__name__}"
            )
        self.seed = None if seed is None else int(seed)
        self._rows: Dict[str, CodebookRow] = {}
        self._revoked: Set[str] = set()
        self.synced_epoch: Optional[int] = None
        self.rebuilds = 0
        self.row_writes = 0
        self.restacks = 0
        self.syncs = 0
        self.persists = 0
        # Contiguous stacked form, updated in place for content-only
        # changes and rebuilt when the row membership changes.
        self._ids: Tuple[str, ...] = ()
        self._index: Dict[str, int] = {}
        self._active: Optional[np.ndarray] = None
        self._stacked_challenges: Optional[np.ndarray] = None
        self._packed_matrix: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    @property
    def ids(self) -> Tuple[str, ...]:
        """Row identities in matching (sorted) order (no copy)."""
        return self._ids

    @property
    def active_mask(self) -> np.ndarray:
        """Read-only boolean mask over :attr:`ids`: ``False`` = tombstoned.

        Tombstones exist only between a :meth:`revoke_row` call and the
        next :meth:`sync` (which compacts the row away); a fully synced
        codebook's mask is all ``True``.  The view is live: a later
        revocation shows through it.
        """
        if self._active is None:
            raise RuntimeError("codebook is empty; sync it against a database")
        view = self._active.view()
        view.flags.writeable = False
        return view

    @property
    def revoked_ids(self) -> List[str]:
        """Identities this codebook knows to be revoked (sorted)."""
        return sorted(self._revoked)

    @property
    def n_bytes(self) -> int:
        """Packed bytes per row."""
        return (self.n_challenges + 7) // 8

    def row_position(self, chip_id: str) -> int:
        """Stacked-matrix row index of *chip_id* (KeyError if absent).

        Because :attr:`ids` is sorted and the packed matrix follows it,
        this is the global row coordinate shard layouts are built on.
        """
        return self._index[chip_id]

    def shard_bounds(self, n_shards: int) -> List[Tuple[int, int]]:
        """Contiguous near-equal ``[start, stop)`` row slices for sharding.

        The partition covers every row exactly once in :attr:`ids`
        order, so per-shard :func:`best_matches` winners merged by
        strict improvement in shard order reproduce the global
        tie-break -- highest score, then lowest chip id -- bit for bit.
        More shards than rows yields trailing empty slices rather than
        an error: a fixed fleet geometry must survive the population
        shrinking under it.
        """
        check_positive_int(n_shards, "n_shards")
        n_rows = len(self._ids)
        base, extra = divmod(n_rows, n_shards)
        bounds: List[Tuple[int, int]] = []
        start = 0
        for shard in range(n_shards):
            stop = start + base + (1 if shard < extra else 0)
            bounds.append((start, stop))
            start = stop
        return bounds

    @property
    def stacked_challenges(self) -> np.ndarray:
        """``(n_identities * n_challenges, k)`` challenge matrix.

        Exactly the single stacked query ``identify`` sends to the
        device; row blocks follow :attr:`ids` order.
        """
        if self._stacked_challenges is None:
            raise RuntimeError("codebook is empty; sync it against a database")
        return self._stacked_challenges

    @property
    def packed_matrix(self) -> np.ndarray:
        """``(n_identities, n_bytes)`` contiguous packed predictions."""
        if self._packed_matrix is None:
            raise RuntimeError("codebook is empty; sync it against a database")
        return self._packed_matrix

    # ------------------------------------------------------------------
    # Building / invalidation
    # ------------------------------------------------------------------
    def revoke_row(self, chip_id: str) -> bool:
        """Tombstone *chip_id* immediately; returns whether a row was hit.

        A mask flip, not a rebuild: the row's bytes stay in the packed
        matrix (so no restack happens on the serving path) but it can
        never win the argmax again.  The next :meth:`sync` compacts the
        row away entirely.  Idempotent; unknown ids are recorded so a
        later sync never builds them.
        """
        self._revoked.add(chip_id)
        position = self._index.get(chip_id)
        if position is None or self._active is None:
            return False
        hit = bool(self._active[position])
        self._active[position] = False
        return hit

    def pending_rows(
        self,
        records: Mapping[str, EnrollmentRecord],
        dirty: Optional[Iterable[str]] = None,
    ) -> int:
        """How many rows :meth:`sync` would touch right now.

        With a *dirty* journal this is a cheap set computation (no
        fingerprints); without one it falls back to counting membership
        differences only -- content-stale rows are invisible until a
        full sweep, which is exactly why servers keep a journal.
        """
        wanted = {c for c in records if c not in self._revoked}
        have = set(self._rows)
        pending = len(wanted - have) + len(have - wanted)
        if dirty is not None:
            pending += len(
                {c for c in dirty if c in wanted and c in have}
            )
        return pending

    def sync(
        self,
        records: Mapping[str, EnrollmentRecord],
        selector_for: Callable[[str], ChallengeSelector],
        epoch: Optional[int] = None,
        *,
        dirty: Optional[Iterable[str]] = None,
        revoked: Optional[Iterable[str]] = None,
        faults=None,
    ) -> int:
        """Bring the codebook up to date with *records*; return rebuild count.

        Parameters
        ----------
        records / selector_for / epoch:
            The enrollment database view, exactly as before.
        dirty:
            Chip ids whose records *may* have changed since the last
            sync (the server's mutation journal).  When given, only
            these ids get a fingerprint check -- everything else is
            trusted, turning a fleet-wide sweep into O(|dirty|) work.
            ``None`` keeps the historical full fingerprint sweep (the
            right call for codebooks fresh off disk).  Membership
            changes (new or vanished ids) are always detected, dirty or
            not: that comparison is a set operation, not a fingerprint
            sweep.
        revoked:
            Identities to tombstone-and-compact.  Their rows are
            dropped and never rebuilt; the set is remembered, so a
            revoked id re-appearing in *records* stays excluded.
        faults:
            Optional :class:`repro.faults.FaultPlan`; consulted at
            :attr:`repro.faults.Site.CODEBOOK_SYNC` with the sync
            counter, so a rebuild dying mid-flight is a testable event.

        The result is **bit-identical** to a from-scratch rebuild over
        the same surviving records: same row order, same stacked
        challenges, same packed bytes.
        """
        if faults is not None:
            from repro.faults import Site

            faults.check(Site.CODEBOOK_SYNC, self.syncs)
        self.syncs += 1
        if revoked is not None:
            for chip_id in revoked:
                if chip_id not in self._revoked:
                    self.revoke_row(chip_id)

        rebuilt = 0
        structural = False
        # Fast path: a journal plus unchanged membership (a C-speed key
        # comparison) means no drops, no adds, no sort -- the sync
        # touches only the dirty rows.  This is the steady state of
        # fleet maintenance, and it keeps the per-mutation cost
        # O(|dirty|) instead of O(N) whatever the population size.
        row_keys = self._rows.keys()
        membership_unchanged = (
            dirty is not None
            and self._stacked_challenges is not None
            and (
                records.keys() - self._revoked == row_keys
                if self._revoked
                else records.keys() == row_keys
            )
        )
        if membership_unchanged:
            wanted = self._ids
            candidates = sorted(set(dirty) & row_keys)
        else:
            wanted = [c for c in sorted(records) if c not in self._revoked]
            wanted_set = set(wanted)
            for chip_id in list(self._rows):
                if chip_id not in wanted_set:
                    del self._rows[chip_id]
                    structural = True
                    rebuilt += 1
            if dirty is None:
                candidates = wanted
            else:
                candidates = sorted(
                    set(dirty) & wanted_set | (wanted_set - set(self._rows))
                )
        touched: List[str] = []
        for chip_id in candidates:
            row = self._rows.get(chip_id)
            fingerprint = records[chip_id].fingerprint()
            if row is not None and row.fingerprint == fingerprint:
                continue
            self._rows[chip_id] = self._build_row(
                chip_id, fingerprint, selector_for(chip_id)
            )
            rebuilt += 1
            if row is None:
                structural = True
            else:
                touched.append(chip_id)

        # On the fast path no drops or adds happened (candidates were
        # all existing rows), so the stacked order is untouched.
        if not membership_unchanged and (
            structural
            or self._stacked_challenges is None
            or tuple(wanted) != self._ids
        ):
            if wanted or self._ids:
                self._restack(wanted)
        else:
            for chip_id in touched:
                self._write_row(self._index[chip_id], self._rows[chip_id])
        self.rebuilds += rebuilt
        self.synced_epoch = epoch
        return rebuilt

    def _build_row(
        self,
        chip_id: str,
        fingerprint: str,
        selector: ChallengeSelector,
    ) -> CodebookRow:
        challenges, predicted = selector.select(
            self.n_challenges, derive_generator(self.seed, "identify", chip_id)
        )
        return CodebookRow(
            chip_id=chip_id,
            fingerprint=fingerprint,
            challenges=np.ascontiguousarray(challenges),
            packed=pack_responses(predicted),
        )

    def _restack(self, ids: Sequence[str]) -> None:
        self.restacks += 1
        self._ids = tuple(ids)
        self._index = {c: i for i, c in enumerate(self._ids)}
        if not self._ids:
            self._active = None
            self._stacked_challenges = None
            self._packed_matrix = None
            return
        self._active = np.ones(len(self._ids), dtype=bool)
        self._stacked_challenges = np.ascontiguousarray(
            np.concatenate([self._rows[c].challenges for c in self._ids])
        )
        self._packed_matrix = np.ascontiguousarray(
            np.stack([self._rows[c].packed for c in self._ids])
        )

    def _write_row(self, position: int, row: CodebookRow) -> None:
        """Overwrite one row of the stacked form in place (no restack)."""
        self.row_writes += 1
        n = self.n_challenges
        self._stacked_challenges[position * n : (position + 1) * n] = row.challenges
        self._packed_matrix[position] = row.packed

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match_packed(
        self, packed: np.ndarray, *, use_lut: bool = False
    ) -> np.ndarray:
        """Scores for responses that are *already* bit-packed.

        *packed* is ``(n_requests, n_identities, n_bytes)`` as produced
        by :func:`pack_responses` on per-identity response rows.  This
        is the batched serving fast path: packing each transcript at
        read time keeps the per-item work cache-resident, instead of
        materializing one unpacked ``(n_requests, n_identities *
        n_challenges)`` grid that a large batch pushes out to DRAM.
        Scores are bit-identical to the dense
        ``(responses == predicted).mean`` comparison on the unpacked
        bits.  Tombstoned rows still get a score here (the matrix is
        contiguous); winners are excluded at argmax time via
        :attr:`active_mask`.
        """
        n = len(self._ids)
        if n == 0:
            raise RuntimeError("codebook is empty; sync it against a database")
        packed = np.asarray(packed, dtype=np.uint8)
        expected = self._packed_matrix.shape[-1]
        if packed.shape[-2:] != (n, expected):
            raise ValueError(
                f"packed responses shaped {packed.shape}, codebook expects "
                f"(..., {n}, {expected})"
            )
        packed = packed.reshape(-1, n, expected)
        return packed_match_fractions(
            packed, self.packed_matrix[None, :, :], self.n_challenges,
            use_lut=use_lut,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path], *, faults=None) -> None:
        """Serialise rows + metadata to one ``.npz`` file, crash-safely.

        The write is atomic (tmp + fsync + rename, see
        :func:`repro.engine.runtime.atomic_write_bytes`) and the payload
        carries an embedded SHA-256 checksum: a crash mid-save leaves
        the previous file generation intact, and bit rot is detected at
        load time instead of producing silently wrong scores.  *faults*
        hooks :attr:`repro.faults.Site.CODEBOOK_PERSIST`.
        """
        if not self._ids:
            raise RuntimeError("refusing to save an empty codebook")
        # The persist counter only advances once the atomic rename has
        # happened, so a save killed by a fault replays the same index
        # on retry (``fail_attempts`` then heals transient failures).
        if faults is not None:
            from repro.faults import Site

            faults.check(Site.CODEBOOK_PERSIST, self.persists)
        meta = {
            "version": 2,
            "n_challenges": self.n_challenges,
            "seed": self.seed,
            "ids": self._ids,
            "fingerprints": [self._rows[c].fingerprint for c in self._ids],
            "revoked": sorted(self._revoked),
        }
        challenges = np.stack([self._rows[c].challenges for c in self._ids])
        arrays = {
            "challenges": np.packbits(challenges.astype(np.uint8), axis=-1),
            "predicted": np.stack([self._rows[c].packed for c in self._ids]),
            "n_stages": np.int64(challenges.shape[-1]),
            "n_challenges": np.int64(self.n_challenges),
            "meta": np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            ),
        }
        from repro.crp.dataset import _payload_checksum
        from repro.engine.runtime import atomic_write_bytes

        buffer = io.BytesIO()
        np.savez_compressed(
            buffer, checksum=np.str_(_payload_checksum(arrays)), **arrays
        )
        data = buffer.getvalue()
        if faults is not None:
            from repro.faults import Site

            # Same visit as the check above, so ``fail_attempts``
            # counts whole saves, not individual hook calls.
            data = faults.corrupt_bytes(
                Site.CODEBOOK_PERSIST, data, self.persists, attempt=0
            )
        atomic_write_bytes(Path(path), data)
        self.persists += 1

    @classmethod
    def load(cls, path: Union[str, Path], *, faults=None) -> "IdentificationCodebook":
        """Rebuild a codebook from :meth:`save` output.

        Loaded rows carry their stored fingerprints; the next
        :meth:`sync` against a database validates them and rebuilds
        only rows whose records changed since the save.  Persisted
        tombstones are re-applied immediately.

        Raises
        ------
        repro.crp.dataset.CorruptDatasetError
            For truncated, damaged or checksum-failing files (including
            version-2 files whose stored SHA-256 does not match).
            Files written before checksums existed still load.
        """
        if faults is not None:
            from repro.faults import Site

            faults.check(Site.CODEBOOK_PERSIST)
        from repro.crp.dataset import _checked_load

        data = _checked_load(
            Path(path),
            ("challenges", "predicted", "n_stages", "n_challenges", "meta"),
        )
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        packed_challenges = data["challenges"]
        packed_predicted = data["predicted"]
        n_stages = int(data["n_stages"])
        book = cls(n_challenges=int(meta["n_challenges"]), seed=meta["seed"])
        for index, (chip_id, fingerprint) in enumerate(
            zip(meta["ids"], meta["fingerprints"])
        ):
            challenges = np.unpackbits(
                packed_challenges[index], axis=-1, count=n_stages
            ).astype(np.int8)
            book._rows[chip_id] = CodebookRow(
                chip_id=chip_id,
                fingerprint=fingerprint,
                challenges=np.ascontiguousarray(challenges),
                packed=np.ascontiguousarray(packed_predicted[index]),
            )
        book._restack(meta["ids"])
        for chip_id in meta.get("revoked", ()):
            book.revoke_row(chip_id)
        return book
