"""Tests for the Fig.-6 enrollment pipeline and EnrollmentRecord."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adjustment import BetaFactors
from repro.core.enrollment import (
    PAPER_ENROLL_CHALLENGES,
    EnrollmentRecord,
    enroll_chip,
)
from repro.crp.dataset import CorruptDatasetError
from repro.silicon.chip import PufChip
from repro.silicon.environment import paper_corner_grid
from repro.silicon.fuses import FuseBlownError

N_STAGES = 32


class TestEnrollChip:
    def test_paper_default_train_size(self):
        assert PAPER_ENROLL_CHALLENGES == 5000

    def test_record_structure(self, enrolled_chip_and_record):
        chip, record = enrolled_chip_and_record
        assert record.chip_id == chip.chip_id
        assert record.xor_model.n_pufs == chip.n_pufs
        assert len(record.base_pairs) == chip.n_pufs
        assert len(record.reports) == chip.n_pufs
        assert record.n_trials == 100_000

    def test_fuses_blown_by_default(self, enrolled_chip_and_record):
        chip, _ = enrolled_chip_and_record
        assert chip.is_deployed

    def test_blow_fuses_false_keeps_enrollment_open(self):
        chip = PufChip.create(2, N_STAGES, seed=1)
        enroll_chip(
            chip, n_enroll_challenges=600, n_validation_challenges=2000,
            blow_fuses=False, seed=2,
        )
        assert not chip.is_deployed

    def test_deployed_chip_cannot_reenroll(self, enrolled_chip_and_record):
        chip, _ = enrolled_chip_and_record
        with pytest.raises(FuseBlownError):
            enroll_chip(chip, n_enroll_challenges=600, seed=3)

    def test_adjusted_pairs_tighter_than_base(self, enrolled_chip_and_record):
        _, record = enrolled_chip_and_record
        for base, adjusted in zip(record.base_pairs, record.adjusted_pairs):
            assert adjusted.thr0 <= base.thr0
            assert adjusted.thr1 >= base.thr1

    def test_betas_are_fleet_conservative(self, enrolled_chip_and_record):
        _, record = enrolled_chip_and_record
        assert 0.0 < record.betas.beta0 <= 1.0
        assert record.betas.beta1 >= 1.0

    def test_probit_method(self):
        chip = PufChip.create(2, N_STAGES, seed=4)
        record = enroll_chip(
            chip, n_enroll_challenges=800, n_validation_challenges=3000,
            method="probit", seed=5,
        )
        assert record.xor_model.method == "probit"

    @pytest.mark.parametrize("method", ["linear", "probit", "mle"])
    def test_every_method_authenticates_end_to_end(self, method):
        """The three-category machinery is method-agnostic: any of the
        regression variants supports selection + zero-HD sessions."""
        from repro.core.authentication import authenticate

        chip = PufChip.create(3, N_STAGES, seed=30)
        record = enroll_chip(
            chip, n_enroll_challenges=2000, n_validation_challenges=8000,
            method=method, seed=31,
        )
        result = authenticate(chip, record.selector(), 64, seed=32)
        assert result.approved, f"{method}: {result}"
        impostor = PufChip.create(3, N_STAGES, seed=888)
        bad = authenticate(impostor, record.selector(), 64, seed=33)
        assert not bad.approved, f"{method}: impostor accepted"

    def test_corner_enrollment_more_stringent(self):
        """Validating across V/T corners yields tighter betas than
        nominal-only enrollment of the same chip (Sec. 5.2)."""
        chip_a = PufChip.create(2, N_STAGES, seed=6)
        nominal = enroll_chip(
            chip_a, n_enroll_challenges=1500, n_validation_challenges=6000, seed=7
        )
        chip_b = PufChip.create(2, N_STAGES, seed=6)  # same silicon
        corners = enroll_chip(
            chip_b, n_enroll_challenges=1500, n_validation_challenges=6000,
            validation_conditions=paper_corner_grid(), seed=7,
        )
        assert corners.betas.beta0 <= nominal.betas.beta0
        assert corners.betas.beta1 >= nominal.betas.beta1

    def test_empty_conditions_rejected(self):
        chip = PufChip.create(1, N_STAGES, seed=8)
        with pytest.raises(ValueError, match="empty"):
            enroll_chip(chip, validation_conditions=[], seed=9)


class TestEnrollmentRecord:
    def test_pair_count_validated(self, enrolled_chip_and_record):
        _, record = enrolled_chip_and_record
        with pytest.raises(ValueError, match="threshold pairs"):
            EnrollmentRecord(
                chip_id="x",
                xor_model=record.xor_model,
                base_pairs=record.base_pairs[:-1],
                betas=record.betas,
                n_trials=100,
            )

    def test_with_betas_replaces_only_betas(self, enrolled_chip_and_record):
        _, record = enrolled_chip_and_record
        fleet = BetaFactors(0.74, 1.08)
        replaced = record.with_betas(fleet)
        assert replaced.betas == fleet
        assert replaced.xor_model is record.xor_model

    def test_save_load_roundtrip(self, enrolled_chip_and_record, tmp_path):
        _, record = enrolled_chip_and_record
        path = tmp_path / "record.npz"
        record.save(path)
        loaded = EnrollmentRecord.load(path)
        assert loaded.chip_id == record.chip_id
        assert loaded.betas == record.betas
        assert loaded.n_trials == record.n_trials
        for a, b in zip(loaded.base_pairs, record.base_pairs):
            assert a.thr0 == pytest.approx(b.thr0)
            assert a.thr1 == pytest.approx(b.thr1)
        for ma, mb in zip(loaded.xor_model.models, record.xor_model.models):
            np.testing.assert_allclose(ma.weights, mb.weights)

    def test_torn_record_raises_corrupt_dataset(
        self, enrolled_chip_and_record, tmp_path
    ):
        _, record = enrolled_chip_and_record
        path = tmp_path / "record.npz"
        record.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptDatasetError):
            EnrollmentRecord.load(path)

    def test_record_without_checksum_still_loads(
        self, enrolled_chip_and_record, tmp_path
    ):
        """Records written before the checksummed format still load."""
        _, record = enrolled_chip_and_record
        path = tmp_path / "record.npz"
        record.save(path)
        with np.load(path) as data:
            assert "checksum" in data.files
            weights, meta = data["weights"], data["meta"]
        np.savez_compressed(path, weights=weights, meta=meta)
        loaded = EnrollmentRecord.load(path)
        assert loaded.fingerprint() == record.fingerprint()

    def test_loaded_record_selects_identically(
        self, enrolled_chip_and_record, tmp_path
    ):
        _, record = enrolled_chip_and_record
        path = tmp_path / "record.npz"
        record.save(path)
        loaded = EnrollmentRecord.load(path)
        a, _ = record.selector().select(40, seed=10)
        b, _ = loaded.selector().select(40, seed=10)
        np.testing.assert_array_equal(a, b)
