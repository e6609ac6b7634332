"""The fleet-lifecycle chaos driver and its acceptance gates.

The quick smoke runs in tier-1; the year-long soak with the full fault
plan is marked ``chaos`` and runs in its own CI job (`pytest -m chaos`).
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.faults import FaultPlan, FaultSpec, Site
from repro.service import (
    AuthenticationService,
    LifecycleConfig,
    run_lifecycle_sim,
)

pytestmark = [pytest.mark.service]

QUICK = LifecycleConfig(
    n_chips=3,
    ticks=4,
    requests_per_chip=3,
    enroll_interval=3,
    revoke_interval=3,
    storm_interval=0,
    identify_probes=2,
    n_enroll_challenges=1000,
    n_validation_challenges=4000,
)


class TestLifecycleSmoke:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="ticks"):
            LifecycleConfig(ticks=0)

    def test_quick_life_passes_gates(self, tmp_path):
        report = run_lifecycle_sim(QUICK, seed=11, workdir=tmp_path / "db")
        assert report.passed, report.gates
        assert report.no_replay
        assert report.revoked_total >= 1
        assert report.revoked_approvals == 0
        assert report.revoked_identify_hits == 0
        assert report.frr <= QUICK.max_nominal_frr
        assert report.availability >= QUICK.min_availability
        assert report.max_served_stale_rows <= QUICK.max_stale_rows
        # Persistence ran every maintenance tick and reloads succeeded.
        assert report.persist_saves > 0
        assert report.reloads == report.persist_saves

    def test_report_round_trips_as_json(self, tmp_path):
        report = run_lifecycle_sim(QUICK, seed=11)
        path = report.save(tmp_path / "life.json")
        assert path.exists()
        payload = path.read_text()
        assert '"passed": true' in payload

    def test_deterministic_given_seed(self):
        first = run_lifecycle_sim(QUICK, seed=13)
        second = run_lifecycle_sim(QUICK, seed=13)
        assert first.outcome_counts == second.outcome_counts
        assert first.frr == second.frr
        assert first.codebook == second.codebook

    def test_concurrent_clients_pass_the_same_gates(self, tmp_path):
        config = dataclasses.replace(QUICK, clients=4)
        report = run_lifecycle_sim(config, seed=11, workdir=tmp_path / "db")
        assert report.passed, report.gates
        assert report.no_replay
        assert report.revoked_approvals == 0
        assert report.frr <= config.max_nominal_frr
        assert report.availability >= config.min_availability
        stats = report.params["frontend"]
        assert report.params["config"]["clients"] == 4
        assert stats["shed"] == 0
        assert stats["batches"] > 0
        assert stats["submitted"] > 0

    def test_sharded_life_survives_deferred_enrollment(self):
        # A chip enrolled into the deferred codebook is still pending when
        # the fleet refreshes; the fleet must drain it then, or the next
        # maintenance sync grows the book under the shard segments.
        config = dataclasses.replace(
            QUICK, sharded=True, enroll_interval=2, revoke_interval=0
        )
        report = run_lifecycle_sim(config, seed=11)
        assert report.passed, report.gates
        assert report.enrolled_total == QUICK.n_chips + 2
        assert report.params["fleet"]["min_coverage"] == 1.0
        assert report.params["identified_misses"] == 0
        assert report.gates["identified_misses"] == {
            "value": 0, "bound": 0, "ok": True
        }

    def test_identification_misses_fail_the_gate(self, monkeypatch):
        """A plane that names nobody must not pass."""
        identify_many = AuthenticationService.identify_many

        def unidentified(self, responders, **kwargs):
            return [
                dataclasses.replace(result, chip_id=None)
                for result in identify_many(self, responders, **kwargs)
            ]

        monkeypatch.setattr(
            AuthenticationService, "identify_many", unidentified
        )
        report = run_lifecycle_sim(QUICK, seed=11)
        misses = report.params["identified_misses"]
        assert misses > 0
        assert report.gates["identified_misses"] == {
            "value": misses, "bound": 0, "ok": False
        }
        assert not report.passed

    def test_crash_mid_run_closes_frontend_and_fleet(self, monkeypatch):
        """An exception in the serving loop still stops the front-end
        thread and closes the inline dispatcher."""
        import repro.service.fleet as fleet
        import repro.service.lifecycle as lifecycle

        dispatchers = []

        class Recorded(fleet.ShardDispatcher):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                dispatchers.append(self)

        serve = lifecycle.serve
        calls = []

        def failing_serve(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("serving loop died")
            return serve(*args, **kwargs)

        monkeypatch.setattr(fleet, "ShardDispatcher", Recorded)
        monkeypatch.setattr(lifecycle, "serve", failing_serve)
        config = dataclasses.replace(QUICK, sharded=True, clients=2)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="serving loop died"):
            run_lifecycle_sim(config, seed=11)
        assert not [
            thread for thread in set(threading.enumerate()) - before
            if thread.name == "repro-frontend"
        ]
        [dispatcher] = dispatchers
        with pytest.raises(RuntimeError, match="closed"):
            dispatcher.identify_many([object()])


@pytest.mark.chaos
@pytest.mark.faults
@pytest.mark.timeout(600)
class TestYearSoak:
    def test_year_of_chaos_passes_gates(self, tmp_path):
        """A simulated year under the full fault plan still meets SLOs.

        Twelve monthly ticks of churn, aging, retighten storms and
        revocation waves, with a maintenance tick killed outright, a
        codebook sync crashed mid-flight, and persistence hit by both
        corrupting and failing writers -- the gates (FRR, availability,
        zero replays, zero revoked approvals, bounded staleness) must
        all hold.
        """
        config = LifecycleConfig(ticks=12)
        faults = FaultPlan([
            FaultSpec(Site.SERVICE_LIFECYCLE, kind="crash", at=3),
            FaultSpec(Site.CODEBOOK_SYNC, kind="crash", at=2),
            FaultSpec(Site.CODEBOOK_PERSIST, kind="corrupt", at=4),
            FaultSpec(Site.CODEBOOK_PERSIST, kind="io", at=7),
        ])
        report = run_lifecycle_sim(
            config, seed=7, faults=faults, workdir=tmp_path / "db",
        )
        assert report.passed, report.gates
        assert report.simulated_hours == pytest.approx(12 * 730.0)
        # The chaos actually landed ...
        assert report.maintenance_crashes == 1
        assert report.sync_crashes >= 1
        assert report.persist_failures >= 1
        assert report.corrupt_recoveries >= 1
        # ... and none of it broke the security invariants.
        assert report.no_replay
        assert report.revoked_approvals == 0
        assert report.revoked_identify_hits == 0
        assert report.max_served_stale_rows <= config.max_stale_rows
