"""End-to-end acceptance test of the serve-sim traffic replay.

One full default run of :func:`repro.service.run_serve_sim`: a 5-chip
fleet, a nominal -> V/T-corner -> return drift schedule and a
persistently faulted device, replayed through the resilient service.
The assertions are the PR's acceptance criteria: the trace completes
without an unhandled exception, no challenge is ever replayed (checked
from the audit log, not the serving code), the faulted chip's breaker
opens and recovers, nominal FRR stays within 1 % and the degradation
ladder keeps corner availability at or above 95 %.

The replay takes about a minute (it enrolls 5 chips and runs ~390
authentication sessions), so everything shares one session-scoped run.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.service import run_serve_sim

pytestmark = [pytest.mark.service, pytest.mark.timeout(600)]


@pytest.fixture(scope="session")
def sim(tmp_path_factory):
    out = tmp_path_factory.mktemp("serve_sim")
    report_path = out / "report.json"
    audit_path = out / "audit.jsonl"
    report = run_serve_sim(audit_path=audit_path)
    report.save(report_path)
    return report, report_path, audit_path


@pytest.fixture(scope="session")
def sim_concurrent():
    """The same trace replayed through the batching front end."""
    return run_serve_sim(clients=4)


class TestServeSimAcceptance:
    def test_trace_completes(self, sim):
        report, _, _ = sim
        assert report.n_requests > 0
        assert report.n_chips == 5
        decisions = sum(report.outcome_counts.values())
        assert decisions == report.n_requests

    def test_no_challenge_is_ever_replayed(self, sim):
        report, _, audit_path = sim
        assert report.no_replay
        # Independently re-check the invariant from the audit log alone:
        # every digest a chip was ever issued appears exactly once.
        issued = {}
        with audit_path.open() as handle:
            for line in handle:
                event = json.loads(line)
                if event["chip_id"] is not None:
                    issued.setdefault(event["chip_id"], []).extend(
                        event["digests"]
                    )
        assert len(issued) == report.n_chips
        for chip_id, digests in issued.items():
            assert digests, f"{chip_id} was never issued a challenge"
            assert len(set(digests)) == len(digests), (
                f"{chip_id} was issued a repeated challenge"
            )

    def test_faulted_chip_breaker_opens_and_recovers(self, sim):
        report, _, _ = sim
        assert report.breaker_opened
        assert report.breaker_recovered
        arcs = [(src, dst) for _, src, dst in report.breaker_transitions]
        assert arcs[0] == ("closed", "open")
        assert arcs[-1] == ("half-open", "closed")
        assert report.outcome_counts.get("breaker-open", 0) > 0

    def test_nominal_frr_within_one_percent(self, sim):
        report, _, _ = sim
        assert report.nominal_frr <= 0.01

    def test_ladder_keeps_corner_availability(self, sim):
        report, _, _ = sim
        assert report.corner_availability >= 0.95

    def test_every_chip_walks_the_ladder(self, sim):
        report, _, _ = sim
        # The corner pushes every chip through both escalations...
        for chip_id, moves in report.rung_moves.items():
            assert (0, 1) in moves and (1, 2) in moves, (
                f"{chip_id} never escalated: {moves}"
            )
        assert sorted(report.flagged_chips) == sorted(report.rung_moves)
        # ...and at least one chip walks back down once conditions
        # return to nominal (recovery is deliberately slow, so not all
        # chips finish the descent inside the trace).
        recoveries = [
            chip_id
            for chip_id, moves in report.rung_moves.items()
            if (2, 1) in moves
        ]
        assert recoveries

    def test_budget_warns_before_running_dry(self, sim):
        report, _, _ = sim
        assert report.budget_warnings
        assert "pool-exhausted" not in report.outcome_counts
        for chip_id, account in report.budget.items():
            assert account["remaining"] > 0, f"{chip_id} pool ran dry"

    def test_report_round_trips_through_json(self, sim):
        report, report_path, _ = sim
        payload = json.loads(report_path.read_text())
        assert payload["corner_availability"] == report.corner_availability
        assert payload["nominal_frr"] == report.nominal_frr
        assert payload["no_replay"] is True
        assert payload["params"]["seed"] == 5

    def test_gates_agree_with_the_report(self, sim):
        report, report_path, _ = sim
        gates = report.gates
        assert gates["nominal_frr"]["value"] == report.nominal_frr
        assert gates["nominal_frr"]["ok"] == (report.nominal_frr <= 0.01)
        assert gates["corner_availability"]["value"] == (
            report.corner_availability
        )
        assert gates["corner_availability"]["ok"] == (
            report.corner_availability >= 0.95
        )
        assert gates["no_replay"]["ok"] is report.no_replay
        assert report.passed == all(g["ok"] for g in gates.values())
        assert json.loads(report_path.read_text())["gates"] == gates


def test_unmeasured_phases_fail_their_gates():
    """With its only chip faulted, no healthy request is scored: the
    phase metrics read NaN, and nothing measured must not pass."""
    report = run_serve_sim(
        n_chips=1, fault_chip=0, nominal_steps=4, ramp_steps=1,
        corner_steps=4, return_steps=1,
    )
    assert math.isnan(report.nominal_frr)
    assert math.isnan(report.corner_availability)
    assert not report.gates["nominal_frr"]["ok"]
    assert not report.gates["corner_availability"]["ok"]
    assert not report.passed


class TestServeSimConcurrentClients:
    """``clients=4``: the same gates must hold through the front end."""

    def test_gates_hold_under_concurrency(self, sim_concurrent):
        report = sim_concurrent
        assert report.n_requests > 0
        assert sum(report.outcome_counts.values()) == report.n_requests
        assert report.no_replay
        assert report.nominal_frr <= 0.01
        assert report.corner_availability >= 0.95
        assert report.breaker_opened and report.breaker_recovered

    def test_report_carries_coalescing_stats(self, sim_concurrent):
        report = sim_concurrent
        assert report.params["clients"] == 4
        stats = report.params["frontend"]
        assert stats["submitted"] == report.n_requests
        assert stats["shed"] == 0
        # Real coalescing happened: fewer drained batches than requests.
        assert 0 < stats["batches"] < report.n_requests
        assert stats["largest_batch"] > 1

    def test_sequential_report_leaves_frontend_unset(self, sim):
        report, _, _ = sim
        assert report.params["clients"] == 0
        assert report.params["frontend"] is None
