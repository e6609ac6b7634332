"""Throughput of the chunked evaluation engine vs the seed code path.

Three matrix cells, all merged into ``BENCH_throughput.json`` at the
repo root by the :mod:`repro.bench` execution layer:

* **soft_sweep** -- the Fig. 3 paper shape (10-input XOR PUF, one
  shared challenge set, T = 100 000 counters).  The reference is a
  faithful reimplementation of the pre-engine loop: parity features
  recomputed per PUF, effective weights rebuilt per call, the
  gather-based stage-interaction term and ``stats.norm.cdf``.  The
  engine must be at least 3x faster; the speedup (a machine-portable
  ratio) is the gated metric.
* **enrollment** -- the full Fig.-6 flow through the grid campaigns
  (absolute CRPs/sec, trajectory-only).
* **identify** -- the server's vectorized stacked-matrix scoring
  (identifies/sec, trajectory-only).
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np
from scipy import stats

from repro.bench import format_row, matrix, run_for_test
from repro.core.enrollment import enroll_chip
from repro.core.server import AuthenticationServer, dense_identify
from repro.crp.challenges import random_challenges
from repro.crp.transform import parity_features
from repro.engine import EvaluationEngine
from repro.silicon.chip import PufChip, fabricate_lot
from repro.silicon.environment import NOMINAL_CONDITION
from repro.silicon.noise import PAPER_N_TRIALS
from repro.silicon.xorpuf import XorArbiterPuf

N_STAGES = 32
N_PUFS = 10

#: Acceptance floor for the engine-vs-seed-path speedup on the Fig. 3
#: sweep shape.  The engine wins even single-core: shared features,
#: the quadratic-form interaction term and the raw ``ndtr`` kernel.
MIN_SPEEDUP = 3.0


def _seed_path_sweep(pufs, challenges, n_trials, rng):
    """The pre-engine measurement loop, reimplemented faithfully.

    Per PUF: parity features recomputed from scratch, effective weights
    rebuilt, interaction term via fancy-index gather, probabilities via
    ``stats.norm.cdf`` -- exactly what the seed's
    ``measure_soft_responses`` + ``ArbiterPuf.eval_counts`` did.
    """
    condition = NOMINAL_CONDITION
    soft = []
    for puf in pufs:
        phi = parity_features(challenges)
        gain = puf.environment.delay_gain(condition)
        c_v, c_t = puf.environment.drift_coefficients(condition)
        effective = gain * (
            puf.weights
            + c_v * puf.voltage_sensitivity_vector
            + c_t * puf.temperature_sensitivity_vector
        )
        delta = phi @ effective
        idx, weights = puf.interaction_indices, puf.interaction_weights
        if idx is not None and len(idx):
            pairwise = phi[:, idx[:, 0]] * phi[:, idx[:, 1]]
            delta = delta + gain * (pairwise @ weights)
        p = stats.norm.cdf(delta / puf.noise.sigma_at(condition))
        soft.append(rng.binomial(n_trials, p) / n_trials)
    return np.stack(soft)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


@matrix.cell(
    "soft_sweep",
    title="Throughput -- Fig. 3 soft-response sweep",
    tiers={
        "smoke": {"n_challenges": 50_000},
        "laptop": {"n_challenges": 200_000},
        "paper": {"n_challenges": 1_000_000},
    },
    metric="speedup",
    unit="x",
    direction="higher",
    backends=("numpy", "numba"),
    trajectory=True,
    gated=True,
    warmup=0,  # the body warms both paths internally on 1000 challenges
)
def soft_sweep_cell(ctx):
    n_challenges = ctx.params["n_challenges"]
    xor_puf = XorArbiterPuf.create(N_PUFS, N_STAGES, seed=500)
    challenges = random_challenges(n_challenges, N_STAGES, seed=501)
    engine = EvaluationEngine(jobs=ctx.jobs, chunk_size=ctx.chunk_size or 65_536)
    n_crps = n_challenges * N_PUFS

    # Warm both paths (imports, BLAS thread pools, allocator, JIT).
    _seed_path_sweep(xor_puf.pufs, challenges[:1000], PAPER_N_TRIALS, np.random.default_rng(0))
    engine.soft_responses(xor_puf.pufs, challenges[:1000], PAPER_N_TRIALS, seed=0)

    _, t_seed = _timed(
        _seed_path_sweep, xor_puf.pufs, challenges, PAPER_N_TRIALS,
        np.random.default_rng(502),
    )
    _, t_engine = _timed(
        engine.soft_responses, xor_puf.pufs, challenges, PAPER_N_TRIALS, seed=502,
    )
    return {
        "shape": f"{N_PUFS} PUFs x {n_challenges} shared challenges, T={PAPER_N_TRIALS}",
        "jobs": engine.jobs,
        "chunk_size": engine.chunk_size,
        "seed_path_seconds": t_seed,
        "engine_seconds": t_engine,
        "seed_path_crps_per_sec": n_crps / t_seed,
        "engine_crps_per_sec": n_crps / t_engine,
        "n_crps": n_crps,
        "speedup": t_seed / t_engine,
    }


@matrix.cell(
    "enrollment",
    title="Throughput -- enrollment (Fig. 6 flow)",
    tiers={
        "smoke": {"n_enroll": 1000, "n_validation": 2500},
        "laptop": {"n_enroll": 2000, "n_validation": 5000},
        "paper": {"n_enroll": 5000, "n_validation": 20_000},
    },
    metric="crps_per_sec",
    unit="crps/s",
    direction="higher",
    trajectory=True,
    warmup=0,
)
def enrollment_cell(ctx):
    n_enroll = ctx.params["n_enroll"]
    n_validation = ctx.params["n_validation"]
    n_pufs = 4
    chip = PufChip.create(n_pufs, N_STAGES, seed=510, chip_id="bench")
    _, elapsed = _timed(
        enroll_chip,
        chip,
        n_enroll_challenges=n_enroll,
        n_validation_challenges=n_validation,
        n_trials=PAPER_N_TRIALS,
        jobs=ctx.jobs,
        chunk_size=ctx.chunk_size,
        seed=511,
    )
    n_crps = n_pufs * (n_enroll + n_validation)  # nominal-only validation
    return {
        "shape": f"{n_pufs} PUFs, {n_enroll} train + {n_validation} validation, T={PAPER_N_TRIALS}",
        "jobs": ctx.jobs,
        "seconds": elapsed,
        "measured_crps": n_crps,
        "crps_per_sec": n_crps / elapsed,
    }


@lru_cache(maxsize=2)
def _identify_fixture(n_identities: int):
    """Enrolled server + lot, shared across warmup and samples."""
    lot = fabricate_lot(n_identities, 3, N_STAGES, seed=520)
    server = AuthenticationServer()
    for i, chip in enumerate(lot):
        server.enroll(
            chip, seed=521 + i,
            n_enroll_challenges=1200, n_validation_challenges=5000,
        )
    return lot, server


@matrix.cell(
    "identify",
    title="Throughput -- vectorized identify",
    tiers={
        "smoke": {"repeats": 10},
        "laptop": {"repeats": 20},
        "paper": {"repeats": 50},
    },
    metric="identifies_per_sec",
    unit="calls/s",
    direction="higher",
    trajectory=True,
)
def identify_cell(ctx):
    n_identities = 3
    n_challenges = 64
    repeats = ctx.params["repeats"]
    lot, server = _identify_fixture(n_identities)

    # The dense sweep: every call re-runs each identity's selector.
    start = time.perf_counter()
    for r in range(repeats):
        dense_identify(
            server, lot[r % n_identities], n_challenges=n_challenges,
            seed=530 + r,
        )
    elapsed = time.perf_counter() - start
    n_crps = repeats * n_identities * n_challenges
    return {
        "shape": f"{n_identities} identities x {n_challenges} challenges x {repeats} calls",
        "seconds": elapsed,
        "crps_per_sec": n_crps / elapsed,
        "identifies_per_sec": repeats / elapsed,
    }


def test_throughput_soft_sweep(capsys):
    run = run_for_test("soft_sweep", capsys, report=lambda r: [
        f"  {r.payload['shape']}, jobs={r.payload['jobs']}, "
        f"backend={r.context.backend}",
        format_row("seed path", "--",
                   f"{r.payload['seed_path_crps_per_sec'] / 1e6:.2f} M CRP/s"),
        format_row("engine", "--",
                   f"{r.payload['engine_crps_per_sec'] / 1e6:.2f} M CRP/s"),
        format_row("speedup", f">= {MIN_SPEEDUP:.0f}x",
                   f"{r.payload['speedup']:.1f}x"),
    ])
    assert run.payload["speedup"] >= MIN_SPEEDUP


def test_throughput_enrollment(capsys):
    run = run_for_test("enrollment", capsys, report=lambda r: [
        f"  {r.payload['shape']}",
        format_row("enrollment", "--",
                   f"{r.payload['crps_per_sec'] / 1e3:.0f} k CRP/s"),
    ])
    assert run.payload["crps_per_sec"] > 0


def test_throughput_identify(capsys):
    run = run_for_test("identify", capsys, report=lambda r: [
        f"  {r.payload['shape']}",
        format_row("identify", "--",
                   f"{r.payload['identifies_per_sec']:.0f} calls/s"),
        format_row("scored CRPs", "--",
                   f"{r.payload['crps_per_sec'] / 1e3:.0f} k CRP/s"),
    ])
    assert run.payload["identifies_per_sec"] > 0
