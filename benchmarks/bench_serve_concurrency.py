"""Serving throughput under concurrent clients via the batching front end.

The micro-batching front end's pitch (ISSUE 10): concurrent
``identify`` traffic should not be served one blocking request at a
time.  Each request carries a device-read / transport round-trip --
the reader answers the codebook's stacked challenge query and streams
the transcript back -- and a sequential server eats that round-trip
*serially* on top of its own scoring pass.  Concurrent clients overlap
their round-trips, and the front end coalesces whatever transcripts
have arrived into single packed XOR + popcount passes.  This benchmark
pins that claim:

* models each client as a reader with a fixed round-trip latency
  (``CLIENT_LATENCY_MS``; conservative next to the live stacked-read
  cost ``bench_identify_scale`` reports as ``device_read_seconds``,
  which is tens of milliseconds at N=10k) followed by a blocking
  ``frontend.identify`` call;
* measures the sequential baseline -- one worker, round-trip then
  per-request ``service.identify_many([r])``, back to back -- against
  C client threads submitting through :class:`BatchingFrontend`,
  sweeping C and the batching policy (adaptive flush vs. fixed dwell);
* verifies bit-identity first: every transcript's concurrent verdict
  (chip id, match fraction) must equal its per-request verdict;
* records per-request latency percentiles (p50/p95/p99 via
  ``sample_stats``) alongside throughput, and gates on the speedup at
  the tier's client count -- >= 5x at 64 clients / N=10k identities
  on the laptop tier, a conservative 2x floor at smoke scale (CI
  runners share cores; the variance gate owns the tight comparison).

Runs standalone, under pytest, or via the matrix CLI::

    python benchmarks/bench_serve_concurrency.py --smoke
    python benchmarks/bench_serve_concurrency.py           # laptop tier
    pytest benchmarks/bench_serve_concurrency.py           # smoke-sized
    repro-puf bench run serve_concurrency --tier smoke
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

if str(Path(__file__).parent) not in sys.path:  # standalone execution
    sys.path.insert(0, str(Path(__file__).parent))

from bench_identify_scale import N_CHALLENGES, _ReplayResponder, build_population

from repro.bench import (
    format_row,
    matrix,
    record_result,
    run_cell,
    run_for_test,
    sample_stats,
    save_results,
)
from repro.service import (
    AuthenticationService,
    BatchingFrontend,
    FrontendConfig,
    ServiceConfig,
)

#: Modeled device-read + transport round-trip per request (seconds).
CLIENT_LATENCY_S = 0.003

#: Acceptance floors: concurrent-vs-sequential speedup at the tier's
#: gate client count.
MIN_SPEEDUP_SMOKE = 2.0
MIN_SPEEDUP_LAPTOP = 5.0

#: Batching policies swept per client count.
POLICIES = (
    {"name": "adaptive", "adaptive_flush": True, "max_wait_us": 0.0},
    {"name": "dwell200us", "adaptive_flush": False, "max_wait_us": 200.0},
)


def build_serving(n_identities: int, seed: int = 600):
    """A service over an alias-scaled population plus reusable transcripts.

    The replay transcripts are stateless (one stored response array
    each), so client threads can share them safely -- exactly the
    deployment picture where the transcript arrives *with* the request.
    """
    server, lot = build_population(n_identities, seed=seed)
    book = server.codebook(N_CHALLENGES, seed=700)
    replays = [
        _ReplayResponder(
            book.stacked_challenges,
            np.asarray(chip.xor_response(book.stacked_challenges)),
        )
        for chip in lot
    ]
    service = AuthenticationService(
        server, ServiceConfig(n_challenges=N_CHALLENGES), seed=700
    )
    service.identify_many([replays[0]])  # warm codebook + allocator
    return service, replays


def check_bit_identity(service, replays) -> int:
    """Concurrent verdicts must equal per-request verdicts, transcript
    for transcript.  Returns the number of verdicts compared."""
    expected = {
        index: service.identify_many([replay])[0]
        for index, replay in enumerate(replays)
    }
    with BatchingFrontend(
        service, FrontendConfig(max_batch=len(replays), max_pending=64)
    ) as frontend:
        futures = [
            (index % len(replays), frontend.submit_identify(replays[index % len(replays)]))
            for index in range(4 * len(replays))
        ]
        for index, future in futures:
            got = future.result()
            want = expected[index]
            if (got.chip_id, got.match_fraction) != (
                want.chip_id, want.match_fraction
            ):
                raise AssertionError(
                    f"concurrent verdict diverged for transcript {index}: "
                    f"{got} != {want}"
                )
    return len(futures)


def measure_sequential(
    service, replays, requests: int, latency_s: float
) -> Dict[str, object]:
    """One worker: round-trip, then a per-request pass, back to back."""
    latencies: List[float] = []
    start = time.perf_counter()
    for index in range(requests):
        t0 = time.perf_counter()
        time.sleep(latency_s)
        service.identify_many([replays[index % len(replays)]])
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    return {
        "requests": requests,
        "wall_seconds": wall,
        "requests_per_sec": requests / wall,
        "latency_ms": sample_stats([v * 1e3 for v in latencies]),
    }


def measure_concurrent(
    service,
    replays,
    clients: int,
    total_requests: int,
    latency_s: float,
    policy: Dict[str, object],
) -> Dict[str, object]:
    """C client threads through the front end, one batching policy."""
    per_client = max(1, total_requests // clients)
    config = FrontendConfig(
        max_batch=clients,
        max_pending=max(4 * clients, 64),
        adaptive_flush=bool(policy["adaptive_flush"]),
        max_wait_us=float(policy["max_wait_us"]),
    )
    latencies: List[float] = []
    errors: List[BaseException] = []
    lock = threading.Lock()
    with BatchingFrontend(service, config) as frontend:
        frontend.identify(replays[0])  # warm the loop thread

        def run_client(worker: int) -> None:
            mine: List[float] = []
            try:
                for j in range(per_client):
                    t0 = time.perf_counter()
                    time.sleep(latency_s)
                    frontend.identify(
                        replays[(worker * per_client + j) % len(replays)]
                    )
                    mine.append(time.perf_counter() - t0)
            except BaseException as exc:  # surface, don't hang the join
                with lock:
                    errors.append(exc)
            with lock:
                latencies.extend(mine)

        threads = [
            threading.Thread(target=run_client, args=(worker,), daemon=True)
            for worker in range(clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        stats = frontend.stats
    if errors:
        raise errors[0]
    served = clients * per_client
    return {
        "clients": clients,
        "policy": str(policy["name"]),
        "requests": served,
        "wall_seconds": wall,
        "requests_per_sec": served / wall,
        "latency_ms": sample_stats([v * 1e3 for v in latencies]),
        "frontend": stats,
    }


def measure_matrix(
    n_identities: int,
    clients_sweep: Sequence[int],
    total_requests: int,
    seq_requests: int,
    gate_clients: int,
    latency_s: float = CLIENT_LATENCY_S,
) -> Dict[str, object]:
    """Bit-identity check, sequential baseline, clients x policy sweep.

    ``gate_speedup`` -- concurrent throughput at *gate_clients* under
    the adaptive policy over the sequential baseline -- is the cell's
    gated metric.
    """
    service, replays = build_serving(n_identities)
    compared = check_bit_identity(service, replays)
    sequential = measure_sequential(service, replays, seq_requests, latency_s)
    series = [
        measure_concurrent(
            service, replays, clients, total_requests, latency_s, policy
        )
        for clients in clients_sweep
        for policy in POLICIES
    ]
    base = sequential["requests_per_sec"]
    for entry in series:
        entry["speedup"] = entry["requests_per_sec"] / base
    gate = next(
        entry for entry in series
        if entry["clients"] == gate_clients and entry["policy"] == "adaptive"
    )
    return {
        "shape": (
            f"{n_identities} identities, {N_CHALLENGES} challenges/identity, "
            f"{latency_s * 1e3:.1f}ms client round-trip"
        ),
        "n_identities": n_identities,
        "client_latency_ms": latency_s * 1e3,
        "clients_sweep": list(clients_sweep),
        "bit_identity_compared": compared,
        "sequential": sequential,
        "series": series,
        "gate_clients": gate_clients,
        "gate_speedup": gate["speedup"],
        "gate_p99_latency_ms": gate["latency_ms"]["p99"],
    }


@matrix.cell(
    "serve_concurrency",
    title="Throughput -- concurrent clients through the batching front end",
    tiers={
        "smoke": {"n_identities": 500, "clients": [8], "total": 160,
                  "seq": 64, "gate_clients": 8},
        "laptop": {"n_identities": 10_000, "clients": [16, 64],
                   "total": 1024, "seq": 128, "gate_clients": 64},
        "paper": {"n_identities": 10_000, "clients": [16, 64, 128],
                  "total": 2048, "seq": 192, "gate_clients": 64},
    },
    metric="gate_speedup",
    unit="x",
    direction="higher",
    trajectory=True,
    gated=True,
    warmup=0,  # build_serving / measure_concurrent warm internally
)
def serve_concurrency_cell(ctx):
    return measure_matrix(
        ctx.params["n_identities"],
        ctx.params["clients"],
        ctx.params["total"],
        ctx.params["seq"],
        ctx.params["gate_clients"],
    )


def _series_lines(payload: Dict[str, object]) -> List[str]:
    sequential = payload["sequential"]
    lines = [
        f"  bit identity: {payload['bit_identity_compared']} concurrent "
        f"verdicts == per-request verdicts",
        f"  sequential: {sequential['requests_per_sec']:>8.1f}/s   "
        f"p99 {sequential['latency_ms']['p99']:>7.1f}ms",
    ]
    for entry in payload["series"]:
        lines.append(
            f"  {entry['clients']:>3} clients [{entry['policy']:<10}]: "
            f"{entry['requests_per_sec']:>8.1f}/s   speedup "
            f"{entry['speedup']:>5.2f}x   p50 "
            f"{entry['latency_ms']['p50']:>6.1f}ms   p99 "
            f"{entry['latency_ms']['p99']:>6.1f}ms   mean batch "
            f"{entry['frontend']['mean_batch']:>5.1f}"
        )
    return lines


def _floor_for(payload: Dict[str, object]) -> float:
    return (
        MIN_SPEEDUP_LAPTOP
        if payload["gate_clients"] >= 64
        else MIN_SPEEDUP_SMOKE
    )


def test_serve_concurrency_smoke(capsys):
    """Pytest entry: bit-identity + the tier's speedup floor."""
    run = run_for_test("serve_concurrency", capsys, report=lambda r: [
        *_series_lines(r.payload),
        format_row(
            f"speedup @ {r.payload['gate_clients']} clients",
            f">= {_floor_for(r.payload):.0f}x",
            f"{r.payload['gate_speedup']:.2f}x",
        ),
    ])
    assert run.payload["gate_speedup"] >= _floor_for(run.payload)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="serving throughput under concurrent clients"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"smoke tier, enforce the {MIN_SPEEDUP_SMOKE:.0f}x floor "
             "(the CI perf gate)",
    )
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            run = run_cell(
                matrix.get("serve_concurrency"), tier="smoke", samples=1
            )
            record_result(run)
            payload = run.payload
        else:
            run = run_cell(
                matrix.get("serve_concurrency"), tier="laptop", samples=1
            )
            record_result(run)
            payload = run.payload
        for line in _series_lines(payload):
            print(line.strip())
        floor = _floor_for(payload)
        if payload["gate_speedup"] < floor:
            raise AssertionError(
                f"speedup at {payload['gate_clients']} clients is only "
                f"{payload['gate_speedup']:.2f}x (floor {floor:.0f}x)"
            )
    except AssertionError as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("serving concurrency floors met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
