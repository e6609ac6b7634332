"""The four benchmark workloads: populations, timed phases and checks.

Every input is generated here from the workload seed; the package only
ever sees the generated chips, enrollment records and transcripts.  Only
the public ``repro`` API is imported -- nothing from ``repro.bench`` or
``benchmarks/`` -- so edits to the in-repo bench harness cannot move
these numbers.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import os
import resource
import threading
import time
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    AuthenticationServer,
    EvaluationEngine,
    NOMINAL_CONDITION,
    PufChip,
    enroll_chip,
    paper_corner_grid,
    parity_features,
    random_challenges,
)
from repro.service import (
    AuthenticationService,
    AuthOutcome,
    BatchingFrontend,
    DriftPolicy,
    FrontendConfig,
    OverloadError,
    ServiceConfig,
)

from spans import SpanIndex, Tracer, percentile

K = 32
N_CHALLENGES = 64
ENROLL_TRAIN = 5_000
ENROLL_VALIDATION = 20_000

#: auth: the paper's secure width.
AUTH_PUFS = 10
AUTH_CHIPS = 8
#: The n=10 auth lot is a fixed reference lot, not drawn from --seed:
#: per-chip selection cost spans 20-320 ms per select(64) across lots
#: (acceptance depends on each chip's beta factors), so a seed-drawn
#: 8-chip lot would make lot-to-lot spread, not code, dominate the
#: run-to-run spread.  --seed still drives every challenge stream,
#: the request order and all other populations.
AUTH_LOT_SEED = 2017

#: identify: N aliased identities over 8 base chips.
ID_PUFS = 4
ID_BASE_CHIPS = 8
N_IDENTITIES = 4096
#: Fixed open-loop rate.  Open-loop batches hold about one request, so
#: at 1,000 req/s the drain loop was 55-65% busy on a 2-core host and the
#: tail flipped between runs; at 500 req/s the p50 still doubled whenever
#: other tenants slowed the host (spread 0.36 over ten seeds; 0.10 here).
IDENTIFY_RATE = 250.0
#: In-flight window of the saturating phase (below max_pending: no shed).
SATURATION_WINDOW = 64
#: Initial ledger rows per second for a phase whose request count is not
#: known ahead: well above a closed auth loop (tens per second) and
#: identify capacity (about 3,000 per second) on a 2-core host.  A ledger
#: that fills grows, so these size memory and never cap a rate.
AUTH_ROWS_PER_S = 1_000
IDENTIFY_ROWS_PER_S = 20_000
OPEN_LOOP_SHARE = 0.6

#: sweep: one 10-XOR chip over the 9 V/T corners, T = 100k.
SWEEP_PUFS = 10
SWEEP_TRIALS = 100_000
#: One RNG block per timed call, so a run makes enough calls for a p75.
SWEEP_CHUNK = 4096
#: Fig. 2: single-PUF stable fraction at nominal is about 0.80.
STABLE_BAND = (0.75, 0.85)

#: Explicit serving configuration.  The ServiceConfig defaults throttle
#: a chip after 30 requests per 60 s and lock it out after 5 rejections,
#: which would refuse closed-loop auth traffic and the impostor checks.
SERVICE_CONFIG = ServiceConfig(
    n_challenges=N_CHALLENGES,
    tolerance=0,
    max_read_attempts=3,
    deadline=None,
    breaker_failure_threshold=3,
    breaker_cooldown=30.0,
    max_requests_per_window=0,
    window_seconds=60.0,
    lockout_threshold=0,
    lockout_seconds=120.0,
    drift=DriftPolicy(window=20, min_samples=8, escalate_frr=0.15, recover_clean=40),
    majority_votes=5,
    retighten_beta0=0.25,
    retighten_beta1=2.2,
    pool_capacity=100_000,
    low_water_fraction=0.10,
)
FRONTEND_CONFIG = FrontendConfig(
    max_batch=64,
    max_wait_us=200.0,
    max_pending=1024,
    adaptive_flush=True,
    min_match_fraction=0.95,
)

DENIALS = {
    AuthOutcome.REJECTED, AuthOutcome.DEVICE_ERROR, AuthOutcome.BREAKER_OPEN,
    AuthOutcome.RATE_LIMITED, AuthOutcome.POOL_EXHAUSTED,
    AuthOutcome.DEADLINE_EXCEEDED, AuthOutcome.UNKNOWN_CHIP,
    AuthOutcome.REVOKED, AuthOutcome.OVERLOAD_SHED,
}


def sub_seed(seed: int, *tags) -> int:
    """A 32-bit seed derived from *seed* and string/int tags."""
    words = [int(seed)] + [
        zlib.crc32(t.encode()) if isinstance(t, str) else int(t) for t in tags
    ]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclasses.dataclass
class Outcome:
    workload: str
    metrics: Dict[str, Metric] = dataclasses.field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = dataclasses.field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (float(value), unit)


AUTH, IDENTIFY = 0, 1
#: Expected base chip of a transcript that must resolve to no identity.
STRANGER = -1


class Ledger:
    """Per-request timeline and verdict, one row per request.

    Rows live in preallocated arrays so the load generator allocates
    almost nothing per request: the benchmark must not add
    garbage-collector pressure of its own to the process it measures.
    Times are ``time.perf_counter()`` seconds.  Request *i* sends source
    ``(first_source + i) % n_sources`` -- an auth chip or a transcript;
    ``expected_of[transcript]`` is the base chip it must resolve to.
    """

    def __init__(self, kind: int, n: int, first_source: int, n_sources: int,
                 expected_of: Optional[np.ndarray] = None,
                 tracer: Optional[Tracer] = None, due: Optional[np.ndarray] = None) -> None:
        self.kind_value, self.first_source, self.n_sources = kind, first_source, n_sources
        self.expected_of = expected_of
        for name, column in self._columns(0, n).items():
            setattr(self, name, column)
        if due is not None:
            self.due = due
        self.used = n
        self.auth_results: Dict[int, object] = {}
        self.tracer = tracer
        self.window: Optional[threading.Semaphore] = None

    def _columns(self, start: int, n: int) -> Dict[str, np.ndarray]:
        return {
            "kind": np.full(n, self.kind_value, np.int8),
            "source": (self.first_source + start + np.arange(n)) % self.n_sources,
            "due": np.zeros(n), "sent": np.zeros(n), "done": np.full(n, np.nan),
            "ok": np.zeros(n, dtype=bool), "failed_call": np.zeros(n, dtype=bool),
            "reads": np.zeros(n, dtype=np.int64), "batch_start": np.full(n, np.nan),
        }

    def grow(self) -> None:
        """Double the rows, so a faster program never runs out of them.

        Call only while no request of this ledger is in flight: the
        done-callbacks write rows.
        """
        n = len(self.kind)
        for name, column in self._columns(n, n).items():
            setattr(self, name, np.concatenate([getattr(self, name), column]))

    def finish(self, i: int, future) -> None:
        """Done-callback of request *i*'s future."""
        self.done[i] = time.perf_counter()
        try:
            result = future.result()
        except Exception:  # the request's own failure, counted as failed
            self.failed_call[i] = True
        else:
            self.record(i, result)
        if self.window is not None:
            self.window.release()

    def record(self, i: int, result) -> None:
        if self.kind[i] == AUTH:
            self.auth_results[i] = result
            self.ok[i] = (result.outcome is AuthOutcome.APPROVED
                          and result.auth.n_mismatches == 0)
        else:
            expected = self.expected_of[self.source[i]]
            got = result.chip_id
            self.ok[i] = got is None if expected == STRANGER else alias_base(got) == expected

    def note_read(self, i: int) -> None:
        """Traced runs: the device of request *i* was read by a pass."""
        self.reads[i] += 1
        start = self.tracer.root_start()
        if start is not None and np.isnan(self.batch_start[i]):
            self.batch_start[i] = start

    def rows(self, kind: int) -> np.ndarray:
        return np.flatnonzero(self.kind[:self.used] == kind)

    def latencies_ms(self, rows: np.ndarray) -> np.ndarray:
        """Latency from due time; a failed request misses every limit."""
        lat = (self.done[rows] - self.due[rows]) * 1e3
        return np.where(self.ok[rows], lat, np.inf)

    def failed(self, rows: np.ndarray) -> int:
        return int((~self.ok[rows]).sum())


#: Timed phases are cut into windows of this length; open-loop p50s and
#: saturated throughput are reported as the median over windows, so a
#: slow second (other tenants) moves one window, not the run's figure.
WINDOW_S = 1.0


def window_index(offsets: np.ndarray) -> np.ndarray:
    """Window of each sample from its offset into the phase (seconds)."""
    return np.floor(offsets / WINDOW_S).astype(np.int64)


def windowed(values: np.ndarray, window: np.ndarray, statistic: Callable,
             duration_s: float) -> float:
    """Median over the whole windows of a phase of *statistic* per window."""
    n_windows = max(1, int(duration_s / WINDOW_S))
    return float(np.median([statistic(values[window == w]) for w in range(n_windows)]))


def tail(values, q: float, duration_s: float) -> float:
    """Percentile with failed (infinite) samples clipped to the run length."""
    return min(percentile(values, q), duration_s * 1e3)


# ----------------------------------------------------------------------
# Responders: the benchmark's own stand-ins for devices
# ----------------------------------------------------------------------
class Replay:
    """A captured transcript answering the codebook's stacked query.

    *note*, set only in traced runs, is called on each read.
    """

    def __init__(self, transcript: np.ndarray, note: Optional[Callable] = None):
        self._transcript = transcript
        self._note = note

    def xor_response(self, challenges, condition=None):
        if len(challenges) != len(self._transcript):
            raise ValueError("transcript does not answer this query")
        if self._note is not None:
            self._note()
        return self._transcript


class Live:
    """A live simulated chip whose reads are noted (traced runs)."""

    def __init__(self, chip: PufChip, note: Callable):
        self._chip = chip
        self.chip_id = chip.chip_id
        self._note = note

    def xor_response(self, challenges, condition=NOMINAL_CONDITION):
        self._note()
        return self._chip.xor_response(challenges, condition)


# ----------------------------------------------------------------------
# Populations
# ----------------------------------------------------------------------
def enroll_lot(n_chips: int, n_pufs: int, lot_seed: int, prefix: str):
    chips = [
        PufChip.create(n_pufs, K, seed=sub_seed(lot_seed, prefix, i),
                       chip_id=f"{prefix}-{i}")
        for i in range(n_chips)
    ]
    records = [
        enroll_chip(chip, n_enroll_challenges=ENROLL_TRAIN,
                    n_validation_challenges=ENROLL_VALIDATION,
                    seed=sub_seed(lot_seed, prefix, "enroll", i))
        for i, chip in enumerate(chips)
    ]
    return chips, records


def alias_id(index: int) -> str:
    return f"id-{index:05d}"


def alias_base(chip_id: Optional[str]) -> Optional[int]:
    """Base chip of an aliased identity (``None`` for anything else)."""
    if chip_id is None or not chip_id.startswith("id-"):
        return None
    return int(chip_id[3:]) % ID_BASE_CHIPS


@dataclasses.dataclass
class World:
    server: AuthenticationServer
    service: AuthenticationService
    auth_chips: List[PufChip]
    base_chips: List[PufChip]


def build_world(seed: int, *, auth: bool, identify: bool) -> World:
    """Enroll the workload's population and build the codebook."""
    server = AuthenticationServer()
    auth_chips, base_chips = [], []
    if auth:
        auth_chips, records = enroll_lot(AUTH_CHIPS, AUTH_PUFS, AUTH_LOT_SEED, "auth")
        for record in records:
            server.register(record)
    if identify:
        base_chips, records = enroll_lot(
            ID_BASE_CHIPS, ID_PUFS, sub_seed(seed, "identify-lot"), "base")
        for index in range(N_IDENTITIES):
            server.register(dataclasses.replace(
                records[index % ID_BASE_CHIPS], chip_id=alias_id(index)))
    service_seed = sub_seed(seed, "service")
    service = AuthenticationService(server, SERVICE_CONFIG, seed=service_seed)
    if identify:
        # identify_many asks for the codebook with the service seed.
        server.codebook(N_CHALLENGES, seed=service_seed)
    return World(server, service, auth_chips, base_chips)


def warm_up() -> None:
    """Pay the process's one-off costs -- lazy imports, the kernel backend's
    first call -- on a tiny population, so that every timed set-up does the
    same work.  A long-running server pays them once at start.  Call it
    before a tracer is installed: its spans are not the workload's."""
    chip = PufChip.create(2, K, seed=0, chip_id="warm-up")
    server = AuthenticationServer()
    server.register(enroll_chip(chip, n_enroll_challenges=500,
                                n_validation_challenges=2_000, seed=0))
    server.codebook(N_CHALLENGES, seed=0)
    EvaluationEngine(jobs=1, chunk_size=SWEEP_CHUNK).soft_counts(
        list(chip.oracle().pufs), random_challenges(256, K, 0), 1_000,
        [NOMINAL_CONDITION], seed=0)


def timed_setup(repeats: int, build: Callable[[], object]):
    """Run *build* several times; return the last result and the median time."""
    times = []
    result = None
    for _ in range(repeats):
        result = None
        gc.collect()
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return result, float(np.median(times)), len(times)


def capture_transcripts(world: World, seed: int) -> List[Tuple[np.ndarray, Optional[int]]]:
    """One noisy read of the stacked codebook query per base chip, plus
    one from an unenrolled chip: ``(transcript, expected base or None)``.

    Drawn from the simulator's exact response probabilities over one
    shared parity pass, which is distributed exactly like a live
    one-shot read and avoids nine full device reads of the query.
    """
    book = world.server.codebook(N_CHALLENGES)
    phi = parity_features(book.stacked_challenges)
    rng = np.random.default_rng(sub_seed(seed, "transcripts"))
    stranger = PufChip.create(ID_PUFS, K, seed=sub_seed(seed, "stranger"), chip_id="stranger")
    sources = [(chip, index) for index, chip in enumerate(world.base_chips)]
    sources.append((stranger, None))
    transcripts = []
    for chip, expected in sources:
        p = chip.oracle().response_probability_from_features(phi)
        transcripts.append(((rng.random(len(p)) < p).astype(np.int8), expected))
    return transcripts


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
def submit(frontend: BatchingFrontend, ledger: Ledger, i: int, responder):
    """Send request *i*; its future, or ``None`` when it was shed."""
    ledger.sent[i] = time.perf_counter()
    try:
        if ledger.kind[i] == AUTH:
            future = frontend.submit_authenticate(responder)
        else:
            future = frontend.submit_identify(responder)
    except OverloadError:
        ledger.done[i] = time.perf_counter()
        ledger.failed_call[i] = True
        if ledger.window is not None:
            ledger.window.release()
        return None
    future.add_done_callback(functools.partial(ledger.finish, i))
    return future


def wait_done(ledger: Ledger, timeout: float = 120.0) -> None:
    deadline = time.perf_counter() + timeout
    while np.isnan(ledger.done[:ledger.used]).any() and time.perf_counter() < deadline:
        time.sleep(0.005)


def open_loop(frontend, ledger: Ledger, responder: Callable[[int], object]) -> None:
    """Send each request at its due time, however late the system runs."""
    clock, sleep = time.perf_counter, time.sleep
    for i in range(ledger.used):
        delay = ledger.due[i] - clock()
        if delay > 0:
            sleep(delay)
        submit(frontend, ledger, i, responder(i))
    wait_done(ledger)


def closed_loop(frontend, ledger: Ledger, end: float, responder: Callable[[int], object]) -> None:
    """One client that sends its next request when the reply arrives.

    The next send is chained from the reply's done-callback, so the client
    needs no thread of its own; call :func:`wait_done` after *end*.
    """
    def send(i: int) -> None:
        if i == len(ledger.kind):
            ledger.grow()  # request i - 1, the only one in flight, is done
        ledger.used = i + 1
        ledger.due[i] = time.perf_counter()
        future = submit(frontend, ledger, i, responder(i))
        if future is not None:
            future.add_done_callback(lambda _: advance(i))

    def advance(i: int) -> None:
        if time.perf_counter() < end:
            send(i + 1)

    ledger.used = 0
    send(0)


def saturate(frontend, ledger: Ledger, seconds: float, responder: Callable[[int], object]) -> None:
    """Keep a fixed window of identifications in flight for *seconds*."""
    ledger.window = threading.Semaphore(SATURATION_WINDOW)
    end = time.perf_counter() + seconds
    used = 0
    while time.perf_counter() < end:
        if used == len(ledger.kind):
            # Drain the window so that no callback writes while rows move.
            for _ in range(SATURATION_WINDOW):
                ledger.window.acquire()
            ledger.grow()
            for _ in range(SATURATION_WINDOW):
                ledger.window.release()
        ledger.window.acquire()
        ledger.due[used] = time.perf_counter()
        submit(frontend, ledger, used, responder(used))
        used += 1
    ledger.used = used
    wait_done(ledger)


# ----------------------------------------------------------------------
# Shared checks
# ----------------------------------------------------------------------
def check_service_health(out: Outcome, service: AuthenticationService,
                         chip_ids: Sequence[str], results) -> None:
    outcomes = [r.outcome for r in results if r is not None]
    refused = sum(o in (AuthOutcome.RATE_LIMITED, AuthOutcome.BREAKER_OPEN) for o in outcomes)
    out.check("no RATE_LIMITED/BREAKER_OPEN in timed phase", refused == 0, f"{refused} refused")
    rungs = [r.rung for r in results if r is not None]
    rungs += [service.chip_status(c)["rung"] for c in chip_ids]
    out.check("drift ladder at rung 0 throughout", max(rungs, default=0) == 0,
              f"max rung {max(rungs, default=0)}")


def check_impostors_and_replay(out: Outcome, service: AuthenticationService,
                               chips: Sequence[PufChip]) -> None:
    """Fixed impostor claims after the timed phase, then the no-replay audit."""
    verdicts = [
        service.authenticate(chips[(i + 1) % len(chips)], claimed_id=chip.chip_id).outcome
        for i, chip in enumerate(chips)
    ]
    rejected = sum(v is AuthOutcome.REJECTED for v in verdicts)
    out.check("impostor claims all REJECTED", rejected == len(chips),
              f"{rejected}/{len(chips)} rejected")
    replayed = service.audit.replayed_digests()
    out.check("no challenge digest repeats per chip", not replayed,
              f"{sum(map(len, replayed.values()))} replayed")


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set of this process, or of its largest reaped child.

    Forked pool workers share the parent's pages copy-on-write and their
    RSS counts those pages, so the two are reported apart, never summed.
    """
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_auth(seed: int, seconds: float, setup_repeats: int, tracer: Optional[Tracer]) -> Outcome:
    out = Outcome("auth")
    world, setup_s, n_setup = timed_setup(
        setup_repeats, lambda: build_world(seed, auth=True, identify=False))
    service, chips = world.service, world.auth_chips
    cache0 = dict(world.server.feature_cache_stats)
    offset = sub_seed(seed, "order") % AUTH_CHIPS
    ledger = Ledger(AUTH, int(seconds * AUTH_ROWS_PER_S) + 1, offset, AUTH_CHIPS, tracer=tracer)
    start = time.perf_counter()
    end = start + seconds
    i = 0
    while time.perf_counter() < end:
        if i == len(ledger.kind):
            ledger.grow()
        chip = chips[ledger.source[i]]
        ledger.due[i] = ledger.sent[i] = time.perf_counter()
        try:
            result = service.authenticate(chip)
        except Exception:  # counted as a failed request
            ledger.failed_call[i] = True
        else:
            ledger.record(i, result)
            ledger.reads[i] = result.attempts
        ledger.done[i] = time.perf_counter()
        i += 1
    ledger.used = i
    stop = time.perf_counter()
    elapsed = stop - start

    rows = ledger.rows(AUTH)
    lat = ledger.latencies_ms(rows)
    failed = ledger.failed(rows)
    out.attempted, out.failed = len(rows), failed
    out.metrics["auth_per_s"] = Metric((len(rows) - failed) / elapsed, "1/s", len(rows))
    out.metrics["auth_p50_ms"] = Metric(tail(lat, 50, elapsed), "ms", len(lat))
    out.metrics["auth_p90_ms"] = Metric(tail(lat, 90, elapsed), "ms", len(lat))
    out.metrics["setup_s"] = Metric(setup_s, "s", n_setup)

    out.check("every genuine auth APPROVED with 0 mismatches", failed == 0,
              f"{failed}/{len(rows)} failed")
    check_service_health(out, service, [c.chip_id for c in chips], ledger.auth_results.values())
    if tracer is not None:
        layer_metrics(out, tracer, world, [ledger], start, stop, cache0=cache0)
    check_impostors_and_replay(out, service, chips)
    out.metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", 1)
    return out


def run_identify(seed: int, seconds: float, setup_repeats: int, tracer: Optional[Tracer],
                 *, mixed: bool = False) -> Outcome:
    out = Outcome("mixed" if mixed else "identify")
    world, setup_s, n_setup = timed_setup(
        setup_repeats, lambda: build_world(seed, auth=mixed, identify=True))
    transcripts = capture_transcripts(world, seed)
    service = world.service
    cache0 = dict(world.server.feature_cache_stats)
    order = sub_seed(seed, "order")
    expected_of = np.array([STRANGER if e is None else e for _, e in transcripts])
    shared = [Replay(t) for t, _ in transcripts]

    def responder_for(ledger: Ledger):
        """Request index -> responder; traced runs note each read."""
        def make(i: int):
            source = int(ledger.source[i])
            if ledger.kind[i] == AUTH:
                chip = world.auth_chips[source]
                return chip if tracer is None else Live(chip, functools.partial(ledger.note_read, i))
            if tracer is None:
                return shared[source]
            return Replay(transcripts[source][0], functools.partial(ledger.note_read, i))
        return make

    # Open loop of identifications at a fixed rate; in mixed, alongside
    # one closed-loop auth client on the same front end.
    open_seconds = seconds if mixed else seconds * OPEN_LOOP_SHARE
    n_identify = int(open_seconds * IDENTIFY_RATE)
    gc.collect()
    with BatchingFrontend(service, FRONTEND_CONFIG) as frontend:
        stats0 = frontend.stats
        start = time.perf_counter() + 0.01
        opened = Ledger(IDENTIFY, n_identify, order, len(transcripts), expected_of, tracer,
                        due=start + np.arange(n_identify) / IDENTIFY_RATE)
        ledgers = [opened]
        if mixed:
            authed = Ledger(AUTH, int(seconds * AUTH_ROWS_PER_S) + 1, order, AUTH_CHIPS,
                            tracer=tracer)
            ledgers.append(authed)
            closed_loop(frontend, authed, start + open_seconds, responder_for(authed))
        open_loop(frontend, opened, responder_for(opened))
        if mixed:
            wait_done(authed)
        open_stop = time.perf_counter()
        stats1 = frontend.stats
        if not mixed:
            saturated = Ledger(IDENTIFY, int((seconds - open_seconds) * IDENTIFY_ROWS_PER_S) + 1,
                               order + n_identify, len(transcripts), expected_of, tracer)
            sat_start = time.perf_counter()
            saturate(frontend, saturated, seconds - open_seconds, responder_for(saturated))
            ledgers.append(saturated)
        stats2 = frontend.stats
    stop = time.perf_counter()

    open_elapsed = open_stop - start
    lat = opened.latencies_ms(np.arange(n_identify))
    window_of = window_index(opened.due - start)
    out.attempted = sum(l.used for l in ledgers)
    out.failed = sum(l.failed(np.arange(l.used)) for l in ledgers)
    out.metrics["identify_p50_ms"] = Metric(
        windowed(lat, window_of, lambda v: tail(v, 50, WINDOW_S), open_seconds), "ms", len(lat))
    # Tails are whole-phase percentiles: a stall anywhere in the phase moves them.
    for q in (95, 99):
        out.metrics[f"identify_p{q}_ms"] = Metric(tail(lat, q, open_elapsed), "ms", len(lat))
    if mixed:
        auth_rows = np.arange(authed.used)
        auth_lat = authed.latencies_ms(auth_rows)
        auth_failed = authed.failed(auth_rows)
        out.metrics["auth_per_s"] = Metric(
            (authed.used - auth_failed) / open_elapsed, "1/s", authed.used)
        out.metrics["auth_p50_ms"] = Metric(tail(auth_lat, 50, open_elapsed), "ms", authed.used)
        out.metrics["auth_p90_ms"] = Metric(tail(auth_lat, 90, open_elapsed), "ms", authed.used)
    else:
        sat_seconds = seconds - open_seconds
        rows = np.arange(saturated.used)
        done = saturated.done[rows][saturated.ok[rows]] - sat_start
        out.metrics["identify_per_s"] = Metric(
            windowed(np.ones(len(done)), window_index(done), np.sum, sat_seconds) / WINDOW_S,
            "1/s", saturated.used)
        out.metrics["identify_sat_p90_ms"] = Metric(
            tail(saturated.latencies_ms(rows), 90, sat_seconds), "ms", saturated.used)
    out.metrics["setup_s"] = Metric(setup_s, "s", n_setup)

    wrong = sum(l.failed(l.rows(IDENTIFY)) for l in ledgers)
    n_id = sum(len(l.rows(IDENTIFY)) for l in ledgers)
    out.check("transcripts resolve to their base chip, strangers to None", wrong == 0,
              f"{wrong}/{n_id} wrong or failed")
    shed = stats2["shed"] - stats0["shed"]
    out.check("no request shed", shed == 0, f"{shed} shed")
    if mixed:
        out.check("every genuine auth APPROVED with 0 mismatches", auth_failed == 0,
                  f"{auth_failed}/{authed.used} failed")
        check_service_health(out, service, [c.chip_id for c in world.auth_chips],
                             authed.auth_results.values())
    if tracer is not None:
        layer_metrics(out, tracer, world, ledgers, start, stop, cache0=cache0,
                      open_window=(start, open_stop, stats0, stats1, opened))
    if mixed:
        check_impostors_and_replay(out, service, world.auth_chips)
    else:
        replayed = service.audit.replayed_digests()
        out.check("no challenge digest repeats per chip", not replayed)
    out.metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", 1)
    return out


def run_sweep(seed: int, seconds: float, setup_repeats: int, tracer: Optional[Tracer]) -> Outcome:
    out = Outcome("sweep")
    corners = paper_corner_grid()
    nominal = corners.index(NOMINAL_CONDITION)
    nproc = os.cpu_count() or 1

    def build():
        chip = PufChip.create(SWEEP_PUFS, K, seed=sub_seed(seed, "sweep-chip"), chip_id="sweep")
        engine = EvaluationEngine(jobs=1, chunk_size=SWEEP_CHUNK)
        pufs = list(chip.oracle().pufs)
        # The first sweep in a process loads and warms the kernel
        # backend; a campaign pays it once.
        engine.soft_counts(pufs, random_challenges(SWEEP_CHUNK, K, 0), SWEEP_TRIALS,
                           corners, seed=0)
        return engine, pufs

    (engine, pufs), setup_s, n_setup = timed_setup(setup_repeats, build)
    rng = np.random.default_rng(sub_seed(seed, "sweep-challenges"))
    stable = [0, 0]
    retries = [0]

    def sweep_for(engine, budget, n_challenges=SWEEP_CHUNK):
        calls = []
        end = time.perf_counter() + budget
        while time.perf_counter() < end:
            challenges = random_challenges(n_challenges, K, rng)
            call_seed = int(rng.integers(2**31))
            begin = time.perf_counter()
            counts = engine.soft_counts(pufs, challenges, SWEEP_TRIALS, corners, seed=call_seed)
            calls.append((time.perf_counter() - begin, counts.size))
            retries[0] += engine.last_report.retries
            nominal_counts = counts[nominal]
            stable[0] += int(((nominal_counts == 0) | (nominal_counts == SWEEP_TRIALS)).sum())
            stable[1] += nominal_counts.size
        return calls

    def rate(calls):
        return sum(n for _, n in calls) / sum(t for t, _ in calls)

    if tracer is None:
        calls = sweep_for(engine, seconds)
    else:
        # The parallel rate uses calls of nproc chunks so the pool runs.
        # Pool workers are other processes, so the traced part is jobs=1
        # in-process.
        parallel = EvaluationEngine(jobs=nproc, chunk_size=SWEEP_CHUNK)
        pooled = sweep_for(parallel, seconds / 3, SWEEP_CHUNK * nproc)
        chunks = parallel.last_report.chunks_computed
        serial = sweep_for(engine, seconds / 3, SWEEP_CHUNK * nproc)
        tracer.install()
        start = time.perf_counter()
        calls = sweep_for(engine, seconds / 3)
        stop = time.perf_counter()
        tracer.uninstall()

    times = [t for t, _ in calls]
    out.attempted, out.failed = len(calls), 0
    out.metrics["sweep_soft_per_s"] = Metric(rate(calls), "1/s", len(calls))
    out.metrics["sweep_call_p50_ms"] = Metric(percentile(times, 50) * 1e3, "ms", len(calls))
    out.metrics["sweep_call_p75_ms"] = Metric(percentile(times, 75) * 1e3, "ms", len(calls))
    out.metrics["setup_s"] = Metric(setup_s, "s", n_setup)

    # Determinism across worker counts: a fresh two-chunk grid at
    # jobs=nproc, and a fixed sub-grid of it recomputed at jobs=1.
    challenges = random_challenges(2 * SWEEP_CHUNK, K, sub_seed(seed, "determinism"))
    full = EvaluationEngine(jobs=nproc, chunk_size=SWEEP_CHUNK).soft_counts(
        pufs, challenges, SWEEP_TRIALS, corners, seed=seed)
    sub = EvaluationEngine(jobs=1, chunk_size=SWEEP_CHUNK).soft_counts(
        pufs[:2], challenges[:SWEEP_CHUNK], SWEEP_TRIALS, corners[:3], seed=seed)
    out.check("sub-grid recomputed at jobs=1 is bit-identical to jobs=nproc",
              np.array_equal(sub, full[:3, :2, :SWEEP_CHUNK]))
    fraction = stable[0] / stable[1]
    out.check(f"single-PUF nominal stable fraction in {STABLE_BAND}",
              STABLE_BAND[0] <= fraction <= STABLE_BAND[1], f"{fraction:.4f}")
    out.check("no chunk retries", retries[0] == 0, f"{retries[0]} retries")
    reap_children()
    if tracer is not None:
        sweep_layers(out, tracer, start, stop, rate(pooled) / rate(serial), chunks, retries[0])
    out.metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", 1)
    return out


def reap_children() -> None:
    """Wait for engine pool workers that shut down without waiting."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout=30)


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------
def _ms(seconds: float) -> float:
    return seconds * 1e3


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def common_layers(out: Outcome, tracer: Tracer, index: SpanIndex, start: float, stop: float,
                  serving: float) -> None:
    pauses = [(s, e, g) for s, e, g in tracer.gc_pauses if s >= start and e <= stop]
    out.layer("runtime.gc_gen2_count", sum(g == 2 for _, _, g in pauses), "count")
    out.layer("runtime.gc_pause_max_ms", _ms(max((e - s for s, e, _ in pauses), default=0.0)), "ms")
    out.layer("runtime.children_peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    roots = index.roots()
    unattributed = sum(index.self_time(s) for s in roots)
    out.layer("trace.unattributed_frac", _per(unattributed, serving), "ratio")
    out.layer("trace.spans", len(index.spans), "count")
    out.layer("trace.overhead_frac", _per(len(index.spans) * tracer.span_cost(), serving), "ratio")
    out.layer("trace.serving_s", serving, "s")


def layer_metrics(out: Outcome, tracer: Tracer, world: World, ledgers: Sequence[Ledger],
                  start: float, stop: float, *, cache0: dict, open_window=None) -> None:
    index = SpanIndex(tracer.spans, start, stop)
    n_requests = sum(l.used for l in ledgers)
    n_auth = sum(len(l.rows(AUTH)) for l in ledgers)
    n_id = sum(len(l.rows(IDENTIFY)) for l in ledgers)
    roots = index.roots()
    serving = sum(s.duration for s in roots)
    out.layer("trace.requests", n_requests, "count")

    # crp
    cache1 = world.server.feature_cache_stats
    hits = cache1["hits"] - cache0["hits"]
    lookups = hits + cache1["misses"] - cache0["misses"]
    out.layer("crp.take_us_per_candidate",
              _per(index.total("crp.take") * 1e6, index.units("crp.take")), "us")
    out.layer("crp.parity_us_per_row",
              _per(index.total("crp.parity") * 1e6, index.units("crp.parity")), "us")
    out.layer("crp.feature_cache_hit_ratio", _per(hits, lookups), "ratio")
    out.layer("crp.feature_cache_lookups", lookups, "count")

    # selection / model / thresholds
    selects = index.named("selection.select")
    takes = [t for s in selects for t in index.descendants(s, "crp.take")]
    candidates = sum(t.units for t in takes)
    rounds = len(takes)
    select_time = sum(s.duration for s in selects)
    out.layer("selection.accept_ratio", _per(index.units("selection.select"), candidates), "ratio")
    out.layer("selection.candidates", candidates, "count")
    out.layer("selection.rounds_per_call", _per(rounds, len(selects)), "count")
    out.layer("selection.calls", len(selects), "count")
    out.layer("selection.calls_per_request", _per(len(selects), n_requests), "count")
    out.layer("selection.ms_per_request", _per(_ms(select_time), n_requests), "ms")
    out.layer("selection.share", _per(select_time, serving), "ratio")
    out.layer("model.predict_us_per_candidate",
              _per(index.total("model.predict") * 1e6, candidates), "us")
    out.layer("thresholds.classify_us_per_candidate",
              _per(index.total("thresholds.classify") * 1e6, candidates), "us")

    # silicon
    out.layer("silicon.read_ms_per_request", _per(_ms(index.total("silicon.read")), n_requests), "ms")

    # service
    events = index.count("service.audit")
    denied = sum(int(l.failed_call[:l.used].sum())
                 + sum(r.outcome in DENIALS for r in l.auth_results.values()) for l in ledgers)
    reads = sum(int(l.reads[:l.used].sum()) for l in ledgers)
    out.layer("service.admission_ms_per_request",
              _per(_ms(index.total("service.admission")), n_auth), "ms")
    out.layer("service.digest_ms_per_request",
              _per(_ms(index.total("service.digest")), n_auth), "ms")
    out.layer("service.audit_us_per_event", _per(index.total("service.audit") * 1e6, events), "us")
    out.layer("service.audit_events", events, "count")
    out.layer("service.audit_events_per_request", _per(events, n_requests), "count")
    out.layer("service.read_attempts_per_request", _per(reads, n_requests), "count")
    out.layer("service.denied_frac", _per(denied, n_requests), "ratio")

    # codebook / server
    setup_index = SpanIndex(tracer.spans, 0.0, start)
    builds = setup_index.named("codebook.build")
    rows = sum(s.units for s in builds)
    out.layer("codebook.build_ms_per_row", _per(_ms(sum(s.duration for s in builds)), rows), "ms")
    out.layer("codebook.rows", rows, "count")
    out.layer("codebook.pack_ms_per_request", _per(_ms(index.total("codebook.pack")), n_id), "ms")
    out.layer("codebook.match_ms_per_request", _per(_ms(index.total("codebook.match")), n_id), "ms")
    out.layer("server.identify_ms_per_request", _per(_ms(index.total("server.identify")), n_id), "ms")
    bytes_per_request = 0.0
    if n_id:
        # Computed from array sizes, not measured: the int8 transcript
        # read, its packed form written and read back, and the packed
        # codebook matrix read once per scoring pass.
        book = world.server.codebook(N_CHALLENGES)
        packed = book.packed_matrix.nbytes
        passes = index.count("codebook.match")
        bytes_per_request = (len(book.stacked_challenges) + 2 * packed
                             + packed * _per(passes, n_id))
    out.layer("codebook.bytes_per_request", bytes_per_request, "B")

    # frontend (open-loop window: the phase whose latency is reported)
    hold = busy = late = 0.0
    queue_p50 = queue_p99 = mean_batch = runs_per_batch = shed = batches = 0.0
    if open_window is not None:
        w_start, w_stop, stats0, stats1, opened = open_window
        waits = _ms(opened.batch_start - opened.sent)
        waits = waits[~np.isnan(waits)]
        queue_p50, queue_p99 = percentile(waits, 50), percentile(waits, 99)
        batches = stats1["batches"] - stats0["batches"]
        served = (stats1["submitted"] - stats1["shed"]) - (stats0["submitted"] - stats0["shed"])
        mean_batch = _per(served, batches)
        runs_per_batch = _per(stats1["runs"] - stats0["runs"], batches)
        shed = stats1["shed"] - stats0["shed"]
        window = SpanIndex(tracer.spans, w_start, w_stop)
        busy = _per(sum(s.duration for s in window.roots()), w_stop - w_start)
        holds = window.named("service.authenticate_batch")
        hold = _per(_ms(sum(s.duration for s in holds)), len(holds))
        late = percentile(_ms(opened.sent - opened.due), 99)
    out.layer("frontend.queue_wait_p50_ms", queue_p50, "ms")
    out.layer("frontend.queue_wait_p99_ms", queue_p99, "ms")
    out.layer("frontend.mean_batch", mean_batch, "count")
    out.layer("frontend.batches", batches, "count")
    out.layer("frontend.runs_per_batch", runs_per_batch, "count")
    out.layer("frontend.busy_frac", busy, "ratio")
    out.layer("frontend.shed", shed, "count")
    out.layer("frontend.auth_run_hold_ms", hold, "ms")
    out.layer("loadgen.late_p99_ms", late, "ms")

    common_layers(out, tracer, index, start, stop, serving)


def sweep_layers(out: Outcome, tracer: Tracer, start: float, stop: float,
                 efficiency: float, chunks: int, retries: int) -> None:
    index = SpanIndex(tracer.spans, start, stop)
    sweeps = index.named("engine.soft_counts")
    serving = sum(s.duration for s in sweeps)
    chunk_spans = index.named("engine.chunk")
    parity = sum(p.duration for c in chunk_spans for p in index.descendants(c, "crp.parity"))
    rows = sum(p.units for c in chunk_spans for p in index.descendants(c, "crp.parity"))
    out.layer("engine.chunks", chunks, "count")
    out.layer("engine.retries", retries, "count")
    out.layer("engine.parallel_efficiency", efficiency, "ratio")
    out.layer("kernels.parity_share", _per(parity, serving), "ratio")
    out.layer("engine.chunk_self_share",
              _per(sum(index.self_time(c) for c in chunk_spans), serving), "ratio")
    out.layer("engine.soft_responses", index.units("engine.soft_counts"), "count")
    out.layer("crp.parity_us_per_row", _per(parity * 1e6, rows), "us")
    out.layer("trace.requests", len(sweeps), "count")
    common_layers(out, tracer, index, start, stop, serving)
