"""The serving workload: ``repro serve`` under an open-loop rate ladder.

:func:`prepare` generates a synthetic stream from the seed, writes it as
JSONL (the file ``repro serve`` loads at start-up), and computes the
offline reference: one :class:`~repro.serving.session.MatchingSession`
over the same events, recording every decision and the drained outcome.

Then the ladder runs one *rung* per rate.  A rung starts a fresh gateway
process exactly as a user would (``python -m repro serve ...``,
telemetry off), times its set-up (process start until the listening
banner), and sends the stream's first :data:`RUNG_EVENTS` events over
one connection on a fixed schedule at the rung's rate
(:mod:`perfbench.openloop`).  Once the acks are in it reads the
gateway's ``/snapshot`` and ``/proc`` figures, drains with
``{"kind": "drain"}`` and waits for the process to exit (SIGTERM, then
SIGKILL, on timeout).  A *flat-out* run is a rung whose rate is far
above the gateway's capacity: it sends the first
:data:`FLAT_OUT_EVENTS` events at once and measures how fast they are
answered.

A rung passes its service level when nothing failed, the p99 of its
latencies over all its events is within :data:`P99_LIMIT_MS` and its
backlog does not grow.  The shard worker's state checkpoints (every 512
events by default) stall the matcher; those stalls are in the events
and in the p99 like any other delay.

Every ack is checked against the offline decision for the same event,
and a rung that failed nothing must drain to the offline outcome: the
single-shard gateway is bit-identical to the offline session.  A
mismatch raises :class:`Mismatch`.  Error acks, acks missing at the
deadline and shared-memory segments left in ``/dev/shm`` are failures,
not mismatches: they are counted, and the rung does not pass.
"""

from __future__ import annotations

import copy
import gc
import http.client
import json
import math
import os
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import procfs
from perfbench.openloop import RungTrace, run_open_loop

__all__ = [
    "Mismatch",
    "WORKLOAD",
    "LADDER",
    "LOW",
    "HIGH",
    "Inputs",
    "RungResult",
    "LadderResult",
    "prepare",
    "run_rung",
    "run_ladder",
    "run_flat_out",
    "percentile",
    "program_env",
]

ROOT = Path(__file__).resolve().parent.parent

WORKLOAD = "serve-greedy-churn-workers"
ALGORITHM = "greedy-indexed"
SERVE_ARGS = ("--workers", "1")
N_WORKERS = 20_000
N_TASKS = 20_000
DEPARTURE_RATE = 0.1
MOVE_RATE = 0.05
# Events a rung sends: the same prefix of the stream at every rate.  It
# spans eleven checkpoints of the shard worker, the stall at event 4096
# among them.
RUNG_EVENTS = 6000
# The rates (events per second), 25% apart from well below the gateway's
# capacity (~2.8k/s flat out on a 2-vCPU VM) to well above it.
LADDER = (800.0, 1000.0, 1250.0, 1600.0, 2000.0, 2500.0, 3200.0, 4000.0, 5000.0)
# The two rungs every run sends besides the flat-out runs; the traced
# run reports their latencies.
LOW = 1000.0
HIGH = 2000.0
# Flat-out runs: twice a rung's events, so 23 checkpoints of a growing
# state are in each, and five of them for a median.
FLAT_OUT_EVENTS = 12_000
FLAT_OUT_RATE = 50_000.0
FLAT_OUT_REPEATS = 5
FLAT_OUT_GRACE_S = 30.0
P99_LIMIT_MS = 100.0
# A rung's deadline: acks still missing this long after the last due
# time count as failed (and their latency as the wait until then).
GRACE_S = 5.0
DRAIN_TIMEOUT_S = 10.0
BANNER_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 10.0
# "The backlog does not grow": a least-squares fit of the backlog over
# the send window may add at most this much queueing delay.
BACKLOG_GROWTH_LIMIT_MS = 25.0

_BANNER = re.compile(rb"on 127\.0\.0\.1:(\d+); metrics on http://127\.0\.0\.1:(\d+)/")


class Mismatch(Exception):
    """An output differs from the offline reference."""


# ---------------------------------------------------------------------- #
# Inputs and the offline reference
# ---------------------------------------------------------------------- #


@dataclass
class Inputs:
    """The workload's generated stream and its offline reference.

    Attributes:
        path: the JSONL stream ``repro serve`` loads.
        lines: the event lines a run may send (newline included).
        expected: per line, the ack fields the gateway must send —
            ``(kind, id, decision, partner)``.
        outcomes: per number of events a run sends, (pairs, size) of the
            offline session drained after them.
        generate_s: seconds the stream generator took.
    """

    path: Path
    lines: List[bytes]
    expected: List[tuple]
    outcomes: Dict[int, Tuple[frozenset, int]]
    generate_s: float


def _ack_fields(event, decision) -> tuple:
    from repro.model.events import ARRIVAL

    if event.event_kind is ARRIVAL:
        key = (event.kind, event.entity.id)
    else:
        key = (event.event_kind, event.object_id)
    return key + (decision.action, decision.partner_id)


def prepare(seed: int, directory: Path) -> Inputs:
    """Generate the workload's stream from ``seed`` and the reference
    for the events a rung or a flat-out run sends."""
    from repro.core.engine import GreedyMatcher
    from repro.serving.replay import dump_stream, load_stream, stream_config
    from repro.serving.session import MatchingSession
    from repro.spatial.geometry import BoundingBox
    from repro.spatial.grid import Grid
    from repro.spatial.travel import TravelModel
    from repro.streams.churn import ChurnConfig
    from repro.streams.synthetic import SyntheticConfig, SyntheticGenerator

    started = time.perf_counter()
    instance = SyntheticGenerator(
        SyntheticConfig(n_workers=N_WORKERS, n_tasks=N_TASKS, seed=seed)
    ).generate()
    generate_s = time.perf_counter() - started
    events = instance.churn_stream(ChurnConfig(DEPARTURE_RATE, MOVE_RATE, seed=seed))
    path = directory / f"{WORKLOAD}-{seed}.jsonl"
    header = stream_config(instance.grid, instance.timeline, instance.travel)
    with open(path, "w") as fp:
        dump_stream(events, fp, config=header)
    with open(path, "rb") as fp:
        lines = [line for line in fp if not line.startswith(b'{"kind": "config"')]
    with open(path) as fp:
        config, events = load_stream(fp)

    if FLAT_OUT_EVENTS > len(events):
        raise ValueError(
            f"a flat-out run needs {FLAT_OUT_EVENTS} events; the stream has {len(events)}"
        )
    # The matcher ``repro serve --algorithm greedy-indexed`` builds from
    # the stream's config header.
    grid = Grid(BoundingBox(*config["bounds"]), int(config["nx"]), int(config["ny"]))
    matcher = GreedyMatcher(
        TravelModel(velocity=float(config["velocity"])), grid=grid, indexed=True
    )
    session = MatchingSession(matcher)
    session.begin()
    expected = []
    outcomes = {}
    for n in (RUNG_EVENTS, FLAT_OUT_EVENTS):
        expected += [_ack_fields(event, session.push(event))
                     for event in events[len(expected):n]]
        # Drain a copy: the stream goes on past a rung's events.
        outcome = copy.deepcopy(session).finish()
        outcomes[n] = (frozenset(outcome.matching), outcome.size)
    return Inputs(path=path, lines=lines[:FLAT_OUT_EVENTS], expected=expected,
                  outcomes=outcomes, generate_s=generate_s)


# ---------------------------------------------------------------------- #
# The gateway process
# ---------------------------------------------------------------------- #


def program_env() -> dict:
    """This environment with the program's ``src`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class GatewayProcess:
    """One ``repro serve`` process, from start to reaped exit.

    Args:
        argv: the command line (``python -m repro serve ...`` or the
            traced launcher).
        log_path: where the process's stderr goes.

    Raises:
        RuntimeError: when no listening banner appears in time.
    """

    def __init__(self, argv: Sequence[str], log_path: Path) -> None:
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv),
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=program_env(),
            cwd=ROOT,
            start_new_session=True,
        )
        try:
            self.port, self.metrics_port = self._await_banner()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _await_banner(self) -> Tuple[int, int]:
        deadline = time.perf_counter() + BANNER_TIMEOUT_S
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        buffer = b""
        try:
            while time.perf_counter() < deadline:
                if not selector.select(timeout=0.5):
                    continue
                chunk = os.read(self.proc.stdout.fileno(), 65536)
                if not chunk:
                    break
                buffer += chunk
                found = _BANNER.search(buffer)
                if found:
                    return int(found.group(1)), int(found.group(2))
        finally:
            selector.close()
        raise RuntimeError(
            f"gateway printed no listening banner within {BANNER_TIMEOUT_S:g}s "
            f"(exit code {self.proc.poll()}): {buffer[-400:]!r}"
        )

    def snapshot(self) -> dict:
        """The live ``/snapshot`` document."""
        connection = http.client.HTTPConnection("127.0.0.1", self.metrics_port, timeout=10)
        try:
            connection.request("GET", "/snapshot")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> Optional[int]:
        """Wait for a drained exit; SIGTERM, then SIGKILL, on timeout."""
        try:
            for signum, wait_s in ((None, EXIT_TIMEOUT_S), (signal.SIGTERM, 5.0),
                                   (signal.SIGKILL, 5.0)):
                if signum is not None:
                    try:
                        os.killpg(self.proc.pid, signum)
                    except ProcessLookupError:
                        pass
                try:
                    self.proc.communicate(timeout=wait_s)
                    return self.proc.returncode
                except subprocess.TimeoutExpired:
                    continue
            return None
        finally:
            self._log.close()
            # Workers are in the gateway's session; none may outlive it.
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            procfs.await_group_exit(self.proc.pid, 5.0)


# ---------------------------------------------------------------------- #
# One rung
# ---------------------------------------------------------------------- #


@dataclass
class RungResult:
    """One rung — one gateway at one rate — checked against the reference.

    ``latency_ms`` holds every event's latency, a failed or unanswered
    event at its wait until the deadline.  ``span_s`` runs from the
    first due time, ``tail_s`` from the last, to the last ack (to the
    deadline when an ack is missing).
    """

    rate: float
    sent: int
    ok: int
    errors: int
    unanswered: int
    leaked_segments: List[str]
    latency_ms: List[float]
    lateness_p99_ms: float
    backlog_growth_ms: float
    span_s: float
    tail_s: float
    pairs: int
    setup_s: float
    peak_rss_mb: float
    busy: Dict[str, float]
    cpu_s: float
    health: List[dict]
    worker_restarts: int
    worker_crashes: int
    exit_code: Optional[int]
    snapshot: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.errors + self.unanswered + len(self.leaked_segments)

    def p(self, q: float) -> float:
        """A latency percentile over all the rung's events."""
        return percentile(self.latency_ms, q)

    @property
    def throughput(self) -> float:
        """Events answered without error per second of the span."""
        return self.ok / self.span_s

    @property
    def passes(self) -> bool:
        """The service level: nothing failed, p99 within the limit, and
        the backlog did not grow."""
        return (
            self.failed == 0
            and self.p(0.99) <= P99_LIMIT_MS
            and self.backlog_growth_ms <= BACKLOG_GROWTH_LIMIT_MS
        )

    def as_dict(self) -> dict:
        return {
            "rate": self.rate,
            "sent": self.sent,
            "ok": self.ok,
            "errors": self.errors,
            "unanswered": self.unanswered,
            "leaked_segments": self.leaked_segments,
            "passes": self.passes,
            "latency_p50_ms": round(self.p(0.50), 3),
            "latency_p99_ms": round(self.p(0.99), 3),
            "latency_max_ms": round(max(self.latency_ms), 3),
            "lateness_p99_ms": round(self.lateness_p99_ms, 3),
            "backlog_growth_ms": round(self.backlog_growth_ms, 3),
            "tail_s": round(self.tail_s, 4),
            "throughput": round(self.throughput, 1),
            "pairs": self.pairs,
            "setup_s": round(self.setup_s, 4),
            "peak_rss_mb": round(self.peak_rss_mb, 1),
            "busy_frac": {key: round(value, 3) for key, value in self.busy.items()},
            "health": self.health,
            "worker_restarts": self.worker_restarts,
            "worker_crashes": self.worker_crashes,
            "exit_code": self.exit_code,
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def _backlog_growth_ms(trace: RungTrace) -> float:
    """Queueing delay the backlog's least-squares trend adds over the
    send window, in ms (0 when it does not grow)."""
    samples = trace.backlog
    if len(samples) < 3:
        return 0.0
    times = [t for t, _ in samples]
    depths = [d for _, d in samples]
    slope = statistics.linear_regression(times, depths).slope
    return max(0.0, slope * (times[-1] - times[0]) / trace.rate * 1000.0)


def serve_argv(path: Path, sample_every: int, extra_args: Sequence[str] = (),
               launcher: Optional[Sequence[str]] = None) -> List[str]:
    """The ``repro serve`` command line of one rung."""
    args = [
        "serve", str(path),
        "--algorithm", ALGORITHM,
        "--port", "0",
        "--metrics-port", "0",
        "--sample-every", str(sample_every),
        "--log-level", "warning",
        *SERVE_ARGS,
        *extra_args,
    ]
    if launcher is None:
        return [sys.executable, "-m", "repro", *args]
    return [*launcher, *args]


def run_rung(
    inputs: Inputs,
    rate: float,
    log_path: Path,
    n_events: int = RUNG_EVENTS,
    grace_s: float = GRACE_S,
    sample_every: int = 0,
    extra_args: Sequence[str] = (),
    launcher: Optional[Sequence[str]] = None,
) -> RungResult:
    """Start a gateway, send the first ``n_events`` events at ``rate``,
    check, stop it."""
    segments_before = procfs.shm_segments()
    gateway = GatewayProcess(
        serve_argv(inputs.path, sample_every, extra_args, launcher), log_path
    )
    exit_code = None
    try:
        sampler = procfs.Sampler(gateway.pid)
        sampler.poll()
        cpu_start = dict(sampler.cpu)
        clock_start = time.perf_counter()
        seen: dict = {}

        def before_drain() -> None:
            sampler.poll()
            seen["wall"] = time.perf_counter() - clock_start
            seen["snapshot"] = gateway.snapshot()

        # The client's own collector pauses would make it send late.
        gc.collect()
        gc.disable()
        try:
            trace = run_open_loop(
                "127.0.0.1", gateway.port, inputs.lines[:n_events], rate,
                grace_s, DRAIN_TIMEOUT_S, before_drain=before_drain,
            )
        finally:
            gc.enable()
    finally:
        exit_code = gateway.stop()
    leaked = sorted(procfs.shm_segments() - segments_before)
    snapshot = seen.get("snapshot", {})
    cpu_s = {}
    for pid, cpu in sampler.cpu.items():
        role = "gateway" if pid == gateway.pid else f"child.{pid}"
        cpu_s[role] = cpu - cpu_start.get(pid, 0.0)
    wall = max(seen.get("wall", 1.0), 1e-9)
    result = RungResult(
        rate=rate,
        sent=n_events,
        ok=0,
        errors=0,
        unanswered=0,
        leaked_segments=leaked,
        latency_ms=[],
        lateness_p99_ms=percentile(trace.lateness, 0.99) * 1000.0,
        backlog_growth_ms=_backlog_growth_ms(trace),
        span_s=0.0,
        tail_s=0.0,
        pairs=0,
        setup_s=gateway.setup_s,
        peak_rss_mb=sampler.total_rss_mb(),
        busy={role: cpu / wall for role, cpu in cpu_s.items()},
        cpu_s=sum(cpu_s.values()),
        health=[
            {"shard": row.get("shard"), "health": row.get("health")}
            for row in snapshot.get("shards", ())
        ],
        worker_restarts=int(snapshot.get("worker_restarts", 0)),
        worker_crashes=int(snapshot.get("worker_crashes", 0)),
        exit_code=exit_code,
        snapshot=snapshot,
    )
    _check(inputs, trace, result)
    return result


def _check(inputs: Inputs, trace: RungTrace, result: RungResult) -> None:
    """Compare every reply with the reference; fill the rung's figures.

    Replies pair with events by position; events without an ack by the
    deadline (late acks included) are unanswered, and count at their
    wait until the deadline in the latencies.
    """
    where = f"{WORKLOAD} @ {result.rate:g}/s"
    replies = trace.acks + trace.late_acks
    n = result.sent
    if len(replies) > n:
        raise Mismatch(f"{where}: {len(replies)} replies to {n} events")
    pairs = set()
    is_error = []
    for k, line in enumerate(replies):
        record = json.loads(line)
        is_error.append("error" in record)
        if is_error[-1]:
            continue
        kind, ident, decision, partner = inputs.expected[k]
        got = (record.get("kind"), record.get("id"), record.get("decision"),
               record.get("partner"))
        if got != (kind, ident, decision, partner):
            raise Mismatch(
                f"{where}: event {k} acked {got}, offline session decided "
                f"{(kind, ident, decision, partner)}"
            )
        if decision == "assigned" and kind in ("worker", "task"):
            pairs.add((ident, partner) if kind == "worker" else (partner, ident))
    result.pairs = len(pairs)
    for i, due in enumerate(trace.due):
        if i < len(trace.acks) and not is_error[i]:
            result.ok += 1
            result.latency_ms.append((trace.ack_times[i] - due) * 1000.0)
        else:
            result.latency_ms.append((trace.deadline - due) * 1000.0)
    end = trace.ack_times[-1] if len(trace.acks) == n else trace.deadline
    result.span_s = end - trace.due[0]
    result.tail_s = end - trace.due[-1]
    result.errors = sum(is_error)
    result.unanswered = n - result.ok - result.errors
    if trace.drained is None:
        # No drain reply: the run did not end cleanly.
        result.unanswered += 1
        return
    if result.failed:
        return
    ref_pairs, ref_size = inputs.outcomes[n]
    if not pairs <= ref_pairs or trace.drained.get("matched") != ref_size:
        raise Mismatch(
            f"{where}: drained {trace.drained.get('matched')} pairs "
            f"({len(pairs - ref_pairs)} not in the offline outcome), offline "
            f"session drained {ref_size}"
        )


# ---------------------------------------------------------------------- #
# The ladder
# ---------------------------------------------------------------------- #


@dataclass
class LadderResult:
    """One rung per ladder rate."""

    rungs: Dict[float, RungResult]

    def sustained_rate(self) -> float:
        """The highest rate whose rung passes (0 when none does)."""
        return max((rate for rate, rung in self.rungs.items() if rung.passes),
                   default=0.0)


def run_ladder(
    inputs: Inputs,
    directory: Path,
    rates: Sequence[float] = LADDER,
    sample_every: int = 0,
    extra_args: Sequence[str] = (),
    launcher_for=None,
) -> LadderResult:
    """One rung per rate, in the order given; ``extra_args`` are further
    ``repro serve`` flags; ``launcher_for(rate)`` may return a launcher
    command prefix (the traced run), None runs the plain CLI."""
    rungs = {}
    for rate in rates:
        launcher = None if launcher_for is None else launcher_for(rate)
        rungs[rate] = run_rung(
            inputs, rate, directory / f"{WORKLOAD}-{rate:g}.log",
            sample_every=sample_every, extra_args=extra_args, launcher=launcher,
        )
    return LadderResult(rungs=rungs)


def run_flat_out(inputs: Inputs, directory: Path) -> List[RungResult]:
    """:data:`FLAT_OUT_REPEATS` flat-out runs, each on a fresh gateway."""
    return [
        run_rung(inputs, FLAT_OUT_RATE, directory / f"{WORKLOAD}-flat-out.log",
                 n_events=FLAT_OUT_EVENTS, grace_s=FLAT_OUT_GRACE_S)
        for _ in range(FLAT_OUT_REPEATS)
    ]
