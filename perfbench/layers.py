"""Turn workload runs into the reported metrics: untraced and traced.

The untraced runs give the end-to-end metrics.  The traced runs give the
per-layer metrics; each also repeats the measured work untraced and
reports both runs' end-to-end figures, the gap being the tracing
overhead.  Where the per-layer numbers come from:

* spans (:mod:`perfbench.tracing`): ``shard.route_us``,
  ``engine.observe_us`` (self time per call), ``cellindex.*``,
  ``opt.run_s``, ``guide.build_s``, ``graph.transportation_s``,
  ``parallel.cell_busy_s``, ``measurement.memory_pass_s`` and, for the
  sweep, the matcher profile counters after every session run;
* the gateway's ``/snapshot``, read after the last ack with telemetry
  sampling every event: stage latency histograms (ingest, dispatch,
  transport, match, ack), backpressure waits, ``MatcherProfile``
  counters, worker crashes and restarts;
* the launcher's 10 ms gauge sampling: queue and ring depth maxima;
* ``/proc``: busy fractions and the sweep pool's idle share;
* the benchmark itself: stream generation time, send lateness, and the
  serving ladder's sustained rate and latencies (``client.*``).

A layer the workload does not run reports 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from perfbench import serving, sweep, tracing
from perfbench.serving import ROOT, LadderResult, RungResult

END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "ok_frac": "ratio",
    "matched_pairs": "count",
    "peak_rss_mb": "MiB",
    "sweep_s": "s",
}

PER_LAYER = {
    "gateway.ingest_p50_ms": "ms",
    "gateway.ingest_p99_ms": "ms",
    "gateway.dispatch_p99_ms": "ms",
    "gateway.ack_p50_ms": "ms",
    "gateway.ack_p99_ms": "ms",
    "gateway.queue_depth_max": "count",
    "gateway.backpressure_waits": "count",
    "gateway.busy_frac": "ratio",
    "shard.route_us": "us",
    "engine.match_p50_ms": "ms",
    "engine.match_p99_ms": "ms",
    "engine.observe_us": "us",
    "engine.ring_expansions_per_event": "ratio",
    "engine.index_queries_per_event": "ratio",
    "engine.pool_scans_per_event": "ratio",
    "engine.assigned_per_index_query": "ratio",
    "engine.bipartite_edges_per_build": "ratio",
    "cellindex.within_calls": "count",
    "cellindex.within_s": "s",
    "cellindex.nearest_calls": "count",
    "cellindex.nearest_s": "s",
    "opt.run_s": "s",
    "guide.build_s": "s",
    "graph.transportation_s": "s",
    "workers.transport_p50_ms": "ms",
    "workers.transport_p99_ms": "ms",
    "workers.crashes": "count",
    "workers.restarts": "count",
    "workers.busy_frac": "ratio",
    "shmring.ok_frac": "ratio",
    "shmring.crashes": "count",
    "shmring.restarts": "count",
    "shmring.ring_request_depth_max": "count",
    "shmring.ring_reply_depth_max": "count",
    "shmring.leaked_segments": "count",
    "parallel.cell_busy_s": "s",
    "parallel.idle_frac": "ratio",
    "parallel.worker_rebuilds": "count",
    "measurement.memory_pass_s": "s",
    "streams.generate_s": "s",
    "client.latency_p50_ms.low": "ms",
    "client.latency_p99_ms.low": "ms",
    "client.latency_p50_ms.high": "ms",
    "client.latency_p99_ms.high": "ms",
    "client.send_lateness_p99_ms": "ms",
    "client.sustained_rate": "1/s",
    "trace.overhead_frac": "ratio",
}

UNITS = {**END_TO_END, **PER_LAYER}


@dataclass
class Report:
    """What one invocation prints: metrics, counts and detail."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)


def _launcher(spans: Path):
    spans.mkdir(parents=True, exist_ok=True)
    return [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(spans)]


# ---------------------------------------------------------------------- #
# Serving
# ---------------------------------------------------------------------- #


def serving_latencies(ladder: LadderResult) -> dict:
    """Decision latency at the ``LOW`` and ``HIGH`` rates (client view)."""
    low, high = ladder.rungs[serving.LOW], ladder.rungs[serving.HIGH]
    return {
        "client.latency_p50_ms.low": low.p(0.50),
        "client.latency_p99_ms.low": low.p(0.99),
        "client.latency_p50_ms.high": high.p(0.50),
        "client.latency_p99_ms.high": high.p(0.99),
    }


def serving_end_to_end(rungs: List[RungResult], flat_out: List[RungResult]) -> dict:
    runs = rungs + flat_out
    return {
        "setup_s": statistics.median(r.setup_s for r in runs),
        "throughput": statistics.median(r.throughput for r in flat_out),
        "ok_frac": sum(r.ok for r in runs) / sum(r.sent for r in runs),
        "matched_pairs": float(sum(r.pairs for r in runs)),
        "peak_rss_mb": max(r.peak_rss_mb for r in runs),
        # The time the program controls: set-up, and answering after the
        # last event was due.
        "sweep_s": sum(r.setup_s + r.tail_s for r in runs),
    }


def _rungs_detail(ladder: LadderResult) -> list:
    return [r.as_dict() for r in ladder.rungs.values()]


def untraced_serving(seed: int, directory: Path) -> Report:
    """The ``LOW`` and ``HIGH`` rungs, then the flat-out runs."""
    inputs = serving.prepare(seed, directory)
    ladder = serving.run_ladder(inputs, directory, rates=(serving.LOW, serving.HIGH))
    flat_out = serving.run_flat_out(inputs, directory)
    runs = [*ladder.rungs.values(), *flat_out]
    return Report(
        metrics=serving_end_to_end(list(ladder.rungs.values()), flat_out),
        attempted=sum(r.sent for r in runs),
        failed=sum(r.failed for r in runs),
        detail={
            "latency": serving_latencies(ladder),
            "rungs": [r.as_dict() for r in runs],
        },
    )


def _zero_layers() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def _per_call_us(aggregates, name: str) -> float:
    calls, _total, self_ns = aggregates.get(name, (0, 0, 0))
    return self_ns / calls / 1e3 if calls else 0.0


def _total_s(aggregates, name: str) -> float:
    return aggregates.get(name, (0, 0, 0))[1] / 1e9


def _gauges(spans: Path) -> dict:
    maxima: Dict[str, float] = {}
    for path in spans.glob("gauges-*.json"):
        with open(path) as fp:
            for key, value in json.load(fp).items():
                maxima[key] = max(maxima.get(key, 0), value)
    return maxima


def _stage(snapshot: dict, stage: str, key: str) -> float:
    return float(snapshot.get("stage_latency", {}).get(stage, {}).get(key, 0.0))


def _profile(snapshot: dict) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for row in snapshot.get("shards", ()):
        for key, value in (row.get("profile") or {}).items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _child_busy(rung: RungResult) -> float:
    return max((v for k, v in rung.busy.items() if k != "gateway"), default=0.0)


def traced_serving(seed: int, directory: Path) -> Report:
    """The whole ladder untraced, traced ``LOW`` and ``HIGH`` rungs, then
    one traced ``--transport shm`` rung at ``HIGH``."""
    inputs = serving.prepare(seed, directory)
    untraced = serving.run_ladder(inputs, directory)
    rates = (serving.LOW, serving.HIGH)
    spans = {rate: directory / f"spans-{rate:g}" for rate in rates}
    traced = serving.run_ladder(
        inputs, directory, rates=rates, sample_every=1,
        launcher_for=lambda rate: _launcher(spans[rate]),
    )
    high = traced.rungs[serving.HIGH]
    untraced_high = untraced.rungs[serving.HIGH]
    aggregates, _counters = tracing.load_aggregates(spans[serving.HIGH])
    gauges = _gauges(spans[serving.HIGH])
    snapshot = high.snapshot
    profile = _profile(snapshot)
    queries = profile.get("index_queries", 0)
    builds = profile.get("bipartite_builds", 0)
    layers = _zero_layers()
    layers.update({
        "gateway.ingest_p50_ms": _stage(snapshot, "ingest", "p50_ms"),
        "gateway.ingest_p99_ms": _stage(snapshot, "ingest", "p99_ms"),
        "gateway.dispatch_p99_ms": _stage(snapshot, "dispatch", "p99_ms"),
        "gateway.ack_p50_ms": _stage(snapshot, "ack", "p50_ms"),
        "gateway.ack_p99_ms": _stage(snapshot, "ack", "p99_ms"),
        "gateway.queue_depth_max": gauges.get("queue_depth_max", 0),
        "gateway.backpressure_waits": snapshot.get("backpressure_waits", 0),
        "gateway.busy_frac": high.busy.get("gateway", 0.0),
        "shard.route_us": _per_call_us(aggregates, "shard.route"),
        "engine.match_p50_ms": _stage(snapshot, "match", "p50_ms"),
        "engine.match_p99_ms": _stage(snapshot, "match", "p99_ms"),
        "engine.observe_us": _per_call_us(aggregates, "engine.observe"),
        "engine.ring_expansions_per_event": profile.get("ring_expansions", 0) / high.sent,
        "engine.index_queries_per_event": queries / high.sent,
        "engine.pool_scans_per_event": profile.get("pool_scans", 0) / high.sent,
        "engine.assigned_per_index_query": snapshot.get("matched", 0) / queries if queries else 0.0,
        "engine.bipartite_edges_per_build":
            profile.get("bipartite_edges", 0) / builds if builds else 0.0,
        "cellindex.within_calls": aggregates.get("cellindex.within", (0,))[0],
        "cellindex.within_s": _total_s(aggregates, "cellindex.within"),
        "cellindex.nearest_calls": aggregates.get("cellindex.nearest_feasible", (0,))[0],
        "cellindex.nearest_s": _total_s(aggregates, "cellindex.nearest_feasible"),
        "guide.build_s": _total_s(aggregates, "guide.build"),
        "graph.transportation_s": _total_s(aggregates, "graph.transportation"),
        "workers.transport_p50_ms": _stage(snapshot, "transport", "p50_ms"),
        "workers.transport_p99_ms": _stage(snapshot, "transport", "p99_ms"),
        "workers.crashes": snapshot.get("worker_crashes", 0),
        "workers.restarts": snapshot.get("worker_restarts", 0),
        "workers.busy_frac": _child_busy(high),
        "streams.generate_s": inputs.generate_s,
        **serving_latencies(untraced),
        "client.send_lateness_p99_ms": untraced_high.lateness_p99_ms,
        "client.sustained_rate": untraced.sustained_rate(),
        "trace.overhead_frac": high.cpu_s / untraced_high.cpu_s - 1.0,
    })
    detail = {
        "untraced": serving_latencies(untraced),
        "traced": serving_latencies(traced),
        "rungs": _rungs_detail(untraced) + _rungs_detail(traced),
        "span_aggregates": aggregates,
    }
    runs = [*untraced.rungs.values(), *traced.rungs.values()]
    layers.update(_shm_probe(inputs, directory, detail))
    return Report(metrics=layers, attempted=sum(r.sent for r in runs),
                  failed=sum(r.failed for r in runs), detail=detail)


def _shm_probe(inputs: serving.Inputs, directory: Path, detail: dict) -> Dict[str, float]:
    """One rung at ``HIGH`` over the shared-memory transport.

    Under the default checkpoint cadence the shm worker can crash or
    stall at a point that varies from run to run, which no end-to-end
    metric can carry steadily, so the transport is a layer probe here:
    its errors are reported as ``shmring.*``, not as the run's failures.
    It runs with telemetry off: a telemetry-sampled event does not fit a
    ring slot and would take the pipe instead.  The launcher's snapshot
    polling still gives the ring depth gauges.
    """
    spans = directory / "spans-shm"
    rung = serving.run_ladder(
        inputs, directory, rates=(serving.HIGH,), extra_args=("--transport", "shm"),
        launcher_for=lambda rate: _launcher(spans),
    ).rungs[serving.HIGH]
    gauges = _gauges(spans)
    detail["shm_probe"] = rung.as_dict()
    return {
        "shmring.ok_frac": rung.ok / rung.sent,
        "shmring.crashes": rung.worker_crashes,
        "shmring.restarts": rung.worker_restarts,
        "shmring.ring_request_depth_max": gauges.get("ring_request_depth_max", 0),
        "shmring.ring_reply_depth_max": gauges.get("ring_reply_depth_max", 0),
        "shmring.leaked_segments": len(rung.leaked_segments),
    }


# ---------------------------------------------------------------------- #
# The sweep
# ---------------------------------------------------------------------- #


def untraced_sweep(seed: int, directory: Path) -> Report:
    run = sweep.run_sweep_workload(seed, directory)
    return Report(
        metrics=run.end_to_end(),
        attempted=run.specs,
        failed=run.specs - run.cells,
        detail={
            "setup_samples_s": run.setup_samples,
            "latency": run.latencies(),
            "sizes": run.sweep.payload["sizes"],
            "notes": run.sweep.payload["notes"],
            "pool_cpu_s": run.sweep.sampler.cpu,
        },
    )


def traced_sweep(seed: int, directory: Path) -> Report:
    """The untraced sweep, then the traced one, then the reference."""
    untraced = sweep.run_sweep_workload(seed, directory)
    spans = directory / "spans"
    traced = sweep.launch_driver(
        ["--seed", str(seed), "--jobs", str(sweep.JOBS)],
        directory / "traced.json", directory / "sweep.log", _launcher(spans),
    )
    sweep.check(traced.payload, untraced.reference.payload)
    aggregates, counters = tracing.load_aggregates(spans)
    payload = traced.payload
    pool_cpu = sum(cpu for pid, cpu in traced.sampler.cpu.items()
                   if pid != traced.sampler.root)
    pool_wall = payload["finished"] - payload["submitted"]
    events = counters.get("profile.events", 0)
    queries = counters.get("profile.index_queries", 0)
    builds = counters.get("profile.bipartite_builds", 0)
    layers = _zero_layers()
    layers.update({
        "engine.observe_us": _per_call_us(aggregates, "engine.observe"),
        "engine.ring_expansions_per_event":
            counters.get("profile.ring_expansions", 0) / events if events else 0.0,
        "engine.index_queries_per_event": queries / events if events else 0.0,
        "engine.pool_scans_per_event":
            counters.get("profile.pool_scans", 0) / events if events else 0.0,
        "engine.assigned_per_index_query":
            counters.get("profile.matched", 0) / queries if queries else 0.0,
        "engine.bipartite_edges_per_build":
            counters.get("profile.bipartite_edges", 0) / builds if builds else 0.0,
        "cellindex.within_calls": aggregates.get("cellindex.within", (0,))[0],
        "cellindex.within_s": _total_s(aggregates, "cellindex.within"),
        "cellindex.nearest_calls": aggregates.get("cellindex.nearest_feasible", (0,))[0],
        "cellindex.nearest_s": _total_s(aggregates, "cellindex.nearest_feasible"),
        "opt.run_s": _total_s(aggregates, "opt.run"),
        "guide.build_s": _total_s(aggregates, "guide.build"),
        "graph.transportation_s": _total_s(aggregates, "graph.transportation"),
        "parallel.cell_busy_s": _total_s(aggregates, "parallel.cell"),
        "parallel.idle_frac": 1.0 - pool_cpu / (pool_wall * sweep.JOBS),
        "parallel.worker_rebuilds": float(payload["notes"].get("worker_rebuilds", 0)),
        "measurement.memory_pass_s": counters.get("measurement.memory_pass_ns", 0) / 1e9,
        "streams.generate_s": _total_s(aggregates, "streams.generate"),
        "trace.overhead_frac": traced.wall_s / untraced.sweep.wall_s - 1.0,
        **untraced.latencies(),
    })
    detail = {
        "untraced_sweep_s": untraced.sweep.wall_s,
        "traced_sweep_s": traced.wall_s,
        "span_aggregates": aggregates,
        "counters": counters,
    }
    failed = (untraced.specs - untraced.cells
              + payload["specs"] - sweep.returned_cells(payload))
    return Report(metrics=layers, attempted=untraced.specs + payload["specs"],
                  failed=failed, detail=detail)
