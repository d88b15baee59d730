"""The repository benchmark: one command, every workload, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (it builds nothing: the program is the
``src/repro`` package next to this directory).  Workloads:

* ``serve-greedy-churn-workers`` — ``repro serve --algorithm
  greedy-indexed --workers 1`` (default pipe transport, default
  checkpoints) on a synthetic stream of 20k workers + 20k tasks with 10%
  departures and 5% moves.
* ``sweep-fig4`` — Figure 4's |W| sweep at scale 0.02 through
  ``SweepExecutor`` with ``jobs=2`` and the memory pass.

Both workloads are fixed units of work: ``--seconds`` is accepted and
not used.  An untraced serving run sends the stream's first 6000 events
at 1000/s and at 2000/s (the ``LOW`` and ``HIGH`` rungs), then five
flat-out runs of its first 12000 events, each on a fresh gateway (see
:mod:`perfbench.serving`).  The sweep runs once.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(telemetry off); every workload reports every metric:

===================== ===================================================
metric                serving workload / ``sweep-fig4``
===================== ===================================================
setup_s               median over the run's gateway starts of process
                      start -> listening (stream load) / median of
                      three sweep-driver starts, process start -> first
                      cell submitted
throughput            median over the flat-out runs of events acked
                      without error per second, from the first event's
                      due time to the last ack / cells per second of the
                      sweep (the same figure as ``sweep_s``)
ok_frac               events acked without error by the deadline over
                      events sent / cells that returned a size over
                      cells asked for
matched_pairs         distinct (worker, task) pairs in the acks, summed
                      over gateways / sum of all cells' matching sizes
peak_rss_mb           peak RSS of the gateway and its workers (largest
                      gateway) / of the sweep parent plus its pool
sweep_s               time the program controls: every gateway's set-up
                      plus its ack tail after the last due time / wall
                      time of the sweep
===================== ===================================================

The sustained rate — the highest rate of the ladder 800..5000/s (25%
steps) whose rung of 6000 events keeps p99 <= 100 ms over all its
events, fails nothing and has no growing backlog — and decision latency
at ``LOW`` and ``HIGH`` — from each event's scheduled send time to its
ack, failed or unanswered events counting as their wait until the
deadline — are the traced run's ``client.*`` metrics.  They are not
end-to-end metrics: the shard worker's state checkpoint stalls the
matcher for 110-200 ms, about the latency limit itself, so the p99 of a
rung swings across the limit between runs and seeds (the sustained rate
read 1250, 1250, 0, 1000 and 800 on seeds 1, 2, 11, 12 and 13).  For
``sweep-fig4`` the latency metrics are the time from the first cell
submitted until each sweep point's last cell ended, over the 5 points
(p99 is the last), for the ``jobs=1`` reference (low) and the
``jobs=2`` sweep (high).

With ``--trace 1`` the run is traced instead and reports the per-layer
metrics listed in ``BENCHMARK.json`` (see :mod:`perfbench.layers`); a
layer a workload does not run reports 0.  Detail — every rung,
per-process busy fractions, worker health, ``nproc``, the traced run's
own figures beside the untraced ones — goes to the line before the
result.

Every invocation checks its outputs (see :mod:`perfbench.serving` and
:mod:`perfbench.sweep`); on a mismatch it prints the mismatch to stderr
and exits 1 without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_PROGRAM = ROOT / "src" / "repro"


def _parse(argv):
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (_PROGRAM / "__init__.py").is_file():
        print(f"error: the program is missing ({_PROGRAM} not found)", file=sys.stderr)
        return 2
    if not Path("/proc/self/status").exists():
        print("error: the benchmark reads /proc and needs Linux", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers, serving, sweep

    workloads = [serving.WORKLOAD, "sweep-fig4"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r} (one of {workloads})",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        if args.workload == "sweep-fig4":
            run = layers.traced_sweep if args.trace else layers.untraced_sweep
        else:
            run = layers.traced_serving if args.trace else layers.untraced_serving
        report = run(args.seed, directory)
    except serving.Mismatch as exc:
        print(f"MISMATCH: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    detail = dict(report.detail, nproc=os.cpu_count(), workload=args.workload,
                  seed=args.seed)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": True,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": layers.UNITS[name]}
            for name, value in report.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
