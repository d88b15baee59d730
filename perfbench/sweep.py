"""The ``sweep-fig4`` workload: the paper's offline batch, end to end.

One run starts :mod:`perfbench.sweep_driver` as its own process four
times:

1. twice with ``--setup-only`` — set-up samples (process start until the
   first cell would be submitted);
2. the measured sweep, ``jobs=2`` with the memory pass, as ``repro run
   fig4_workers --scale 0.02 --jobs 2`` runs it (a third set-up sample);
3. the reference, ``jobs=1`` without the memory pass.  The memory pass
   repeats each cell under tracemalloc and discards its value, so it
   cannot change a size.

The sweep's sizes must equal the reference's cell for cell, and no
stream algorithm may beat OPT at its point; otherwise :class:`Mismatch`.
While each process runs, its process tree is polled in ``/proc`` for
peak RSS and CPU time.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from perfbench import procfs
from perfbench.serving import Mismatch, ROOT, percentile, program_env

__all__ = ["SweepRun", "run_sweep_workload", "launch_driver", "returned_cells"]

JOBS = 2
SETUP_SAMPLES = 3
STREAM_ALGORITHMS = ("SimpleGreedy", "GR", "POLAR", "POLAR-OP")
DRIVER_TIMEOUT_S = 150.0
_POLL_S = 0.1


@dataclass
class DriverRun:
    """One sweep-driver process: its output and what ``/proc`` saw."""

    payload: dict
    popen_at: float
    exit_at: float
    sampler: procfs.Sampler

    @property
    def setup_s(self) -> float:
        return self.payload["submitted"] - self.popen_at

    @property
    def wall_s(self) -> float:
        return self.exit_at - self.popen_at


def launch_driver(args: Sequence[str], out: Path, log: Path,
                  launcher: Optional[Sequence[str]] = None) -> DriverRun:
    """Run the sweep driver to completion, polling its process tree."""
    prefix = (
        [sys.executable, str(ROOT / "perfbench" / "sweep_driver.py")]
        if launcher is None
        else [*launcher, "sweep"]
    )
    with open(log, "ab") as log_fp:
        popen_at = time.monotonic()
        proc = subprocess.Popen(
            [*prefix, *args, "--out", str(out)],
            stdout=log_fp, stderr=log_fp, env=program_env(), cwd=ROOT,
            start_new_session=True,
        )
        sampler = procfs.Sampler(proc.pid)
        try:
            while proc.poll() is None:
                sampler.poll()
                if time.monotonic() - popen_at > DRIVER_TIMEOUT_S:
                    raise RuntimeError(f"sweep driver ran past {DRIVER_TIMEOUT_S:g}s")
                time.sleep(_POLL_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        exit_at = time.monotonic()
        # Pool workers share the driver's session; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        procfs.await_group_exit(proc.pid, 5.0)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep driver exited {proc.returncode}; see {log}")
    with open(out) as fp:
        payload = json.load(fp)
    return DriverRun(payload=payload, popen_at=popen_at, exit_at=exit_at, sampler=sampler)


@dataclass
class SweepRun:
    """The checked figures of one ``sweep-fig4`` run."""

    setup_samples: List[float]
    sweep: DriverRun
    reference: DriverRun

    @property
    def specs(self) -> int:
        """Cells the sweep was asked for."""
        return self.sweep.payload["specs"]

    @property
    def cells(self) -> int:
        """Cells the sweep returned a matching size for."""
        return returned_cells(self.sweep.payload)

    @property
    def matched_pairs(self) -> int:
        return sum(sum(sizes) for sizes in self.sweep.payload["sizes"].values())

    def latencies(self) -> dict:
        """Point latencies of the ``jobs=1`` reference (low) and the
        ``jobs=2`` sweep (high)."""
        low = point_latencies_ms(self.reference.payload)
        high = point_latencies_ms(self.sweep.payload)
        return {
            "client.latency_p50_ms.low": percentile(low, 0.50),
            "client.latency_p99_ms.low": percentile(low, 0.99),
            "client.latency_p50_ms.high": percentile(high, 0.50),
            "client.latency_p99_ms.high": percentile(high, 0.99),
        }

    def end_to_end(self) -> dict:
        return {
            "setup_s": statistics.median(self.setup_samples),
            "throughput": self.cells / self.sweep.wall_s,
            "ok_frac": self.cells / self.specs,
            "matched_pairs": float(self.matched_pairs),
            "peak_rss_mb": self.sweep.sampler.total_rss_mb(),
            "sweep_s": self.sweep.wall_s,
        }


def returned_cells(payload: dict) -> int:
    """Cells of a driver run that returned a matching size."""
    return sum(
        isinstance(size, int) and size >= 0
        for sizes in payload["sizes"].values()
        for size in sizes
    )


def point_latencies_ms(payload: dict) -> List[float]:
    """Per sweep point: from the sweep's first cell submission until the
    point's last cell ended — when that point of the figure is ready."""
    return [1000.0 * (done - payload["submitted"]) for done in payload["point_done"]]


def check(sweep: dict, reference: dict) -> None:
    """Sizes equal the ``jobs=1`` reference; no stream algorithm beats OPT."""
    if sweep["sizes"] != reference["sizes"]:
        raise Mismatch(
            f"sweep-fig4: jobs={JOBS} sizes {sweep['sizes']} differ from "
            f"jobs=1 sizes {reference['sizes']}"
        )
    opt = sweep["sizes"]["OPT"]
    for name in STREAM_ALGORITHMS:
        for x, size, bound in zip(sweep["x_values"], sweep["sizes"][name], opt):
            if size > bound:
                raise Mismatch(f"sweep-fig4: {name} matched {size} > OPT {bound} at |W|={x:g}")


def run_sweep_workload(seed: int, directory: Path) -> SweepRun:
    """Set-up samples, the measured sweep and the reference, checked.

    The sweep is one fixed unit of work, so it runs once whatever
    ``--seconds`` says.
    """
    common = ["--seed", str(seed)]
    log = directory / "sweep.log"
    setups = [
        launch_driver([*common, "--jobs", str(JOBS), "--setup-only"],
                      directory / f"setup-{i}.json", log).setup_s
        for i in range(SETUP_SAMPLES - 1)
    ]
    sweep = launch_driver([*common, "--jobs", str(JOBS)], directory / "sweep.json", log)
    setups.append(sweep.setup_s)
    reference = launch_driver([*common, "--jobs", "1", "--no-memory"],
                              directory / "reference.json", log)
    check(sweep.payload, reference.payload)
    return SweepRun(setup_samples=setups, sweep=sweep, reference=reference)
