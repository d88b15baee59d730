"""Traced launcher: run ``repro serve`` or the sweep driver with spans on.

    python3 perfbench/launch.py SPAN_DIR serve STREAM.jsonl [serve flags...]
    python3 perfbench/launch.py SPAN_DIR sweep [sweep_driver flags...]

It installs :mod:`perfbench.tracing`'s wrappers before anything builds
the program's objects, then hands over to the same entry point a user
runs (``repro.cli.main`` or :mod:`perfbench.sweep_driver`), so the
traced process builds the same ``Gateway`` or ``SweepExecutor`` as the
untraced one.  For a gateway it also samples the live snapshot every
10 ms for the gauges no histogram keeps (ingest-queue depth, shm ring
depths) and writes their maxima to ``SPAN_DIR/gauges-<pid>.json``.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing  # noqa: E402

_SAMPLE_PERIOD = 0.010


def _sample_gauges(directory: Path) -> None:
    """Track the gateway's queue and ring depth maxima while it serves."""
    from repro.serving import gateway as gateway_module

    gauges = {"queue_depth_max": 0, "ring_request_depth_max": 0, "ring_reply_depth_max": 0}
    tasks = []
    start = gateway_module.Gateway.start

    async def sample(gateway) -> None:
        while gateway.state == "serving":
            snapshot = gateway.snapshot()
            gauges["queue_depth_max"] = max(gauges["queue_depth_max"], snapshot.queue_depth)
            for row in snapshot.shards:
                for key in ("ring_request_depth", "ring_reply_depth"):
                    gauges[f"{key}_max"] = max(gauges[f"{key}_max"], row.get(key, 0))
            await asyncio.sleep(_SAMPLE_PERIOD)

    @functools.wraps(start)
    async def traced_start(self, *args, **kwargs):
        result = await start(self, *args, **kwargs)
        tasks.append(asyncio.get_running_loop().create_task(sample(self)))
        return result

    gateway_module.Gateway.start = traced_start

    def write() -> None:
        with open(directory / f"gauges-{os.getpid()}.json", "w") as fp:
            json.dump(gauges, fp)

    return write


def main(argv) -> int:
    directory = Path(argv[0])
    command, rest = argv[1], argv[2:]
    tracing.install(directory)
    if command == "serve":
        from repro.cli import main as cli_main

        write_gauges = _sample_gauges(directory)
        try:
            return cli_main(["serve", *rest])
        finally:
            write_gauges()
            tracing.dump(directory)
    if command == "sweep":
        from perfbench import sweep_driver

        try:
            return sweep_driver.main(rest)
        finally:
            tracing.dump(directory)
    print(f"unknown command {command!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
