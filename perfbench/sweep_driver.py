"""The sweep under test: Figure 4's |W| sweep through ``SweepExecutor``.

    python3 perfbench/sweep_driver.py --seed N --jobs J --out RESULT.json
                                      [--no-memory] [--setup-only]

The same five points and five algorithms as
:func:`repro.experiments.figures.run_fig4_workers` at ``scale=0.02``,
with the benchmark's seed in every point's generator config.  The
tracemalloc memory pass runs as ``repro run`` runs it unless
``--no-memory`` is given.

The driver notes (``time.monotonic``, comparable across processes) the
moment the first cell is submitted — the pool's first ``map`` with
``--jobs`` above 1, the first cell call otherwise — and the moment each
cell ends, in whichever process ran it.  ``--setup-only`` stops at the
submission: it does the set-up of a pooled sweep (imports, building
every point in the parent) and exits before forking.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

SCALE = 0.02
WORKER_COUNTS = (5_000, 10_000, 20_000, 30_000, 40_000)
TASK_COUNT = 20_000


class _SetupDone(Exception):
    """Raised at the first cell submission of a ``--setup-only`` run."""


def sweep_points(seed: int):
    """Figure 4(a)'s points at :data:`SCALE`, seeded."""
    from repro.experiments.parallel import SyntheticPoint
    from repro.streams.synthetic import SyntheticConfig

    def scaled(count: int) -> int:
        return max(1, int(round(count * SCALE)))

    return [
        SyntheticPoint(
            float(n),
            SyntheticConfig().scaled(
                n_workers=scaled(n), n_tasks=scaled(TASK_COUNT), seed=seed
            ),
        )
        for n in WORKER_COUNTS
    ]


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--no-memory", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.experiments import parallel
    from repro.experiments.runner import DEFAULT_ALGORITHMS

    marks = {}

    def mark_submitted() -> None:
        marks.setdefault("submitted", time.monotonic())
        if args.setup_only:
            raise _SetupDone

    class MarkedPool(ProcessPoolExecutor):
        def map(self, *map_args, **map_kwargs):
            mark_submitted()
            return super().map(*map_args, **map_kwargs)

    parallel.ProcessPoolExecutor = MarkedPool
    execute_cell = parallel._execute_cell
    # Pool workers append here; short O_APPEND writes do not interleave.
    ends_path = args.out.with_suffix(".ends")

    @functools.wraps(execute_cell)
    def timed_cell(spec):
        if args.jobs == 1:
            mark_submitted()
        output = execute_cell(spec)
        with open(ends_path, "a") as fp:
            fp.write(f"{spec.point.x_value!r} {time.monotonic()!r}\n")
        return output

    parallel._execute_cell = timed_cell

    points = sweep_points(args.seed)
    try:
        result = parallel.SweepExecutor(jobs=args.jobs).run(
            "fig4_workers",
            "|W|",
            points,
            DEFAULT_ALGORITHMS,
            measure_memory=not args.no_memory,
            notes={"scale": f"{SCALE:g}"},
        )
    except _SetupDone:
        result = None
    finished = time.monotonic()
    payload = {
        "submitted": marks["submitted"],
        "finished": finished,
        "specs": len(points) * len(DEFAULT_ALGORITHMS),
    }
    if result is not None:
        point_done: dict = {}
        with open(ends_path) as fp:
            for line in fp:
                x, ended = map(float, line.split())
                point_done[x] = max(ended, point_done.get(x, ended))
        payload.update(
            point_done=[point_done[x] for x in result.x_values],
            x_values=result.x_values,
            sizes={name: [cell.size for cell in cells] for name, cells in result.cells.items()},
            notes=result.notes,
        )
    with open(args.out, "w") as fp:
        json.dump(payload, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
