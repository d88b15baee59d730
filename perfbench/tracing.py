"""Spans around calls into the program's layers, recorded from outside.

:func:`install` replaces public functions and methods of the ``repro``
package with wrappers that time every call.  A span is ``(name, start,
end, parent, seq)``: monotonic nanoseconds, the index of the enclosing
span in the same process, and the gateway event sequence number when the
call handles one.  A layer's *self* time is its span minus the time its
child spans cover.

Spans stay in memory per process.  Every call also updates a per-name
aggregate (calls, total and self nanoseconds); the first
``SPAN_LIMIT`` raw spans are kept as well, so a run's span log stays
bounded however hot a function is.  :func:`dump` writes both to
``<directory>/spans-<pid>.json``.  Forked children start with an empty
log (``os.register_at_fork``) and dump their own: pool workers after
every cell, shard workers when their main loop returns.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["SpanLog", "LOG", "install", "dump", "load_aggregates"]

SPAN_LIMIT = 50_000


class SpanLog:
    """This process's spans and per-name aggregates."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: List[tuple] = []
        self.aggregates: Dict[str, List[int]] = {}  # name -> [calls, total, self]
        self.counters: Dict[str, float] = {}
        self.stack: List[list] = []  # [name, start, child_ns, span index]

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, seq_of=None):
        """``fn`` wrapped to record one span per call."""
        log = self
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = log.stack
            parent = stack[-1][3] if stack else -1
            frame = [name, clock(), 0, -1]
            if len(log.spans) < SPAN_LIMIT:
                frame[3] = len(log.spans)
                log.spans.append(None)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                entry = log.aggregates.get(name)
                if entry is None:
                    entry = log.aggregates[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if frame[3] >= 0:
                    seq = seq_of(args) if seq_of is not None else None
                    log.spans[frame[3]] = (name, frame[1], end, parent, seq)

        traced.__perfbench_wrapped__ = fn
        return traced


LOG = SpanLog()
os.register_at_fork(after_in_child=LOG.reset)


def _event_seq(args) -> Optional[int]:
    """The ``seq`` of the stream event among a call's arguments."""
    for arg in args[1:2]:
        seq = getattr(arg, "seq", None)
        if isinstance(seq, int):
            return seq
    return None


def _patch(owner, attr: str, name: str, seq_of=None) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if getattr(original, "__perfbench_wrapped__", None) is not None:
        return
    setattr(owner, attr, LOG.wrap(name, original, seq_of))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(directory: Path) -> None:
    """Wrap the layer boundaries of the serving stack and the sweep."""
    from repro.core import cellindex, engine, guide, opt
    from repro.experiments import measurement, parallel, runner
    from repro.graph import transportation
    from repro.serving import replay, session, shard, workers
    from repro.streams import synthetic

    # serving.shard / serving.session / core.engine / core.cellindex
    _patch(shard.ShardRouter, "shard_of", "shard.route", _event_seq)
    _patch(shard.Shard, "push", "shard.push", _event_seq)
    _patch(session.MatchingSession, "push", "session.push", _event_seq)
    for cls in (engine.Matcher, *_subclasses(engine.Matcher)):
        if "observe" in cls.__dict__:
            _patch(cls, "observe", "engine.observe", _event_seq)
    _patch(cellindex.CellIndex, "within", "cellindex.within")
    _patch(cellindex.CellIndex, "nearest_feasible", "cellindex.nearest_feasible")
    # core.opt / core.guide / graph — modules that imported the function
    # by name hold their own reference, so patch those too.
    traced_opt = LOG.wrap("opt.run", opt.run_opt)
    opt.run_opt = runner.run_opt = traced_opt
    traced_guide = LOG.wrap("guide.build", guide.build_guide)
    guide.build_guide = replay.build_guide = runner.build_guide = traced_guide
    _patch(transportation.TransportationProblem, "solve", "graph.transportation")
    # experiments.measurement / experiments.parallel / streams
    measure = LOG.wrap("measurement.measure", measurement.measure)

    @functools.wraps(measurement.measure)
    def traced_measure(fn, measure_memory=True):
        started = time.monotonic_ns()
        run = measure(fn, measure_memory=measure_memory)
        # Everything but the timed first call is the tracemalloc pass.
        LOG.count(
            "measurement.memory_pass_ns",
            time.monotonic_ns() - started - run.seconds * 1e9,
        )
        return run

    measurement.measure = runner.measure = traced_measure
    run_session = LOG.wrap("session.run", session.MatchingSession.run)

    @functools.wraps(run_session)
    def traced_run(self):
        outcome = run_session(self)
        profile = self.matcher.profile.as_dict() or {}
        for key, value in profile.items():
            LOG.count(f"profile.{key}", value)
        LOG.count("profile.events", self.snapshot().arrivals)
        LOG.count("profile.matched", outcome.size)
        return outcome

    session.MatchingSession.run = traced_run
    _patch(synthetic.SyntheticGenerator, "generate", "streams.generate")

    execute_cell = LOG.wrap("parallel.cell", parallel._execute_cell)

    @functools.wraps(execute_cell)
    def traced_cell(spec):
        output = execute_cell(spec)
        dump(directory)
        return output

    parallel._execute_cell = traced_cell

    # serving.workers: a forked shard worker dumps when its loop returns.
    worker_main = workers.shard_worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        try:
            return worker_main(*args, **kwargs)
        finally:
            dump(directory)

    workers.shard_worker_main = traced_worker_main


def dump(directory: Path) -> None:
    """Write this process's spans and aggregates (overwriting)."""
    path = Path(directory) / f"spans-{os.getpid()}.json"
    payload = {
        "pid": os.getpid(),
        "aggregates": LOG.aggregates,
        "counters": LOG.counters,
        "spans": [span for span in LOG.spans if span is not None],
    }
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fp:
        json.dump(payload, fp)
    os.replace(tmp, path)


def load_aggregates(directory: Path):
    """Sum every process's dump: ``(aggregates, counters)``."""
    total: Dict[str, List[int]] = {}
    counters: Dict[str, float] = {}
    for path in sorted(Path(directory).glob("spans-*.json")):
        with open(path) as fp:
            payload = json.load(fp)
        for name, (calls, total_ns, self_ns) in payload["aggregates"].items():
            entry = total.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += total_ns
            entry[2] += self_ns
        for name, value in payload["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return total, counters
