"""What ``/proc`` says about the processes under test.

Peak resident set (``VmHWM``) and CPU time (``utime + stime``) per
process, plus the process tree below a root pid.  Linux only; the
benchmark refuses to run elsewhere.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

__all__ = [
    "descendants",
    "await_group_exit",
    "peak_rss_mb",
    "cpu_seconds",
    "shm_segments",
    "Sampler",
]

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as fp:
            raw = fp.read()
    except OSError:
        return None
    # The command name may hold spaces; fields restart after its ')'.
    return raw[raw.rindex(")") + 2 :].split()


def descendants(root: int) -> List[int]:
    """``root`` and every live process below it."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def _group_members(pgid: int) -> List[int]:
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            # Zombies have ended; only their parent can reap them.
            if fields is not None and int(fields[2]) == pgid and fields[0] != "Z":
                members.append(int(entry))
    return members


def await_group_exit(pgid: int, timeout_s: float) -> List[int]:
    """Wait until no live process is left in the process group;
    returns the members still alive at the timeout."""
    deadline = time.monotonic() + timeout_s
    while True:
        members = _group_members(pgid)
        if not members or time.monotonic() >= deadline:
            return members
        time.sleep(0.05)


def peak_rss_mb(pid: int) -> Optional[float]:
    """The process's peak resident set in MiB, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def cpu_seconds(pid: int) -> Optional[float]:
    """User + system CPU seconds the process has used, or None."""
    fields = _stat_fields(pid)
    if fields is None:
        return None
    return (int(fields[11]) + int(fields[12])) / _TICK


def shm_segments() -> set:
    """Names of the POSIX shared-memory segments the transport creates."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


class Sampler:
    """Tracks peak RSS and CPU time of a process tree by polling.

    Processes that exit between polls keep their last reading, so a
    short-lived pool worker is counted with what it held at the last
    poll before it ended.
    """

    def __init__(self, root: int) -> None:
        self.root = root
        self.rss: Dict[int, float] = {}
        self.cpu: Dict[int, float] = {}

    def poll(self) -> None:
        for pid in descendants(self.root):
            rss = peak_rss_mb(pid)
            cpu = cpu_seconds(pid)
            if rss is not None:
                self.rss[pid] = max(rss, self.rss.get(pid, 0.0))
            if cpu is not None:
                self.cpu[pid] = cpu

    def total_rss_mb(self) -> float:
        return sum(self.rss.values())
