"""Shared plumbing of the benchmark: paths, seeds, statistics, tracing.

Everything here lives on the benchmark side.  The program under test is
imported from ``src/`` of the checkout and is only ever *called*: spans
wrap the calls the benchmark makes into each layer's public functions,
never code inside the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark builds or writes stays under this directory
#: of the checkout (it is git-ignored).
BUILD = ROOT / ".bench_build"
KERNEL_DIR = BUILD / "ckernel"
CACHE_DIR = BUILD / "cache"


def program_env() -> dict[str, str]:
    """Environment for any process that runs the program.

    The compiled-kernel cache is pinned inside the checkout, so the
    benchmark never reads or writes the per-user cache directory.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("STARNET_")}
    env["PYTHONPATH"] = str(SRC)
    env["STARNET_CKERNEL_DIR"] = str(KERNEL_DIR)
    return env


def use_program_env() -> None:
    """Point this process at the checkout's program (before importing it)."""
    env = program_env()
    for name in set(os.environ) - set(env):
        del os.environ[name]
    os.environ.update(env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def derive_seed(seed: int, *parts) -> int:
    """A 31-bit seed derived from the workload seed and a label."""
    text = ":".join([str(seed), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def result_digest(result) -> str:
    """Exact, comparable text of a result dataclass, minus observation-only
    fields (phase timing and probe series differ between traced and
    untraced runs by design)."""
    skip = ("phase_ns", "timeseries")
    items = []
    for f in dataclasses.fields(result):
        if f.name in skip:
            continue
        value = getattr(result, f.name)
        if hasattr(value, "as_rows"):  # per-hop blocking table
            value = value.as_rows()
        items.append((f.name, value))
    return repr(items)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of another live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Checks:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def passed(self, n: int) -> None:
        """Count ``n`` operations that completed without error."""
        self.attempted += n

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok


class Tracer:
    """In-memory spans around the benchmark's calls into the program.

    A span records name, start, end and the span that caused it; a run's
    spans share the tracer's trace id.  Off (``enabled=False``) every
    method is a no-op, so the timed passes and the traced pass execute
    the same benchmark code.  Spans nest per thread; only the thread
    that drives a pass opens them.
    """

    def __init__(self, enabled: bool, trace_id: str = ""):
        self.enabled = enabled
        self.trace_id = trace_id
        self.spans: list[list] = []  # [id, parent, name, t0, t1]
        self.counts: dict[str, float] = {}
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        sid = len(self.spans)
        self.spans.append([sid, stack[-1] if stack else None, name, time.perf_counter(), None])
        stack.append(sid)
        try:
            yield
        finally:
            stack.pop()
            self.spans[sid][4] = time.perf_counter()

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive time, self time and call count."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for sid, _, name, t0, t1 in self.spans:
            entry = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            entry["total_s"] += t1 - t0
            entry["self_s"] += (t1 - t0) - child_time[sid]
            entry["calls"] += 1
        return out

    def coverage(self, root: str) -> float:
        """Share of the root spans' wall time spent in named child spans."""
        totals = self.totals().get(root)
        if not totals or totals["total_s"] <= 0:
            return math.nan
        return 1.0 - totals["self_s"] / totals["total_s"]

    def write(self, path: Path) -> None:
        """Write every span once, at the end of the run (JSON)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "trace_id": self.trace_id,
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start_s": s[3], "end_s": s[4]}
                for s in self.spans
            ],
            "counts": self.counts,
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
