"""Shared pieces of the system benchmark: import path, child processes,
percentiles, the answer oracle, and the span recorder with its
self-time arithmetic.

Everything here is benchmark code; the program under test is imported
from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import select
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".pmvbench")


def use_source_tree() -> None:
    """Put the checkout's ``src/`` first on the import path, or fail."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"pmvbench: no program source at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ChildProcess:
    """A child interpreter driven over stdin/stdout, one JSON object per
    line each way.  Every read has a deadline, so a wedged child fails
    the run instead of hanging it."""

    def __init__(self, args: list[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, *args], stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT
        )
        self._buffer = b""

    def read(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("child process did not answer in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(f"child process exited (code {self.proc.poll()})")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def command(self, timeout: float = 120.0, **command) -> dict:
        self.proc.stdin.write((json.dumps(command) + "\n").encode())
        self.proc.stdin.flush()
        return self.read(timeout)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            with contextlib.suppress(OSError):
                pipe.close()


# -- percentiles -------------------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; a failed op is recorded as ``inf`` so it
    lies beyond every percentile it can reach."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


# -- the answer oracle -------------------------------------------------------

_MASK = (1 << 64) - 1


def digest(rows) -> tuple[int, int]:
    """Order-free multiset digest of value tuples: (count, Σ hash mod 2^64).

    Two multisets with equal digests are equal except with probability
    about 2^-64 per comparison; an extra, missing or substituted row
    changes the count or the sum.  Hashes are only compared within one
    process, so string-hash randomisation does not matter.
    """
    total = 0
    n = 0
    for row in rows:
        total += hash(row)
        n += 1
    return n, total & _MASK


def digest_sum(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] + b[0], (a[1] + b[1]) & _MASK


class OracleError(AssertionError):
    """An answer did not match plain execution."""


def check_answer(partial: tuple[int, int], remaining: tuple[int, int], plain: tuple[int, int], what: str) -> None:
    """Fail unless partial ⊎ remaining equals plain execution as a multiset.

    Multiplicities are never negative, so partial ⊎ remaining = plain
    also proves partial ⊆ plain: a partial row the plain answer lacks
    cannot be cancelled by the remainder.
    """
    if digest_sum(partial, remaining) != plain:
        got = partial[0] + remaining[0]
        raise OracleError(
            f"{what}: answer differs from plain execution ({got} rows delivered, {plain[0]} expected)"
        )


def check_rows(answer: list, plain: list, what: str) -> None:
    """Exact multiset comparison, for answers small enough to keep."""
    if Counter(map(tuple, answer)) != Counter(map(tuple, plain)):
        raise OracleError(f"{what}: {len(answer)} rows differ from plain execution's {len(plain)}")


# -- spans -------------------------------------------------------------------

# A span is a list: [name, start, end, parent index or -1, request id, leaf seconds].
NAME, START, END, PARENT, REQUEST, LEAF = range(6)


class SpanRecorder:
    """In-memory spans with per-thread nesting.

    ``open``/``close`` record a span whose parent is the innermost open
    span of the calling thread.  ``leaf`` accounts a short, very
    frequent call (an index probe, a heap fetch) as a total per name and
    as child time of the innermost open span, without a span record of
    its own, so that tracing a thousand probes per query stays cheap.
    Leaf totals are kept per thread and per kind of tree (the name of
    the thread's outermost open span), so read and write requests that
    share a recorder can be told apart.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._local = threading.local()
        self._leaf_tables: list[dict] = []
        # Threads share ``spans``: an append and the index it got must
        # not be split by another thread's append.
        self._mutex = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _leaves(self) -> dict:
        table = getattr(self._local, "leaves", None)
        if table is None:
            table = self._local.leaves = defaultdict(lambda: [0.0, 0])
            with self._mutex:
                self._leaf_tables.append(table)
        return table

    def open(self, name: str, request=None, start: float | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][REQUEST]
        span = [name, self.clock() if start is None else start, None, parent, request, 0.0]
        with self._mutex:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, end: float | None = None) -> None:
        """Close span ``index`` and any span still open inside it."""
        stack = self._stack()
        end = self.clock() if end is None else end
        while stack:
            top = stack.pop()
            self.spans[top][END] = end
            if top == index:
                return

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else -1

    def add(self, name: str, start: float, end: float, parent: int, request=None) -> int:
        """Record a closed span whose bounds were taken elsewhere."""
        with self._mutex:
            self.spans.append([name, start, end, parent, request, 0.0])
            return len(self.spans) - 1

    def leaf(self, name: str, seconds: float) -> None:
        stack = self._stack()
        spans = self.spans
        entry = self._leaves()[(name, spans[stack[0]][NAME] if stack else None)]
        entry[0] += seconds
        entry[1] += 1
        if stack:
            spans[stack[-1]][LEAF] += seconds

    def leaf_totals(self, roots: set[str] | None = None) -> dict[str, tuple[float, int]]:
        """(seconds, calls) per leaf name; with ``roots``, only the calls
        made inside a tree whose root span has one of those names."""
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        with self._mutex:
            tables = list(self._leaf_tables)
        for table in tables:
            for (name, root), (seconds, calls) in list(table.items()):
                if roots is None or root in roots:
                    totals[name][0] += seconds
                    totals[name][1] += calls
        return {name: (v[0], v[1]) for name, v in totals.items()}


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its direct children's
    durations minus the leaf time accounted to it.  Spans left open
    (an interrupted request) count as zero."""
    own = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[END] is not None:
            own[i] = span[END] - span[START] - span[LEAF]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0 and span[END] is not None:
            own[parent] -= span[END] - span[START]
    return own


def descendants(spans: list[list], roots: set[int]) -> list[int]:
    """Indices of the spans under ``roots`` (parents precede children)."""
    inside = set(roots)
    found = []
    for i, span in enumerate(spans):
        if span[PARENT] in inside:
            inside.add(i)
            found.append(i)
    return found


def self_time_by_name(spans: list[list], roots: set[int]) -> dict[str, float]:
    """Σ self time per span name over the trees under ``roots`` (roots
    themselves included under their own names)."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for i in list(roots) + descendants(spans, roots):
        totals[spans[i][NAME]] += own[i]
    return dict(totals)


def duration_by_name(spans: list[list], names: set[str], within=None) -> dict[str, float]:
    """Σ duration of closed spans per name, for ``names``, over the spans
    whose indices are in ``within`` (default: all)."""
    totals: dict[str, float] = defaultdict(float)
    for i in range(len(spans)) if within is None else within:
        span = spans[i]
        if span[NAME] in names and span[END] is not None:
            totals[span[NAME]] += span[END] - span[START]
    return dict(totals)


def attributed_time(spans: list[list], roots: set[int], skip: set[str]) -> float:
    """Σ self time and leaf time over the trees under ``roots``, leaving
    out the self time of spans named in ``skip``: the part of the roots'
    time that named layer spans account for."""
    own = self_times(spans)
    tree = list(roots) + descendants(spans, roots)
    return sum(spans[i][LEAF] + (0.0 if spans[i][NAME] in skip else own[i]) for i in tree)
