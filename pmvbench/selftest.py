"""Self-tests of the benchmark's own checking code.

Run before every benchmark run (and standalone with
``python3 pmvbench/selftest.py``): the oracle must reject doctored
answers, and the self-time arithmetic must reproduce a hand-computed
span tree.  A failure raises, so the benchmark prints no result.
"""

from __future__ import annotations

import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    END,
    PARENT,
    REQUEST,
    OracleError,
    SpanRecorder,
    check_answer,
    check_rows,
    digest,
    self_time_by_name,
    self_times,
)

PLAIN = [(1, "a"), (2, "b"), (2, "b"), (3, "c"), (4, "d")]


def _must_reject(check, *args) -> None:
    try:
        check(*args)
    except OracleError:
        return
    raise AssertionError(f"oracle accepted a doctored answer: {args!r}")


def oracle_rejects_doctored_answers() -> None:
    plain = digest(PLAIN)
    partial, remaining = PLAIN[:2], PLAIN[2:]
    check_answer(digest(partial), digest(remaining), plain, "exact answer")
    check_rows(partial + remaining, PLAIN, "exact answer")
    doctored = {
        "one extra row": (partial, remaining + [(5, "e")]),
        "one missing row": (partial, remaining[:-1]),
        "one duplicated row": (partial, remaining[:-1] + [(1, "a")]),
        "a partial row not in the answer": ([(9, "z")] + partial[1:], remaining),
        "more partial rows than the answer": (PLAIN + [(1, "a")], []),
    }
    for what, (p, r) in doctored.items():
        _must_reject(check_answer, digest(p), digest(r), plain, what)
        _must_reject(check_rows, p + r, PLAIN, what)


def self_times_of_nested_tree() -> None:
    """root [0, 10] ⊃ a [1, 6] ⊃ b [2, 4] (+0.5 s of leaf calls in b),
    root ⊃ c [7, 9]; a second root [20, 23] with no children."""
    ticks = iter([0.0, 1.0, 2.0, 4.0, 6.0, 7.0, 9.0, 10.0, 20.0, 23.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    root = rec.open("op", request="r1")
    a = rec.open("a")
    b = rec.open("b")
    rec.leaf("probe", 0.5)
    rec.close(b)
    rec.close(a)
    c = rec.open("c")
    rec.close(c)
    rec.close(root)
    other = rec.open("op", request="r2")
    rec.close(other)
    own = self_times(rec.spans)
    expected = {root: 10 - 5 - 2, a: 5 - 2, b: 2 - 0.5, c: 2, other: 3}
    for index, value in expected.items():
        if abs(own[index] - value) > 1e-12:
            raise AssertionError(f"span {rec.spans[index][0]}: self {own[index]} != {value}")
    if rec.spans[b][4] != "r1" or rec.spans[other][4] != "r2":
        raise AssertionError("request ids are not inherited from the root")
    by_name = self_time_by_name(rec.spans, {root})
    if by_name != {"op": 3.0, "a": 3.0, "b": 1.5, "c": 2.0}:
        raise AssertionError(f"self time by name: {by_name}")
    if rec.leaf_totals() != {"probe": (0.5, 1)} or rec.leaf_totals({"op"}) != {"probe": (0.5, 1)}:
        raise AssertionError(f"leaf totals: {rec.leaf_totals()}")
    if rec.leaf_totals({"other"}):
        raise AssertionError("a leaf call is counted under a tree it was not made in")
    # Closing an outer span closes what is still open inside it.
    rec2 = SpanRecorder(clock=iter([0.0, 1.0, 5.0]).__next__)
    outer = rec2.open("outer")
    inner = rec2.open("inner")
    rec2.close(outer)
    if rec2.spans[inner][2] != 5.0 or self_times(rec2.spans) != [1.0, 4.0]:
        raise AssertionError("close() left an inner span open")


def spans_of_concurrent_threads() -> None:
    """Threads that share a recorder each get their own spans back: every
    span is closed, and its parent is a span of the same request."""

    class YieldingList(list):
        """Hands the processor to another thread right after each append,
        where an unguarded recorder would read another thread's index."""

        def append(self, item) -> None:
            super().append(item)
            time.sleep(0)

    rec = SpanRecorder()
    rec.spans = YieldingList()

    def work(request: str) -> None:
        for _ in range(200):
            root = rec.open("op", request=request)
            rec.close(rec.open("inner"))
            rec.close(root)

    threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for span in rec.spans:
        parent = span[PARENT]
        if span[END] is None or (parent >= 0 and rec.spans[parent][REQUEST] != span[REQUEST]):
            raise AssertionError(f"span {span} lost to another thread")
    if len(rec.spans) != 4 * 200 * 2:
        raise AssertionError(f"{len(rec.spans)} spans recorded, {4 * 200 * 2} opened")


def run_all() -> None:
    oracle_rejects_doctored_answers()
    self_times_of_nested_tree()
    spans_of_concurrent_threads()


if __name__ == "__main__":
    run_all()
    print(
        "pmvbench self-tests passed: the oracle rejects doctored answers; span self times add up; "
        "concurrent threads keep their own spans"
    )
