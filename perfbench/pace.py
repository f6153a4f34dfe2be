"""The host's pace: CPU seconds of a fixed piece of pure-Python work.

On a shared virtual machine the same item takes more or fewer CPU
seconds from one minute to the next, as other guests load the physical
core and its caches: up to twice as many within a few seconds on the
host the benchmark was tuned on. The run samples this fixed work before
and after every timed item and scales the item's CPU seconds by
`REFERENCE_S` over the mean of the two samples, so item times read as
CPU seconds on a host of the reference pace. The work builds, rewrites,
hashes and walks small term objects, the kind of work lmtk does, but
calls no lmtk code: no change to lmtk moves it.
"""

from __future__ import annotations

import time

# median sample on the 2-vCPU Intel Xeon host the benchmark was tuned on
REFERENCE_S = 0.0018


class _Term:
    __slots__ = ("sym", "args", "_hash")

    def __init__(self, sym: str, args: tuple) -> None:
        self.sym = sym
        self.args = args
        self._hash = hash((sym, args))

    def __eq__(self, other) -> bool:
        return self.sym == other.sym and self.args == other.args

    def __hash__(self) -> int:
        return self._hash


_RENAME = {"f": "g", "a": "a", "b": "b"}


def _tree(depth: int, index: int) -> _Term:
    if depth == 0:
        return _Term("ab"[index % 3 % 2], ())
    return _Term("f", (_tree(depth - 1, 2 * index),
                       _tree(depth - 1, 2 * index + 1)))


def _rename(t: _Term, memo: dict) -> _Term:
    got = memo.get(t)
    if got is None:
        got = memo[t] = _Term(_RENAME[t.sym],
                              tuple(_rename(a, memo) for a in t.args))
    return got


def work() -> int:
    """Distinct subterms of three renamed trees."""
    distinct = 0
    for index in range(3):
        seen = set()
        stack = [_rename(_tree(8, index), {})]
        while stack:
            t = stack.pop()
            if t not in seen:
                seen.add(t)
                stack.extend(t.args)
        distinct += len(seen)
    return distinct


def sample() -> float:
    """Median CPU seconds of three `work()` calls on this thread."""
    spent = []
    for _ in range(3):
        t0 = time.thread_time()
        work()
        spent.append(time.thread_time() - t0)
    return sorted(spent)[1]


def scale(before: float, after: float) -> float:
    """Factor from CPU seconds to reference-pace seconds for work timed
    between a sample `before` and a sample `after`."""
    return 2 * REFERENCE_S / (before + after)
