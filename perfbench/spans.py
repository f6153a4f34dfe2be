"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: `install` replaces each
measured lmtk function by a wrapper in every lmtk module namespace that
binds it (modules import `nf`, `mgu` and friends by name, so patching the
defining module alone would miss most calls). A span records its name,
start, end, parent span and item id; spans stay in memory, in flat
arrays, until the run writes them out. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import array
import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

# The measured functions per layer (`src/lmtk/<layer>.py`). `mgu` and
# `match_many` are wrapped only where other layers call them: rewriting's
# own matching stays inside `normalize`'s self time.
LAYERS: dict[str, tuple[str, ...]] = {
    "trs_format": ("parse_trs",),
    "terms": ("mgu", "match_many", "enumerate_terms"),
    "rewriting": ("normalize", "subterm_collapse_search"),
    "overlaps": ("critical_pairs", "nosup", "rhs_closure",
                 "paramodulation_candidates"),
    "closure": ("fc_iterate", "compositions", "is_redundant_approx"),
    "checker": ("lm_verdict", "check_termination", "check_confluence",
                "right_reduce", "consequence_checks"),
    "minsky": ("cap_search", "encode", "simulate"),
}
CALL_SITE_ONLY = {"mgu": ("overlaps", "closure", "checker"),
                  "match_many": ("overlaps", "closure", "checker")}
GENERATORS = {"enumerate_terms"}
ROOT = "perfbench.item"


def _count_normalize(counts, out, err) -> None:
    trace = out[1] if err is None else getattr(err, "trace", ())
    counts["rewriting.normalize.steps"] += len(trace)
    if err is not None and type(err).__name__ == "FuelExhausted":
        counts["rewriting.normalize.fuel_exhausted"] += 1


def _count_hit(name: str) -> Callable:
    def count(counts, out, err) -> None:
        if err is None and out is not None:
            counts[name] += 1
    return count


def _count_redundant(counts, out, err) -> None:
    if err is None and out:
        counts["closure.is_redundant_approx.redundant"] += 1


def _count_cap(counts, out, err) -> None:
    if err is None:
        counts["minsky.cap_search.deduced"] += out.deduced
        counts["minsky.cap_search.incomplete"] += not out.complete


def _count_len(name: str, get: Callable = len) -> Callable:
    def count(counts, out, err) -> None:
        if err is None:
            counts[name] += get(out)
    return count


# per-call counters read off a function's result or its exception
COUNTERS: dict[str, Callable] = {
    "rewriting.normalize": _count_normalize,
    "rewriting.subterm_collapse_search": _count_len(
        "rewriting.subterm_collapse_search.terms_checked",
        lambda r: r.terms_checked),
    "terms.mgu": _count_hit("terms.mgu.hits"),
    "terms.match_many": _count_hit("terms.match_many.hits"),
    "overlaps.critical_pairs": _count_len("overlaps.critical_pairs.pairs"),
    "closure.fc_iterate": _count_len(
        "closure.fc_iterate.rules_out", lambda r: len(r.final_rules())),
    "closure.compositions": _count_len("closure.compositions.candidates"),
    "closure.is_redundant_approx": _count_redundant,
    "minsky.cap_search": _count_cap,
}


class Tracer:
    """In-memory spans plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.item = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.current = -1
        self.item_id = -1
        # spans are recorded only while this is set: output checks call
        # lmtk too, and must not count as work of the item
        self.active = False
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[Any, str, Any]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn: Callable, counter: Optional[Callable] = None
             ) -> Callable:
        """`fn` wrapped so that each call records one span."""
        nid = self.name_id(name)
        names, parents, items = self.name, self.parent, self.item
        starts, ends, counts = self.start, self.end, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(starts)
            parent = self.current
            names.append(nid)
            parents.append(parent)
            items.append(self.item_id)
            ends.append(0.0)
            self.current = index
            out = err = None
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as e:
                err = e
                raise
            finally:
                ends[index] = perf_counter()
                self.current = parent
                if counter is not None:
                    counter(counts, out, err)
        return wrapper

    def _yield_counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for value in fn(*args, **kwargs):
                if self.active:
                    counts[name] += 1
                yield value
        return wrapper

    def install(self) -> None:
        """Wrap every measured function of the imported lmtk package."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None
                   and (name == "lmtk" or name.startswith("lmtk."))}
        for layer, functions in LAYERS.items():
            home = modules[f"lmtk.{layer}"]
            for fname in functions:
                orig = getattr(home, fname)
                qual = f"{layer}.{fname}"
                if fname in GENERATORS:
                    wrapped = self._yield_counter(f"{qual}.yielded", orig)
                else:
                    wrapped = self.span(qual, orig, COUNTERS.get(qual))
                sites = CALL_SITE_ONLY.get(fname)
                for mname, mod in modules.items():
                    short = mname.rpartition(".")[2]
                    if sites is not None and short not in sites:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def self_times(self, lo: int, hi: int) -> dict[str, list[float]]:
        """Self seconds and call count per span name over spans [lo, hi),
        which must hold whole span trees."""
        n = hi - lo
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        for k in range(n):
            p = self.parent[lo + k]
            if p >= lo:
                child[p - lo] += dur[k]
        out: dict[str, list[float]] = {}
        for k in range(n):
            entry = out.setdefault(self.names[self.name[lo + k]], [0.0, 0])
            entry[0] += dur[k] - child[k]
            entry[1] += 1
        return out

    def descendants_named(self, lo: int, hi: int, ancestor: str,
                          name: str) -> int:
        """How many spans called `name` in [lo, hi) lie under a span
        called `ancestor`."""
        aid, nid = self._ids.get(ancestor), self._ids.get(name)
        if aid is None or nid is None:
            return 0
        hits = 0
        for i in range(lo, hi):
            if self.name[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != aid:
                p = self.parent[p]
            hits += p >= 0
        return hits

    def write(self, path: Path) -> None:
        """Spans as a JSON header plus one flat binary array per field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "parent", "item", "start", "end")
        header = {"spans": len(self.start), "names": self.names,
                  "fields": {f: getattr(self, f).typecode for f in fields},
                  "byteorder": sys.byteorder}
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
