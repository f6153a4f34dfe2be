"""The four workloads: their inputs, the timed call per item, and the
output check per item.

Every workload is built by `setup(L, seed, ref)` from the imported lmtk
package `L`, the seed and the recorded reference. Items reach lmtk only
through attribute lookups on `L` at call time, so the traced run's
wrappers see every call. Checks run outside the timed region and return
an error message, or None when the output is right.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import gen
import inputs

# random systems in `check` run at the test suite's tier-1 options: at
# default fuel some diverge for tens of seconds each
RANDOM_CHECK_OPTIONS = dict(fuel=200, collapse_depth=3, collapse_terms=150,
                            consequence_depth=2)
CHECK_RANDOM_ITEMS = 80
CLOSURE_GENERATIONS = 3
# the light draw is dense enough that items near the batch median differ
# little in cost, so the median does not jump across a gap from one seed
# to the next; together they cost about a seventh of the heavy items
CLOSURE_LIGHT_ITEMS = 160
# closures of HEAVY_RULES to MAX_RULES rules are in every `closure` batch,
# so that the slowest items, which set the tail, do not hinge on the draw;
# past MAX_RULES one system outweighs the rest of the batch
HEAVY_RULES = 300
MAX_RULES = 1500
CAP_KS = range(1, 13)
CHAIN_BANDS = ((240, 260), (600, 620))
CHAIN_MAX = 800
# as many cheap root-step items as 511-node trees, so that the median item
# is the middle one of the trees; two chains above the 1023-node trees, so
# that in a three-pass run the tail item (ten items beyond it) is the
# middle of their nine samples. Trees vary less from run to run than the
# allocation-heavy chains, and a median over several samples less than
# one sample.
ROOT_STEP_ITEMS = 5
SMALL_TREE_ITEMS = 5
LARGE_TREE_ITEMS = 3
# App equality recurses; replaying a deep trace needs this much headroom
REPLAY_RECURSION_LIMIT = 10_000


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class KnownDefect:
    """A probe of a defect of the measured commit, with the outcome a
    correct program gives."""

    name: str
    expected: str
    probe: Callable[[], str]


@dataclass
class Batch:
    items: list[Item]
    known_defects: list[KnownDefect] = field(default_factory=list)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def term_text(t) -> str:
    """`render_term` without recursion, for terms of any depth."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif not hasattr(u, "sym"):
            out.append(u.name)
        elif not u.args:
            out.append(u.sym.name)
        else:
            out.append(u.sym.name + "(")
            stack.append(")")
            for i in range(len(u.args) - 1, -1, -1):
                stack.append(u.args[i])
                if i:
                    stack.append(",")
    return "".join(out)


def report_text(report) -> str:
    """The report as `lmtk check` prints it."""
    lines = [c.line() for c in report.conditions]
    lines.extend(f"note: {n}" for n in report.notes)
    if report.consequences:
        lines.append("consequences:")
        lines.extend("  " + c.line() for c in report.consequences)
    lines.append(report.summary())
    return "\n".join(lines)


def closure_text(L, out) -> str:
    fc, cps, sups, rhs, paramod = out
    render = L.render_term
    lines = [f"fc converged={fc.converged} generations={len(fc.generations)}"]
    lines.extend(str(r) for r in fc.final_rules())
    lines.extend(f"cp {cp}" for cp in cps)
    lines.extend(f"nosup {render(t)}" for t in sups)
    lines.extend(f"rhs {eq}" for eq in rhs)
    lines.extend(f"paramod {c}" for c in paramod)
    return "\n".join(lines)


def stratified(costs: dict[int, float], count: int,
               rng: random.Random) -> list[int]:
    """One pool entry from each of `count` groups of entries of similar
    recorded cost, so every seed draws a batch of about equal work."""
    order = sorted(costs, key=lambda s: (costs[s], s))
    size = len(order) / count
    return [rng.choice(order[round(i * size):round((i + 1) * size)])
            for i in range(count)]


def pool_text(ref_entry: dict, seed: int) -> str:
    text = gen.random_system_text(seed)
    if digest(text) != ref_entry["text_sha"]:
        raise BenchError(f"generator output for pool seed {seed} differs "
                         "from the recorded reference; re-record it")
    return text


def _check_report(expected_summary: Optional[str], expected_sha: str
                  ) -> Callable[[Any], Optional[str]]:
    def check(report) -> Optional[str]:
        if expected_summary is not None and report.summary() != expected_summary:
            return f"verdict {report.summary()!r}, expected {expected_summary!r}"
        if digest(report_text(report)) != expected_sha:
            return "report text differs from the regression reference"
        return None
    return check


def check_fixed_systems(L) -> list[tuple[str, str, Any, Optional[str]]]:
    """(name, text, options, expected summary) for the hand-written
    systems and the encoded machines."""
    out = []
    for name, (text, summary) in {**inputs.HAND_SYSTEMS,
                                  **inputs.SEARCH_SYSTEMS}.items():
        out.append((name, text, L.CheckOptions(), summary))
    for name, (mtext, k, p) in inputs.ENCODED_MACHINES.items():
        machine = L.parse_machine(mtext)
        inst = L.encode(machine, k, p)
        opts = L.CheckOptions(precedence=L.encoding_precedence(machine))
        out.append((name, L.render_trs(inst.theory), opts, inputs.PASS))
    return out


def setup_check(L, seed: int, ref: dict) -> Batch:
    rng = random.Random(seed)
    items = []
    for name, text, opts, summary in check_fixed_systems(L):
        items.append(Item(
            name, verdict_call(L, text, opts),
            _check_report(summary, ref["check_fixed"][name]["report_sha"])))
    pool = ref["check_pool"]
    costs = {int(s): e["cost_s"] for s, e in pool.items()}
    opts = L.CheckOptions(**RANDOM_CHECK_OPTIONS)
    for s in stratified(costs, CHECK_RANDOM_ITEMS, rng):
        entry = pool[str(s)]
        items.append(Item(
            f"random{s}", verdict_call(L, pool_text(entry, s), opts),
            _check_report(None, entry["report_sha"])))
    rng.shuffle(items)
    return Batch(items)


def verdict_call(L, text: str, opts) -> Callable[[], Any]:
    return lambda: L.lm_verdict(L.parse_trs(text), opts)


def closure_call(L, text: str) -> Callable[[], Any]:
    def run():
        trs = L.parse_trs(text)
        return (L.fc_iterate(trs, CLOSURE_GENERATIONS), L.critical_pairs(trs),
                L.nosup(trs), L.rhs_closure(trs),
                L.paramodulation_candidates(trs))
    return run


def setup_closure(L, seed: int, ref: dict) -> Batch:
    rng = random.Random(seed)
    pool = ref["closure_pool"]
    heavy = sorted(int(s) for s, e in pool.items()
                   if HEAVY_RULES <= e["rules_out"] <= MAX_RULES)
    light = {int(s): e["cost_s"] for s, e in pool.items()
             if e["rules_out"] < HEAVY_RULES}
    items = []
    for s in heavy + stratified(light, CLOSURE_LIGHT_ITEMS, rng):
        entry = pool[str(s)]
        expected = entry["output_sha"]

        def check(out, expected=expected) -> Optional[str]:
            if digest(closure_text(L, out)) != expected:
                return "closure output differs from the regression reference"
            return None
        items.append(Item(f"random{s}", closure_call(L, pool_text(entry, s)),
                          check))
    rng.shuffle(items)
    return Batch(items)


def cap_bounds(steps: int, k: int) -> dict:
    return dict(max_term_size=20 * k + 20, max_rounds=3 * steps + 19,
                max_apps=400_000)


def setup_cap(L, seed: int, ref: dict) -> Batch:
    rng = random.Random(seed)
    branching = L.parse_machine(inputs.BRANCHING_MACHINE)
    # the second counter rides along unchanged; every value is used
    # equally often so that each seed's batch does the same work
    second_counters = [p for p in (0, 1, 2) for _ in range(len(CAP_KS) // 3)]
    rng.shuffle(second_counters)
    tiny_machine = L.parse_machine(inputs.TINY_MACHINE)
    # the tiny machine from its initial state makes the batch 15 items: with
    # an odd count the median falls in the middle of one item's samples,
    # not between two items
    found = [(f"k{k}p{p}", branching, k, p)
             for k, p in zip(CAP_KS, second_counters)]
    found.append(("tiny", tiny_machine, 0, 0))
    items = []
    for label, machine, k, p in found:
        inst = L.encode(machine, k, p)
        run = L.simulate(machine, L.Config(machine.initial, k, p))
        bounds = cap_bounds(run.step_count, k)
        expected = str(L.canonical_cap(machine, run, inst))

        def check(res, inst=inst, expected=expected) -> Optional[str]:
            if not res.found:
                return "no cap found"
            if str(res.cap) != expected:
                return f"cap {res.cap}, expected the canonical {expected}"
            if L.nf(inst.theory, res.cap.plug()) != inst.goal:
                return "the cap does not rewrite to the goal"
            return None
        items.append(Item(label, _cap_call(L, inst, bounds), check))

    tiny = L.encode(tiny_machine, 0, 0)
    wrong_start = L.CapInstance(
        tiny.theory, (L.parse_term("c(q1,0,0,0)", tiny.theory),), tiny.goal)
    loop = L.encode(L.parse_machine(inputs.SELF_LOOP_MACHINE), 0, 0,
                    kp=0, pp=0)
    for label, inst, bounds in (
            ("wrong_start", wrong_start,
             dict(max_term_size=20, max_rounds=6, max_apps=20_000)),
            ("self_loop", loop,
             dict(max_term_size=20, max_rounds=8, max_apps=15_000))):
        items.append(Item(label, _cap_call(L, inst, bounds), _check_miss))
    rng.shuffle(items)

    pruned = L.parse_trs(inputs.PRUNED_CAP_SYSTEM)
    pruned_inst = L.CapInstance(pruned, (L.parse_term("k", pruned),),
                                L.parse_term("b", pruned))

    def probe() -> str:
        res = L.cap_search(pruned_inst, max_term_size=4)
        return f"found={res.found} complete={res.complete}"
    return Batch(items, [KnownDefect("cap_pruned_complete",
                                     "found=False complete=False", probe)])


def _cap_call(L, inst, bounds: dict) -> Callable[[], Any]:
    return lambda: L.cap_search(inst, **bounds)


def _check_miss(res) -> Optional[str]:
    if res.found or res.complete:
        return f"found={res.found} complete={res.complete}, expected a bounded miss"
    return None


def _tree(depth: int, leaves: list[str], sym: str) -> str:
    if depth == 0:
        return leaves.pop()
    left = _tree(depth - 1, leaves, sym)
    return f"{sym}({left},{_tree(depth - 1, leaves, sym)})"


def setup_normalize_deep(L, seed: int, ref: dict) -> Batch:
    rng = random.Random(seed)
    unary = L.parse_trs(inputs.UNARY_RENAME)
    binary = L.parse_trs(inputs.BINARY_RENAME)
    # (label, system, input text, normal form text, steps)
    cases = []
    sizes = [rng.randrange(lo, hi) for lo, hi in CHAIN_BANDS] + [CHAIN_MAX]
    for n in sizes:
        leaf = rng.choice("ab")
        cases.append((f"chain{n}", unary, "f(" * n + leaf + ")" * n,
                      "g(" * n + leaf + ")" * n, n))
    for _ in range(ROOT_STEP_ITEMS):
        n = rng.randrange(200, CHAIN_MAX + 1)
        leaf = rng.choice("ab")
        cases.append((f"root_step{n}", unary,
                      "f(" + "g(" * n + leaf + ")" * (n + 1),
                      "g(" * (n + 1) + leaf + ")" * (n + 1), 1))
    for index, depth in enumerate(
            [8] * SMALL_TREE_ITEMS + [9] * LARGE_TREE_ITEMS):
        leaves = [rng.choice("ab") for _ in range(2 ** depth)]
        cases.append((f"tree{2 ** (depth + 1) - 1}_{index}", binary,
                       _tree(depth, list(leaves), "f"),
                       _tree(depth, list(leaves), "g"), 2 ** depth - 1))
    items = []
    for label, trs, text, nf_text, steps in cases:
        term = L.parse_term(text, trs)

        def check(out, trs=trs, term=term, nf_text=nf_text, steps=steps
                  ) -> Optional[str]:
            nf, trace = out
            if len(trace) != steps:
                return f"{len(trace)} steps, expected {steps}"
            if term_text(nf) != nf_text:
                return "normal form differs from the closed form"
            with recursion_limit(REPLAY_RECURSION_LIMIT):
                replayed = L.rewriting.replay(trs, term, trace)
            if term_text(replayed) != nf_text:
                return "the trace replays to another term"
            return None
        items.append(Item(label, _normalize_call(L, trs, term), check))
    rng.shuffle(items)

    deepest = next(it for it in items if it.label == f"chain{CHAIN_MAX}")

    def probe_parse() -> str:
        depth = sys.getrecursionlimit() + 200
        try:
            t = L.parse_term("f(" * depth + "a" + ")" * depth, unary)
        except RecursionError:
            return "RecursionError"
        return "parsed" if term_text(t).count("f(") == depth else "wrong term"

    def probe_replay() -> str:
        nf, trace = deepest.run()
        term = trace[0].source
        try:
            replayed = L.rewriting.replay(unary, term, trace)
        except RecursionError:
            return "RecursionError"
        return "replayed" if term_text(replayed) == term_text(nf) else "wrong term"
    return Batch(items, [
        KnownDefect("deep_parse_term", "parsed", probe_parse),
        KnownDefect("deep_replay", "replayed", probe_replay)])


def _normalize_call(L, trs, term) -> Callable[[], Any]:
    return lambda: L.normalize(trs, term)


@contextlib.contextmanager
def recursion_limit(limit: int):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(max(saved, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Any, int, dict], Batch]
    # every run makes at least this many passes; `run.tail` reads the
    # percentile that has ten items beyond it in a run this short
    min_passes: int


WORKLOADS: dict[str, Workload] = {
    "check": Workload(setup_check, 1),
    "cap": Workload(setup_cap, 3),
    "closure": Workload(setup_closure, 2),
    "normalize-deep": Workload(setup_normalize_deep, 3),
}
