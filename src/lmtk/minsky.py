"""Reversible deterministic two-counter machines and the cap problem.

A machine is a set of states with 4-tuple transitions [q, j, x, q']:
in state q, test or update counter j (Z zero-test, P positive-test,
+ increment, - decrement, 0 no-op) and move to q'. The reversibility
condition allows two transitions to share a source or a target state only
as a Z/P test pair on the same counter, which is what makes the encoding
below free of critical pairs.

The encoding turns a machine into a rewrite system over configuration
terms c(state, counter1, counter2, step): one rule per transition, plus a
finalize rule that fires on the expected halting configuration and a
step-unwinding rule. A halting run then corresponds to a cap: a context
of public symbols that, plugged with the initial configuration term,
rewrites to the goal c(e,0,0,0). `cap_search` looks for such a context by
forward saturation of the deducible-term set, with explicit bounds.
"""

from __future__ import annotations

import heapq
import itertools
import warnings
from dataclasses import dataclass
from typing import Optional

from .rewriting import DEFAULT_FUEL, NormalForms, Rule, Trs
from .terms import (
    App,
    Symbol,
    Term,
    Var,
    is_ground,
    render_term,
    substitute,
    term_size,
    variables_in_order,
)

COUNTER_OPS = ("Z", "P", "0", "+", "-")

TUPLE_BUDGET_PER_ITEM = 16  # see cap_search


@dataclass(frozen=True)
class Transition:
    source: str
    counter: int          # 1 or 2
    op: str               # one of COUNTER_OPS
    target: str

    def __str__(self) -> str:
        return f"{self.source} {self.counter} {self.op} {self.target}"


@dataclass(frozen=True)
class MinskyMachine:
    states: tuple[str, ...]
    initial: str
    final: str
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        if self.initial not in self.states or self.final not in self.states:
            raise ValueError("initial and final states must be declared")
        for t in self.transitions:
            if t.source not in self.states or t.target not in self.states:
                raise ValueError(f"transition {t} uses undeclared states")
            if t.counter not in (1, 2) or t.op not in COUNTER_OPS:
                raise ValueError(f"bad transition {t}")


@dataclass(frozen=True)
class Config:
    state: str
    c1: int
    c2: int
    steps: int = 0


def parse_machine(text: str) -> MinskyMachine:
    """Line-oriented machine files:

        states: q0 q1 qL
        initial: q0
        final: qL
        q0 1 + q1
        q1 1 + qL
    """
    states: list[str] = []
    initial = final = ""
    transitions: list[Transition] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("states:"):
            states = line.split(":", 1)[1].split()
        elif line.startswith("initial:"):
            initial = line.split(":", 1)[1].strip()
        elif line.startswith("final:"):
            final = line.split(":", 1)[1].strip()
        else:
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(
                    f"line {lineno}: expected 'state counter op state'")
            src, ctr, op, dst = parts
            if ctr not in ("1", "2"):
                raise ValueError(f"line {lineno}: counter must be 1 or 2")
            if op not in COUNTER_OPS:
                raise ValueError(f"line {lineno}: op must be one of "
                                 f"{'/'.join(COUNTER_OPS)}")
            transitions.append(Transition(src, int(ctr), op, dst))
    if not states:
        raise ValueError("missing 'states:' line")
    if not initial or not final:
        raise ValueError("missing 'initial:' or 'final:' line")
    return MinskyMachine(tuple(states), initial, final, tuple(transitions))


def render_machine(m: MinskyMachine) -> str:
    lines = [f"states: {' '.join(m.states)}",
             f"initial: {m.initial}",
             f"final: {m.final}"]
    lines.extend(str(t) for t in m.transitions)
    return "\n".join(lines) + "\n"


def validate_machine(m: MinskyMachine
                     ) -> tuple[bool, Optional[tuple[Transition, Transition]]]:
    """Reversibility-determinism: two transitions may share a source or a
    target only when they test the same counter for Z and P."""
    for a, b in itertools.combinations(m.transitions, 2):
        if a.source == b.source or a.target == b.target:
            if not (a.counter == b.counter and {a.op, b.op} == {"Z", "P"}):
                return False, (a, b)
    return True, None


def _enabled(t: Transition, cfg: Config) -> bool:
    if t.source != cfg.state:
        return False
    value = cfg.c1 if t.counter == 1 else cfg.c2
    if t.op == "Z":
        return value == 0
    if t.op == "P":
        return value > 0
    if t.op == "-":
        return value > 0   # matches the encoding, whose lhs requires s(x)
    return True


def _apply(t: Transition, cfg: Config) -> Config:
    c1, c2 = cfg.c1, cfg.c2
    if t.op == "+":
        c1, c2 = (c1 + 1, c2) if t.counter == 1 else (c1, c2 + 1)
    elif t.op == "-":
        c1, c2 = (c1 - 1, c2) if t.counter == 1 else (c1, c2 - 1)
    return Config(t.target, c1, c2, cfg.steps + 1)


@dataclass
class Run:
    configs: list[Config]
    transitions: list[Transition]
    halted: bool          # reached the final state

    @property
    def final_config(self) -> Config:
        return self.configs[-1]

    @property
    def step_count(self) -> int:
        return len(self.transitions)


def simulate(m: MinskyMachine, start: Config, max_steps: int = 10_000) -> Run:
    """Run the unique enabled transition per step until the final state,
    a stuck configuration, or the step bound."""
    cfg = start
    run = Run([cfg], [], cfg.state == m.final)
    while not run.halted and len(run.transitions) < max_steps:
        enabled = [t for t in m.transitions if _enabled(t, cfg)]
        if not enabled:
            return run
        cfg = _apply(enabled[0], cfg)
        run.transitions.append(enabled[0])
        run.configs.append(cfg)
        run.halted = cfg.state == m.final
    return run


@dataclass(frozen=True)
class CapInstance:
    theory: Trs
    knowledge: tuple[Term, ...]
    goal: Term

    def __post_init__(self) -> None:
        for t in self.knowledge:
            if not is_ground(t):
                raise ValueError(f"knowledge term {render_term(t)} is not ground")
        if not is_ground(self.goal):
            raise ValueError("goal must be ground")


def f_name(state: str) -> str:
    return f"f_{state}"


def fp_name(state: str) -> str:
    return f"fp_{state}"


def _nat(s: Symbol, zero: Symbol, n: int) -> Term:
    t: Term = App(zero)
    for _ in range(n):
        t = App(s, (t,))
    return t


def encoding_precedence(m: MinskyMachine) -> list[str]:
    """Symbol order certifying termination of the encoding: transition
    symbols above the finalize symbol, then g, g', c, s, the state
    constants, e, 0."""
    prec: list[str] = []
    for q in m.states:
        if q != m.final:
            prec.extend([f_name(q), fp_name(q)])
    prec.extend([f_name(m.final), fp_name(m.final)])
    prec.extend(["g", "gp", "c", "s"])
    prec.extend(m.states)
    prec.extend(["e", "0"])
    return prec


def encode(m: MinskyMachine, k: int, p: int,
           kp: Optional[int] = None, pp: Optional[int] = None,
           max_steps: int = 10_000) -> CapInstance:
    """Build the rewrite theory, knowledge and goal for a machine started
    at (k, p). The finalize rule needs the halting counter values; pass
    them as kp/pp or leave them None to obtain them by simulation."""
    ok, witness = validate_machine(m)
    if not ok:
        a, b = witness
        raise ValueError(f"machine is not reversible-deterministic: "
                         f"[{a}] vs [{b}]")
    if kp is None or pp is None:
        run = simulate(m, Config(m.initial, k, p), max_steps)
        if not run.halted:
            raise ValueError("machine did not halt; supply kp/pp explicitly")
        kp, pp = run.final_config.c1, run.final_config.c2

    c = Symbol("c", 4)
    s = Symbol("s", 1)
    zero = Symbol("0", 0)
    g = Symbol("g", 1)
    gp = Symbol("gp", 1)
    e = Symbol("e", 0)
    state_syms = {q: Symbol(q, 0) for q in m.states}
    f_syms = {q: Symbol(f_name(q), 1) for q in m.states}
    fp_syms = {q: Symbol(fp_name(q), 1) for q in m.states}

    symbols: list[Symbol] = []
    for q in m.states:
        symbols.extend([f_syms[q], fp_syms[q], state_syms[q]])
    symbols.extend([c, s, zero, g, gp, e])

    x, y, z = Var("x"), Var("y"), Var("z")
    Z: Term = App(zero)
    E: Term = App(e)

    def cfg(state: str, a1: Term, a2: Term, a3: Term) -> Term:
        return App(c, (App(state_syms[state]), a1, a2, a3))

    rules: list[Rule] = [
        Rule(App(f_syms[m.final], (cfg(m.final, _nat(s, zero, kp),
                                       _nat(s, zero, pp), z),)),
             App(g, (App(c, (E, Z, Z, z)),)),
             "halt"),
        Rule(App(gp, (App(g, (App(c, (E, Z, Z, App(s, (z,)))),)),)),
             App(c, (E, Z, Z, z)),
             "unwind"),
    ]

    seen_rules: set[tuple[Term, Term]] = set()
    for i, t in enumerate(m.transitions, start=1):
        head = fp_syms[t.source] if t.op == "Z" else f_syms[t.source]
        sx, sy = App(s, (x,)), App(s, (y,))
        if t.op == "Z":
            largs = (Z, y) if t.counter == 1 else (x, Z)
            rargs = largs
        elif t.op == "P":
            largs = (sx, y) if t.counter == 1 else (x, sy)
            rargs = largs
        elif t.op == "+":
            largs = (x, y)
            rargs = (sx, y) if t.counter == 1 else (x, sy)
        elif t.op == "-":
            largs = (sx, y) if t.counter == 1 else (x, sy)
            rargs = (x, y)
        else:  # "0"
            largs = (x, y)
            rargs = (x, y)
        lhs = App(head, (cfg(t.source, largs[0], largs[1], z),))
        rhs = cfg(t.target, rargs[0], rargs[1], App(s, (z,)))
        if (lhs, rhs) in seen_rules:
            # no-op transitions on different counters encode identically
            warnings.warn(f"transition [{t}] encodes a duplicate rule; dropped")
            continue
        seen_rules.add((lhs, rhs))
        rules.append(Rule(lhs, rhs, f"t{i}"))

    theory = Trs(tuple(symbols), ("x", "y", "z"), tuple(rules))
    knowledge = App(c, (App(state_syms[m.initial]),
                        _nat(s, zero, k), _nat(s, zero, p), Z))
    goal = App(c, (E, Z, Z, Z))
    return CapInstance(theory, (knowledge,), goal)


@dataclass(frozen=True)
class Cap:
    """A context over the public signature; holes are the variables
    hole1, hole2, ... and plug() fills them with knowledge terms."""

    body: Term
    assignment: tuple[tuple[str, Term], ...]

    @property
    def holes(self) -> list[str]:
        return variables_in_order(self.body)

    def plug(self) -> Term:
        return substitute(self.body, dict(self.assignment))

    def __str__(self) -> str:
        return render_term(self.body)


def canonical_cap(m: MinskyMachine, run: Run, instance: CapInstance) -> Cap:
    """The cap read off a halting run: the transition symbols applied in
    order (the primed symbol for zero-tests), the finalize symbol, then
    one unwind per remaining step counter."""
    if not run.halted or run.step_count < 1:
        raise ValueError("run did not halt in at least one step")
    theory = instance.theory
    g = theory.symbol("g")
    gp = theory.symbol("gp")
    t: Term = Var("hole1")
    for tr in run.transitions:
        name = fp_name(tr.source) if tr.op == "Z" else f_name(tr.source)
        t = App(theory.symbol(name), (t,))
    t = App(theory.symbol(f_name(m.final)), (t,))
    t = App(gp, (t,))
    for _ in range(run.step_count - 1):
        t = App(gp, (App(g, (t,)),))
    return Cap(t, (("hole1", instance.knowledge[0]),))


@dataclass
class Deduction:
    """How a deducible term was obtained: a knowledge index, or a symbol
    applied to previously deduced terms. `parents` records, per argument,
    which construction (knowledge-using or public) it relied on."""

    term: Term
    via: str                      # 'knowledge' or symbol name
    parents: tuple[tuple[Term, bool], ...] = ()
    knowledge_index: int = -1


@dataclass
class CapSearchResult:
    cap: Optional[Cap]
    derivation: list[Deduction]
    rounds_used: int
    deduced: int
    complete: bool    # no bound was hit before closure or success

    @property
    def found(self) -> bool:
        return self.cap is not None


def cap_search(instance: CapInstance, max_term_size: int = 30,
               max_rounds: int = 12, fuel: int = DEFAULT_FUEL,
               max_apps: int = 60_000) -> CapSearchResult:
    """Bounded forward saturation of the deducible normal forms.

    Deduction closes the knowledge set under application of public
    symbols followed by normalization, keeping normal forms up to
    `max_term_size` and construction height up to `max_rounds` (height r
    terms are exactly what r rounds of naive saturation would add). A
    construction only counts as a cap when at least one knowledge term
    occurs in it: the goal is itself built from public symbols, so a
    context that ignored its holes would make every instance trivially
    solvable. Purely public terms are still deduced and usable as
    arguments inside a cap.

    The work list is prioritized: terms whose construction actually fired
    a rewrite are expanded before inert applications, and an inert unary
    wrap is immediately probed one more unary level for compositions that
    do fire (so reduce-construct-reduce chains advance without waiting on
    the inert middle term). This keeps the reachable-configuration chain
    of machine encodings ahead of the junk flood. At most `max_apps`
    applications are tried overall, and a popped item contributes at most
    `TUPLE_BUDGET_PER_ITEM` argument tuples per symbol of arity two or
    more. Exhausting any bound without success is a bounded "not found".
    """
    theory = instance.theory
    goal = instance.goal
    nf = NormalForms(theory, fuel)
    # per term: construction by taint (True = uses a knowledge leaf)
    known: dict[Term, dict[bool, Deduction]] = {}
    depth: dict[tuple[Term, bool], int] = {}
    heap: list[tuple[int, int, int, Term, bool]] = []
    processed: list[Term] = []
    processed_seen: set[Term] = set()
    seq = itertools.count()
    found = False
    complete = True
    apps = 0

    def admit(term: Term, tainted: bool, ded: Deduction, d: int,
              rewrote: bool) -> None:
        nonlocal found, complete
        if term_size(term) > max_term_size or d > max_rounds:
            complete = False
            return
        slot = known.setdefault(term, {})
        if tainted in slot:
            return
        slot[tainted] = ded
        depth[(term, tainted)] = d
        heapq.heappush(heap, (0 if rewrote else 1, 0 if tainted else 1,
                              next(seq), term, tainted))
        if tainted and term == goal:
            found = True

    for i, kt in enumerate(instance.knowledge):
        t = nf(kt)
        admit(t, True, Deduction(t, "knowledge", (), i), 1, True)

    unary = [s for s in theory.symbols if s.arity == 1]
    wide = [s for s in theory.symbols if s.arity >= 2]
    for sym in theory.symbols:
        if sym.arity == 0 and not found:
            apps += 1
            t = App(sym)
            admit(nf(t), False,
                  Deduction(t, sym.name, ()), 1, False)

    def consider(sym: Symbol, args: tuple[Term, ...],
                 taints: tuple[bool, ...]) -> Term:
        nonlocal apps
        apps += 1
        raw = App(sym, args)
        t = nf(raw)
        tainted = any(taints)
        d = 1 + max(depth[(a, f)] for a, f in zip(args, taints))
        admit(t, tainted, Deduction(t, sym.name, tuple(zip(args, taints))),
              d, t != raw)
        return t

    while heap and not found and apps < max_apps:
        _, _, _, t, tainted = heapq.heappop(heap)
        for sym in unary:
            if found or apps >= max_apps:
                break
            u = consider(sym, (t,), (tainted,))
            if u != App(sym, (t,)) or (u, tainted) not in depth:
                continue
            # inert wrap: probe one more unary level, keep what rewrites
            for sym2 in unary:
                if found or apps >= max_apps:
                    break
                apps += 1
                raw2 = App(sym2, (u,))
                t2 = nf(raw2)
                if t2 != raw2:
                    admit(t2, tainted,
                          Deduction(t2, sym2.name, ((u, tainted),)),
                          depth[(u, tainted)] + 1, True)
        if t not in processed_seen:
            processed_seen.add(t)
            processed.append(t)
        for sym in wide:
            if found or apps >= max_apps:
                break
            budget = TUPLE_BUDGET_PER_ITEM
            for slot in range(sym.arity):
                if budget < 0 or found or apps >= max_apps:
                    break
                for rest in itertools.product(processed, repeat=sym.arity - 1):
                    budget -= 1
                    complete = complete and budget >= 0
                    if budget < 0 or found or apps >= max_apps:
                        break
                    args = rest[:slot] + (t,) + rest[slot:]
                    if 1 + sum(term_size(a) for a in args) > max_term_size:
                        complete = False
                        continue
                    taints = tuple(
                        tainted if i == slot
                        else (False if False in known[a] else True)
                        for i, a in enumerate(args))
                    consider(sym, args, taints)
    if not found and (heap or apps >= max_apps):
        complete = False

    if not found:
        max_depth = max(depth.values(), default=0)
        return CapSearchResult(None, [], max_depth, len(known), complete)

    derivation: list[Deduction] = []
    assignment: list[tuple[str, Term]] = []
    counter = itertools.count(1)

    def build(t: Term, taint_flag: bool) -> Term:
        ded = known[t][taint_flag]
        derivation.append(ded)
        if ded.via == "knowledge":
            hole = f"hole{next(counter)}"
            assignment.append((hole, instance.knowledge[ded.knowledge_index]))
            return Var(hole)
        return App(theory.symbol(ded.via),
                   tuple(build(a, flag) for a, flag in ded.parents))

    body = build(goal, True)
    derivation.reverse()
    cap = Cap(body, tuple(assignment))
    return CapSearchResult(cap, derivation, depth[(goal, True)],
                           len(known), complete)
