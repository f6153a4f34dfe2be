"""Reversible deterministic two-counter machines and the cap problem.

A machine is a set of states with 4-tuple transitions [q, j, x, q']:
in state q, test or update counter j (Z zero-test, P positive-test,
+ increment, - decrement, 0 no-op) and move to q'. The reversibility
condition allows two transitions to share a source or a target state only
as a Z/P test pair on the same counter. That keeps the encoding below free
of critical pairs only if, besides, no transition leaves the final state:
the rule of such a transition and the finalize rule share their root
symbol and overlap at the root. `MinskyMachine` rejects such a
transition; `validate_machine` checks the reversibility condition alone.

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
from contextlib import suppress
from dataclasses import dataclass
from typing import Optional

from .rewriting import DEFAULT_FUEL, NormalForms, Rule, Trs, is_root_redex
from .terms import (
    App,
    Symbol,
    Term,
    Var,
    fresh_name,
    is_ground,
    render_term,
    substitute,
    term_size,
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
        for i, q in enumerate(self.states):
            if q in self.states[:i]:
                raise ValueError(f"state {q} declared twice")
        if self.initial not in self.states or self.final not in self.states:
            raise ValueError("initial and final states must be declared")
        for t in self.transitions:
            if t.source not in self.states or t.target not in self.states:
                raise ValueError(f"transition {t} uses undeclared states")
            if t.counter not in (1, 2) or t.op not in COUNTER_OPS:
                raise ValueError(f"bad transition {t}")
            if t.source == self.final:
                raise ValueError(
                    f"transition {t} leaves the final state {self.final}")


@dataclass(frozen=True)
class Config:
    state: str
    c1: int
    c2: int
    steps: int = 0

    def __post_init__(self) -> None:
        if min(self.c1, self.c2, self.steps) < 0:
            raise ValueError("counter values and steps must be 0 or more")


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
    at (k, p). The finalize rule needs both halting counters, kp and pp;
    left None, both come from a simulation. One alone is a ValueError."""
    if any(n is not None and n < 0 for n in (k, p, kp, pp)):
        raise ValueError("counter values must be 0 or more")
    if (kp is None) != (pp is None):
        raise ValueError("give both halting counters kp and pp, or neither")
    ok, witness = validate_machine(m)
    if not ok:
        a, b = witness
        raise ValueError(f"machine is not reversible-deterministic: "
                         f"[{a}] vs [{b}]")
    if kp is None:
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

    # each symbol name by what needs it, so that a clash names its state
    fixed = (c, s, zero, g, gp, e)
    owners = {sym.name: "the encoding" for sym in fixed}
    symbols: list[Symbol] = []
    for q in m.states:
        for sym in (f_syms[q], fp_syms[q], state_syms[q]):
            if sym.name in owners:
                raise ValueError(f"state {q} clashes with {owners[sym.name]}"
                                 f": both need the symbol {sym.name}")
            owners[sym.name] = f"state {q}"
            symbols.append(sym)
    symbols.extend(fixed)

    # x, y and z unless a state takes one of them
    x, y, z = (Var(fresh_name(v, set(owners)) if v in owners else v)
               for v in "xyz")
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
        rules.append(Rule(lhs, rhs, f"t{i}"))

    theory = Trs(tuple(symbols), (x.name, y.name, z.name), tuple(rules))
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
    via: str                      # symbol name, or 'knowledge' on a leaf
    parents: tuple[tuple[Term, bool], ...] = ()
    knowledge_index: int = -1     # >= 0 exactly on a knowledge leaf
    depth: int = 1                # construction height


@dataclass
class CapSearchResult:
    cap: Optional[Cap]
    derivation: list[Deduction]
    rounds_used: int
    deduced: int
    complete: bool    # no bound was hit and no combination was skipped

    @property
    def found(self) -> bool:
        return self.cap is not None


class _Stop(Exception):
    """Ends `cap_search`: the goal is deduced or `max_apps` is spent."""


def cap_search(instance: CapInstance, max_term_size: int = 30,
               max_rounds: int = 12, fuel: int = DEFAULT_FUEL,
               max_apps: int = 60_000) -> CapSearchResult:
    """Bounded forward saturation of the deducible normal forms.

    Deduction closes the knowledge set under application of public
    symbols followed by normalization, keeping normal forms up to
    `max_term_size` and construction height up to `max_rounds` (height r
    terms are exactly what r rounds of naive saturation would add).
    Deduction is modulo the theory, so the goal is matched by its normal
    form. A construction only counts as a cap when at least one knowledge
    term occurs in it: the goal is itself built from public symbols, so a
    context that ignored its holes would make every instance trivially
    solvable. Purely public terms are still deduced and usable as
    arguments inside a cap.

    The work list is prioritized: terms whose construction actually fired
    a rewrite are expanded before inert applications, and an inert unary
    wrap is immediately probed one more unary level for compositions that
    do fire (so reduce-construct-reduce chains advance without waiting on
    the inert middle term). A probe costs one application like any other,
    and one that cannot rewrite at the root is never built. Most are
    decided from the argument's root symbol before any call: no rule of
    the probing symbol can match under it (`Trs.unary_argument_roots`).
    The rest ask `is_root_redex`. This keeps the reachable-configuration
    chain of machine encodings ahead of the junk flood. At most
    `max_apps` applications are tried overall, and a popped item
    contributes at most `TUPLE_BUDGET_PER_ITEM` argument tuples per
    symbol of arity two or more, taking each earlier popped argument by
    its public construction when it has one. `complete` is true only if
    no bound was hit and no knowledge-using construction was skipped
    that way: only then is a miss a proof that no cap exists.
    """
    theory = instance.theory
    nf = NormalForms(theory, fuel)
    goal = nf(instance.goal)
    # per term: construction by taint (True = uses a knowledge leaf)
    known: dict[Term, dict[bool, Deduction]] = {}
    heap: list[tuple[int, int, int, Term, bool]] = []
    processed: dict[Term, int] = {}    # popped terms, in pop order: size
    seq = itertools.count()
    found = False
    complete = True
    apps = 0

    def admit(term: Term, tainted: bool, ded: Deduction,
              rewrote: bool) -> None:
        nonlocal found, complete
        if term_size(term) > max_term_size or ded.depth > max_rounds:
            complete = False
            return
        slot = known.setdefault(term, {})
        if tainted in slot:
            return
        slot[tainted] = ded
        heapq.heappush(heap, (0 if rewrote else 1, 0 if tainted else 1,
                              next(seq), term, tainted))
        if tainted and term == goal:
            found = True

    def spend(n: int = 1) -> None:
        """Charge `n` applications, checking the stop rule before each."""
        nonlocal apps
        if found:
            raise _Stop
        apps += n
        if apps > max_apps:
            apps = max_apps
            raise _Stop

    def step(sym: Symbol, args: tuple[Term, ...], taints: tuple[bool, ...],
             depth: int, rewriting_only: bool = False) -> Optional[Term]:
        """Admit the normal form of `sym(args)`, of construction height
        `depth` (with `rewriting_only`, only if it rewrote); return it if
        it is an inert wrap, else None. The arguments are normal forms, so
        a probe that is no root redex is normal: it is never built, and
        returns None. The probes decided from the argument's root symbol
        before any call never come here; the rest are decided from `sym`
        and `args`."""
        spend()
        if rewriting_only and not is_root_redex(theory, sym, args):
            return None
        raw = App(sym, args)
        t = nf(raw)
        rewrote = t is not raw and t != raw
        if rewrote or not rewriting_only:
            parents = tuple(zip(args, taints))
            admit(t, any(taints), Deduction(t, sym.name, parents, depth=depth),
                  rewrote)
        return None if rewrote else t

    for i, kt in enumerate(instance.knowledge):
        t = nf(kt)
        admit(t, True, Deduction(t, "knowledge", (), i), True)

    constants = [App(s) for s in theory.symbols if s.arity == 0]
    unary = [s for s in theory.symbols if s.arity == 1]
    wide = [s for s in theory.symbols if s.arity >= 2]
    # per unary symbol, the probes of an inert wrap it roots, in the order
    # of `unary`: (the probes dropped before it, a probe that may rewrite),
    # then (the probes dropped after the last, None). A probe is dropped
    # when no rule of its symbol can match under the wrap's root symbol
    roots = theory.unary_argument_roots
    plans = []
    for head in unary:
        plan: list[tuple[int, Optional[Symbol]]] = []
        gap = 0
        for sym2 in unary:
            heads = roots.get(sym2.name, ())
            if heads is None or head.name in heads:
                plan.append((gap, sym2))
                gap = 0
            else:
                gap += 1
        plans.append(plan + [(gap, None)] if gap else plan)
    with suppress(_Stop):
        for t in constants:
            spend()
            admit(nf(t), False, Deduction(t, t.sym.name), False)
        while heap:
            _, _, _, t, tainted = heapq.heappop(heap)
            depth = 1 + known[t][tainted].depth
            for sym, plan in zip(unary, plans):
                u = step(sym, (t,), (tainted,), depth)
                if u is not None and tainted in known.get(u, ()):
                    # inert wrap u = sym(t): probe one more unary level;
                    # a dropped probe is charged, and nothing is called
                    d = 1 + known[u][tainted].depth
                    for gap, sym2 in plan:
                        if gap:
                            spend(gap)
                        if sym2 is not None:
                            step(sym2, (u,), (tainted,), d,
                                 rewriting_only=True)
            processed[t] = size = term_size(t)
            room = max_term_size - 1 - size    # for the other arguments
            for sym in wide:
                tuples = ((slot, rest) for slot in range(sym.arity)
                          for rest in itertools.product(
                              processed, repeat=sym.arity - 1))
                for n, (slot, rest) in enumerate(tuples):
                    if n == TUPLE_BUDGET_PER_ITEM:
                        complete = False
                        break
                    if sum(map(processed.__getitem__, rest)) > room:
                        complete = False
                        continue
                    args = rest[:slot] + (t,) + rest[slot:]
                    taints = tuple(tainted if i == slot
                                   else False not in known[a]
                                   for i, a in enumerate(args))
                    step(sym, args, taints,
                         1 + max(known[a][f].depth
                                 for a, f in zip(args, taints)))
                    if not any(taints) and any(True in known[a] for a in args):
                        complete = False
    if not found and apps >= max_apps:
        complete = False

    if not found:
        rounds = max((ded.depth for slot in known.values()
                      for ded in slot.values()), default=0)
        return CapSearchResult(None, [], rounds, len(known), complete)

    # the goal's construction in pre-order, each hole numbered as met
    derivation: list[Deduction] = []
    assignment: list[tuple[str, Term]] = []
    todo = [(goal, True)]
    while todo:
        t, taint_flag = todo.pop()
        ded = known[t][taint_flag]
        derivation.append(ded)
        if ded.knowledge_index >= 0:
            assignment.append((f"hole{len(assignment) + 1}",
                               instance.knowledge[ded.knowledge_index]))
        else:
            todo += reversed(ded.parents)
    derivation.reverse()
    # backwards, a construction finds its arguments on top of `built`,
    # the first one last
    holes = [Var(hole) for hole, _ in assignment]
    built: list[Term] = []
    for ded in derivation:
        if ded.knowledge_index >= 0:
            built.append(holes.pop())
        else:
            k = len(built) - len(ded.parents)
            args = tuple(reversed(built[k:]))
            built[k:] = [App(theory.symbol(ded.via), args)]
    body = built[0]
    cap = Cap(body, tuple(assignment))
    return CapSearchResult(cap, derivation, known[goal][True].depth,
                           len(known), complete)
