"""Rewrite rules, systems, and the rewriting relation.

Rewriting is leftmost-innermost with first-rule-in-order tie breaking, so
traces are deterministic and replayable. Every search here is fuel-guarded:
input systems are not trusted to terminate until the checker says so.
Bounded searches (subterm collapse) report the bound they ran at instead of
pretending to be complete.
"""

from __future__ import annotations

import operator
from collections import abc
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .terms import (
    App,
    Position,
    Subst,
    Symbol,
    Term,
    Var,
    enumerate_terms,
    match_term,
    render_position,
    render_term,
    rename_pair_apart,
    replace_at,
    substitute,
    subterm_at,
    subterms,
    term_size,
    variables_of,
)

DEFAULT_FUEL = 10_000

# normalization bails out once a term outgrows this many nodes; legitimate
# desk-scale normal forms stay far below it, while rules that inflate their
# input would otherwise make every step arbitrarily costly
MAX_TERM_NODES = 5_000


@dataclass(frozen=True)
class Rule:
    lhs: Term
    rhs: Term
    label: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Var):
            raise ValueError(f"rule {self.label or render_term(self.lhs)}: left side is a variable")
        extra = variables_of(self.rhs) - variables_of(self.lhs)
        if extra:
            raise ValueError(
                f"rule {self.label or render_term(self.lhs)}: right side introduces "
                f"variables {sorted(extra)}"
            )

    def __str__(self) -> str:
        head = f"[{self.label}] " if self.label else ""
        return f"{head}{render_term(self.lhs)} -> {render_term(self.rhs)}"

    def variables(self) -> set[str]:
        return variables_of(self.lhs) | variables_of(self.rhs)

    def renamed_apart(self, avoid: set[str]) -> "Rule":
        lhs, rhs = rename_pair_apart(self.lhs, self.rhs, avoid)
        return Rule(lhs, rhs, self.label)


@dataclass(frozen=True)
class Trs:
    """An ordered rewrite system with its signature."""

    symbols: tuple[Symbol, ...]
    variables: tuple[str, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        by_name: dict[str, int] = {}
        for s in self.symbols:
            if s.name in by_name:
                raise ValueError(f"symbol {s.name} declared twice")
            by_name[s.name] = s.arity
        labels = [r.label for r in self.rules]
        if len(set(labels)) != len(labels):
            raise ValueError("rule labels are not unique")

    @cached_property
    def rules_by_root(self) -> dict[str, tuple[tuple[int, Rule], ...]]:
        """Rules grouped by lhs root symbol, file order preserved, each
        with its lhs size; lets matching skip rules that cannot apply."""
        out: dict[str, list[tuple[int, Rule]]] = {}
        for r in self.rules:
            assert isinstance(r.lhs, App)
            out.setdefault(r.lhs.sym.name, []).append((term_size(r.lhs), r))
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def _symbols_by_name(self) -> dict[str, Symbol]:
        return {s.name: s for s in self.symbols}

    @cached_property
    def _rules_by_label(self) -> dict[str, Rule]:
        return {r.label: r for r in self.rules}

    def symbol(self, name: str) -> Symbol:
        return self._symbols_by_name[name]

    def rule(self, label: str) -> Rule:
        return self._rules_by_label[label]

    def with_rules(self, rules: Sequence[Rule]) -> "Trs":
        """Same signature, different rule list; declared variables are
        extended by whatever the new rules use."""
        used: list[str] = list(self.variables)
        for r in rules:
            for v in sorted(r.variables()):
                if v not in used:
                    used.append(v)
        return Trs(self.symbols, tuple(used), tuple(rules))


@dataclass(frozen=True)
class RewriteStep:
    rule_label: str
    position: Position
    subst_items: tuple[tuple[str, Term], ...]
    source: Term
    target: Term

    def __str__(self) -> str:
        return (f"[{self.rule_label}] at {render_position(self.position)}: "
                f"{render_term(self.source)} -> {render_term(self.target)}")


class FuelExhausted(Exception):
    """Rewriting did not finish within the step budget, or the term outgrew
    MAX_TERM_NODES. `term` is the term rewriting stopped at; `trace` is the
    sequence of steps that led there from the start term. `normalize`
    passes a read-only sequence whose steps are built on first read (its
    length costs nothing); it compares equal to the list of the same
    steps.

    The message names the bound that stopped rewriting. A step that leaves
    the term over MAX_TERM_NODES stops it at once, and the fuel is checked
    before a step, with the term as the last step left it; so a stuck term
    over MAX_TERM_NODES after at least one step means the size bound."""

    def __init__(self, term: Term, trace: Sequence[RewriteStep]):
        steps = len(trace)
        # the stuck term can be enormous; keep it off the message
        if steps and term_size(term) > MAX_TERM_NODES:
            bound = f"term outgrew {MAX_TERM_NODES} nodes"
        else:
            bound = "fuel exhausted"
        super().__init__(f"{bound} after {steps} steps")
        self.term = term
        self.trace = trace


# one step as `normalize` records it: rule label, position, sorted matcher
# items and the rewritten subterm; the whole terms come from `_steps`
_Record = tuple[str, Position, tuple[tuple[str, Term], ...], Term]


def _steps(t: Term, records: list[_Record]) -> list[RewriteStep]:
    """The trace of `records` from start term `t`, in one pass."""
    out: list[RewriteStep] = []
    for label, p, items, r in records:
        target = replace_at(t, p, r)
        out.append(RewriteStep(label, p, items, t, target))
        t = target
    return out


class _LazyTrace(abc.Sequence):
    """The trace of a normalization that ran out of fuel, built on first
    read by `build`. Callers that catch FuelExhausted mostly drop the trace
    unread, and building it costs a whole-term rebuild per step."""

    __slots__ = ("_length", "_build", "_built")
    __hash__ = None  # like the list it stands for

    def __init__(self, length: int, build: Callable[[], list[RewriteStep]]):
        self._length = length
        self._build = build
        self._built: Optional[list[RewriteStep]] = None

    def _list(self) -> list[RewriteStep]:
        if self._built is None:
            self._built = self._build()
        return self._built

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i):
        return self._list()[i]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _LazyTrace):
            other = other._list()
        if not isinstance(other, list):
            return NotImplemented
        return self._list() == other

    def __repr__(self) -> str:
        return repr(self._list())


def apply_rule(rule: Rule, t: Term, p: Position) -> Optional[tuple[Term, Subst]]:
    """`t` rewritten by `rule` at `p`, with the matcher; None when the lhs
    does not match there. For callers that already hold the rule."""
    sigma = match_term(rule.lhs, subterm_at(t, p))
    if sigma is None:
        return None
    return replace_at(t, p, substitute(rule.rhs, sigma)), sigma


def _root_step(trs: Trs, u: Term) -> Optional[tuple[Rule, Subst]]:
    """The first rule in file order whose lhs matches `u` at the root, with
    its matcher; None when `u` is no redex. The only place that decides
    which rule fires."""
    if isinstance(u, Var):
        return None
    # a matcher maps the lhs nodes onto distinct nodes of `u`, so a
    # larger lhs cannot match
    for size, rule in trs.rules_by_root.get(u.sym.name, ()):
        if size <= u._size:
            sigma = match_term(rule.lhs, u)
            if sigma is not None:
                return rule, sigma
    return None


def is_reducible(trs: Trs, t: Term) -> bool:
    return any(_root_step(trs, u) is not None for _, u in subterms(t))


def _rebuilt(node: App, args: list[Term]) -> Term:
    """`node` with arguments `args`, or `node` itself if none changed."""
    if all(map(operator.is_, args, node.args)):
        return node
    return App(node.sym, tuple(args))


def normalize(trs: Trs, t: Term, fuel: int = DEFAULT_FUEL) -> tuple[Term, list[RewriteStep]]:
    """Leftmost-innermost normal form with its trace.

    One iterative bottom-up walk (rewriting can exceed the interpreter
    recursion limit). Each spine frame holds a node and its argument list,
    and `path` the 1-based index of the argument being walked; the
    arguments left of it are normal, so the first redex the walk meets is
    the leftmost-innermost one. After a step the walk re-enters the new
    subterm, but not the matcher's values: they lie below an innermost
    redex, so they are normal, and the step records keep them alive, so
    their ids cannot be reused.

    A step records only its rule, position, matcher and rewritten subterm,
    and the whole term's size is kept by difference, so a step costs no
    rebuild of the term. On success the trace's source and target terms
    are built from the records in one pass. Raises FuelExhausted if a
    redex remains after `fuel` steps, or the term outgrows MAX_TERM_NODES;
    its term is built once from the spine, and its trace is built only if
    read.
    """
    records: list[_Record] = []
    spine: list[tuple[App, list[Term]]] = []
    path: list[int] = []
    normal_ids: set[int] = set()
    size = term_size(t)
    u, entering = t, True

    def stuck() -> FuelExhausted:
        # the whole term, once; with no step taken that is `t` itself
        whole = u
        for (node, args), i in zip(reversed(spine), reversed(path)):
            args[i - 1] = whole
            whole = _rebuilt(node, args)
        return FuelExhausted(whole, _LazyTrace(len(records),
                                               lambda: _steps(t, records)))

    while True:
        if entering and id(u) in normal_ids:
            hit = None
        elif entering and isinstance(u, App) and u.args:
            spine.append((u, list(u.args)))
            path.append(1)
            u = u.args[0]
            continue
        else:
            # every argument of u is normal: try the root
            hit = _root_step(trs, u)
        if hit is not None:
            if len(records) >= fuel:
                raise stuck()
            rule, sigma = hit
            normal_ids = {id(v) for v in sigma.values()}
            r = substitute(rule.rhs, sigma)
            size += term_size(r) - term_size(u)
            records.append((rule.label, tuple(path),
                            tuple(sorted(sigma.items())), r))
            u, entering = r, True
            if size > MAX_TERM_NODES:
                raise stuck()
        elif not spine:
            trace = _steps(t, records)
            return (trace[-1].target if trace else t), trace
        else:
            node, args = spine[-1]
            i = path[-1]
            args[i - 1] = u
            if i < len(args):
                path[-1] = i + 1
                u, entering = args[i], True
            else:
                spine.pop()
                path.pop()
                u, entering = _rebuilt(node, args), False


def nf(trs: Trs, t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    return normalize(trs, t, fuel)[0]


class NormalForms:
    """`nf(trs, t, fuel)` for many terms of one run, built from the normal
    forms of their subterms (Efficient Annotated Terms, van den Brand et
    al., SP&E 2000).

    The memo maps each query that took steps, each normal form, and each
    normal proper subterm a query walked to its normal form. For a query
    that took steps it also keeps the step count and the peak term size,
    both as `normalize` counts them on that term alone. A normal query is
    not kept: searches reject most of them at once, and one that turns up
    again inside a later query is recorded then.

    A query walks its term in post-order, which is the leftmost-innermost
    order, keeping the step count and the size of the whole term as
    `normalize` does. A memoized subterm is replaced by its normal form and
    adds its steps; if that crosses the fuel, or its peak plus the size of
    the rest of the term crosses MAX_TERM_NODES, `normalize` runs on the
    query and raises the identical FuelExhausted. A node whose arguments
    are normal and whose root is no redex is recorded as normal. At the
    first root redex the walk hands the whole term over to `normalize`
    with the fuel that is left. The parts left of the redex are normalized
    and the parts right of it still raw: that is exactly the term
    `normalize` reaches from the query after those steps, so the normal
    form, the size checks and the stuck term are the same. A FuelExhausted
    from there is raised again with the same term and a trace that counts
    the steps before the hand-over; that trace is built only if read, by
    running `normalize` on the query.

    The root phase stays in the public `normalize`: perfbench counts its
    calls and steps there, and its traced `cap` run requires every cap
    search normalization to be such a call. A normal form that took steps
    is returned as the memo's own object, so a later query that contains
    it finds it by identity. Build one per call that normalizes many
    terms; nothing outlives it.
    """

    def __init__(self, trs: Trs, fuel: int = DEFAULT_FUEL):
        self.trs = trs
        self.fuel = fuel
        self.memo: dict[Term, Term] = {}
        # (steps, peak size) of the memoized terms that took steps
        self.cost: dict[Term, tuple[int, int]] = {}

    def __call__(self, t: Term) -> Term:
        memo = self.memo
        known = memo.get(t)
        if known is not None:
            return known
        if t.__class__ is not App:
            return t  # a variable is normal
        for a in t.args:
            if memo.get(a) is not a:
                return self._walk(t)
        # the common query: its arguments are known normal
        if _root_step(self.trs, t) is None:
            return t
        return self._hand_over(t, t, 0, 0)

    def _walk(self, t: Term) -> Term:
        memo, cost, trs = self.memo, self.cost, self.trs
        # spine frames and `path` as in `normalize`; left of the walk the
        # arguments are normal, right of it raw
        spine: list[tuple[App, list[Term]]] = []
        path: list[int] = []
        steps = peak = 0
        size = term_size(t)
        u, entering = t, True
        while True:
            v = memo.get(u) if entering and spine else None
            if v is None:
                if entering and u.__class__ is App and u.args:
                    spine.append((u, list(u.args)))
                    path.append(1)
                    u = u.args[0]
                    continue
                # every argument of u is normal: try the root
                if _root_step(trs, u) is not None:
                    break
                if spine:
                    u = memo.setdefault(u, u)
            elif v is not u and u in cost:
                taken, top = cost[u]
                rest = size - term_size(u)
                if steps + taken > self.fuel or rest + top > MAX_TERM_NODES:
                    # `normalize` stops inside u
                    return self._hand_over(t, t, 0, 0)
                steps += taken
                peak = max(peak, rest + top)
                size = rest + term_size(v)
                u = v
            if not spine:
                if steps:
                    u = memo.setdefault(u, u)
                    memo[t] = u
                    cost[t] = steps, peak
                return u
            node, args = spine[-1]
            i = path[-1]
            args[i - 1] = u
            if i < len(args):
                path[-1] = i + 1
                u, entering = args[i], True
            else:
                spine.pop()
                path.pop()
                u, entering = _rebuilt(node, args), False
        # the whole term at its first root redex
        for (node, args), i in zip(reversed(spine), reversed(path)):
            args[i - 1] = u
            u = _rebuilt(node, args)
        return self._hand_over(t, u, steps, peak)

    def _hand_over(self, t: Term, whole: Term, steps: int, peak: int) -> Term:
        """Normalize `t` from `whole`, the term its normalization reaches
        after `steps` steps with sizes up to `peak`, and memoize it."""
        trs, fuel, memo = self.trs, self.fuel, self.memo
        try:
            out, trace = normalize(trs, whole, fuel - steps)
        except FuelExhausted as e:
            if not steps:
                raise
            raise FuelExhausted(e.term, _LazyTrace(
                steps + len(e.trace), lambda: _trace_of_stuck(trs, t, fuel))
            ) from None
        # a root redex was found, so the trace is not empty
        out = memo.setdefault(out, out)
        memo[t] = out
        self.cost[t] = (steps + len(trace),
                        max(peak, *(term_size(s.target) for s in trace)))
        return out


def _trace_of_stuck(trs: Trs, t: Term, fuel: int) -> list[RewriteStep]:
    """The trace `normalize` gives when `t` runs out of fuel."""
    try:
        normalize(trs, t, fuel)
    except FuelExhausted as e:
        return list(e.trace)
    raise RuntimeError(f"{render_term(t)} normalizes within fuel {fuel}")


def replay(trs: Trs, t: Term, trace: Sequence[RewriteStep]) -> Term:
    """Re-run a trace step by step; raises if any step does not apply."""
    for step in trace:
        hit = apply_rule(trs.rule(step.rule_label), t, step.position)
        if hit is None:
            raise ValueError(f"step {step} does not apply to {render_term(t)}")
        t = hit[0]
        if t != step.target:
            raise ValueError(f"step {step} replayed to {render_term(t)}")
    return t


def is_eps_irreducible(trs: Trs, t: Term) -> bool:
    """Every proper subterm irreducible (the root may still be a redex)."""
    return all(_root_step(trs, u) is None for p, u in subterms(t) if p)


def is_innermost_redex(trs: Trs, t: Term) -> bool:
    return _root_step(trs, t) is not None and is_eps_irreducible(trs, t)


def enumeration_variables(trs: Trs, count: int = 2) -> list[str]:
    """Up to `count` variable names usable for bounded term enumeration."""
    names = list(trs.variables)
    k = 1
    while len(names) < count:
        cand = f"v{k}"
        if cand not in names and all(cand != s.name for s in trs.symbols):
            names.append(cand)
        k += 1
    return names[:count]


@dataclass
class CollapseSearchResult:
    witness: Optional[tuple[Term, Position]]
    max_depth: int
    terms_checked: int
    exhausted: bool  # every term up to max_depth was enumerated

    @property
    def collapsing(self) -> bool:
        return self.witness is not None


def subterm_collapse_search(trs: Trs, max_depth: int = 5,
                            max_terms: int = 4000,
                            fuel: int = DEFAULT_FUEL) -> CollapseSearchResult:
    """Bounded search for a term equal (modulo the system) to one of its
    proper subterms.

    Enumerates terms with at most two distinct variables up to `max_depth`,
    capped at `max_terms` (arity-4 signatures explode well before depth 5).
    Absence of a witness is a verdict *up to these bounds* only.

    A term collapses iff its normal form is among those of its proper
    subterms. Every argument of an enumerated term was enumerated and
    checked before it, so that set is the union, over the arguments, of
    each argument's normal form and set. Only a term that collapses has
    its subterms walked, in pre-order, for the first witness position.
    """
    vars_ = enumeration_variables(trs, 2)
    nf = NormalForms(trs, fuel)
    # the sets of the terms that turned up as arguments; terms of the
    # last depth never do
    below: dict[Term, set[Term]] = {}

    def nfs_below(a: Term) -> set[Term]:
        out = below.get(a)
        if out is None:
            out = below[a] = set()
            for b in (a.args if isinstance(a, App) else ()):
                out.add(nf(b))
                out.update(below.get(b, ()))
        return out

    checked = 0
    exhausted = True
    for u in enumerate_terms(trs.symbols, vars_, max_depth):
        if checked >= max_terms:
            exhausted = False
            break
        checked += 1
        if isinstance(u, Var):
            continue
        u_nf = nf(u)
        if any(nf(a) == u_nf or u_nf in nfs_below(a) for a in u.args):
            for p, sub in subterms(u):
                if p and nf(sub) == u_nf:
                    return CollapseSearchResult((u, p), max_depth, checked, exhausted)
    return CollapseSearchResult(None, max_depth, checked, exhausted)


def enumerate_ground_irreducible(trs: Trs, max_depth: int,
                                 limit: int) -> list[Term]:
    """First `limit` irreducible ground terms up to `max_depth`, in
    enumeration order."""
    out: list[Term] = []
    for t in enumerate_terms(trs.symbols, (), max_depth):
        if not is_reducible(trs, t):
            out.append(t)
            if len(out) >= limit:
                break
    return out
