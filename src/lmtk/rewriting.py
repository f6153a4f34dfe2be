"""Rewrite rules, systems, and the rewriting relation.

Rewriting is leftmost-innermost with first-rule-in-order tie breaking, so
traces are deterministic and replayable. Every search here is fuel-guarded:
input systems are not trusted to terminate until the checker says so.
Bounded searches (subterm collapse) report the bound they ran at instead of
pretending to be complete.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .terms import (
    App,
    Position,
    ROOT,
    Subst,
    Symbol,
    Term,
    Var,
    enumerate_terms,
    match_term,
    positions,
    render_position,
    render_term,
    rename_pair_apart,
    replace_at,
    substitute,
    subterm_at,
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
    def rules_by_root(self) -> dict[str, tuple[Rule, ...]]:
        """Rules grouped by lhs root symbol, file order preserved; lets
        matching skip rules that cannot apply."""
        out: dict[str, list[Rule]] = {}
        for r in self.rules:
            assert isinstance(r.lhs, App)
            out.setdefault(r.lhs.sym.name, []).append(r)
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

    @property
    def subst(self) -> Subst:
        return dict(self.subst_items)

    def __str__(self) -> str:
        return (f"[{self.rule_label}] at {render_position(self.position)}: "
                f"{render_term(self.source)} -> {render_term(self.target)}")


class FuelExhausted(Exception):
    """Rewriting did not finish within the step budget."""

    def __init__(self, term: Term, trace: list[RewriteStep]):
        # the stuck term can be enormous; keep it off the message
        super().__init__(f"fuel exhausted after {len(trace)} steps")
        self.term = term
        self.trace = trace


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
    for rule in trs.rules_by_root.get(u.sym.name, ()):
        sigma = match_term(rule.lhs, u)
        if sigma is not None:
            return rule, sigma
    return None


def rewrite_at(trs: Trs, t: Term, p: Position) -> Optional[tuple[Term, RewriteStep]]:
    """Apply the first rule (in file order) whose lhs matches t at p."""
    hit = _root_step(trs, subterm_at(t, p))
    if hit is None:
        return None
    rule, sigma = hit
    target = replace_at(t, p, substitute(rule.rhs, sigma))
    return target, RewriteStep(rule.label, p, tuple(sorted(sigma.items())), t, target)


def is_reducible(trs: Trs, t: Term) -> bool:
    # iterative: fuel-bounded rewriting can build terms deeper than the
    # interpreter recursion limit
    stack = [t]
    while stack:
        u = stack.pop()
        if _root_step(trs, u) is not None:
            return True
        if isinstance(u, App):
            stack.extend(u.args)
    return False


def normalize(trs: Trs, t: Term, fuel: int = DEFAULT_FUEL) -> tuple[Term, list[RewriteStep]]:
    """Leftmost-innermost normal form with its trace.

    One iterative bottom-up walk (rewriting can exceed the interpreter
    recursion limit). Each spine frame holds a node, its argument list and
    the cursor index; the arguments left of the cursor are normal, so the
    first redex the walk meets is the leftmost-innermost one. After a step
    the walk re-enters the new subterm.

    Raises FuelExhausted (carrying the partial trace) if a redex remains
    after `fuel` steps, or the term outgrows MAX_TERM_NODES.
    """
    trace: list[RewriteStep] = []
    spine: list[list] = []
    whole, u, entering = t, t, True
    while True:
        if entering and isinstance(u, App) and u.args:
            spine.append([u, list(u.args), 0])
            u = u.args[0]
        # else every argument of u is normal: try the root
        elif (hit := _root_step(trs, u)) is not None:
            if len(trace) >= fuel:
                raise FuelExhausted(whole, trace)
            rule, sigma = hit
            u = target = substitute(rule.rhs, sigma)
            for node, args, i in reversed(spine):
                target = App(node.sym, (*args[:i], target, *args[i + 1:]))
            trace.append(RewriteStep(
                rule.label, tuple(i + 1 for _, _, i in spine),
                tuple(sorted(sigma.items())), whole, target))
            whole, entering = target, True
            if term_size(whole) > MAX_TERM_NODES:
                raise FuelExhausted(whole, trace)
        elif not spine:
            return whole, trace
        else:
            frame = spine[-1]
            node, args, i = frame
            args[i] = u
            if i + 1 < len(args):
                frame[2] = i + 1
                u, entering = args[i + 1], True
            else:
                spine.pop()
                unchanged = all(map(operator.is_, args, node.args))
                u = node if unchanged else App(node.sym, tuple(args))
                entering = False


def normalize_outermost(trs: Trs, t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Leftmost-outermost normal form; used to cross-check strategy
    independence on convergent systems. Sorted positions are in pre-order,
    so the first one that rewrites holds the leftmost-outermost redex."""
    for steps in itertools.count():
        hit = next(filter(None, (rewrite_at(trs, t, p)
                                 for p in sorted(positions(t)))), None)
        if hit is None:
            return t
        if steps >= fuel:
            raise FuelExhausted(t, [])
        t = hit[0]
        if term_size(t) > MAX_TERM_NODES:
            raise FuelExhausted(t, [])


def nf(trs: Trs, t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    return normalize(trs, t, fuel)[0]


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
    if isinstance(t, Var):
        return True
    return all(not is_reducible(trs, a) for a in t.args)


def is_innermost_redex(trs: Trs, t: Term) -> bool:
    return _root_step(trs, t) is not None and is_eps_irreducible(trs, t)


def eps_normal_form(trs: Trs, t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Normalize all proper subterms, never rewriting at the root."""
    if isinstance(t, Var):
        return t
    return App(t.sym, tuple(nf(trs, a, fuel) for a in t.args))


def odp(s: Term, t: Term) -> set[Position]:
    """Outermost positions where the two terms carry different symbols
    (a variable counts as its name; a missing position is a mismatch)."""
    out: set[Position] = set()

    def walk(a: Term, b: Term, prefix: Position) -> None:
        la = a.name if isinstance(a, Var) else a.sym.name
        lb = b.name if isinstance(b, Var) else b.sym.name
        if la != lb:
            out.add(prefix)
            return
        if isinstance(a, Var) or isinstance(b, Var):
            return
        for i, (x, y) in enumerate(zip(a.args, b.args), start=1):
            walk(x, y, prefix + (i,))

    walk(s, t, ROOT)
    return out


def joinable(trs: Trs, s: Term, t: Term, fuel: int = DEFAULT_FUEL
             ) -> tuple[bool, Optional[Term]]:
    """Whether s and t have the same normal form (valid for convergent
    systems); the witness is the common normal form."""
    a = nf(trs, s, fuel)
    b = nf(trs, t, fuel)
    return (a == b, a if a == b else None)


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
    """
    vars_ = enumeration_variables(trs, 2)
    checked = 0
    exhausted = True
    for u in enumerate_terms(trs.symbols, vars_, max_depth):
        if checked >= max_terms:
            exhausted = False
            break
        checked += 1
        if isinstance(u, Var):
            continue
        u_nf = nf(trs, u, fuel)
        for p in sorted(positions(u)):
            if p == ROOT:
                continue
            if nf(trs, subterm_at(u, p), fuel) == u_nf:
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
