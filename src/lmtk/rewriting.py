"""Rewrite rules, systems, and the rewriting relation.

Rewriting is leftmost-innermost with first-rule-in-order tie breaking, so
traces are deterministic and replayable. Every search here is fuel-guarded:
input systems are not trusted to terminate until the checker says so.
Bounded searches (subterm collapse) report the bound they ran at instead of
pretending to be complete.
"""

from __future__ import annotations

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
    _rebuilt,
    enumerate_terms,
    fresh_name,
    match_many,
    match_term,
    render_position,
    render_term,
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

    @classmethod
    def unchecked(cls, lhs: Term, rhs: Term, label: str = "") -> "Rule":
        """The rule `Rule(lhs, rhs, label)` without the checks, for a caller
        whose lhs is no variable and whose rhs variables lie among the
        lhs's by construction."""
        rule = object.__new__(cls)
        rule.__dict__.update(lhs=lhs, rhs=rhs, label=label)
        return rule

    def __str__(self) -> str:
        head = f"[{self.label}] " if self.label else ""
        return f"{head}{render_term(self.lhs)} -> {render_term(self.rhs)}"

    def variables(self) -> set[str]:
        return variables_of(self.lhs) | variables_of(self.rhs)


# a rule as `Trs.rules_by_root` files it: its shape, one (root symbol
# name or None for a variable, node count) pair per lhs argument, read
# against a term's argument tuple alone, and the rule
_RootEntry = tuple[tuple[tuple[Optional[str], int], ...], Rule]


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
    def rules_by_root(self) -> dict[str, tuple[_RootEntry, ...]]:
        """Rules grouped by lhs root symbol, file order preserved, each
        with the root symbol name (None for a variable) and node count of
        each lhs argument: from a symbol and an argument tuple alone,
        matching skips rules that cannot apply before it calls the
        matcher."""
        out: dict[str, list[_RootEntry]] = {}
        for r in self.rules:
            assert isinstance(r.lhs, App)
            shape = tuple((None, 1) if isinstance(a, Var)
                          else (a.sym.name, term_size(a)) for a in r.lhs.args)
            out.setdefault(r.lhs.sym.name, []).append((shape, r))
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def unary_argument_roots(self) -> dict[str, Optional[frozenset[str]]]:
        """Per unary symbol with rules, by name: the root symbol names of
        an argument under which one of its rules can match at the root,
        read off the shapes of `rules_by_root`; None when a rule has a
        variable argument, under which any root can. A unary term whose
        symbol is not here, or whose argument's root is not in its set,
        fails `_root_step`'s head check on every rule: it is no root
        redex, decided before any call."""
        out: dict[str, Optional[frozenset[str]]] = {}
        for name, entries in self.rules_by_root.items():
            heads = {shape[0][0] for shape, _ in entries if len(shape) == 1}
            if heads:
                out[name] = None if None in heads else frozenset(heads)
        return out

    @cached_property
    def _symbols_by_name(self) -> dict[str, Symbol]:
        return {s.name: s for s in self.symbols}

    @cached_property
    def symbol_names(self) -> frozenset[str]:
        """The names of the declared symbols, which fresh variable names
        avoid."""
        return frozenset(self._symbols_by_name)

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
    source: Term
    target: Term

    def __str__(self) -> str:
        return (f"[{self.rule_label}] at {render_position(self.position)}: "
                f"{render_term(self.source)} -> {render_term(self.target)}")


class FuelExhausted(Exception):
    """Rewriting did not finish within the step budget, or the term outgrew
    MAX_TERM_NODES (`outgrew`), which the message names. `trace` is the
    sequence of steps rewriting took; `normalize` passes a read-only
    sequence whose steps are built on first read, by one run of the walk
    without the loop check (its length costs nothing), and which
    compares equal to the list of the same steps.

    `normalize` also raises it as soon as its walk has entered a loop,
    which would never end: with the step count and bound at which the
    walk would stop."""

    def __init__(self, trace: Sequence[RewriteStep], outgrew: bool):
        bound = (f"term outgrew {MAX_TERM_NODES} nodes" if outgrew
                 else "fuel exhausted")
        super().__init__(f"{bound} after {len(trace)} steps")
        self.trace = trace
        self.outgrew = outgrew


# one step as `normalize` records it: rule label, position and the
# rewritten subterm; the whole terms come from `_steps`
_Record = tuple[str, Position, Term]


def _steps(t: Term, records: list[_Record]) -> list[RewriteStep]:
    """The trace of `records` from start term `t`, in one pass."""
    out: list[RewriteStep] = []
    for label, p, r in records:
        target = replace_at(t, p, r)
        out.append(RewriteStep(label, p, t, target))
        t = target
    return out


class _LazyTrace(abc.Sequence):
    """The trace of a normalization that ran out of fuel, built on first
    read by `build`. Callers that catch FuelExhausted mostly drop it
    unread, and building it costs a run of the walk and a whole-term
    rebuild per step.
    Unhashable, like the list it stands for, since it defines `__eq__`."""

    __slots__ = ("_length", "_build", "_built")

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


def _root_step(trs: Trs, sym: Symbol,
               args: tuple[Term, ...]) -> Optional[tuple[Rule, Subst]]:
    """The first rule in file order whose lhs matches the term `sym(args)`
    at the root, with its matcher; None when that term is no redex. The
    only place that decides which rule fires. It reads only the symbol
    and the arguments, so it needs no built term: `rules_by_root` fixes
    the root symbol, and only the lhs arguments are matched against
    `args`.

    Before matching, a rule is skipped when a lhs argument that is no
    variable has another root symbol than the argument opposite it, or
    more nodes (a matcher maps its nodes onto distinct nodes of that
    argument; Graf, Term Indexing, LNAI 1053)."""
    for shape, rule in trs.rules_by_root.get(sym.name, ()):
        for a, (head, size) in zip(args, shape):
            if head is not None and (a.__class__ is not App
                                     or a.sym.name != head
                                     or a._size < size):
                break
        else:
            sigma = match_many(zip(rule.lhs.args, args))
            if sigma is not None:
                return rule, sigma
    return None


def is_root_redex(trs: Trs, sym: Symbol, args: tuple[Term, ...]) -> bool:
    """Whether some rule rewrites the term `sym(args)` at the root, read
    from the symbol and the arguments alone: that term is never built."""
    return _root_step(trs, sym, args) is not None


def normalize(trs: Trs, t: Term, fuel: int = DEFAULT_FUEL) -> tuple[Term, list[RewriteStep]]:
    """Leftmost-innermost normal form with its trace.

    One iterative bottom-up walk (rewriting can exceed the interpreter
    recursion limit). Each spine frame holds a node and its argument list,
    and `path` the 1-based index of the argument being walked; the
    arguments left of it are normal, so the first redex the walk meets is
    the leftmost-innermost one. After a step the walk re-enters the new
    subterm, but not the matcher's values: they lie below an innermost
    redex, so they are normal, and `sigma` keeps them alive until the next
    step replaces it and `normal_ids` together, so their ids cannot be
    reused.

    A step records only its rule, position and rewritten subterm, and the
    whole term's size is kept by difference, so a step costs no rebuild of
    the term. On success the trace's source and target terms are built
    from the records in one pass. Raises FuelExhausted, naming the bound,
    if a redex remains after `fuel` steps, or right after the step that
    takes the term over MAX_TERM_NODES. The raise builds no term and
    keeps no record: the trace is built only if read, by one run of the
    walk without the loop check.

    The walk also stops as soon as it has entered a loop, and raises the
    FuelExhausted it would reach. It keeps a mark: the redex of the step
    it was set at, n, moved on at step 2n + 1 (Brent's power-of-two
    checkpoints, BIT 1980), and at the next step once the walk finishes
    a node at or above the mark's depth, so leaves the mark's subterm. A
    later redex equal to the mark therefore lies in that subterm, which
    the walk has not left: its steps since the mark depend on it alone,
    and took it from u to C[u] in P steps. Rewriting is deterministic, so
    the next P steps take the u inside to C[u] again, and so on forever,
    each period adding the nodes of C (a loop u ->+ C[u]; Payet, TCS
    2008). `_loop_stop` computes where the walk would stop from the sizes
    of one period. A cut raise is built as any other: its trace, too,
    comes on first read from one run of the walk without the check.
    """
    records, stop = _walk(trs, t, fuel, True)
    if stop is not None:
        raise _stopped(trs, t, fuel, *stop)
    trace = _steps(t, records)
    return (trace[-1].target if trace else t), trace


def _walk(trs: Trs, t: Term, fuel: int,
          cut: bool) -> tuple[list[_Record], Optional[tuple[int, bool]]]:
    """The records of `normalize`'s walk from `t`, and where it stops:
    None when it reaches the normal form, else the step count and
    `outgrew` of its FuelExhausted. With `cut`, the loop check that
    `normalize` describes."""
    records: list[_Record] = []
    # sizes[n]: the whole term's size after n steps
    sizes = [term_size(t)]
    spine: list[tuple[App, list[Term]]] = []
    path: list[int] = []
    normal_ids: set[int] = set()
    size = sizes[0]
    # the mark's redex, step count and depth, and the step it moves at;
    # no node is finished at depth -1, so without `cut` it never moves
    mark: Optional[Term] = None
    mark_at, mark_depth, move_at = 0, -1, 0
    u, entering = t, True
    while True:
        if entering and id(u) in normal_ids:
            hit = None
        elif entering and isinstance(u, App) and u.args:
            spine.append((u, list(u.args)))
            path.append(1)
            u = u.args[0]
            continue
        elif u.__class__ is App:
            # every argument of u is normal: try the root
            hit = _root_step(trs, u.sym, u.args)
        else:
            hit = None
        if hit is not None:
            n = len(records)
            if n >= fuel:
                return records, (n, False)
            if cut:
                if u == mark:
                    return records, _loop_stop(sizes, mark_at, fuel)
                if n == move_at:
                    mark, mark_at, mark_depth = u, n, len(path)
                    move_at = 2 * n + 1
            rule, sigma = hit
            normal_ids = {id(v) for v in sigma.values()}
            r = substitute(rule.rhs, sigma)
            size += term_size(r) - term_size(u)
            records.append((rule.label, tuple(path), r))
            sizes.append(size)
            u, entering = r, True
            if size > MAX_TERM_NODES:
                return records, (len(records), True)
        elif not spine:
            return records, None
        else:
            if len(path) <= mark_depth:
                # u is finished, and the walk leaves the mark's subterm
                mark, move_at = None, len(records)
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


def _loop_stop(sizes: list[int], mark: int, fuel: int) -> tuple[int, bool]:
    """The step count and `outgrew` at which a walk stops that repeats
    forever its steps since step `mark`, the period that `sizes` ends
    with, each repeat adding the nodes the period added. After offset o
    of the period the term has z = sizes[mark + o] nodes, so with growth
    d > 0 that offset first crosses MAX_TERM_NODES in repeat
    (MAX_TERM_NODES - z) // d + 1."""
    period, grow = len(sizes) - 1 - mark, sizes[-1] - sizes[mark]
    cross = min((mark + o + ((MAX_TERM_NODES - sizes[mark + o]) // grow + 1)
                 * period for o in range(1, period + 1)) if grow else (),
                default=fuel + 1)
    return (cross, True) if cross <= fuel else (fuel, False)


def _stopped(trs: Trs, t: Term, fuel: int, steps: int,
             outgrew: bool) -> FuelExhausted:
    """The FuelExhausted of the walk from `t` at `fuel`, predicted to stop
    after `steps` steps on the bound `outgrew` names: by the walk itself,
    by a loop cut, or by a `NormalForms` query from its hand-over. The one
    place that builds it. Its trace is built on first read, by one run of
    the walk without the loop check, which raises RuntimeError if that
    run does not stop as predicted."""

    def build() -> list[RewriteStep]:
        records, stop = _walk(trs, t, fuel, False)
        if stop != (steps, outgrew):
            raise RuntimeError(f"a raise at fuel {fuel} predicted a stop "
                               f"after {steps} steps that the walk does "
                               f"not make")
        return _steps(t, records)
    return FuelExhausted(_LazyTrace(steps, build), outgrew)


def nf(trs: Trs, t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    return normalize(trs, t, fuel)[0]


class NormalForms:
    """`nf(trs, t, fuel)` for many terms of one run, built from the normal
    forms of their subterms (Efficient Annotated Terms, van den Brand et
    al., SP&E 2000).

    The memo maps each query, each subterm answered on its way, each term
    handed over to `normalize`, and each normal form. For a term that
    took steps it also keeps the step count and the peak term size, both
    as `normalize` counts them on that term alone.

    Every query is decided bottom-up, one level at a time. A term whose
    arguments the memo has all answered adds up their step counts and
    peaks in order, as `normalize` takes their steps left to right. If
    that crosses the fuel, or an argument's peak plus the size of the
    rest of the term crosses MAX_TERM_NODES, `normalize` runs on the
    query and raises the identical FuelExhausted. Otherwise the term is
    rebuilt from its arguments' normal forms, or kept as it is if none
    took a step. Each rebuilt term is one object for the life of the
    instance, kept in a table by its root symbol and the ids of the
    normal forms it is built from; it holds them, so their ids stay
    valid, and its memo and cost lookups hit by identity. A memoized
    rebuilt term adds its own steps in the same way; one whose root is
    no redex is normal; any other is handed over to `normalize` with the
    fuel that is left. That is exactly the term
    `normalize` reaches from the query after those steps, so the normal
    form, the size checks and the place it stops are the same. A
    FuelExhausted from there is raised again from the query, with the
    bound it names and a trace that counts the steps before the
    hand-over; that trace is built only if read, by one run of the walk
    from the query without the loop check.

    A query with an argument the memo never answered first has every
    subterm the memo lacks answered, innermost first. Leftmost-innermost
    rewriting normalizes each of them before it takes any step above
    it, so if one gets stuck on its own, the query is stuck as well: it
    is handed over whole, and `normalize` raises its own FuelExhausted.
    A term that runs out of fuel is not memoized. A query that enters a
    loop stops soon after its hand-over: `normalize` stops at the loop's
    first repeated redex, with the raise the whole budget would give.

    The root phase stays in the public `normalize`: perfbench counts its
    calls and steps there, and its traced `cap` run requires every cap
    search normalization to be such a call. A normal form is returned as
    the memo's own object, so a later query that contains it finds it by
    identity. A query the memo answers through an equal key of another
    object takes that key over, in the memo and in the step counts, so
    the caller's object is found by identity from then on, as when the
    collapse search reuses an enumerated term as an argument of later
    ones. Build one per call that normalizes many terms; nothing
    outlives it.
    """

    def __init__(self, trs: Trs, fuel: int = DEFAULT_FUEL):
        self.trs = trs
        self.fuel = fuel
        self.memo: dict[Term, Term] = {}
        # (steps, peak size) of the memoized terms that took steps
        self.cost: dict[Term, tuple[int, int]] = {}
        # the rebuilt terms, by root symbol and the ids of their arguments
        self.built: dict[tuple, App] = {}

    def __call__(self, t: Term) -> Term:
        memo = self.memo
        known = memo.get(t)
        if known is not None:
            if known is not t:
                # a query that is the memo's own normal form is mostly
                # its key already, so it skips the re-insert: `cap`
                # re-queries many such terms
                self._take_over(t, known)
            return known
        if t.__class__ is not App:
            return t  # a variable is normal
        for a in t.args:
            if memo.get(a) is not a:
                return self._one_level(t)
        # the common query: its arguments are known normal
        if _root_step(self.trs, t.sym, t.args) is None:
            memo[t] = t
            return t
        return self._hand_over(t, t, 0, 0)

    def _one_level(self, t: App) -> Term:
        """`t` decided from its arguments' answers: their steps and peaks
        added up in order, then the rebuilt term looked up, its root
        tried, or handed over. If the memo never answered an argument,
        its subterms are answered first, by `_bottom_up`."""
        memo = self.memo
        steps = peak = 0
        size = t._size
        args: list[Term] = []
        # `normalize` takes the arguments' steps left to right, so a bound
        # crossed in one is crossed before any argument right of it
        for a in t.args:
            v = memo.get(a)
            if v is None:
                if a.__class__ is App:
                    return self._bottom_up(t)
                v = memo[a] = a  # a variable is normal
            elif v is not a:
                counted = self._spend(a, v, steps, peak, size)
                if counted is None:
                    return self._hand_over(t, t, 0, 0)
                steps, peak, size = counted
            args.append(v)
        # with no step taken, every argument equals its answer, so `t`
        # stands for the rebuilt term: a copy would make each later
        # lookup of `t` compare the two node by node
        if steps:
            key = (t.sym, *map(id, args))
            u = self.built.get(key)
            if u is None:
                u = self.built[key] = App(t.sym, tuple(args))
            v = memo.get(u)
        else:
            u, v = t, None
        if v is not None:
            counted = self._spend(u, v, steps, peak, size)
            if counted is None:
                return self._hand_over(t, t, 0, 0)
            steps, peak, _ = counted
        elif _root_step(self.trs, u.sym, u.args) is None:
            v = u
        else:
            return self._hand_over(t, u, steps, peak)
        return self._keep(t, v, steps, peak)

    def _take_over(self, t: Term, known: Term) -> None:
        """Make `t` the key of its entries in the memo, answered `known`,
        and in the step counts if it took steps."""
        memo, cost = self.memo, self.cost
        del memo[t]
        memo[t] = known
        counted = cost.pop(t, None)
        if counted is not None:
            cost[t] = counted

    def _bottom_up(self, t: App) -> Term:
        """`t` decided in one level once every subterm of it the memo
        lacks is answered, innermost first, each in one level too: a loop
        over an explicit stack, since terms outgrow the recursion limit.
        Each `_one_level` call here meets only answered arguments."""
        memo = self.memo
        todo = [a for a in t.args if a.__class__ is App and a not in memo]
        try:
            while todo:
                b = todo[-1]
                if b in memo:
                    todo.pop()  # lacked twice, as in h(g(c), g(c))
                    continue
                lacking = [c for c in b.args
                           if c.__class__ is App and c not in memo]
                if lacking:
                    todo += lacking
                    continue
                todo.pop()
                self._one_level(b)
        except FuelExhausted:
            # leftmost-innermost rewriting normalizes each subterm of `t`
            # before it takes any step above it, so `t` is stuck as well
            return self._hand_over(t, t, 0, 0)
        return self._one_level(t)

    def _spend(self, u: Term, v: Term, steps: int, peak: int,
               size: int) -> Optional[tuple[int, int, int]]:
        """The steps, peak and size of the whole term once its memoized
        subterm `u` is replaced by its normal form `v`, from those before;
        None when `normalize` stops inside `u`."""
        known = self.cost.get(u)
        if known is None:
            return steps, peak, size
        taken, top = known
        rest = size - term_size(u)
        if steps + taken > self.fuel or rest + top > MAX_TERM_NODES:
            return None
        return steps + taken, max(peak, rest + top), rest + term_size(v)

    def _keep(self, t: Term, u: Term, steps: int, peak: int) -> Term:
        """Memoize `u` as the normal form of `t`, reached in `steps`
        steps with sizes up to `peak`; the memo's own object for it."""
        memo = self.memo
        u = memo.setdefault(u, u)
        memo[t] = u
        if steps:
            self.cost[t] = steps, peak
        return u

    def _hand_over(self, t: Term, whole: Term, steps: int, peak: int) -> Term:
        """Normalize `t` from `whole`, the term its normalization reaches
        after `steps` steps with sizes up to `peak`, and memoize it."""
        trs, fuel = self.trs, self.fuel
        try:
            out, trace = normalize(trs, whole, fuel - steps)
        except FuelExhausted as e:
            # `whole` gets stuck where `t` does
            raise _stopped(trs, t, fuel, steps + len(e.trace),
                           e.outgrew) from None
        # a root redex was found, so the trace is not empty
        taken = len(trace)
        top = max(term_size(s.target) for s in trace)
        if whole is not t:
            self._keep(whole, out, taken, top)
        return self._keep(t, out, steps + taken, max(peak, top))


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


def enumeration_variables(trs: Trs) -> list[str]:
    """Two variable names to enumerate terms with: declared ones first."""
    names = list(trs.variables)
    while len(names) < 2:
        names.append(fresh_name("v", trs.symbol_names.union(names)))
    return names[:2]


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
    subterms, that is, in the set of some argument: the normal forms of
    the argument and of all its subterms. A term that is its own normal
    form is larger than every normal form below it, so it skips that
    test. The sets are built when a test first reads them, each once,
    from the term's own normal form and its arguments' sets, by a loop
    that first builds the sets its arguments lack. Every term below an
    enumerated one was enumerated and queried before it, so their normal
    forms are read from the memo. Only a term that collapses has its
    subterms walked, in pre-order, for the first witness position.
    """
    vars_ = enumeration_variables(trs)
    nf = NormalForms(trs, fuel)
    # the sets of the arguments of tested terms and of their subterms;
    # terms of the last depth are never arguments
    reach: dict[Term, set[Term]] = {}

    def reach_of(a: Term) -> set[Term]:
        out = reach.get(a)
        if out is not None:
            return out
        todo = [a]
        while todo:
            b = todo[-1]
            if b in reach:
                todo.pop()  # lacked twice, as in f(x, x)
                continue
            args = b.args if b.__class__ is App else ()
            lacking = [c for c in args if c not in reach]
            if lacking:
                todo += lacking
                continue
            todo.pop()
            out = {nf(b)}
            for c in args:
                out |= reach[c]
            reach[b] = out
        return reach[a]

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
        if u_nf is u:
            continue
        if any(u_nf in reach_of(a) for a in u.args):
            for p, sub in subterms(u):
                if p and nf(sub) == u_nf:
                    return CollapseSearchResult((u, p), max_depth, checked, exhausted)
    return CollapseSearchResult(None, max_depth, checked, exhausted)
