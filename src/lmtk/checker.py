"""The LM-system decision pipeline.

An LM-system is a convergent, almost-left-reduced, right-reduced rewrite
system that is non-subterm-collapsing, forward-closed, and whose
right-hand-side closure is quasi-deterministic. Termination and the exact
conditions are decided outright (lexicographic path order, critical-pair
joinability); subterm collapse is undecidable and gets a bounded search
whose bound is part of the verdict.

Every condition is evaluated and recorded even after an earlier one
fails, so a report always cites every violation it can find. A system the
pipeline certifies is then run through the consequence suite: structural
facts that certified systems must satisfy (disjoint left sides, no
superpositions, no compositions, paramodulation candidates all redundant,
free constructors). A consequence failure means the certification and the
suite disagree, which is reported as an internal inconsistency rather
than a property of the input. The suite reads its overlaps off
`critical_pairs` and `compositions`; the checker unifies nothing itself.

Conditions and consequences alike are settled by `_condition`, the one
place where a hit bound (rewrite fuel) turns into an UNKNOWN entry
instead of ending the report. An open consequence never changes the
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .closure import RuleIndex, compositions, is_forward_closed
from .overlaps import (
    Equation,
    critical_pairs,
    nosup,
    paramodulation_candidates,
    rhs_closure,
)
from .rewriting import (
    DEFAULT_FUEL,
    FuelExhausted,
    NormalForms,
    Rule,
    Trs,
    enumeration_variables,
    is_root_redex,
    subterm_collapse_search,
)
from .terms import (
    App,
    ROOT,
    Term,
    Var,
    enumerate_terms,
    flatterm,
    match_term,
    render_position,
    render_term,
    subterms,
    variables_of,
)

Precedence = Sequence[str]  # symbol names, greatest first
Atom = tuple[str, str]  # (f, g): f is above g in the precedence


def _closed(atoms: frozenset[Atom]) -> Optional[frozenset[Atom]]:
    """`atoms` with every atom that transitivity adds to them; None when
    they form a cycle, which no order satisfies."""
    out = set(atoms)
    while True:
        new = {(f, h) for f, g in out for g2, h in out if g == g2} - out
        if not new:
            return frozenset(out)
        if any(f == h for f, h in new):
            return None
        out |= new


def _minimal(alternatives: list[frozenset[Atom]]) -> list[frozenset[Atom]]:
    """The satisfiable alternatives, closed under transitivity, without
    repeats or supersets of another (which imply it), smallest first.
    Closed, implication is plain subset, so wide terms, which relate many
    symbol pairs, do not multiply out alternatives that differ only in
    implied atoms."""
    kept: list[frozenset[Atom]] = []
    closed = dict.fromkeys(c for c in map(_closed, alternatives)
                           if c is not None)
    for alt in sorted(closed, key=len):
        if not any(k <= alt for k in kept):
            kept.append(alt)
    return kept


def _lpo_constraints(s: Term, t: Term, rank: dict[str, int],
                     memo: dict[tuple[Term, Term], list[frozenset[Atom]]]
                     ) -> list[frozenset[Atom]]:
    """The total precedences with the ranked symbols on top, in rank
    order, under which s is above t in the lexicographic path order, as a
    minimal list of alternatives: s > t holds iff every atom of some
    alternative holds. `[]` is never, `[frozenset()]` always; an atom the
    ranking decides is never kept. The branches are those of the
    definition: an argument of s is t or above it; or the root of s is
    above the root of t, or equal to it with the first differing
    arguments decreasing, and s is above every argument of t."""
    key = (s, t)
    if key in memo:
        return memo[key]
    if isinstance(s, Var):
        out = []
    elif isinstance(t, Var):
        out = [frozenset()] if t.name in variables_of(s) else []
    elif t in s.args:
        out = [frozenset()]
    else:
        out = []
        for a in s.args:
            out += _lpo_constraints(a, t, rank, memo)
        head: list[frozenset[Atom]] = []
        if s.sym.name != t.sym.name:
            head = _residuals([frozenset({(s.sym.name, t.sym.name)})], rank)
        elif s.sym == t.sym:
            for a, b in zip(s.args, t.args):
                if a != b:
                    head = _lpo_constraints(a, b, rank, memo)
                    break
        for c in t.args:
            if not head:
                break
            # one frame per level of recursion, as deep as the terms
            below = _lpo_constraints(s, c, rank, memo)
            head = _minimal([p | q for p in head for q in below])
        out = _minimal(out + head)
    memo[key] = out
    return out


def _residuals(alternatives: list[frozenset[Atom]], rank: dict[str, int]
               ) -> list[frozenset[Atom]]:
    """The alternatives a precedence with the ranked symbols on top, in
    rank order (smaller rank = greater symbol), can still satisfy, each cut
    down to its atoms between unranked symbols. With every symbol ranked,
    these are the satisfied alternatives, each empty."""
    below = len(rank)  # the rank every unranked symbol shares
    out = []
    for alt in alternatives:
        undecided = frozenset((f, g) for f, g in alt
                              if f not in rank and g not in rank)
        if all(rank.get(f, below) < rank.get(g, below)
               for f, g in alt - undecided):
            out.append(undecided)
    return out


def _choose(choices: list[list[frozenset[Atom]]]) -> bool:
    """Whether one alternative of each choice can be taken with no cycle
    among them all. Depth first, the choices in order and each one's
    alternatives in order, on an explicit stack: a system can leave more
    choices open than the interpreter allows frames."""
    if not choices:
        return True
    # per choice entered: the closed atoms of the choices before it and
    # its alternatives not yet tried
    stack = [(frozenset(), iter(choices[0]))]
    while stack:
        atoms, untried = stack[-1]
        for alt in untried:
            grown = _closed(atoms | alt)
            if grown is None:
                continue
            if len(stack) == len(choices):
                return True
            stack.append((grown, iter(choices[len(stack)])))
            break
        else:
            stack.pop()
    return False


def _feasible(constraints: list[list[frozenset[Atom]]],
              rank: dict[str, int]) -> bool:
    """Whether some total precedence with the ranked symbols on top, in
    rank order, satisfies every rule's constraints: exactly when each rule
    has an alternative the ranking leaves satisfiable and the chosen
    alternatives' undecided atoms are acyclic together."""
    choices = []
    for alternatives in constraints:
        rest = _residuals(alternatives, rank)
        if not rest:
            return False
        if frozenset() not in rest:
            choices.append(rest)
    return _choose(sorted(choices, key=len))


@dataclass
class TerminationResult:
    ok: bool
    precedence: Optional[list[str]] = None   # certificate when ok
    failing_rule: Optional[str] = None


def check_termination(trs: Trs, precedence: Optional[Precedence] = None
                      ) -> TerminationResult:
    """LPO termination. With a precedence, which must name each symbol of
    the signature once (ValueError otherwise), check lhs > rhs for every
    rule and name the first rule that fails. Without one, find the first
    total precedence orienting every rule, ordering precedences
    lexicographically by the symbols' places in the signature, at any
    signature size: read each rule's constraints off the LPO definition,
    then fill each place with the first symbol left whose placement keeps
    them satisfiable, as `_feasible` decides exactly."""
    names = [s.name for s in trs.symbols]
    memo: dict[tuple[Term, Term], list[frozenset[Atom]]] = {}
    if precedence is not None:
        missing = set(names) - set(precedence)
        if missing:
            raise ValueError(f"precedence does not cover {sorted(missing)}")
        if len(precedence) != len(names):
            raise ValueError("precedence must name each symbol exactly "
                             f"once, got {','.join(precedence)}")
        rank = {n: i for i, n in enumerate(precedence)}
        for r in trs.rules:
            if not _lpo_constraints(r.lhs, r.rhs, rank, memo):
                return TerminationResult(False, failing_rule=r.label)
        return TerminationResult(True, list(precedence))
    constraints = []
    for r in trs.rules:
        constraints.append(_lpo_constraints(r.lhs, r.rhs, {}, memo))
        if not constraints[-1]:  # no precedence orients r
            return TerminationResult(False)
    if not _feasible(constraints, {}):
        return TerminationResult(False)
    order: list[str] = []
    rest = names
    while rest:
        # a feasible prefix extends by some symbol, so the last one left
        # needs no test
        for f in rest[:-1]:
            if _feasible(constraints,
                         {n: i for i, n in enumerate([*order, f])}):
                break
        else:
            f = rest[-1]
        order.append(f)
        rest = [n for n in rest if n != f]
    return TerminationResult(True, order)


@dataclass
class ConfluenceResult:
    ok: bool
    pair_count: int
    unjoinable: list = field(default_factory=list)  # CriticalPair entries


def check_confluence(trs: Trs, fuel: int = DEFAULT_FUEL) -> ConfluenceResult:
    """For terminating systems: confluent iff every critical pair joins."""
    pairs = critical_pairs(trs)
    nf = NormalForms(trs, fuel)
    bad = [cp for cp in pairs if nf(cp.left) != nf(cp.right)]
    return ConfluenceResult(not bad, len(pairs), bad)


def right_reduce(trs: Trs, fuel: int = DEFAULT_FUEL) -> Trs:
    """Replace every right-hand side by its normal form."""
    nf = NormalForms(trs, fuel)
    rules = [Rule(r.lhs, nf(r.rhs), r.label) for r in trs.rules]
    return trs.with_rules(rules)


@dataclass
class Deletion:
    rule: Rule
    position: tuple[int, ...]
    matched: str   # label of the rule whose lhs occurs properly inside

    def __str__(self) -> str:
        return (f"deleted {self.rule} (lhs contains an instance of "
                f"{self.matched} at {render_position(self.position)})")


def almost_left_reduce(trs: Trs) -> tuple[Trs, list[Deletion]]:
    """Drop, in rule order, each rule whose lhs properly contains an
    instance of another remaining rule's lhs. Root overlaps are left alone.
    One pass suffices: a deletion only shrinks the set later rules are
    checked against, so a rule kept earlier would stay kept."""
    rules = list(trs.rules)
    log: list[Deletion] = []
    for r in trs.rules:
        hit = _proper_lhs_instance(r, [x for x in rules if x is not r])
        if hit is not None:
            p, other = hit
            log.append(Deletion(r, p, other.label))
            rules.remove(r)
    return trs.with_rules(rules), log


def _proper_lhs_instance(rule: Rule, others: Sequence[Rule]):
    for p, sub in subterms(rule.lhs):
        if p and isinstance(sub, App):
            for other in others:
                if match_term(other.lhs, sub) is not None:
                    return p, other
    return None


def is_variable_preserving(trs: Trs) -> tuple[bool, Optional[str]]:
    for r in trs.rules:
        if variables_of(r.lhs) != variables_of(r.rhs):
            return False, r.label
    return True, None


@dataclass
class QdViolation:
    kind: str           # 'variable-side' | 'root-stable' | 'root-pair-repetition'
    equations: list[Equation]

    def __str__(self) -> str:
        eqs = "; ".join(str(e) for e in self.equations)
        return f"{self.kind}: {eqs}"


@dataclass
class QdReport:
    ok: bool
    violations: list[QdViolation] = field(default_factory=list)


def is_quasi_deterministic(equations: Sequence[Equation]) -> QdReport:
    """No variable sides, no equation with equal root symbols, and no two
    equations sharing an unordered root pair."""
    violations: list[QdViolation] = []
    for eq in equations:
        if isinstance(eq.lhs, Var) or isinstance(eq.rhs, Var):
            violations.append(QdViolation("variable-side", [eq]))
    for eq in equations:
        rp = eq.root_pair()
        if rp is not None and rp[0] == rp[1]:
            violations.append(QdViolation("root-stable", [eq]))
    seen: dict[frozenset[str], Equation] = {}
    for eq in equations:
        urp = eq.unordered_root_pair()
        if urp is None:
            continue
        if urp in seen:
            violations.append(QdViolation("root-pair-repetition", [seen[urp], eq]))
        else:
            seen[urp] = eq
    return QdReport(not violations, violations)


@dataclass
class Condition:
    name: str
    verdict: str                  # 'pass' | 'fail' | 'unknown'
    detail: str = ""
    bounded: bool = False

    def line(self) -> str:
        flag = {"pass": "PASS", "fail": "FAIL", "unknown": "UNKNOWN"}[self.verdict]
        note = f" ({self.detail})" if self.detail else ""
        return f"{self.name:<28}{flag}{note}"


@dataclass
class LmReport:
    conditions: list[Condition] = field(default_factory=list)
    consequences: list[Condition] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    collapse_depth: int = 0

    @property
    def verdict(self) -> str:
        if any(c.verdict == "fail" for c in self.conditions):
            return "fail"
        if any(c.verdict == "unknown" for c in self.conditions):
            return "unknown"
        return "pass"

    @property
    def bounded(self) -> bool:
        return any(c.bounded for c in self.conditions)

    def condition(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        if self.verdict == "pass":
            note = (f" (collapse bounded at depth {self.collapse_depth})"
                    if self.bounded else "")
            return f"LM-system: PASS{note}"
        if self.verdict == "fail":
            failed = ", ".join(c.name for c in self.conditions if c.verdict == "fail")
            return f"LM-system: FAIL ({failed})"
        open_ = ", ".join(c.name for c in self.conditions if c.verdict == "unknown")
        return f"LM-system: UNKNOWN ({open_})"


@dataclass
class CheckOptions:
    precedence: Optional[Precedence] = None
    collapse_depth: int = 5
    collapse_terms: int = 4000
    consequence_depth: int = 3
    fuel: int = DEFAULT_FUEL


def _condition(name: str, decide: Callable[[], tuple],
               fuel_note: str = "fuel exhausted") -> Condition:
    """The condition `name` as `decide()` settles it, from the rest of the
    `Condition` fields it returns. Running out of rewrite fuel, the one
    bound that can stop a decision, leaves the condition open with
    `fuel_note`."""
    try:
        return Condition(name, *decide())
    except FuelExhausted:
        return Condition(name, "unknown", fuel_note)


def lm_verdict(trs: Trs, opts: Optional[CheckOptions] = None) -> LmReport:
    """Run the full pipeline. The seven conditions are evaluated in a fixed
    order and all of them are reported, so a failing system still gets
    every witness attributed."""
    opts = opts or CheckOptions()
    report = LmReport(collapse_depth=opts.collapse_depth)
    add = report.conditions.append

    def terminating():
        res = check_termination(trs, opts.precedence)
        if res.ok:
            return "pass", f"LPO precedence: {' > '.join(res.precedence)}"
        return "fail", (f"no LPO orientation (rule {res.failing_rule})"
                        if res.failing_rule else "no LPO precedence found")
    add(_condition("terminating", terminating))

    def confluent():
        if report.condition("terminating").verdict != "pass":
            return "unknown", "termination not established"
        conf = check_confluence(trs, opts.fuel)
        if conf.ok:
            return "pass", f"{conf.pair_count} critical pairs, all join"
        return "fail", "; ".join(str(cp) for cp in conf.unjoinable[:3])
    add(_condition("confluent", confluent, "fuel exhausted joining pairs"))

    def right_reduced():
        reduced = right_reduce(trs, opts.fuel)
        changed = [r.label for r, r2 in zip(trs.rules, reduced.rules)
                   if r.rhs != r2.rhs]
        if changed:
            return "fail", f"reducible rhs in {', '.join(changed)}"
        return ("pass",)
    add(_condition("right-reduced", right_reduced,
                   "fuel exhausted normalizing rhs"))

    def almost_left_reduced():
        _, deletions = almost_left_reduce(trs)
        if deletions:
            return "fail", "; ".join(str(d) for d in deletions)
        return ("pass",)
    add(_condition("almost-left-reduced", almost_left_reduced))

    def non_collapsing():
        col = subterm_collapse_search(trs, opts.collapse_depth,
                                      opts.collapse_terms, opts.fuel)
        if col.collapsing:
            u, p = col.witness
            return "fail", (f"{render_term(u)} collapses to its subterm at "
                            f"{render_position(p)}")
        scope = (f"depth {col.max_depth}, {col.terms_checked} terms"
                 + ("" if col.exhausted else ", enumeration capped"))
        return "pass", f"bounded: {scope}", True
    add(_condition("non-subterm-collapsing", non_collapsing,
                   "fuel exhausted during search"))

    def forward_closed():
        ok, witness = is_forward_closed(trs)
        if ok:
            return "pass", "all compositions redundant"
        return "fail", f"new rule {witness.rule}"
    add(_condition("forward-closed", forward_closed))

    def rhs_quasi_deterministic():
        closure = rhs_closure(trs)
        qd = is_quasi_deterministic(closure)
        if qd.ok:
            return "pass", f"{len(closure)} equations"
        return "fail", "; ".join(str(v) for v in qd.violations)
    add(_condition("rhs quasi-deterministic", rhs_quasi_deterministic))

    # informational: not an LM condition, but a hypothesis of the
    # closure-of-rhs characterization some property tests rely on
    vp, vp_witness = is_variable_preserving(trs)
    report.notes.append(
        "variable-preserving" if vp
        else f"not variable-preserving (rule {vp_witness})")

    if report.verdict == "pass":
        report.consequences = consequence_checks(trs, opts.consequence_depth,
                                                 opts.fuel)
    return report


INTERNAL_INCONSISTENCY = "INTERNAL-INCONSISTENCY"
FREENESS_POOL = 600  # terms the freeness check draws from the enumeration


def freeness_pool(trs: Trs, depth: int) -> list[App]:
    """The first FREENESS_POOL terms up to `depth`, in enumeration order,
    whose arguments are all irreducible. Each argument was enumerated at
    an earlier depth, so the set of irreducible terms met so far decides
    it: the variables, and the pool terms whose root is no redex."""
    irreducible: set[Term] = set()
    pool: list[App] = []
    for t in enumerate_terms(trs.symbols, enumeration_variables(trs), depth):
        if t.__class__ is Var:
            irreducible.add(t)
        elif all(map(irreducible.__contains__, t.args)):
            pool.append(t)
            if len(pool) >= FREENESS_POOL:
                break
            if not is_root_redex(trs, t.sym, t.args):
                irreducible.add(t)
    return pool


def consequence_checks(trs: Trs, depth: int = 3,
                       fuel: int = DEFAULT_FUEL) -> list[Condition]:
    """Structural facts every certified system satisfies. Run only after
    certification; a failure here is reported as an internal inconsistency
    between the checker and these facts. A fact whose check hits a bound
    is open, like a condition."""
    out: list[Condition] = []

    def add(name: str, violations: Callable[[], str],
            fuel_note: str = "fuel exhausted") -> None:
        # `violations()` cites what breaks the fact, "" when nothing does
        def decide():
            bad = violations()
            return ("fail", f"{INTERNAL_INCONSISTENCY}: {bad}") if bad \
                else ("pass",)
        out.append(_condition(name, decide, fuel_note))

    # (a) no two distinct rules have unifiable left sides: the root
    # critical pairs, outer rule before inner in rule order
    order = {r.label: i for i, r in enumerate(trs.rules)}
    add("lhs pairwise non-unifiable", lambda: ", ".join(
        f"{cp.outer}/{cp.inner}" for cp in critical_pairs(trs)
        if cp.position == ROOT and order[cp.outer] < order[cp.inner]))

    # (b) no rhs unifies with a distinct rule's lhs: the root compositions,
    # and every pair whose first rhs is a variable (it unifies with any
    # lhs renamed apart, but has no non-variable position to compose at)
    comps = compositions(trs.rules, trs.rules, trs.symbol_names)
    at_root = {(c.source.label, c.base.label) for c in comps
               if c.position == ROOT}
    add("rhs/lhs non-unifiable", lambda: ", ".join(
        f"{r1.label}->{r2.label}" for r1 in trs.rules for r2 in trs.rules
        if r1 is not r2 and (isinstance(r1.rhs, Var)
                             or (r1.label, r2.label) in at_root)))

    # (c) no non-overlay superpositions
    add("no superpositions",
        lambda: ", ".join(render_term(t) for t in nosup(trs)[:3]))

    # (d) no compositions at all (stronger than redundancy)
    add("no compositions",
        lambda: ", ".join(str(c.candidate()) for c in comps[:3]))

    # (e) every paramodulation conclusion is redundant (a conclusion is an
    # unordered equation, so subsumption tries both orientations)
    def unsaturated() -> str:
        bad = []
        index = RuleIndex(trs.symbols, trs.rules)
        for cand in paramodulation_candidates(trs):
            eq = cand.conclusion
            if eq.lhs == eq.rhs:
                continue
            if not (index.subsumed(flatterm((eq.lhs, eq.rhs)))
                    or index.subsumed(flatterm((eq.rhs, eq.lhs)))):
                bad.append(str(cand))
        return "; ".join(bad[:3])
    add("paramodulation saturated", unsaturated)

    # (f) freeness: distinct same-root terms with irreducible arguments
    # never join (they join when their normal forms are equal, so one
    # normalize per term)
    def joined() -> str:
        bad = []
        seen_nf: dict[tuple[str, Term], Term] = {}
        nf = NormalForms(trs, fuel)
        for t in freeness_pool(trs, depth):
            key = (t.sym.name, nf(t))
            if key in seen_nf:
                bad.append(f"{render_term(seen_nf[key])} ~ {render_term(t)}")
            else:
                seen_nf[key] = t
        return "; ".join(bad[:3])
    add("free over the signature", joined,
        "fuel exhausted normalizing the pool")

    return out
