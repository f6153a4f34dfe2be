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
than a property of the input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .closure import compositions, is_forward_closed
from .overlaps import (
    Equation,
    critical_pairs,
    nosup,
    overlap_sites,
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
    is_eps_irreducible,
    subterm_collapse_search,
)
from .terms import (
    App,
    ROOT,
    Term,
    Var,
    enumerate_terms,
    match_many,
    match_term,
    mgu,
    positions,
    render_position,
    render_term,
    subterm_at,
    variables_of,
)

Precedence = Sequence[str]  # symbol names, greatest first
SEARCH_LIMIT = 8  # symbols; the precedence search tries every ordering


def lpo_greater(s: Term, t: Term, rank: dict[str, int]) -> bool:
    """Lexicographic path order induced by a total precedence (smaller
    rank = greater symbol)."""
    if isinstance(s, Var):
        return False
    if isinstance(t, Var):
        return t.name in variables_of(s)
    if any(a == t or lpo_greater(a, t, rank) for a in s.args):
        return True
    rs, rt = rank[s.sym.name], rank[t.sym.name]
    if rs < rt:
        return all(lpo_greater(s, b, rank) for b in t.args)
    if s.sym == t.sym:
        for a, b in zip(s.args, t.args):
            if a == b:
                continue
            return lpo_greater(a, b, rank) and \
                all(lpo_greater(s, c, rank) for c in t.args)
        return False
    return False


class SignatureTooLarge(ValueError):
    pass


@dataclass
class TerminationResult:
    ok: bool
    precedence: Optional[list[str]] = None   # certificate when ok
    failing_rule: Optional[str] = None


def check_termination(trs: Trs, precedence: Optional[Precedence] = None
                      ) -> TerminationResult:
    """LPO termination: with a precedence, check lhs > rhs for every rule;
    without one, search all total precedences (only for small signatures)."""
    names = [s.name for s in trs.symbols]
    if precedence is not None:
        missing = set(names) - set(precedence)
        if missing:
            raise ValueError(f"precedence does not cover {sorted(missing)}")
        rank = {n: i for i, n in enumerate(precedence)}
        for r in trs.rules:
            if not lpo_greater(r.lhs, r.rhs, rank):
                return TerminationResult(False, failing_rule=r.label)
        return TerminationResult(True, list(precedence))
    if len(names) > SEARCH_LIMIT:
        raise SignatureTooLarge(
            f"{len(names)} symbols; supply a precedence explicitly")
    for perm in itertools.permutations(names):
        rank = {n: i for i, n in enumerate(perm)}
        if all(lpo_greater(r.lhs, r.rhs, rank) for r in trs.rules):
            return TerminationResult(True, list(perm))
    return TerminationResult(False)


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
    """Repeatedly drop rules whose lhs properly contains an instance of
    another remaining rule's lhs. Root overlaps are left alone."""
    rules = list(trs.rules)
    log: list[Deletion] = []
    changed = True
    while changed:
        changed = False
        for i, r in enumerate(rules):
            hit = _proper_lhs_instance(r, [x for x in rules if x is not r])
            if hit is not None:
                p, other = hit
                log.append(Deletion(r, p, other.label))
                del rules[i]
                changed = True
                break
    return trs.with_rules(rules), log


def _proper_lhs_instance(rule: Rule, others: Sequence[Rule]):
    for p in sorted(positions(rule.lhs, nonvar_only=True)):
        if p == ():
            continue
        sub = subterm_at(rule.lhs, p)
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

    def has(self, kind: str) -> bool:
        return any(v.kind == kind for v in self.violations)


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


def lm_verdict(trs: Trs, opts: Optional[CheckOptions] = None) -> LmReport:
    """Run the full pipeline. Conditions are evaluated in a fixed order
    and all of them are reported, so a failing system still gets every
    witness attributed."""
    opts = opts or CheckOptions()
    report = LmReport(collapse_depth=opts.collapse_depth)

    # 1. termination
    try:
        term_res = check_termination(trs, opts.precedence)
    except SignatureTooLarge as e:
        term_res = None
        report.conditions.append(Condition("terminating", "unknown", str(e)))
    if term_res is not None:
        if term_res.ok:
            prec = " > ".join(term_res.precedence or [])
            report.conditions.append(Condition("terminating", "pass",
                                               f"LPO precedence: {prec}"))
        else:
            detail = (f"no LPO orientation (rule {term_res.failing_rule})"
                      if term_res.failing_rule else "no LPO precedence found")
            report.conditions.append(Condition("terminating", "fail", detail))
    terminating = term_res is not None and term_res.ok

    # 2. confluence (meaningful once terminating; fuel guards the rest)
    if not terminating:
        report.conditions.append(Condition(
            "confluent", "unknown", "termination not established"))
    else:
        try:
            conf = check_confluence(trs, opts.fuel)
            if conf.ok:
                report.conditions.append(Condition(
                    "confluent", "pass", f"{conf.pair_count} critical pairs, all join"))
            else:
                wit = "; ".join(str(cp) for cp in conf.unjoinable[:3])
                report.conditions.append(Condition("confluent", "fail", wit))
        except FuelExhausted:
            report.conditions.append(Condition("confluent", "unknown",
                                               "fuel exhausted joining pairs"))

    # 3. right-reduced
    try:
        reduced = right_reduce(trs, opts.fuel)
        changed = [r.label for r, r2 in zip(trs.rules, reduced.rules)
                   if r.rhs != r2.rhs]
        if changed:
            report.conditions.append(Condition(
                "right-reduced", "fail", f"reducible rhs in {', '.join(changed)}"))
        else:
            report.conditions.append(Condition("right-reduced", "pass"))
    except FuelExhausted:
        report.conditions.append(Condition("right-reduced", "unknown",
                                           "fuel exhausted normalizing rhs"))

    # 4. almost-left-reduced
    _, deletions = almost_left_reduce(trs)
    if deletions:
        report.conditions.append(Condition(
            "almost-left-reduced", "fail",
            "; ".join(str(d) for d in deletions)))
    else:
        report.conditions.append(Condition("almost-left-reduced", "pass"))

    # 5. non-subterm-collapsing (bounded)
    try:
        col = subterm_collapse_search(trs, opts.collapse_depth,
                                      opts.collapse_terms, opts.fuel)
        if col.collapsing:
            u, p = col.witness
            report.conditions.append(Condition(
                "non-subterm-collapsing", "fail",
                f"{render_term(u)} collapses to its subterm at "
                f"{render_position(p)}"))
        else:
            scope = (f"depth {col.max_depth}, {col.terms_checked} terms"
                     + ("" if col.exhausted else ", enumeration capped"))
            report.conditions.append(Condition(
                "non-subterm-collapsing", "pass", f"bounded: {scope}",
                bounded=True))
    except FuelExhausted:
        report.conditions.append(Condition("non-subterm-collapsing", "unknown",
                                           "fuel exhausted during search"))

    # 6. forward-closed
    fc_ok, fc_witness = is_forward_closed(trs)
    if fc_ok:
        report.conditions.append(Condition("forward-closed", "pass",
                                           "all compositions redundant"))
    else:
        report.conditions.append(Condition(
            "forward-closed", "fail", f"new rule {fc_witness.rule}"))

    # 7. quasi-determinism of the rhs closure
    closure = rhs_closure(trs)
    qd = is_quasi_deterministic(closure)
    if qd.ok:
        report.conditions.append(Condition(
            "rhs quasi-deterministic", "pass", f"{len(closure)} equations"))
    else:
        report.conditions.append(Condition(
            "rhs quasi-deterministic", "fail",
            "; ".join(str(v) for v in qd.violations)))

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


def consequence_checks(trs: Trs, depth: int = 3,
                       fuel: int = DEFAULT_FUEL) -> list[Condition]:
    """Structural facts every certified system satisfies. Run only after
    certification; a failure here is reported as an internal inconsistency
    between the checker and these facts."""
    out: list[Condition] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        out.append(Condition(name, "pass" if ok else "fail",
                             detail if ok or not detail
                             else f"{INTERNAL_INCONSISTENCY}: {detail}"))

    # (a) no two distinct rules have unifiable left sides: the root
    # critical pairs, outer rule before inner in rule order
    bad = [f"{outer.label}/{inner.label}"
           for i, outer in enumerate(trs.rules)
           for inner, inner_r, p, sub in overlap_sites(
               outer.lhs, outer.variables(), trs.rules[i + 1:])
           if p == ROOT and mgu(sub, inner_r.lhs) is not None]
    add("lhs pairwise non-unifiable", not bad, ", ".join(bad))

    # (b) no rhs unifies with a distinct rule's lhs
    bad = []
    for r1 in trs.rules:
        for r2 in trs.rules:
            if r1.label == r2.label:
                continue
            r2r = r2.renamed_apart(r1.variables())
            if mgu(r1.rhs, r2r.lhs) is not None:
                bad.append(f"{r1.label}->{r2.label}")
    add("rhs/lhs non-unifiable", not bad, ", ".join(bad))

    # (c) no non-overlay superpositions
    sup = nosup(trs)
    add("no superpositions", not sup,
        ", ".join(render_term(t) for t in sup[:3]))

    # (d) no compositions at all (stronger than redundancy)
    comps = compositions(trs.rules, trs.rules)
    add("no compositions", not comps, ", ".join(str(c) for c in comps[:3]))

    # (e) every paramodulation conclusion is redundant (a conclusion is an
    # unordered equation, so subsumption tries both orientations)
    bad = []
    for cand in paramodulation_candidates(trs):
        eq = cand.conclusion
        if eq.lhs == eq.rhs:
            continue
        subsumed = any(
            match_many([(r.lhs, eq.lhs), (r.rhs, eq.rhs)]) is not None
            or match_many([(r.lhs, eq.rhs), (r.rhs, eq.lhs)]) is not None
            for r in trs.rules)
        if not subsumed:
            bad.append(str(cand))
    add("paramodulation saturated", not bad, "; ".join(bad[:3]))

    # (f) freeness: distinct same-root terms with irreducible arguments
    # never join (same normal form = joinable, so one normalize per term)
    vars_ = enumeration_variables(trs, 2)
    pool: list[Term] = []
    for t in enumerate_terms(trs.symbols, vars_, depth):
        if isinstance(t, App) and is_eps_irreducible(trs, t):
            pool.append(t)
            if len(pool) >= FREENESS_POOL:
                break
    bad = []
    seen_nf: dict[tuple[str, Term], Term] = {}
    nf = NormalForms(trs, fuel)
    for t in pool:
        key = (t.sym.name, nf(t))
        if key in seen_nf:
            bad.append(f"{render_term(seen_nf[key])} ~ {render_term(t)}")
        else:
            seen_nf[key] = t
    add("free over the signature", not bad, "; ".join(bad[:3]))

    return out
