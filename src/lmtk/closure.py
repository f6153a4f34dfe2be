"""Forward closure: composing right-hand sides into left-hand sides.

A composition takes rule l1 -> r1, a non-variable position p of r1, and a
rule l2 -> r2 whose left side unifies with r1 at p; the composed rule is
the instantiated l1 -> r1[r2]_p. Iterating this against the base system
and keeping the non-redundant results either reaches a fixpoint (the
system's closure is finite) or runs into the generation bound.

Redundancy here is the computable approximation: a candidate is redundant
when its sides are equal or some existing rule subsumes it outright. That
is sound (nothing needed is dropped) but may keep more rules than an
ideal ground-instance notion would; reports always state which filter ran.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .overlaps import overlap_sites, rule_key
from .rewriting import (
    DEFAULT_FUEL,
    NormalForms,
    Rule,
    Trs,
    apply_rule,
    enumerate_ground_irreducible,
    is_eps_irreducible,
    is_innermost_redex,
)
from .terms import (
    InvalidPositionError,
    Position,
    Term,
    match_many,
    mgu,
    positions,
    render_position,
    render_term,
    replace_at,
    substitute,
)


@dataclass(frozen=True)
class FcCandidate:
    rule: Rule
    first: str
    second: str
    position: Position
    generation: int = 0

    def __str__(self) -> str:
        return (f"{self.rule}  ({self.first} ~> {self.second} "
                f"at {render_position(self.position)}, gen {self.generation})")


def fc_step(r1: Rule, r2: Rule, p: Position) -> Optional[FcCandidate]:
    """Compose r1 with r2 at position p of r1's rhs, if they overlap."""
    if p not in positions(r1.rhs, nonvar_only=True):
        raise InvalidPositionError(
            f"{render_position(p)} is not a non-variable position of "
            f"{render_term(r1.rhs)}")
    return next((c for c in compositions([r1], [r2]) if c.position == p), None)


def subsumes(general: Rule, candidate: Rule) -> bool:
    """One substitution maps `general` onto `candidate`, both sides at once."""
    return match_many([(general.lhs, candidate.lhs),
                       (general.rhs, candidate.rhs)]) is not None


def is_redundant_approx(candidate: Rule, existing: Sequence[Rule]) -> bool:
    """Trivial (sides equal) or subsumed by some existing rule."""
    if candidate.lhs == candidate.rhs:
        return True
    return any(subsumes(r, candidate) for r in existing)


def compositions(sources: Sequence[Rule], base: Sequence[Rule]) -> list[FcCandidate]:
    """All defined compositions source ~> base rule, in deterministic order."""
    out = []
    for r1 in sources:
        for r2, r2r, p, sub in overlap_sites(r1.rhs, r1.variables(), base):
            sigma = mgu(sub, r2r.lhs)
            if sigma is None:
                continue
            lhs = substitute(r1.lhs, sigma)
            rhs = substitute(replace_at(r1.rhs, p, r2r.rhs), sigma)
            label = f"{r1.label}~{r2.label}@{render_position(p)}"
            out.append(FcCandidate(Rule(lhs, rhs, label), r1.label, r2.label, p))
    return out


@dataclass
class FcTrace:
    generations: list[list[Rule]] = field(default_factory=list)  # FC_0, FC_1, ...
    new_rules: list[list[FcCandidate]] = field(default_factory=list)  # NR_1, ...
    converged: bool = False
    bound: int = 0

    @property
    def fixpoint_generation(self) -> Optional[int]:
        """Index k with FC_k final, when the iteration converged."""
        return len(self.new_rules) - 1 if self.converged else None

    def final_rules(self) -> list[Rule]:
        return self.generations[-1]


def fc_iterate(trs: Trs, max_generations: int = 16) -> FcTrace:
    """Iterate closure generations until nothing new appears or the bound
    is hit. New rules at each generation come from composing the previous
    whole set against the base system, filtered by redundancy in that set."""
    trace = FcTrace(bound=max_generations)
    current: list[Rule] = list(trs.rules)
    trace.generations.append(list(current))
    labels = {r.label for r in current}
    for gen in range(1, max_generations + 1):
        fresh: list[FcCandidate] = []
        keys = {rule_key(r) for r in current}
        for cand in compositions(current, trs.rules):
            if is_redundant_approx(cand.rule, current):
                continue
            key = rule_key(cand.rule)
            if key in keys:
                continue
            keys.add(key)
            label = cand.rule.label
            while label in labels:
                label += "'"
            labels.add(label)
            rule = Rule(cand.rule.lhs, cand.rule.rhs, label)
            fresh.append(FcCandidate(rule, cand.first, cand.second,
                                     cand.position, gen))
        if not fresh:
            trace.new_rules.append([])
            trace.converged = True
            return trace
        trace.new_rules.append(fresh)
        current = current + [c.rule for c in fresh]
        trace.generations.append(list(current))
    return trace


def is_forward_closed(trs: Trs) -> tuple[bool, Optional[FcCandidate]]:
    """True when every one-step composition of the system against itself
    is redundant; otherwise the first non-redundant composition."""
    for cand in compositions(trs.rules, trs.rules):
        if not is_redundant_approx(cand.rule, trs.rules):
            return False, cand
    return True, None


# one-step check bounds: ground pool size, lhs instantiations per rule
ONE_STEP_POOL = 512
ONE_STEP_TUPLES_PER_RULE = 4096


@dataclass
class OneStepReport:
    ok: bool
    witness: Optional[Term]
    depth: int
    pool_size: int
    redexes_checked: int

    def bound_note(self) -> str:
        return (f"depth {self.depth}, pool {self.pool_size}, "
                f"<= {ONE_STEP_TUPLES_PER_RULE} instantiations per rule")


def _one_step_reaches(trs: Trs, t: Term, target: Term) -> bool:
    for p in sorted(positions(t)):
        for rule in trs.rules:
            hit = apply_rule(rule, t, p)
            if hit is not None and hit[0] == target:
                return True
    return False


def innermost_one_step_check(trs: Trs, depth: int = 3,
                             fuel: int = DEFAULT_FUEL) -> OneStepReport:
    """Bounded check that every innermost redex reaches its normal form in
    a single step.

    Redexes are each rule's lhs itself (when its proper subterms are
    irreducible) plus instantiations of the lhs variables with irreducible
    ground terms up to `depth`. The ground pool and the instantiation
    count per rule are capped so arity-heavy signatures stay tractable;
    the caps are part of the reported bound.
    """
    pool = enumerate_ground_irreducible(trs, depth, ONE_STEP_POOL)
    nf = NormalForms(trs, fuel)
    checked = 0

    def check_redex(t: Term) -> bool:
        nonlocal checked
        if not is_innermost_redex(trs, t):
            return True
        checked += 1
        target = nf(t)
        return _one_step_reaches(trs, t, target)

    for rule in trs.rules:
        if is_eps_irreducible(trs, rule.lhs) and not check_redex(rule.lhs):
            return OneStepReport(False, rule.lhs, depth, len(pool), checked)
        names = sorted(rule.variables())
        if not names:
            continue
        assignments = itertools.islice(
            itertools.product(pool, repeat=len(names)),
            ONE_STEP_TUPLES_PER_RULE)
        for combo in assignments:
            t = substitute(rule.lhs, dict(zip(names, combo)))
            if not check_redex(t):
                return OneStepReport(False, t, depth, len(pool), checked)
    return OneStepReport(True, None, depth, len(pool), checked)
