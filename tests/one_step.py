"""The bounded one-step check, the tests' oracle for
`closure.is_forward_closed`.

On a convergent system, being forward-closed is the same as every
innermost redex reaching its normal form in a single step (Bouchard,
Gero, Lynch and Narendran, *On Forward Closure and the Finite Variant
Property*, FroCoS 2013). `innermost_one_step_check` tests the second form
up to bounds, so on convergent systems it must agree with the exact
composition test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from lmtk.rewriting import (
    DEFAULT_FUEL,
    Trs,
    apply_rule,
    is_root_redex,
    nf,
)
from lmtk.terms import ROOT, App, Term, enumerate_terms, substitute, subterms

# bounds: ground pool size, lhs instantiations per rule
POOL = 512
TUPLES_PER_RULE = 4096


def is_redex(trs: Trs, t: Term) -> bool:
    return t.__class__ is App and is_root_redex(trs, t.sym, t.args)


def is_reducible(trs: Trs, t: Term) -> bool:
    return any(is_redex(trs, u) for _, u in subterms(t))


def is_eps_irreducible(trs: Trs, t: Term) -> bool:
    """Every proper subterm irreducible (the root may still be a redex);
    a variable is never a redex."""
    return not any(is_redex(trs, u) for p, u in subterms(t) if p)


def is_innermost_redex(trs: Trs, t: Term) -> bool:
    return is_redex(trs, t) and is_eps_irreducible(trs, t)


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


def one_step_reaches(trs: Trs, t: Term, target: Term) -> bool:
    """Some rule rewrites `t` to `target` at the root. `t` is an innermost
    redex, so its proper subterms are irreducible and no other step
    exists."""
    for rule in trs.rules:
        hit = apply_rule(rule, t, ROOT)
        if hit is not None and hit[0] == target:
            return True
    return False


@dataclass(frozen=True)
class OneStepReport:
    witness: Optional[Term]   # a redex whose normal form is further away
    redexes_checked: int

    @property
    def ok(self) -> bool:
        return self.witness is None


def innermost_one_step_check(trs: Trs, depth: int = 3,
                             fuel: int = DEFAULT_FUEL) -> OneStepReport:
    """Bounded check that every innermost redex reaches its normal form in
    a single step.

    Redexes are each rule's lhs itself (when its proper subterms are
    irreducible) plus instantiations of the lhs variables with irreducible
    ground terms up to `depth`. The ground pool and the instantiation
    count per rule are capped so arity-heavy signatures stay tractable.
    """
    pool = enumerate_ground_irreducible(trs, depth, POOL)
    checked = 0

    def check_redex(t: Term) -> bool:
        nonlocal checked
        if not is_innermost_redex(trs, t):
            return True
        checked += 1
        return one_step_reaches(trs, t, nf(trs, t, fuel))

    for rule in trs.rules:
        if is_eps_irreducible(trs, rule.lhs) and not check_redex(rule.lhs):
            return OneStepReport(rule.lhs, checked)
        names = sorted(rule.variables())
        if not names:
            continue
        assignments = itertools.islice(
            itertools.product(pool, repeat=len(names)), TUPLES_PER_RULE)
        for combo in assignments:
            t = substitute(rule.lhs, dict(zip(names, combo)))
            if not check_redex(t):
                return OneStepReport(t, checked)
    return OneStepReport(None, checked)
