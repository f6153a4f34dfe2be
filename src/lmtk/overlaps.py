"""Overlap computation: critical pairs, non-overlay superpositions,
right-hand-side critical pairs, and paramodulation candidates.

All pair enumeration renames the second rule apart from the first, pairs a
rule with a renamed copy of itself where the construction calls for it,
and emits results in a fixed order so reports are reproducible. Equations
that differ only by a variable renaming or by swapping sides are treated
as the same equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .rewriting import Rule, Trs
from .terms import (
    App,
    Position,
    ROOT,
    Symbol,
    Term,
    Var,
    flatterm,
    mgu,
    render_position,
    render_term,
    rename_pair_apart,
    replace_at,
    substitute,
    subterms,
)


@dataclass(frozen=True)
class Equation:
    """An ordered pair of terms; root-pair checks use the unordered view."""

    lhs: Term
    rhs: Term
    origin: str = ""

    def __str__(self) -> str:
        return f"{render_term(self.lhs)} = {render_term(self.rhs)}"

    def root_pair(self) -> Optional[tuple[str, str]]:
        """Directed (lhs root, rhs root); None when either side is a
        variable."""
        if isinstance(self.lhs, Var) or isinstance(self.rhs, Var):
            return None
        return (self.lhs.sym.name, self.rhs.sym.name)

    def unordered_root_pair(self) -> Optional[frozenset[str]]:
        rp = self.root_pair()
        return frozenset(rp) if rp else None


@dataclass(frozen=True)
class CriticalPair:
    """Peak results <inner-rewritten, root-rewritten> of an overlap of
    `inner` into `outer` at `position` (a non-variable position of the
    outer lhs); `peak` is the overlapped term, the instantiated outer
    lhs."""

    left: Term
    right: Term
    outer: str
    inner: str
    position: Position
    peak: Term

    def __str__(self) -> str:
        return (f"<{render_term(self.left)}, {render_term(self.right)}> "
                f"({self.inner} into {self.outer} at {render_position(self.position)})")


def equation_key(eq: Equation) -> frozenset[tuple]:
    """Canonical key identifying equations up to renaming and side swap."""
    return frozenset((flatterm((eq.lhs, eq.rhs)), flatterm((eq.rhs, eq.lhs))))


def overlap_sites(host: Term, avoid: set[str], rules: Sequence[Rule],
                  trivial: Optional[str] = None
                  ) -> Iterator[tuple[Rule, Term, Term, Position, Term]]:
    """Per rule in order: the rule, its lhs and rhs renamed apart from
    `avoid` (the host rule's variables and the symbol names), and each
    non-variable position of `host` in pre-order whose subterm has the lhs
    root symbol, with that subterm, except the root site of the rule
    labelled `trivial`. Sites are grouped by root symbol and a rule is
    paired only with its own group: a subterm under another symbol never
    unifies with the lhs, and a rule whose root symbol occurs nowhere in
    `host` is not renamed at all. Callers unify subterm and renamed lhs
    themselves: the `mgu` argument order decides whose variable names
    survive."""
    by_root: dict[Symbol, list[tuple[Position, Term]]] = {}
    for p, sub in subterms(host):
        if isinstance(sub, App):
            by_root.setdefault(sub.sym, []).append((p, sub))
    for rule in rules:
        sites = by_root.get(rule.lhs.sym)
        if sites is None:
            continue
        lhs, rhs = rename_pair_apart(rule.lhs, rule.rhs, avoid)
        for p, sub in sites:
            if not (p == ROOT and rule.label == trivial):
                yield rule, lhs, rhs, p, sub


def critical_pairs(trs: Trs) -> list[CriticalPair]:
    """All critical pairs between (renamed-apart) rule pairs, at
    non-variable positions of the overlapped lhs. A rule's overlap with
    its own copy at the root is the trivial one and is skipped; root
    overlaps between distinct rules are kept."""
    out: list[CriticalPair] = []
    for outer in trs.rules:
        for inner, lhs, rhs, p, sub in overlap_sites(
                outer.lhs, outer.variables() | trs.symbol_names, trs.rules,
                trivial=outer.label):
            sigma = mgu(sub, lhs)
            if sigma is None:
                continue
            peak = substitute(outer.lhs, sigma)
            left = replace_at(peak, p, substitute(rhs, sigma))
            right = substitute(outer.rhs, sigma)
            out.append(CriticalPair(left, right, outer.label, inner.label, p,
                                    peak))
    return out


def nosup(trs: Trs) -> list[Term]:
    """The non-overlay superpositions: the peaks of the critical pairs at
    proper positions (a lhs unified into a proper non-variable position of
    another lhs, or of a renamed copy of itself), in critical-pair order,
    one per variable renaming."""
    peaks: dict[tuple, Term] = {}  # the first peak per flatterm
    for cp in critical_pairs(trs):
        if cp.position != ROOT:
            peaks.setdefault(flatterm((cp.peak,)), cp.peak)
    return list(peaks.values())


def rhs_critical_pairs(trs: Trs) -> list[Equation]:
    """Equations sigma(l1) = sigma(l2) from unifying the right-hand sides
    of two rules (renamed apart; a rule may pair with its own copy). The
    inference fires only when the two instantiated left sides differ as
    literal terms, which silently drops the no-op self-pairings."""
    out: list[Equation] = []
    seen: set[frozenset[tuple]] = set()
    for r1 in trs.rules:
        for r2 in trs.rules:
            lhs, rhs = rename_pair_apart(r2.lhs, r2.rhs,
                                         r1.variables() | trs.symbol_names)
            sigma = mgu(r1.rhs, rhs)
            if sigma is None:
                continue
            l1 = substitute(r1.lhs, sigma)
            l2 = substitute(lhs, sigma)
            if l1 == l2:
                continue
            eq = Equation(l1, l2, origin=f"rhs-cp({r1.label},{r2.label})")
            key = equation_key(eq)
            if key not in seen:
                seen.add(key)
                out.append(eq)
    return out


def rhs_closure(trs: Trs) -> list[Equation]:
    """The rules read as equations plus one layer of right-hand-side
    critical pair conclusions (the definition does not iterate)."""
    out = [Equation(r.lhs, r.rhs, origin=r.label) for r in trs.rules]
    seen = {equation_key(eq) for eq in out}
    for eq in rhs_critical_pairs(trs):
        key = equation_key(eq)
        if key not in seen:
            seen.add(key)
            out.append(eq)
    return out


@dataclass(frozen=True)
class ParamodCandidate:
    """A paramodulation inference: `rule` rewrites the subterm at
    `position` inside one side of the equation derived from `source`."""

    conclusion: Equation
    source: str      # label of the rule whose equation was rewritten into
    side: str        # 'lhs' or 'rhs': which side of that equation
    rule: str        # label of the rule used left-to-right
    position: Position

    def __str__(self) -> str:
        return (f"{self.conclusion}  [{self.rule} into {self.side} of "
                f"{self.source} at {render_position(self.position)}]")


def paramodulation_candidates(trs: Trs) -> list[ParamodCandidate]:
    """All inferences of a rule into either side of a rule-equation at a
    non-variable position. The only exclusion is a rule rewriting the
    root of its own lhs (that inference degenerates to the rule itself)."""
    out: list[ParamodCandidate] = []
    for src in trs.rules:
        for side_name, u, v, trivial in (("lhs", src.lhs, src.rhs, src.label),
                                         ("rhs", src.rhs, src.lhs, None)):
            for rule, lhs, rhs, p, sub in overlap_sites(
                    u, src.variables() | trs.symbol_names, trs.rules, trivial):
                sigma = mgu(lhs, sub)
                if sigma is None:
                    continue
                new_side = substitute(replace_at(u, p, rhs), sigma)
                other = substitute(v, sigma)
                conclusion = Equation(
                    new_side, other,
                    origin=f"paramod({rule.label}->{src.label}.{side_name})")
                out.append(ParamodCandidate(conclusion, src.label, side_name,
                                            rule.label, p))
    return out

