"""Forward closure: composing right-hand sides into left-hand sides.

A composition takes rule l1 -> r1, a non-variable position p of r1, and a
rule l2 -> r2 whose left side unifies with r1 at p; the composed rule is
the instantiated l1 -> r1[r2]_p. Iterating this against the base system
and keeping the non-redundant results either reaches a fixpoint (the
system's closure is finite) or runs into the generation bound.
Composition is semi-naive (Bancilhon and Ramakrishnan, SIGMOD 1986): a
generation composes only the rules the one before it added. A candidate
depends only on its source and the base rules, so an older source would
only repeat candidates that were already subsumed, added, or renamed
duplicates of added rules; all of those are in the index, which only
grows, so the trace is the one that composing the whole set gives. A
candidate is checked by its key (the flat pre-order of its sides, read off
the source rule and the unifier), then for redundancy: its sides are built
only past the key, and a `Rule` only for a kept one. A renamed copy of a
rule the generation kept is dropped on its key, with the same trace:
subsumption and triviality do not change under a renaming of variables,
so a copy of a redundant candidate is redundant too, and a copy of a kept
one is not, so the index query would only pass it on to be dropped. The
system is forward-closed when the first generation keeps nothing.

Redundancy here is the computable approximation: a candidate is redundant
when its sides are equal or some existing rule subsumes it outright. That
is sound (nothing needed is dropped) but may keep more rules than an
ideal ground-instance notion would; reports always state which filter ran.

Subsuming rules are not found by scanning every rule. A `RuleIndex` (a
discrimination tree: McCune, JAR 1992; Graf, *Term Indexing*, LNAI 1053)
files each rule under the pre-order symbols of its lhs and then its rhs,
every variable under one wildcard key. A query walks the candidate's
pre-order keys and follows two branches at each: the candidate's symbol,
and the wildcard, which skips the candidate's whole subterm there. A
candidate's variable is a constant to matching, so it follows only the
wildcard. What the query retrieves matches the candidate position by
position, and `subsumes` then checks each retrieved rule under one
consistent substitution, which repeated variables need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Optional, Sequence, Union

from .overlaps import overlap_sites
from .rewriting import Rule, Trs
from .terms import (
    App,
    Position,
    Subst,
    Term,
    Var,
    match_many,
    mgu,
    render_position,
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


def subsumes(general: Rule, lhs: Term, rhs: Term) -> bool:
    """One substitution maps `general` onto the pair (lhs, rhs), both sides
    at once."""
    return match_many([(general.lhs, lhs), (general.rhs, rhs)]) is not None


# the index key of every variable; symbols are their own keys
_ANY = object()


class RuleIndex:
    """Rules filed for retrieval of the ones that subsume a term pair."""

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        # nested dicts keyed by pre-order key; a key sequence spells out
        # two whole terms, so no sequence is a prefix of another and the
        # last key of each leads to the list of rules filed under it
        self._root: dict = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule) -> None:
        keys: list = []  # pre-order over lhs, then rhs
        stack = [rule.rhs, rule.lhs]
        while stack:
            u = stack.pop()
            if u.__class__ is Var:
                keys.append(_ANY)
            else:
                keys.append(u.sym)
                stack.extend(reversed(u.args))
        node = self._root
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node.setdefault(keys[-1], []).append(rule)

    def generalizations(self, lhs: Term, rhs: Term) -> list[Rule]:
        """Every rule whose sides match (lhs, rhs) when each variable
        occurrence is matched on its own: all the rules that subsume the
        pair, and those that would but for a repeated variable."""
        out: list[Rule] = []
        # (tree node, subterms still to walk as a linked list, next first)
        stack = [(self._root, (lhs, (rhs, None)))]
        while stack:
            node, todo = stack.pop()
            if todo is None:
                out.extend(node)
                continue
            u, rest = todo
            child = node.get(_ANY)
            if child is not None:
                stack.append((child, rest))
            if u.__class__ is not Var:
                child = node.get(u.sym)
                if child is not None:
                    for a in reversed(u.args):
                        rest = (a, rest)
                    stack.append((child, rest))
        return out

    def subsumed(self, lhs: Term, rhs: Term) -> bool:
        """Some indexed rule subsumes the pair (lhs, rhs)."""
        return any(subsumes(r, lhs, rhs)
                   for r in self.generalizations(lhs, rhs))


class Composition:
    """A composition before it is a rule: `source` ~> `base` at `position`
    of the source rhs under `sigma`, the unifier of the subterm there and
    the base lhs renamed apart (`base_rhs` is the base rhs renamed so).
    Its two sides are built on the first read of either."""

    # a plain class: a slotted dataclass takes about 0.5 ms to define,
    # which every start-up of lmtk would pay
    __slots__ = ("source", "base", "position", "base_rhs", "sigma", "_sides")

    def __init__(self, source: Rule, base: Rule, position: Position,
                 base_rhs: Term, sigma: Subst) -> None:
        self.source, self.base, self.position = source, base, position
        self.base_rhs, self.sigma = base_rhs, sigma
        self._sides: Optional[tuple[Term, Term]] = None

    def sides(self) -> tuple[Term, Term]:
        """sigma(l1) and sigma(r1[base_rhs]_p)."""
        if self._sides is None:
            rhs = replace_at(self.source.rhs, self.position, self.base_rhs)
            self._sides = (substitute(self.source.lhs, self.sigma),
                           substitute(rhs, self.sigma))
        return self._sides

    lhs = property(lambda self: self.sides()[0])
    rhs = property(lambda self: self.sides()[1])

    def key(self) -> tuple:
        """The sides' flat pre-order (flatterms: Christian, JAR 1993), each
        symbol by name and each variable by first occurrence, walked
        through the source rule with sigma applied inline (it is
        idempotent) and no term built. Names are unique in a signature and
        arities fixed, so keys are equal exactly when `canonical_term_pair`
        of the sides is."""
        sigma, numbers, out = self.sigma, {}, []
        # pop order: the lhs; each rhs spine symbol (as its name) with the
        # arguments before the hole; the base rhs; the arguments after it
        stack, front, spine = [], [], self.source.rhs
        for i in self.position:
            front += (spine.sym.name, *spine.args[:i - 1])
            stack += reversed(spine.args[i:])
            spine = spine.args[i - 1]
        stack += (self.base_rhs, *reversed(front), self.source.lhs)
        while stack:
            u = stack.pop()
            if u.__class__ is App:
                out.append(u.sym.name)
                if u.args:
                    stack += u.args[::-1]
            elif u.__class__ is Var:
                bound = sigma.get(u.name)
                if bound is None:
                    out.append(numbers.setdefault(u.name, len(numbers)))
                else:
                    stack.append(bound)
            else:
                out.append(u)
        return tuple(out)

    def candidate(self, taken: AbstractSet[str] = frozenset(),
                  generation: int = 0) -> FcCandidate:
        """The composition as a validated rule, labelled
        source~base@position and primed away from the labels in `taken`."""
        label = (f"{self.source.label}~{self.base.label}"
                 f"@{render_position(self.position)}")
        while label in taken:
            label += "'"
        return FcCandidate(Rule(self.lhs, self.rhs, label), self.source.label,
                           self.base.label, self.position, generation)


def is_redundant_approx(candidate: Union[Rule, Composition],
                        existing: RuleIndex) -> bool:
    """Trivial (sides equal) or subsumed by some rule of `existing`, found
    through the index rather than by trying every rule."""
    if candidate.lhs == candidate.rhs:
        return True
    return existing.subsumed(candidate.lhs, candidate.rhs)


def compositions(sources: Sequence[Rule], base: Sequence[Rule],
                 symbols: AbstractSet[str]) -> list[Composition]:
    """All defined compositions source ~> base rule, in deterministic
    order. Each base rule is renamed apart from the source rule's variables
    and from `symbols`, the names of the signature's symbols, so that no
    fresh variable is named like a symbol and a composition prints as
    itself."""
    out = []
    for r1 in sources:
        for r2, lhs2, rhs2, p, sub in overlap_sites(
                r1.rhs, r1.variables() | symbols, base):
            sigma = mgu(sub, lhs2)
            if sigma is not None:
                out.append(Composition(r1, r2, p, rhs2, sigma))
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
    is hit. Generation g composes only the rules generation g-1 added (the
    base rules at g = 1) against the base system. It keeps each result
    whose key (`Composition.key`, read without building its sides) is not
    the key of a rule it kept before and that no rule of the whole
    previous set subsumes, in that order, and builds a `Rule` only for
    what it keeps (semi-naive: see the module docstring)."""
    trace = FcTrace(bound=max_generations)
    sources = list(trs.rules)
    trace.generations.append(sources)
    labels = {r.label for r in sources}
    # candidates are checked against the previous generation only. Each
    # generation files its sources first, so the last generation's rules,
    # which no query reads, are never filed
    index = RuleIndex()
    for gen in range(1, max_generations + 1):
        for rule in sources:
            index.add(rule)
        # new rules by key, in the order kept; a renamed copy of one
        # skips the index query (see the module docstring)
        fresh: dict[tuple, FcCandidate] = {}
        for comp in compositions(sources, trs.rules, trs.symbol_names):
            key = comp.key()
            if key in fresh or is_redundant_approx(comp, index):
                continue
            cand = comp.candidate(labels, gen)
            labels.add(cand.rule.label)
            fresh[key] = cand
        trace.new_rules.append(list(fresh.values()))
        if not fresh:
            trace.converged = True
            return trace
        sources = [c.rule for c in fresh.values()]
        trace.generations.append(trace.generations[-1] + sources)
    return trace


def is_forward_closed(trs: Trs) -> tuple[bool, Optional[FcCandidate]]:
    """(True, None) when the closure adds nothing at its first generation;
    otherwise False and the first rule `fc_iterate` adds there."""
    added = fc_iterate(trs, 1).new_rules[0]
    return not added, added[0] if added else None
