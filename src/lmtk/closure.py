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
candidate is checked by its key (the flatterm of its sides, read off the
source rule and the unifier), then for redundancy on the same key: its
sides are built, and a `Rule`, only for a kept one. A renamed copy of a
rule the generation kept is dropped on its key, with the same trace:
subsumption and triviality do not change under a renaming of variables,
so a copy of a redundant candidate is redundant too, and a copy of a kept
one is not, so the index query would only pass it on to be dropped. The
system is forward-closed when the first generation keeps nothing.

Redundancy here is the computable approximation: a candidate is redundant
when its sides are equal or some existing rule subsumes it outright. That
is sound (nothing needed is dropped) but may keep more rules than an
ideal ground-instance notion would; reports always state which filter ran.

Subsuming rules are not found by scanning every rule. A `RuleIndex` is a
perfect discrimination tree over flatterms (McCune, JAR 1992; Christian,
JAR 1993; Graf, *Term Indexing*, LNAI 1053). It files each rule under the
pre-order of its lhs and then its rhs: a symbol by its name, a variable's
first occurrence as a binding edge, and each later occurrence as a
reference to that binding. A query walks the candidate's flatterm. At a
symbol edge it compares one token; at a binding edge it skips the
candidate's subterm there, whose end the signature's arities give; at a
reference edge it compares the slice the binding skipped with the one at
hand, and since the candidate's variables are numbered canonically, equal
slices are equal subterms. A candidate's variable is a constant to
matching, so it follows no symbol edge. What the query retrieves is
exactly the set of rules that subsume the candidate, so no retrieved rule
is matched again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Iterator, Optional, Sequence, Union

from .overlaps import overlap_sites
from .rewriting import Rule, Trs
from .terms import (
    Position,
    Subst,
    Symbol,
    Term,
    flatterm,
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


# the edge of a pattern variable's first occurrence. A later occurrence of
# the k-th bound variable is the edge ~k, a negative int: a key token is a
# name or a variable number from 0, so neither edge is ever a token's own
_BIND = None


class RuleIndex:
    """Rules filed for exact retrieval of the ones that subsume a term pair,
    queried with the pair's flatterm (`terms.flatterm`): a perfect
    discrimination tree, as the module docstring sets out. `symbols` is
    the signature of the pairs queried."""

    def __init__(self, symbols: Iterable[Symbol],
                 rules: Iterable[Rule] = ()) -> None:
        # what a key token adds to the subterms a pre-order walk still
        # owes: its arity less one, and -1 for a variable (an int)
        self._owes = {s.name: s.arity - 1 for s in symbols}
        # nested dicts keyed by edge; an edge sequence spells out two whole
        # terms, so no sequence is a prefix of another and the last edge
        # of each leads to the list of rules filed under it
        self._root: dict = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule, key: Optional[tuple] = None) -> None:
        """File `rule` under `key`, the flatterm of its sides, walked here
        when not given."""
        edges: list = []
        bound = 0
        for token in key or flatterm((rule.lhs, rule.rhs)):
            if token.__class__ is int:
                # variables are numbered by first occurrence
                if token == bound:
                    token, bound = _BIND, bound + 1
                else:
                    token = ~token
            edges.append(token)
        node = self._root
        for edge in edges[:-1]:
            node = node.setdefault(edge, {})
        node.setdefault(edges[-1], []).append(rule)

    def subsumers(self, key: tuple) -> Iterator[Rule]:
        """Each filed rule that one substitution maps onto the term pair
        whose flatterm is `key`, lhs and rhs at once."""
        owes, n = self._owes, len(key)
        # (tree node, next key position, (start, end) of each binding)
        stack: list = [(self._root, 0, ())]
        while stack:
            node, i, bound = stack.pop()
            child = node.get(key[i])
            if child is not None:
                if i + 1 == n:
                    yield from child
                else:
                    stack.append((child, i + 1, bound))
            # equal slices are equal subterms: the pair's variables are
            # numbered canonically
            for k, (start, end) in enumerate(bound):
                child = node.get(~k)
                j = i + end - start
                if child is not None and key[i:j] == key[start:end]:
                    if j == n:
                        yield from child
                    else:
                        stack.append((child, j, bound))
            child = node.get(_BIND)
            if child is not None:
                j, owed = i, 1
                while owed:
                    owed += owes.get(key[j], -1)
                    j += 1
                if j == n:
                    yield from child
                else:
                    stack.append((child, j, (*bound, (i, j))))

    def subsumed(self, key: tuple) -> bool:
        """Some filed rule subsumes the term pair whose flatterm is `key`."""
        return next(self.subsumers(key), None) is not None


class Composition:
    """A composition before it is a rule: `source` ~> `base` at `position`
    of the source rhs under `sigma`, the unifier of the subterm there and
    the base lhs renamed apart (`base_rhs` is the base rhs renamed so).
    Its two sides are built on the first read of either."""

    # a plain class: a slotted dataclass takes about 0.5 ms to define,
    # which every start-up of lmtk would pay
    __slots__ = ("source", "base", "position", "base_rhs", "sigma", "_sides",
                 "_key")

    def __init__(self, source: Rule, base: Rule, position: Position,
                 base_rhs: Term, sigma: Subst) -> None:
        self.source, self.base, self.position = source, base, position
        self.base_rhs, self.sigma = base_rhs, sigma
        self._sides: Optional[tuple[Term, Term]] = None
        self._key: Optional[tuple] = None

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
        """The sides' flatterm (`terms.flatterm`), walked through the source
        rule with sigma applied inline (it is idempotent) and no term
        built, on the first call only."""
        if self._key is None:
            # the lhs; each rhs spine symbol (as its name) with the
            # arguments before the hole; the base rhs; then the arguments
            # after the hole, innermost spine symbol first
            items, tails, spine = [self.source.lhs], [], self.source.rhs
            for i in self.position:
                items += (spine.sym.name, *spine.args[:i - 1])
                tails.append(spine.args[i:])
                spine = spine.args[i - 1]
            items.append(self.base_rhs)
            for tail in reversed(tails):
                items += tail
            self._key = flatterm(items, self.sigma)
        return self._key

    def candidate(self, taken: AbstractSet[str] = frozenset(),
                  generation: int = 0) -> FcCandidate:
        """The composition as a rule, labelled source~base@position and
        primed away from the labels in `taken`. The rule is not checked
        again: its lhs is an instance of the source lhs, so no variable,
        and sigma maps the variables of r1[base_rhs]_p, which lie among
        those of l1 and of the base lhs it unified with, onto terms over
        the variables of sigma(l1)."""
        label = (f"{self.source.label}~{self.base.label}"
                 f"@{render_position(self.position)}")
        while label in taken:
            label += "'"
        return FcCandidate(Rule.unchecked(self.lhs, self.rhs, label),
                           self.source.label, self.base.label, self.position,
                           generation)


def is_redundant_approx(candidate: Union[Rule, Composition],
                        existing: RuleIndex) -> bool:
    """Trivial (sides equal) or subsumed by some rule of `existing`, both
    decided on the candidate's flatterm (`Composition.key` for a
    composition) with no side built: the sides are equal when the lhs half
    of the flatterm equals the rhs half, and subsumption is exact
    retrieval from the index."""
    key = (candidate.key() if candidate.__class__ is Composition
           else flatterm((candidate.lhs, candidate.rhs)))
    half = len(key) // 2
    return key[:half] == key[half:] or existing.subsumed(key)


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
    # which no query reads, are never filed. A kept rule is filed by the
    # key it was kept on; the base rules have none
    index = RuleIndex(trs.symbols)
    keys: list[Optional[tuple]] = [None] * len(sources)
    for gen in range(1, max_generations + 1):
        for rule, key in zip(sources, keys):
            index.add(rule, key)
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
        keys = list(fresh)
        trace.generations.append(trace.generations[-1] + sources)
    return trace


def is_forward_closed(trs: Trs) -> tuple[bool, Optional[FcCandidate]]:
    """(True, None) when the closure adds nothing at its first generation;
    otherwise False and the first rule `fc_iterate` adds there."""
    added = fc_iterate(trs, 1).new_rules[0]
    return not added, added[0] if added else None
