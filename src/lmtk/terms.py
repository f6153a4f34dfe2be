"""First-order terms over a ranked signature.

Terms are either variables or applications of a fixed-arity symbol to
argument terms. Everything downstream (rewriting, overlap computation,
forward closure, the LM checker) manipulates these values, so they are
immutable and hashable. Positions are 1-based integer tuples, the empty
tuple being the root. Substitutions are plain dicts from variable names
to terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union


@dataclass(frozen=True)
class Symbol:
    """A function symbol with a fixed arity."""

    name: str
    arity: int

    def __repr__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False, slots=True)
class App:
    sym: Symbol
    args: tuple["Term", ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.args) != self.sym.arity:
            raise ValueError(
                f"symbol {self.sym.name}/{self.sym.arity} applied to "
                f"{len(self.args)} arguments"
            )
        # terms are compared, hashed and measured constantly; cache both
        object.__setattr__(self, "_hash", hash((self.sym, self.args)))
        object.__setattr__(self, "_size", 1 + sum(
            a._size if isinstance(a, App) else 1 for a in self.args))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not App or self._hash != other._hash:
            return False
        # iterative: rewriting builds terms deeper than the recursion limit
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a.sym is not b.sym and a.sym != b.sym:
                return False
            for x, y in zip(a.args, b.args):
                if x.__class__ is App and y.__class__ is App:
                    if x._hash != y._hash:
                        return False
                    if x is not y:
                        pairs.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return render_term(self)


Term = Union[Var, App]

Position = tuple[int, ...]

Subst = dict[str, Term]

ROOT: Position = ()


class InvalidPositionError(ValueError):
    """Raised when a position does not exist in the given term."""


def render_term(t: Term) -> str:
    """Concrete syntax: `f(a,g(x))`, constants without parentheses."""
    # iterative: parsed input and rewriting both reach depths past the
    # interpreter recursion limit. The stack holds terms and literal text.
    out: list[str] = []
    stack: list = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is str:
            out.append(u)
        elif isinstance(u, Var):
            out.append(u.name)
        elif not u.args:
            out.append(u.sym.name)
        else:
            out.append(f"{u.sym.name}(")
            stack.append(")")
            for i in range(len(u.args) - 1, 0, -1):
                stack.append(u.args[i])
                stack.append(",")
            stack.append(u.args[0])
    return "".join(out)


def render_position(p: Position) -> str:
    """Dot-joined indices, `e` for the root."""
    return ".".join(str(i) for i in p) if p else "e"


def variables_of(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    out: set[str] = set()
    for a in t.args:
        out |= variables_of(a)
    return out


def variables_in_order(t: Term) -> list[str]:
    """Variable names by first occurrence, left to right."""
    seen: list[str] = []

    def walk(u: Term) -> None:
        if isinstance(u, Var):
            if u.name not in seen:
                seen.append(u.name)
        else:
            for a in u.args:
                walk(a)

    walk(t)
    return seen


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    return all(is_ground(a) for a in t.args)


def term_size(t: Term) -> int:
    """Number of nodes (symbols and variables)."""
    return t._size if isinstance(t, App) else 1


def term_depth(t: Term) -> int:
    """A variable or constant has depth 1."""
    if isinstance(t, Var) or not t.args:
        return 1
    return 1 + max(term_depth(a) for a in t.args)


def positions(t: Term, nonvar_only: bool = False) -> set[Position]:
    """All positions of `t`; with `nonvar_only`, only those of non-variable
    subterms (a bare variable then has no position at all)."""
    out: set[Position] = set()

    def walk(u: Term, prefix: Position) -> None:
        if isinstance(u, Var):
            if not nonvar_only:
                out.add(prefix)
            return
        out.add(prefix)
        for i, a in enumerate(u.args, start=1):
            walk(a, prefix + (i,))

    walk(t, ROOT)
    return out


def subterm_at(t: Term, p: Position) -> Term:
    for i in p:
        if isinstance(t, Var) or not 1 <= i <= len(t.args):
            raise InvalidPositionError(f"position {render_position(p)} not in term")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, p: Position, s: Term) -> Term:
    # iterative along the position: rewriting can reach depths well past
    # the interpreter recursion limit
    spine: list[App] = []
    cur = t
    for i in p:
        if isinstance(cur, Var) or not 1 <= i <= len(cur.args):
            raise InvalidPositionError(
                f"position {render_position(p)} not in term")
        spine.append(cur)
        cur = cur.args[i - 1]
    out = s
    for parent, i in zip(reversed(spine), reversed(p)):
        out = App(parent.sym,
                  parent.args[:i - 1] + (out,) + parent.args[i:])
    return out


def substitute(t: Term, subst: Subst) -> Term:
    if isinstance(t, Var):
        return subst.get(t.name, t)
    if not subst:
        return t
    return App(t.sym, tuple(substitute(a, subst) for a in t.args))


def match_term(pattern: Term, subject: Term) -> Optional[Subst]:
    """One-sided matching: a substitution s with s(pattern) == subject, or
    None. Subject variables are treated as constants."""
    return match_many([(pattern, subject)])


def match_many(pairs: Sequence[tuple[Term, Term]]) -> Optional[Subst]:
    """Simultaneous matching of several (pattern, subject) pairs under one
    consistent substitution."""
    subst: Subst = {}
    stack = list(pairs)
    while stack:
        pat, sub = stack.pop()
        if isinstance(pat, Var):
            bound = subst.get(pat.name)
            if bound is None:
                subst[pat.name] = sub
            elif bound != sub:
                return None
        elif isinstance(sub, Var):
            return None
        elif pat.sym != sub.sym:
            return None
        else:
            stack.extend(zip(pat.args, sub.args))
    return subst


def occurs_in(name: str, t: Term) -> bool:
    if isinstance(t, Var):
        return t.name == name
    return any(occurs_in(name, a) for a in t.args)


def mgu(s: Term, t: Term) -> Optional[Subst]:
    """Most general unifier of s and t (idempotent), or None.

    Plain first-order unification with eager occurs check; the result is
    applied to itself as it is built, so applying it twice is the same as
    applying it once.
    """
    subst: Subst = {}
    stack: list[tuple[Term, Term]] = [(s, t)]
    while stack:
        a, b = stack.pop()
        a = substitute(a, subst)
        b = substitute(b, subst)
        if a == b:
            continue
        if isinstance(a, Var):
            if occurs_in(a.name, b):
                return None
            binding = {a.name: b}
            for x in list(subst):
                subst[x] = substitute(subst[x], binding)
            subst[a.name] = b
        elif isinstance(b, Var):
            stack.append((b, a))
        elif a.sym != b.sym:
            return None
        else:
            stack.extend(zip(a.args, b.args))
    return subst


def fresh_name(base: str, avoid: set[str]) -> str:
    """First of base1, base2, ... not in `avoid`."""
    k = 1
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


def rename_pair_apart(lhs: Term, rhs: Term, avoid: set[str]) -> tuple[Term, Term]:
    """Rename the variables of (lhs, rhs) away from `avoid`.

    The renaming is a bijection on the pair's variables, deterministic in
    the inputs: clashing names get the first free numeric suffix.
    """
    own = variables_in_order(lhs) + variables_in_order(rhs)
    taken = set(avoid) | set(own)
    renaming: Subst = {}
    for name in own:
        if name in renaming or name not in avoid:
            continue
        new = fresh_name(name, taken)
        renaming[name] = Var(new)
        taken.add(new)
    return substitute(lhs, renaming), substitute(rhs, renaming)


def enumerate_terms(
    symbols: Sequence[Symbol],
    variables: Sequence[str],
    max_depth: int,
) -> Iterator[Term]:
    """All terms of depth <= max_depth, depth-increasing, symbols in the
    given signature order, variables after constants at depth 1."""
    if max_depth < 1:
        return
    layer: list[Term] = ([App(s) for s in symbols if s.arity == 0]
                         + [Var(v) for v in variables])
    known: list[Term] = []
    yield from layer
    for depth in range(2, max_depth + 1):
        known.extend(layer)
        prev_set = set(layer)  # terms of depth exactly depth-1
        layer = []
        for s in symbols:
            if s.arity == 0:
                continue
            for args in itertools.product(known, repeat=s.arity):
                if any(a in prev_set for a in args):
                    t = App(s, args)
                    layer.append(t)
                    yield t
