"""First-order terms over a ranked signature.

Terms are either variables or applications of a fixed-arity symbol to
argument terms. Everything downstream (rewriting, overlap computation,
forward closure, the LM checker) manipulates these values, so they are
immutable and hashable. `App.__init__` is the one constructor of an
application: every rewrite step, trace and search builds through it.
Positions are 1-based integer tuples, the empty tuple being the root.
`subterms` walks the positions of a term in pre-order, left to right,
which is the order of the sorted position tuples; searches that report
their first hit report it in that order.
Substitutions are plain dicts from variable names to terms. `substitute`
is the one rebuild of a term, a loop like every walk here (terms outgrow
the recursion limit); it shares `_rebuilt` with `rewriting`'s normalizers.
`flatterm` is the one key of terms up to a renaming of their variables.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union


@dataclass(frozen=True)
class Symbol:
    """A function symbol with a fixed arity."""

    name: str
    arity: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # symbols key every term hash and the closure's rule index; the
        # generated hash would build and hash a tuple on every lookup
        object.__setattr__(self, "_hash", hash((self.name, self.arity)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False, slots=True, init=False)
class App:
    sym: Symbol
    args: tuple["Term", ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _size: int = field(init=False, repr=False, compare=False)

    def __init__(self, sym: Symbol, args: tuple["Term", ...] = ()) -> None:
        # the one constructor of a term: every rewrite step, trace and
        # search builds through it, and tests count built terms by
        # patching it. The class is frozen, so it writes its slots through
        # their member descriptors, whose setters are bound once below;
        # four object.__setattr__ calls cost about a quarter of a build
        if len(args) != sym.arity:
            raise ValueError(
                f"symbol {sym.name}/{sym.arity} applied to "
                f"{len(args)} arguments"
            )
        size = 1
        for a in args:
            size += a._size if a.__class__ is App else 1
        # terms are compared, hashed and measured constantly; cache both
        _set_sym(self, sym)
        _set_args(self, args)
        _set_hash(self, hash((sym, args)))
        _set_size(self, size)

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


# the slot setters of App, read only by App.__init__
_set_sym, _set_args, _set_hash, _set_size = (
    App.__dict__[name].__set__ for name in ("sym", "args", "_hash", "_size"))

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
    # iterative, like the other term walks: rules and rewritten terms
    # reach depths past the interpreter recursion limit
    out: set[str] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is Var:
            out.add(u.name)
        else:
            stack.extend(u.args)
    return out


def variables_in_order(t: Term) -> list[str]:
    """Variable names by first occurrence, left to right."""
    seen: list[str] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is Var:
            if u.name not in seen:
                seen.append(u.name)
        else:
            stack.extend(reversed(u.args))
    return seen


def is_ground(t: Term) -> bool:
    return not any(isinstance(u, Var) for _, u in subterms(t))


def term_size(t: Term) -> int:
    """Number of nodes (symbols and variables)."""
    return t._size if isinstance(t, App) else 1


def subterms(t: Term) -> Iterator[tuple[Position, Term]]:
    """Every position of `t` with its subterm, in pre-order, left to right
    (the order of `sorted` on positions). Iterative: rewriting and parsed
    input reach depths past the interpreter recursion limit."""
    stack: list[tuple[Position, Term]] = [(ROOT, t)]
    while stack:
        p, u = stack.pop()
        yield p, u
        if isinstance(u, App):
            for i in range(len(u.args), 0, -1):
                stack.append((p + (i,), u.args[i - 1]))


def subterm_at(t: Term, p: Position) -> Term:
    for i in p:
        if isinstance(t, Var) or not 1 <= i <= len(t.args):
            raise InvalidPositionError(f"position {render_position(p)} not in term")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, p: Position, s: Term) -> Term:
    # iterative along the position: rewriting can reach depths well past
    # the interpreter recursion limit. It builds one node per index of `p`,
    # and every step of a trace pays that
    spine: list[App] = []
    cur = t
    for i in p:
        if cur.__class__ is Var or not 1 <= i <= len(cur.args):
            raise InvalidPositionError(
                f"position {render_position(p)} not in term")
        spine.append(cur)
        cur = cur.args[i - 1]
    out = s
    for k in range(len(p) - 1, -1, -1):
        parent = spine[k]
        args = parent.args
        if len(args) == 1:
            out = App(parent.sym, (out,))
        else:
            i = p[k]
            out = App(parent.sym, args[:i - 1] + (out,) + args[i:])
    return out


def _rebuilt(node: App, args: list[Term]) -> Term:
    """`node` with arguments `args`, or `node` itself if none changed."""
    if all(map(operator.is_, args, node.args)):
        return node
    return App(node.sym, tuple(args))


def substitute(t: Term, subst: Subst) -> Term:
    """`t` with its variables bound in `subst` replaced, keeping each subterm
    with nothing to replace; a loop over spine frames, as in `normalize`."""
    if isinstance(t, Var):
        return subst.get(t.name, t)
    if not subst or not t.args:
        return t
    spine: list[tuple[App, list[Term]]] = []
    node, done = t, []
    while True:
        if len(done) < len(node.args):
            a = node.args[len(done)]
            if a.__class__ is Var:
                done.append(subst.get(a.name, a))
            elif a.args:
                spine.append((node, done))
                node, done = a, []
            else:
                done.append(a)
        else:
            u = _rebuilt(node, done)
            if not spine:
                return u
            node, done = spine.pop()
            done.append(u)


def flatterm(items: Sequence[Union[Term, str]], subst: Subst = {}) -> tuple:
    """The flat pre-order of `items` in turn (flatterms: Christian, JAR
    1993): each symbol by its name, each variable bound in `subst` by the
    flatterm of its binding (`subst` must be idempotent), each other
    variable by its first occurrence, 0, 1, ..., and a str item as it
    stands. Names are unique in a signature and arities fixed, so two
    term sequences have equal flatterms exactly when one is the other with
    its variables renamed: this is the one key up to renaming."""
    numbers: dict[str, int] = {}
    out: list = []
    stack = list(items)
    stack.reverse()
    while stack:
        u = stack.pop()
        if u.__class__ is App:
            out.append(u.sym.name)
            if u.args:
                stack += u.args[::-1]
        elif u.__class__ is Var:
            bound = subst.get(u.name)
            if bound is None:
                out.append(numbers.setdefault(u.name, len(numbers)))
            else:
                stack.append(bound)
        else:
            out.append(u)
    return tuple(out)


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
        elif pat.sym is not sub.sym and pat.sym != sub.sym:
            return None
        else:
            stack.extend(zip(pat.args, sub.args))
    return subst


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
            if a.name in variables_of(b):
                return None
            binding = {a.name: b}
            for x in list(subst):
                subst[x] = substitute(subst[x], binding)
            subst[a.name] = b
        elif isinstance(b, Var):
            stack.append((b, a))
        elif a.sym is not b.sym and a.sym != b.sym:
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
    """Rename the variables of (lhs, rhs) away from `avoid`, by two
    `substitute` calls; a pair with nothing to rename comes back as itself.

    The renaming is a bijection on the pair's variables, deterministic in
    the inputs: clashing names get the first free numeric suffix. Callers
    put the names of the signature's symbols into `avoid`, so no fresh
    name is a symbol's name.
    """
    own = variables_in_order(lhs) + variables_in_order(rhs)
    taken = avoid.union(own)
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
    given signature order, variables after constants at depth 1.

    A term of depth d has an argument of depth d-1. Within a symbol the
    argument tuples come in product order over the terms of lower depth,
    and only the first arity-1 arguments are tested: when none of them
    has depth d-1, the last one runs over the terms of depth d-1 alone,
    which end that list in the same order."""
    if max_depth < 1:
        return
    layer: list[Term] = ([App(s) for s in symbols if s.arity == 0]
                         + [Var(v) for v in variables])
    known: list[Term] = []
    yield from layer
    for depth in range(2, max_depth + 1):
        known.extend(layer)
        prev, prev_set = layer, set(layer)  # terms of depth exactly depth-1
        layer = []
        for s in symbols:
            if s.arity == 0:
                continue
            for head in itertools.product(known, repeat=s.arity - 1):
                lasts = known if any(a in prev_set for a in head) else prev
                for a in lasts:
                    t = App(s, (*head, a))
                    layer.append(t)
                    yield t
