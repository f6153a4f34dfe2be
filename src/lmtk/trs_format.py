"""Reading and writing rewrite systems.

The native format declares the signature explicitly so arity errors are
caught at parse time:

    # lines starting with '#' are comments
    sig: f/2 i/1 g/1 b/0 c/0
    vars: x
    rules:
      [r1] f(x, i(x)) -> g(x)
      g(b) -> c

Rule labels are optional. The n-th rule, if unlabeled, gets rn, primed
(rn', rn'', ...) until it differs from every label the file gives and
from the labels of the unlabeled rules before it; a label the file
gives twice is an error. A legacy parenthesized style `(VAR x y)
(RULES l -> r ...)` is accepted as an import convenience; its signature
is read off the rules as they are parsed.
"""

from __future__ import annotations

import re
from typing import Optional

from .rewriting import Rule, Trs
from .terms import App, Symbol, Term, Var, render_term

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
# numerals are accepted as constant symbols (0, 1, ...), never as variables
TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|[0-9]+")


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        where = f" (line {line}, column {col})" if line else ""
        super().__init__(f"{message}{where}")
        self.line = line
        self.col = col


class _TermParser:
    """Parser for `f(t1,...,tn)` with declared symbols and variables."""

    def __init__(self, text: str, symbols: dict[str, Symbol],
                 variables: set[str], line: int = 0, col_offset: int = 0):
        self.text = text
        self.pos = 0
        self.symbols = symbols
        self.variables = variables
        self.line = line
        self.col_offset = col_offset

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        at = self.pos if at is None else at
        return ParseError(message, self.line, self.col_offset + at + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        m = TOKEN_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected an identifier")
        self.pos = m.end()
        return m.group()

    def term(self) -> Term:
        # iterative: input terms may nest deeper than the interpreter
        # recursion limit. Each open frame is a symbol name, the offset of
        # its '(' and the arguments parsed so far.
        frames: list[tuple[str, int, list[Term]]] = []
        while True:
            name = self.ident()
            self.skip_ws()
            if self.peek() == "(":
                if name in self.variables:
                    raise self.error(f"variable {name} applied to arguments")
                at = self.pos
                self.pos += 1
                self.skip_ws()
                if self.peek() != ")":
                    frames.append((name, at, []))
                    continue
                self.pos += 1
                done = self.application(name, at, [])
            else:
                done = self.leaf(name)
            # hand the finished term to the frames it completes
            while frames:
                name, at, args = frames[-1]
                args.append(done)
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    break
                self.expect(")")
                frames.pop()
                done = self.application(name, at, args)
            else:
                return done

    def application(self, name: str, at: int, args: list[Term]) -> Term:
        """`name` applied to `args`; `at` is the offset of its '('."""
        sym = self.symbols.get(name)
        if sym is None:
            raise self.error(f"undeclared symbol {name}", at)
        if len(args) != sym.arity:
            raise self.error(
                f"arity mismatch: {name} declared /{sym.arity}, "
                f"applied to {len(args)} arguments")
        return App(sym, tuple(args))

    def leaf(self, name: str) -> Term:
        if name in self.variables:
            return Var(name)
        if name not in self.symbols:
            raise self.error(f"undeclared symbol {name}")
        sym = self.symbols[name]
        if sym.arity != 0:
            raise self.error(
                f"arity mismatch: {name} declared /{sym.arity}, used as constant")
        return App(sym)

    def whole(self, trailing: str) -> Term:
        """The whole text as one term; `trailing` is the error for input
        left after it."""
        t = self.term()
        self.skip_ws()
        if self.pos < len(self.text):
            raise self.error(trailing)
        return t


def parse_term(text: str, trs: Trs) -> Term:
    """Parse a single term in the context of a system's signature."""
    return _TermParser(text, {s.name: s for s in trs.symbols},
                       set(trs.variables)).whole("trailing input after term")


def _strip_comment(line: str) -> str:
    i = line.find("#")
    return line if i < 0 else line[:i]


def parse_trs(text: str) -> Trs:
    """Parse the native format; falls back to the legacy parenthesized
    style when the first non-blank character is '('."""
    stripped = text.lstrip()
    if stripped.startswith("("):
        return parse_legacy_trs(text)

    symbols: dict[str, Symbol] = {}
    sym_order: list[Symbol] = []
    variables: list[str] = []
    rules: list[Rule] = []
    explicit: set[str] = set()
    # the index of each rule without a label
    unlabeled: list[int] = []
    section: Optional[str] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        if head in ("sig", "vars", "rules") and _ == ":":
            section = head
            line = rest.strip()
            if not line:
                continue
        if section == "sig":
            for item in line.split():
                name, slash, arity_s = item.partition("/")
                if slash != "/" or not arity_s.isdigit() or not TOKEN_RE.fullmatch(name):
                    raise ParseError(f"bad signature entry '{item}' "
                                     "(expected name/arity)", lineno, 1)
                if name in symbols:
                    raise ParseError(f"symbol {name} declared twice", lineno, 1)
                if name in variables:
                    raise ParseError(f"symbol {name} clashes with a variable",
                                     lineno, 1)
                sym = Symbol(name, int(arity_s))
                symbols[name] = sym
                sym_order.append(sym)
        elif section == "vars":
            for name in line.split():
                if not IDENT_RE.fullmatch(name):
                    raise ParseError(f"bad variable name '{name}'", lineno, 1)
                if name in symbols:
                    raise ParseError(f"variable {name} clashes with a symbol",
                                     lineno, 1)
                if name not in variables:
                    variables.append(name)
        elif section == "rules":
            label = ""
            m = re.match(r"\[\s*([A-Za-z0-9_'.~@-]+)\s*\]\s*", line)
            col = 1
            if m:
                label = m.group(1)
                col = m.end() + 1
                line = line[m.end():]
            if "->" not in line:
                raise ParseError("expected 'lhs -> rhs'", lineno, col)
            lhs_s, _, rhs_s = line.partition("->")
            lhs = _TermParser(lhs_s, symbols, set(variables), lineno,
                              col - 1).whole("trailing input before '->'")
            rhs = _TermParser(rhs_s, symbols, set(variables), lineno,
                              col - 1 + len(lhs_s) + 2
                              ).whole("trailing input after rhs")
            if not label:
                unlabeled.append(len(rules))
                label = f"r{len(rules) + 1}"
            elif label in explicit:
                raise ParseError(f"duplicate rule label {label}", lineno, 1)
            else:
                explicit.add(label)
            try:
                rules.append(Rule(lhs, rhs, label))
            except ValueError as e:
                raise ParseError(str(e), lineno, col) from None
        else:
            raise ParseError("expected a 'sig:', 'vars:' or 'rules:' section",
                             lineno, 1)

    # an automatic label avoids every explicit one, later ones included
    taken = set(explicit)
    for i in unlabeled:
        rule = rules[i]
        label = rule.label
        while label in taken:
            label += "'"
        taken.add(label)
        if label != rule.label:
            rules[i] = Rule.unchecked(rule.lhs, rule.rhs, label)
    return Trs(tuple(sym_order), tuple(variables), tuple(rules))


class _LegacyTermParser(_TermParser):
    """Declares each symbol with the arity of its first application to
    close; a constant may be written `a` or `a()`."""

    def application(self, name: str, at: int, args: list[Term]) -> Term:
        sym = self.symbols.setdefault(name, Symbol(name, len(args)))
        if sym.arity != len(args):
            raise self.error(f"symbol {name} used with arities "
                             f"{sym.arity} and {len(args)}")
        return App(sym, tuple(args))

    def leaf(self, name: str) -> Term:
        if name in self.variables:
            return Var(name)
        return self.application(name, self.pos, [])


def _section(text: str, name: str) -> Optional[str]:
    """The body of the first top-level `(name ...)` section of `text`,
    read to its own closing parenthesis; None when there is none."""
    body, depth = None, 0
    for m in re.finditer(rf"\(({IDENT_RE.pattern})?|\)", text):
        if m.group() != ")":
            if not depth and m.group(1) == name:
                body = m.end()
            depth += 1
        elif depth:
            depth -= 1
            if not depth and body is not None:
                return text[body:m.start()]
    if body is not None:
        raise ParseError(f"unclosed ({name} ...) section")
    return None


def parse_legacy_trs(text: str) -> Trs:
    """Parenthesized legacy style:

        (VAR x y)
        (RULES
          f(x, i(x)) -> g(x)
          g(b) -> c
        )

    The signature, sorted by name, holds each symbol with the arity it is
    applied with; inconsistent arities are an error. A variable declared
    twice is declared once; other sections, such as `(COMMENT ...)`, are
    skipped, with any section named inside them.
    """
    text = "\n".join(_strip_comment(line) for line in text.splitlines())
    variables = list(dict.fromkeys((_section(text, "VAR") or "").split()))
    body = _section(text, "RULES")
    if body is None:
        raise ParseError("missing (RULES ...) section")

    symbols: dict[str, Symbol] = {}
    rules: list[Rule] = []
    for chunk in body.splitlines():
        chunk = chunk.strip()
        if not chunk:
            continue
        if "->" not in chunk:
            raise ParseError(f"expected 'lhs -> rhs' in '{chunk}'")
        lhs_s, _, rhs_s = chunk.partition("->")
        lhs, rhs = (_LegacyTermParser(side, symbols, set(variables))
                    .whole("trailing input after term")
                    for side in (lhs_s, rhs_s))
        rules.append(Rule(lhs, rhs, f"r{len(rules) + 1}"))
    return Trs(tuple(sorted(symbols.values(), key=lambda s: s.name)),
               tuple(variables), tuple(rules))


def render_trs(trs: Trs) -> str:
    lines = []
    lines.append("sig: " + " ".join(f"{s.name}/{s.arity}" for s in trs.symbols))
    if trs.variables:
        lines.append("vars: " + " ".join(trs.variables))
    lines.append("rules:")
    for r in trs.rules:
        lines.append(f"  [{r.label}] {render_term(r.lhs)} -> {render_term(r.rhs)}")
    return "\n".join(lines) + "\n"
