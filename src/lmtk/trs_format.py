"""Reading and writing rewrite systems.

The native format declares the signature explicitly so arity errors are
caught at parse time:

    # lines starting with '#' are comments
    sig: f/2 i/1 g/1 b/0 c/0
    vars: x
    rules:
      [r1] f(x, i(x)) -> g(x)
      g(b) -> c

Rule labels are optional; unlabeled rules get r1, r2, ... in order. A
legacy parenthesized style `(VAR x y) (RULES l -> r ...)` is accepted as
an import convenience; its signature is inferred from usage.
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

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col_offset + self.pos + 1)

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
        # recursion limit. Each open frame is a symbol name and the arguments
        # parsed so far.
        frames: list[tuple[str, list[Term]]] = []
        while True:
            name = self.ident()
            self.skip_ws()
            if self.peek() == "(":
                if name in self.variables:
                    raise self.error(f"variable {name} applied to arguments")
                if name not in self.symbols:
                    raise self.error(f"undeclared symbol {name}")
                self.pos += 1
                self.skip_ws()
                if self.peek() != ")":
                    frames.append((name, []))
                    continue
                self.pos += 1
                done = self.application(name, [])
            else:
                done = self.leaf(name)
            # hand the finished term to the frames it completes
            while frames:
                name, args = frames[-1]
                args.append(done)
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    break
                self.expect(")")
                frames.pop()
                done = self.application(name, args)
            else:
                return done

    def application(self, name: str, args: list[Term]) -> Term:
        sym = self.symbols[name]
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

    def finished(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_term(text: str, trs: Trs) -> Term:
    """Parse a single term in the context of a system's signature."""
    p = _TermParser(text, {s.name: s for s in trs.symbols}, set(trs.variables))
    t = p.term()
    if not p.finished():
        raise p.error("trailing input after term")
    return t


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
    pending_labels: set[str] = set()
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
            parser = _TermParser(lhs_s, symbols, set(variables), lineno, col - 1)
            lhs = parser.term()
            if not parser.finished():
                raise parser.error("trailing input before '->'")
            parser = _TermParser(rhs_s, symbols, set(variables), lineno,
                                 col - 1 + len(lhs_s) + 2)
            rhs = parser.term()
            if not parser.finished():
                raise parser.error("trailing input after rhs")
            if not label:
                label = f"r{len(rules) + 1}"
                while label in pending_labels:
                    label = label + "'"
            if label in pending_labels:
                raise ParseError(f"duplicate rule label {label}", lineno, 1)
            pending_labels.add(label)
            try:
                rules.append(Rule(lhs, rhs, label))
            except ValueError as e:
                raise ParseError(str(e), lineno, col) from None
        else:
            raise ParseError("expected a 'sig:', 'vars:' or 'rules:' section",
                             lineno, 1)

    return Trs(tuple(sym_order), tuple(variables), tuple(rules))


def parse_legacy_trs(text: str) -> Trs:
    """Parenthesized legacy style:

        (VAR x y)
        (RULES
          f(x, i(x)) -> g(x)
          g(b) -> c
        )

    The signature is inferred from how symbols are applied; inconsistent
    arities are an error.
    """
    var_m = re.search(r"\(VAR([^)]*)\)", text)
    variables = var_m.group(1).split() if var_m else []
    rules_m = re.search(r"\(RULES(.*)\)", text, re.DOTALL)
    if not rules_m:
        raise ParseError("missing (RULES ...) section")
    body = rules_m.group(1)

    arities: dict[str, int] = {}
    rule_srcs: list[tuple[str, str]] = []
    for chunk in body.splitlines():
        chunk = _strip_comment(chunk).strip()
        if not chunk:
            continue
        if "->" not in chunk:
            raise ParseError(f"expected 'lhs -> rhs' in '{chunk}'")
        lhs_s, _, rhs_s = chunk.partition("->")
        rule_srcs.append((lhs_s.strip(), rhs_s.strip()))
        for side in (lhs_s, rhs_s):
            _infer_arities(side, set(variables), arities)

    sym_order = [Symbol(n, a) for n, a in sorted(arities.items())]
    symbols = {s.name: s for s in sym_order}
    rules = []
    for i, (lhs_s, rhs_s) in enumerate(rule_srcs, start=1):
        lhs = _parse_whole(lhs_s, symbols, set(variables))
        rhs = _parse_whole(rhs_s, symbols, set(variables))
        rules.append(Rule(lhs, rhs, f"r{i}"))
    return Trs(tuple(sym_order), tuple(variables), tuple(rules))


def _infer_arities(src: str, variables: set[str], arities: dict[str, int]) -> None:
    pos = 0
    while True:
        m = TOKEN_RE.search(src, pos)
        if not m:
            return
        name = m.group()
        pos = m.end()
        if name in variables:
            continue
        arity = 0
        if pos < len(src) and src[pos:].lstrip().startswith("("):
            depth = 0
            arity = 1
            for ch in src[src.index("(", pos):]:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif ch == "," and depth == 1:
                    arity += 1
        if name in arities and arities[name] != arity:
            raise ParseError(f"symbol {name} used with arities "
                             f"{arities[name]} and {arity}")
        arities[name] = arity


def _parse_whole(src: str, symbols: dict[str, Symbol], variables: set[str]) -> Term:
    p = _TermParser(src, symbols, variables)
    t = p.term()
    if not p.finished():
        raise p.error("trailing input after term")
    return t


def render_trs(trs: Trs) -> str:
    lines = []
    lines.append("sig: " + " ".join(f"{s.name}/{s.arity}" for s in trs.symbols))
    if trs.variables:
        lines.append("vars: " + " ".join(trs.variables))
    lines.append("rules:")
    for r in trs.rules:
        lines.append(f"  [{r.label}] {render_term(r.lhs)} -> {render_term(r.rhs)}")
    return "\n".join(lines) + "\n"
