"""Seeded random rewrite systems, emitted as system-file text.

The benchmark owns this generator so that edits to the test suite or to
`lmtk.corpus` never shift a workload: lmtk only ever sees the text. The
draw space matches the unfiltered random systems of the test suite (2-5
symbols of arity 0-2, variables x and y, 1-4 variable-preserving rules
with distinct root symbols), so it contains diverging, collapsing and
non-confluent systems alike.
"""

from __future__ import annotations

import random

ARITIES = (0, 0, 1, 1, 2)
RULE_COUNTS = (1, 2, 2, 3, 3, 4)
VARIABLES = ("x", "y")


def _term(rng: random.Random, symbols: list[tuple[str, int]],
          variables: list[str], depth: int) -> tuple[str, set[str]]:
    """A random term as text, with the variables it uses."""
    if depth <= 1:
        pool = [s for s in symbols if s[1] == 0] + variables
    else:
        pool = symbols + variables
    pick = rng.choice(pool)
    if isinstance(pick, str):
        return pick, {pick}
    name, arity = pick
    if arity == 0:
        return name, set()
    args, used = [], set()
    for _ in range(arity):
        text, vs = _term(rng, symbols, variables, depth - 1)
        args.append(text)
        used |= vs
    return f"{name}({','.join(args)})", used


def _root(text: str) -> str:
    return text.split("(", 1)[0]


def _rule(rng: random.Random, symbols: list[tuple[str, int]],
          attempts: int = 40) -> str | None:
    """`lhs -> rhs` with non-variable sides, equal variable sets and
    distinct roots, or None when the draws keep failing."""
    for _ in range(attempts):
        lhs_vars = rng.sample(VARIABLES, rng.randint(0, len(VARIABLES)))
        lhs, used = _term(rng, symbols, lhs_vars, rng.randint(1, 3))
        if lhs in VARIABLES:
            continue
        rhs, rhs_used = _term(rng, symbols, sorted(used), rng.randint(1, 3))
        if rhs in VARIABLES or rhs_used != used or _root(lhs) == _root(rhs):
            continue
        return f"{lhs} -> {rhs}"
    return None


def random_system_text(seed: int) -> str:
    """The system drawn from `seed`, in the native file format. Every
    seed yields a system: a draw without any rule gets one more rule
    attempt until it has one."""
    rng = random.Random(seed)
    symbols: list[tuple[str, int]] = []
    for i in range(rng.randint(2, 5)):
        arity = rng.choice(ARITIES)
        symbols.append((f"f{i}" if arity else f"a{i}", arity))
    if not any(a == 0 for _, a in symbols):
        symbols[-1] = (f"a{len(symbols) - 1}", 0)
    if not any(a > 0 for _, a in symbols):
        symbols[0] = ("f0", 1)
    rules: list[str] = []
    for _ in range(rng.choice(RULE_COUNTS)):
        rule = _rule(rng, symbols)
        if rule is not None:
            rules.append(rule)
    while not rules:
        rule = _rule(rng, symbols)
        if rule is not None:
            rules.append(rule)
    sig = " ".join(f"{n}/{a}" for n, a in symbols)
    body = "\n".join(f"  {r}" for r in rules)
    return f"sig: {sig}\nvars: {' '.join(VARIABLES)}\nrules:\n{body}\n"
