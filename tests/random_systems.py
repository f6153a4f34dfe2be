"""Seeded random generation of small rewrite systems.

Used by the property suites: draw systems until enough pass a filter
(variable-preserving, quasi-deterministic, certified convergent), then
test a structural property over the survivors. Everything is driven by an
explicit seed so failures reproduce.
"""

from __future__ import annotations

import random
from typing import Optional

from lmtk.checker import check_termination, check_confluence, is_quasi_deterministic
from lmtk.overlaps import Equation
from lmtk.rewriting import FuelExhausted, Rule, Trs
from lmtk.terms import App, Symbol, Term, Var, variables_of


def random_term(rng: random.Random, symbols: list[Symbol], variables: list[str],
                depth: int) -> Term:
    choices: list = list(symbols)
    if variables:
        choices.extend(variables)
    if depth <= 1:
        leaves = [s for s in symbols if s.arity == 0] + list(variables)
        pick = rng.choice(leaves)
    else:
        pick = rng.choice(choices)
    if isinstance(pick, str):
        return Var(pick)
    return App(pick, tuple(random_term(rng, symbols, variables, depth - 1)
                           for _ in range(pick.arity)))


def random_rule(rng: random.Random, symbols: list[Symbol],
                variables: list[str], label: str,
                max_depth: int = 3,
                attempts: int = 40) -> Optional[Rule]:
    """A variable-preserving rule with non-variable sides and distinct
    root symbols, or None if the draw keeps failing."""
    for _ in range(attempts):
        lhs = random_term(rng, symbols, rng.sample(variables, rng.randint(0, len(variables))),
                          rng.randint(1, max_depth))
        if isinstance(lhs, Var):
            continue
        lhs_vars = sorted(variables_of(lhs))
        rhs = random_term(rng, symbols, lhs_vars, rng.randint(1, max_depth))
        if isinstance(rhs, Var):
            continue
        if variables_of(rhs) != set(lhs_vars):
            continue
        if lhs.sym.name == rhs.sym.name:
            continue   # root-stable rules can never survive the filter
        return Rule(lhs, rhs, label)
    return None


def random_system(rng: random.Random, max_rules: int = 4,
                  max_symbols: int = 5) -> Optional[Trs]:
    n_sym = rng.randint(2, max_symbols)
    symbols = []
    for i in range(n_sym):
        arity = rng.choice([0, 0, 1, 1, 2])
        symbols.append(Symbol(f"f{i}" if arity else f"a{i}", arity))
    if not any(s.arity == 0 for s in symbols):
        symbols[-1] = Symbol("a0", 0)
    if not any(s.arity > 0 for s in symbols):
        symbols[0] = Symbol("f0", 1)
    variables = ["x", "y"]
    rules = []
    # bias toward multi-rule systems; closure interactions need them
    for i in range(rng.choice([1, 2, 2, 3, 3, 4])):
        r = random_rule(rng, symbols, variables, f"r{i + 1}")
        if r is not None:
            rules.append(r)
    if not rules:
        return None
    try:
        return Trs(tuple(symbols), tuple(variables), tuple(rules))
    except ValueError:
        return None


def convergent_quasi_deterministic_corpus(seed: int, count: int,
                                          max_draws: int = 100_000) -> list[Trs]:
    """Draw until `count` systems pass the filter: quasi-deterministic
    (read as equations), variable-preserving, LPO-terminating, and with
    joinable critical pairs."""
    rng = random.Random(seed)
    out: list[Trs] = []
    for _ in range(max_draws):
        if len(out) >= count:
            break
        trs = random_system(rng)
        if trs is None:
            continue
        eqs = [Equation(r.lhs, r.rhs, r.label) for r in trs.rules]
        if not is_quasi_deterministic(eqs).ok:
            continue
        term = check_termination(trs)
        if not term.ok:
            continue
        try:
            if not check_confluence(trs).ok:
                continue
        except FuelExhausted:
            continue
        out.append(trs)
    return out
