"""Shared systems and machines used across the suite.

The hand-built corpus mixes certified LM systems, convergent forward-closed
systems that are not LM, and systems needing the reduction transforms, so
the property tests exercise every code path. Machine encodings are added
on top by `corpus_systems`.
"""

from __future__ import annotations

import functools
import importlib.util
from pathlib import Path

import pytest

from lmtk.checker import CheckOptions, QdReport, lm_verdict
from lmtk.minsky import MinskyMachine, Transition, encode, encoding_precedence
from lmtk.rewriting import Trs
from lmtk.terms import ROOT, Position, Term, Var, substitute, variables_in_order
from lmtk.trs_format import parse_trs

UNARY_CHAIN = """
sig: f/1 g/1 h/1
vars: x
rules:
  f(g(h(x))) -> g(x)
"""

DUPLICATING = """
sig: f/2 0/0
vars: x
rules:
  f(x, x) -> 0
"""

ROOT_OVERLAP = """
sig: f/2 i/1 g/1 b/0 c/0
vars: x
rules:
  f(x, i(x)) -> g(x)
  g(b) -> c
  f(b, i(b)) -> c
"""

ROOT_OVERLAP_TRUNCATED = """
sig: f/2 i/1 g/1 b/0 c/0
vars: x
rules:
  f(x, i(x)) -> g(x)
  g(b) -> c
"""

NEEDS_RIGHT_REDUCE = """
sig: f/1 g/1 a/0 b/0
vars: x
rules:
  f(x) -> g(a)
  g(a) -> b
  f(x) -> b
"""

NEEDS_LEFT_REDUCE = """
sig: f/1 g/1 b/0 c/0 d/0
vars: x
rules:
  g(b) -> d
  f(g(b)) -> c
  f(d) -> c
"""

# small certified-LM systems
LM_SOURCES = {
    "unary_chain": UNARY_CHAIN,
    "rename_unary": """
sig: f/1 g/1
vars: x
rules:
  f(x) -> g(x)
""",
    "rename_binary": """
sig: f/2 g/2
vars: x y
rules:
  f(x, y) -> g(x, y)
""",
    "swap_args": """
sig: f/2 g/2
vars: x y
rules:
  f(x, y) -> g(y, x)
""",
    "peel_successor": """
sig: f/1 g/1 s/1
vars: x
rules:
  f(s(x)) -> g(x)
""",
    "grow_rhs": """
sig: f/1 g/1 h/1
vars: x
rules:
  f(x) -> g(h(x))
""",
    "ground_rule": """
sig: f/1 g/1 a/0 b/0
vars: x
rules:
  f(a) -> g(b)
""",
    "two_disjoint": """
sig: f/1 g/1 p/1 q/1
vars: x
rules:
  f(x) -> g(x)
  p(x) -> q(x)
""",
    "shared_target": """
sig: f/1 g/1 p/1
vars: x
rules:
  f(x) -> g(x)
  p(x) -> g(x)
""",
    "nested_lhs": """
sig: f/1 g/1 h/1
vars: x
rules:
  h(f(x)) -> g(x)
""",
    "binary_peel": """
sig: f/2 g/2 s/1
vars: x y
rules:
  f(s(x), y) -> g(x, y)
""",
    "const_pair": """
sig: f/1 g/1 a/0
vars: x
rules:
  f(f(a)) -> g(a)
""",
    "three_disjoint": """
sig: f/1 g/1 p/1 q/1 u/1 v/1
vars: x
rules:
  f(x) -> g(x)
  p(x) -> q(x)
  u(x) -> v(x)
""",
    "double_peel": """
sig: f/1 g/1 s/1
vars: x
rules:
  f(s(s(x))) -> g(x)
""",
    "wrap_rhs": """
sig: f/1 g/1 s/1
vars: x
rules:
  f(x) -> g(s(x))
""",
}

# convergent and forward-closed, but not all LM
FC_SOURCES = {
    "root_overlap": ROOT_OVERLAP,
    "needs_right_reduce": NEEDS_RIGHT_REDUCE,
    "needs_left_reduce": NEEDS_LEFT_REDUCE,
    "erasing_rule": """
sig: f/2 g/1 c/0
vars: x y
rules:
  f(x, y) -> g(x)
""",
    "two_ground": """
sig: a/0 b/0 c/0 d/0
rules:
  a -> b
  c -> d
""",
}

TINY_MACHINE = MinskyMachine(
    ("q0", "q1", "qL"), "q0", "qL",
    (Transition("q0", 1, "+", "q1"), Transition("q1", 1, "+", "qL")))

BRANCHING_MACHINE = MinskyMachine(
    ("q0", "q1", "qL"), "q0", "qL",
    (Transition("q0", 1, "P", "q1"), Transition("q0", 1, "Z", "qL"),
     Transition("q1", 1, "-", "q0")))

SINGLE_STEP_MACHINE = MinskyMachine(
    ("q0", "qL"), "q0", "qL",
    (Transition("q0", 1, "+", "qL"),))

MACHINE_STARTS = {
    "tiny": (TINY_MACHINE, 0, 0),
    "branching": (BRANCHING_MACHINE, 1, 0),
    "single_step": (SINGLE_STEP_MACHINE, 0, 0),
}


def render_machine(m: MinskyMachine) -> str:
    """The machine in the `lmtk minsky` file format."""
    lines = [f"states: {' '.join(m.states)}",
             f"initial: {m.initial}",
             f"final: {m.final}"]
    lines.extend(str(t) for t in m.transitions)
    return "\n".join(lines) + "\n"


def has_violation(report: QdReport, kind: str) -> bool:
    """Whether the quasi-determinism report names a violation of `kind`."""
    return any(v.kind == kind for v in report.violations)


def load(source: str) -> Trs:
    return parse_trs(source)


def corpus_systems() -> list[tuple[str, Trs, CheckOptions]]:
    """Name, system, and checker options (encodings are checked under
    their encoding precedence; everything else is searched)."""
    out = []
    for name, src in {**LM_SOURCES, **FC_SOURCES}.items():
        out.append((name, load(src), CheckOptions()))
    for name, (machine, k, p) in MACHINE_STARTS.items():
        inst = encode(machine, k, p)
        opts = CheckOptions(precedence=encoding_precedence(machine))
        out.append((f"encoded_{name}", inst.theory, opts))
    return out


@functools.cache
def _pool_generator():
    spec = importlib.util.spec_from_file_location(
        "lmtk_pool_gen", Path(__file__).resolve().parents[1] / "perfbench"
        / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.random_system_text


def pool_text(seed: int) -> str:
    """The benchmark's pool system of `seed` (`perfbench/gen.py`), as
    system-file text."""
    return _pool_generator()(seed)


def sweep_sources(pool_seeds) -> dict[str, str]:
    """`LM_SOURCES`, `FC_SOURCES` and the pool systems of `pool_seeds`, by
    name: the systems the differential sweeps run on."""
    return {**LM_SOURCES, **FC_SOURCES,
            **{f"pool{seed}": pool_text(seed) for seed in pool_seeds}}


# variable right sides, first and last in rule order: such a rhs unifies
# with every lhs renamed apart, at no non-variable position
VARIABLE_RHS = """
sig: f/1 g/2 h/1 a/0
vars: x y
rules:
  f(x) -> x
  g(x, y) -> h(y)
  h(a) -> a
  g(a, f(x)) -> x
"""

# constants named like the fresh names of the variables x and y
FRESH_NAME_CLASH = """
sig: f/2 g/1 h/1 v1/0 x1/0
vars: x y
rules:
  f(x, y) -> g(f(y, x))
  g(x) -> x
  g(f(x, v1)) -> h(x1)
  h(x) -> f(x, x1)
  f(x1, x) -> g(h(x))
"""

# x1 is a constant that the signature declares and no rule uses; the
# variable that composing r2 into r1 renames apart must not take its name
UNUSED_SYMBOL_CLASH = """
sig: f/1 g/2 a/0 x1/0
vars: x
rules:
  f(x) -> g(x, x)
  g(x, a) -> f(x)
"""


def overlap_systems() -> list[Trs]:
    """Every system the overlap oracles compare on, certified or not: the
    named systems above, the corpus with the encoded machines, and the
    random systems of seeds 0-119."""
    import random
    from random_systems import random_system
    out = [load(src) for src in (UNARY_CHAIN, DUPLICATING, ROOT_OVERLAP,
                                 ROOT_OVERLAP_TRUNCATED, NEEDS_RIGHT_REDUCE,
                                 NEEDS_LEFT_REDUCE, VARIABLE_RHS)]
    out.extend(trs for _, trs, _ in corpus_systems())
    for seed in range(120):
        trs = random_system(random.Random(seed))
        if trs is not None:
            out.append(trs)
    return out


@pytest.fixture(scope="session")
def corpus():
    return corpus_systems()


@pytest.fixture(scope="session")
def certified_lm(corpus):
    """Corpus systems the checker certifies, with their reports."""
    out = []
    for name, trs, opts in corpus:
        report = lm_verdict(trs, opts)
        if report.verdict == "pass":
            out.append((name, trs, opts, report))
    return out


def odp(s: Term, t: Term) -> set[Position]:
    """Outermost positions where the two terms carry different symbols
    (a variable counts as its name; a missing position is a mismatch)."""
    out: set[Position] = set()

    def walk(a: Term, b: Term, prefix: Position) -> None:
        la = a.name if isinstance(a, Var) else a.sym.name
        lb = b.name if isinstance(b, Var) else b.sym.name
        if la != lb:
            out.add(prefix)
            return
        if isinstance(a, Var) or isinstance(b, Var):
            return
        for i, (x, y) in enumerate(zip(a.args, b.args), start=1):
            walk(x, y, prefix + (i,))

    walk(s, t, ROOT)
    return out


def canonical_term_pair(a: Term, b: Term) -> tuple[Term, Term]:
    """Rename variables by first occurrence across the pair (v1, v2, ...) by
    two `substitute` calls, which keep each subterm without a variable. Keys
    are terms, not text: a constant may be named like a canonical variable.
    The oracle of `terms.flatterm`, the key up to renaming that lmtk uses."""
    names = dict.fromkeys(variables_in_order(a) + variables_in_order(b))
    renaming = {name: Var(f"v{k}") for k, name in enumerate(names, 1)}
    return substitute(a, renaming), substitute(b, renaming)
