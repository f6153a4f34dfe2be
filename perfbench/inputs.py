"""Hand-written inputs the benchmark owns, as text.

The systems are copies of the hand-built corpus of the test suite, kept
here so that edits to the tests never shift a workload. Each carries the
verdict summary a correct checker gives it, written out by hand.
"""

from __future__ import annotations

# name -> (system text, expected `LmReport.summary()`)
PASS = "LM-system: PASS (collapse bounded at depth 5)"

HAND_SYSTEMS: dict[str, tuple[str, str]] = {
    "unary_chain": ("""
sig: f/1 g/1 h/1
vars: x
rules:
  f(g(h(x))) -> g(x)
""", PASS),
    "rename_unary": ("""
sig: f/1 g/1
vars: x
rules:
  f(x) -> g(x)
""", PASS),
    "rename_binary": ("""
sig: f/2 g/2
vars: x y
rules:
  f(x, y) -> g(x, y)
""", PASS),
    "swap_args": ("""
sig: f/2 g/2
vars: x y
rules:
  f(x, y) -> g(y, x)
""", PASS),
    "peel_successor": ("""
sig: f/1 g/1 s/1
vars: x
rules:
  f(s(x)) -> g(x)
""", PASS),
    "grow_rhs": ("""
sig: f/1 g/1 h/1
vars: x
rules:
  f(x) -> g(h(x))
""", PASS),
    "ground_rule": ("""
sig: f/1 g/1 a/0 b/0
vars: x
rules:
  f(a) -> g(b)
""", PASS),
    "two_disjoint": ("""
sig: f/1 g/1 p/1 q/1
vars: x
rules:
  f(x) -> g(x)
  p(x) -> q(x)
""", PASS),
    "shared_target": ("""
sig: f/1 g/1 p/1
vars: x
rules:
  f(x) -> g(x)
  p(x) -> g(x)
""", PASS),
    "nested_lhs": ("""
sig: f/1 g/1 h/1
vars: x
rules:
  h(f(x)) -> g(x)
""", PASS),
    "binary_peel": ("""
sig: f/2 g/2 s/1
vars: x y
rules:
  f(s(x), y) -> g(x, y)
""", PASS),
    "const_pair": ("""
sig: f/1 g/1 a/0
vars: x
rules:
  f(f(a)) -> g(a)
""", PASS),
    "three_disjoint": ("""
sig: f/1 g/1 p/1 q/1 u/1 v/1
vars: x
rules:
  f(x) -> g(x)
  p(x) -> q(x)
  u(x) -> v(x)
""", PASS),
    "double_peel": ("""
sig: f/1 g/1 s/1
vars: x
rules:
  f(s(s(x))) -> g(x)
""", PASS),
    "wrap_rhs": ("""
sig: f/1 g/1 s/1
vars: x
rules:
  f(x) -> g(s(x))
""", PASS),
    "root_overlap": ("""
sig: f/2 i/1 g/1 b/0 c/0
vars: x
rules:
  f(x, i(x)) -> g(x)
  g(b) -> c
  f(b, i(b)) -> c
""", "LM-system: FAIL (rhs quasi-deterministic)"),
    "needs_right_reduce": ("""
sig: f/1 g/1 a/0 b/0
vars: x
rules:
  f(x) -> g(a)
  g(a) -> b
  f(x) -> b
""", "LM-system: FAIL (right-reduced, non-subterm-collapsing, "
     "rhs quasi-deterministic)"),
    "needs_left_reduce": ("""
sig: f/1 g/1 b/0 c/0 d/0
vars: x
rules:
  g(b) -> d
  f(g(b)) -> c
  f(d) -> c
""", "LM-system: FAIL (almost-left-reduced, rhs quasi-deterministic)"),
    "erasing_rule": ("""
sig: f/2 g/1 c/0
vars: x y
rules:
  f(x, y) -> g(x)
""", "LM-system: FAIL (non-subterm-collapsing, rhs quasi-deterministic)"),
    "two_ground": ("""
sig: a/0 b/0 c/0 d/0
rules:
  a -> b
  c -> d
""", PASS),
}

# Signatures declared so that the permutation LPO search reaches its
# certificate late: `chain8` admits only s1 > ... > s7 > c, the last of
# its 40320 orders; `pairs7` is certified first at order 4165 of 5040.
SEARCH_SYSTEMS: dict[str, tuple[str, str]] = {
    "chain8": ("""
sig: c/0 s7/1 s6/1 s5/1 s4/1 s3/1 s2/1 s1/1
vars: x
rules:
  s1(c) -> s2(c)
  s2(c) -> s3(c)
  s3(c) -> s4(c)
  s4(c) -> s5(c)
  s5(c) -> s6(c)
  s6(c) -> s7(c)
  s7(x) -> c
""", "LM-system: FAIL (right-reduced, non-subterm-collapsing, "
     "forward-closed, rhs quasi-deterministic)"),
    "pairs7": ("""
sig: d/0 s5/2 s4/2 s3/2 s2/2 s1/2 c/0
vars: x
rules:
  s1(x, c) -> s2(x, d)
  s2(x, c) -> s3(x, d)
  s3(x, c) -> s4(x, d)
  s4(x, c) -> s5(x, d)
""", PASS),
}

# Machines in the `lmtk minsky` file format.
TINY_MACHINE = """
states: q0 q1 qL
initial: q0
final: qL
q0 1 + q1
q1 1 + qL
"""

BRANCHING_MACHINE = """
states: q0 q1 qL
initial: q0
final: qL
q0 1 P q1
q0 1 Z qL
q1 1 - q0
"""

SINGLE_STEP_MACHINE = """
states: q0 qL
initial: q0
final: qL
q0 1 + qL
"""

SELF_LOOP_MACHINE = """
states: q0 qL
initial: q0
final: qL
q0 1 + q0
"""

# name -> (machine text, first counter, second counter); all halt and are
# certified LM under their encoding precedence
ENCODED_MACHINES: dict[str, tuple[str, int, int]] = {
    "encoded_tiny": (TINY_MACHINE, 0, 0),
    "encoded_branching": (BRANCHING_MACHINE, 1, 0),
    "encoded_single_step": (SINGLE_STEP_MACHINE, 0, 0),
}

# lmtk 0.1.0 reports `complete=True` here although the size bound
# pruned every construction of the goal.
PRUNED_CAP_SYSTEM = """
sig: f/1 k/0 b/0
rules:
  f(f(f(f(f(k))))) -> b
"""

UNARY_RENAME = """
sig: f/1 g/1 a/0 b/0
vars: x
rules:
  f(x) -> g(x)
"""

BINARY_RENAME = """
sig: f/2 g/2 a/0 b/0
vars: x y
rules:
  f(x, y) -> g(x, y)
"""
