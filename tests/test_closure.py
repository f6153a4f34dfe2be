"""Forward closure: composition, redundancy, iteration, one-step checks."""

import pytest

from lmtk.closure import (
    compositions,
    fc_iterate,
    innermost_one_step_check,
    is_forward_closed,
    is_redundant_approx,
)
from lmtk.minsky import encode
from lmtk.rewriting import Rule, apply_rule
from lmtk.terms import render_term
from lmtk.trs_format import parse_trs

from conftest import ROOT_OVERLAP, ROOT_OVERLAP_TRUNCATED, TINY_MACHINE


@pytest.fixture(scope="module")
def sys3():
    return parse_trs(ROOT_OVERLAP)


@pytest.fixture(scope="module")
def sys2():
    return parse_trs(ROOT_OVERLAP_TRUNCATED)


def composed_at(r1, r2, p):
    """The composition of r1 with r2 at position p of r1's rhs, if any."""
    return next((c for c in compositions([r1], [r2]) if c.position == p), None)


class TestFcStep:
    def test_compose_at_root(self, sys2):
        cand = composed_at(sys2.rule("r1"), sys2.rule("r2"), ())
        assert cand is not None
        assert render_term(cand.rule.lhs) == "f(b,i(b))"
        assert render_term(cand.rule.rhs) == "c"

    def test_non_unifiable(self):
        trs = parse_trs("sig: a/0 b/0 c/0 d/0\nrules:\n  a -> b\n  c -> d\n")
        assert composed_at(trs.rule("r1"), trs.rule("r2"), ()) is None

    def test_machine_encoding_composes_nowhere(self):
        theory = encode(TINY_MACHINE, 0, 0).theory
        assert compositions(theory.rules, theory.rules) == []

    def test_candidate_replays_as_two_steps(self, sys2):
        cand = composed_at(sys2.rule("r1"), sys2.rule("r2"), ())
        one = apply_rule(sys2.rule("r1"), cand.rule.lhs, ())
        assert one is not None
        two = apply_rule(sys2.rule("r2"), one[0], cand.position)
        assert two is not None and two[0] == cand.rule.rhs


class TestRedundancy:
    def test_identical_rule(self, sys3):
        cand = Rule(sys3.rule("r3").lhs, sys3.rule("r3").rhs, "new")
        assert is_redundant_approx(cand, sys3.rules)

    def test_not_subsumed(self, sys2):
        cand = composed_at(sys2.rule("r1"), sys2.rule("r2"), ()).rule
        assert not is_redundant_approx(cand, sys2.rules)

    def test_trivial_candidate(self, sys2):
        lhs = sys2.rule("r1").lhs
        assert is_redundant_approx(Rule(lhs, lhs, "t"), [])

    def test_renamed_variant_subsumed(self):
        trs = parse_trs("sig: f/1 g/1\nvars: x y\nrules:\n  f(x) -> g(x)\n")
        variant = Rule(parse_trs(
            "sig: f/1 g/1\nvars: y\nrules:\n  f(y) -> g(y)\n").rules[0].lhs,
            parse_trs("sig: f/1 g/1\nvars: y\nrules:\n  f(y) -> g(y)\n"
                      ).rules[0].rhs, "v")
        assert is_redundant_approx(variant, trs.rules)


class TestFcIterate:
    def test_closed_system_fixpoint_at_zero(self, sys3):
        trace = fc_iterate(sys3)
        assert trace.converged
        assert trace.fixpoint_generation == 0
        assert trace.new_rules == [[]]

    def test_truncated_regenerates_third_rule(self, sys2):
        trace = fc_iterate(sys2)
        assert trace.converged
        assert trace.fixpoint_generation == 1
        gen1 = trace.new_rules[0]
        assert [render_term(c.rule.lhs) for c in gen1] == ["f(b,i(b))"]
        assert [render_term(c.rule.rhs) for c in gen1] == ["c"]

    def test_machine_encoding_immediate_fixpoint(self):
        theory = encode(TINY_MACHINE, 0, 0).theory
        trace = fc_iterate(theory)
        assert trace.converged and trace.fixpoint_generation == 0

    def test_monotone_generations(self, sys2):
        trace = fc_iterate(sys2)
        for earlier, later in zip(trace.generations, trace.generations[1:]):
            assert set(earlier) <= set(later)

    def test_generation_bound_reported(self):
        # rules that compose forever: f(x) -> s(f(x)) is not terminating but
        # composition keeps producing new rules
        trs = parse_trs("sig: f/1 s/1 g/1\nvars: x\nrules:\n"
                        "  f(x) -> s(g(x))\n  g(x) -> s(g(x))\n")
        trace = fc_iterate(trs, max_generations=3)
        assert not trace.converged
        assert trace.bound == 3


class TestIsForwardClosed:
    def test_full_system(self, sys3):
        ok, witness = is_forward_closed(sys3)
        assert ok and witness is None

    def test_truncated_fails_with_witness(self, sys2):
        ok, witness = is_forward_closed(sys2)
        assert not ok
        assert render_term(witness.rule.lhs) == "f(b,i(b))"

    def test_lm_systems_have_zero_candidates(self):
        theory = encode(TINY_MACHINE, 0, 0).theory
        assert compositions(theory.rules, theory.rules) == []


class TestInnermostOneStep:
    def test_full_system_passes(self, sys3):
        report = innermost_one_step_check(sys3, depth=3)
        assert report.ok

    def test_truncated_fails_on_regenerated_redex(self, sys2):
        report = innermost_one_step_check(sys2, depth=3)
        assert not report.ok
        assert render_term(report.witness) == "f(b,i(b))"

    def test_single_ground_rule(self):
        trs = parse_trs("sig: a/0 b/0\nrules:\n  a -> b\n")
        assert innermost_one_step_check(trs, depth=3).ok
