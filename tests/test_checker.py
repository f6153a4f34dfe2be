"""Termination, confluence, reduction transforms, and the LM pipeline."""

import itertools
import random
import sys

import pytest

from lmtk.checker import (
    INTERNAL_INCONSISTENCY,
    CheckOptions,
    Deletion,
    TerminationResult,
    almost_left_reduce,
    check_confluence,
    check_termination,
    consequence_checks,
    is_quasi_deterministic,
    is_variable_preserving,
    lm_verdict,
    right_reduce,
)
from lmtk import checker
from lmtk.minsky import encode, encoding_precedence
from lmtk.overlaps import Equation, overlap_sites, rhs_closure
from lmtk.rewriting import enumeration_variables, nf
from lmtk.terms import (
    ROOT,
    App,
    Var,
    enumerate_terms,
    match_term,
    mgu,
    rename_pair_apart,
    render_term,
    subterms,
    variables_of,
)
from lmtk.trs_format import parse_term, parse_trs, render_trs

from conftest import (
    BRANCHING_MACHINE,
    DUPLICATING,
    MACHINE_STARTS,
    NEEDS_LEFT_REDUCE,
    NEEDS_RIGHT_REDUCE,
    ROOT_OVERLAP,
    TINY_MACHINE,
    UNARY_CHAIN,
    VARIABLE_RHS,
    has_violation,
    overlap_systems,
    sweep_sources,
)
from one_step import is_eps_irreducible
from random_systems import random_system


def lpo_greater(s, t, rank):
    """Lexicographic path order induced by a total precedence (smaller
    rank = greater symbol), straight from the definition."""
    if isinstance(s, Var):
        return False
    if isinstance(t, Var):
        return t.name in variables_of(s)
    if any(a == t or lpo_greater(a, t, rank) for a in s.args):
        return True
    rs, rt = rank[s.sym.name], rank[t.sym.name]
    if rs < rt:
        return all(lpo_greater(s, b, rank) for b in t.args)
    if s.sym == t.sym:
        for a, b in zip(s.args, t.args):
            if a == b:
                continue
            return lpo_greater(a, b, rank) and \
                all(lpo_greater(s, c, rank) for c in t.args)
        return False
    return False


def termination_oracle(trs, precedence=None):
    """`check_termination` as the permutation search: the first total
    precedence in `itertools.permutations` order that orients every rule,
    or the first rule a given precedence does not orient."""
    if precedence is not None:
        rank = {n: i for i, n in enumerate(precedence)}
        for r in trs.rules:
            if not lpo_greater(r.lhs, r.rhs, rank):
                return TerminationResult(False, failing_rule=r.label)
        return TerminationResult(True, list(precedence))
    for perm in itertools.permutations(s.name for s in trs.symbols):
        rank = {n: i for i, n in enumerate(perm)}
        if all(lpo_greater(r.lhs, r.rhs, rank) for r in trs.rules):
            return TerminationResult(True, list(perm))
    return TerminationResult(False)


def assert_termination_matches_oracle(trs, rng, precedences=3):
    """The search agrees with the permutation oracle, and a given
    precedence with the oracle's check, on `precedences` random ones."""
    if len(trs.symbols) <= 8:
        assert check_termination(trs) == termination_oracle(trs)
    names = [s.name for s in trs.symbols]
    for _ in range(precedences):
        order = rng.sample(names, len(names))
        assert check_termination(trs, order) == \
            termination_oracle(trs, order)


class TestLpo:
    def test_subterm_property(self):
        trs = parse_trs(UNARY_CHAIN)
        rank = {"f": 0, "g": 1, "h": 2}
        rule = trs.rules[0]
        assert lpo_greater(rule.lhs, rule.rhs, rank)

    def test_variable_condition(self):
        trs = parse_trs("sig: f/1 g/1\nvars: x y\nrules:\n  f(x) -> g(x)\n")
        rank = {"f": 0, "g": 1}
        rule = trs.rules[0]
        assert lpo_greater(rule.lhs, rule.rhs, rank)
        assert not lpo_greater(rule.rhs, rule.lhs, rank)


class TestTermination:
    def test_search_finds_precedence(self):
        res = check_termination(parse_trs(UNARY_CHAIN))
        assert res.ok and res.precedence is not None

    def test_self_loop_never_terminates(self):
        res = check_termination(parse_trs("sig: a/0\nrules:\n  a -> a\n"))
        assert not res.ok

    def test_supplied_precedence(self):
        theory = encode(TINY_MACHINE, 0, 0).theory
        res = check_termination(theory, encoding_precedence(TINY_MACHINE))
        assert res.ok

    @pytest.mark.parametrize("name", sorted(MACHINE_STARTS))
    def test_encoded_machines_certify_without_precedence(self, name):
        machine, k, p = MACHINE_STARTS[name]
        theory = encode(machine, k, p).theory
        assert len(theory.symbols) > 8
        res = check_termination(theory)
        assert res.ok
        assert check_termination(theory, res.precedence) == res

    def test_matches_the_permutation_search_on_the_corpus(self, corpus):
        rng = random.Random(0)
        for _, trs, opts in corpus:
            assert_termination_matches_oracle(trs, rng)
            if opts.precedence is not None:
                assert check_termination(trs, opts.precedence) == \
                    termination_oracle(trs, opts.precedence)

    @pytest.mark.parametrize("max_symbols,seeds", [(5, range(400)),
                                                   (8, range(80))])
    def test_matches_the_permutation_search_on_random_systems(
            self, max_symbols, seeds):
        rng = random.Random(1)
        for seed in seeds:
            trs = random_system(random.Random(seed), max_symbols=max_symbols)
            if trs is not None:
                assert_termination_matches_oracle(trs, rng)

    def test_wide_ground_rule_keeps_few_alternatives(self):
        # "s above each argument of t" multiplies out one alternative per
        # way to put some symbol of s above each constant of t; kept
        # closed under transitivity, most of them imply another
        trs = parse_trs(
            "sig: f0/1 f1/3 f2/1 f3/3 a0/0 a1/0 a2/0 a3/0\nrules:\n"
            "  f1(f1(f1(a3,a3,a1),f1(a1,a3,a1),f1(a1,a1,a0)),"
            "f3(f1(a0,a0,a3),f2(a1),f1(a2,a1,a3)),"
            "f1(f1(a0,a2,a2),f0(a2),f0(a3))) -> "
            "f1(f1(f2(a0),f0(a3),f3(a2,a1,a3)),f2(f3(a1,a1,a1)),"
            "f2(f1(a3,a0,a1)))\n")
        rule = trs.rules[0]
        assert len(checker._lpo_constraints(rule.lhs, rule.rhs, {}, {})) < 100
        assert check_termination(trs) == termination_oracle(trs)

    def test_search_makes_at_most_quadratic_feasibility_calls(
            self, monkeypatch):
        # an unorientable cycle and seven constants no rule mentions: only
        # an exact feasibility test sees at once that no order works
        trs = parse_trs("sig: a/0 b/0 c/0 d/0 e/0 f/0 g/0 h/0 i/0 j/0\n"
                        "rules:\n  a -> b\n  b -> c\n  c -> a\n")
        calls = []
        feasible = checker._feasible

        def spy(constraints, rank):
            calls.append(dict(rank))
            return feasible(constraints, rank)
        monkeypatch.setattr(checker, "_feasible", spy)
        n = len(trs.symbols)
        assert check_termination(trs) == TerminationResult(False)
        assert 1 <= len(calls) <= n * (n + 1) // 2 + 1

    def test_precedence_must_cover_signature(self):
        trs = parse_trs(UNARY_CHAIN)
        with pytest.raises(ValueError):
            check_termination(trs, ["f", "g"])

    @pytest.mark.parametrize("precedence", [
        ["f", "g", "h", "f"],           # a symbol twice
        ["f", "f", "g", "h"],
        ["f", "g", "h", "zz"],          # a symbol outside the signature
    ])
    def test_precedence_must_name_each_symbol_once(self, precedence):
        trs = parse_trs(UNARY_CHAIN)
        with pytest.raises(ValueError, match="exactly once"):
            check_termination(trs, precedence)


def reference_choose(choices, atoms=frozenset()):
    """`checker._choose` as it recursed, one frame per choice."""
    if not choices:
        return True
    for alt in choices[0]:
        grown = checker._closed(atoms | alt)
        if grown is not None and reference_choose(choices[1:], grown):
            return True
    return False


class TestChoose:
    def test_matches_the_recursive_search(self):
        rng = random.Random(0)
        names = "abcde"
        answers = set()
        for _ in range(2000):
            choices = [[frozenset(tuple(rng.sample(names, 2))
                                  for _ in range(rng.randint(0, 3)))
                        for _ in range(rng.randint(0, 3))]
                       for _ in range(rng.randint(0, 6))]
            answer = checker._choose(choices)
            assert answer == reference_choose(choices), choices
            answers.add(answer)
        assert answers == {True, False}

    def test_more_choices_than_frames(self):
        # every choice after the first tries the alternative that closes
        # a cycle with it first
        n = 3 * sys.getrecursionlimit()
        first, back = frozenset({("a", "b")}), frozenset({("b", "a")})
        choices = [[first]] + [[back, first]] * n
        assert checker._choose(choices)
        assert not checker._choose(choices + [[back]])


class TestConfluence:
    def test_no_critical_pairs(self):
        theory = encode(TINY_MACHINE, 0, 0).theory
        res = check_confluence(theory)
        assert res.ok and res.pair_count == 0

    def test_unjoinable_pair(self):
        res = check_confluence(parse_trs(
            "sig: a/0 b/0 c/0\nrules:\n  a -> b\n  a -> c\n"))
        assert not res.ok
        assert res.unjoinable

    def test_joinable_root_overlap(self):
        res = check_confluence(parse_trs(ROOT_OVERLAP))
        assert res.ok and res.pair_count == 2

    def test_classic_non_confluent_nesting(self):
        res = check_confluence(parse_trs(
            "sig: f/1 g/1\nvars: x\nrules:\n  f(f(x)) -> g(x)\n"))
        assert not res.ok


class TestRightReduce:
    def test_normalizes_rhs(self):
        trs = parse_trs("sig: f/1 g/1 a/0 b/0\nvars: x\nrules:\n"
                        "  f(x) -> g(a)\n  g(a) -> b\n")
        reduced = right_reduce(trs)
        assert render_term(reduced.rule("r1").rhs) == "b"
        assert render_term(reduced.rule("r2").rhs) == "b"

    def test_idempotent(self):
        trs = right_reduce(parse_trs(NEEDS_RIGHT_REDUCE))
        assert right_reduce(trs) == trs

    def test_empty(self):
        trs = parse_trs("sig: a/0\nrules:\n")
        assert right_reduce(trs).rules == ()


class TestAlmostLeftReduce:
    def test_root_overlap_exempt(self):
        trs = parse_trs(ROOT_OVERLAP)
        reduced, log = almost_left_reduce(trs)
        assert log == [] and reduced == trs

    def test_proper_subterm_instance_deleted(self):
        trs = parse_trs(NEEDS_LEFT_REDUCE)
        reduced, log = almost_left_reduce(trs)
        assert len(log) == 1
        assert log[0].rule.label == "r2"
        assert log[0].position == (1,)
        assert log[0].matched == "r1"
        assert [r.label for r in reduced.rules] == ["r1", "r3"]

    def test_preserves_irreducible_set(self):
        trs = parse_trs(NEEDS_LEFT_REDUCE)
        reduced, _ = almost_left_reduce(trs)
        for t in enumerate_terms(trs.symbols, ("x",), 4):
            assert nf(trs, t) == nf(reduced, t)


def reference_almost_left_reduce(trs):
    """`almost_left_reduce` as a restart loop: after every deletion the
    scan starts again from the first rule (the differential oracle of the
    single pass)."""
    rules = list(trs.rules)
    log = []
    changed = True
    while changed:
        changed = False
        for i, r in enumerate(rules):
            hit = next(((p, other) for p, sub in subterms(r.lhs)
                        if p and isinstance(sub, App)
                        for other in rules
                        if other is not r
                        and match_term(other.lhs, sub) is not None), None)
            if hit is not None:
                p, other = hit
                log.append(Deletion(r, p, other.label))
                del rules[i]
                changed = True
                break
    return trs.with_rules(rules), log


# lhs chains: each lhs holds an instance of the next one's at a proper
# position, so the rule order decides which deletions come first and
# which rule and position each one names
LHS_CHAINS = (("f(g(h(k(a)), a))", "g(h(k(a)), a)", "h(k(a))", "k(a)"),
              ("f(g(h(k(a)), y))", "g(h(k(x)), y)", "h(k(z))", "k(w)"))


def chain_systems():
    return [parse_trs("sig: f/1 g/2 h/1 k/1 a/0 b/0\nvars: x y z w\nrules:\n"
                      + "".join(f"  {lhs} -> b\n" for lhs in order))
            for chain in LHS_CHAINS for order in itertools.permutations(chain)]


class TestAlmostLeftReduceOracle:
    def test_agrees_with_the_restart_loop(self):
        systems = [parse_trs(src) for src in sweep_sources(range(240)).values()]
        systems += chain_systems()
        deletions = 0
        for trs in systems:
            reduced, log = almost_left_reduce(trs)
            expected, expected_log = reference_almost_left_reduce(trs)
            assert reduced == expected
            assert [str(d) for d in log] == [str(d) for d in expected_log]
            deletions += len(log)
        assert deletions > 100


class TestQuasiDeterminism:
    def test_variable_side(self):
        trs = parse_trs("sig: f/1\nvars: x\nrules:\n")
        eq = Equation(parse_term("f(x)", trs), Var("x"))
        report = is_quasi_deterministic([eq])
        assert not report.ok and has_violation(report, "variable-side")

    def test_root_stable(self):
        trs = parse_trs(DUPLICATING)
        report = is_quasi_deterministic(rhs_closure(trs))
        assert not report.ok
        assert has_violation(report, "root-stable")

    def test_repetition_uses_unordered_pairs(self):
        trs = parse_trs("sig: f/1 g/1 a/0\nvars: x\nrules:\n"
                        "  f(x) -> g(x)\n  g(a) -> f(a)\n")
        report = is_quasi_deterministic(rhs_closure(trs))
        assert has_violation(report, "root-pair-repetition")

    def test_clean_system(self):
        trs = parse_trs(UNARY_CHAIN)
        assert is_quasi_deterministic(rhs_closure(trs)).ok


class TestVariablePreserving:
    def test_preserving(self):
        assert is_variable_preserving(parse_trs(UNARY_CHAIN))[0]

    def test_erasing(self):
        ok, label = is_variable_preserving(parse_trs(
            "sig: f/2 g/1\nvars: x y\nrules:\n  f(x,y) -> g(x)\n"))
        assert not ok and label == "r1"

    def test_empty(self):
        assert is_variable_preserving(parse_trs("sig: a/0\nrules:\n"))[0]


class TestLmVerdict:
    def test_unary_chain_passes(self):
        report = lm_verdict(parse_trs(UNARY_CHAIN))
        assert report.verdict == "pass"
        assert report.bounded  # collapse search is a bounded verdict
        assert all(c.verdict == "pass" for c in report.consequences)

    def test_duplicating_fails_on_rhs_closure(self):
        report = lm_verdict(parse_trs(DUPLICATING))
        assert report.verdict == "fail"
        qd = report.condition("rhs quasi-deterministic")
        assert qd.verdict == "fail"
        assert "f(x,x) = f(x1,x1)" in qd.detail
        assert "root-stable" in qd.detail
        # the duplicating rule also collapses: f(0,0) -> 0
        assert report.condition("non-subterm-collapsing").verdict == "fail"

    def test_root_overlap_fails_condition_seven_only(self):
        report = lm_verdict(parse_trs(ROOT_OVERLAP))
        assert report.verdict == "fail"
        assert report.condition("rhs quasi-deterministic").verdict == "fail"
        for name in ("terminating", "confluent", "right-reduced",
                     "almost-left-reduced", "forward-closed"):
            assert report.condition(name).verdict == "pass"

    def test_encoded_machine_passes_with_precedence(self):
        inst = encode(BRANCHING_MACHINE, 1, 0)
        report = lm_verdict(inst.theory, CheckOptions(
            precedence=encoding_precedence(BRANCHING_MACHINE)))
        assert report.verdict == "pass"

    def test_summary_mentions_bound(self):
        report = lm_verdict(parse_trs(UNARY_CHAIN))
        assert report.summary() == "LM-system: PASS (collapse bounded at depth 5)"

    def test_projection_rule_fails_collapse_and_closure(self):
        # a variable rhs is fine for rewriting but collapses immediately
        # and puts a variable-sided equation into the closure
        report = lm_verdict(parse_trs(
            "sig: f/2 a/0\nvars: x y\nrules:\n  f(x, y) -> x\n"))
        assert report.verdict == "fail"
        assert report.condition("non-subterm-collapsing").verdict == "fail"
        assert report.condition("rhs quasi-deterministic").verdict == "fail"
        assert "variable-side" in report.condition(
            "rhs quasi-deterministic").detail


class TestLocalConfluenceCrossCheck:
    def test_peaks_join_on_certified_convergent_systems(self):
        # independent check of the critical-pair decision: every one-step
        # peak from an enumerated term must rejoin
        from lmtk.rewriting import enumeration_variables, nf
        from lmtk.terms import enumerate_terms, match_term, replace_at, \
            substitute, subterms
        for src in (UNARY_CHAIN, ROOT_OVERLAP, NEEDS_RIGHT_REDUCE):
            trs = parse_trs(src)
            assert check_termination(trs).ok
            assert check_confluence(trs).ok
            vars_ = enumeration_variables(trs)
            count = 0
            for t in enumerate_terms(trs.symbols, vars_, 3):
                count += 1
                if count > 250:
                    break
                reducts = []
                for p, sub in subterms(t):
                    for rule in trs.rules:
                        m = match_term(rule.lhs, sub)
                        if m is not None:
                            reducts.append(replace_at(
                                t, p, substitute(rule.rhs, m)))
                for i in range(len(reducts)):
                    for j in range(i + 1, len(reducts)):
                        assert nf(trs, reducts[i]) == nf(trs, reducts[j])

    def test_truncation_keeps_convergence(self):
        # dropping the root-overlapping rule preserves convergence even
        # though it breaks forward-closedness
        from conftest import ROOT_OVERLAP_TRUNCATED
        trunc = parse_trs(ROOT_OVERLAP_TRUNCATED)
        assert check_termination(trunc).ok
        assert check_confluence(trunc).ok
        from lmtk.closure import is_forward_closed
        assert not is_forward_closed(trunc)[0]


class TestPipelineTotality:
    def test_random_systems_never_crash_the_pipeline(self):
        # every failure mode must surface as a report entry; unfiltered
        # random systems include diverging, collapsing and erasing ones
        import random
        from random_systems import random_system
        opts = CheckOptions(fuel=200, collapse_depth=3, collapse_terms=150,
                            consequence_depth=2)
        names = {"terminating", "confluent", "right-reduced",
                 "almost-left-reduced", "non-subterm-collapsing",
                 "forward-closed", "rhs quasi-deterministic"}
        seen = set()
        for seed in range(80):
            trs = random_system(random.Random(seed))
            if trs is None:
                continue
            report = lm_verdict(trs, opts)
            assert {c.name for c in report.conditions} == names
            assert report.verdict in ("pass", "fail", "unknown")
            seen.add(report.verdict)
        assert "fail" in seen  # the draw space is not degenerate


class TestConsequences:
    def test_all_pass_on_certified_system(self):
        checks = consequence_checks(parse_trs(UNARY_CHAIN))
        assert checks and all(c.verdict == "pass" for c in checks)

    def test_injected_reversal_fails_before_consequences(self):
        # adding the reverse of the rule breaks certification (already at
        # termination), so the consequence suite never runs; small fuel
        # keeps the deliberately diverging normalizations cheap
        report = lm_verdict(parse_trs("""
sig: f/1 g/1 h/1
vars: x
rules:
  f(g(h(x))) -> g(x)
  g(x) -> f(g(h(x)))
"""), CheckOptions(fuel=300))
        assert report.verdict != "pass"
        assert report.condition("terminating").verdict == "fail"
        assert report.condition("rhs quasi-deterministic").verdict == "fail"
        assert report.consequences == []

    def test_machine_encoding_all_pass(self):
        inst = encode(TINY_MACHINE, 0, 0)
        checks = consequence_checks(inst.theory)
        assert all(c.verdict == "pass" for c in checks)

    def test_the_freeness_pool_is_that_of_the_subterm_filter(self, corpus):
        # the pool reads each argument off the irreducible terms met so
        # far; the filter tries the root of every proper subterm
        systems = [trs for _, trs, _ in corpus]
        systems += filter(None, (random_system(random.Random(seed))
                                 for seed in range(120)))
        full = filtered = 0
        for trs in systems:
            for depth in (1, 2, 3):
                expected, dropped = [], 0
                for u in enumerate_terms(trs.symbols,
                                         enumeration_variables(trs), depth):
                    if len(expected) == checker.FREENESS_POOL:
                        break
                    if isinstance(u, App):
                        if is_eps_irreducible(trs, u):
                            expected.append(u)
                        else:
                            dropped += 1
                pool = checker.freeness_pool(trs, depth)
                assert pool == expected, (render_trs(trs), depth)
                full += len(pool) == checker.FREENESS_POOL
                filtered += dropped > 0
        assert len(systems) > 100 and full > 0 and filtered > 100


FREE_UNARY = "sig: f/1 g/1\nvars: x\nrules:\n  f(x) -> g(x)\n"


class TestBoundsLeaveConditionsOpen:
    def test_consequence_out_of_fuel_is_unknown(self):
        # certified at collapse depth 1 with no fuel, since nothing there
        # needs a step; the freeness pool does
        report = lm_verdict(parse_trs(FREE_UNARY),
                            CheckOptions(collapse_depth=1, fuel=0))
        assert report.verdict == "pass"
        assert len(report.conditions) == 7
        free = report.consequences[-1]
        assert (free.name, free.verdict, free.detail) == (
            "free over the signature", "unknown",
            "fuel exhausted normalizing the pool")
        assert [c.verdict for c in report.consequences[:-1]] == ["pass"] * 5

    def test_each_condition_keeps_its_fuel_note(self):
        # terminating, but joining <f(c), k(b)>, normalizing the rhs g(b)
        # and the collapse search each need a step
        report = lm_verdict(parse_trs(
            "sig: f/1 g/1 k/1 b/0 c/0 d/0\nvars: x\nrules:\n"
            "  f(g(x)) -> k(x)\n  g(b) -> c\n  f(c) -> k(b)\n"
            "  d -> g(b)\n"), CheckOptions(fuel=0))
        assert report.condition("terminating").verdict == "pass"
        notes = {c.name: c.detail for c in report.conditions
                 if c.verdict == "unknown"}
        assert notes == {"confluent": "fuel exhausted joining pairs",
                         "right-reduced": "fuel exhausted normalizing rhs",
                         "non-subterm-collapsing":
                             "fuel exhausted during search"}
        assert report.verdict == "fail" and report.consequences == []


def lhs_unifiable_oracle(trs):
    """Consequence (a) as its own rename-apart-and-unify loop."""
    return [f"{outer.label}/{inner.label}"
            for i, outer in enumerate(trs.rules)
            for inner, inner_lhs, _, p, sub in overlap_sites(
                outer.lhs, outer.variables(), trs.rules[i + 1:])
            if p == ROOT and mgu(sub, inner_lhs) is not None]


def rhs_lhs_unifiable_oracle(trs):
    """Consequence (b) as its own pairwise unification loop."""
    return [f"{r1.label}->{r2.label}"
            for r1 in trs.rules for r2 in trs.rules
            if r1.label != r2.label and mgu(
                r1.rhs, rename_pair_apart(r2.lhs, r2.rhs,
                                          r1.variables())[0]) is not None]


class TestConsequenceOverlaps:
    """Consequences (a) and (b) against the unification loops they
    replaced, on certified and uncertified systems alike."""

    @staticmethod
    def expected(bad):
        return ("fail", f"{INTERNAL_INCONSISTENCY}: {', '.join(bad)}") \
            if bad else ("pass", "")

    def test_agree_with_the_unification_loops(self):
        failing = variable_rhs = 0
        for trs in overlap_systems():
            checks = consequence_checks(trs, depth=1, fuel=50)
            lhs, rhs = checks[0], checks[1]
            assert lhs.name == "lhs pairwise non-unifiable"
            assert rhs.name == "rhs/lhs non-unifiable"
            assert (lhs.verdict, lhs.detail) == \
                self.expected(lhs_unifiable_oracle(trs))
            assert (rhs.verdict, rhs.detail) == \
                self.expected(rhs_lhs_unifiable_oracle(trs))
            failing += lhs.verdict == "fail"
            failing += rhs.verdict == "fail"
            variable_rhs += any(isinstance(r.rhs, Var) for r in trs.rules)
        assert failing > 20 and variable_rhs >= 1

    def test_variable_rhs_unifies_with_every_other_lhs(self):
        checks = consequence_checks(parse_trs(VARIABLE_RHS), depth=1)
        assert checks[1].detail == (
            f"{INTERNAL_INCONSISTENCY}: r1->r2, r1->r3, r1->r4, "
            "r2->r3, r4->r1, r4->r2, r4->r3")
