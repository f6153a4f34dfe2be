"""Forward closure: composition, redundancy, iteration with the naive
fixpoint as its oracle, and the one-step oracle of the closure
decision."""

import contextlib
import itertools
import random
import sys

import pytest

from lmtk import closure
from lmtk.checker import check_confluence, check_termination
from lmtk.closure import (
    FcCandidate,
    FcTrace,
    RuleIndex,
    compositions,
    fc_iterate,
    is_forward_closed,
    is_redundant_approx,
)
from lmtk.minsky import encode
from lmtk.overlaps import paramodulation_candidates
from lmtk.rewriting import (
    FuelExhausted,
    Rule,
    apply_rule,
    nf,
)
from lmtk.terms import (
    App,
    Var,
    flatterm,
    match_many,
    match_term,
    render_position,
    render_term,
    replace_at,
    substitute,
    subterms,
)
from lmtk.trs_format import parse_term, parse_trs, render_trs

from conftest import (
    FC_SOURCES,
    FRESH_NAME_CLASH,
    LM_SOURCES,
    ROOT_OVERLAP,
    ROOT_OVERLAP_TRUNCATED,
    TINY_MACHINE,
    UNUSED_SYMBOL_CLASH,
    canonical_term_pair,
    corpus_systems,
    pool_text,
)
import one_step
from one_step import (
    enumerate_ground_irreducible,
    innermost_one_step_check,
    is_innermost_redex,
)
from random_systems import random_system


@pytest.fixture(scope="module")
def sys3():
    return parse_trs(ROOT_OVERLAP)


@pytest.fixture(scope="module")
def sys2():
    return parse_trs(ROOT_OVERLAP_TRUNCATED)


def names(trs):
    """The names of the signature's symbols, which fresh variables avoid."""
    return {s.name for s in trs.symbols}


def composed_at(trs, r1, r2, p):
    """The composition of rule r1 of `trs` with its rule r2 at position p
    of r1's rhs, if any."""
    return next((c for c in compositions([trs.rule(r1)], [trs.rule(r2)],
                                         names(trs))
                 if c.position == p), None)


class TestFcStep:
    def test_compose_at_root(self, sys2):
        cand = composed_at(sys2, "r1", "r2", ())
        assert cand is not None
        assert render_term(cand.lhs) == "f(b,i(b))"
        assert render_term(cand.rhs) == "c"

    def test_non_unifiable(self):
        trs = parse_trs("sig: a/0 b/0 c/0 d/0\nrules:\n  a -> b\n  c -> d\n")
        assert composed_at(trs, "r1", "r2", ()) is None

    def test_machine_encoding_composes_nowhere(self):
        theory = encode(TINY_MACHINE, 0, 0).theory
        assert compositions(theory.rules, theory.rules, names(theory)) == []

    def test_candidate_replays_as_two_steps(self, sys2):
        cand = composed_at(sys2, "r1", "r2", ())
        one = apply_rule(sys2.rule("r1"), cand.lhs, ())
        assert one is not None
        two = apply_rule(sys2.rule("r2"), one[0], cand.position)
        assert two is not None and two[0] == cand.rhs


class TestRedundancy:
    def test_identical_rule(self, sys3):
        cand = Rule(sys3.rule("r3").lhs, sys3.rule("r3").rhs, "new")
        assert is_redundant_approx(cand, RuleIndex(sys3.symbols, sys3.rules))

    def test_not_subsumed(self, sys2):
        cand = composed_at(sys2, "r1", "r2", ())
        assert not is_redundant_approx(cand,
                                       RuleIndex(sys2.symbols, sys2.rules))

    def test_trivial_candidate(self, sys2):
        lhs = sys2.rule("r1").lhs
        assert is_redundant_approx(Rule(lhs, lhs, "t"),
                                   RuleIndex(sys2.symbols))

    def test_renamed_variant_subsumed(self):
        trs = parse_trs("sig: f/1 g/1\nvars: x y\nrules:\n  f(x) -> g(x)\n")
        variant = Rule(parse_trs(
            "sig: f/1 g/1\nvars: y\nrules:\n  f(y) -> g(y)\n").rules[0].lhs,
            parse_trs("sig: f/1 g/1\nvars: y\nrules:\n  f(y) -> g(y)\n"
                      ).rules[0].rhs, "v")
        assert is_redundant_approx(variant, RuleIndex(trs.symbols, trs.rules))


def differential_systems():
    """The hand-written systems and seeded random ones, non-linear left
    sides included."""
    out = [parse_trs(src) for src in {**LM_SOURCES, **FC_SOURCES}.values()]
    for seed in range(120):
        trs = random_system(random.Random(seed))
        if trs is not None:
            out.append(trs)
    return out


def checked_generations():
    """Each system with each generation's rules and the compositions
    `fc_iterate` checks against them for redundancy."""
    for trs in differential_systems():
        trace = fc_iterate(trs, 2)
        for rules in trace.generations[:len(trace.new_rules)]:
            yield trs, rules, compositions(rules, trs.rules, names(trs))


def linear_match(pattern, subject):
    """Matching that lets each variable occurrence match on its own."""
    pairs = [(pattern, subject)]
    while pairs:
        p, s = pairs.pop()
        if isinstance(p, Var):
            continue
        if isinstance(s, Var) or p.sym != s.sym:
            return False
        pairs.extend(zip(p.args, s.args))
    return True


def subsumes(general, lhs, rhs):
    """One substitution maps `general` onto the pair (lhs, rhs), both sides
    at once: the scan of every rule that `RuleIndex` replaced, kept as its
    oracle."""
    return match_many([(general.lhs, lhs), (general.rhs, rhs)]) is not None


def assert_retrieves_the_scan(index, rules, lhs, rhs):
    """The index returns exactly the rules of `rules` that subsume the
    pair, each once; returns how many there are."""
    key = flatterm((lhs, rhs))
    found = list(index.subsumers(key))
    oracle = [r for r in rules if subsumes(r, lhs, rhs)]
    assert len(found) == len(set(found))
    assert set(found) == set(oracle), (render_term(lhs), render_term(rhs))
    assert index.subsumed(key) == bool(oracle)
    return len(oracle)


class TestRuleIndex:
    """The index against the scan it replaced, as a differential oracle."""

    def test_retrieval_is_complete_and_precise(self):
        candidates = scanned = linear = subsumed = 0
        for trs, rules, cands in checked_generations():
            index = RuleIndex(trs.symbols, rules)
            for cand in cands:
                found = assert_retrieves_the_scan(index, rules, cand.lhs,
                                                  cand.rhs)
                assert is_redundant_approx(cand, index) == (
                    cand.lhs == cand.rhs or found > 0)
                subsumed += found
                candidates += 1
                scanned += len(rules)
                linear += sum(linear_match(r.lhs, cand.lhs)
                              and linear_match(r.rhs, cand.rhs)
                              for r in rules)
        # the corpus exercises both filters: most rules do not match a
        # candidate at all, and repeated variables reject some that match
        # but for variable consistency
        assert candidates > 1000
        assert 0 < subsumed < linear < scanned

    def test_paramodulation_conclusions_in_both_orientations(self):
        conclusions = subsumed = 0
        for trs in differential_systems():
            index = RuleIndex(trs.symbols, trs.rules)
            for cand in paramodulation_candidates(trs):
                eq = cand.conclusion
                for lhs, rhs in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                    subsumed += assert_retrieves_the_scan(index, trs.rules,
                                                          lhs, rhs)
                conclusions += 1
        assert conclusions > 100 and subsumed > 0

    def test_variable_sides_are_indexed_and_queried(self):
        trs = parse_trs("sig: f/2 g/1 a/0\nvars: x y\nrules:\n"
                        "  f(x, x) -> x\n  f(x, y) -> g(y)\n")
        index = RuleIndex(trs.symbols, trs.rules)
        same, a, x = (parse_term(s, trs) for s in ("f(a,a)", "a", "x"))
        assert list(index.subsumers(flatterm((same, a)))) == [trs.rule("r1")]
        assert index.subsumed(flatterm((same, a)))
        # a subject variable is a constant: only pattern variables match it
        assert list(index.subsumers(flatterm((x, same)))) == []
        assert not index.subsumed(flatterm((same, x)))

    def test_a_pair_deeper_than_the_recursion_limit(self):
        n = 3 * sys.getrecursionlimit()
        trs = parse_trs("sig: f/1 g/1 a/0\nvars: x\nrules:\n  g(x) -> x\n")
        f, g, a = trs.symbol("f"), trs.symbol("g"), App(trs.symbol("a"))
        x, y, z = Var("x"), Var("y"), Var("z")

        def tower(t):
            for _ in range(n):
                t = App(f, (t,))
            return t

        rules = [*trs.rules, Rule(App(g, (tower(x),)), x, "r2"),
                 Rule(App(g, (tower(x),)), tower(x), "r3"),
                 Rule(App(g, (tower(a),)), a, "r4")]
        index = RuleIndex(trs.symbols, rules)
        pairs = [(App(g, (tower(a),)), a, 2),
                 (App(g, (tower(a),)), tower(a), 2),
                 (App(g, (tower(y),)), tower(y), 2),
                 (App(g, (tower(y),)), y, 1),
                 (App(g, (tower(z),)), z, 1)]
        for lhs, rhs, count in pairs:
            assert assert_retrieves_the_scan(index, rules, lhs, rhs) == count
        # the flatterms name the classes the canonical pairs do: the last
        # two pairs are one up to renaming
        for (a1, b1, _), (a2, b2, _) in itertools.product(pairs, repeat=2):
            assert (flatterm((a1, b1)) == flatterm((a2, b2))) == (
                canonical_term_pair(a1, b1) == canonical_term_pair(a2, b2))
        assert flatterm(pairs[3][:2]) == flatterm(pairs[4][:2])

    def assert_pairs(self, text, pairs):
        """Each pair, as two terms of the system `text`, is subsumed by
        the rules the scan finds, and by how many."""
        trs = parse_trs(text)
        index = RuleIndex(trs.symbols, trs.rules)
        for lhs, rhs, count in pairs:
            lhs, rhs = parse_term(lhs, trs), parse_term(rhs, trs)
            assert assert_retrieves_the_scan(index, trs.rules, lhs,
                                             rhs) == count, (lhs, rhs)

    def test_a_repeated_variable_compares_whole_subterms(self):
        # the two subterms bound to x differ only below the root
        self.assert_pairs(
            "sig: f/2 g/2 a/0 b/0\nvars: x y\nrules:\n  f(x, x) -> a\n",
            [("f(g(a,b),g(a,a))", "a", 0), ("f(g(a,b),g(a,b))", "a", 1),
             ("f(g(a,y),g(a,b))", "a", 0), ("f(g(y,a),g(y,a))", "a", 1)])

    def test_a_candidate_variable_is_a_constant(self):
        self.assert_pairs(
            "sig: f/2 g/1 a/0\nvars: x y z\nrules:\n  f(x, x) -> a\n"
            "  g(a) -> a\n  f(x, a) -> x\n",
            [("f(y,y)", "a", 1), ("f(y,z)", "a", 0), ("g(y)", "a", 0),
             ("f(y,a)", "y", 1), ("f(a,y)", "a", 0), ("f(y,a)", "a", 0),
             ("f(a,a)", "a", 2)])

    def test_a_rule_with_a_variable_rhs(self):
        self.assert_pairs(
            "sig: f/2 g/1 a/0 b/0\nvars: x y\nrules:\n  g(x) -> x\n",
            [("g(f(a,b))", "f(a,b)", 1), ("g(f(a,b))", "f(b,a)", 0),
             ("g(y)", "y", 1), ("g(f(y,a))", "f(y,a)", 1),
             ("g(f(y,a))", "f(a,y)", 0), ("g(a)", "g(a)", 0)])


# rules that compose forever: g(x) -> s(g(x)) is not terminating, and
# every generation of its closure adds rules, so no bound converges
DIVERGENT = ("sig: f/1 s/1 g/1\nvars: x\nrules:\n"
             "  f(x) -> s(g(x))\n  g(x) -> s(g(x))\n")


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
        trace = fc_iterate(parse_trs(DIVERGENT), max_generations=3)
        assert not trace.converged
        assert trace.bound == 3


def naive_fc_iterate(trs, max_generations=16):
    """The naive fixpoint `fc_iterate` replaced, kept as its oracle: each
    generation composes the whole previous set, and every fresh rule is
    filed in the index, the last generation's too."""
    trace = FcTrace(bound=max_generations)
    current = list(trs.rules)
    trace.generations.append(list(current))
    labels = {r.label for r in current}
    index = RuleIndex(trs.symbols, current)
    for gen in range(1, max_generations + 1):
        fresh = []
        keys = set()
        for c in compositions(current, trs.rules, names(trs)):
            label = (f"{c.source.label}~{c.base.label}"
                     f"@{render_position(c.position)}")
            cand = FcCandidate(Rule(c.lhs, c.rhs, label), c.source.label,
                               c.base.label, c.position)
            if is_redundant_approx(cand.rule, index):
                continue
            key = canonical_term_pair(cand.rule.lhs, cand.rule.rhs)
            if key in keys:
                continue
            keys.add(key)
            label = cand.rule.label
            while label in labels:
                label += "'"
            labels.add(label)
            rule = Rule(cand.rule.lhs, cand.rule.rhs, label)
            fresh.append(FcCandidate(rule, cand.first, cand.second,
                                     cand.position, gen))
        if not fresh:
            trace.new_rules.append([])
            trace.converged = True
            return trace
        trace.new_rules.append(fresh)
        for c in fresh:
            index.add(c.rule)
        current = current + [c.rule for c in fresh]
        trace.generations.append(list(current))
    return trace


class TestSemiNaive:
    def test_traces_equal_the_naive_fixpoint(self):
        systems = [(name, trs) for name, trs, _ in corpus_systems()]
        systems += [(f"pool{seed}", parse_trs(pool_text(seed)))
                    for seed in range(300)]
        compared = converged = 0
        for name, trs in systems:
            for bound in range(4):
                naive = naive_fc_iterate(trs, bound)
                fast = fc_iterate(trs, bound)
                assert fast.generations == naive.generations, (name, bound)
                assert fast.new_rules == naive.new_rules, (name, bound)
                assert (fast.converged, fast.bound) == (
                    naive.converged, naive.bound), (name, bound)
                compared += 1
                converged += fast.converged
                # a generation here is up to 16 times the one before: past
                # 300 rules the next bound may pass 3,000 (pool298 reaches
                # 7,176 at bound 3), too many for a tier-1 comparison
                if len(fast.final_rules()) > 300:
                    break
        assert compared > 1200 and 0 < converged < compared

    def test_a_generation_composes_only_the_rules_the_last_one_added(
            self, monkeypatch):
        calls = []

        def spy(sources, base, symbols):
            calls.append((list(sources), list(base)))
            return compositions(sources, base, symbols)

        monkeypatch.setattr(closure, "compositions", spy)
        trs = parse_trs(DIVERGENT)
        trace = fc_iterate(trs, 4)
        assert len(trace.new_rules) == 4 and not trace.converged
        assert calls[0] == (list(trs.rules), list(trs.rules))
        assert calls[1:] == [([c.rule for c in new], list(trs.rules))
                             for new in trace.new_rules[:-1]]

    def test_the_last_generation_is_never_indexed(self, monkeypatch):
        filed = []
        add = RuleIndex.add

        def spy(index, rule, key=None):
            filed.append(rule)
            add(index, rule, key)

        monkeypatch.setattr(RuleIndex, "add", spy)
        trace = fc_iterate(parse_trs(DIVERGENT), 3)
        assert not trace.converged
        assert filed == trace.generations[len(trace.new_rules) - 1]
        assert len(filed) < len(trace.final_rules())

    def test_only_kept_candidates_become_rules(self, monkeypatch):
        # a candidate is dropped on its key or as redundant before it is
        # built, so each rule built is one the trace keeps, primed or not,
        # and none is checked again
        built = []
        candidates = checked = 0
        unchecked, post_init = Rule.unchecked, Rule.__post_init__

        def rule(cls, *args):
            built.append(unchecked(*args))
            return built[-1]

        def check(self):
            nonlocal checked
            checked += 1
            post_init(self)

        def compose(sources, base, symbols):
            nonlocal candidates
            out = compositions(sources, base, symbols)
            candidates += len(out)
            return out

        monkeypatch.setattr(Rule, "unchecked", classmethod(rule))
        monkeypatch.setattr(Rule, "__post_init__", check)
        monkeypatch.setattr(closure, "compositions", compose)
        kept = 0
        for seed in range(1, 9):
            trs = parse_trs(pool_text(seed))
            checked = 0
            trace = fc_iterate(trs, 3)
            assert checked == 0
            kept += sum(len(new) for new in trace.new_rules)
        assert len(built) == kept
        # candidates were dropped, so one rule per candidate is too many
        assert candidates > kept > 0

    def test_sides_are_built_only_for_kept_candidates(self, monkeypatch):
        # a candidate is dropped on its flat key, as a renamed copy of a
        # kept rule or as redundant, before its sides are built: each kept
        # candidate builds them once, and no other candidate does
        composed, built = [], set()
        replaced = 0
        sides, replace = closure.Composition.sides, closure.replace_at

        def compose(sources, base, symbols):
            composed.append(compositions(sources, base, symbols))
            return composed[-1]

        def build(comp):
            built.add(id(comp))
            return sides(comp)

        def replace_at(*args):
            nonlocal replaced
            replaced += 1
            return replace(*args)

        monkeypatch.setattr(closure, "compositions", compose)
        monkeypatch.setattr(closure.Composition, "sides", build)
        monkeypatch.setattr(closure, "replace_at", replace_at)
        candidates = kept = 0
        for seed in range(1, 9):
            composed.clear()
            built.clear()
            replaced = 0
            trace = fc_iterate(parse_trs(pool_text(seed)), 3)
            passed = set()
            for cands, new in zip(composed, trace.new_rules):
                sites = {(c.first, c.second, c.position) for c in new}
                passed |= {id(c) for c in cands
                           if (c.source.label, c.base.label, c.position)
                           in sites}
                candidates += len(cands)
            assert built == passed
            assert replaced == len(passed)
            kept += len(passed)
        assert candidates > kept > 0

    def test_a_composition_is_walked_once(self, monkeypatch):
        # `fc_iterate` reads each composition's key and `is_redundant_approx`
        # reads it again, and a kept one is filed by it: one flatterm
        # serves all three. Only a filed base rule takes one more
        walks = reads = filed = composed = base = 0
        flat, key, add = closure.flatterm, closure.Composition.key, \
            RuleIndex.add

        def count_walk(*args):
            nonlocal walks
            walks += 1
            return flat(*args)

        def count_read(comp):
            nonlocal reads
            reads += 1
            return key(comp)

        def count_add(index, rule, key=None):
            nonlocal filed
            filed += 1
            add(index, rule, key)

        def compose(sources, base, symbols):
            nonlocal composed
            out = compositions(sources, base, symbols)
            composed += len(out)
            return out

        monkeypatch.setattr(closure, "flatterm", count_walk)
        monkeypatch.setattr(closure.Composition, "key", count_read)
        monkeypatch.setattr(RuleIndex, "add", count_add)
        monkeypatch.setattr(closure, "compositions", compose)
        for seed in range(1, 9):
            trs = parse_trs(pool_text(seed))
            base += len(trs.rules)
            fc_iterate(trs, 3)
        assert walks == composed + base
        assert reads > composed > 0 and filed > base

    def test_kept_rules_are_the_checked_rules(self):
        # a kept rule is not checked again; it must equal the rule built
        # with the checks, which raise on a variable lhs or a rhs
        # variable missing from the lhs
        kept = 0
        for trs in differential_systems():
            for new in fc_iterate(trs, 3).new_rules:
                for cand in new:
                    rule = cand.rule
                    assert rule == Rule(rule.lhs, rule.rhs, rule.label)
                    assert hash(rule) == hash(Rule(rule.lhs, rule.rhs,
                                                   rule.label))
                    kept += 1
        assert kept > 1000

    def test_a_renamed_copy_of_a_kept_rule_skips_the_index_query(
            self, monkeypatch):
        composed, queried = [], set()

        def compose(sources, base, symbols):
            composed.append(compositions(sources, base, symbols))
            return composed[-1]

        def redundant(candidate, existing):
            queried.add(id(candidate))
            return is_redundant_approx(candidate, existing)

        monkeypatch.setattr(closure, "compositions", compose)
        monkeypatch.setattr(closure, "is_redundant_approx", redundant)
        copies = 0
        for trs in differential_systems():
            # every candidate of the system stays alive, so ids are unique
            composed.clear()
            queried.clear()
            trace = fc_iterate(trs, 3)
            for cands, new in zip(composed, trace.new_rules):
                kept = {(c.first, c.second, c.position) for c in new}
                keys = set()
                for cand in cands:
                    key = canonical_term_pair(cand.lhs, cand.rhs)
                    copy = key in keys
                    copies += copy
                    assert (id(cand) in queried) != copy, str(cand)
                    if (cand.source.label, cand.base.label,
                            cand.position) in kept:
                        keys.add(key)
        assert copies > 0


# a constant named like a canonical variable (v1), one named like a
# variable renamed apart (x1), and a rule whose rhs is a variable
NAME_CLASHES = ("sig: f/2 g/1 h/1 v1/0 x1/0\nvars: x y\nrules:\n"
                "  f(x, y) -> g(f(y, x))\n  g(x) -> x\n"
                "  g(f(x, v1)) -> h(x1)\n  h(x) -> f(x, x1)\n"
                "  f(x1, x) -> g(h(x))\n")


class TestFlatKey:
    def test_keys_are_equal_exactly_when_the_canonical_sides_are(
            self, monkeypatch):
        composed = []

        def compose(sources, base, symbols):
            composed.append(compositions(sources, base, symbols))
            return composed[-1]

        monkeypatch.setattr(closure, "compositions", compose)
        systems = differential_systems() + [parse_trs(NAME_CLASHES)]
        systems += [parse_trs(pool_text(seed)) for seed in range(300)]
        candidates = shared = 0
        for trs in systems:
            composed.clear()
            fc_iterate(trs, 2)
            for cands in composed:
                # one generation: flat key and canonical sides must name
                # the same classes of candidates
                canonical, flat = {}, {}
                for cand in cands:
                    key = cand.key()
                    assert key == flatterm((cand.lhs, cand.rhs)), str(cand)
                    pair = canonical_term_pair(cand.lhs, cand.rhs)
                    assert canonical.setdefault(key, pair) == pair, str(trs)
                    assert flat.setdefault(pair, key) == key, str(trs)
                candidates += len(cands)
                shared += len(cands) - len(flat)
        assert candidates > 5000 and shared > 1000


def assert_parse_back(trs, rules):
    """Each rule reads back as itself under the signature of `trs`."""
    for rule in rules:
        # a variable named like a symbol makes the system text invalid
        back = parse_trs(render_trs(trs.with_rules([rule]))).rules[0]
        assert (back.lhs, back.rhs) == (rule.lhs, rule.rhs), str(rule)


class TestFreshNames:
    def test_every_new_rule_parses_back_as_itself(self):
        trs = parse_trs(FRESH_NAME_CLASH)
        trace = fc_iterate(trs, 2)
        new = [c.rule for gen in trace.new_rules for c in gen]
        assert "[r1~r3@e] f(v1,x2) -> h(x1)" in map(str, new)
        assert_parse_back(trs, new)

    def test_a_symbol_that_no_rule_uses_is_avoided(self):
        trs = parse_trs(UNUSED_SYMBOL_CLASH)
        new = [c.rule for c in fc_iterate(trs, 1).new_rules[0]]
        assert list(map(str, new)) == ["[r2~r1@e] g(x2,a) -> g(x2,x2)"]
        assert_parse_back(trs, new)


class TestIsForwardClosed:
    def test_full_system(self, sys3):
        ok, witness = is_forward_closed(sys3)
        assert ok and witness is None

    def test_truncated_fails_with_witness(self, sys2):
        ok, witness = is_forward_closed(sys2)
        assert not ok
        assert render_term(witness.rule.lhs) == "f(b,i(b))"

    def test_witness_is_primed_away_from_an_input_label(self):
        # f(a) -> a is new, and an input rule already has its label
        trs = parse_trs("sig: f/1 g/1 a/0 b/0\nvars: x\nrules:\n"
                        "  f(x) -> g(x)\n  g(a) -> a\n"
                        "  [r1~r2@e] f(b) -> b\n")
        ok, witness = is_forward_closed(trs)
        assert not ok
        assert witness == fc_iterate(trs, 1).new_rules[0][0]
        assert str(witness) == ("[r1~r2@e'] f(a) -> a  (r1 ~> r2 at e, "
                                "gen 1)")

    def test_lm_systems_have_zero_candidates(self):
        theory = encode(TINY_MACHINE, 0, 0).theory
        assert compositions(theory.rules, theory.rules, names(theory)) == []


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

    def test_root_steps_agree_with_every_position(self, monkeypatch):
        # the check asks only about innermost redexes, whose one steps all
        # happen at the root; the oracle tries every position and rule
        def oracle(trs, t, target):
            return any(replace_at(t, p, substitute(rule.rhs, sigma)) == target
                       for p, sub in subterms(t) for rule in trs.rules
                       if (sigma := match_term(rule.lhs, sub)) is not None)

        def report(trs):
            try:
                return innermost_one_step_check(trs, depth=3, fuel=200)
            except FuelExhausted as e:
                return str(e), len(e.trace), e.outgrew

        answers = []
        for trs in differential_systems():
            pool = enumerate_ground_irreducible(trs, 3, 128)
            for rule in trs.rules:
                names = sorted(rule.variables())
                for combo in itertools.islice(
                        itertools.product(pool, repeat=len(names)), 512):
                    t = substitute(rule.lhs, dict(zip(names, combo)))
                    if not is_innermost_redex(trs, t):
                        continue
                    targets = [t]
                    with contextlib.suppress(FuelExhausted):
                        targets.append(nf(trs, t, 200))
                    for target in targets:
                        answer = one_step.one_step_reaches(trs, t, target)
                        assert answer == oracle(trs, t, target), (trs, t)
                        answers.append(answer)
        assert len(answers) > 500 and True in answers and False in answers

        systems = differential_systems()
        fast = [report(trs) for trs in systems]
        monkeypatch.setattr(one_step, "one_step_reaches", oracle)
        assert fast == [report(trs) for trs in systems]

    def test_agrees_with_is_forward_closed_on_convergent_systems(self):
        # on a convergent system forward closure is the same property as
        # every innermost redex reaching its normal form in one step
        systems = [(name, trs) for name, trs, _ in corpus_systems()]
        systems += [(f"pool{seed}", parse_trs(pool_text(seed)))
                    for seed in range(300)]
        verdicts = []
        for name, trs in systems:
            try:
                convergent = (check_termination(trs).ok
                              and check_confluence(trs).ok)
            except FuelExhausted:
                convergent = False
            if convergent:
                closed = is_forward_closed(trs)[0]
                assert innermost_one_step_check(trs).ok == closed, name
                verdicts.append(closed)
        assert len(verdicts) >= 80 and False in verdicts
