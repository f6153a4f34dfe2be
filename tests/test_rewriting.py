"""Rewriting relation, normal forms, traces, and bounded searches."""

import collections
import itertools
import math
import random
import sys

import pytest

from lmtk import rewriting
from lmtk.rewriting import (
    DEFAULT_FUEL,
    CollapseSearchResult,
    MAX_TERM_NODES,
    FuelExhausted,
    NormalForms,
    RewriteStep,
    apply_rule,
    enumeration_variables,
    is_eps_irreducible,
    is_innermost_redex,
    is_reducible,
    nf,
    normalize,
    replay,
    subterm_collapse_search,
)
from lmtk.terms import App, Symbol, Var, enumerate_terms, render_term, subterms, term_size
from lmtk.trs_format import parse_term, parse_trs, render_trs

from conftest import (
    FC_SOURCES,
    LM_SOURCES,
    ROOT_OVERLAP,
    ROOT_OVERLAP_TRUNCATED,
    UNARY_CHAIN,
    corpus_systems,
    odp,
)
from random_systems import random_system


@pytest.fixture(scope="module")
def sys3():
    return parse_trs(ROOT_OVERLAP)


@pytest.fixture(scope="module")
def sys2():
    return parse_trs(ROOT_OVERLAP_TRUNCATED)


def t(src, trs):
    return parse_term(src, trs)


class TestRewriteAt:
    def test_root_step(self, sys3):
        _, trace = normalize(sys3, t("f(b,i(b))", sys3))
        # first matching rule in file order wins
        assert trace[0].rule_label == "r1"
        assert render_term(trace[0].target) == "g(b)"

    def test_no_match_at_root(self, sys2):
        assert apply_rule(sys2.rule("r2"), t("f(b,i(b))", sys2), ()) is None

    def test_inner_step(self, sys2):
        result = apply_rule(sys2.rule("r2"), t("f(g(b),b)", sys2), (1,))
        assert result is not None
        term, sigma = result
        assert render_term(term) == "f(c,b)"
        assert sigma == {}


class TestNormalize:
    def test_two_step_chain(self, sys2):
        result, trace = normalize(sys2, t("f(b,i(b))", sys2), 10)
        assert render_term(result) == "c"
        assert [s.rule_label for s in trace] == ["r1", "r2"]

    def test_irreducible_term_empty_trace(self, sys3):
        result, trace = normalize(sys3, t("i(c)", sys3), 10)
        assert render_term(result) == "i(c)"
        assert trace == []

    def test_trace_replays(self, sys3):
        start = t("f(b,i(b))", sys3)
        result, trace = normalize(sys3, start)
        assert replay(sys3, start, trace) == result

    def test_fuel_exhausted_carries_trace(self):
        loop = parse_trs("sig: a/0 b/0\nrules:\n  a -> b\n  b -> a\n")
        with pytest.raises(FuelExhausted) as exc:
            normalize(loop, t("a", loop), 5)
        assert len(exc.value.trace) == 5

    def test_innermost_before_root(self, sys3):
        # arguments normalize before the root fires
        _, trace = normalize(sys3, t("f(g(b),i(g(b)))", sys3))
        assert trace[0].position != ()

    def test_term_deeper_than_the_recursion_limit(self):
        trs = parse_trs("sig: a/0 f/1 g/1 h/1\nvars: x\nrules:\n"
                        "  f(x) -> h(x)\n")
        a, f, g, h = (trs.symbol(n) for n in "afgh")
        n = 3 * sys.getrecursionlimit()
        start, expected = App(f, (App(a),)), App(h, (App(a),))
        for _ in range(n):
            start, expected = App(g, (start,)), App(g, (expected,))
        result, trace = normalize(trs, start)
        assert [s.position for s in trace] == [(1,) * n]
        assert replay(trs, start, trace) == expected
        assert result == expected

    def test_rule_deeper_than_the_recursion_limit(self):
        n = 3 * sys.getrecursionlimit()
        trs = parse_trs("sig: a/0 f/1\nvars: x\nrules:\n  "
                        + "f(" * n + "x" + ")" * n + " -> x\n")
        a, f = trs.symbol("a"), trs.symbol("f")
        start = App(a)
        for _ in range(n):
            start = App(f, (start,))
        assert nf(trs, start) == App(a)

    def test_matching_work_is_linear_in_the_lhs_depth(self, monkeypatch):
        # f^n(x) -> x cannot match the smaller f^k(a), k < n, which the
        # innermost walk offers first: trying it there walks up to k
        # levels each time, about n^2/2 lhs nodes in all
        n = 300
        trs = parse_trs("sig: a/0 f/1\nvars: x\nrules:\n  "
                        + "f(" * n + "x" + ")" * n + " -> x\n")
        a, f = trs.symbol("a"), trs.symbol("f")
        start = App(a)
        for _ in range(n):
            start = App(f, (start,))
        match, offered = rewriting.match_term, []

        def counting(pattern, subject):
            offered.append(term_size(pattern))
            return match(pattern, subject)
        monkeypatch.setattr(rewriting, "match_term", counting)
        assert nf(trs, start) == App(a)
        assert sum(offered) <= 2 * n

    def test_matcher_values_are_not_walked_again(self, monkeypatch):
        # each step's matcher value is the whole normal tail g^k(a): walking
        # it again would try the root about n^2/2 times
        trs = parse_trs("sig: a/0 f/1 g/1\nvars: x\nrules:\n  f(x) -> g(x)\n")
        a, f = trs.symbol("a"), trs.symbol("f")
        n = 400
        start = App(a)
        for _ in range(n):
            start = App(f, (start,))
        root_step, tries = rewriting._root_step, []

        def counting(trs, u):
            tries.append(u)
            return root_step(trs, u)
        monkeypatch.setattr(rewriting, "_root_step", counting)
        result, trace = normalize(trs, start)
        assert len(trace) == n
        assert render_term(result) == "g(" * n + "a" + ")" * n
        assert len(tries) <= 3 * n


    def test_running_out_of_fuel_rebuilds_no_term_per_step(self, monkeypatch):
        # g^d(h(a)) under h(x) -> h(s(x)) rewrites at depth d at every step:
        # rebuilding the whole term per step would build about fuel * d nodes
        trs = parse_trs("sig: a/0 g/1 h/1 s/1\nvars: x\nrules:\n"
                        "  h(x) -> h(s(x))\n")
        a, g, h, s = (trs.symbol(n) for n in "aghs")
        fuel, d = 200, sys.getrecursionlimit() + 100
        start, stuck = App(h, (App(a),)), App(a)
        for _ in range(fuel):
            stuck = App(s, (stuck,))
        stuck = App(h, (stuck,))
        for _ in range(d):
            start, stuck = App(g, (start,)), App(g, (stuck,))
        post_init, built = App.__post_init__, []

        def counting(self):
            built.append(self)
            post_init(self)
        monkeypatch.setattr(App, "__post_init__", counting)
        raised = []
        for normalizer in (lambda u: nf(trs, u, fuel), NormalForms(trs, fuel)):
            built.clear()
            with pytest.raises(FuelExhausted) as exc:
                normalizer(start)
            assert len(built) < 10 * (fuel + d)
            count = len(built)
            assert len(exc.value.trace) == fuel
            assert len(built) == count
            raised.append(exc.value)
        monkeypatch.undo()
        assert [e.term for e in raised] == [stuck, stuck]
        e = raised[0]
        steps = list(e.trace)
        assert all(x is y for x, y in zip(steps, e.trace, strict=True))
        assert replay(trs, start, e.trace) == e.term

    def test_lazy_trace_equals_the_list_of_its_steps(self):
        loop = parse_trs("sig: a/0 b/0\nrules:\n  a -> b\n  b -> a\n")
        start = t("a", loop)
        with pytest.raises(FuelExhausted) as ref:
            innermost_oracle(loop, start, 5)
        steps = ref.value.trace
        traces = []
        for _ in range(4):
            with pytest.raises(FuelExhausted) as exc:
                normalize(loop, start, 5)
            traces.append(exc.value.trace)
        # each comparison is the first read of its trace
        assert steps == traces[0]
        assert traces[1] == steps
        assert traces[2] == traces[3]
        assert traces[0] != steps[:-1] and steps[:-1] != traces[0]
        assert [s.rule_label for s in traces[0]] == ["r1", "r2"] * 2 + ["r1"]


def first_redex(trs, t, order):
    """The first position in `order` where some rule applies, taking the
    rules in file order: (rule, position, rewritten term, matcher)."""
    for p in order:
        for rule in trs.rules:
            hit = apply_rule(rule, t, p)
            if hit is not None:
                return rule, p, *hit
    return None


def innermost_oracle(trs, t, fuel):
    """Leftmost-innermost normalization from the definition: rewrite at the
    first position in post-order where a rule applies."""
    trace = []
    while True:
        order = sorted((p for p, _ in subterms(t)), key=lambda p: p + (math.inf,))
        hit = first_redex(trs, t, order)
        if hit is None:
            return t, trace
        if len(trace) >= fuel:
            raise FuelExhausted(t, trace)
        rule, p, target, sigma = hit
        trace.append(RewriteStep(rule.label, p, tuple(sorted(sigma.items())),
                                 t, target))
        t = target
        if term_size(t) > MAX_TERM_NODES:
            raise FuelExhausted(t, trace)


def normalize_outermost(trs, t, fuel=DEFAULT_FUEL):
    """Leftmost-outermost normal form: rewrite at the first position in
    pre-order where a rule applies. Cross-checks strategy independence on
    convergent systems."""
    for steps in itertools.count():
        hit = first_redex(trs, t, [p for p, _ in subterms(t)])
        if hit is None:
            return t
        if steps >= fuel:
            raise FuelExhausted(t, [])
        t = hit[2]
        if term_size(t) > MAX_TERM_NODES:
            raise FuelExhausted(t, [])


def outcome(normalizer, trs, u, fuel):
    try:
        return normalizer(trs, u, fuel)
    except FuelExhausted as e:
        return "fuel", e.term, len(e.trace), e.trace


# redexes below the root of a right side, and a rule that never stops,
# so that re-entering a rewritten subterm and running out of fuel both show
ORACLE_EXTRA = {
    "inner_redex_rhs": "sig: f/1 g/2 h/1 a/0 b/0\nvars: x\nrules:\n"
                       "  f(x) -> g(h(x),a)\n  a -> b\n  h(x) -> x\n",
    "growing": "sig: a/0 f/1\nrules:\n  a -> f(a)\n",
}


class TestInnermostOracle:
    def test_normalize_agrees_with_the_definition(self):
        cases = 0
        for name, src in {**LM_SOURCES, **FC_SOURCES, **ORACLE_EXTRA}.items():
            trs = parse_trs(src)
            for u in enumerate_terms(trs.symbols,
                                     enumeration_variables(trs, 2), 3):
                for fuel in (0, 3, 50):
                    cases += 1
                    assert (outcome(normalize, trs, u, fuel)
                            == outcome(innermost_oracle, trs, u, fuel)), \
                        (name, render_term(u), fuel)
        assert cases > 6000


# a right side that doubles its argument: outgrows MAX_TERM_NODES within
# fuel 50, runs out of fuel 3 first
DOUBLING = "sig: a/0 f/2 g/1\nvars: x\nrules:\n  g(x) -> g(f(x,x))\n"


class TestNormalFormsCache:
    def test_cache_agrees_with_normalize(self):
        cases = outgrown = 0
        systems = {**LM_SOURCES, **FC_SOURCES, **ORACLE_EXTRA,
                   "doubling": DOUBLING}
        for name, src in systems.items():
            trs = parse_trs(src)
            terms = list(enumerate_terms(trs.symbols,
                                         enumeration_variables(trs, 2), 3))
            for fuel in (0, 3, 50):
                # one cache per system and fuel; the reverse sweep meets
                # hits before misses and before failures
                cached = NormalForms(trs, fuel)
                for u in terms + terms[::-1]:
                    cases += 1
                    expected = outcome(normalize, trs, u, fuel)
                    where = (name, render_term(u), fuel)
                    if expected[0] != "fuel":
                        assert cached(u) == expected[0], where
                        continue
                    with pytest.raises(FuelExhausted) as exc:
                        cached(u)
                    e = exc.value
                    assert ("fuel", e.term, len(e.trace), e.trace) == expected, where
                    with pytest.raises(FuelExhausted) as ref:
                        normalize(trs, u, fuel)
                    assert str(e) == str(ref.value), where
                    outgrown += term_size(e.term) > MAX_TERM_NODES
        assert cases > 12000
        assert outgrown > 0

    @staticmethod
    def same_outcome(cached, trs, u, fuel):
        """`cached(u)` ends as `normalize(trs, u, fuel)` does, message
        included; returns the FuelExhausted, if any."""
        expected = outcome(normalize, trs, u, fuel)
        if expected[0] != "fuel":
            assert cached(u) == expected[0]
            return None
        with pytest.raises(FuelExhausted) as exc:
            cached(u)
        with pytest.raises(FuelExhausted) as ref:
            normalize(trs, u, fuel)
        e = exc.value
        assert ("fuel", e.term, len(e.trace), e.trace) == expected
        assert str(e) == str(ref.value)
        return e

    def test_fuel_runs_out_inside_a_memoized_argument(self):
        trs = parse_trs("sig: a/0 b/0 c/0 d/0 h/2\n"
                        "rules:\n  a -> b\n  b -> c\n  c -> d\n")
        for fuel in range(7):
            cached = NormalForms(trs, fuel)
            if fuel >= 3:
                assert cached(t("a", trs)) == t("d", trs)
            # three steps per argument: the second one crosses fuel 3 to 5
            e = self.same_outcome(cached, trs, t("h(a,a)", trs), fuel)
            assert (e is None) == (fuel >= 6)

    def test_the_size_bound_crossed_only_in_context(self):
        # dup(s^1999(0)) peaks at 4001 nodes alone, then shrinks back; with
        # 1500 more nodes beside it, the whole term goes over at that peak
        trs = parse_trs("sig: 0/0 s/1 dup/1 p/2 h/2\nvars: x y\nrules:\n"
                        "  dup(x) -> p(x,x)\n  p(x,y) -> x\n")
        s, zero = trs.symbol("s"), App(trs.symbol("0"))
        long, beside = zero, zero
        for _ in range(1999):
            long = App(s, (long,))
        for _ in range(1499):
            beside = App(s, (beside,))
        arg = App(trs.symbol("dup"), (long,))
        cached = NormalForms(trs)
        assert cached(arg) == long
        assert cached.cost[arg] == (2, 4001)
        for args in ((arg, beside), (beside, arg)):
            whole = App(trs.symbol("h"), args)
            assert 4001 + term_size(beside) + 1 > MAX_TERM_NODES
            e = self.same_outcome(cached, trs, whole, DEFAULT_FUEL)
            assert str(e) == f"term outgrew {MAX_TERM_NODES} nodes after 1 steps"

    def test_the_first_redex_below_the_root(self, monkeypatch):
        trs = parse_trs("sig: a/0 b/0 c/0 d/0 g/1 h/2\n"
                        "rules:\n  a -> b\n  c -> d\n")
        handed = []
        original = rewriting.normalize

        def counting(trs, u, fuel=DEFAULT_FUEL):
            handed.append((render_term(u), fuel))
            return original(trs, u, fuel)
        monkeypatch.setattr(rewriting, "normalize", counting)
        for fuel in (0, 1, 2, 5):
            cached = NormalForms(trs, fuel)
            if fuel:
                assert cached(t("a", trs)) == t("b", trs)
            handed.clear()
            # a is known, g(c) is not: the walk hands h(b,g(c)) over at c
            self.same_outcome(cached, trs, t("h(a,g(c))", trs), fuel)
            if fuel:
                assert handed[0] == ("h(b,g(c))", fuel - 1)

    def test_an_exhausted_query_runs_normalize_once(self, monkeypatch):
        trs = parse_trs("sig: a/0 b/0 c/0 f/1 g/2\n"
                        "rules:\n  a -> f(a)\n  c -> b\n")
        fuel, calls, steps = 200, [], []
        original = rewriting.normalize

        def counting(trs, u, fuel=DEFAULT_FUEL):
            calls.append(u)
            try:
                out = original(trs, u, fuel)
            except FuelExhausted as e:
                steps.append(len(e.trace))
                raise
            steps.append(len(out[1]))
            return out
        monkeypatch.setattr(rewriting, "normalize", counting)
        cached = NormalForms(trs, fuel)
        for known in ("c", "f(c)", "g(c,c)"):
            cached(t(known, trs))
        for query in ("g(c,a)", "g(f(c),g(g(c,c),a))", "f(g(g(c,c),f(a)))"):
            calls.clear()
            steps.clear()
            with pytest.raises(FuelExhausted) as exc:
                cached(t(query, trs))
            assert len(calls) == 1, query
            assert sum(steps) <= fuel, query
            assert len(exc.value.trace) == fuel
            assert len(calls) == 1
            # reading the trace runs the whole query once more
            assert exc.value.trace[-1].target == exc.value.term
            assert len(calls) == 2


def eps_normal_form(trs, t, fuel=DEFAULT_FUEL):
    """Normalize all proper subterms, never rewriting at the root."""
    if isinstance(t, Var):
        return t
    return App(t.sym, tuple(nf(trs, a, fuel) for a in t.args))


class TestEpsNotions:
    def test_innermost_redex(self, sys3):
        assert is_innermost_redex(sys3, t("f(b,i(b))", sys3))

    def test_variable_never_redex(self, sys3):
        assert not is_innermost_redex(sys3, Var("x"))

    def test_reducible_argument_blocks(self, sys3):
        assert not is_eps_irreducible(sys3, t("f(g(b),b)", sys3))

    def test_eps_normal_form_keeps_root(self, sys3):
        result = eps_normal_form(sys3, t("f(g(b),i(g(b)))", sys3))
        assert render_term(result) == "f(c,i(c))"

    def test_eps_normal_form_constant(self, sys3):
        assert eps_normal_form(sys3, t("b", sys3)) == t("b", sys3)

    def test_chain_past_the_recursion_limit(self):
        trs = parse_trs("sig: a/0 b/0 f/1\nrules:\n  a -> b\n")
        n = 3 * sys.getrecursionlimit()
        normal = t("f(" * n + "b" + ")" * n, trs)
        redex_at_leaf = t("f(" * n + "a" + ")" * n, trs)
        assert not is_reducible(trs, normal)
        assert is_eps_irreducible(trs, normal)
        assert is_reducible(trs, redex_at_leaf)
        assert not is_eps_irreducible(trs, redex_at_leaf)


class TestOdp:
    def test_equal_terms_empty(self, sys3):
        u = t("f(b,i(b))", sys3)
        assert odp(u, u) == set()

    def test_argument_disagreement(self, sys3):
        assert odp(t("f(b,b)", sys3), t("f(b,c)", sys3)) == {(2,)}

    def test_root_disagreement_masks_below(self, sys3):
        assert odp(t("f(b,b)", sys3), t("g(b)", sys3)) == {()}

    def test_variable_vs_symbol(self):
        g = Symbol("g", 1)
        assert odp(App(g, (Var("x"),)), App(g, (Var("y"),))) == {(1,)}


class TestJoinable:
    # two terms are joinable in a convergent system when their normal
    # forms are equal
    def test_root_overlap_example(self, sys3):
        witness = nf(sys3, t("f(b,i(b))", sys3))
        assert witness == nf(sys3, t("c", sys3)) and render_term(witness) == "c"

    def test_reflexive(self, sys3):
        assert nf(sys3, t("i(b)", sys3)) == nf(sys3, t("i(b)", sys3))

    def test_distinct_normal_forms(self):
        trs = parse_trs("sig: a/0 b/0 c/0 d/0\nrules:\n  a -> b\n  c -> d\n")
        assert nf(trs, t("a", trs)) != nf(trs, t("c", trs))


# the first witness is three levels below its term: a search that looked
# only at arguments and their arguments would miss it
DEEP_COLLAPSE = "sig: a/0 f/1 g/1 h/1\nvars: x\nrules:\n  f(g(h(x))) -> x\n"


class TestCollapseSearch:
    def test_collapsing_witness(self):
        trs = parse_trs("sig: f/1 g/1\nvars: x\nrules:\n  f(g(x)) -> x\n")
        res = subterm_collapse_search(trs, 3)
        assert res.collapsing
        u, p = res.witness
        assert render_term(u) == "f(g(x))"
        assert p == (1, 1)

    def test_witness_three_levels_down(self):
        trs = parse_trs(DEEP_COLLAPSE)
        res = subterm_collapse_search(trs, 4)
        u, p = res.witness
        assert (render_term(u), p) == ("f(g(h(a)))", (1, 1, 1))

    def test_non_collapsing_chain(self):
        trs = parse_trs(UNARY_CHAIN)
        res = subterm_collapse_search(trs, 5)
        assert not res.collapsing
        assert res.exhausted

    def test_empty_system(self):
        trs = parse_trs("sig: a/0\nrules:\n")
        assert not subterm_collapse_search(trs, 4).collapsing

    def test_duplicating_rule_collapses(self):
        trs = parse_trs("sig: f/2 0/0\nvars: x\nrules:\n  f(x,x) -> 0\n")
        res = subterm_collapse_search(trs, 3)
        assert res.collapsing
        u, p = res.witness
        assert nf(trs, u) == nf(trs, App(Symbol("0", 0)))


def reference_collapse_search(trs, max_depth=5, max_terms=4000,
                              fuel=DEFAULT_FUEL):
    """The collapse search with one `nf` call per subterm: the oracle for
    the search that builds each term's set from its arguments' sets."""
    vars_ = enumeration_variables(trs, 2)
    nf = NormalForms(trs, fuel)
    checked = 0
    exhausted = True
    for u in enumerate_terms(trs.symbols, vars_, max_depth):
        if checked >= max_terms:
            exhausted = False
            break
        checked += 1
        if isinstance(u, Var):
            continue
        u_nf = nf(u)
        for p, sub in subterms(u):
            if p and nf(sub) == u_nf:
                return CollapseSearchResult((u, p), max_depth, checked, exhausted)
    return CollapseSearchResult(None, max_depth, checked, exhausted)


# certified late by the permutation LPO search; its collapse search stops
# at the term cap
PAIRS7 = """
sig: d/0 s5/2 s4/2 s3/2 s2/2 s1/2 c/0
vars: x
rules:
  s1(x, c) -> s2(x, d)
  s2(x, c) -> s3(x, d)
  s3(x, c) -> s4(x, d)
  s4(x, c) -> s5(x, d)
"""


class TestCollapseOracle:
    def test_search_agrees_with_the_reference(self):
        # every depth 3-5 and fuel 0, 3 and 200 occurs; the named systems,
        # eight of which stop at the term cap at depth 5, run at fewer
        # pairs because they are the slow ones
        named = [trs for _, trs, _ in corpus_systems()]
        named += [parse_trs(PAIRS7), parse_trs(DEEP_COLLAPSE)]
        drawn = list(filter(None, (random_system(random.Random(seed))
                                   for seed in range(120))))
        plan = [(named, [(5, 200), (3, 3), (4, 0)]),
                (drawn, [(3, 0), (3, 3), (3, 200), (4, 3), (5, 200)])]
        ends = collections.Counter()
        for systems, pairs in plan:
            for trs, (depth, fuel) in itertools.product(systems, pairs):
                got, expected = (outcome_of(search, trs, depth, fuel)
                                 for search in (subterm_collapse_search,
                                                reference_collapse_search))
                assert got == expected, (render_trs(trs), depth, fuel)
                ends[("fuel" if got[0] == "fuel" else "found" if got[0]
                      else "exhausted" if got[-1] else "capped"),
                     systems is named and (depth, fuel) == (5, 200)] += 1
        assert ends["capped", True] == 8
        for kind in ("fuel", "found", "exhausted", "capped"):
            assert ends[kind, False] + ends[kind, True] > 10, ends


def outcome_of(search, trs, depth, fuel):
    try:
        r = search(trs, depth, fuel=fuel)
    except FuelExhausted as e:
        return "fuel", e.term, len(e.trace), str(e)
    return r.witness, r.max_depth, r.terms_checked, r.exhausted


class TestStrategyIndependence:
    def test_innermost_matches_outermost_on_convergent_system(self, sys3):
        vars_ = enumeration_variables(sys3, 2)
        count = 0
        for u in enumerate_terms(sys3.symbols, vars_, 4):
            count += 1
            if count > 600:
                break
            assert nf(sys3, u) == normalize_outermost(sys3, u)

    def test_outermost_on_a_term_deeper_than_the_recursion_limit(self):
        # a left chain f(...f(a,b)...,b) whose only redex is its leftmost leaf
        trs = parse_trs("sig: a/0 b/0 f/2\nrules:\n  a -> b\n")
        a, b, f = (trs.symbol(n) for n in "abf")
        start, expected = App(a), App(b)
        for _ in range(sys.getrecursionlimit() + 100):
            start = App(f, (start, App(b)))
            expected = App(f, (expected, App(b)))
        assert normalize_outermost(trs, start) == expected

    def test_certified_corpus_is_strategy_independent(self):
        for name, src in LM_SOURCES.items():
            trs = parse_trs(src)
            vars_ = enumeration_variables(trs, 2)
            count = 0
            for u in enumerate_terms(trs.symbols, vars_, 4):
                count += 1
                if count > 250:
                    break
                assert nf(trs, u) == normalize_outermost(trs, u), (name, u)
