"""Rewriting relation, normal forms, traces, and bounded searches."""

import math
import sys

import pytest

from lmtk import rewriting
from lmtk.rewriting import (
    MAX_TERM_NODES,
    FuelExhausted,
    NormalForms,
    enumeration_variables,
    eps_normal_form,
    is_eps_irreducible,
    is_innermost_redex,
    joinable,
    nf,
    normalize,
    normalize_outermost,
    odp,
    replay,
    rewrite_at,
    subterm_collapse_search,
)
from lmtk.terms import App, Symbol, Var, enumerate_terms, positions, render_term, term_size
from lmtk.trs_format import parse_term, parse_trs

from conftest import (
    FC_SOURCES,
    LM_SOURCES,
    ROOT_OVERLAP,
    ROOT_OVERLAP_TRUNCATED,
    UNARY_CHAIN,
)


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
        result = rewrite_at(sys3, t("f(b,i(b))", sys3), ())
        assert result is not None
        term, step = result
        # first matching rule in file order wins
        assert step.rule_label == "r1"
        assert render_term(term) == "g(b)"

    def test_no_match_at_root(self, sys2):
        only_g = sys2.with_rules([sys2.rule("r2")])
        assert rewrite_at(only_g, t("f(b,i(b))", sys2), ()) is None

    def test_inner_step(self, sys2):
        only_g = sys2.with_rules([sys2.rule("r2")])
        result = rewrite_at(only_g, t("f(g(b),b)", sys2), (1,))
        assert result is not None
        term, step = result
        assert render_term(term) == "f(c,b)"
        assert step.position == (1,)


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


def innermost_oracle(trs, t, fuel):
    """Leftmost-innermost normalization from the definition: rewrite at the
    first position in post-order where a rule applies."""
    trace = []
    while True:
        order = sorted(positions(t), key=lambda p: p + (math.inf,))
        hit = next(filter(None, (rewrite_at(trs, t, p) for p in order)), None)
        if hit is None:
            return t, trace
        if len(trace) >= fuel:
            raise FuelExhausted(t, trace)
        t, step = hit
        trace.append(step)
        if term_size(t) > MAX_TERM_NODES:
            raise FuelExhausted(t, trace)


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
                    outgrown += term_size(e.term) > MAX_TERM_NODES
        assert cases > 12000
        assert outgrown > 0
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
    def test_root_overlap_example(self, sys3):
        ok, witness = joinable(sys3, t("f(b,i(b))", sys3), t("c", sys3))
        assert ok and render_term(witness) == "c"

    def test_reflexive(self, sys3):
        assert joinable(sys3, t("i(b)", sys3), t("i(b)", sys3))[0]

    def test_distinct_normal_forms(self):
        trs = parse_trs("sig: a/0 b/0 c/0 d/0\nrules:\n  a -> b\n  c -> d\n")
        assert not joinable(trs, t("a", trs), t("c", trs))[0]


class TestCollapseSearch:
    def test_collapsing_witness(self):
        trs = parse_trs("sig: f/1 g/1\nvars: x\nrules:\n  f(g(x)) -> x\n")
        res = subterm_collapse_search(trs, 3)
        assert res.collapsing
        u, p = res.witness
        assert render_term(u) == "f(g(x))"
        assert p == (1, 1)

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
