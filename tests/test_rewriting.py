"""Rewriting relation, normal forms, traces, and bounded searches."""

import collections
import itertools
import random
import sys

import pytest
from hypothesis import assume, given, strategies as st

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
    is_root_redex,
    nf,
    normalize,
    replay,
    subterm_collapse_search,
)
from lmtk.terms import (
    App,
    Symbol,
    Var,
    enumerate_terms,
    match_term,
    render_term,
    substitute,
    subterms,
    term_size,
    variables_of,
)
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
from one_step import is_innermost_redex, is_reducible
from random_systems import random_system, random_term


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


def root_step_oracle(trs, u):
    """The plain scan `_root_step` filters: the first rule in file order
    whose lhs matches `u`, by `match_term` alone, with its matcher."""
    for rule in trs.rules:
        sigma = match_term(rule.lhs, u)
        if sigma is not None:
            return rule.label, sigma
    return None


def root_step_labelled(trs, u):
    if isinstance(u, Var):
        return None
    hit = rewriting._root_step(trs, u.sym, u.args)
    return hit and (hit[0].label, hit[1])


# a variable lhs argument next to a non-variable one, on either side
MIXED_ARGUMENTS = """
sig: f/2 g/1 a/0 b/0
vars: x y
rules:
  f(x, g(y)) -> y
  f(g(x), a) -> x
  f(x, y) -> g(y)
"""

# repeated lhs variables, one of them under a non-variable argument
REPEATED_VARIABLE = """
sig: f/2 g/1 a/0 b/0
vars: x y
rules:
  f(g(x), x) -> a
  f(x, x) -> b
  g(f(x, x)) -> x
"""


class TestRootStepFilter:
    """`_root_step` skips rules on the root symbols of the lhs arguments;
    it must name the rule and matcher of the plain scan."""

    @staticmethod
    def agree(trs, terms):
        """The labels of the rules that fired on `terms`."""
        fired = set()
        for u in terms:
            hit = root_step_oracle(trs, u)
            assert root_step_labelled(trs, u) == hit, render_term(u)
            if hit is not None:
                fired.add(hit[0])
        return fired

    def test_random_systems_up_to_depth_three(self):
        fired = 0
        for seed in range(200):
            trs = random_system(random.Random(seed))
            if trs is not None:
                fired += len(self.agree(trs, enumerate_terms(
                    trs.symbols, trs.variables, 3)))
        assert fired > 200

    def test_corpus(self, corpus):
        for _, trs, _ in corpus:
            ground = list(itertools.islice(
                enumerate_terms(trs.symbols, (), 3), 2000))
            # the lhs instances: enumeration from the constants up rarely
            # reaches the encodings' redexes
            lhs_instances = [
                substitute(rule.lhs, dict.fromkeys(variables_of(rule.lhs), s))
                for rule in trs.rules for s in ground[:20]]
            lhs_subterms = [u for rule in trs.rules
                            for _, u in subterms(rule.lhs)]
            assert self.agree(trs, ground + lhs_instances + lhs_subterms)

    @pytest.mark.parametrize("source", [MIXED_ARGUMENTS, REPEATED_VARIABLE],
                             ids=["mixed_arguments", "repeated_variable"])
    def test_small_systems(self, source):
        trs = parse_trs(source)
        fired = self.agree(trs, enumerate_terms(trs.symbols, trs.variables, 3))
        assert fired == {r.label for r in trs.rules}

    def test_a_root_mismatch_is_not_matched(self, monkeypatch):
        trs = parse_trs(MIXED_ARGUMENTS)
        match, offered = rewriting.match_many, []

        def counting(pairs):
            pairs = list(pairs)
            offered.append([p for p, _ in pairs])
            return match(pairs)
        monkeypatch.setattr(rewriting, "match_many", counting)
        # both earlier lhs are small enough to match f(f(a,b),b)
        assert root_step_labelled(trs, t("f(f(a, b), b)", trs))[0] == "r3"
        # the root is fixed by `rules_by_root`: only the lhs arguments of
        # r3 are matched
        assert offered == [list(trs.rule("r3").lhs.args)]

    def test_an_argument_too_small_is_not_matched(self, monkeypatch):
        # the lhs has 5 nodes and the term 7, but g(a) has fewer nodes
        # than g(g(x)) opposite it: the matcher is not called
        trs = parse_trs("sig: f/2 g/1 h/1 a/0\nvars: x y\nrules:\n"
                        "  f(g(g(x)), y) -> a\n")
        match, offered = rewriting.match_many, []

        def counting(pairs):
            offered.append(pairs)
            return match(pairs)
        monkeypatch.setattr(rewriting, "match_many", counting)
        u = t("f(g(a), h(h(h(a))))", trs)
        assert term_size(trs.rules[0].lhs) < term_size(u)
        assert root_step_labelled(trs, u) is None
        assert offered == []

    @given(st.integers(0, 499), st.booleans(), st.data())
    def test_a_symbol_and_normal_arguments_decide_as_the_built_term(
            self, seed, from_lhs, data):
        # the arguments are normal forms, drawn free or as instances of
        # the lhs arguments of a rule, so that many tuples are redexes
        trs = random_system(random.Random(seed))
        assume(trs is not None)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        symbols, names = list(trs.symbols), list(trs.variables)

        def normal(u):
            try:
                return nf(trs, u, 50)
            except FuelExhausted:
                assume(False)
        if from_lhs:
            lhs = data.draw(st.sampled_from(trs.rules)).lhs
            sigma = {v: normal(random_term(rng, symbols, names, 3))
                     for v in sorted(variables_of(lhs))}
            sym, raw = lhs.sym, [substitute(a, sigma) for a in lhs.args]
        else:
            sym = data.draw(st.sampled_from(trs.symbols))
            raw = [random_term(rng, symbols, names, 3)
                   for _ in range(sym.arity)]
        args = tuple(normal(a) for a in raw)
        hit = rewriting._root_step(trs, sym, args)
        assert ((hit and (hit[0].label, hit[1]))
                == root_step_oracle(trs, App(sym, args)))

    @given(st.integers(0, 499), st.booleans(), st.data())
    def test_a_unary_term_dropped_on_its_argument_root_is_no_redex(
            self, seed, from_lhs, data):
        # the term is drawn free, or as an instance of a unary lhs, which
        # is a redex, so that the table both drops and passes terms
        trs = random_system(random.Random(seed))
        assume(trs is not None)
        unary = [s for s in trs.symbols if s.arity == 1]
        assume(unary)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        symbols, names = list(trs.symbols), list(trs.variables)
        lhss = [r.lhs for r in trs.rules if r.lhs.sym.arity == 1]
        if from_lhs and lhss:
            lhs = data.draw(st.sampled_from(lhss))
            sym, (u,) = lhs.sym, substitute(lhs, {
                v: random_term(rng, symbols, names, 2)
                for v in sorted(variables_of(lhs))}).args
        else:
            sym = data.draw(st.sampled_from(unary))
            u = random_term(rng, symbols, names, 3)
        assume(u.__class__ is App)
        roots = trs.unary_argument_roots.get(sym.name, frozenset())
        if roots is not None and u.sym.name not in roots:
            assert not is_root_redex(trs, sym, (u,))

    def test_unary_argument_roots(self):
        trs = parse_trs("sig: f/1 g/1 h/1 k/2 a/0 b/0\nvars: x y\nrules:\n"
                        "  f(g(x)) -> a\n  f(x) -> h(x)\n  g(h(a)) -> b\n"
                        "  g(k(x, y)) -> x\n  k(x, a) -> b\n")
        assert trs.unary_argument_roots == {"f": None,
                                            "g": frozenset({"h", "k"})}
        terms = [u for u in enumerate_terms(trs.symbols, trs.variables, 3)
                 if u.__class__ is App]
        # a rule with a variable argument: no f-term is dropped, and each
        # is a redex
        assert all(is_root_redex(trs, trs.symbol("f"), (u,)) for u in terms)
        # no rule for h: every h-term is dropped, and none is a redex
        assert "h" not in trs.unary_argument_roots
        assert not any(is_root_redex(trs, trs.symbol("h"), (u,))
                       for u in terms)
        # g drops a term under any other root; under h or k some match
        g = trs.symbol("g")
        assert not any(is_root_redex(trs, g, (u,)) for u in terms
                       if u.sym.name not in ("h", "k"))
        assert is_root_redex(trs, g, (t("h(a)", trs),))
        assert not is_root_redex(trs, g, (t("h(b)", trs),))

    def test_a_variable_is_no_redex(self):
        # the rule f(x, y) -> g(y) fires on every f-term, but a variable
        # has no root symbol
        trs = parse_trs(MIXED_ARGUMENTS)
        u = t("f(a, b)", trs)
        assert is_root_redex(trs, u.sym, u.args)
        assert is_eps_irreducible(trs, t("f(x, y)", trs))


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
        match, offered = rewriting.match_many, []

        def counting(pairs):
            pairs = list(pairs)
            offered.append(1 + sum(term_size(p) for p, _ in pairs))
            return match(pairs)
        monkeypatch.setattr(rewriting, "match_many", counting)
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

        def counting(trs, sym, args):
            tries.append((sym, args))
            return root_step(trs, sym, args)
        monkeypatch.setattr(rewriting, "_root_step", counting)
        result, trace = normalize(trs, start)
        assert len(trace) == n
        assert render_term(result) == "g(" * n + "a" + ")" * n
        assert len(tries) <= 3 * n

    def test_the_trace_builds_one_node_per_position_index(self,
                                                         monkeypatch):
        # f^n(a) under f(x) -> g(x) steps at depths n - 1, ..., 0. The walk
        # builds each step's g node and, above the bottom, rebuilds the f
        # over the rewritten argument: 2n - 1 nodes. The trace rebuilds
        # the path to each step's position, one node per index of it
        trs = parse_trs("sig: a/0 f/1 g/1\nvars: x\nrules:\n  f(x) -> g(x)\n")
        a, f = trs.symbol("a"), trs.symbol("f")
        n = 400
        start = App(a)
        for _ in range(n):
            start = App(f, (start,))
        init, built = App.__init__, []

        def counting(self, *args):
            built.append(self)
            init(self, *args)
        monkeypatch.setattr(App, "__init__", counting)
        result, trace = normalize(trs, start)
        monkeypatch.undo()
        assert len(trace) == n
        walk = n + (n - 1)
        assert len(built) == walk + sum(len(s.position) for s in trace)
        assert result == trace[-1].target


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
        init, built = App.__init__, []

        def counting(self, *args):
            built.append(self)
            init(self, *args)
        monkeypatch.setattr(App, "__init__", counting)
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
        e = raised[0]
        steps = list(e.trace)
        assert all(x is y for x, y in zip(steps, e.trace, strict=True))
        assert replay(trs, start, e.trace) == stuck

    def test_running_out_of_fuel_builds_no_term_at_the_raise(self,
                                                             monkeypatch):
        # a -> b and b -> a have ground right sides, so the ten steps at
        # the bottom of g^2000(a) build no App: any App built is built
        # at the raise
        trs = parse_trs("sig: a/0 b/0 g/1\nrules:\n  a -> b\n  b -> a\n")
        g, start = trs.symbol("g"), App(trs.symbol("a"))
        for _ in range(2000):
            start = App(g, (start,))
        init, built = App.__init__, []

        def counting(self, *args):
            built.append(self)
            init(self, *args)
        monkeypatch.setattr(App, "__init__", counting)
        raised = []
        for normalizer in (lambda u: nf(trs, u, 10), NormalForms(trs, 10)):
            with pytest.raises(FuelExhausted) as exc:
                normalizer(start)
            raised.append(exc.value)
        assert built == []
        monkeypatch.undo()
        for e in raised:
            assert len(e.trace) == 10
            assert str(e) == "fuel exhausted after 10 steps"
            with pytest.raises(TypeError):
                hash(e.trace)

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


def post_order(t):
    """Every position of `t` with its subterm, each after its arguments,
    left to right."""
    stack = [((), t, False)]
    while stack:
        p, u, done = stack.pop()
        if done or u.__class__ is Var:
            yield p, u
            continue
        stack.append((p, u, True))
        for i in range(len(u.args), 0, -1):
            stack.append((p + (i,), u.args[i - 1], False))


def innermost_oracle(trs, t, fuel):
    """Leftmost-innermost normalization from the definition: rewrite at the
    first position in post-order where a rule applies, by the first rule
    in file order that matches there."""
    trace = []
    while True:
        hit = next(((rule, p) for p, u in post_order(t) for rule in trs.rules
                    if match_term(rule.lhs, u) is not None), None)
        if hit is None:
            return t, trace
        if len(trace) >= fuel:
            raise FuelExhausted(trace, False)
        rule, p = hit
        target, _ = apply_rule(rule, t, p)
        trace.append(RewriteStep(rule.label, p, t, target))
        t = target
        if term_size(t) > MAX_TERM_NODES:
            raise FuelExhausted(trace, True)


def normalize_outermost(trs, t, fuel=DEFAULT_FUEL):
    """Leftmost-outermost normal form: rewrite at the first position in
    pre-order where a rule applies. Cross-checks strategy independence on
    convergent systems."""
    for steps in itertools.count():
        hit = first_redex(trs, t, [p for p, _ in subterms(t)])
        if hit is None:
            return t
        if steps >= fuel:
            raise FuelExhausted([], False)
        t = hit[2]
        if term_size(t) > MAX_TERM_NODES:
            raise FuelExhausted([], True)


def raised(e):
    """All a FuelExhausted tells."""
    return "fuel", len(e.trace), e.trace, str(e), e.outgrew


def outcome(normalizer, trs, u, fuel):
    try:
        return normalizer(trs, u, fuel)
    except FuelExhausted as e:
        return raised(e)


def full_tree(depth):
    """The source of the complete binary d-tree over a of `depth` levels."""
    return "a" if depth == 1 else f"d({full_tree(depth - 1)},{full_tree(depth - 1)})"


# redexes below the root of a right side, and rules that never stop, so
# that re-entering a rewritten subterm, running out of fuel and the loop
# cut all show. The loops: a cycle at one position; a pump of period 2; a
# period-2 pump whose second step adds 1024 nodes, so that the size bound
# is crossed within fuel 50 at the second step of a period from q(q(a))
# and at the first from p(q(a)). a -> f(a) repeats its redex one level
# down at every step
ORACLE_EXTRA = {
    "inner_redex_rhs": "sig: f/1 g/2 h/1 a/0 b/0\nvars: x\nrules:\n"
                       "  f(x) -> g(h(x),a)\n  a -> b\n  h(x) -> x\n",
    "growing": "sig: a/0 f/1\nrules:\n  a -> f(a)\n",
    "cycle": "sig: a/0 b/0 g/1\nrules:\n  a -> b\n  b -> a\n",
    "pump": "sig: a/0 b/0 f/1 g/1\nrules:\n  a -> f(b)\n  b -> g(a)\n",
    "large_rhs_pump": "sig: a/0 d/2 p/1 q/1\nrules:\n"
                      "  q(q(a)) -> p(q(a))\n"
                      f"  p(q(a)) -> d({full_tree(10)},q(q(a)))\n",
}


class TestInnermostOracle:
    def test_normalize_agrees_with_the_definition(self):
        cases = 0
        for name, src in {**LM_SOURCES, **FC_SOURCES, **ORACLE_EXTRA}.items():
            trs = parse_trs(src)
            for u in enumerate_terms(trs.symbols,
                                     enumeration_variables(trs), 3):
                for fuel in (0, 3, 50):
                    cases += 1
                    assert (outcome(normalize, trs, u, fuel)
                            == outcome(innermost_oracle, trs, u, fuel)), \
                        (name, render_term(u), fuel)
        assert cases > 6000


class TestLoopCut:
    """`normalize` stops at a repeated redex and predicts the raise of the
    walk without the check."""

    @staticmethod
    def counted(monkeypatch, name):
        """The arguments of each call of `rewriting.<name>` from now on."""
        calls, original = [], getattr(rewriting, name)

        def counting(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(rewriting, name, counting)
        return calls

    def test_a_loop_stops_at_its_first_repeat(self, monkeypatch):
        # a -> f(a) meets a again one level down at every step; the
        # walk without the check tries the root about 5,000 times
        trs = parse_trs(ORACLE_EXTRA["growing"])
        tries = self.counted(monkeypatch, "_root_step")
        with pytest.raises(FuelExhausted) as exc:
            normalize(trs, t("a", trs))
        e = exc.value
        assert len(tries) <= 5
        assert str(e) == f"term outgrew {MAX_TERM_NODES} nodes after 5000 steps"
        assert e.outgrew and len(e.trace) == 5000

    def test_random_systems_agree_with_the_definition(self, monkeypatch):
        cuts = self.counted(monkeypatch, "_loop_stop")
        raises = 0
        for seed in range(20):
            trs = random_system(random.Random(seed))
            if trs is None:
                continue
            starts = [side for r in trs.rules for side in (r.lhs, r.rhs)]
            starts += enumerate_terms(trs.symbols, enumeration_variables(trs), 2)
            for u in starts:
                for fuel in (0, 1, 2, 3, 7, 50):
                    got = outcome(normalize, trs, u, fuel)
                    assert got == outcome(innermost_oracle, trs, u, fuel), \
                        (seed, render_term(u), fuel)
                    raises += got[0] == "fuel"
        assert len(cuts) > 500 and raises > len(cuts)

    def test_an_equal_redex_beside_the_mark_is_no_loop(self):
        # the walk finishes b at [1] before it meets a again at [2]
        trs = parse_trs("sig: a/0 b/0 h/2\nrules:\n  a -> b\n")
        assert nf(trs, t("h(a, h(a, a))", trs), 50) == t("h(b, h(b, b))", trs)

    def test_a_loop_entered_after_leaving_the_mark(self, monkeypatch):
        # a -> f(b, a), b -> c: from step 1 on, the marks at steps 2^k - 1
        # all fall on b, whose subterm the walk leaves once it is c; the
        # mark moves on to the next a, and the a below it ends the walk
        trs = parse_trs("sig: a/0 b/0 c/0 f/2\nrules:\n"
                        "  a -> f(b, a)\n  b -> c\n")
        cuts = self.counted(monkeypatch, "_loop_stop")
        tries = self.counted(monkeypatch, "_root_step")
        with pytest.raises(FuelExhausted):
            normalize(trs, t("a", trs), 200)
        assert len(cuts) == 1 and len(tries) < 20
        got = outcome(normalize, trs, t("a", trs), 200)
        assert got == outcome(innermost_oracle, trs, t("a", trs), 200)
        assert got[3] == "fuel exhausted after 200 steps"

    def test_a_wrong_prediction_is_an_internal_error(self, monkeypatch):
        trs = parse_trs(ORACLE_EXTRA["pump"])
        monkeypatch.setattr(rewriting, "_loop_stop", lambda *_: (49, False))
        with pytest.raises(FuelExhausted) as exc:
            normalize(trs, t("a", trs), 50)
        assert str(exc.value) == "fuel exhausted after 49 steps"
        with pytest.raises(RuntimeError, match="predicted a stop after 49 steps"):
            list(exc.value.trace)


# a right side that doubles its argument: outgrows MAX_TERM_NODES within
# fuel 50, runs out of fuel 3 first
DOUBLING = "sig: a/0 f/2 g/1\nvars: x\nrules:\n  g(x) -> g(f(x,x))\n"


def walked(monkeypatch):
    """Each query from now on that had an argument the memo never
    answered, so had its subterms answered first (`_bottom_up`)."""
    calls, bottom_up = [], NormalForms._bottom_up

    def counting(self, u):
        calls.append(u)
        return bottom_up(self, u)
    monkeypatch.setattr(NormalForms, "_bottom_up", counting)
    return calls


class TestNormalFormsCache:
    def test_cache_agrees_with_normalize(self, monkeypatch):
        cases = outgrown = 0
        # the forward sweeps' queries answered in one level, no subterm first:
        # by how they end and whether the shared check crossed a bound
        one_level = collections.Counter()
        outgrown_in_one_level = set()
        walks, crossed, spend = walked(monkeypatch), [], NormalForms._spend

        def spending(self, *args):
            out = spend(self, *args)
            crossed.append(out is None)
            return out
        monkeypatch.setattr(NormalForms, "_spend", spending)
        systems = {**LM_SOURCES, **FC_SOURCES, **ORACLE_EXTRA,
                   "doubling": DOUBLING}
        for name, src in systems.items():
            trs = parse_trs(src)
            terms = list(enumerate_terms(trs.symbols,
                                         enumeration_variables(trs), 3))
            for fuel in (0, 3, 50):
                # one cache per system and fuel; the reverse sweep meets
                # hits before misses and before failures
                cached = NormalForms(trs, fuel)
                for i, u in enumerate(terms + terms[::-1]):
                    cases += 1
                    expected = outcome(normalize, trs, u, fuel)
                    where = (name, render_term(u), fuel)
                    fresh = (i < len(terms) and u.__class__ is App
                             and u not in cached.memo)
                    walks.clear()
                    crossed.clear()
                    if expected[0] != "fuel":
                        assert cached(u) == expected[0], where
                        end = "normal"
                    else:
                        with pytest.raises(FuelExhausted) as exc:
                            cached(u)
                        e = exc.value
                        assert raised(e) == expected, where
                        with pytest.raises(FuelExhausted) as ref:
                            normalize(trs, u, fuel)
                        assert str(e) == str(ref.value), where
                        outgrown += e.outgrew
                        end = "outgrew" if e.outgrew else "fuel"
                    if fresh and not walks:
                        one_level[end, any(crossed)] += 1
                        if end == "outgrew":
                            outgrown_in_one_level.add(name)
        assert cases > 12000
        assert outgrown > 0
        # fuel 0 or 3 runs out after a one-level hand-over, and fuel 3
        # inside an argument the shared check adds
        assert one_level["normal", False] > 5000
        assert one_level["fuel", False] > 0 and one_level["fuel", True] > 0
        assert outgrown_in_one_level >= {"large_rhs_pump", "doubling"}

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
        assert raised(e) == expected
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

    def test_the_size_bound_crossed_only_in_context(self, monkeypatch):
        # dup(s^1999(0)) peaks at 4001 nodes alone, then shrinks back; with
        # 1500 more nodes beside it, the whole term goes over at that peak.
        # Answering dup(s^1999(0)) answered s^1499(0), so the whole term
        # is decided in one level
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
        walks = walked(monkeypatch)
        for args in ((arg, beside), (beside, arg)):
            whole = App(trs.symbol("h"), args)
            assert 4001 + term_size(beside) + 1 > MAX_TERM_NODES
            e = self.same_outcome(cached, trs, whole, DEFAULT_FUEL)
            assert str(e) == f"term outgrew {MAX_TERM_NODES} nodes after 1 steps"
        assert walks == []

    @pytest.mark.parametrize("fuel, message", [
        (0, "fuel exhausted after 0 steps"),
        (1, f"term outgrew {MAX_TERM_NODES} nodes after 1 steps")])
    def test_a_start_term_over_the_size_bound(self, fuel, message):
        # g^5000(a) is over MAX_TERM_NODES before any step: with no fuel
        # the fuel stops it, and its first step, which keeps the size,
        # crosses the size bound
        trs = parse_trs("sig: a/0 b/0 g/1\nrules:\n  a -> b\n")
        g, start, stuck = trs.symbol("g"), t("a", trs), t("b", trs)
        for _ in range(MAX_TERM_NODES):
            start, stuck = App(g, (start,)), App(g, (stuck,))
        assert term_size(start) > MAX_TERM_NODES
        e = self.same_outcome(NormalForms(trs, fuel), trs, start, fuel)
        assert str(e) == message
        assert replay(trs, start, e.trace) == (stuck if fuel else start)

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
            # a is known, g(c) is not: c is answered alone, at the full
            # fuel, and h(b,g(c)) is never handed over
            self.same_outcome(cached, trs, t("h(a,g(c))", trs), fuel)
            if fuel:
                assert handed[0] == ("c", fuel)
            assert "h(b,g(c))" not in {u for u, _ in handed}

    def test_an_exhausted_query_runs_normalize_on_a_then_on_itself(
            self, monkeypatch):
        # a, below the root of each query, is answered alone first and
        # gets stuck, so the query is handed over whole
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
            assert calls == [t("a", trs), t(query, trs)], query
            assert sum(steps) <= 2 * fuel, query
            assert len(exc.value.trace) == fuel
            # reading the trace runs no more `normalize`
            assert exc.value.trace[0].source == t(query, trs)
            assert len(calls) == 2

    def test_reading_the_trace_runs_one_unchecked_walk(self, monkeypatch):
        # a -> f(a) is cut once when a is answered alone, and once more
        # when the query is handed over whole: the trace of the query
        # comes from one walk of it without the loop check
        trs = parse_trs("sig: a/0 b/0 c/0 f/1 g/2\n"
                        "rules:\n  a -> f(a)\n  c -> b\n")
        query = t("g(c,a)", trs)
        cached = NormalForms(trs, 200)
        cached(t("c", trs))
        cuts = TestLoopCut.counted(monkeypatch, "_loop_stop")
        with pytest.raises(FuelExhausted) as exc:
            cached(query)
        assert len(cuts) == 2
        walks = TestLoopCut.counted(monkeypatch, "_walk")
        handed = self.hand_overs(monkeypatch)
        trace = exc.value.trace
        assert len(trace) == 200 and trace[0].source == query
        assert walks == [(trs, query, 200, False)] and handed == []

    @staticmethod
    def deep_query(trs, shape, n):
        """h(g^n(a), a) for the chain, h(a, h(a, ... h(a, a))) with n
        h's for the comb."""
        a, g, h = App(trs.symbol("a")), trs.symbol("g"), trs.symbol("h")
        u = a
        for _ in range(n):
            u = App(g, (u,)) if shape == "chain" else App(h, (a, u))
        return App(h, (u, a)) if shape == "chain" else u

    @pytest.mark.parametrize("shape", ["chain", "comb"])
    def test_a_fresh_query_past_the_recursion_limit(self, monkeypatch,
                                                     shape):
        # its subterms are answered by one loop, each in one level; the
        # comb has more than MAX_TERM_NODES nodes, so its first step
        # crosses the size bound
        trs = parse_trs("sig: a/0 b/0 g/1 h/2\nrules:\n  a -> b\n")
        query = self.deep_query(trs, shape, 3 * sys.getrecursionlimit())
        walks = walked(monkeypatch)
        e = self.same_outcome(NormalForms(trs), trs, query, DEFAULT_FUEL)
        assert (e is None) == (shape == "chain")
        assert walks == [query]

    def test_a_fresh_query_stuck_past_the_recursion_limit(self,
                                                          monkeypatch):
        # a gets stuck alone, so the query is handed over whole and
        # raises its own FuelExhausted
        trs = parse_trs("sig: a/0 f/1 g/1 h/2\nrules:\n  a -> f(a)\n")
        query = self.deep_query(trs, "chain", 3 * sys.getrecursionlimit())
        handed = self.hand_overs(monkeypatch)
        e = self.same_outcome(NormalForms(trs, 50), trs, query, 50)
        assert str(e) == "fuel exhausted after 50 steps"
        assert handed == [(t("a", trs), 50), (query, 50)]

    def test_a_fresh_chain_over_a_known_one_is_kept_as_it_is(self,
                                                             monkeypatch):
        # s^10(0) is known from terms built apart from the query's: the
        # levels above it took no step, so each is kept as its own normal
        # form and is never compared node by node with an equal copy
        trs = parse_trs("sig: 0/0 s/1 g/1\n")

        def chain(n):
            u = App(trs.symbol("0"))
            for _ in range(n):
                u = App(trs.symbol("s"), (u,))
            return u
        cached = NormalForms(trs)
        cached(chain(10))
        query = App(trs.symbol("g"), (chain(3 * sys.getrecursionlimit()),))
        compared, eq = [], App.__eq__

        def counting(self, other):
            compared.append(self)
            return eq(self, other)
        monkeypatch.setattr(App, "__eq__", counting)
        assert cached(query) is query
        assert len(compared) <= 2

    def test_a_repeated_fresh_subterm_is_handed_over_once(self, monkeypatch):
        trs = parse_trs("sig: c/0 d/0 g/1 h/2\nrules:\n  c -> d\n")
        handed = self.hand_overs(monkeypatch)
        self.same_outcome(NormalForms(trs), trs, t("h(g(c),g(c))", trs),
                          DEFAULT_FUEL)
        assert handed == [(t("c", trs), DEFAULT_FUEL)]

    # g(a) runs out of fuel 3 and outgrows MAX_TERM_NODES within fuel 50,
    # uncut; the pump is cut. A query hands each start over before any step
    @pytest.mark.parametrize("src, start, fuel, cut", [
        (DOUBLING, "g(a)", 3, False),
        (DOUBLING, "g(a)", 50, False),
        (ORACLE_EXTRA["pump"], "a", 50, True)], ids=["fuel", "outgrew", "cut"])
    @pytest.mark.parametrize("cached", [False, True],
                             ids=["normalize", "NormalForms"])
    def test_every_raise_reads_its_trace_from_one_unchecked_walk(
            self, monkeypatch, src, start, fuel, cut, cached):
        trs = parse_trs(src)
        query = t(start, trs)
        normalizer = (NormalForms(trs, fuel) if cached
                      else lambda u: rewriting.normalize(trs, u, fuel))
        cuts = TestLoopCut.counted(monkeypatch, "_loop_stop")
        handed = self.hand_overs(monkeypatch)
        with pytest.raises(FuelExhausted) as exc:
            normalizer(query)
        assert len(cuts) == cut and handed == [(query, fuel)]
        walks = TestLoopCut.counted(monkeypatch, "_walk")
        handed.clear()
        with pytest.raises(FuelExhausted) as ref:
            innermost_oracle(trs, query, fuel)
        assert exc.value.trace == ref.value.trace
        assert walks == [(trs, query, fuel, False)] and handed == []

    @staticmethod
    def hand_overs(monkeypatch):
        """The (term, fuel) of each `normalize` call from now on."""
        handed = []
        original = rewriting.normalize

        def counting(trs, u, fuel=DEFAULT_FUEL):
            handed.append((u, fuel))
            return original(trs, u, fuel)
        monkeypatch.setattr(rewriting, "normalize", counting)
        return handed

    # f(a,b) is handed over as f(b,b) after one step, and f(c,c) rebuilds
    # f(b,b) at its root after four; f(b,b) itself takes two more
    REBUILT = ("sig: a/0 b/0 c/0 d/0 f/2 g/1\nvars: x\nrules:\n"
               "  a -> b\n  c -> a\n  f(x,x) -> g(x)\n  g(b) -> d\n")

    def test_a_rebuilt_hand_over_is_not_handed_over_again(self,
                                                          monkeypatch):
        trs = parse_trs(self.REBUILT)
        handed = self.hand_overs(monkeypatch)
        cached = NormalForms(trs)
        for known in ("a", "c", "f(a,b)"):
            cached(t(known, trs))
        assert handed[-1] == (t("f(b,b)", trs), DEFAULT_FUEL - 1)
        assert cached.cost[t("f(b,b)", trs)] == (2, 2)
        handed.clear()
        assert cached(t("f(c,c)", trs)) == t("d", trs)
        assert handed == []
        assert cached.cost[t("f(c,c)", trs)] == (6, 3)

    def test_fuel_runs_out_inside_a_rebuilt_hand_over(self, monkeypatch):
        trs = parse_trs(self.REBUILT)
        handed = self.hand_overs(monkeypatch)
        query = t("f(c,c)", trs)
        for fuel in range(8):
            cached = NormalForms(trs, fuel)
            for known in ("a", "c", "f(a,b)"):
                self.same_outcome(cached, trs, t(known, trs), fuel)
            handed.clear()
            e = self.same_outcome(cached, trs, query, fuel)
            assert (e is None) == (fuel >= 6)
            if 3 <= fuel:
                # f(b,b) is memoized: a hit within the fuel takes no
                # call, one past it runs the query from the start
                assert handed == ([] if e is None else [(query, fuel)])

    def test_the_size_bound_crossed_only_in_context_below_the_root(
            self, monkeypatch):
        # as above, with dup(s^1999(0)) handed over from dup(s^1999(c)) and
        # rebuilt from dup(s^1999(e)) below the root of the query
        trs = parse_trs("sig: 0/0 c/0 e/0 s/1 dup/1 p/2 h/2\nvars: x y\n"
                        "rules:\n  dup(x) -> p(x,x)\n  p(x,y) -> x\n"
                        "  c -> 0\n  e -> 0\n")
        s, dup = trs.symbol("s"), trs.symbol("dup")
        chains = {}
        for leaf in ("0", "c", "e"):
            chains[leaf] = App(trs.symbol(leaf))
            for _ in range(1999):
                chains[leaf] = App(s, (chains[leaf],))
        beside = App(trs.symbol("0"))
        for _ in range(1499):
            beside = App(s, (beside,))
        cached = NormalForms(trs)
        for leaf in ("c", "e"):
            cached(t(leaf, trs))
        assert cached(App(dup, (chains["c"],))) == chains["0"]
        assert cached.cost[App(dup, (chains["0"],))] == (2, 4001)
        handed = self.hand_overs(monkeypatch)
        for args in ((App(dup, (chains["e"],)), beside),
                     (beside, App(dup, (chains["e"],)))):
            whole = App(trs.symbol("h"), args)
            handed.clear()
            e = self.same_outcome(cached, trs, whole, DEFAULT_FUEL)
            assert str(e) == f"term outgrew {MAX_TERM_NODES} nodes after 2 steps"
            # the memo hit crosses the bound: no hand-over at dup, one
            # run of the query, and one more by the reference
            assert handed[0] == (whole, DEFAULT_FUEL)


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

    def test_a_capped_search_walks_no_term(self, monkeypatch):
        # every term the search queries is built from terms it queried
        # before, so each is decided in one level
        trs = parse_trs(LM_SOURCES["swap_args"])
        walks = walked(monkeypatch)
        res = subterm_collapse_search(trs)
        assert (res.collapsing, res.terms_checked, res.exhausted) == (
            False, 4000, False)
        assert walks == []

    def test_each_set_is_built_once(self, monkeypatch):
        # f(k(a,a)) is the first term the search tests, so the set of
        # its argument k(a,a) lacks the set of a twice
        trs = parse_trs("sig: a/0 g/1 k/2 f/1\nvars: x y\nrules:\n"
                        "  f(k(x,y)) -> g(y)\n")
        queries, query = collections.Counter(), NormalForms.__call__

        def counting(self, u):
            queries[u] += 1
            return query(self, u)
        monkeypatch.setattr(NormalForms, "__call__", counting)
        res = subterm_collapse_search(trs, 3)
        assert (res.collapsing, res.exhausted) == (False, True)
        # once as enumerated, once for its set
        assert queries[t("a", trs)] == 2
        assert max(queries.values()) == 2

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
    vars_ = enumeration_variables(trs)
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
        return "fuel", len(e.trace), str(e)
    return r.witness, r.max_depth, r.terms_checked, r.exhausted


class TestStrategyIndependence:
    def test_innermost_matches_outermost_on_convergent_system(self, sys3):
        vars_ = enumeration_variables(sys3)
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
            vars_ = enumeration_variables(trs)
            count = 0
            for u in enumerate_terms(trs.symbols, vars_, 4):
                count += 1
                if count > 250:
                    break
                assert nf(trs, u) == normalize_outermost(trs, u), (name, u)
