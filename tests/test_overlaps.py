"""Critical pairs, superpositions, rhs closure, paramodulation."""

import functools
import itertools

from hypothesis import given, strategies as st

from lmtk.overlaps import (
    critical_pairs,
    nosup,
    overlap_sites,
    paramodulation_candidates,
    rhs_closure,
    rhs_critical_pairs,
)
from lmtk.rewriting import apply_rule
from lmtk import overlaps
from lmtk.terms import (
    ROOT,
    App,
    Symbol,
    Var,
    flatterm,
    mgu,
    rename_pair_apart,
    render_term,
    substitute,
    subterm_at,
    subterms,
    variables_in_order,
    variables_of,
)
from lmtk.trs_format import parse_trs

from conftest import (
    DUPLICATING,
    FRESH_NAME_CLASH,
    TINY_MACHINE,
    UNARY_CHAIN,
    canonical_term_pair,
    overlap_systems,
)
from lmtk.minsky import encode

NESTED = """
sig: f/1 g/1 a/0 b/0 c/0
vars: x
rules:
  f(g(x)) -> a
  g(b) -> c
"""


def every_site(host, avoid, rules, trivial=None):
    """`overlap_sites` without its root-symbol filter: every rule renamed
    apart and paired with every non-variable site of `host`."""
    sites = [(p, sub) for p, sub in subterms(host) if isinstance(sub, App)]
    for rule in rules:
        lhs, rhs = rename_pair_apart(rule.lhs, rule.rhs, avoid)
        for p, sub in sites:
            if not (p == ROOT and rule.label == trivial):
                yield rule, lhs, rhs, p, sub


def overlap_hosts(trs):
    """The (host, avoid, trivial) arguments the overlap constructions pass:
    each rule's lhs with and without its trivial root site, and its rhs."""
    for rule in trs.rules:
        avoid = rule.variables()
        yield rule.lhs, avoid, rule.label
        yield rule.lhs, avoid, None
        yield rule.rhs, avoid, None


def two_walk_canonical_pair(a, b):
    """The canonical renaming as first written, kept as the oracle: the
    variables of both sides in order, then a substitution."""
    renaming = {}
    for name in variables_in_order(a) + variables_in_order(b):
        if name not in renaming:
            renaming[name] = Var(f"v{len(renaming) + 1}")
    return substitute(a, renaming), substitute(b, renaming)


F, G = Symbol("f", 2), Symbol("g", 1)
A, V1_CONSTANT = App(Symbol("a", 0)), App(Symbol("v1", 0))

# term pairs over f/2, g/1, the constants a and v1, and variables of which
# two are named like canonical ones
pair_terms = st.recursive(
    st.sampled_from([A, V1_CONSTANT, Var("x"), Var("y"), Var("v1"),
                     Var("v2")]),
    lambda sub: st.one_of(
        st.builds(lambda t: App(G, (t,)), sub),
        st.builds(lambda s, t: App(F, (s, t)), sub, sub),
    ),
    max_leaves=10,
)


class TestCanonicalTermPair:
    @given(pair_terms, pair_terms)
    def test_agrees_with_the_two_walk_renaming(self, a, b):
        assert canonical_term_pair(a, b) == two_walk_canonical_pair(a, b)

    def test_a_constant_named_v1_stays_a_constant(self):
        x = Var("x")
        key = canonical_term_pair(App(F, (x, V1_CONSTANT)), x)
        assert key == (App(F, (Var("v1"), V1_CONSTANT)), Var("v1"))
        assert key != canonical_term_pair(App(F, (x, x)), x)

    def test_a_variable_only_in_the_rhs_is_numbered_after_the_lhs(self):
        x, y, z = Var("x"), Var("y"), Var("z")
        key = canonical_term_pair(App(G, (y,)), App(F, (z, App(F, (y, x)))))
        assert key == two_walk_canonical_pair(App(G, (y,)),
                                              App(F, (z, App(F, (y, x)))))
        assert key == (App(G, (Var("v1"),)),
                       App(F, (Var("v2"), App(F, (Var("v1"), Var("v3"))))))

    def test_a_ground_pair_comes_back_as_itself(self):
        a, b = App(F, (A, App(G, (V1_CONSTANT,)))), App(G, (A,))
        key = canonical_term_pair(a, b)
        assert key[0] is a and key[1] is b


# swaps x and y, and v1 and v2: a renaming of every variable pair_terms uses
SWAP = {"x": Var("y"), "y": Var("x"), "v1": Var("v2"), "v2": Var("v1")}


class TestFlatterm:
    @given(st.lists(st.tuples(pair_terms, pair_terms), min_size=1,
                    max_size=4))
    def test_equal_exactly_when_the_canonical_pairs_are(self, pairs):
        # each pair next to a renamed copy, so some keys are shared
        pairs += [(substitute(a, SWAP), substitute(b, SWAP)) for a, b in pairs]
        for (a, b), (c, d) in itertools.product(pairs, repeat=2):
            assert (flatterm((a, b)) == flatterm((c, d))) == (
                canonical_term_pair(a, b) == canonical_term_pair(c, d))

    def test_symbols_by_name_and_variables_by_first_occurrence(self):
        x, y = Var("x"), Var("y")
        assert flatterm((App(F, (y, V1_CONSTANT)), App(G, (App(F, (x, y)),)))
                        ) == ("f", 0, "v1", "g", "f", 1, 0)

    def test_a_bound_variable_is_read_through_its_binding(self):
        x, y = Var("x"), Var("y")
        sigma = {"x": App(G, (y,))}
        assert flatterm((App(F, (x, y)), "h", x), sigma) == flatterm(
            (App(F, (App(G, (y,)), y)), "h", App(G, (y,))))
        assert flatterm((App(F, (x, y)),), sigma) == ("f", "g", 0, 0)


class TestOverlapSites:
    def test_unifiable_sites_are_those_of_every_site(self):
        kept = dropped = 0
        for trs in overlap_systems():
            for host, avoid, trivial in overlap_hosts(trs):
                sites = list(overlap_sites(host, avoid, trs.rules, trivial))
                oracle = list(every_site(host, avoid, trs.rules, trivial))
                assert [s for s in sites if mgu(s[4], s[1]) is not None] == \
                    [s for s in oracle if mgu(s[4], s[1]) is not None]
                # a site is paired only with rules of its root symbol
                assert all(sub.sym == lhs.sym
                           for _, lhs, _, _, sub in sites)
                kept += len(sites)
                dropped += len(oracle) - len(sites)
        assert kept > 1000 and dropped > kept

    def test_no_rule_is_renamed_for_a_host_without_its_root(self,
                                                             monkeypatch):
        renamed = []

        def spy(lhs, rhs, avoid):
            renamed.append(lhs)
            return rename_pair_apart(lhs, rhs, avoid)

        monkeypatch.setattr(overlaps, "rename_pair_apart", spy)
        skipped = 0
        for trs in overlap_systems():
            for host, avoid, trivial in overlap_hosts(trs):
                roots = {sub.sym for _, sub in subterms(host)
                         if isinstance(sub, App)}
                renamed.clear()
                list(overlap_sites(host, avoid, trs.rules, trivial))
                assert all(lhs.sym in roots for lhs in renamed)
                skipped += len(trs.rules) - len(renamed)
        assert skipped > 1000


class TestFreshNames:
    def test_no_renamed_variable_is_named_like_a_symbol(self):
        trs = parse_trs(FRESH_NAME_CLASH)
        pairs = ([(cp.left, cp.right) for cp in critical_pairs(trs)]
                 + [(eq.lhs, eq.rhs) for eq in rhs_critical_pairs(trs)]
                 + [(c.conclusion.lhs, c.conclusion.rhs)
                    for c in paramodulation_candidates(trs)])
        assert len(pairs) == 26
        symbols = {s.name for s in trs.symbols}
        for pair in pairs:
            assert not (variables_of(pair[0]) | variables_of(pair[1])) \
                & symbols, pair


class TestCriticalPairs:
    def test_encoded_machine_has_none(self):
        theory = encode(TINY_MACHINE, 0, 0).theory
        assert critical_pairs(theory) == []

    def test_proper_overlap(self):
        trs = parse_trs(NESTED)
        cps = critical_pairs(trs)
        assert len(cps) == 1
        cp = cps[0]
        assert (render_term(cp.left), render_term(cp.right)) == ("f(c)", "a")
        assert cp.position == (1,)

    def test_empty_system(self):
        trs = parse_trs("sig: a/0\nrules:\n")
        assert critical_pairs(trs) == []

    def test_root_overlap_between_distinct_rules(self):
        trs = parse_trs("sig: a/0 b/0 c/0\nrules:\n  a -> b\n  a -> c\n")
        cps = critical_pairs(trs)
        rendered = {(render_term(c.left), render_term(c.right)) for c in cps}
        assert rendered == {("b", "a"), ("c", "a")} or \
            rendered == {("c", "b"), ("b", "c")}

    def test_soundness_both_sides_one_step(self):
        trs = parse_trs(NESTED)
        for cp in critical_pairs(trs):
            outer = trs.rule(cp.outer)
            inner = trs.rule(cp.inner)
            inner_lhs, _ = rename_pair_apart(inner.lhs, inner.rhs,
                                             outer.variables())
            from lmtk.terms import mgu
            sigma = mgu(subterm_at(outer.lhs, cp.position), inner_lhs)
            peak = substitute(outer.lhs, sigma)
            one = apply_rule(trs.rule(cp.inner), peak, cp.position)
            other = apply_rule(outer, peak, ())
            assert one is not None and one[0] == cp.left
            assert other is not None and other[0] == cp.right


class TestNosup:
    def test_nested_overlap(self):
        trs = parse_trs(NESTED)
        assert [render_term(u) for u in nosup(trs)] == ["f(g(b))"]

    def test_no_proper_positions(self):
        trs = parse_trs("sig: a/0 b/0\nrules:\n  a -> b\n")
        assert nosup(trs) == []

    def test_lm_system_empty(self):
        trs = parse_trs(UNARY_CHAIN)
        assert nosup(trs) == []

    def test_first_peak_per_renaming_is_kept(self):
        # g(y) and g(z) overlap f(g(x)) at 1 in rule order; their peaks
        # differ only by the name of the variable
        trs = parse_trs("sig: f/1 g/1 a/0 b/0 c/0\nvars: x y z\nrules:\n"
                        "  f(g(x)) -> a\n  g(y) -> b\n  g(z) -> c\n")
        assert [render_term(u) for u in nosup(trs)] == ["f(g(y))"]

    def test_agrees_with_its_own_unification_loop(self):
        # nosup by its definition: unify each lhs into every proper
        # non-variable position of each lhs, keep one peak per renaming
        def oracle(trs):
            seen, out = set(), []
            for outer in trs.rules:
                for _, inner_lhs, _, p, sub in overlap_sites(
                        outer.lhs, outer.variables(), trs.rules):
                    if p == ROOT:
                        continue
                    sigma = mgu(sub, inner_lhs)
                    if sigma is None:
                        continue
                    t = substitute(outer.lhs, sigma)
                    key = canonical_term_pair(t, t)[0]
                    if key not in seen:
                        seen.add(key)
                        out.append(t)
            return out

        found = 0
        for trs in overlap_systems():
            expected = oracle(trs)
            assert nosup(trs) == expected
            found += len(expected)
        assert found > 20

    def test_peak_rewrites_to_both_sides(self):
        for trs in overlap_systems():
            for cp in critical_pairs(trs):
                inner = apply_rule(trs.rule(cp.inner), cp.peak, cp.position)
                outer = apply_rule(trs.rule(cp.outer), cp.peak, ROOT)
                assert inner is not None and inner[0] == cp.left
                assert outer is not None and outer[0] == cp.right


class TestRhsCriticalPairs:
    def test_duplicating_rule_self_pair(self):
        trs = parse_trs(DUPLICATING)
        eqs = rhs_critical_pairs(trs)
        assert [str(e) for e in eqs] == ["f(x,x) = f(x1,x1)"]

    def test_unary_chain_self_pair_collapses(self):
        # the self pairing instantiates both sides identically: no equation
        trs = parse_trs(UNARY_CHAIN)
        assert rhs_critical_pairs(trs) == []

    def test_unifiable_rhs_general_form(self):
        trs = parse_trs("""
sig: f/2 s/1
vars: x y
rules:
  f(x, s(y)) -> s(f(x, y))
  f(s(x), y) -> s(f(y, x))
""")
        eqs = rhs_critical_pairs(trs)
        assert len(eqs) == 1
        eq = eqs[0]
        # renamed-apart general form; the classic instance identifies x1, y1
        assert eq.lhs.sym.name == "f" and eq.rhs.sym.name == "f"
        assert {render_term(eq.lhs), render_term(eq.rhs)} == \
            {"f(y1,s(x1))", "f(s(x1),y1)"}

    def test_non_unifiable_rhs(self):
        trs = parse_trs("sig: a/0 b/0 c/0 d/0\nrules:\n  a -> b\n  c -> d\n")
        assert rhs_critical_pairs(trs) == []


class TestRhsClosure:
    def test_single_rule_closure_is_rule(self):
        trs = parse_trs(UNARY_CHAIN)
        eqs = rhs_closure(trs)
        assert [str(e) for e in eqs] == ["f(g(h(x))) = g(x)"]

    def test_duplicating_closure_adds_pair(self):
        trs = parse_trs(DUPLICATING)
        rendered = [str(e) for e in rhs_closure(trs)]
        assert rendered == ["f(x,x) = 0", "f(x,x) = f(x1,x1)"]

    def test_empty(self):
        trs = parse_trs("sig: a/0\nrules:\n")
        assert rhs_closure(trs) == []


class TestParamodulation:
    def test_nested_candidate(self):
        trs = parse_trs(NESTED)
        cands = paramodulation_candidates(trs)
        conclusions = {str(c.conclusion) for c in cands}
        assert "f(c) = a" in conclusions

    def test_trivial_self_inference_excluded(self):
        trs = parse_trs("sig: f/1 g/1\nvars: x\nrules:\n  f(x) -> g(x)\n")
        for cand in paramodulation_candidates(trs):
            assert not (cand.rule == cand.source and cand.side == "lhs"
                        and cand.position == ())

    def test_lm_system_has_no_candidates(self):
        trs = parse_trs(UNARY_CHAIN)
        assert paramodulation_candidates(trs) == []

    def test_unifier_keeps_the_equation_variables(self):
        # mgu(rule lhs, subterm): the rewritten equation's own variable
        # names survive, not the renamed copy's (y, not y1)
        trs = parse_trs("sig: f/1 g/2\nvars: y\nrules:\n"
                        "  g(y,y) -> f(g(y,y))\n")
        assert [str(c) for c in paramodulation_candidates(trs)] == \
            ["f(f(g(y,y))) = g(y,y)  [r1 into rhs of r1 at 1]"]


@functools.lru_cache(maxsize=1)
def certified_pools():
    """Certified corpus systems with a small enumerated term pool and
    cached normal forms."""
    from conftest import corpus_systems
    from lmtk.checker import lm_verdict
    from lmtk.rewriting import enumeration_variables, nf
    from lmtk.terms import enumerate_terms
    out = []
    for name, trs, opts in corpus_systems():
        if lm_verdict(trs, opts).verdict != "pass":
            continue
        pool = []
        for t in enumerate_terms(trs.symbols,
                                 enumeration_variables(trs), 3):
            pool.append(t)
            if len(pool) >= 150:
                break
        nfs = {t: nf(trs, t) for t in pool}
        out.append((name, trs, pool, nfs))
    return out


def root_step_targets(trs, s):
    """All one-step root rewrites of s, with the rule used."""
    from lmtk.terms import match_term, substitute
    out = []
    for rule in trs.rules:
        sigma = match_term(rule.lhs, s)
        if sigma is not None:
            out.append((rule, substitute(rule.rhs, sigma)))
    return out


class TestJoinabilityShape:
    """For certified systems, joinable innermost redex / irreducible-
    argument pairs with distinct roots join in exactly one of two ways:
    a direct root step, or one root step on each side to a common term."""

    def test_exactly_one_case_holds(self):
        from lmtk.terms import App
        from one_step import is_eps_irreducible, is_innermost_redex
        checked = 0
        seen_direct = seen_meet = False
        for name, trs, pool, nfs in certified_pools():
            redexes = [t for t in pool if isinstance(t, App)
                       and is_innermost_redex(trs, t)]
            eps_irr = [t for t in pool if isinstance(t, App)
                       and is_eps_irreducible(trs, t)]
            for s in redexes:
                for t in eps_irr:
                    if s.sym.name == t.sym.name or nfs[s] != nfs[t]:
                        continue
                    checked += 1
                    s_steps = {u for _, u in root_step_targets(trs, s)}
                    t_steps = {u for _, u in root_step_targets(trs, t)}
                    direct = t in s_steps
                    meet = bool(s_steps & t_steps)
                    assert direct != meet, f"{name}: {s} vs {t}"
                    seen_direct = seen_direct or direct
                    seen_meet = seen_meet or meet
        assert checked > 0 and seen_direct and seen_meet

    def test_unique_closure_equation_rewrites_pair(self):
        # a joinable distinct-root pair is related by exactly one closure
        # equation with that unordered root pair, applied at the root
        from one_step import is_eps_irreducible
        from lmtk.terms import App, match_term, substitute
        checked = 0
        for name, trs, pool, nfs in certified_pools():
            closure = rhs_closure(trs)
            eps_irr = [t for t in pool if isinstance(t, App)
                       and is_eps_irreducible(trs, t)]
            for s in eps_irr:
                for t in eps_irr:
                    if s.sym.name == t.sym.name or nfs[s] != nfs[t]:
                        continue
                    checked += 1
                    hits = set()
                    for eq in closure:
                        if eq.unordered_root_pair() != \
                                frozenset((s.sym.name, t.sym.name)):
                            continue
                        for lhs, rhs in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                            sigma = match_term(lhs, s)
                            if sigma is not None and \
                                    substitute(rhs, sigma) == t:
                                hits.add((str(eq), str(lhs)))
                    assert len(hits) == 1, f"{name}: {s} vs {t}: {hits}"
        assert checked > 0


class TestRootPairMembership:
    def test_normalizing_across_roots_needs_a_root_pair(self):
        # a term whose normal form has a different root symbol certifies
        # that the two roots form a rule's root pair
        from lmtk.terms import App
        for name, trs, pool, nfs in certified_pools():
            pairs = {(r.lhs.sym.name, r.rhs.sym.name) for r in trs.rules
                     if isinstance(r.rhs, App)}
            for t in pool:
                target = nfs[t]
                if not (isinstance(t, App) and isinstance(target, App)):
                    continue
                if t.sym.name != target.sym.name:
                    assert (t.sym.name, target.sym.name) in pairs, \
                        f"{name}: {t} -> {target}"
