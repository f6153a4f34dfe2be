"""Terms, positions, matching, unification, renaming."""

import dataclasses
import itertools
import sys

import pytest
from hypothesis import given, strategies as st

from lmtk.rewriting import Rule
from lmtk.terms import (
    App,
    InvalidPositionError,
    ROOT,
    Symbol,
    Var,
    enumerate_terms,
    is_ground,
    match_term,
    mgu,
    rename_pair_apart,
    render_position,
    render_term,
    replace_at,
    substitute,
    subterm_at,
    subterms,
    term_size,
    variables_in_order,
    variables_of,
)

F = Symbol("f", 2)
G = Symbol("g", 1)
I = Symbol("i", 1)
A = Symbol("a", 0)
B = Symbol("b", 0)

x, y, z = Var("x"), Var("y"), Var("z")
a, b = App(A), App(B)


def f(s, t):
    return App(F, (s, t))


def g(t):
    return App(G, (t,))


def i(t):
    return App(I, (t,))


# hypothesis strategy: terms over {f/2, g/1, a, b} and variables {x, y, z}
terms = st.recursive(
    st.sampled_from([a, b, x, y, z]),
    lambda sub: st.one_of(
        st.builds(lambda t: g(t), sub),
        st.builds(lambda s, t: f(s, t), sub, sub),
    ),
    max_leaves=12,
)

ground_terms = st.recursive(
    st.sampled_from([a, b]),
    lambda sub: st.one_of(
        st.builds(lambda t: g(t), sub),
        st.builds(lambda s, t: f(s, t), sub, sub),
    ),
    max_leaves=8,
)


def reference_positions(t, nonvar_only=False):
    """The recursive position set that `subterms` replaced; with
    `nonvar_only`, only positions of non-variable subterms."""
    out = set()

    def walk(u, prefix):
        if isinstance(u, Var):
            if not nonvar_only:
                out.add(prefix)
            return
        out.add(prefix)
        for k, arg in enumerate(u.args, start=1):
            walk(arg, prefix + (k,))

    walk(t, ROOT)
    return out


def nonvar_positions(t):
    return {p for p, u in subterms(t) if isinstance(u, App)}


class TestApp:
    """The hand-written constructor keeps the dataclass's contract."""

    apps = terms.filter(lambda t: isinstance(t, App))

    @given(apps)
    def test_size_counts_the_nodes(self, t):
        assert t._size == len(list(subterms(t)))

    @given(apps)
    def test_hash_is_that_of_symbol_and_arguments(self, t):
        assert hash(t) == hash((t.sym, t.args))

    @given(apps)
    def test_frozen(self, t):
        for name, value in (("sym", G), ("args", ()), ("_hash", 0),
                            ("_size", 0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, value)

    def test_wrong_argument_count(self):
        with pytest.raises(ValueError,
                           match=r"^symbol f/2 applied to 1 arguments$"):
            App(F, (a,))
        with pytest.raises(ValueError,
                           match=r"^symbol a/0 applied to 1 arguments$"):
            App(A, (b,))
        with pytest.raises(ValueError,
                           match=r"^symbol g/1 applied to 0 arguments$"):
            App(G)

    def test_repr(self):
        assert repr(f(a, x)) == (
            "App(sym=f/2, args=(App(sym=a/0, args=()), Var(name='x')))")


class TestPositions:
    def test_variable_has_no_nonvar_position(self):
        assert nonvar_positions(x) == set()

    def test_flat_application(self):
        assert [p for p, _ in subterms(f(x, b))] == [(), (1,), (2,)]

    def test_nonvar_positions_skip_variables(self):
        assert nonvar_positions(f(g(a), x)) == {(), (1,), (1, 1)}

    @given(terms)
    def test_subterms_is_sorted_reference_order(self, t):
        walked = list(subterms(t))
        assert [p for p, _ in walked] == sorted(reference_positions(t))
        assert nonvar_positions(t) == reference_positions(t, nonvar_only=True)
        for p, u in walked:
            assert u is subterm_at(t, p)

    def test_depth_safe_on_a_chain_past_the_recursion_limit(self):
        n = 3 * sys.getrecursionlimit()
        t = b
        for _ in range(n):
            t = g(t)
        walked = list(subterms(t))
        assert len(walked) == n + 1
        assert walked[-1] == ((1,) * n, b)
        assert is_ground(t) and not is_ground(f(t, x))
        assert max(len(p) for p, _ in walked) == n

    def test_subterm_at_nested(self):
        assert subterm_at(f(g(a), b), (1, 1)) == a

    def test_subterm_at_root(self):
        t = f(x, y)
        assert subterm_at(t, ()) is t

    def test_replace_at(self):
        assert replace_at(f(g(a), b), (2,), App(Symbol("c", 0))) == \
            f(g(a), App(Symbol("c", 0)))

    def test_replace_at_root_is_replacement(self):
        assert replace_at(f(a, b), (), g(a)) == g(a)

    def test_invalid_position_raises(self):
        with pytest.raises(InvalidPositionError):
            subterm_at(f(a, b), (3,))
        with pytest.raises(InvalidPositionError):
            replace_at(a, (1,), b)

    @given(terms)
    def test_replace_subterm_roundtrip(self, t):
        for p, _ in subterms(t):
            assert replace_at(t, p, subterm_at(t, p)) == t


def reference_replace_at(t, p, s):
    """The body `replace_at` had before its rebuild became one indexed
    loop."""
    spine = []
    cur = t
    for i in p:
        if isinstance(cur, Var) or not 1 <= i <= len(cur.args):
            raise InvalidPositionError(
                f"position {render_position(p)} not in term")
        spine.append(cur)
        cur = cur.args[i - 1]
    out = s
    for parent, i in zip(reversed(spine), reversed(p)):
        out = App(parent.sym,
                  parent.args[:i - 1] + (out,) + parent.args[i:])
    return out


def same_term(u, v):
    return (u == v and hash(u) == hash(v)
            and term_size(u) == term_size(v))


class TestReplaceAt:
    @given(terms, terms)
    def test_loop_agrees_with_the_reference(self, t, s):
        for p, _ in subterms(t):
            assert same_term(replace_at(t, p, s),
                             reference_replace_at(t, p, s))

    @given(terms, terms)
    def test_both_reject_the_same_positions(self, t, s):
        # below each subterm: a variable on the path, index 0, and an
        # index past the arity
        for p, u in subterms(t):
            arity = len(u.args) if isinstance(u, App) else 0
            for i in {0, 1, arity + 1} - set(range(1, arity + 1)):
                messages = []
                for replace in (replace_at, reference_replace_at):
                    with pytest.raises(InvalidPositionError) as e:
                        replace(t, p + (i,), s)
                    messages.append(str(e.value))
                assert messages[0] == messages[1]

    def test_depth_safe_on_a_chain_past_the_recursion_limit(self):
        # unary and binary parents in turn, replaced at the bottom
        n = 3 * sys.getrecursionlimit()
        t, want, path = a, f(b, x), []
        for k in range(n):
            if k % 2:
                t, want = f(x, t), f(x, want)
                path.append(2)
            else:
                t, want = g(t), g(want)
                path.append(1)
        p = tuple(reversed(path))
        out = replace_at(t, p, f(b, x))
        assert same_term(out, want)
        assert same_term(out, reference_replace_at(t, p, f(b, x)))


class TestMatch:
    def test_instance_of_lhs(self):
        assert match_term(f(x, i(x)), f(b, i(b))) == {"x": b}

    def test_inconsistent_binding(self):
        assert match_term(f(x, x), f(a, b)) is None

    def test_variable_pattern(self):
        assert match_term(x, g(y)) == {"x": g(y)}

    def test_subject_variables_are_constants(self):
        assert match_term(g(a), g(x)) is None

    @given(terms)
    def test_match_recovers_substitution(self, t):
        sigma = {"x": g(a), "y": b, "z": f(a, b)}
        found = match_term(t, substitute(t, sigma))
        assert found is not None
        for name in variables_of(t):
            assert found[name] == sigma[name]


def reference_substitute(t, subst):
    """The recursive body `substitute` had before it became a loop."""
    if isinstance(t, Var):
        return subst.get(t.name, t)
    if not subst:
        return t
    return App(t.sym, tuple(reference_substitute(a, subst) for a in t.args))


substitutions = st.dictionaries(st.sampled_from(["x", "y", "z"]), terms,
                                max_size=3)


class TestSubstitute:
    @given(terms, substitutions)
    def test_loop_agrees_with_the_recursive_body(self, t, sigma):
        assert substitute(t, sigma) == reference_substitute(t, sigma)

    @given(terms, substitutions)
    def test_a_subterm_with_nothing_to_replace_is_kept(self, t, sigma):
        out = substitute(t, sigma)
        for p, u in subterms(t):
            if not variables_of(u) & sigma.keys():
                assert subterm_at(out, p) is u

    def test_depth_safe_on_a_chain_past_the_recursion_limit(self):
        t, want = y, b
        for _ in range(3 * sys.getrecursionlimit()):
            t, want = f(g(t), x), f(g(want), x)
        out = substitute(t, {"y": b})
        assert out == want
        assert out.args[1] is x
        assert substitute(t, {"q": b}) is t


class TestMgu:
    def test_simple_binding(self):
        assert mgu(g(x), g(b)) == {"x": b}

    def test_occurs_check(self):
        assert mgu(x, f(x, y)) is None

    def test_clash(self):
        assert mgu(a, b) is None

    def test_orients_either_side(self):
        s = mgu(f(x, a), f(b, y))
        assert s == {"x": b, "y": a}

    def test_composition_example(self):
        # unifying a rule rhs with the next rule lhs enables composition
        assert mgu(g(x), g(b)) == {"x": b}

    @given(terms, terms)
    def test_soundness_and_idempotence(self, s, t):
        sigma = mgu(s, t)
        if sigma is not None:
            left = substitute(s, sigma)
            assert left == substitute(t, sigma)
            assert substitute(left, sigma) == left

    def test_agrees_with_brute_force_unifiability(self):
        # oracle: two terms unify iff some substitution into a small ground
        # universe equates them (sound for this signature: any unifier can
        # be instantiated to a ground one, and depth-2 images suffice for
        # depth-2 inputs)
        pool = list(enumerate_terms([G, A, B], [], max_depth=2))
        small = list(enumerate_terms([G, A, B], ["x", "y"], max_depth=2))
        for s in small:
            for t in small:
                names = sorted(variables_of(s) | variables_of(t))
                oracle = any(
                    substitute(s, dict(zip(names, combo)))
                    == substitute(t, dict(zip(names, combo)))
                    for combo in itertools.product(pool, repeat=len(names)))
                assert (mgu(s, t) is not None) == oracle, f"{s} =? {t}"

    def test_generality_on_small_instances(self):
        # any depth-bounded unifier factors through the mgu
        s, t = f(x, g(y)), f(z, z)
        sigma = mgu(s, t)
        assert sigma is not None
        names = sorted(variables_of(s) | variables_of(t))
        pool = list(enumerate_terms([G, A, B], [], max_depth=2))
        for combo in itertools.product(pool, repeat=len(names)):
            delta = dict(zip(names, combo))
            if substitute(s, delta) != substitute(t, delta):
                continue
            pattern = tuple(substitute(Var(n), sigma) for n in names)
            image = tuple(delta[n] for n in names)
            lam = match_term(f(pattern[0], f(pattern[1], pattern[2])),
                             f(image[0], f(image[1], image[2])))
            assert lam is not None


def recursive_variables_of(t):
    """The recursive body `variables_of` had before it became a loop."""
    if isinstance(t, Var):
        return {t.name}
    out = set()
    for u in t.args:
        out |= recursive_variables_of(u)
    return out


def recursive_variables_in_order(t):
    """The recursive body `variables_in_order` had before it became a loop."""
    seen = []

    def walk(u):
        if isinstance(u, Var):
            if u.name not in seen:
                seen.append(u.name)
        else:
            for v in u.args:
                walk(v)

    walk(t)
    return seen


class TestVariables:
    @given(terms)
    def test_loops_agree_with_recursive_bodies(self, t):
        assert variables_of(t) == recursive_variables_of(t)
        # first-occurrence order decides the names `rename_pair_apart` picks
        assert variables_in_order(t) == recursive_variables_in_order(t)

    def test_depth_safe_on_a_chain_past_the_recursion_limit(self):
        t = f(y, x)
        for _ in range(3 * sys.getrecursionlimit()):
            t = f(g(t), z)
        assert variables_of(t) == {"x", "y", "z"}
        assert variables_in_order(t) == ["y", "x", "z"]


class TestRenameApart:
    def test_clash_gets_suffix(self):
        rule = Rule(f(x, x), App(Symbol("0", 0)), "r1")
        lhs, _ = rename_pair_apart(rule.lhs, rule.rhs, {"x"})
        assert render_term(lhs) == "f(x1,x1)"

    def test_no_clash_unchanged(self):
        rule = Rule(g(y), App(Symbol("c", 0)), "r1")
        assert rename_pair_apart(rule.lhs, rule.rhs, {"x"}) == \
            (rule.lhs, rule.rhs)

    def test_deterministic(self):
        rule = Rule(f(x, y), g(x), "r1")
        avoid = {"x", "y"}
        assert rename_pair_apart(rule.lhs, rule.rhs, avoid) == \
            rename_pair_apart(rule.lhs, rule.rhs, avoid)

    def test_fresh_name_avoids_rule_variables(self):
        rule = Rule(f(x, Var("x1")), g(x), "r1")
        lhs, _ = rename_pair_apart(rule.lhs, rule.rhs, {"x"})
        names = variables_of(lhs)
        assert len(names) == 2  # bijective renaming

    @given(terms)
    def test_structural_isomorphism(self, t):
        if isinstance(t, Var):
            return
        rule = Rule(f(t, t), f(t, t), "r")
        lhs, _ = rename_pair_apart(rule.lhs, rule.rhs, variables_of(t) | {"q"})
        assert match_term(rule.lhs, rule.lhs) is not None
        back = match_term(lhs, rule.lhs)
        fwd = match_term(rule.lhs, lhs)
        assert back is not None and fwd is not None
        assert all(isinstance(v, Var) for v in fwd.values())


def reference_enumerate_terms(symbols, variables, max_depth):
    """The filtered product `enumerate_terms` had before it stopped testing
    the last argument: every argument tuple over the terms of lower depth
    that has one of depth exactly d-1."""
    if max_depth < 1:
        return
    layer = ([App(s) for s in symbols if s.arity == 0]
             + [Var(v) for v in variables])
    known = []
    yield from layer
    for depth in range(2, max_depth + 1):
        known.extend(layer)
        prev_set = set(layer)
        layer = []
        for s in symbols:
            if s.arity == 0:
                continue
            for args in itertools.product(known, repeat=s.arity):
                if any(a in prev_set for a in args):
                    t = App(s, args)
                    layer.append(t)
                    yield t


class TestEnumerateTerms:
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                    max_size=4),
           st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=4))
    def test_same_terms_in_the_same_order_as_the_filtered_product(
            self, arities, n_vars, depth):
        symbols = [Symbol(f"s{k}", n) for k, n in enumerate(arities)]
        variables = ["x", "y"][:n_vars]
        # wide signatures explode at depth 4; searches read a prefix
        limit = 3000
        got = itertools.islice(enumerate_terms(symbols, variables, depth),
                               limit)
        want = itertools.islice(
            reference_enumerate_terms(symbols, variables, depth), limit)
        assert list(got) == list(want)

    def test_ground_depth_two(self):
        zero, s = Symbol("0", 0), Symbol("s", 1)
        got = list(enumerate_terms([zero, s], [], 2))
        assert [render_term(t) for t in got] == ["0", "s(0)"]

    def test_constants_before_variables(self):
        got = list(enumerate_terms([A], ["x"], 1))
        assert [render_term(t) for t in got] == ["a", "x"]

    def test_counted_example(self):
        zero, s, f2 = Symbol("0", 0), Symbol("s", 1), Symbol("f", 2)
        got = list(enumerate_terms([zero, s, f2], [], 2))
        assert [render_term(t) for t in got] == ["0", "s(0)", "f(0,0)"]

    @given(st.integers(min_value=1, max_value=3))
    def test_depth_bound_respected(self, d):
        for t in enumerate_terms([A, G, F], ["x"], d):
            assert max(len(p) for p, _ in subterms(t)) < d
