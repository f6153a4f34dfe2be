"""Parsing and rendering of systems and terms."""

import random
import re

import pytest
from hypothesis import given, strategies as st

from lmtk.rewriting import Rule, Trs
from lmtk.trs_format import (
    TOKEN_RE,
    ParseError,
    parse_term,
    parse_trs,
    render_trs,
)
from lmtk.terms import App, Symbol, Term, Var, render_term

from conftest import ROOT_OVERLAP, corpus_systems, pool_text, sweep_sources
from random_systems import random_system


class TestParse:
    def test_three_rule_file_with_auto_labels(self):
        trs = parse_trs(ROOT_OVERLAP)
        assert [r.label for r in trs.rules] == ["r1", "r2", "r3"]
        assert render_term(trs.rules[0].lhs) == "f(x,i(x))"

    def test_explicit_labels(self):
        trs = parse_trs("sig: a/0 b/0\nrules:\n  [base] a -> b\n")
        assert trs.rules[0].label == "base"

    @pytest.mark.parametrize("rules, labels", [
        # an automatic label avoids an explicit one later in the file
        ("a -> b\n  [r1] c -> d", ["r1'", "r1"]),
        ("[r2] a -> b\n  c -> d", ["r2", "r2'"]),
        ("a -> b\n  [r1] c -> d\n  [r1'] b -> c", ["r1''", "r1", "r1'"]),
        ("[r2] a -> b\n  c -> d\n  [r2'] b -> c\n  d -> a",
         ["r2", "r2''", "r2'", "r4"])],
        ids=["later", "earlier", "later_primed", "both"])
    def test_automatic_labels_avoid_every_explicit_one(self, rules, labels):
        trs = parse_trs(f"sig: a/0 b/0 c/0 d/0\nrules:\n  {rules}\n")
        assert [r.label for r in trs.rules] == labels

    def test_an_explicit_label_given_twice_is_rejected(self):
        with pytest.raises(ParseError, match="duplicate rule label r1"):
            parse_trs("sig: a/0 b/0\nrules:\n  [r1] a -> b\n  [r1] b -> a\n")

    def test_comments_and_blank_lines(self):
        trs = parse_trs("# system\nsig: a/0 b/0\n\nrules:\n  a -> b  # step\n")
        assert len(trs.rules) == 1

    def test_unbound_rhs_variable_rejected(self):
        with pytest.raises(ParseError, match="introduces"):
            parse_trs("sig: f/1 g/2\nvars: x y\nrules:\n  f(x) -> g(x,y)\n")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ParseError, match="arity"):
            parse_trs("sig: f/1\nvars: x y\nrules:\n  f(x,y) -> f(x)\n")

    def test_undeclared_symbol_rejected(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_trs("sig: f/1\nvars: x\nrules:\n  f(x) -> g(x)\n")

    def test_variable_lhs_rejected(self):
        with pytest.raises(ParseError, match="variable"):
            parse_trs("sig: a/0\nvars: x\nrules:\n  x -> a\n")

    def test_error_carries_position(self):
        try:
            parse_trs("sig: f/1\nvars: x\nrules:\n  f(x -> x\n")
        except ParseError as e:
            assert e.line == 4
        else:
            pytest.fail("expected a parse error")

    def test_numeric_constants(self):
        trs = parse_trs("sig: f/2 0/0\nvars: x\nrules:\n  f(x, 0) -> 0\n")
        assert render_term(trs.rules[0].lhs) == "f(x,0)"

    def test_duplicate_symbol_rejected(self):
        with pytest.raises(ParseError, match="twice"):
            parse_trs("sig: f/1 f/2\nrules:\n")

    @pytest.mark.parametrize("text", [
        "sig: a/0 g/1\nvars: a\nrules:\n  g(a) -> a\n",
        "vars: a\nsig: a/0 g/1\nrules:\n  g(a) -> a\n"],
        ids=["sig_first", "vars_first"])
    def test_name_declared_as_variable_and_symbol_rejected(self, text):
        with pytest.raises(ParseError, match="clashes with a"):
            parse_trs(text)


class TestRoundTrip:
    @pytest.mark.parametrize("name,trs,_", corpus_systems(),
                             ids=[n for n, _, _ in corpus_systems()])
    def test_parse_render_round_trip(self, name, trs, _):
        assert parse_trs(render_trs(trs)) == trs

    def test_pool_round_trip(self):
        # the pool text as parsed, and the random systems as built
        systems = [parse_trs(pool_text(seed)) for seed in range(120)]
        systems += filter(None, (random_system(random.Random(seed))
                                 for seed in range(120)))
        for trs in systems:
            assert parse_trs(render_trs(trs)) == trs, render_trs(trs)


class TestParseTerm:
    def test_in_context(self):
        trs = parse_trs(ROOT_OVERLAP)
        t = parse_term("f(b, i(b))", trs)
        assert render_term(t) == "f(b,i(b))"

    def test_trailing_garbage(self):
        trs = parse_trs(ROOT_OVERLAP)
        with pytest.raises(ParseError, match="trailing"):
            parse_term("f(b, i(b)) extra", trs)

    def test_whitespace_insignificant(self):
        trs = parse_trs(ROOT_OVERLAP)
        assert parse_term(" f( b , i( b ) ) ", trs) == \
            parse_term("f(b,i(b))", trs)


_F = Symbol("f", 2)
_G = Symbol("g", 1)
_A = Symbol("a", 0)
_ZERO = Symbol("0", 0)

random_terms = st.recursive(
    st.sampled_from([App(_A), App(_ZERO), Var("x"), Var("y")]),
    lambda sub: st.one_of(
        st.builds(lambda t: App(_G, (t,)), sub),
        st.builds(lambda s, t: App(_F, (s, t)), sub, sub),
    ),
    max_leaves=10,
)


class TestTermRoundTrip:
    @given(random_terms)
    def test_render_parse_round_trip(self, t):
        context = parse_trs("sig: f/2 g/1 a/0 0/0\nvars: x y\nrules:\n")
        assert parse_term(render_term(t), context) == t


class TestLegacyFormat:
    def test_basic_import(self):
        trs = parse_trs("""
(VAR x)
(RULES
  f(x, i(x)) -> g(x)
  g(b) -> c
)
""")
        assert len(trs.rules) == 2
        assert {s.name for s in trs.symbols} == {"f", "i", "g", "b", "c"}
        assert trs.symbol("f").arity == 2

    def test_arity_inference_conflict(self):
        with pytest.raises(ParseError, match="arities"):
            parse_trs("(VAR x)\n(RULES\n  f(x) -> f(x, x)\n)")

    def test_missing_rules_section(self):
        with pytest.raises(ParseError, match="RULES"):
            parse_trs("(VAR x)")

    def test_constant_written_as_a_call(self):
        trs = parse_trs("(VAR x) (RULES f(a(), x) -> x)")
        assert trs.symbol("a").arity == 0
        assert render_term(trs.rules[0].lhs) == "f(a,x)"

    def test_both_constant_spellings_are_one_constant(self):
        mixed = parse_trs("(VAR x)\n(RULES\n  f(a, x) -> g(a(), x)\n)")
        assert mixed == parse_trs("(VAR x)\n(RULES\n  f(a, x) -> g(a, x)\n)")
        assert [s.name for s in mixed.symbols] == ["a", "f", "g"]

    def test_constant_spelling_conflicts_with_a_unary_use(self):
        with pytest.raises(ParseError,
                           match="symbol a used with arities 0 and 1"):
            parse_trs("(VAR x)\n(RULES\n  f(a(), x) -> a(x)\n)")

    @pytest.mark.parametrize("text", [
        "(VAR x y) (RULES f(x) -> x) (COMMENT a TPDB comment)",
        "(VAR x y)\n(RULES\n  f(x) -> x\n)\n(COMMENT a TPDB comment)\n",
    ])
    def test_rules_section_ends_at_its_own_parenthesis(self, text):
        assert parse_trs(text) == parse_trs(
            "sig: f/1\nvars: x y\nrules:\n  f(x) -> x\n")

    @pytest.mark.parametrize("comment", ["(COMMENT see (RULES a -> b))",
                                         "(COMMENT see (VAR y))"])
    def test_section_named_inside_a_comment_is_text(self, comment):
        trs = parse_trs(f"{comment}\n(VAR x)\n(RULES f(x) -> x)\n")
        assert trs == parse_trs("sig: f/1\nvars: x\nrules:\n  f(x) -> x\n")

    def test_section_name_is_a_whole_identifier(self):
        # `(RULESX ...)` and `(VARS ...)` are other sections
        trs = parse_trs("(VARS y) (VAR x) (RULESX a -> b) (RULES f(x) -> x)")
        assert trs == parse_trs("sig: f/1\nvars: x\nrules:\n  f(x) -> x\n")

    def test_unclosed_section(self):
        with pytest.raises(ParseError, match=r"unclosed \(RULES \.\.\.\) "
                                             "section"):
            parse_trs("(VAR x)\n(RULES\n  f(x) -> x\n")

    def test_repeated_variable_is_declared_once(self):
        trs = parse_trs("(VAR x x) (RULES f(x) -> x)")
        assert trs.variables == ("x",)
        assert parse_trs(render_trs(trs)) == trs

    def test_deep_term(self):
        depth = 4000
        trs = parse_trs("(VAR x)\n(RULES\n  " + "g(" * depth + "x"
                        + ")" * depth + " -> x\n)")
        assert trs.symbol("g").arity == 1
        assert trs.rules[0].lhs._size == depth + 1


def reference_legacy_trs(text: str) -> Trs:
    """The legacy importer that infers the signature from a scan of the
    parentheses and then parses each side a second time (the differential
    oracle of `parse_legacy_trs`)."""
    var_m = re.search(r"\(VAR([^)]*)\)", text)
    variables = var_m.group(1).split() if var_m else []
    rules_m = re.search(r"\(RULES(.*)\)", text, re.DOTALL)
    if not rules_m:
        raise ParseError("missing (RULES ...) section")
    arities: dict[str, int] = {}
    rule_srcs: list[tuple[str, str]] = []
    for chunk in rules_m.group(1).splitlines():
        chunk = chunk.split("#", 1)[0].strip()
        if not chunk:
            continue
        if "->" not in chunk:
            raise ParseError(f"expected 'lhs -> rhs' in '{chunk}'")
        lhs_s, _, rhs_s = chunk.partition("->")
        rule_srcs.append((lhs_s.strip(), rhs_s.strip()))
        for side in (lhs_s, rhs_s):
            _reference_infer_arities(side, set(variables), arities)
    signature = Trs(tuple(Symbol(n, a) for n, a in sorted(arities.items())),
                    tuple(variables), ())
    rules = [Rule(parse_term(lhs_s, signature), parse_term(rhs_s, signature),
                  f"r{i}")
             for i, (lhs_s, rhs_s) in enumerate(rule_srcs, start=1)]
    return signature.with_rules(rules)


def _reference_infer_arities(src: str, variables: set[str],
                             arities: dict[str, int]) -> None:
    pos = 0
    while True:
        m = TOKEN_RE.search(src, pos)
        if not m:
            return
        name = m.group()
        pos = m.end()
        if name in variables:
            continue
        arity = 0
        if pos < len(src) and src[pos:].lstrip().startswith("("):
            depth = 0
            arity = 1
            for ch in src[src.index("(", pos):]:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif ch == "," and depth == 1:
                    arity += 1
        if name in arities and arities[name] != arity:
            raise ParseError(f"symbol {name} used with arities "
                             f"{arities[name]} and {arity}")
        arities[name] = arity


def _called(t: Term) -> str:
    """`t` with every constant written as a call, `a()`."""
    if isinstance(t, Var):
        return t.name
    return f"{t.sym.name}({','.join(_called(a) for a in t.args)})"


def legacy_text(trs: Trs, calls: bool = False) -> str:
    """`trs` in the legacy format; `calls` writes constants as `a()`."""
    side = _called if calls else render_term
    rules = "".join(f"  {side(r.lhs)} -> {side(r.rhs)}\n" for r in trs.rules)
    return f"(VAR {' '.join(trs.variables)})\n(RULES\n{rules})\n"


class TestLegacyImportOracle:
    """The importer against the reference importer it replaced."""

    def test_agrees_on_the_sweep_in_both_constant_spellings(self):
        sources = sweep_sources(range(200))
        assert len(sources) == 220
        for name, src in sources.items():
            trs = parse_trs(src)
            expected = render_trs(reference_legacy_trs(legacy_text(trs)))
            assert render_trs(parse_trs(legacy_text(trs))) == expected, name
            assert render_trs(parse_trs(legacy_text(trs, calls=True))) \
                == expected, name

    @pytest.mark.parametrize("text", [
        "(VAR x)\n(RULES\n  f(x) -> f(x, x)\n)",
        "(VAR x)\n(RULES\n  f(x) -> g(x)\n  g(x, x) -> x\n)",
        "(VAR x)\n(RULES\n  f(a) -> b\n  a(x) -> b\n)",
        "(VAR x)\n(RULES\n  f(x) -> x(b)\n)",
        "(VAR x)\n(RULES\n  x -> b\n)",
        "(VAR x y)\n(RULES\n  f(x) -> g(y)\n)",
        "(VAR x)\n(RULES\n  f(x) g(x)\n)",
        "(VAR x)",
    ])
    def test_same_error(self, text):
        with pytest.raises(ValueError) as expected:
            reference_legacy_trs(text)
        with pytest.raises(ValueError) as got:
            parse_trs(text)
        assert (type(got.value), str(got.value)) == \
            (type(expected.value), str(expected.value))
