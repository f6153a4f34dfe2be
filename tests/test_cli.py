"""Command-line surface: subcommands, exit codes, JSON output."""

import json
import sys

import pytest

from lmtk import cli
from lmtk.cli import run_command

from conftest import (
    BRANCHING_MACHINE,
    DUPLICATING,
    ROOT_OVERLAP,
    ROOT_OVERLAP_TRUNCATED,
    TINY_MACHINE,
    UNARY_CHAIN,
    render_machine,
)


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return _write


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_pass_exit_zero(self, write, capsys):
        path = write("chain.trs", UNARY_CHAIN)
        code, out, _ = run(capsys, "check", path)
        assert code == 0
        assert "LM-system: PASS (collapse bounded at depth 5)" in out

    def test_fail_exit_one_cites_equation(self, write, capsys):
        path = write("dup.trs", DUPLICATING)
        code, out, _ = run(capsys, "check", path)
        assert code == 1
        assert "f(x,x) = f(x1,x1)" in out

    def test_json_structure(self, write, capsys):
        path = write("chain.trs", UNARY_CHAIN)
        code, out, _ = run(capsys, "check", path, "--json")
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        names = [c["name"] for c in payload["conditions"]]
        assert names == ["terminating", "confluent", "right-reduced",
                         "almost-left-reduced", "non-subterm-collapsing",
                         "forward-closed", "rhs quasi-deterministic"]
        assert payload["consequences"]

    def test_unknown_exit_two_without_precedence(self, write, capsys):
        # encoded machines have too many symbols for precedence search
        from lmtk.minsky import encode
        from lmtk.trs_format import render_trs
        inst = encode(TINY_MACHINE, 0, 0)
        path = write("enc.trs", render_trs(inst.theory))
        code, out, _ = run(capsys, "check", path)
        assert code == 2

    def test_precedence_flag(self, write, capsys):
        from lmtk.minsky import encode, encoding_precedence
        from lmtk.trs_format import render_trs
        inst = encode(TINY_MACHINE, 0, 0)
        path = write("enc.trs", render_trs(inst.theory))
        code, out, _ = run(capsys, "check", path, "--precedence",
                           ",".join(encoding_precedence(TINY_MACHINE)))
        assert code == 0

    @pytest.mark.parametrize("precedence", [
        "f,a,g,f",      # f twice, ranked last by the second
        "f,f,g,a",      # f twice, certifying f > f > g > a
        "g,f,a,zz",     # a symbol the signature does not declare
    ])
    def test_malformed_precedence_is_usage_error(self, write, capsys,
                                                 precedence):
        path = write("fg.trs", "sig: f/1 g/1 a/0\nvars: x\nrules:\n"
                               "  f(x) -> g(x)\n")
        code, out, err = run(capsys, "check", path, "--precedence",
                             precedence)
        assert (code, out) == (3, "")
        assert err.strip() == ("error: precedence must name each symbol "
                               f"exactly once, got {precedence}")

    def test_consequence_out_of_fuel_still_reports(self, write, capsys):
        # nothing up to collapse depth 1 takes a step, so the system is
        # certified with no fuel; only the freeness pool runs out
        path = write("fg.trs", "sig: f/1 g/1\nvars: x\nrules:\n"
                               "  f(x) -> g(x)\n")
        code, out, err = run(capsys, "check", path, "--fuel", "0",
                             "--depth", "1")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len([ln for ln in lines[:7] if "PASS" in ln]) == 7
        assert ("  free over the signature     UNKNOWN "
                "(fuel exhausted normalizing the pool)") in lines
        assert lines[-1] == "LM-system: PASS (collapse bounded at depth 1)"

    def test_missing_file_exit_three(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.trs")
        assert code == 3
        assert "error" in err


class TestNormalize:
    def test_trace_rendering(self, write, capsys):
        # first matching rule in file order wins, so the trace goes via r1
        path = write("full.trs", ROOT_OVERLAP)
        code, out, _ = run(capsys, "normalize", path, "f(b,i(b))")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "[r1] at e: f(b,i(b)) -> g(b)"
        assert lines[1] == "[r2] at e: g(b) -> c"
        assert lines[-1] == "c"

    def test_parse_error_exit_three(self, write, capsys):
        path = write("full.trs", ROOT_OVERLAP)
        code, _, err = run(capsys, "normalize", path, "f(b,")
        assert code == 3


class TestReduce:
    def test_emits_reparsable_system(self, write, capsys):
        from lmtk.trs_format import parse_trs
        path = write("nrr.trs", """
sig: f/1 g/1 a/0 b/0
vars: x
rules:
  f(x) -> g(a)
  g(a) -> b
  f(x) -> b
""")
        code, out, _ = run(capsys, "reduce", path)
        assert code == 0
        reduced = parse_trs("\n".join(
            l for l in out.splitlines() if not l.startswith("#")))
        assert all("g(a)" != str(r.rhs) for r in reduced.rules)

    def test_idempotent_on_own_output(self, write, capsys):
        path = write("full.trs", ROOT_OVERLAP)
        code, out, _ = run(capsys, "reduce", path)
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        path2 = write("reduced.trs", body)
        code2, out2, _ = run(capsys, "reduce", path2)
        body2 = "\n".join(l for l in out2.splitlines() if not l.startswith("#"))
        assert body == body2


class TestFc:
    def test_truncated_lists_new_rule(self, write, capsys):
        path = write("trunc.trs", ROOT_OVERLAP_TRUNCATED)
        code, out, _ = run(capsys, "fc", path)
        assert code == 0
        assert "f(b,i(b)) -> c" in out
        assert "fixpoint at generation 1" in out

    def test_fc_check_witness(self, write, capsys):
        path = write("trunc.trs", ROOT_OVERLAP_TRUNCATED)
        code, out, _ = run(capsys, "fc-check", path)
        assert code == 1
        assert "f(b,i(b))" in out
        assert "innermost one-step: no" in out

    def test_fc_check_passes_on_closed_system(self, write, capsys):
        path = write("full.trs", ROOT_OVERLAP)
        code, out, _ = run(capsys, "fc-check", path, "--fc-depth", "3")
        assert code == 0
        assert "forward-closed: yes" in out
        assert "innermost one-step: yes" in out


class TestSmallCommands:
    def test_rhs(self, write, capsys):
        path = write("dup.trs", DUPLICATING)
        code, out, _ = run(capsys, "rhs", path)
        assert code == 0
        assert "f(x,x) = f(x1,x1)" in out

    def test_cps(self, write, capsys):
        path = write("full.trs", ROOT_OVERLAP)
        code, out, _ = run(capsys, "cps", path)
        assert code == 0
        assert "g(b)" in out

    def test_nosup(self, write, capsys):
        path = write("nested.trs",
                     "sig: f/1 g/1 a/0 b/0 c/0\nvars: x\nrules:\n"
                     "  f(g(x)) -> a\n  g(b) -> c\n")
        code, out, _ = run(capsys, "nosup", path)
        assert code == 0
        assert "f(g(b))" in out

    @pytest.mark.parametrize("command, source, expected", [
        ("fc", "sig: h/1 f/1 k/1 c/0 v1/0\nvars: x y\nrules:\n"
               "  h(x) -> f(k(x))\n  f(k(y)) -> c\n  h(v1) -> c\n",
         "[r1~r2@e] h(y) -> c"),
        ("rhs", "sig: h/1 f/1 k/1 c/0 v1/0\nvars: x y\nrules:\n"
                "  h(x) -> f(k(x))\n  f(k(y)) -> c\n  h(v1) -> c\n",
         "f(k(y)) = h(v1)   [rhs-cp(r2,r3)]"),
        ("nosup", "sig: g/1 k/1 c/0 v1/0\nvars: x y\nrules:\n"
                  "  g(k(x)) -> c\n  k(y) -> c\n  g(k(v1)) -> c\n",
         "g(k(v1))"),
    ], ids=["fc", "rhs", "nosup"])
    def test_constant_named_like_a_canonical_variable(
            self, write, capsys, command, source, expected):
        # renaming apart calls variables v1, v2, ...; a constant `v1` must
        # not make a rule, equation or superposition look like a known one
        outputs = []
        for name in ("v1", "w1"):
            path = write(f"{name}.trs", source.replace("v1", name))
            code, out, _ = run(capsys, command, path)
            assert code == 0
            outputs.append(out.replace(name, "v1"))
        assert outputs[0] == outputs[1]
        assert expected in outputs[0]

    def test_collapse_found_exit_one(self, write, capsys):
        path = write("dup.trs", DUPLICATING)
        code, out, _ = run(capsys, "collapse", path)
        assert code == 1
        assert "collapsing" in out

    def test_collapse_none_exit_zero(self, write, capsys):
        path = write("chain.trs", UNARY_CHAIN)
        code, out, _ = run(capsys, "collapse", path)
        assert code == 0
        assert "capped" not in out

    def test_collapse_states_its_enumeration_cap(self, write, capsys):
        # a binary symbol passes 4000 terms before depth 5 is exhausted
        path = write("binary.trs", "sig: f/2 a/0\nrules:\n")
        code, out, _ = run(capsys, "collapse", path)
        assert code == 0
        assert out.strip() == ("no collapse up to depth 5 (4000 terms "
                               "checked, enumeration capped at 4000 terms)")
        code, out, _ = run(capsys, "collapse", path, "--json")
        assert json.loads(out)["exhausted"] is False


class TestMinskyCommands:
    def test_validate(self, write, capsys):
        path = write("m.mm", render_machine(TINY_MACHINE))
        code, out, _ = run(capsys, "minsky", "validate", path)
        assert code == 0 and "valid" in out

    def test_simulate(self, write, capsys):
        path = write("m.mm", render_machine(BRANCHING_MACHINE))
        code, out, _ = run(capsys, "minsky", "simulate", path, "--k", "1")
        assert code == 0
        assert "(qL, 0, 0) at step 3" in out

    def test_encode_emits_system_and_instance(self, write, capsys):
        path = write("m.mm", render_machine(TINY_MACHINE))
        code, out, _ = run(capsys, "minsky", "encode", path)
        assert code == 0
        assert "# knowledge: c(q0,0,0,0)" in out
        assert "# goal: c(e,0,0,0)" in out

    def test_cap_pipeline(self, write, capsys):
        path = write("m.mm", render_machine(TINY_MACHINE))
        code, out, _ = run(capsys, "minsky", "cap", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"]
        assert payload["cap"] == "gp(g(gp(f_qL(f_q1(f_q0(hole1))))))"

    def test_cap_subcommand_on_system_file(self, write, capsys):
        from lmtk.minsky import encode
        from lmtk.trs_format import render_trs
        inst = encode(TINY_MACHINE, 0, 0)
        path = write("enc.trs", render_trs(inst.theory))
        code, out, _ = run(capsys, "cap", path,
                           "--knowledge", "c(q0,0,0,0)",
                           "--goal", "c(e,0,0,0)")
        assert code == 0
        assert "cap:" in out

    def test_cap_matches_the_goal_modulo_the_theory(self, write, capsys):
        # the knowledge b is the goal's normal form
        path = write("ab.trs", "sig: a/0 b/0\nrules:\n  a -> b\n")
        code, out, err = run(capsys, "cap", path,
                             "--knowledge", "b", "--goal", "a")
        assert (code, out, err) == (0, "cap: hole1\n", "")


class TestFuelOverride:
    def test_flag_overrides(self, write, capsys):
        path = write("full.trs", ROOT_OVERLAP)
        code, out, _ = run(capsys, "normalize", path, "f(b,i(b))",
                           "--fuel", "50")
        assert code == 0

    def test_zero_fuel_allows_no_step(self, write, capsys):
        path = write("two.trs", "sig: a/0 b/0 f/1\nrules:\n"
                                "  a -> f(b)\n  f(b) -> b\n")
        code, out, err = run(capsys, "normalize", path, "a", "--fuel", "0")
        assert (code, out) == (2, "")
        assert err.strip() == "fuel exhausted after 0 steps"
        assert run(capsys, "normalize", path, "a", "--fuel", "0")[0] == 2
        assert run(capsys, "normalize", path, "a")[0] == 0

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_fuel_is_usage_error(self, write, capsys, value):
        path = write("full.trs", ROOT_OVERLAP)
        code, out, err = run(capsys, "normalize", path, "b", "--fuel", value)
        assert (code, out) == (3, "")
        assert "--fuel" in err

    @pytest.mark.parametrize("argv", [
        ("reduce",),
        ("cap", "--knowledge", "a", "--goal", "f(a)"),
        ("fc-check",),
        ("collapse",),
    ])
    def test_running_out_of_fuel_is_open(self, write, capsys, argv):
        path = write("grow.trs", "sig: a/0 f/1\nrules:\n  a -> f(a)\n")
        code, out, err = run(capsys, argv[0], path, *argv[1:],
                             "--fuel", "50")
        assert code == 2
        assert err.strip() == "fuel exhausted after 50 steps"

    @pytest.mark.parametrize("argv", [
        ("normalize", "f(a)", "--fuel", "100000"),
        ("cap", "--knowledge", "b", "--goal", "f(a)"),
    ])
    def test_the_size_bound_is_named(self, write, capsys, argv):
        # each step adds a node, so the term outgrows MAX_TERM_NODES long
        # before the fuel runs out
        path = write("grow.trs", "sig: a/0 b/0 f/1\nvars: x\nrules:\n"
                                 "  f(x) -> f(f(x))\n")
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (2, "")
        assert err.strip() == "term outgrew 5000 nodes after 4999 steps"


class TestUsage:
    def test_no_command(self, capsys):
        assert run_command([]) == 3

    @pytest.mark.parametrize("argv", [
        ("check", "--depth", "0"),
        ("collapse", "--depth", "0"),
        ("fc", "--fc-max-gen", "-1"),
        ("fc-check", "--fc-depth", "-3"),
        ("fc-check", "--fc-depth", "0"),
        ("cap", "--knowledge", "g(a)", "--goal", "a", "--max-size", "-1"),
        ("cap", "--knowledge", "g(a)", "--goal", "a", "--max-rounds", "-1"),
        ("minsky", "encode", "--k", "-2"),
        ("minsky", "simulate", "--k", "-2"),
        ("minsky", "encode", "--p", "-1"),
        ("minsky", "encode", "--kp", "-1"),
        ("minsky", "encode", "--pp", "-1"),
        ("minsky", "simulate", "--max-steps", "-1"),
        ("minsky", "cap", "--max-size", "-1"),
        ("minsky", "cap", "--max-rounds", "-1"),
    ])
    def test_out_of_range_count_is_usage_error(self, write, capsys, argv):
        # a bound that allows no search must not read as a verdict
        if argv[0] == "minsky":
            path = write("m.mm", render_machine(TINY_MACHINE))
            head, rest = argv[:2], argv[2:]
        else:
            path = write("collapsing.trs",
                         "sig: f/1 g/1 a/0\nvars: x\nrules:\n  f(g(x)) -> x\n")
            head, rest = argv[:1], argv[1:]
        code, out, err = run(capsys, *head, path, *rest)
        assert (code, out) == (3, "")
        assert f"argument {argv[-2]}: expected a count of" in err

    def test_unknown_command(self, capsys):
        assert run_command(["bogus"]) == 3

    def test_internal_error_exits_four(self, write, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "cmd_normalize", broken)
        path = write("full.trs", ROOT_OVERLAP)
        code, out, err = run(capsys, "normalize", path, "b")
        assert code == 4
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"


class TestDeepInput:
    def test_term_deeper_than_the_recursion_limit(self, write, capsys):
        path = write("deep.trs", "sig: a/0 b/0 f/1\nrules:\n  a -> b\n")
        n = 3 * sys.getrecursionlimit()
        code, out, err = run(capsys, "normalize", path,
                             "f(" * n + "a" + ")" * n)
        assert (code, err) == (0, "")
        step, normal_form = out.strip().splitlines()
        assert step.startswith("[r1] at " + ".".join(["1"] * n) + ": ")
        assert normal_form == "f(" * n + "b" + ")" * n

    def test_cap_from_knowledge_deeper_than_the_recursion_limit(
            self, write, capsys):
        # the rule peels k symbols per step, so normalizing the knowledge
        # takes n/k steps and its trace stays small
        k = 100
        path = write("peel.trs", "sig: b/0 f/1\nvars: x\nrules:\n  "
                                 + "f(" * k + "x" + ")" * k + " -> x\n")
        n = k * -(-3 * sys.getrecursionlimit() // k)
        code, out, err = run(capsys, "cap", path, "--knowledge",
                             "f(" * n + "b" + ")" * n, "--goal", "b")
        assert (code, out, err) == (0, "cap: hole1\n", "")
