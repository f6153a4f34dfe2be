"""Command-line surface: subcommands, exit codes, JSON output."""

import json
import sys

import pytest

from lmtk import cli
from lmtk.cli import run_command

from conftest import (
    BRANCHING_MACHINE,
    DUPLICATING,
    MACHINE_STARTS,
    ROOT_OVERLAP,
    ROOT_OVERLAP_TRUNCATED,
    TINY_MACHINE,
    UNARY_CHAIN,
    UNUSED_SYMBOL_CLASH,
    pool_text,
    render_machine,
    sweep_sources,
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

    def test_encoded_machine_certifies_without_precedence(self, write,
                                                          capsys):
        # 15 symbols: the precedence search has no signature limit
        from lmtk.minsky import encode
        from lmtk.trs_format import render_trs
        inst = encode(TINY_MACHINE, 0, 0)
        path = write("enc.trs", render_trs(inst.theory))
        code, out, _ = run(capsys, "check", path)
        assert code == 0
        assert out.startswith("terminating                 PASS (LPO "
                              "precedence: f_q0 > fp_q0 > q0 > ")

    def test_open_verdict_exits_two(self, write, capsys):
        # the collapse search needs a rewrite step that --fuel 0 denies
        path = write("chain.trs", UNARY_CHAIN)
        code, out, _ = run(capsys, "check", path, "--fuel", "0")
        assert code == 2
        assert "LM-system: UNKNOWN (non-subterm-collapsing)" in out

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

    def test_empty_precedence_is_usage_error(self, write, capsys):
        # an empty flag is a precedence naming no symbol, not a missing one
        path = write("fg.trs", "sig: f/1 g/1 a/0\nvars: x\nrules:\n"
                               "  f(x) -> g(x)\n")
        code, out, err = run(capsys, "check", path, "--precedence", "")
        assert (code, out) == (3, "")
        assert err == "error: precedence does not cover ['a', 'f', 'g']\n"

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
        assert out == ("forward-closed: no ([r1~r2@e] f(b,i(b)) -> c  "
                       "(r1 ~> r2 at e, gen 1))\n")

    def test_fc_check_passes_on_closed_system(self, write, capsys):
        path = write("full.trs", ROOT_OVERLAP)
        code, out, _ = run(capsys, "fc-check", path)
        assert (code, out) == (0, "forward-closed: yes\n")

    def test_fc_check_json_carries_only_the_exact_answer(self, write,
                                                         capsys):
        path = write("trunc.trs", ROOT_OVERLAP_TRUNCATED)
        code, out, _ = run(capsys, "fc-check", path, "--json")
        assert code == 1
        assert json.loads(out) == {
            "forward_closed": False,
            "witness": "[r1~r2@e] f(b,i(b)) -> c  (r1 ~> r2 at e, gen 1)"}

    def test_fc_check_answers_a_closed_pool_system(self, write, capsys):
        # forward-closed, though normalizing its innermost redexes runs
        # out of fuel
        path = write("pool105.trs", pool_text(105))
        code, out, err = run(capsys, "fc-check", path)
        assert (code, out, err) == (0, "forward-closed: yes\n", "")

    def test_fc_check_answers_a_non_terminating_rule(self, write, capsys):
        # a -> f(a) has no normal forms, yet its composition is decided
        path = write("grow.trs", "sig: a/0 f/1\nrules:\n  a -> f(a)\n")
        code, out, err = run(capsys, "fc-check", path)
        assert (code, err) == (1, "")
        assert out == ("forward-closed: no ([r1~r1@1] a -> f(f(a))  "
                       "(r1 ~> r1 at 1, gen 1))\n")

    def test_fresh_names_avoid_a_symbol_that_no_rule_uses(self, write,
                                                          capsys):
        path = write("clash.trs", UNUSED_SYMBOL_CLASH)
        rule = "[r2~r1@e] g(x2,a) -> g(x2,x2)  (r2 ~> r1 at e, gen 1)"
        code, out, _ = run(capsys, "fc", path, "--fc-max-gen", "1")
        assert (code, out.splitlines()[1].strip()) == (2, rule)
        assert run(capsys, "fc-check", path)[:2] == (
            1, f"forward-closed: no ({rule})\n")

    def test_fc_check_witness_is_the_first_rule_fc_adds(self, write, capsys):
        # forward-closedness is decided once: the witness is `fc`'s first
        # NR1 line, and a closed system is one whose NR1 is empty
        from lmtk.minsky import encode
        from lmtk.trs_format import render_trs
        sources = sweep_sources(range(100))
        sources.update({f"encoded_{name}": render_trs(encode(m, k, p).theory)
                        for name, (m, k, p) in MACHINE_STARTS.items()})
        witnesses = 0
        for name, text in sources.items():
            path = write(f"{name}.trs", text)
            fc_out = run(capsys, "fc", path, "--fc-max-gen", "1")[1]
            header, first = fc_out.splitlines()[:2]
            expected = ((0, "forward-closed: yes\n")
                        if header.startswith("NR1: 0 ")
                        else (1, f"forward-closed: no ({first.strip()})\n"))
            assert run(capsys, "fc-check", path)[:2] == expected, name
            witnesses += expected[0]
        assert witnesses > 0


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
        # `--json` is a flag of the action, so it follows the action
        assert run(capsys, "minsky", "--json", "validate", path)[0] == 3

    @pytest.mark.parametrize("action", ["validate", "simulate", "encode",
                                        "cap"])
    def test_a_repeated_state_exits_3(self, write, capsys, action):
        path = write("m.mm", "states: q0 q0 qL\ninitial: q0\nfinal: qL\n"
                             "q0 1 + qL\n")
        code, out, err = run(capsys, "minsky", action, path)
        assert (code, out) == (3, "")
        assert err == "error: state q0 declared twice\n"

    @pytest.mark.parametrize("action", ["validate", "simulate", "encode",
                                        "cap"])
    def test_a_transition_out_of_the_final_state_exits_3(self, write, capsys,
                                                         action):
        path = write("m.mm", "states: q0 qL\ninitial: q0\nfinal: qL\n"
                             "q0 1 + qL\nqL 1 + q0\n")
        code, out, err = run(capsys, "minsky", action, path)
        assert (code, out) == (3, "")
        assert err == "error: transition qL 1 + q0 leaves the final state qL\n"

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

    def test_cap_miss_reads_as_the_cap_subcommand_does(self, write, capsys):
        path = write("m.mm", render_machine(TINY_MACHINE))
        code, out, err = run(capsys, "minsky", "cap", path,
                             "--max-rounds", "2")
        assert (code, err) == (2, "")
        assert out == ("canonical cap: gp(g(gp(f_qL(f_q1(f_q0(hole1))))))\n"
                       "no cap within bounds (rounds 2, 75 terms deduced)\n")

    def test_cap_simulates_the_run_once(self, write, capsys, monkeypatch):
        # the canonical cap line and `encode`'s halting counters come from
        # one run
        from lmtk import minsky
        simulate, calls = minsky.simulate, []

        def spy(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate", spy)
        monkeypatch.setattr(minsky, "simulate", spy)
        path = write("m.mm", render_machine(TINY_MACHINE))
        code, out, _ = run(capsys, "minsky", "cap", path)
        assert code == 0
        assert out.startswith("canonical cap: ")
        assert len(calls) == 1

    @pytest.mark.parametrize("action, counter", [
        ("encode", ("--kp", "7")), ("encode", ("--pp", "4")),
        ("cap", ("--kp", "7")), ("cap", ("--pp", "4")),
    ])
    def test_one_halting_counter_is_usage_error(self, write, capsys, action,
                                                counter):
        # the finalize rule needs both counters; one is never dropped
        path = write("m.mm", render_machine(TINY_MACHINE))
        assert run(capsys, "minsky", action, path, *counter) == (
            3, "", "error: give both halting counters kp and pp, or "
                   "neither\n")

    def test_cap_on_a_run_that_does_not_halt(self, write, capsys):
        # without final counters the run must halt; `encode` says so
        path = write("m.mm", render_machine(TINY_MACHINE))
        assert run(capsys, "minsky", "cap", path, "--max-steps", "1") == (
            3, "", "error: machine did not halt; supply kp/pp explicitly\n")

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

    @pytest.mark.parametrize("fuel, message", [
        ("0", "fuel exhausted after 0 steps"),
        ("1", "term outgrew 5000 nodes after 1 steps")])
    def test_a_start_term_over_the_size_bound(self, write, capsys, fuel,
                                              message):
        # g^5000(a) has 5001 nodes; its one step, a -> b, keeps the size
        path = write("ab.trs", "sig: a/0 b/0 g/1\nrules:\n  a -> b\n")
        code, out, err = run(capsys, "normalize", path,
                             "g(" * 5000 + "a" + ")" * 5000, "--fuel", fuel)
        assert (code, out) == (2, "")
        assert err.strip() == message


class TestUsage:
    def test_no_command(self, capsys):
        assert run_command([]) == 3

    @pytest.mark.parametrize("argv", [
        ("check", "--depth", "0"),
        ("collapse", "--depth", "0"),
        ("fc", "--fc-max-gen", "-1"),
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

    @pytest.mark.parametrize("command", [
        "fc", "fc-check", "rhs", "cps", "nosup",
        *(f"minsky {action} {flag}" for action, flags in [
            ("validate", "--k --p --kp --pp --max-steps --max-size "
                         "--max-rounds --fuel"),
            ("simulate", "--kp --pp --max-size --max-rounds --fuel"),
            ("encode", "--max-size --max-rounds --fuel"),
        ] for flag in flags.split()),
    ])
    def test_fuel_on_a_command_that_never_rewrites(self, write, capsys,
                                                   command):
        # `--fuel`, or a `minsky` flag the action does not read, is a usage
        # error rather than ignored
        if command.startswith("minsky"):
            *head, flag = command.split()
            path = write("m.mm", render_machine(TINY_MACHINE))
        else:
            head, flag = [command], "--fuel"
            path = write("full.trs", ROOT_OVERLAP)
        code, out, err = run(capsys, *head, path, flag, "7")
        assert (code, out) == (3, "")
        assert f"unrecognized arguments: {flag} 7" in err

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

    @pytest.mark.parametrize("rhs", ["a", "g(a)"])
    @pytest.mark.parametrize("command", ["cps", "nosup", "rhs", "fc",
                                         "fc-check"])
    def test_rule_deeper_than_the_recursion_limit(self, write, capsys,
                                                   command, rhs):
        # overlap search renames the rule apart from itself
        n = 3 * sys.getrecursionlimit()
        path = write("deep.trs", "sig: a/0 f/1 g/1\nvars: x\nrules:\n  g("
                     + "f(" * n + "x" + ")" * n + ") -> " + rhs + "\n")
        code, out, err = run(capsys, command, path)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv, want", [
        (["normalize", "g(a)"], 0), (["reduce"], 0), (["collapse"], 2),
        (["cap", "--knowledge", "g(a)", "--goal", "f(a)"], 2), (["fc"], 0),
        (["fc-check"], 1)], ids=["normalize", "reduce", "collapse", "cap",
                                 "fc", "fc-check"])
    def test_rhs_deeper_than_the_recursion_limit(self, write, capsys, argv,
                                                 want):
        # every step and composition instantiates the deep rhs
        n = 3 * sys.getrecursionlimit()
        path = write("deep.trs", "sig: a/0 f/1 g/1 h/1\nvars: x y\nrules:\n"
                     "  h(x) -> g(x)\n  g(y) -> " + "f(" * n + "y" + ")" * n
                     + "\n")
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == want
        # collapse meets a term whose normal form outgrows the size bound
        if argv[0] == "collapse":
            assert err.startswith("term outgrew 5000 nodes after ")
        else:
            assert err == ""

    def test_cap_deeper_than_the_recursion_limit(self, write, capsys):
        # the cap is built from a construction as deep as the goal, and
        # a recursive build takes two frames per level
        n = sys.getrecursionlimit()
        path = write("k.trs", "sig: k/0 f/1\n")
        code, out, err = run(capsys, "cap", path, "--knowledge", "k",
                             "--goal", "f(" * n + "k" + ")" * n,
                             "--max-size", str(n + 1),
                             "--max-rounds", str(n + 1))
        assert (code, out, err) == (
            0, "cap: " + "f(" * n + "hole1" + ")" * n + "\n", "")

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
