"""Counter machines: validation, simulation, encoding, caps."""

import bisect
import heapq
import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from lmtk import minsky
from lmtk.minsky import (
    COUNTER_OPS,
    TUPLE_BUDGET_PER_ITEM,
    Cap,
    CapInstance,
    CapSearchResult,
    Config,
    MinskyMachine,
    Transition,
    canonical_cap,
    cap_search,
    encode,
    parse_machine,
    simulate,
    validate_machine,
)
from lmtk.rewriting import (
    DEFAULT_FUEL,
    FuelExhausted,
    NormalForms,
    apply_rule,
    nf,
)
from lmtk.terms import App, Term, Var, enumerate_terms, render_term, term_size
from lmtk.trs_format import parse_term, render_trs, parse_trs

from conftest import (
    BRANCHING_MACHINE,
    SINGLE_STEP_MACHINE,
    TINY_MACHINE,
    render_machine,
)
from random_systems import random_system

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import cap_bounds  # noqa: E402


class TestValidate:
    def test_disjoint_states_pass(self):
        assert validate_machine(TINY_MACHINE) == (True, None)

    def test_zero_positive_pair_allowed(self):
        m = MinskyMachine(("q0", "q1", "q2", "qL"), "q0", "qL",
                          (Transition("q0", 1, "Z", "q1"),
                           Transition("q0", 1, "P", "q2")))
        assert validate_machine(m)[0]

    def test_shared_source_different_counters_rejected(self):
        m = MinskyMachine(("q0", "q1", "q2", "qL"), "q0", "qL",
                          (Transition("q0", 1, "+", "q1"),
                           Transition("q0", 2, "+", "q2")))
        ok, witness = validate_machine(m)
        assert not ok and witness is not None

    def test_shared_target_rejected(self):
        m = MinskyMachine(("q0", "q1", "qL"), "q0", "qL",
                          (Transition("q0", 1, "+", "qL"),
                           Transition("q1", 1, "-", "qL")))
        assert not validate_machine(m)[0]


class TestSimulate:
    def test_tiny_machine_two_steps(self):
        run = simulate(TINY_MACHINE, Config("q0", 0, 0))
        assert run.halted
        assert run.final_config == Config("qL", 2, 0, 2)

    @pytest.mark.parametrize("counters", [(-2, 0, 0), (0, -1, 0), (0, 0, -1)])
    def test_negative_counter_rejected(self, counters):
        # with c1 = -2 the tiny machine used to "halt" at qL with c1 = 0
        with pytest.raises(ValueError, match="0 or more"):
            simulate(TINY_MACHINE, Config("q0", *counters))

    def test_start_at_final(self):
        run = simulate(TINY_MACHINE, Config("qL", 0, 0))
        assert run.halted and run.transitions == []

    def test_loop_hits_step_bound(self):
        m = MinskyMachine(("q0", "qL"), "q0", "qL",
                          (Transition("q0", 1, "0", "q0"),))
        run = simulate(m, Config("q0", 0, 0), max_steps=7)
        assert not run.halted and run.step_count == 7

    def test_branching_run(self):
        run = simulate(BRANCHING_MACHINE, Config("q0", 1, 0))
        assert run.halted
        assert run.final_config == Config("qL", 0, 0, 3)
        assert [t.op for t in run.transitions] == ["P", "-", "Z"]

    def test_decrement_disabled_on_zero(self):
        m = MinskyMachine(("q0", "qL"), "q0", "qL",
                          (Transition("q0", 1, "-", "qL"),))
        run = simulate(m, Config("q0", 0, 0))
        assert not run.halted  # stuck, never reaches the final state


class TestMachineFormat:
    def test_a_repeated_state_is_rejected(self):
        # unchecked, it passes `validate` and fails `encode` on a symbol
        # f_q0 that the machine file never names
        with pytest.raises(ValueError, match="^state q0 declared twice$"):
            parse_machine("states: q0 q0 qL\ninitial: q0\nfinal: qL\n"
                          "q0 1 + qL\n")

    def test_a_transition_out_of_the_final_state_is_rejected(self):
        # unchecked, it passes `validate` and its rule overlaps the
        # finalize rule at the root, so the encoding is not confluent
        with pytest.raises(ValueError, match="^transition qL 1 \\+ q0 leaves "
                                             "the final state qL$"):
            parse_machine("states: q0 qL\ninitial: q0\nfinal: qL\n"
                          "q0 1 + qL\nqL 1 + q0\n")

    def test_round_trip(self):
        text = render_machine(BRANCHING_MACHINE)
        assert parse_machine(text) == BRANCHING_MACHINE

    def test_parse_rejects_bad_op(self):
        with pytest.raises(ValueError):
            parse_machine("states: q0 qL\ninitial: q0\nfinal: qL\nq0 1 * qL\n")


class TestEncode:
    def test_tiny_machine_rules(self):
        inst = encode(TINY_MACHINE, 0, 0, 2, 0)
        rendered = {f"{render_term(r.lhs)} -> {render_term(r.rhs)}"
                    for r in inst.theory.rules}
        assert rendered == {
            "f_qL(c(qL,s(s(0)),0,z)) -> g(c(e,0,0,z))",
            "gp(g(c(e,0,0,s(z)))) -> c(e,0,0,z)",
            "f_q0(c(q0,x,y,z)) -> c(q1,s(x),y,s(z))",
            "f_q1(c(q1,x,y,z)) -> c(qL,s(x),y,s(z))",
        }

    def test_goal_is_fixed(self):
        inst = encode(TINY_MACHINE, 0, 0)
        assert render_term(inst.goal) == "c(e,0,0,0)"

    def test_knowledge_encodes_counters(self):
        inst = encode(TINY_MACHINE, 1, 2, 3, 0)
        assert render_term(inst.knowledge[0]) == "c(q0,s(0),s(s(0)),0)"

    def test_simulate_first_convenience(self):
        explicit = encode(TINY_MACHINE, 0, 0, 2, 0)
        inferred = encode(TINY_MACHINE, 0, 0)
        assert explicit.theory == inferred.theory

    def test_branch_ops_encoded(self):
        inst = encode(BRANCHING_MACHINE, 1, 0)
        rendered = {f"{render_term(r.lhs)} -> {render_term(r.rhs)}"
                    for r in inst.theory.rules}
        assert "f_q0(c(q0,s(x),y,z)) -> c(q1,s(x),y,s(z))" in rendered   # P
        assert "fp_q0(c(q0,0,y,z)) -> c(qL,0,y,s(z))" in rendered        # Z
        assert "f_q1(c(q1,s(x),y,z)) -> c(q0,x,y,s(z))" in rendered      # -

    def test_invalid_machine_rejected(self):
        m = MinskyMachine(("q0", "q1", "q2", "qL"), "q0", "qL",
                          (Transition("q0", 1, "+", "q1"),
                           Transition("q0", 2, "+", "q2")))
        with pytest.raises(ValueError):
            encode(m, 0, 0, 0, 0)

    @pytest.mark.parametrize("counters", [(-2, 0, None, None), (0, -1, None, None),
                                          (0, 0, -1, 0), (0, 0, 2, -1)])
    def test_negative_counter_rejected(self, counters):
        with pytest.raises(ValueError, match="0 or more"):
            encode(TINY_MACHINE, *counters)

    @pytest.mark.parametrize("counters", [{"kp": 3}, {"pp": 3}])
    def test_one_halting_counter_rejected(self, counters):
        with pytest.raises(ValueError, match="both halting counters"):
            encode(TINY_MACHINE, 0, 0, **counters)

    def test_encoding_parses_back(self):
        inst = encode(BRANCHING_MACHINE, 1, 0)
        assert parse_trs(render_trs(inst.theory)) == inst.theory

    def test_states_named_like_the_variables_parse_back(self):
        # the tiny machine with states x y z: its variables move away
        m = MinskyMachine(("x", "y", "z"), "x", "z",
                          (Transition("x", 1, "+", "y"),
                           Transition("y", 1, "+", "z")))
        inst = encode(m, 0, 0)
        assert inst.theory.variables == ("x1", "y1", "z1")
        assert parse_trs(render_trs(inst.theory)) == inst.theory
        res = cap_search(inst, 30, 12)
        run = simulate(m, Config("x", 0, 0))
        assert str(res.cap) == str(canonical_cap(m, run, inst))
        assert str(res.cap) == "gp(g(gp(f_z(f_y(f_x(hole1))))))"

    @pytest.mark.parametrize("states, clash", [
        (("c", "qL"), "state c clashes with the encoding: both need the "
                      "symbol c"),
        (("q0", "gp"), "state gp clashes with the encoding"),
        (("q0", "f_q0"), "state f_q0 clashes with state q0: both need the "
                         "symbol f_q0"),
        (("fp_qL", "qL"), "state qL clashes with state fp_qL")])
    def test_a_state_named_like_an_encoding_symbol_is_rejected(
            self, states, clash):
        m = MinskyMachine(states, states[0], states[1],
                          (Transition(states[0], 1, "+", states[1]),))
        with pytest.raises(ValueError, match=clash):
            encode(m, 0, 0)

    def test_valid_machines_encode_distinct_left_sides(self):
        # two transitions share a source only as a Z/P pair on one counter,
        # which encodes under fp_q and f_q: no rule is encoded twice. No
        # transition leaves the final state qL
        states = ("q0", "q1", "qL")
        moves = [Transition(q, j, op, r) for q in states[:2] for j in (1, 2)
                 for op in COUNTER_OPS for r in states]
        machines = [MinskyMachine(states, "q0", "qL", ts) for n in (1, 2)
                    for ts in itertools.combinations(moves, n)]
        valid = [m for m in machines if validate_machine(m)[0]]
        assert len(valid) == 708
        for m in valid:
            lhss = [r.lhs for r in encode(m, 0, 0, 0, 0).theory.rules]
            assert len(set(lhss)) == len(lhss), m


class TestCanonicalCap:
    def test_tiny_machine_shape(self):
        inst = encode(TINY_MACHINE, 0, 0)
        run = simulate(TINY_MACHINE, Config("q0", 0, 0))
        cap = canonical_cap(TINY_MACHINE, run, inst)
        assert str(cap) == "gp(g(gp(f_qL(f_q1(f_q0(hole1))))))"

    def test_single_step_shape(self):
        inst = encode(SINGLE_STEP_MACHINE, 0, 0)
        run = simulate(SINGLE_STEP_MACHINE, Config("q0", 0, 0))
        cap = canonical_cap(SINGLE_STEP_MACHINE, run, inst)
        assert str(cap) == "gp(f_qL(f_q0(hole1)))"

    def test_zero_test_uses_primed_symbol(self):
        inst = encode(BRANCHING_MACHINE, 1, 0)
        run = simulate(BRANCHING_MACHINE, Config("q0", 1, 0))
        cap = canonical_cap(BRANCHING_MACHINE, run, inst)
        assert "fp_q0" in str(cap)

    def test_plug_normalizes_to_goal(self):
        for machine, k, p in [(TINY_MACHINE, 0, 0), (BRANCHING_MACHINE, 1, 0),
                              (SINGLE_STEP_MACHINE, 0, 0)]:
            inst = encode(machine, k, p)
            run = simulate(machine, Config(machine.initial, k, p))
            cap = canonical_cap(machine, run, inst)
            assert nf(inst.theory, cap.plug()) == inst.goal

    def test_unhalted_run_rejected(self):
        m = MinskyMachine(("q0", "qL"), "q0", "qL",
                          (Transition("q0", 1, "0", "q0"),))
        inst = encode(m, 0, 0, 0, 0)
        run = simulate(m, Config("q0", 0, 0), max_steps=5)
        with pytest.raises(ValueError):
            canonical_cap(m, run, inst)


class TestStepCounterFidelity:
    def test_term_chain_matches_configs(self):
        # applying the encoded rule for each transition reproduces the
        # simulator's configuration including the step counter
        for machine, k, p in [(TINY_MACHINE, 0, 0), (BRANCHING_MACHINE, 1, 0)]:
            inst = encode(machine, k, p)
            theory = inst.theory
            run = simulate(machine, Config(machine.initial, k, p))
            term = inst.knowledge[0]
            for cfg, tr in zip(run.configs[1:], run.transitions):
                head = ("fp_" if tr.op == "Z" else "f_") + tr.source
                from lmtk.terms import App
                wrapped = App(theory.symbol(head), (term,))
                rule = theory.rule(f"t{machine.transitions.index(tr) + 1}")
                stepped = apply_rule(rule, wrapped, ())
                assert stepped is not None
                term = stepped[0]
                expect = "c({},{},{},{})".format(
                    cfg.state,
                    "s(" * cfg.c1 + "0" + ")" * cfg.c1,
                    "s(" * cfg.c2 + "0" + ")" * cfg.c2,
                    "s(" * cfg.steps + "0" + ")" * cfg.steps)
                assert render_term(term) == expect


class TestCapSearch:
    def test_tiny_machine_finds_canonical_cap(self):
        inst = encode(TINY_MACHINE, 0, 0)
        res = cap_search(inst, 30, 12)
        assert res.found
        assert nf(inst.theory, res.cap.plug()) == inst.goal

    def test_goal_in_knowledge_gives_bare_hole(self):
        inst = encode(TINY_MACHINE, 0, 0)
        trivial = type(inst)(inst.theory, (inst.goal,), inst.goal)
        res = cap_search(trivial, 10, 3)
        assert res.found
        assert str(res.cap) == "hole1"

    def test_a_constant_named_knowledge_is_public(self):
        # read as a knowledge leaf, the constant `knowledge` became a
        # second hole, and the plug h(g(k),g(k)) is normal
        trs = parse_trs("sig: h/2 g/1 knowledge/0 k/0 b/0\nvars: x\n"
                        "rules:\n  h(x, knowledge) -> b\n")
        inst = CapInstance(trs, (parse_term("g(k)", trs),),
                           parse_term("b", trs))
        res = compared_with_reference(inst, max_term_size=6, max_rounds=4)
        assert str(res.cap) == "h(hole1,knowledge)"
        assert nf(trs, res.cap.plug()) == inst.goal

    def test_holes_are_numbered_in_pre_order(self):
        # the knowledge terms take four rounds to build from public
        # symbols, more than the bound, so each leaf of the goal is a hole
        trs = parse_trs("sig: f/2 g/1 a/0 b/0\n")
        k1, k2 = parse_term("g(g(g(a)))", trs), parse_term("g(g(g(b)))", trs)
        inst = CapInstance(trs, (k1, k2), App(trs.symbol("f"), (
            k2, App(trs.symbol("f"), (k1, k2)))))
        res = compared_with_reference(inst, max_term_size=20, max_rounds=3)
        assert str(res.cap) == "f(hole1,f(hole2,hole3))"
        assert [t for _, t in res.cap.assignment] == [k2, k1, k2]

    def test_public_only_construction_is_not_a_cap(self):
        # the goal is buildable from public symbols alone; that must not
        # count, otherwise every instance would be trivially solvable
        inst = encode(TINY_MACHINE, 0, 0)
        unreachable = type(inst)(
            inst.theory,
            (parse_term("c(q1,0,0,0)", inst.theory),),  # wrong start state
            inst.goal)
        res = cap_search(unreachable, 20, 6, max_apps=20_000)
        assert not res.found

    def test_longer_run_with_raised_bounds(self):
        # a 7-step run needs construction height 22; raising the bounds
        # must recover exactly the canonical cap, quickly
        run = simulate(BRANCHING_MACHINE, Config("q0", 3, 0))
        assert run.halted and run.step_count == 7
        inst = encode(BRANCHING_MACHINE, 3, 0)
        res = cap_search(inst, max_term_size=60, max_rounds=40,
                         max_apps=100_000)
        assert res.found
        assert str(res.cap) == str(canonical_cap(BRANCHING_MACHINE, run, inst))
        assert nf(inst.theory, res.cap.plug()) == inst.goal

    def test_pruned_search_is_not_complete(self):
        # the only cap, f^5(hole), outgrows both bounds; dropping it is a
        # bounded miss, never a complete one
        trs = parse_trs("sig: f/1 k/0 b/0\nrules:\n  f(f(f(f(f(k))))) -> b\n")
        inst = CapInstance(trs, (parse_term("k", trs),), parse_term("b", trs))
        for bounds in (dict(max_term_size=4), dict(max_rounds=3)):
            res = cap_search(inst, **bounds)
            assert (res.found, res.complete) == (False, False), bounds

    def test_untainted_application_of_a_knowledge_term_is_not_complete(self):
        # k is both knowledge and a public constant, and f(b,hole1) is a
        # cap; but k is popped before b, so f(b,k) is only built from the
        # public k, and the search must not call its miss complete
        trs = parse_trs("sig: k/0 b/0 f/2\nvars: x y z\nrules:\n"
                        "  f(f(x,y),z) -> k\n  f(x,f(y,z)) -> k\n")
        inst = CapInstance(trs, (parse_term("k", trs),),
                           parse_term("f(b,k)", trs))
        res = cap_search(inst)
        assert res.found or not res.complete

    def test_non_halting_machine_reports_bounds(self):
        m = MinskyMachine(("q0", "qL"), "q0", "qL",
                          (Transition("q0", 1, "+", "q0"),))
        assert validate_machine(m)[0]  # a lone self-loop is a valid pair-set
        inst = encode(m, 0, 0, kp=0, pp=0)
        res = cap_search(inst, 20, 8, max_apps=15_000)
        assert not res.found
        assert not res.complete

    def test_a_probe_that_is_no_root_redex_builds_no_term(self, monkeypatch):
        # every App built outside normalization is a query of `nf` or a
        # node of the cap: a probe that cannot rewrite at the root is
        # decided from its argument's root symbol or by `is_root_redex`,
        # and never built
        inst = encode(TINY_MACHINE, 0, 0)
        built, queries, inside, rejected = [], [], [], []
        init, is_root_redex = App.__init__, minsky.is_root_redex

        def counting(self, *args):
            if not inside:
                built.append(self)
            init(self, *args)

        class Counting(NormalForms):
            def __call__(self, u):
                queries.append(u)
                inside.append(u)
                try:
                    return super().__call__(u)
                finally:
                    inside.pop()

        def probe(trs, sym, args):
            hit = is_root_redex(trs, sym, args)
            rejected.append(not hit)
            return hit
        monkeypatch.setattr(App, "__init__", counting)
        monkeypatch.setattr(minsky, "NormalForms", Counting)
        monkeypatch.setattr(minsky, "is_root_redex", probe)
        res = cap_search(inst, 30, 12)
        monkeypatch.undo()
        assert res.found
        # the goal and the knowledge term were built before the search
        applications = len(queries) - 1 - len(inst.knowledge)
        cap_nodes = term_size(res.cap.body) - len(res.cap.assignment)
        assert len(built) <= applications + cap_nodes

        # every probe is charged, built or not, so the least budget that
        # finds the cap counts them all
        def found_within(n):
            return cap_search(inst, 30, 12, max_apps=n).found
        charged = bisect.bisect_left(range(1000), True, key=found_within)
        assert found_within(charged) and not found_within(charged - 1)
        # the probes charged without a build, many more than the
        # applications: most dropped on the argument's root symbol, the
        # rest rejected by `is_root_redex`
        assert (applications, charged - applications) == (92, 359)
        assert (charged - applications - sum(rejected), sum(rejected)) \
            == (355, 4)

    def test_derivation_terms_are_deduced_normal_forms(self):
        inst = encode(TINY_MACHINE, 0, 0)
        res = cap_search(inst, 30, 12)
        assert res.derivation[-1].term == inst.goal
        for ded in res.derivation:
            assert nf(inst.theory, ded.term) == ded.term

    def test_halt_step_identifies_halting_configuration(self):
        # the finalize application inside a found derivation names exactly
        # the configuration the simulator halts in, step counter included
        for machine, k, p in [(TINY_MACHINE, 0, 0), (BRANCHING_MACHINE, 1, 0)]:
            inst = encode(machine, k, p)
            res = cap_search(inst, 30, 12)
            assert res.found
            run = simulate(machine, Config(machine.initial, k, p))
            halt_steps = [d for d in res.derivation
                          if d.via == f"f_{machine.final}"]
            assert len(halt_steps) == 1
            config_term = halt_steps[0].parents[0][0]
            cfg = run.final_config
            expect = "c({},{},{},{})".format(
                cfg.state,
                "s(" * cfg.c1 + "0" + ")" * cfg.c1,
                "s(" * cfg.c2 + "0" + ")" * cfg.c2,
                "s(" * cfg.steps + "0" + ")" * cfg.steps)
            assert render_term(config_term) == expect




@dataclass
class ReferenceDeduction:
    term: Term
    via: str
    parents: tuple[tuple[Term, bool], ...] = ()
    knowledge_index: int = -1


def reference_cap_search(instance, max_term_size=30, max_rounds=12,
                         fuel=DEFAULT_FUEL, max_apps=60_000):
    """The differential oracle: `cap_search` as it was with the heights
    in a `depth` dict, a hand copy of the application step for the
    inert-wrap probe, and the stop test in every loop."""
    theory = instance.theory
    goal = instance.goal
    nf = NormalForms(theory, fuel)
    known: dict[Term, dict[bool, ReferenceDeduction]] = {}
    depth: dict[tuple[Term, bool], int] = {}
    heap: list[tuple[int, int, int, Term, bool]] = []
    processed: list[Term] = []
    processed_seen: set[Term] = set()
    seq = itertools.count()
    found = False
    complete = True
    apps = 0

    def admit(term, tainted, ded, d, rewrote):
        nonlocal found, complete
        if term_size(term) > max_term_size or d > max_rounds:
            complete = False
            return
        slot = known.setdefault(term, {})
        if tainted in slot:
            return
        slot[tainted] = ded
        depth[(term, tainted)] = d
        heapq.heappush(heap, (0 if rewrote else 1, 0 if tainted else 1,
                              next(seq), term, tainted))
        if tainted and term == goal:
            found = True

    for i, kt in enumerate(instance.knowledge):
        t = nf(kt)
        admit(t, True, ReferenceDeduction(t, "knowledge", (), i), 1, True)

    unary = [s for s in theory.symbols if s.arity == 1]
    wide = [s for s in theory.symbols if s.arity >= 2]
    for sym in theory.symbols:
        if sym.arity == 0 and not found and apps < max_apps:
            apps += 1
            t = App(sym)
            admit(nf(t), False, ReferenceDeduction(t, sym.name, ()), 1, False)

    def consider(sym, args, taints):
        nonlocal apps
        apps += 1
        raw = App(sym, args)
        t = nf(raw)
        tainted = any(taints)
        d = 1 + max(depth[(a, f)] for a, f in zip(args, taints))
        admit(t, tainted,
              ReferenceDeduction(t, sym.name, tuple(zip(args, taints))),
              d, t != raw)
        return t

    while heap and not found and apps < max_apps:
        _, _, _, t, tainted = heapq.heappop(heap)
        for sym in unary:
            if found or apps >= max_apps:
                break
            u = consider(sym, (t,), (tainted,))
            if u != App(sym, (t,)) or (u, tainted) not in depth:
                continue
            for sym2 in unary:
                if found or apps >= max_apps:
                    break
                apps += 1
                raw2 = App(sym2, (u,))
                t2 = nf(raw2)
                if t2 != raw2:
                    admit(t2, tainted,
                          ReferenceDeduction(t2, sym2.name, ((u, tainted),)),
                          depth[(u, tainted)] + 1, True)
        if t not in processed_seen:
            processed_seen.add(t)
            processed.append(t)
        for sym in wide:
            if found or apps >= max_apps:
                break
            budget = TUPLE_BUDGET_PER_ITEM
            for slot in range(sym.arity):
                if budget < 0 or found or apps >= max_apps:
                    break
                for rest in itertools.product(processed, repeat=sym.arity - 1):
                    budget -= 1
                    complete = complete and budget >= 0
                    if budget < 0 or found or apps >= max_apps:
                        break
                    args = rest[:slot] + (t,) + rest[slot:]
                    if 1 + sum(term_size(a) for a in args) > max_term_size:
                        complete = False
                        continue
                    taints = tuple(
                        tainted if i == slot
                        else (False if False in known[a] else True)
                        for i, a in enumerate(args))
                    consider(sym, args, taints)
    if not found and (heap or apps >= max_apps):
        complete = False

    if not found:
        max_depth = max(depth.values(), default=0)
        return CapSearchResult(None, [], max_depth, len(known), complete)

    derivation: list[ReferenceDeduction] = []
    assignment: list[tuple[str, Term]] = []
    counter = itertools.count(1)

    def build(t, taint_flag):
        ded = known[t][taint_flag]
        derivation.append(ded)
        if ded.knowledge_index >= 0:
            hole = f"hole{next(counter)}"
            assignment.append((hole, instance.knowledge[ded.knowledge_index]))
            return Var(hole)
        return App(theory.symbol(ded.via),
                   tuple(build(a, flag) for a, flag in ded.parents))

    body = build(goal, True)
    derivation.reverse()
    cap = Cap(body, tuple(assignment))
    return CapSearchResult(cap, derivation, depth[(goal, True)],
                           len(known), complete)


SELF_LOOP_MACHINE = MinskyMachine(("q0", "qL"), "q0", "qL",
                                  (Transition("q0", 1, "+", "q0"),))


def compared_with_reference(inst, **bounds):
    """Run both searches; the result must be the reference's, except that
    `complete` may turn from true to false. Returns the reference's, or
    None when both run out of fuel."""
    try:
        old = reference_cap_search(inst, **bounds)
    except FuelExhausted:
        with pytest.raises(FuelExhausted):
            cap_search(inst, **bounds)
        return None
    new = cap_search(inst, **bounds)

    def seen(res):
        return (str(res.cap) if res.found else None,
                [(d.term, d.via, d.parents) for d in res.derivation],
                res.rounds_used, res.deduced)
    assert seen(new) == seen(old)
    assert new.complete <= old.complete
    return old


class TestReferenceCapSearch:
    @pytest.mark.parametrize("machine", [BRANCHING_MACHINE, TINY_MACHINE,
                                         SELF_LOOP_MACHINE],
                             ids=["branching", "tiny", "self_loop"])
    def test_encoded_machines(self, machine):
        for k, p in itertools.product(range(7), range(3)):
            run = simulate(machine, Config(machine.initial, k, p))
            if run.halted:
                res = compared_with_reference(
                    encode(machine, k, p), **cap_bounds(run.step_count, k))
                assert res.found, (k, p)
            else:
                res = compared_with_reference(
                    encode(machine, k, p, kp=0, pp=0), max_term_size=20,
                    max_rounds=8, max_apps=15_000)
                assert not res.found, (k, p)

    @pytest.mark.parametrize("machine, k, last", [
        (TINY_MACHINE, 0, 420), (BRANCHING_MACHINE, 2, 300),
        (SELF_LOOP_MACHINE, 0, 300)], ids=["tiny", "branching", "self_loop"])
    def test_every_application_budget(self, machine, k, last):
        # each application, a probe dropped before `nf` too, spends one
        # unit of `max_apps`, so every budget stops both searches at the
        # same point; the tiny machine's cap is found at 409
        run = simulate(machine, Config(machine.initial, k, 0))
        if run.halted:
            inst, bounds = encode(machine, k, 0), cap_bounds(run.step_count, k)
        else:
            inst = encode(machine, k, 0, kp=0, pp=0)
            bounds = dict(max_term_size=20, max_rounds=8)
        found = [compared_with_reference(inst, **{**bounds, "max_apps": n})
                 .found for n in range(1, last + 1)]
        assert found == sorted(found)
        assert found[-1] == (machine is TINY_MACHINE)

    def test_random_systems(self):
        # a constant as knowledge, small normal terms as goals
        outcomes = set()
        for seed in range(200):
            trs = random_system(random.Random(seed))
            if trs is None:
                continue
            knowledge = next(App(s) for s in trs.symbols if s.arity == 0)
            goals = [t for t in itertools.islice(
                         enumerate_terms(trs.symbols, (), 2), 12)
                     if is_normal(trs, t)]
            for goal in goals[:4]:
                res = compared_with_reference(
                    CapInstance(trs, (knowledge,), goal), max_term_size=8,
                    max_rounds=5, max_apps=3_000, fuel=50)
                outcomes.add(res and (res.found, res.complete))
        assert {(True, True), (False, False), None} <= outcomes


def is_normal(trs, t: Term) -> bool:
    try:
        return nf(trs, t, 50) == t
    except FuelExhausted:
        return False
