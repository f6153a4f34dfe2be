"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Bounded checks state their bounds; every tolerance is pinned here.
"""

from __future__ import annotations

import time

from lmtk.checker import (
    CheckOptions,
    almost_left_reduce,
    check_confluence,
    check_termination,
    is_quasi_deterministic,
    lm_verdict,
    right_reduce,
)
from lmtk.closure import fc_iterate, is_forward_closed
from lmtk.minsky import (
    Config,
    canonical_cap,
    cap_search,
    encode,
    encoding_precedence,
    simulate,
    validate_machine,
)
from lmtk.overlaps import rhs_closure
from lmtk.rewriting import apply_rule, enumeration_variables, nf, normalize
from lmtk.terms import App, enumerate_terms, render_term, subterm_at
from lmtk.trs_format import parse_trs

from conftest import (
    BRANCHING_MACHINE,
    DUPLICATING,
    ROOT_OVERLAP,
    ROOT_OVERLAP_TRUNCATED,
    TINY_MACHINE,
    UNARY_CHAIN,
    corpus_systems,
    has_violation,
    odp,
)
from one_step import innermost_one_step_check, is_reducible
from random_systems import convergent_quasi_deterministic_corpus

SEED = 20260808


def verdict(number: int, slug: str, violations: list) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"acceptance {number:02d} {slug}: {status}")
    assert not violations, violations[:5]


def enumerate_pool(trs, depth, cap):
    vars_ = enumeration_variables(trs)
    pool = []
    for t in enumerate_terms(trs.symbols, vars_, depth):
        pool.append(t)
        if len(pool) >= cap:
            break
    return pool


def applicable_corpus():
    """Corpus systems that are certified convergent and forward-closed
    (the hypotheses of the reduction transforms)."""
    out = []
    for name, trs, opts in corpus_systems():
        if not check_termination(trs, opts.precedence).ok:
            continue
        if not check_confluence(trs).ok:
            continue
        if not is_forward_closed(trs)[0]:
            continue
        out.append((name, trs, opts))
    return out


def test_01_unary_chain_system_is_lm():
    violations = []
    report = lm_verdict(parse_trs(UNARY_CHAIN))
    if report.verdict != "pass":
        violations.append(report.summary())
    col = report.condition("non-subterm-collapsing")
    if not (col.bounded and report.collapse_depth >= 5):
        violations.append(f"collapse bound: {col.detail}")
    for c in report.consequences:
        if c.verdict != "pass":
            violations.append(f"consequence {c.name}: {c.detail}")
    if not report.consequences:
        violations.append("consequence suite did not run")
    verdict(1, "single unary chain rule is an LM system", violations)


def test_02_duplicating_rule_fails_with_rhs_witness():
    violations = []
    report = lm_verdict(parse_trs(DUPLICATING))
    if report.verdict != "fail":
        violations.append(report.summary())
    qd = report.condition("rhs quasi-deterministic")
    if qd.verdict != "fail":
        violations.append("quasi-determinism did not fail")
    if "root-stable" not in qd.detail or "f(x,x) = f(x1,x1)" not in qd.detail:
        violations.append(f"witness not cited: {qd.detail}")
    closure = rhs_closure(parse_trs(DUPLICATING))
    if "f(x,x) = f(x1,x1)" not in {str(e) for e in closure}:
        violations.append("closure lacks the duplicated-variable equation")
    verdict(2, "duplicating rule fails on its rhs closure", violations)


def test_03_root_overlap_forward_closure_roundtrip():
    violations = []
    full = parse_trs(ROOT_OVERLAP)
    trunc = parse_trs(ROOT_OVERLAP_TRUNCATED)

    ok, _ = is_forward_closed(full)
    if not ok:
        violations.append("full system not forward-closed")
    rep = innermost_one_step_check(full, depth=3)
    if not rep.ok:
        violations.append(f"one-step check failed: {rep.witness}")

    ok2, wit2 = is_forward_closed(trunc)
    if ok2 or render_term(wit2.rule.lhs) != "f(b,i(b))":
        violations.append("truncated system should fail with f(b,i(b))")
    rep2 = innermost_one_step_check(trunc, depth=3)
    if rep2.ok or render_term(rep2.witness) != "f(b,i(b))":
        violations.append(f"one-step witness: {rep2.witness}")

    trace = fc_iterate(trunc)
    gen1 = trace.new_rules[0] if trace.new_rules else []
    regenerated = [(render_term(c.rule.lhs), render_term(c.rule.rhs))
                   for c in gen1]
    if regenerated != [("f(b,i(b))", "c")]:
        violations.append(f"NR1 = {regenerated}")
    if not trace.converged or trace.fixpoint_generation != 1:
        violations.append("iteration did not converge at generation 1")
    verdict(3, "root-overlap system forward closure roundtrip", violations)


def test_04_right_reduction_preserves_closure_and_normal_forms():
    violations = []
    systems = applicable_corpus()
    if len(systems) < 20:
        violations.append(f"only {len(systems)} applicable systems")
    exercised = 0
    for name, trs, opts in systems:
        reduced = right_reduce(trs)
        if reduced != trs:
            exercised += 1
        if not is_forward_closed(reduced)[0]:
            violations.append(f"{name}: right reduction broke closure")
        if right_reduce(reduced) != reduced:
            violations.append(f"{name}: right_reduce not idempotent")
        for t in enumerate_pool(trs, 4, 300):
            if nf(trs, t) != nf(reduced, t):
                violations.append(f"{name}: normal form of {render_term(t)}")
                break
    if exercised == 0:
        violations.append("no corpus system exercised the transform")
    verdict(4, "right reduction preserves closure and normal forms",
            violations)


def test_05_almost_left_reduction_preserves_semantics():
    violations = []
    systems = applicable_corpus()
    deleted_somewhere = False
    for name, trs, opts in systems:
        reduced, log = almost_left_reduce(trs)
        deleted_somewhere = deleted_somewhere or bool(log)
        for t in enumerate_pool(trs, 4, 300):
            if is_reducible(trs, t) != is_reducible(reduced, t):
                violations.append(f"{name}: irreducibility of {render_term(t)}")
                break
            if nf(trs, t) != nf(reduced, t):
                violations.append(f"{name}: normal form of {render_term(t)}")
                break
    full = parse_trs(ROOT_OVERLAP)
    same, log = almost_left_reduce(full)
    if log or same != full:
        violations.append("root overlaps must be exempt on the 3-rule system")
    if not deleted_somewhere:
        violations.append("no corpus system exercised a deletion")
    verdict(5, "almost-left reduction preserves semantics", violations)


def certified_systems():
    out = []
    for name, trs, opts in corpus_systems():
        report = lm_verdict(trs, opts)
        if report.verdict == "pass":
            out.append((name, trs, opts, report))
    return out


def test_06_consequence_suite_on_certified_systems():
    violations = []
    certified = certified_systems()
    if len(certified) < 10:
        violations.append(f"only {len(certified)} certified systems")
    for name, trs, opts, report in certified:
        for c in report.consequences:
            if c.verdict != "pass":
                violations.append(f"{name}/{c.name}: {c.detail}")
    verdict(6, "consequence suite clean on certified systems", violations)


def test_07_closure_quasi_determinism_fails_only_by_repetition():
    violations = []
    systems = convergent_quasi_deterministic_corpus(SEED, 200)
    if len(systems) < 200:
        violations.append(f"only {len(systems)} generated systems")
    failures = 0
    for trs in systems:
        report = is_quasi_deterministic(rhs_closure(trs))
        if report.ok:
            continue
        failures += 1
        if not has_violation(report, "root-pair-repetition"):
            violations.append(f"failure without repetition: {report.violations}")
        if has_violation(report, "variable-side"):
            violations.append(f"variable side appeared: {report.violations}")
    print(f"  (seed {SEED}: {len(systems)} systems, "
          f"{failures} closure failures, all by repetition)")
    verdict(7, "closure quasi-determinism fails only by root-pair repetition",
            violations)


def test_08_machine_pipeline_roundtrip():
    violations = []
    started = time.perf_counter()

    # first machine: two increments
    ok, _ = validate_machine(TINY_MACHINE)
    if not ok:
        violations.append("tiny machine invalid")
    run = simulate(TINY_MACHINE, Config("q0", 0, 0))
    if not (run.halted and run.final_config == Config("qL", 2, 0, 2)):
        violations.append(f"tiny run: {run.final_config}")
    inst = encode(TINY_MACHINE, 0, 0)
    report = lm_verdict(inst.theory, CheckOptions(
        precedence=encoding_precedence(TINY_MACHINE)))
    if report.verdict != "pass":
        violations.append(f"tiny encoding: {report.summary()}")

    cap = canonical_cap(TINY_MACHINE, run, inst)
    result, trace = normalize(inst.theory, cap.plug())
    if render_term(result) != "c(e,0,0,0)":
        violations.append(f"canonical cap normalized to {render_term(result)}")
    expected_chain = [
        ("t1", "c(q1,s(0),0,s(0))"),
        ("t2", "c(qL,s(s(0)),0,s(s(0)))"),
        ("halt", "g(c(e,0,0,s(s(0))))"),
        ("unwind", "c(e,0,0,s(0))"),
        ("unwind", "c(e,0,0,0)"),
    ]
    got_chain = [(s.rule_label,
                  render_term(subterm_at(s.target, s.position)))
                 for s in trace]
    if got_chain != expected_chain:
        violations.append(f"trace chain: {got_chain}")

    search = cap_search(inst, max_term_size=30, max_rounds=12)
    if not search.found:
        violations.append("cap search failed on tiny machine")
    elif nf(inst.theory, search.cap.plug()) != inst.goal:
        violations.append("searched cap does not reach the goal")

    # second machine: a zero/positive branch pair and a decrement
    ok2, _ = validate_machine(BRANCHING_MACHINE)
    if not ok2:
        violations.append("branching machine invalid")
    run2 = simulate(BRANCHING_MACHINE, Config("q0", 1, 0))
    if not (run2.halted and run2.final_config == Config("qL", 0, 0, 3)):
        violations.append(f"branching run: {run2.final_config}")
    inst2 = encode(BRANCHING_MACHINE, 1, 0)
    report2 = lm_verdict(inst2.theory, CheckOptions(
        precedence=encoding_precedence(BRANCHING_MACHINE)))
    if report2.verdict != "pass":
        violations.append(f"branching encoding: {report2.summary()}")
    cap2 = canonical_cap(BRANCHING_MACHINE, run2, inst2)
    if nf(inst2.theory, cap2.plug()) != inst2.goal:
        violations.append("branching canonical cap does not reach the goal")
    search2 = cap_search(inst2, max_term_size=30, max_rounds=12)
    if not search2.found:
        violations.append("cap search failed on branching machine")
    elif nf(inst2.theory, search2.cap.plug()) != inst2.goal:
        violations.append("branching searched cap does not reach the goal")

    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        violations.append(f"pipeline took {elapsed:.1f}s (budget 10s)")
    print(f"  (pipeline {elapsed:.2f}s)")
    verdict(8, "machine-to-cap pipeline roundtrip", violations)


def test_09_iterated_closure_fixpoints_are_closed():
    violations = []
    entries = corpus_systems()
    entries.append(("root_overlap_truncated",
                    parse_trs(ROOT_OVERLAP_TRUNCATED), CheckOptions()))
    fixpoints = 0
    for name, trs, opts in entries:
        trace = fc_iterate(trs, max_generations=16)
        if not trace.converged:
            continue
        fixpoints += 1
        closed = trs.with_rules(trace.final_rules())
        if not is_forward_closed(closed)[0]:
            violations.append(f"{name}: fixpoint not forward-closed")
        rep = innermost_one_step_check(closed, depth=3)
        if not rep.ok:
            violations.append(
                f"{name}: innermost redex {render_term(rep.witness)} "
                "needs more than one step")
    if fixpoints < 20:
        violations.append(f"only {fixpoints} fixpoints reached")
    verdict(9, "iterated closure fixpoints pass both closure checks",
            violations)


def test_10_root_symbol_discipline_on_certified_systems():
    violations = []
    for name, trs, opts, report in certified_systems():
        pool = enumerate_pool(trs, 3, 200)
        pairs = set()
        for r in trs.rules:
            if isinstance(r.rhs, App):
                pairs.add((r.lhs.sym.name, r.rhs.sym.name))

        for u in pool:
            if not isinstance(u, App):
                continue
            target = nf(trs, u)

            # no reduction from a rule's rhs root back to its lhs root
            for f_root, g_root in pairs:
                if u.sym.name == g_root and isinstance(target, App) \
                        and target.sym.name == f_root and u != target:
                    violations.append(f"{name}: {g_root} term reached {f_root}")

            # traces between same-root terms never step at the root, and
            # the argument subtraces replay componentwise
            _, trace = normalize(trs, u)
            terms_on_path = [u] + [s.target for s in trace]
            for i in range(len(terms_on_path)):
                for j in range(i + 1, len(terms_on_path)):
                    a, b = terms_on_path[i], terms_on_path[j]
                    if not (isinstance(a, App) and isinstance(b, App)):
                        continue
                    if a.sym != b.sym:
                        continue
                    between = trace[i:j]
                    if any(s.position == () for s in between):
                        violations.append(f"{name}: root step inside "
                                          f"{render_term(a)} ->* {render_term(b)}")
                        continue
                    for m in range(len(a.args)):
                        cur = a.args[m]
                        for s in between:
                            if s.position and s.position[0] == m + 1:
                                hit = apply_rule(trs.rule(s.rule_label), cur,
                                                 s.position[1:])
                                assert hit is not None
                                cur = hit[0]
                        if cur != b.args[m]:
                            violations.append(
                                f"{name}: argument {m + 1} subtrace broke")

            # pointwise joinability at outermost distinguishing positions
            for p in odp(u, target):
                if nf(trs, subterm_at(u, p)) != subterm_at(target, p):
                    violations.append(
                        f"{name}: {render_term(u)} vs normal form at {p}")
    verdict(10, "root-symbol discipline on certified systems", violations)
