"""Command-line surface.

Exit codes: 0 the checked property holds, 1 it fails, 2 the verdict is
open at the configured bounds (also when any subcommand runs out of
rewrite fuel), 3 bad input or usage, 4 an internal error (a bug in lmtk;
stderr names the exception). `--json` switches any subcommand to a
structured report on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .checker import (
    CheckOptions,
    LmReport,
    almost_left_reduce,
    lm_verdict,
    right_reduce,
)
from .closure import fc_iterate, innermost_one_step_check, is_forward_closed
from .minsky import (
    CapInstance,
    Config,
    cap_search,
    canonical_cap,
    encode,
    encoding_precedence,
    parse_machine,
    simulate,
    validate_machine,
)
from .overlaps import critical_pairs, nosup, rhs_closure
from .rewriting import DEFAULT_FUEL, FuelExhausted, Trs, normalize, subterm_collapse_search
from .terms import render_position, render_term
from .trs_format import ParseError, parse_term, parse_trs, render_trs

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


def _fuel(args) -> int:
    if getattr(args, "fuel", None):
        return args.fuel
    env = os.environ.get("LMTK_FUEL")
    if env and env.isdigit():
        return int(env)
    return DEFAULT_FUEL


def _load_trs(path: str) -> Trs:
    with open(path, encoding="utf-8") as fh:
        return parse_trs(fh.read())


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _report_payload(report: LmReport) -> dict:
    return {
        "verdict": report.verdict,
        "summary": report.summary(),
        "conditions": [
            {"name": c.name, "verdict": c.verdict, "detail": c.detail,
             "bounded": c.bounded}
            for c in report.conditions
        ],
        "consequences": [
            {"name": c.name, "verdict": c.verdict, "detail": c.detail}
            for c in report.consequences
        ],
    }


def cmd_check(args) -> int:
    trs = _load_trs(args.file)
    precedence = args.precedence.split(",") if args.precedence else None
    opts = CheckOptions(precedence=precedence, collapse_depth=args.depth,
                        fuel=_fuel(args))
    started = time.perf_counter()
    report = lm_verdict(trs, opts)
    elapsed = time.perf_counter() - started
    payload = _report_payload(report)
    payload["seconds"] = round(elapsed, 3)
    payload["notes"] = report.notes
    lines = [c.line() for c in report.conditions]
    lines.extend(f"note: {n}" for n in report.notes)
    if report.consequences:
        lines.append("consequences:")
        lines.extend("  " + c.line() for c in report.consequences)
    lines.append(report.summary())
    _emit(args, payload, lines)
    if report.verdict == "pass":
        return EXIT_PASS
    if report.verdict == "fail":
        return EXIT_FAIL
    return EXIT_UNKNOWN


def cmd_reduce(args) -> int:
    trs = _load_trs(args.file)
    reduced = right_reduce(trs, _fuel(args))
    reduced, log = almost_left_reduce(reduced)
    text = render_trs(reduced)
    payload = {"system": text, "deletions": [str(d) for d in log]}
    lines = [f"# {d}" for d in log]
    lines.append(text.rstrip("\n"))
    _emit(args, payload, lines)
    return EXIT_PASS


def cmd_fc(args) -> int:
    trs = _load_trs(args.file)
    trace = fc_iterate(trs, args.fc_max_gen)
    payload = {
        "converged": trace.converged,
        "fixpoint_generation": trace.fixpoint_generation,
        "generations": [
            [str(c) for c in gen] for gen in trace.new_rules
        ],
        "rules": [str(r) for r in trace.final_rules()],
    }
    lines = []
    for k, gen in enumerate(trace.new_rules, start=1):
        lines.append(f"NR{k}: {len(gen)} new rule(s)")
        lines.extend(f"  {c}" for c in gen)
    if trace.converged:
        lines.append(f"fixpoint at generation {trace.fixpoint_generation}")
    else:
        lines.append(f"no fixpoint within {trace.bound} generations (unknown)")
    _emit(args, payload, lines)
    return EXIT_PASS if trace.converged else EXIT_UNKNOWN


def cmd_fc_check(args) -> int:
    trs = _load_trs(args.file)
    ok, witness = is_forward_closed(trs)
    one_step = innermost_one_step_check(trs, depth=args.fc_depth,
                                        fuel=_fuel(args))
    payload = {"forward_closed": ok,
               "witness": str(witness) if witness else None,
               "one_step": one_step.ok,
               "one_step_witness": (render_term(one_step.witness)
                                    if one_step.witness else None),
               "one_step_bound": one_step.bound_note()}
    lines = ["forward-closed: " + ("yes" if ok else f"no ({witness})"),
             "innermost one-step: "
             + (f"yes ({one_step.bound_note()})" if one_step.ok
                else f"no (witness {render_term(one_step.witness)})")]
    _emit(args, payload, lines)
    return EXIT_PASS if ok and one_step.ok else EXIT_FAIL


def cmd_rhs(args) -> int:
    trs = _load_trs(args.file)
    eqs = rhs_closure(trs)
    payload = {"equations": [{"lhs": render_term(e.lhs),
                              "rhs": render_term(e.rhs),
                              "origin": e.origin} for e in eqs]}
    _emit(args, payload, [f"{e}   [{e.origin}]" for e in eqs])
    return EXIT_PASS


def cmd_cps(args) -> int:
    trs = _load_trs(args.file)
    pairs = critical_pairs(trs)
    payload = {"critical_pairs": [str(cp) for cp in pairs]}
    _emit(args, payload, [str(cp) for cp in pairs] or ["no critical pairs"])
    return EXIT_PASS


def cmd_nosup(args) -> int:
    trs = _load_trs(args.file)
    sup = nosup(trs)
    payload = {"superpositions": [render_term(t) for t in sup]}
    _emit(args, payload, [render_term(t) for t in sup] or ["empty"])
    return EXIT_PASS


def cmd_normalize(args) -> int:
    trs = _load_trs(args.file)
    term = parse_term(args.term, trs)
    result, trace = normalize(trs, term, _fuel(args))
    payload = {"normal_form": render_term(result),
               "trace": [str(s) for s in trace]}
    lines = [str(s) for s in trace]
    lines.append(render_term(result))
    _emit(args, payload, lines)
    return EXIT_PASS


def cmd_collapse(args) -> int:
    trs = _load_trs(args.file)
    res = subterm_collapse_search(trs, args.depth, fuel=_fuel(args))
    if res.collapsing:
        u, p = res.witness
        payload = {"collapsing": True, "term": render_term(u),
                   "position": render_position(p)}
        _emit(args, payload,
              [f"collapsing: {render_term(u)} equals its subterm at "
               f"{render_position(p)}"])
        return EXIT_FAIL
    payload = {"collapsing": False, "depth": res.max_depth,
               "terms_checked": res.terms_checked,
               "exhausted": res.exhausted}
    cap = ("" if res.exhausted
           else f", enumeration capped at {res.terms_checked} terms")
    _emit(args, payload,
          [f"no collapse up to depth {res.max_depth} "
           f"({res.terms_checked} terms checked{cap})"])
    return EXIT_PASS


def _cap_payload(result) -> dict:
    return {
        "found": result.found,
        "cap": str(result.cap) if result.found else None,
        "rounds": result.rounds_used,
        "deduced": result.deduced,
        "complete": result.complete,
        "derivation": [
            {"term": render_term(d.term), "via": d.via,
             "args": [render_term(a) for a, _ in d.parents]}
            for d in result.derivation
        ],
    }


def cmd_cap(args) -> int:
    trs = _load_trs(args.file)
    knowledge = tuple(parse_term(t, trs) for t in args.knowledge)
    goal = parse_term(args.goal, trs)
    instance = CapInstance(trs, knowledge, goal)
    result = cap_search(instance, args.max_size, args.max_rounds, _fuel(args))
    lines = ([f"cap: {result.cap}"] if result.found
             else [f"no cap within bounds (rounds {result.rounds_used}, "
                   f"{result.deduced} terms deduced)"])
    _emit(args, _cap_payload(result), lines)
    return EXIT_PASS if result.found else EXIT_UNKNOWN


def cmd_minsky(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        machine = parse_machine(fh.read())

    if args.action == "validate":
        ok, witness = validate_machine(machine)
        payload = {"valid": ok,
                   "witness": [str(t) for t in witness] if witness else None}
        _emit(args, payload,
              ["valid" if ok else f"invalid: [{witness[0]}] vs [{witness[1]}]"])
        return EXIT_PASS if ok else EXIT_FAIL

    if args.action == "simulate":
        run = simulate(machine, Config(machine.initial, args.k, args.p),
                       args.max_steps)
        payload = {
            "halted": run.halted,
            "steps": run.step_count,
            "configs": [[c.state, c.c1, c.c2, c.steps] for c in run.configs],
        }
        lines = [f"({c.state}, {c.c1}, {c.c2}) at step {c.steps}"
                 for c in run.configs]
        lines.append("halted" if run.halted else "did not reach final state")
        _emit(args, payload, lines)
        return EXIT_PASS if run.halted else EXIT_UNKNOWN

    instance = encode(machine, args.k, args.p, args.kp, args.pp,
                      args.max_steps)

    if args.action == "encode":
        text = render_trs(instance.theory)
        payload = {
            "system": text,
            "knowledge": [render_term(t) for t in instance.knowledge],
            "goal": render_term(instance.goal),
            "precedence": encoding_precedence(machine),
        }
        lines = [text.rstrip("\n"),
                 "# knowledge: " + ", ".join(render_term(t)
                                             for t in instance.knowledge),
                 "# goal: " + render_term(instance.goal),
                 "# precedence: " + ",".join(encoding_precedence(machine))]
        _emit(args, payload, lines)
        return EXIT_PASS

    if args.action == "cap":
        result = cap_search(instance, args.max_size, args.max_rounds,
                            _fuel(args))
        lines = []
        run = simulate(machine, Config(machine.initial, args.k, args.p),
                       args.max_steps)
        if run.halted and run.step_count >= 1:
            lines.append(f"canonical cap: {canonical_cap(machine, run, instance)}")
        lines.extend([f"cap: {result.cap}"] if result.found
                     else ["no cap within bounds"])
        _emit(args, _cap_payload(result), lines)
        return EXIT_PASS if result.found else EXIT_UNKNOWN

    raise ValueError(f"unknown minsky action {args.action}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lmtk",
        description="Term rewriting toolkit: LM-system checking, forward "
                    "closure, and cap-problem encodings.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="structured output")
        p.add_argument("--fuel", type=int, default=0,
                       help="rewrite step budget (default 10000, "
                            "env LMTK_FUEL)")

    p = sub.add_parser("check", help="decide the LM-system conditions")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=5,
                   help="subterm-collapse search depth")
    p.add_argument("--precedence",
                   help="comma-separated symbols, greatest first")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reduce",
                       help="right-reduce then almost-left-reduce, emit the system")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("fc", help="iterate the forward closure")
    p.add_argument("file")
    p.add_argument("--fc-max-gen", type=int, default=16)
    common(p)
    p.set_defaults(func=cmd_fc)

    p = sub.add_parser("fc-check",
                       help="one-layer forward-closedness and one-step test")
    p.add_argument("file")
    p.add_argument("--fc-depth", type=int, default=3,
                   help="instantiation depth for the one-step check")
    common(p)
    p.set_defaults(func=cmd_fc_check)

    p = sub.add_parser("rhs", help="right-hand-side closure")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_rhs)

    p = sub.add_parser("cps", help="critical pairs")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_cps)

    p = sub.add_parser("nosup", help="non-overlay superpositions")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_nosup)

    p = sub.add_parser("normalize", help="normalize a term, with trace")
    p.add_argument("file")
    p.add_argument("term")
    common(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("collapse", help="bounded subterm-collapse search")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=5)
    common(p)
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("cap", help="bounded cap search over a system")
    p.add_argument("file")
    p.add_argument("--knowledge", nargs="+", required=True,
                   help="ground terms the intruder starts from")
    p.add_argument("--goal", required=True)
    p.add_argument("--max-size", type=int, default=30)
    p.add_argument("--max-rounds", type=int, default=12)
    common(p)
    p.set_defaults(func=cmd_cap)

    p = sub.add_parser("minsky", help="counter-machine commands")
    p.add_argument("action",
                   choices=["validate", "simulate", "encode", "cap"])
    p.add_argument("file")
    p.add_argument("--k", type=int, default=0, help="initial counter 1")
    p.add_argument("--p", type=int, default=0, help="initial counter 2")
    p.add_argument("--kp", type=int, default=None, help="final counter 1")
    p.add_argument("--pp", type=int, default=None, help="final counter 2")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--max-size", type=int, default=30)
    p.add_argument("--max-rounds", type=int, default=12)
    common(p)
    p.set_defaults(func=cmd_minsky)

    return ap


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except FuelExhausted as e:
        print(e, file=sys.stderr)
        return EXIT_UNKNOWN
    except (ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        # never exit 1 (FAIL) for a crash; the message names the bug
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
