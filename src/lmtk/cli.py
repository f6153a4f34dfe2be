"""Command-line surface.

Exit codes: 0 the checked property holds, 1 it fails, 2 the verdict is
open at the configured bounds (also when a subcommand runs out of rewrite
fuel; `check` reports that in the condition it hit, and an open
consequence leaves its code alone), 3 bad input or usage (also a
`--precedence`, "" too, that does not name each symbol once, and one of
`--kp` and `--pp` alone), 4 an internal error (a bug in lmtk; stderr names
the exception). `fc-check` decides exactly, so on valid input it exits 0
or 1 only; its witness is the first rule `fc` adds, at `gen 1`. `--json`
switches any subcommand to a structured report on stdout.

Every count flag takes a decimal number: `--depth` 1 or more, the rest
(`--fuel`, the other bounds and the counter values) 0 or more. Anything
else is a usage error, so a bound that allows no search never reads as a
verdict. The rewrite step budget comes from `--fuel` alone, default
10000. Only the subcommands that rewrite take it: `check`, `reduce`,
`normalize`, `collapse`, `cap` and `minsky cap`. The others (`fc`,
`fc-check`, `rhs`, `cps`, `nosup` and the other `minsky` actions) never
rewrite and reject it. Every subcommand takes only the flags it reads, so
any other flag is a usage error too.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .checker import (
    CheckOptions,
    LmReport,
    almost_left_reduce,
    lm_verdict,
    right_reduce,
)
from .closure import fc_iterate, is_forward_closed
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


def _count(minimum: int):
    """An argparse type: a decimal count of `minimum` or more. Out-of-range
    bounds are usage errors, never verdicts."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(
                f"expected a count of {minimum} or more, got {text!r}")
        return int(text)
    return parse


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
    prec = None if args.precedence is None else args.precedence.split(",")
    opts = CheckOptions(precedence=prec, collapse_depth=args.depth,
                        fuel=args.fuel)
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
    reduced = right_reduce(trs, args.fuel)
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
    payload = {"forward_closed": ok,
               "witness": str(witness) if witness else None}
    _emit(args, payload,
          ["forward-closed: " + ("yes" if ok else f"no ({witness})")])
    return EXIT_PASS if ok else EXIT_FAIL


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
    result, trace = normalize(trs, term, args.fuel)
    payload = {"normal_form": render_term(result),
               "trace": [str(s) for s in trace]}
    lines = [str(s) for s in trace]
    lines.append(render_term(result))
    _emit(args, payload, lines)
    return EXIT_PASS


def cmd_collapse(args) -> int:
    trs = _load_trs(args.file)
    res = subterm_collapse_search(trs, args.depth, fuel=args.fuel)
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


def _report_cap(args, instance: CapInstance, lines: list[str]) -> int:
    """Search `instance` for a cap at the bounds and fuel of `args`, and
    print `lines` and then the result."""
    result = cap_search(instance, args.max_size, args.max_rounds, args.fuel)
    payload = {
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
    lines.append(f"cap: {result.cap}" if result.found
                 else f"no cap within bounds (rounds {result.rounds_used}, "
                      f"{result.deduced} terms deduced)")
    _emit(args, payload, lines)
    return EXIT_PASS if result.found else EXIT_UNKNOWN


def cmd_cap(args) -> int:
    trs = _load_trs(args.file)
    knowledge = tuple(parse_term(t, trs) for t in args.knowledge)
    goal = parse_term(args.goal, trs)
    return _report_cap(args, CapInstance(trs, knowledge, goal), [])


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

    # `cap` needs the run for its canonical cap line; when no halting
    # counter is given, its counters spare `encode` a second simulation
    kp, pp = args.kp, args.pp
    if args.action == "cap":
        run = simulate(machine, Config(machine.initial, args.k, args.p),
                       args.max_steps)
        if run.halted and kp is None and pp is None:
            kp, pp = run.final_config.c1, run.final_config.c2
    instance = encode(machine, args.k, args.p, kp, pp, args.max_steps)

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

    lines = ([f"canonical cap: {canonical_cap(machine, run, instance)}"]
             if run.halted and run.step_count >= 1 else [])
    return _report_cap(args, instance, lines)


def build_parser() -> argparse.ArgumentParser:
    # one parent parser per flag group; a subcommand lists the groups it reads
    group = functools.partial(argparse.ArgumentParser, add_help=False)
    io = group()
    io.add_argument("file")
    io.add_argument("--json", action="store_true", help="structured output")
    fuel = group()
    fuel.add_argument("--fuel", type=_count(0), default=DEFAULT_FUEL,
                      help="rewrite step budget, 0 or more (default "
                           f"{DEFAULT_FUEL}; other values exit 3)")
    depth = group()
    depth.add_argument("--depth", type=_count(1), default=5,
                       help="subterm-collapse search depth, 1 or more")
    bounds = group()
    bounds.add_argument("--max-size", type=_count(0), default=30)
    bounds.add_argument("--max-rounds", type=_count(0), default=12)
    start = group()
    start.add_argument("--k", type=_count(0), default=0,
                       help="initial counter 1")
    start.add_argument("--p", type=_count(0), default=0,
                       help="initial counter 2")
    start.add_argument("--max-steps", type=_count(0), default=10_000)
    finals = group()
    finals.add_argument("--kp", type=_count(0), help="final counter 1")
    finals.add_argument("--pp", type=_count(0), help="final counter 2")

    ap = argparse.ArgumentParser(
        prog="lmtk",
        description="Term rewriting toolkit: LM-system checking, forward "
                    "closure, and cap-problem encodings.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(subparsers, name: str, func, summary: str, *parents):
        p = subparsers.add_parser(name, help=summary, parents=[io, *parents])
        p.set_defaults(func=func)
        return p

    p = command(sub, "check", cmd_check, "decide the LM-system conditions",
                depth, fuel)
    p.add_argument("--precedence",
                   help="comma-separated symbols, greatest first, each "
                        "symbol once (default: search for one, at any "
                        "signature size)")
    command(sub, "reduce", cmd_reduce,
            "right-reduce then almost-left-reduce, emit the system", fuel)
    p = command(sub, "fc", cmd_fc, "iterate the forward closure")
    p.add_argument("--fc-max-gen", type=_count(0), default=16)
    command(sub, "fc-check", cmd_fc_check,
            "decide forward-closedness: every composition of two rules is "
            "redundant")
    command(sub, "rhs", cmd_rhs, "right-hand-side closure")
    command(sub, "cps", cmd_cps, "critical pairs")
    command(sub, "nosup", cmd_nosup, "non-overlay superpositions")
    p = command(sub, "normalize", cmd_normalize,
                "normalize a term, with trace", fuel)
    p.add_argument("term")
    command(sub, "collapse", cmd_collapse, "bounded subterm-collapse search",
            depth, fuel)
    p = command(sub, "cap", cmd_cap, "bounded cap search over a system",
                bounds, fuel)
    p.add_argument("--knowledge", nargs="+", required=True,
                   help="ground terms the intruder starts from")
    p.add_argument("--goal", required=True)

    actions = sub.add_parser("minsky", help="counter-machine commands"
                             ).add_subparsers(dest="action", required=True)
    command(actions, "validate", cmd_minsky, "check the machine")
    command(actions, "simulate", cmd_minsky, "run the machine", start)
    command(actions, "encode", cmd_minsky, "emit the cap instance",
            start, finals)
    command(actions, "cap", cmd_minsky, "search for a cap",
            start, finals, bounds, fuel)
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
