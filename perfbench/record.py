"""Record the regression reference the benchmark checks outputs against.

    python3 perfbench/record.py

Writes perfbench/reference.json: for the fixed `check` systems and for
every random pool system, the digest of the generated text, the digest of
the output (report text for `check`, closure output for `closure`), and
the recorded cost that `workloads.stratified` groups by. The outputs are
those of the lmtk commit it runs on; recording again adopts the current
outputs as correct, so only do it on purpose.
"""

from __future__ import annotations

import json
import time

import gen
import run
import workloads as w

CHECK_POOL = 240
CLOSURE_POOL = 300
COST_REPEATS = 3


def cost(call) -> tuple[object, float]:
    """The call's result and its least time over a few repeats (one
    repeat for calls over a second)."""
    best = float("inf")
    for _ in range(COST_REPEATS):
        t0 = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - t0)
        if best > 1.0:
            break
    return out, best


def main() -> None:
    L = run.import_lmtk()
    ref: dict = {
        "note": "Regression reference: outputs of the lmtk commit this was "
                "recorded on. A changed digest is a changed verdict, "
                "witness or report text.",
        "check_fixed": {}, "check_pool": {}, "closure_pool": {}}
    for name, text, opts, _ in w.check_fixed_systems(L):
        report = L.lm_verdict(L.parse_trs(text), opts)
        ref["check_fixed"][name] = {
            "summary": report.summary(),
            "report_sha": w.digest(w.report_text(report))}
    opts = L.CheckOptions(**w.RANDOM_CHECK_OPTIONS)
    for seed in range(CHECK_POOL):
        text = gen.random_system_text(seed)
        report, spent = cost(w.verdict_call(L, text, opts))
        ref["check_pool"][str(seed)] = {
            "text_sha": w.digest(text), "summary": report.summary(),
            "report_sha": w.digest(w.report_text(report)),
            "cost_s": round(spent, 6)}
    for seed in range(CLOSURE_POOL):
        text = gen.random_system_text(seed)
        out, spent = cost(w.closure_call(L, text))
        ref["closure_pool"][str(seed)] = {
            "text_sha": w.digest(text),
            "rules_out": len(out[0].final_rules()),
            "output_sha": w.digest(w.closure_text(L, out)),
            "cost_s": round(spent, 6)}
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
