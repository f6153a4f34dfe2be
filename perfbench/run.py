"""lmtk benchmark: one workload per process, single-threaded closed loop.

    python3 perfbench/run.py --workload check --seed 1 --seconds 10 --trace 0

One client sends the next item when the previous one returns. The loop
runs whole passes over the seed's batch until the timed region reaches
`--seconds` (and at least the workload's minimum pass count). Every
output is checked outside the timed region. The last line of standard
output is the result as one JSON object: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a separate traced run with
`--trace 1`. Workloads, metrics and predictions: perfbench/README.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pace  # noqa: E402
from spans import LAYERS, ROOT, Tracer  # noqa: E402
from workloads import WORKLOADS, Batch, BenchError  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
REFERENCE = HERE / "reference.json"
SPAN_DIR = CHECKOUT / ".perfbench"
# set-up is repeated this often per run and reported as the median
SETUP_REPS = 9
TAIL_ITEMS = 10
# Items and set-up are timed in CPU seconds of this (the only) thread. The
# loop is single-threaded and does no I/O while timed, so on an idle machine
# this equals wall time; on a shared virtual machine it leaves out the time
# the host runs other guests on this vCPU, which moved wall times by tens of
# percent from one minute to the next.
clock = time.thread_time

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s",
                    "item_tail_s": "s", "peak_rss_mib": "MiB"}


def import_lmtk():
    """A fresh import of lmtk from this checkout's `src`."""
    src = CHECKOUT / "src"
    if not (src / "lmtk" / "__init__.py").is_file():
        raise BenchError(f"no lmtk sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "lmtk" or n.startswith("lmtk.")]:
        del sys.modules[name]
    lmtk = importlib.import_module("lmtk")
    if Path(lmtk.__file__).resolve().parent != (src / "lmtk").resolve():
        raise BenchError(f"imported lmtk from {lmtk.__file__}, not from {src}")
    return lmtk


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        raise BenchError(f"missing {REFERENCE}") from None


class Loop:
    """Timed closed-loop passes over a batch, with every output checked."""

    def __init__(self) -> None:
        # item times in CPU seconds at the reference pace (pace.py)
        self.times: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.passes = 0
        self.paces: list[float] = []

    def run(self, batch: Batch, seconds: float, min_passes: int,
            tracer: Tracer | None = None, on_pass=None) -> float:
        """Whole passes until the timed region reaches `seconds`; returns
        items per second over the passes run here."""
        timed = scaled = 0.0
        count = 0
        before = pace.sample()
        calls = [tracer.span(ROOT, item.run) if tracer else item.run
                 for item in batch.items]
        passes = 0
        while passes < min_passes or timed < seconds:
            lo = len(tracer.start) if tracer else 0
            for index, (item, call) in enumerate(zip(batch.items, calls)):
                if tracer:
                    tracer.item_id = index
                    tracer.active = True
                err = out = None
                # every item starts from an empty young generation, so the
                # collections it pays for do not depend on the item order
                # or on the garbage the previous output check left behind
                gc.collect()
                t0 = clock()
                try:
                    out = call()
                except Exception as e:
                    err = e
                dt = clock() - t0
                if tracer:
                    tracer.active = False
                after = pace.sample()
                self.paces.append(after)
                dt_ref = dt * pace.scale(before, after)
                before = after
                timed += dt
                scaled += dt_ref
                count += 1
                self.times.append(dt_ref)
                problem = (f"raised {type(err).__name__}: {err}" if err
                           else item.check(out))
                del out
                if problem:
                    self.failures.append((item.label, problem))
            passes += 1
            if on_pass:
                on_pass(lo, len(tracer.start))
        self.passes += passes
        return count / scaled


def tail(times: list[float], batch_items: int, min_passes: int
         ) -> tuple[float, float]:
    """Item seconds at the highest percentile that has TAIL_ITEMS items
    beyond it in the shortest run (`min_passes` whole passes), and that
    percentile. The level is fixed per workload, so faster code, which
    runs more passes, is read at the same level; over whole passes the
    nearest rank lands on the same item of the batch."""
    shortest = batch_items * min_passes
    beyond = min(TAIL_ITEMS * len(times) // shortest, len(times) - 1)
    level = max(0.0, 100 * (1 - TAIL_ITEMS / shortest))
    return sorted(times)[len(times) - beyond - 1], level


def set_up(workload, seed: int, ref: dict):
    """Median set-up seconds over SETUP_REPS fresh imports, at the
    reference pace, with the package and batch of the last one."""
    spent = []
    before = pace.sample()
    for _ in range(SETUP_REPS):
        t0 = clock()
        lmtk = import_lmtk()
        batch = workload.setup(lmtk, seed, ref)
        dt = clock() - t0
        after = pace.sample()
        spent.append(dt * pace.scale(before, after))
        before = after
    # the benchmark's own long-lived objects stay out of every collection
    # during the timed items
    gc.collect()
    gc.freeze()
    return statistics.median(spent), lmtk, batch


def probe_known_defects(batch: Batch) -> dict:
    out = {}
    for defect in batch.known_defects:
        try:
            got = defect.probe()
        except Exception as e:
            got = f"raised {type(e).__name__}"
        out[defect.name] = {"expected": defect.expected, "got": got,
                            "status": "fixed" if got == defect.expected
                            else "fails"}
    return out


def end_to_end(args, workload, ref) -> tuple[dict, Loop, dict]:
    setup_s, _, batch = set_up(workload, args.seed, ref)
    first_item = time.perf_counter() - PROCESS_START
    loop = Loop()
    items_per_s = loop.run(batch, args.seconds, workload.min_passes)
    tail_s, percentile = tail(loop.times, len(batch.items),
                              workload.min_passes)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": setup_s, "items_per_s": items_per_s,
               "item_p50_s": statistics.median(loop.times),
               "item_tail_s": tail_s, "peak_rss_mib": rss}
    detail = {"batch_items": len(batch.items), "passes": loop.passes,
              "items": len(loop.times), "tail_percentile": round(percentile, 2),
              "items_beyond_tail": sum(t > tail_s for t in loop.times),
              "failed_share": len(loop.failures) / len(loop.times),
              "first_item_after_s": first_item,
              "pace_s": statistics.quantiles(loop.paces, n=4)}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, loop, \
        {**detail, "known_defects": probe_known_defects(batch)}


SELF_S = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns
          if fn != "enumerate_terms"]
SETUP_SPANS = {"minsky.encode", "minsky.simulate"}


def pass_metrics(tracer: Tracer, lo: int, hi: int, before: dict) -> dict:
    st = tracer.self_times(lo, hi)
    counts = {k: v - before.get(k, 0.0) for k, v in tracer.counts.items()}
    calls = {name: st.get(name, [0.0, 0])[1] for name in SELF_S}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0
    m = {f"{name}.self_s": st.get(name, [0.0, 0])[0] for name in SELF_S}
    m[f"{ROOT}.self_s"] = st.get(ROOT, [0.0, 0])[0]
    for name in ("trs_format.parse_trs", "terms.mgu", "terms.match_many",
                 "rewriting.normalize", "closure.is_redundant_approx"):
        m[f"{name}.calls"] = calls[name]
    m["terms.mgu.hit_ratio"] = ratio(counts.get("terms.mgu.hits", 0),
                                     calls["terms.mgu"])
    m["terms.match_many.hit_ratio"] = ratio(
        counts.get("terms.match_many.hits", 0), calls["terms.match_many"])
    m["closure.is_redundant_approx.redundant_ratio"] = ratio(
        counts.get("closure.is_redundant_approx.redundant", 0),
        calls["closure.is_redundant_approx"])
    steps = counts.get("rewriting.normalize.steps", 0)
    m["rewriting.normalize.steps"] = steps
    m["rewriting.normalize.steps_per_call"] = ratio(
        steps, calls["rewriting.normalize"])
    m["minsky.cap_search.normalize_calls"] = tracer.descendants_named(
        lo, hi, "minsky.cap_search", "rewriting.normalize")
    for key in ("terms.enumerate_terms.yielded",
                "rewriting.normalize.fuel_exhausted",
                "rewriting.subterm_collapse_search.terms_checked",
                "overlaps.critical_pairs.pairs", "closure.fc_iterate.rules_out",
                "closure.compositions.candidates", "minsky.cap_search.deduced",
                "minsky.cap_search.incomplete"):
        m[key] = counts.get(key, 0.0)
    return m


def unit_of(name: str) -> str:
    stat = name.rpartition(".")[2]
    if stat == "self_s":
        return "s"
    if stat.endswith("ratio") or stat == "share":
        return "ratio"
    if stat == "items_per_s":
        return "1/s"
    if stat == "steps_per_call":
        return "steps/call"
    return "count"


def per_layer(args, workload, ref) -> tuple[dict, Loop, dict]:
    """Untraced passes for half the time, then traced passes: per-layer
    metrics are medians over traced passes of per-pass totals."""
    _, lmtk, batch = set_up(workload, args.seed, ref)
    loop = Loop()
    half = args.seconds / 2
    untraced = loop.run(batch, half, 1)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        batch = workload.setup(lmtk, args.seed, ref)
        tracer.active = False
        setup_st = tracer.self_times(0, len(tracer.start))
        per_pass: list[dict] = []
        before = [dict(tracer.counts)]

        def on_pass(lo: int, hi: int) -> None:
            per_pass.append(pass_metrics(tracer, lo, hi, before[0]))
            before[0] = dict(tracer.counts)
        traced = loop.run(batch, half, 1, tracer, on_pass)
    finally:
        tracer.uninstall()
    tracer.write(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}")

    metrics = {k: statistics.median(p[k] for p in per_pass)
               for k in per_pass[0]}
    for name in SETUP_SPANS:
        metrics[f"{name}.self_s"] = setup_st.get(name, [0.0, 0])[0]
    metrics["perfbench.untraced.items_per_s"] = untraced
    metrics["perfbench.traced.items_per_s"] = traced
    metrics["perfbench.tracing.share"] = 1 - traced / untraced
    detail = {"traced_passes": len(per_pass), "spans": len(tracer.start),
              "failed_share": len(loop.failures) / len(loop.times)}
    return {k: (v, unit_of(k)) for k, v in sorted(metrics.items())}, loop, \
        {**detail, "known_defects": probe_known_defects(batch)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    try:
        ref = load_reference()
        measure = per_layer if args.trace else end_to_end
        metrics, loop, detail = measure(args, workload, ref)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for label, problem in loop.failures[:20]:
        print(f"FAILED {label}: {problem}", file=sys.stderr)
    for name, d in detail["known_defects"].items():
        print(f"known defect {name}: {d['status']} "
              f"(expected {d['expected']}, got {d['got']})", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: " + ", ".join(
        f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
        + f", failed_share={detail['failed_share']:.6g} share")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": len(loop.times),
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
