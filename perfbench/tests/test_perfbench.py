"""The benchmark's own tests: a smoke run of each workload on a few of its
items, the traced run's metric set, and that a corrupted reference output
is counted as failed.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as w  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def keep(workload: str, batch: w.Batch, ref: dict) -> list[w.Item]:
    """A few cheap items of each kind the workload has."""
    items = batch.items
    if workload == "check":
        fixed = [i for i in items if i.label in
                 ("unary_chain", "root_overlap", "encoded_tiny")]
        return fixed + [i for i in items if i.label.startswith("random")][:1]
    if workload == "cap":
        return [i for i in items
                if i.label[:3] in ("k1p", "k2p") or i.label == "wrong_start"]
    if workload == "closure":
        cost = ref["closure_pool"]
        ordered = sorted(items, key=lambda i: cost[i.label[6:]]["cost_s"])
        return ordered[len(ordered) // 2:][:3]
    return [i for i in items if not i.label.startswith("chain")]


@pytest.fixture
def small(monkeypatch, capsys):
    """Run `run.main` on a cut-down batch, with one set-up; returns the
    parsed detail and result lines."""
    monkeypatch.setattr(run, "SETUP_REPS", 1)

    def go(workload: str, trace: int = 0, ref: dict | None = None):
        full = run.WORKLOADS[workload]
        reference = ref or run.load_reference()

        def setup(L, seed, ref_):
            batch = full.setup(L, seed, ref_)
            batch.items = keep(workload, batch, reference)
            return batch
        monkeypatch.setitem(run.WORKLOADS, workload, w.Workload(setup, 1))
        monkeypatch.setattr(run, "load_reference", lambda: reference)
        assert run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0.001", "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return json.loads(lines[-2]), json.loads(lines[-1])
    return go


@pytest.mark.parametrize("workload", sorted(w.WORKLOADS))
def test_smoke_end_to_end(workload, small):
    detail, result = small(workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == detail["items"] >= 3
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    expected = {"cap": {"cap_pruned_complete"},
                "normalize-deep": {"deep_parse_term", "deep_replay"}}
    assert set(detail["known_defects"]) == expected.get(workload, set())


@pytest.mark.parametrize("workload", ["closure", "cap"])
def test_smoke_traced(workload, small):
    detail, result = small(workload, trace=1)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "closure":
        assert m["rewriting.normalize.calls"] == 0
        assert m["closure.is_redundant_approx.calls"] > 0
    else:
        assert m["minsky.cap_search.normalize_calls"] == m[
            "rewriting.normalize.calls"] > 0
        assert m["minsky.encode.self_s"] > 0


def test_corrupted_reference_counts_as_failed(small):
    ref = run.load_reference()
    entry = ref["check_fixed"]["unary_chain"]
    entry["report_sha"] = "0" * len(entry["report_sha"])
    _, result = small("check", ref=ref)
    assert not result["correct"]
    assert result["failed"] == 1


def test_same_seed_same_inputs():
    ref = run.load_reference()
    L = run.import_lmtk()

    def labels(seed):
        return [i.label for i in w.setup_closure(L, seed, ref).items]
    assert labels(5) == labels(5)
    assert labels(5) != labels(6)


def test_tail_reads_the_same_item_for_any_pass_count():
    batch = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    first = run.tail(batch * 3, len(batch), 3)
    assert first == (0.4, 100 * (1 - 10 / 21))
    assert all(run.tail(batch * k, len(batch), 3) == first
               for k in range(3, 40))


def test_item_times_are_scaled_to_the_reference_pace(monkeypatch):
    # a host at half the reference pace: one CPU second of item time
    # reads as half a reference-pace second
    monkeypatch.setattr(run.pace, "sample", lambda: 2 * run.pace.REFERENCE_S)
    ticks = iter([0.0, 1.0])
    monkeypatch.setattr(run, "clock", lambda: next(ticks))
    batch = w.Batch([w.Item("one", lambda: 1, lambda out: None)])
    loop = run.Loop()
    assert loop.run(batch, 0.5, 1) == 2.0
    assert loop.times == [0.5]


def test_bare_checkout_fails_without_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cap", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
