"""Golden outputs of the command line, and the script that records them.

    PYTHONPATH=src python tests/record_golden.py

rewrites `tests/golden/cli.json`; `tests/test_golden.py` compares every
entry with a fresh run. Record on purpose only: a change that alters an
output re-records the file and names each changed entry and its reason.

The systems are the hand-written `LM_SOURCES` and `FC_SOURCES`, the three
encoded machines (checked with `encoding_precedence`, and once more
without a precedence, under the one the search finds), and the pool
systems of seeds 0-119 from `perfbench/gen.py`. Each runs `check`,
`reduce`, `cps`, `nosup`, `rhs`, `fc --fc-max-gen 3` and `fc-check`, in
text form; a pool system runs `check` at `--fuel 200 --depth 3` and
`reduce` at `--fuel 200`. Of these only `check` and `reduce` rewrite, so
only they take `--fuel`. A hand-written or encoded system also runs
`normalize` on its first rule's lhs, and an encoded one runs `cap` from
its machine's knowledge to its goal, in text and `--json`. The three
`MACHINE_STARTS` machines, as machine files, run `minsky validate` and
`minsky simulate|encode|cap` from their start counters, in text and
`--json`. An entry keeps the exit code, a sha256 of stdout and of
stderr, and the first line of stdout, so that a failure names what
changed.

`tests/golden/cli_sample.json` holds a sample of two more forms, recorded
the same way: `collapse --depth 3` in text and `check --json`, on the
same systems but only pool seeds 0-19. JSON output is recorded without
its `seconds`, which differ run to run, and its first line is the first
line inside the braces.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli.json"
SAMPLE = HERE / "golden" / "cli_sample.json"
POOL_SEEDS = range(120)
SAMPLE_POOL_SEEDS = range(20)


def _sources() -> list[tuple[str, str, list[str], list[str],
                            list[list[str]]]]:
    """Name, system text, the flags of `check`, the fuel flags and the
    argument lists of `normalize` and `cap`."""
    from conftest import FC_SOURCES, LM_SOURCES, MACHINE_STARTS, pool_text
    from lmtk.minsky import encode, encoding_precedence
    from lmtk.terms import render_term
    from lmtk.trs_format import parse_trs, render_trs

    def first_lhs(text: str) -> list[str]:
        return ["normalize", render_term(parse_trs(text).rules[0].lhs)]

    out = [(name, src, [], [], [first_lhs(src)])
           for name, src in {**LM_SOURCES, **FC_SOURCES}.items()]
    for name, (machine, k, p) in MACHINE_STARTS.items():
        instance = encode(machine, k, p)
        text = render_trs(instance.theory)
        precedence = ",".join(encoding_precedence(machine))
        cap = ["cap", "--knowledge",
               *(render_term(t) for t in instance.knowledge),
               "--goal", render_term(instance.goal)]
        out.append((f"encoded_{name}", text, ["--precedence", precedence], [],
                    [first_lhs(text), cap, [*cap, "--json"]]))
    pool = ["--fuel", "200"]
    out.extend((f"pool{seed}", pool_text(seed), [*pool, "--depth", "3"], pool,
                []) for seed in POOL_SEEDS)
    return out


def _machines() -> list[tuple[str, str, list[list[str]]]]:
    """The `MACHINE_STARTS` machine files and their `minsky` argument
    lists (the action first, then the flags after the file)."""
    from conftest import MACHINE_STARTS, render_machine

    out = []
    for name, (machine, k, p) in MACHINE_STARTS.items():
        start = ["--k", str(k), "--p", str(p)]
        argvs = [["minsky", "validate"],
                 *(["minsky", action, *start]
                   for action in ("simulate", "encode", "cap"))]
        out.append((f"machine_{name}", render_machine(machine),
                    [*argvs, *([*argv, "--json"] for argv in argvs)]))
    return out


def systems() -> list[tuple[str, str, list[list[str]]]]:
    """Name, file text and the argument lists to run (the file goes after
    the subcommand, and after the action of `minsky`)."""
    return [(name, text, [["check", *check],
                          *([["check"]] if "--precedence" in check else []),
                          ["reduce", *fuel],
                          ["cps"], ["nosup"], ["rhs"],
                          ["fc", "--fc-max-gen", "3"], ["fc-check"], *extra])
            for name, text, check, fuel, extra in _sources()] + _machines()


def samples() -> list[tuple[str, str, list[list[str]]]]:
    """The sampled systems and argument lists of `cli_sample.json`."""
    sampled = {f"pool{seed}" for seed in SAMPLE_POOL_SEEDS}
    return [(name, text, [["collapse", "--depth", "3", *fuel],
                          ["check", "--json", *check]])
            for name, text, check, fuel, _ in _sources()
            if not name.startswith("pool") or name in sampled]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outputs(name: str, text: str, argvs: list[list[str]],
            directory: Path) -> dict[str, dict]:
    """The golden entries of one system, run in-process."""
    from lmtk.cli import run_command

    path = directory / f"{name}.trs"
    path.write_text(text, encoding="utf-8")
    entries = {}
    for argv in argvs:
        head = 2 if argv[0] == "minsky" else 1
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_command([*argv[:head], str(path), *argv[head:]])
        stdout = out.getvalue()
        first_line = stdout.split("\n", 1)[0]
        if "--json" in argv:
            payload = json.loads(stdout)
            payload.pop("seconds", None)
            stdout = json.dumps(payload, indent=2) + "\n"
            first_line = stdout.split("\n", 2)[1].strip()
        entries[" ".join([name, *argv])] = {
            "exit": code,
            "stdout_sha256": _sha(stdout),
            "stderr_sha256": _sha(err.getvalue()),
            "first_line": first_line,
        }
    return entries


def _record(path: Path, runs: list[tuple[str, str, list[list[str]]]]) -> None:
    entries: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text, argvs in runs:
            entries.update(outputs(name, text, argvs, Path(tmp)))
    # one entry per line, so that a re-record diffs by entry
    lines = [f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
             for key in sorted(entries)]
    path.parent.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(entries)} entries written to {path}")


def main() -> None:
    _record(GOLDEN, systems())
    _record(SAMPLE, samples())


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    main()
