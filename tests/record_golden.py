"""Golden outputs of the command line, and the script that records them.

    PYTHONPATH=src python tests/record_golden.py

rewrites `tests/golden/cli.json`; `tests/test_golden.py` compares every
entry with a fresh run. Record on purpose only: a change that alters an
output re-records the file and names each changed entry and its reason.

The systems are the hand-written `LM_SOURCES` and `FC_SOURCES`, the three
encoded machines (checked with `encoding_precedence`), and the pool
systems of seeds 0-119 from `perfbench/gen.py`, which run at `--fuel 200
--depth 3`. Each runs `check`, `cps`, `nosup`, `rhs`, `fc --fc-max-gen 3`
and `fc-check`, in text form. An entry keeps the exit code, a sha256 of
stdout and of stderr, and the first line of stdout, so that a failure
names what changed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli.json"
POOL_SEEDS = range(120)


def _pool_generator():
    spec = importlib.util.spec_from_file_location(
        "lmtk_golden_gen", HERE.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.random_system_text


def systems() -> list[tuple[str, str, list[list[str]]]]:
    """Name, system text and the argument lists (after the file) to run."""
    from conftest import FC_SOURCES, LM_SOURCES, MACHINE_STARTS
    from lmtk.minsky import encode, encoding_precedence
    from lmtk.trs_format import render_trs

    def commands(check: list[str], fuel: list[str]) -> list[list[str]]:
        return [["check", *check], ["cps"], ["nosup"], ["rhs"],
                ["fc", "--fc-max-gen", "3"], ["fc-check", *fuel]]

    out = [(name, src, commands([], []))
           for name, src in {**LM_SOURCES, **FC_SOURCES}.items()]
    for name, (machine, k, p) in MACHINE_STARTS.items():
        text = render_trs(encode(machine, k, p).theory)
        precedence = ",".join(encoding_precedence(machine))
        out.append((f"encoded_{name}", text,
                    commands(["--precedence", precedence], [])))
    pool, pool_text = ["--fuel", "200"], _pool_generator()
    out.extend((f"pool{seed}", pool_text(seed),
                commands([*pool, "--depth", "3"], pool))
               for seed in POOL_SEEDS)
    return out


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
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_command([argv[0], str(path), *argv[1:]])
        stdout = out.getvalue()
        entries[" ".join([name, *argv])] = {
            "exit": code,
            "stdout_sha256": _sha(stdout),
            "stderr_sha256": _sha(err.getvalue()),
            "first_line": stdout.split("\n", 1)[0],
        }
    return entries


def main() -> None:
    entries: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text, argvs in systems():
            entries.update(outputs(name, text, argvs, Path(tmp)))
    # one entry per line, so that a re-record diffs by entry
    lines = [f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
             for key in sorted(entries)]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(entries)} entries written to {GOLDEN}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    main()
