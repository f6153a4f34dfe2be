"""The command line's text outputs match the recorded golden entries
(`tests/record_golden.py` says what they cover and how to re-record)."""

import json

import pytest

from record_golden import GOLDEN, outputs, systems

SYSTEMS = systems()
RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_entry_is_run():
    run = {" ".join([name, *argv]) for name, _, argvs in SYSTEMS
           for argv in argvs}
    assert run == set(RECORDED)
    assert len(run) == 6 * len(SYSTEMS)


@pytest.mark.parametrize("name,text,argvs", SYSTEMS,
                         ids=[name for name, _, _ in SYSTEMS])
def test_outputs_match_the_golden_file(name, text, argvs, tmp_path):
    got = outputs(name, text, argvs, tmp_path)
    assert got == {key: RECORDED.get(key) for key in got}
