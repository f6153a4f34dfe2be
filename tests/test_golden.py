"""The command line's outputs match the recorded golden entries and the
recorded sample (`tests/record_golden.py` says what they cover and how to
re-record)."""

import json

import pytest

from conftest import MACHINE_STARTS
from record_golden import GOLDEN, SAMPLE, outputs, samples, systems

SYSTEMS = systems()
RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))
SAMPLES = samples()
SAMPLED = json.loads(SAMPLE.read_text(encoding="utf-8"))


def test_every_entry_is_run():
    run = {" ".join([name, *argv]) for name, _, argvs in SYSTEMS
           for argv in argvs}
    assert run == set(RECORDED)
    # a system file runs seven subcommands, and `normalize` unless it is a
    # pool system; an encoded machine runs `check` once more without a
    # precedence and `cap` in two forms; a machine file runs four `minsky`
    # actions in two forms
    machines = len(MACHINE_STARTS)
    files = len(SYSTEMS) - machines
    pool = sum(name.startswith("pool") for name, _, _ in SYSTEMS)
    assert len(run) == 8 * files - pool + 3 * machines + 8 * machines


@pytest.mark.parametrize("name,text,argvs", SYSTEMS,
                         ids=[name for name, _, _ in SYSTEMS])
def test_outputs_match_the_golden_file(name, text, argvs, tmp_path):
    got = outputs(name, text, argvs, tmp_path)
    assert got == {key: RECORDED.get(key) for key in got}


def test_every_sample_is_run():
    run = {" ".join([name, *argv]) for name, _, argvs in SAMPLES
           for argv in argvs}
    assert run == set(SAMPLED)
    assert len(run) == 2 * len(SAMPLES)


@pytest.mark.parametrize("name,text,argvs", SAMPLES,
                         ids=[name for name, _, _ in SAMPLES])
def test_sampled_outputs_match_the_sample_file(name, text, argvs, tmp_path):
    got = outputs(name, text, argvs, tmp_path)
    assert got == {key: SAMPLED.get(key) for key in got}
