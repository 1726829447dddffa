"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from counts import reference_counts
from run import ROOT, load_reca
from tracer import TARGETS, Tracer, resolve

HERE = Path(__file__).resolve().parent
NAMES = list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def reca():
    return load_reca()


@pytest.mark.parametrize("name", NAMES)
def test_generation_is_deterministic(name):
    generate = workloads.WORKLOADS[name][0]
    assert generate(7) == generate(7)
    if name != "rose":
        assert generate(7) != generate(8)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_deck_passes_its_check(reca, name, seed):
    generate, check = workloads.WORKLOADS[name]
    for deck in generate(seed):
        sess, status = reca.run_deck(deck.cards)
        assert check(deck, sess.output, status) is None, deck.cards


def test_rose_is_the_committed_deck(reca):
    assert list(workloads.ROSE_CARDS) == reca.decks.ROSE_CURVE


@pytest.fixture(scope="module")
def counts():
    return reference_counts()


def test_counts_match_the_reference(counts):
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        assert counts == json.load(fh)


def test_rose_counts(counts):
    assert counts["rose"]["ops"] == [148_554]
    assert counts["rose"]["calls"] == [0]


def _targets(reca):
    return [vars(owner)[attr]
            for owner, attr in (resolve(reca, m, path) for m, path, _ in TARGETS)]


@pytest.mark.parametrize("count", [False, True])
def test_tracer_restores_every_target(reca, count):
    before = _targets(reca)
    tracer = Tracer(reca, count=count)
    deck = workloads.compile_batch_decks(1)[0]
    with tracer.installed():
        assert all(a is not b for a, b in zip(_targets(reca), before))
        tracer.wrap(ROOT, reca.run_deck)(deck.cards)
    assert all(a is b for a, b in zip(_targets(reca), before))
    summary = tracer.summary()
    assert summary[ROOT]["calls"] == 1
    assert summary["compiler.compile"]["calls"] == workloads.GROUPS
    assert (tracer.ops > 0) == count


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_accounts_for_its_wall_time(reca, name, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    decks = workloads.WORKLOADS[name][0](1)[:2]
    metrics, detail = run.traced_run(reca, decks, run.Verifier(name, decks), 0, [], name, 1)
    assert detail["problems"] == []
    self_s = sum(value for key, (value, _) in metrics.items() if key.endswith(".self_s"))
    assert self_s == pytest.approx(metrics["trace.wall_s"][0], rel=1e-9)
    assert (tmp_path / f"trace-{name}.json").is_file()


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rose", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
