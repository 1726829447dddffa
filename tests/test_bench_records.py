"""The BENCH_*.json files at the root of the repository, each a list of
the records of runs of tools/pairs.py --record: their shape, their metric
names against BENCHMARK.json's end-to-end metrics, and their summaries
against their pairs."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
RECORDS = [(path, i) for path in FILES for i in range(len(json.loads(path.read_text())))]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
PROBE = {"median", "min", "max", "n"}


@pytest.fixture(params=RECORDS, ids=[f"{path.name}[{i}]" for path, i in RECORDS])
def bench(request):
    path, i = request.param
    return json.loads(path.read_text())[i]


def test_a_record_is_committed():
    assert RECORDS
    for path in FILES:
        assert isinstance(json.loads(path.read_text()), list), path.name


def test_the_record_has_its_fields(bench):
    assert set(bench) == {"base", "this", "workload", "seed", "seconds", "pairs",
                          "python", "platform", "runs", "summary"}
    assert set(bench["base"]) == {"rev", "commit"}
    assert set(bench["this"]) == {"commit", "changed"}
    assert bench["workload"] in WORKLOADS
    assert bench["seconds"] > 0
    assert bench["pairs"] == len(bench["runs"]) > 1
    assert all(isinstance(bench[key], str) and bench[key] for key in ("python", "platform"))
    for i, run in enumerate(bench["runs"]):
        assert set(run) == {"first", "base", "this"}
        # the side that goes first alternates, the base first in pair 1
        assert run["first"] == ("base", "this")[i % 2]
        for side in (run["base"], run["this"]):
            assert set(side) == {"correct", "probe_ms", "metrics"}
            assert side["correct"] is True
            assert set(side["probe_ms"]) == PROBE
            assert side["probe_ms"]["min"] <= side["probe_ms"]["median"] <= side["probe_ms"]["max"]


def test_the_metrics_are_the_benchmarks_end_to_end_metrics(bench):
    for run in bench["runs"]:
        assert set(run["base"]["metrics"]) == set(END_TO_END)
        assert set(run["this"]["metrics"]) == set(END_TO_END)
    assert set(bench["summary"]) == set(END_TO_END)
    for name, row in bench["summary"].items():
        assert row["better"] == END_TO_END[name]


def test_the_summary_follows_from_the_pairs(bench):
    for name, row in bench["summary"].items():
        base = [run["base"]["metrics"][name] for run in bench["runs"]]
        this = [run["this"]["metrics"][name] for run in bench["runs"]]
        q1, q2, q3 = statistics.quantiles(base, n=4)
        sign = 1 if row["better"] == "higher" else -1
        assert row["base_median"] == pytest.approx(q2)
        assert row["base_q1"] == pytest.approx(q1)
        assert row["base_q3"] == pytest.approx(q3)
        assert row["this_median"] == pytest.approx(statistics.median(this))
        assert row["ratio_median"] == pytest.approx(
            statistics.median(t / b for b, t in zip(base, this)))
        assert row["wins"] == sum(sign * (t - b) > 0 for b, t in zip(base, this))
