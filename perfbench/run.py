"""Run one workload of the deck benchmark and print its metrics.

    python3 perfbench/run.py --workload rose --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; reca is imported from its src directory.
With --trace 0 the decks run untraced for --seconds, and for at least
MIN_ROUNDS rounds, and the end-to-end metrics are reported.  With --trace 1
untraced and traced passes over the decks alternate for --seconds and the
per-layer metrics are reported: times from the traced passes, which only
record spans, and counts from two counting passes, one before them and one
after.  The spans of the first traced pass are written to .bench_out/.

Every deck's output is checked against the workload's own oracle the first
time it runs, and against that run's SHA-256 every time after.  The last
line of output is one JSON object: correct, attempted, failed and metrics.
The exit status is 0 only if every check passed.
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import ROOT, TARGETS, Tracer

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
TRACE_DIR = CHECKOUT / ".bench_out"
MIN_SAMPLES = 100       # p90 then has at least ten samples beyond it
MIN_ROUNDS = 4          # each sample is the fastest of at least this many runs
MIN_TRACED_PASSES = 3
TRACED_DECKS = 20       # traced passes keep every span, so they run fewer decks
PROBE_EVERY_S = 1.0
SETUP_EVERY_S = 0.5     # set-up is repeated between rounds of the timed loop,
SETUP_SLOTS = 5         # the repeats dealt into slots like the decks; setup_s
                        # is the median slot best


def load_reca():
    """Import reca afresh from the checkout's src directory."""
    if not (SRC / "reca" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no reca package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "reca" or m.startswith("reca.")]:
        del sys.modules[name]
    import reca

    if Path(reca.__file__).resolve().parent != SRC / "reca":
        raise SystemExit(f"run.py: imported reca from {reca.__file__}, not {SRC}")
    return reca


def probe_ms():
    """A fixed pure-Python loop, timed to show the host's speed at the time."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def output_digest(lines, status):
    text = "\n".join(lines) + f"\nstatus {status}"
    return hashlib.sha256(text.encode()).hexdigest()


def combined_digest(digests):
    """One SHA-256 over the output digests of a set of decks, in deck order."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()


class Verifier:
    """Checks each deck run: the oracle on the first, the digest after."""

    def __init__(self, workload, decks):
        self.check = workloads.WORKLOADS[workload][1]
        self.decks = decks
        self.digests = [None] * len(decks)
        self.attempted = 0
        self.failures = []

    def __call__(self, index, sess, status):
        self.attempted += 1
        digest = output_digest(sess.output, status)
        if self.digests[index] is None:
            error = self.check(self.decks[index], sess.output, status)
            if error is None:
                self.digests[index] = digest
        elif digest != self.digests[index]:
            error = "output differs from an earlier run of the same deck"
        else:
            error = None
        if error is not None:
            self.failures.append(f"deck {index}: {error}")

    def set_digest(self):
        return None if None in self.digests else combined_digest(self.digests)


def set_up(workload, seed):
    """Import reca afresh, generate the decks and build the first Session;
    returns the import, the decks and the seconds it took."""
    t0 = time.perf_counter()
    reca = load_reca()
    decks = workloads.WORKLOADS[workload][0](seed)
    reca.Session(cards=list(decks[0].cards))
    return reca, decks, time.perf_counter() - t0


def deck_counts(reca, decks, verify=None):
    """Exact per-deck counts from one counting pass over the decks.

    The counting tracer makes every exec-table lookup a Python call, so
    this pass gives counts only, never times.
    """
    tracer = Tracer(reca, count=True)
    counts = []
    lines = 0

    def on_line(unit, text):
        nonlocal lines
        lines += 1

    with tracer.installed():
        run = tracer.wrap(ROOT, reca.run_deck)
        for index, deck in enumerate(decks):
            tracer.reset()
            lines = 0
            sess, status = run(deck.cards, on_line=on_line)
            if verify is not None:
                verify(index, sess, status)
            counts.append({
                "ops": tracer.ops,
                "calls": tracer.calls,
                "cards": len(deck.cards),
                "cells": sess.store.ilc - 1,
                "lines": lines,
                "spans": {name: entry["calls"] for name, entry in tracer.summary().items()},
                "sha256": output_digest(sess.output, status),
            })
    return counts


def slot_bests(times, slots):
    """Fastest time of each slot, time i having been measured in slot i % slots."""
    return [min(times[i::slots]) for i in range(min(slots, len(times)))]


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[-(-9 * len(ordered) // 10) - 1]


def timed_run(reca, decks, verify, seconds, probes, setup_times, workload, seed):
    """End-to-end metrics from an untraced closed loop of rounds over the decks.

    The decks are dealt into at least MIN_SAMPLES slots (the same deck in
    several slots when there are fewer decks) and the loop runs round after
    round over the slots.  Each slot's sample is its fastest run, so a phase
    of a slow host only counts if it covers every round of that slot.
    Set-up is repeated between rounds, never between two timed runs, so that
    its repeats too meet the host's fast moments: a slow phase can outlast
    any batch of set-ups made in one place.
    """
    run_deck = reca.run_deck
    for index, deck in enumerate(decks):  # warm-up; checks every oracle
        verify(index, *run_deck(deck.cards))
    n = len(decks)
    slots = n * -(-MIN_SAMPLES // n)
    runs = []
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    next_probe = next_setup = start + PROBE_EVERY_S
    while True:
        index = len(runs) % n
        t0 = clock()
        sess, status = run_deck(decks[index].cards)
        runs.append(clock() - t0)
        verify(index, sess, status)
        now = clock()
        if now >= next_probe:
            probes.append(probe_ms())
            next_probe = clock() + PROBE_EVERY_S
        if len(runs) % slots:
            continue
        if now >= deadline and len(runs) >= MIN_ROUNDS * slots:
            break
        if now >= next_setup:
            setup_times.append(set_up(workload, seed)[2])
            next_setup = clock() + SETUP_EVERY_S
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts = deck_counts(reca, decks, verify)
    best = slot_bests(runs, slots)
    busy = sum(best)
    metrics = {
        "deck_ms.p50": (statistics.median(best) * 1e3, "ms"),
        "decks_per_s": (slots / busy, "1/s"),
        "ops_per_s": (sum(counts[s % n]["ops"] for s in range(slots)) / busy, "1/s"),
        "cards_per_s": (sum(counts[s % n]["cards"] for s in range(slots)) / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(slot_bests(setup_times, SETUP_SLOTS)), "s"),
    }
    detail = {
        "samples": slots,
        "deck_ms.p90": p90(best) * 1e3,
        "runs": len(runs),
        "loop_decks_per_s": len(runs) / sum(runs),
        "run_ms.p50": statistics.median(runs) * 1e3,
        "run_ms.p90": p90(runs) * 1e3,
    }
    return metrics, detail


def _traced_pass(reca, tracer, decks, verify):
    tracer.reset()
    with tracer.installed():
        run = tracer.wrap(ROOT, reca.run_deck)
        for index, deck in enumerate(decks):
            verify(index, *run(deck.cards))
    return tracer.summary()


def traced_run(reca, decks, verify, seconds, probes, workload, seed):
    """Per-layer metrics from traced passes, alternating with untraced ones."""
    run_deck = reca.run_deck
    for index, deck in enumerate(decks):  # warm-up; checks every oracle
        verify(index, *run_deck(deck.cards))
    counts = deck_counts(reca, decks, verify)
    clock = time.perf_counter
    tracer = Tracer(reca)
    untraced_ns, summaries, problems = [], [], []
    deadline = clock() + seconds
    while clock() < deadline or len(summaries) < MIN_TRACED_PASSES:
        busy = 0
        for index, deck in enumerate(decks):
            t0 = time.perf_counter_ns()
            sess, status = run_deck(deck.cards)
            busy += time.perf_counter_ns() - t0
            verify(index, sess, status)
        untraced_ns.append(busy)
        summaries.append(_traced_pass(reca, tracer, decks, verify))
        if len(summaries) == 1:
            write_spans(tracer.spans, workload, seed)
        probes.append(probe_ms())
    if deck_counts(reca, decks, verify) != counts:
        problems.append("counts differ between two counting passes")

    # the times come from the pass of median wall time, so that its self
    # times and the remainder outside every span add up to its wall time
    walls = [summary[ROOT]["total_ns"] for summary in summaries]
    middle = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
    timed = summaries[middle]
    n = len(decks)
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def self_s(name):
        return timed.get(name, zero)["self_ns"] / n / 1e9

    def per_deck(count):
        return sum(deck[count] for deck in counts) / n

    def span_calls(name):
        return sum(deck["spans"].get(name, 0) for deck in counts) / n

    ops = sum(deck["ops"] for deck in counts)
    execute_ns = timed.get("interpreter.execute", zero)["self_ns"]
    init = timed["session.init"]
    metrics = {
        "interpreter.execute.self_s": (self_s("interpreter.execute"), "s"),
        "interpreter.ns_per_op": (execute_ns / ops if ops else 0.0, "ns"),
        "interpreter.ops": (per_deck("ops"), "count"),
        "interpreter.calls": (per_deck("calls"), "count"),
        "compiler.monitor.self_s": (self_s("compiler.monitor"), "s"),
        "compiler.compile.self_s": (self_s("compiler.compile"), "s"),
        "compiler.compile.calls": (span_calls("compiler.compile"), "count"),
        "store.cells_used": (per_deck("cells"), "count"),
        "charset.encode_card.calls": (span_calls("charset.encode_card"), "count"),
        "charset.encode_card.self_s": (self_s("charset.encode_card"), "s"),
        "iosys.read.calls": (span_calls("iosys.read"), "count"),
        "iosys.read.self_s": (self_s("iosys.read"), "s"),
        "iosys.put.calls": (span_calls("iosys.put"), "count"),
        "iosys.put.self_s": (self_s("iosys.put"), "s"),
        "iosys.flush.self_s": (self_s("iosys.flush"), "s"),
        "iosys.lines": (per_deck("lines"), "count"),
        "numio.format.calls": (span_calls("numio.format"), "count"),
        "numio.format.self_s": (self_s("numio.format"), "s"),
        "numio.parse.calls": (span_calls("numio.parse"), "count"),
        "numio.parse.self_s": (self_s("numio.parse"), "s"),
        "session.init.calls": (span_calls("session.init"), "count"),
        "session.init.us": (init["total_ns"] / init["calls"] / 1e3, "us"),
        "session.init.self_s": (self_s("session.init"), "s"),
        "tables.exec_table.calls": (span_calls("tables.exec_table"), "count"),
        "tables.exec_table.self_s": (self_s("tables.exec_table"), "s"),
        "other.self_s": (self_s(ROOT), "s"),
        "trace.wall_s": (walls[middle] / n / 1e9, "s"),
        "trace.overhead_s": ((walls[middle] - statistics.median(untraced_ns)) / n / 1e9, "s"),
    }
    return metrics, {"traced_passes": len(summaries), "problems": problems}


def write_spans(spans, workload, seed):
    """Spans as [name index, start ns, end ns, parent index], start at 0."""
    names = [ROOT] + [name for _, _, name in TARGETS]
    index = {name: i for i, name in enumerate(names)}
    origin = spans[0][1] if spans else 0
    rows = [[index[n], s - origin, e - origin, p] for n, s, e, p in spans]
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "names": names, "spans": rows},
                  fh, separators=(",", ":"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reca, decks, setup_s = set_up(args.workload, args.seed)
    setup_times = [setup_s]
    if args.trace:
        decks = decks[:TRACED_DECKS]
    verify = Verifier(args.workload, decks)
    probes = [probe_ms()]
    if args.trace:
        metrics, detail = traced_run(reca, decks, verify, args.seconds, probes,
                                     args.workload, args.seed)
    else:
        metrics, detail = timed_run(reca, decks, verify, args.seconds, probes,
                                    setup_times, args.workload, args.seed)
    probes.append(probe_ms())

    failed = len(verify.failures)
    problems = detail.pop("problems", [])
    correct = failed == 0 and not problems
    detail.update(
        workload=args.workload,
        seed=args.seed,
        decks=len(decks),
        fail_ratio=failed / verify.attempted,
        failures=verify.failures[:5],
        problems=problems,
        output_sha256=verify.set_digest(),
        setup_s=setup_times,
        probe_ms={"median": statistics.median(probes), "min": min(probes),
                  "max": max(probes), "n": len(probes)},
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": verify.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
