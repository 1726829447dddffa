"""Run one workload of the deck benchmark in pairs, another revision
against this checkout, and compare their end-to-end metrics.

    python3 tools/pairs.py --base HEAD^ --workload recursion --seed 41 --pairs 10

Run from anywhere inside a git checkout; only the standard library is
needed.  The base revision's src/ is exported with git archive into a
temporary directory and this checkout's perfbench/ is copied beside it,
so that both sides run the same harness.  A pair is one
perfbench/run.py --trace 0 in each tree, one after the other, each for
BENCHMARK.json's run_seconds unless --seconds is given; the side
that goes first alternates from pair to pair, so that a host that slows
down or speeds up over the pairs favours neither side.

Each pair is printed with both sides' end-to-end metrics (those
BENCHMARK.json declares) and their ratio, this checkout over the base.
Then, for each metric, the number of pairs in which this checkout was
better, the base's median and quartiles, this checkout's median and the
median of the ratios.  The exit
status is 1 if either side reported correct: false in any pair, else 0.

With --record FILE the same is also added as a record to FILE, a
BENCH_*.json file that holds a JSON list of them, one a run of pairs
(the file is started if it does not exist).  A record holds both
revisions, the workload, the seed, the run length and the pair count,
the Python version and the platform, each pair with each side's host
probe and end-to-end metrics, and the summary.
tests/test_bench_records.py checks every such file committed at the
root of the repository.
"""

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from differential import CHECKOUT, export


def benchmark():
    """The benchmark's run length in seconds, and (name, better) for each
    of its end-to-end metrics."""
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return spec["run_seconds"], [(m["name"], m["better"]) for m in spec["end_to_end"]]


def bench(tree, args):
    """One untraced perfbench run in tree: its result line, parsed, with
    the host probe of its detail line added as probe_ms."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    try:
        detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        result["probe_ms"] = detail["detail"]["probe_ms"]
        return result
    except (ValueError, KeyError):
        raise SystemExit(f"pairs.py: run.py in {tree} gave no result:\n{proc.stderr}")


def summarise(pairs, metrics):
    """Per metric over (base, this) result pairs: (name, wins, median and
    quartiles of base, median of this, median of this/base)."""
    rows = []
    for name, better in metrics:
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        this = [t["metrics"][name]["value"] for _, t in pairs]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (t - b) > 0 for b, t in zip(base, this))
        ratios = [t / b for b, t in zip(base, this) if b]
        q1, q2, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else base * 3
        rows.append((name, wins, q2, q1, q3, statistics.median(this),
                     statistics.median(ratios) if ratios else float("nan")))
    return rows


def commit(rev):
    """The commit that rev names in this checkout."""
    return subprocess.run(["git", "-C", str(CHECKOUT), "rev-parse", rev],
                          capture_output=True, text=True, check=True).stdout.strip()


def record(args, pairs, firsts, metrics, rows):
    """The BENCH_*.json record of a run of pairs, as a plain dict."""
    changed = subprocess.run(["git", "-C", str(CHECKOUT), "status", "--porcelain", "--",
                              "src", "perfbench"], capture_output=True, text=True).stdout
    names = [name for name, _ in metrics]

    def side(result):
        return {"correct": result["correct"], "probe_ms": result["probe_ms"],
                "metrics": {name: result["metrics"][name]["value"] for name in names}}

    return {
        "base": {"rev": args.base, "commit": commit(args.base)},
        "this": {"commit": commit("HEAD"), "changed": bool(changed)},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "runs": [{"first": first, "base": side(b), "this": side(t)}
                 for first, (b, t) in zip(firsts, pairs)],
        "summary": {name: {"better": better, "wins": wins, "base_median": base,
                           "base_q1": q1, "base_q3": q3, "this_median": this,
                           "ratio_median": ratio}
                    for (name, better), (_, wins, base, q1, q3, this, ratio)
                    in zip(metrics, rows)},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--record", metavar="FILE",
                        help="also add the pairs, as JSON, to the records in FILE")
    args = parser.parse_args(argv)

    run_seconds, metrics = benchmark()
    if args.seconds is None:
        args.seconds = run_seconds
    pairs, firsts, correct = [], [], True
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = export(args.base, Path(tmp)).parent
        shutil.copytree(CHECKOUT / "perfbench", base_tree / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
        trees = {"base": base_tree, "this": CHECKOUT}
        for i in range(args.pairs):
            order = ("base", "this") if i % 2 == 0 else ("this", "base")
            result = {side: bench(trees[side], args) for side in order}
            pairs.append((result["base"], result["this"]))
            firsts.append(order[0])
            print(f"pair {i + 1} of {args.pairs}, {order[0]} first")
            for side in ("base", "this"):
                if not result[side]["correct"]:
                    correct = False
                    print(f"  {side}: correct false, {result[side]['failed']} of"
                          f" {result[side]['attempted']} runs failed")
            for name, _ in metrics:
                b, t = (result[side]["metrics"][name]["value"] for side in ("base", "this"))
                ratio = f"{t / b:8.4f}" if b else "       -"
                print(f"  {name:<12} base {b:14.6g}  this {t:14.6g}  this/base {ratio}")
            sys.stdout.flush()
    print(f"{args.base} against this checkout: {args.workload}, seed {args.seed},"
          f" {args.pairs} pairs of {args.seconds:g} s runs")
    rows = summarise(pairs, metrics)
    for name, wins, base, q1, q3, this, ratio in rows:
        print(f"  {name:<12} this better in {wins:>2} of {len(pairs)}"
              f"  median base {base:.6g} [{q1:.6g}, {q3:.6g}]  this {this:.6g}"
              f"  this/base {ratio:.4f}")
    if not correct:
        print("  a run reported correct: false")
    if args.record:
        path = Path(args.record)
        records = json.loads(path.read_text()) if path.exists() else []
        records.append(record(args, pairs, firsts, metrics, rows))
        path.write_text(json.dumps(records, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
