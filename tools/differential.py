"""Run one corpus of decks under this checkout and under another revision,
and compare everything each run leaves behind.

    python3 tools/differential.py --base HEAD^

Run from anywhere inside a git checkout; only the standard library is
needed.  The base revision's src/ is exported with git archive into a
temporary directory.  Each tree then runs the corpus in a worker process of
its own, every deck at widths 80 and 120, each with the listing on and off,
under a step budget and an alarm:

* GENERATED decks from tests/generators.py, seeded 0, 1, 2, ..., and the
  first STRADDLED of them again with each program laid at a random card
  width, so that its tokens run across the end of a card;
* the perfbench decks of every workload at seeds 1 to 3;
* the float-edge decks from tests/generators.py;
* the column-80 decks from tests/generators.py, whose constants, counters
  and I data run across the end of a card, and the compile-80 decks,
  whose quote prefixes, arguments, names, comments and strings do;
* the monitor, keypunch, store-overflow and I datum decks from
  tests/generators.py, and its number decks, which read and print
  numbers at float32's edges;
* each column-80, compile-80 and monitor deck again, cut short after
  each of its cards and at every column of its last card, so that the
  cards end inside a token, a name or a command, or between the cards it
  is split over, as tests/test_properties.py cuts them.

A run is compared by tests/generators.snapshot: output, punch, status,
reader notes, the reader and writer state, stack, variables, constants,
every store cell and every row of both dispatch tables.  A run that hits
the alarm in this checkout but finishes in the base has hung here; a run
that hits the alarm in the base is excluded, for there is nothing to
compare it with.  The report gives how many runs were identical, how many
differed, how many hung here and how many were excluded, names the first
field that differs for each differing run, and names each run that hung
here or was excluded.  The exit status is 1 if any run differed or hung
here, else 0.
"""

import argparse
import io
import json
import random
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
WIDTHS = (80, 120)
LISTINGS = (True, False)  # SessionConfig.echo: the listing on, then off
PERFBENCH_SEEDS = (1, 2, 3)
GENERATED = 2000
STRADDLED = 1000
MAX_STEPS = 200_000  # step budget of each run
SECONDS = 10  # alarm on each run


def corpus():
    """(name, cards) for every deck, in a fixed order."""
    sys.path[:0] = [str(CHECKOUT / "tests"), str(CHECKOUT / "perfbench")]
    import generators
    import workloads

    decks = [(f"generated {i}", generators.deck(random.Random(i)))
             for i in range(GENERATED)]
    decks.extend((f"straddled {i}", generators.deck(random.Random(i), straddle=True))
                 for i in range(STRADDLED))
    for name, (make, _) in sorted(workloads.WORKLOADS.items()):
        for seed in PERFBENCH_SEEDS:
            decks.extend((f"{name} seed {seed} deck {i}", list(d.cards))
                         for i, d in enumerate(make(seed)))
    decks.extend((f"float edge {cards[0]}", cards)
                 for cards in generators.float_edge_decks())
    for kind in ("column_80", "compile_80", "monitor", "keypunch", "overflow", "datum",
                 "number"):
        make = getattr(generators, f"{kind}_decks")
        decks.extend((f"{kind.replace('_', ' ')} {i}", cards)
                     for i, cards in enumerate(make()))
    for kind in ("column_80", "compile_80", "monitor"):
        for i, cards in enumerate(getattr(generators, f"{kind}_decks")()):
            decks.extend((f"{kind.replace('_', ' ')} {i} cut {j}", cut)
                         for j, cut in enumerate(generators.cut_short(cards)))
    return decks


class _Alarm(Exception):
    pass


def _expire(signum, frame):
    raise _Alarm


def worker(src, corpus_file):
    """Run the corpus under the reca in src; one JSON snapshot a line."""
    sys.path[:0] = [src, str(CHECKOUT / "tests")]
    from generators import snapshot
    from reca.session import SessionConfig, run_deck

    signal.signal(signal.SIGALRM, _expire)
    for name, cards in json.loads(Path(corpus_file).read_text()):
        for width in WIDTHS:
            for listing in LISTINGS:
                config = SessionConfig(width=width, echo=listing, max_steps=MAX_STEPS)
                signal.alarm(SECONDS)
                try:
                    result = snapshot(*run_deck(cards, config=config))
                except _Alarm:
                    result = None
                except Exception as exc:  # an escape is a result to compare too
                    result = {"exception": f"{type(exc).__name__}: {exc}"}
                finally:
                    signal.alarm(0)
                print(json.dumps(result))


def export(rev, into):
    """Write rev's src/ under into with git archive; returns its path."""
    tar = subprocess.run(["git", "-C", str(CHECKOUT), "archive", rev, "src"],
                         capture_output=True, check=True).stdout
    # the data filter exists from Python 3.12 and in later 3.10 and 3.11
    # releases; the archive is this repository's own
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)
    return into / "src"


def describe(run):
    name, width, listing = run
    return f"{name}, width {width}, listing {'on' if listing else 'off'}"


def first_difference(a, b):
    if a.keys() != b.keys():
        return "fields"
    return next(k for k in a if a[k] != b[k])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--base", help="git revision to compare with")
    side.add_argument("--worker", nargs=2, metavar=("SRC", "CORPUS"),
                      help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(*args.worker)
        return 0

    decks = corpus()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus_file = tmp / "corpus.json"
        corpus_file.write_text(json.dumps(decks))
        procs = [
            subprocess.Popen(
                [sys.executable, __file__, "--worker", str(src), str(corpus_file)],
                stdout=subprocess.PIPE, text=True)
            for src in (export(args.base, tmp / "base"), CHECKOUT / "src")
        ]
        runs = [(name, width, listing) for name, _ in decks
                for width in WIDTHS for listing in LISTINGS]
        identical, differed, hung, excluded = 0, [], [], []
        # read the two workers in step, so neither holds more than a line
        for run, base, this in zip(runs, *(p.stdout for p in procs)):
            base, this = json.loads(base), json.loads(this)
            if base is None:
                excluded.append(run)
            elif this is None:
                hung.append(run)
            elif base == this:
                identical += 1
            else:
                differed.append((run, first_difference(base, this)))
        for side, p in zip(("base", "this"), procs):
            p.stdout.close()
            if p.wait() != 0:
                raise SystemExit(f"differential.py: the {side} worker failed")
    if identical + len(differed) + len(hung) + len(excluded) != len(runs):
        raise SystemExit("differential.py: a worker stopped early")
    print(f"{args.base} against this checkout: {len(runs)} runs of {len(decks)} decks"
          f" at widths {' and '.join(map(str, WIDTHS))}, the listing on and off,"
          f" step budget {MAX_STEPS}")
    print(f"  identical {identical}")
    print(f"  differed  {len(differed)}")
    print(f"  hung here {len(hung)} (alarm after {SECONDS} s in this checkout only)")
    print(f"  excluded  {len(excluded)} (alarm after {SECONDS} s in the base)")
    for run, field in differed:
        print(f"  differs: {describe(run)}: first in {field}")
    for run in hung:
        print(f"  hung here: {describe(run)}")
    for run in excluded:
        print(f"  excluded: {describe(run)}")
    return 1 if differed or hung else 0


if __name__ == "__main__":
    sys.exit(main())
