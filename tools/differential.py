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
  tests/generators.py, its number decks, which read and print numbers
  at float32's edges, and its BRANCH_DECKS, which reach branches that no
  generated deck reaches;
* each column-80, compile-80 and monitor deck again, cut short after
  each of its cards and at every column of its last card, so that the
  cards end inside a token, a name or a command, or between the cards it
  is split over, as tests/test_properties.py cuts them.

A run is compared by tests/generators.snapshot: output, punch, status,
reader notes, the reader and writer state, stack, variables, constants,
every store cell and every row of both dispatch tables.  A run that hits
the alarm in this checkout but finishes in the base has hung here; a run
that hits the alarm in the base is excluded, for there is nothing to
compare it with.

A change meant to alter output names the decks whose runs it alters in
tools/expected_differences.txt: one fnmatch pattern of deck names a line,
blank lines and lines starting with # skipped.  Every run of a deck that
matches a pattern must differ, and every other run must be identical.  The
report gives how many runs were identical, differed unexpectedly,
differed as expected, stayed identical though expected to differ, hung
here and were excluded; it names the first field that differs for each
run that differed, and names each other run that is not identical and
each pattern that matches no deck.  The exit status is 1 if any run
differed unexpectedly, stayed identical though expected to differ or hung
here, or if a pattern matches no deck; else 0.
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
from fnmatch import fnmatchcase
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
EXPECTED = CHECKOUT / "tools" / "expected_differences.txt"
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
    decks.extend((f"branch {i}", cards) for i, cards in enumerate(generators.BRANCH_DECKS))
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


def expected_patterns(path=EXPECTED):
    """The deck-name patterns of the runs meant to differ."""
    lines = (line.strip() for line in Path(path).read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


# the kinds of run, in the report's order, and those that fail the verdict
KINDS = ("identical", "differed", "expected", "unmet", "hung", "excluded")
FAILING = ("differed", "unmet", "hung")


def verdict(results, patterns):
    """Sort the runs by kind and give the exit status.  results yields
    (run, base, this) for each run, run being (deck name, width, listing)
    and base and this its snapshots, None where the alarm hit.  Returns
    (kinds, unused, status): kinds maps each of KINDS to its runs, each
    with the first field that differs or None; unused lists the patterns
    that match no run's deck; status is 1 if any run is of a FAILING kind
    or any pattern is unused, else 0."""
    kinds = {kind: [] for kind in KINDS}
    used = set()
    for run, base, this in results:
        matched = {p for p in patterns if fnmatchcase(run[0], p)}
        used |= matched
        field = None
        if base is None:
            kind = "excluded"
        elif this is None:
            kind = "hung"
        elif base == this:
            kind = "unmet" if matched else "identical"
        else:
            kind = "expected" if matched else "differed"
            field = first_difference(base, this)
        kinds[kind].append((run, field))
    unused = [p for p in patterns if p not in used]
    failed = unused or any(kinds[kind] for kind in FAILING)
    return kinds, unused, 1 if failed else 0


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
        # read the two workers in step, so neither holds more than a line
        results = ((run, json.loads(base), json.loads(this))
                   for run, base, this in zip(runs, *(p.stdout for p in procs)))
        kinds, unused, status = verdict(results, expected_patterns())
        for side, p in zip(("base", "this"), procs):
            p.stdout.close()
            if p.wait() != 0:
                raise SystemExit(f"differential.py: the {side} worker failed")
    if sum(map(len, kinds.values())) != len(runs):
        raise SystemExit("differential.py: a worker stopped early")
    print(f"{args.base} against this checkout: {len(runs)} runs of {len(decks)} decks"
          f" at widths {' and '.join(map(str, WIDTHS))}, the listing on and off,"
          f" step budget {MAX_STEPS}")
    print(f"  identical {len(kinds['identical'])}")
    print(f"  differed  {len(kinds['differed'])}")
    print(f"  expected  {len(kinds['expected'])} (differed, as {EXPECTED.name} expects)")
    print(f"  unmet     {len(kinds['unmet'])} (identical, though {EXPECTED.name} expects"
          " a difference)")
    print(f"  hung here {len(kinds['hung'])} (alarm after {SECONDS} s in this checkout only)")
    print(f"  excluded  {len(kinds['excluded'])} (alarm after {SECONDS} s in the base)")
    for kind in KINDS[1:]:
        for run, field in kinds[kind]:
            print(f"  {kind}: {describe(run)}" + (f": first in {field}" if field else ""))
    for pattern in unused:
        print(f"  unused pattern: {pattern}")
    return status


if __name__ == "__main__":
    sys.exit(main())
