"""Time a fresh Python that starts reca, in this checkout and in another
revision: `import reca`, and the command line on each demo deck.

    python3 tools/coldstart.py --base HEAD^
    python3 tools/coldstart.py --base HEAD^ --pairs 21

Run from anywhere inside a git checkout; only the standard library is
needed.  REV's src/ is exported with git archive into a temporary
directory, as tools/differential.py does.  Each command runs in a fresh
`python -S` process with PYTHONPATH set to one tree's src/ and its stdout
discarded; the command line is started as the reca script starts it, by
calling reca.cli.main, on this checkout's copy of each deck.  For each
command, each tree makes one unmeasured warm-up run, and then the two
trees make N pairs of runs, the tree that goes first alternating from one
pair to the next.

For each command it prints each tree's best, lower quartile, median and
upper quartile, in ms of wall time, how many pairs this checkout won
(ties count for neither tree), and the ratio of the medians, this
checkout's over the base's.  It prints first whether the processes write
bytecode, for a run without a bytecode cache also compiles every module
it imports.  The exit status is 1 if any process fails, else 0.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from differential import export

CHECKOUT = Path(__file__).resolve().parent.parent
DECKS = ("factorial", "damped_oscillation", "simpson_pi", "rose_curve")
CLI = "import sys; from reca.cli import main; sys.exit(main(sys.argv[1:]))"


def commands():
    """(name, python arguments) of each command timed."""
    decks = CHECKOUT / "src" / "reca" / "decks"
    return [("import reca", ["-c", "import reca"])] + [
        (f"reca {name}.deck", ["-c", CLI, str(decks / f"{name}.deck")])
        for name in DECKS]


def bytecode(env):
    """How the processes run under env treat bytecode, in words."""
    if env.get("PYTHONDONTWRITEBYTECODE"):
        return "not written (PYTHONDONTWRITEBYTECODE)"
    if env.get("PYTHONPYCACHEPREFIX"):
        return f"cached under {env['PYTHONPYCACHEPREFIX']} (PYTHONPYCACHEPREFIX)"
    return "cached beside the sources"


def timed(src, args):
    """Wall time in ms of one fresh `python -S` run of args with src on
    its path; a process that fails ends the tool with status 1."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-S", *args], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = (time.perf_counter() - start) * 1000
    if done.returncode != 0:
        raise SystemExit(f"coldstart.py: {args} failed under {src}:\n"
                         + done.stderr.decode(errors="replace"))
    return elapsed


def summary(name, base, this):
    """The report on one command, given the base's and this checkout's
    times in ms, pair by pair."""
    lines = [name]
    for side, times in (("base", base), ("this", this)):
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        lines.append(f"  {side}  best {min(times):7.1f}  q1 {q1:7.1f}"
                     f"  median {median:7.1f}  q3 {q3:7.1f} ms")
    wins = sum(t < b for b, t in zip(base, this))
    ratio = statistics.median(this) / statistics.median(base)
    lines.append(f"  this checkout faster in {wins} of {len(base)} pairs;"
                 f" median ratio this / base {ratio:.3f}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV", required=True,
                        help="git revision to compare with")
    parser.add_argument("--pairs", type=int, default=11,
                        help="pairs of runs of each command (default 11)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be 2 or more")
    print(f"{args.base} against this checkout, {args.pairs} pairs, python -S"
          f" {sys.version.split()[0]}; bytecode {bytecode(os.environ)}")
    with tempfile.TemporaryDirectory() as tmp:
        trees = (export(args.base, Path(tmp)), CHECKOUT / "src")
        for name, python_args in commands():
            for src in trees:
                timed(src, python_args)
            times = ([], [])
            for pair in range(args.pairs):
                for side in (0, 1) if pair % 2 == 0 else (1, 0):
                    times[side].append(timed(trees[side], python_args))
            print(summary(name, *times))


if __name__ == "__main__":
    sys.exit(main())
