"""Run tier 1 under line monitoring and print every line of src/ that it
never ran, save those that the allow-list names.

    python3 tools/coverage.py

Needs Python 3.12 or later, for sys.monitoring (PEP 669), and pytest;
nothing else outside the standard library.  Run from anywhere inside a
git checkout.  pytest runs in this process, with src/ first on sys.path,
over tier 1 (the tests/ directory, -q and --continue-on-collection-errors).
A line event is counted once, and its callback then returns DISABLE, so
each line slows the run only the first time it runs.

The executable lines of a file are those that its code objects, compiled
from the source, give through co_lines().  tools/coverage_allow.txt names
the lines that tier 1 may leave unrun, one a line as path:line and the
reason.  The report prints each other unrun line with its text, and each
allowed line that ran or is no longer executable, since the entry has gone
stale.  The exit status is pytest's if tests failed, else 1 if the report
names any line, else 0.
"""

import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SOURCES = ("src/reca/*.py", "src/reca/decks/*.py")
ALLOW = CHECKOUT / "tools" / "coverage_allow.txt"
TIER_1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(path):
    """The line numbers of path's code, taken from its code objects."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # line 0 and None are the instructions of no source line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def allowed():
    """{(path, line): reason} from the allow-list; # starts a comment line."""
    entries = {}
    for text in ALLOW.read_text(encoding="utf-8").splitlines():
        if text.strip() and not text.startswith("#"):
            place, reason = text.split(maxsplit=1)
            path, line = place.rsplit(":", 1)
            entries[path, int(line)] = reason
    return entries


def run_tier_1():
    """Run tier 1 under line monitoring; (pytest's exit status, the set
    of (absolute path, line) it ran in src/)."""
    import pytest

    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    src = str(CHECKOUT / "src")
    ran = set()

    def on_line(code, line):
        if code.co_filename.startswith(src):
            ran.add((code.co_filename, line))
        return mon.DISABLE

    sys.path.insert(0, src)
    mon.use_tool_id(tool, "tools/coverage.py")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    try:
        status = pytest.main([str(CHECKOUT / "tests"), *TIER_1])
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    return int(status), ran


def main():
    if sys.version_info < (3, 12):
        raise SystemExit("coverage.py: needs Python 3.12 or later (sys.monitoring)")
    status, ran = run_tier_1()
    allow = allowed()
    unrun = {}
    for pattern in SOURCES:
        for path in sorted(CHECKOUT.glob(pattern)):
            name = path.relative_to(CHECKOUT).as_posix()
            text = path.read_text(encoding="utf-8").splitlines()
            for line in sorted(executable_lines(path)):
                if (str(path), line) not in ran:
                    unrun[name, line] = text[line - 1].strip()
    report = [f"unrun: {path}:{line}: {text}"
              for (path, line), text in unrun.items() if (path, line) not in allow]
    report += [f"stale allow-list entry: {path}:{line} ({reason})"
               for (path, line), reason in allow.items() if (path, line) not in unrun]
    print(f"coverage.py: {len(unrun)} unrun line(s) in src/, {len(allow)} allowed")
    for text in report:
        print(text)
    if status:
        return status
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
