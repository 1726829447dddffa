"""What `import reca` loads: each import runs in a fresh `python -S` with
only src/ on its path, which reports the modules the import added."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = ("import sys; before = set(sys.modules); import {}; "
         "print(*sorted(set(sys.modules) - before))")

# modules that reca once loaded behind the library, for one config class,
# one findall, one compiled fullmatch and one partial.  A deny-list, for
# the standard library's own imports differ from one Python to the next.
COMPILER_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")
# argparse loads these, so only the library goes without them
PARSER_MODULES = ("re", "enum", "functools")


def added_by(module):
    done = subprocess.run([sys.executable, "-S", "-c", PROBE.format(module)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


@pytest.mark.parametrize("module, denied", [
    ("reca", COMPILER_MODULES + PARSER_MODULES),
    ("reca.cli", COMPILER_MODULES),
])
def test_importing_reca_loads_none_of(module, denied):
    added = added_by(module)
    assert {"reca", module} <= added
    assert not added & set(denied)
