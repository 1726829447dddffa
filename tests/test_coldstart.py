"""The summary of tools/coldstart.py on fixed times, with the tool loaded
by path."""

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("coldstart_tool", TOOLS / "coldstart.py")
coldstart = importlib.util.module_from_spec(_spec)
sys.path.insert(0, str(TOOLS))  # the tool imports differential.py beside it
try:
    _spec.loader.exec_module(coldstart)
finally:
    sys.path.remove(str(TOOLS))


def test_the_summary_of_one_command():
    base = [50.0, 40.0, 60.0, 45.0, 55.0]
    this = [30.0, 42.0, 35.0, 45.0, 33.0]
    assert coldstart.summary("import reca", base, this).splitlines() == [
        "import reca",
        "  base  best    40.0  q1    45.0  median    50.0  q3    55.0 ms",
        "  this  best    30.0  q1    33.0  median    35.0  q3    42.0 ms",
        "  this checkout faster in 3 of 5 pairs; median ratio this / base 0.700",
    ]


def test_it_says_how_bytecode_is_treated():
    assert coldstart.bytecode({"PYTHONDONTWRITEBYTECODE": "1"}).startswith("not written")
    assert coldstart.bytecode({"PYTHONPYCACHEPREFIX": "/tmp/pyc"}).startswith(
        "cached under /tmp/pyc")
    assert coldstart.bytecode({}) == "cached beside the sources"


def test_it_times_import_reca_and_each_demo_deck():
    names = [name for name, _ in coldstart.commands()]
    assert names == ["import reca", "reca factorial.deck", "reca damped_oscillation.deck",
                     "reca simpson_pi.deck", "reca rose_curve.deck"]
    for _, args in coldstart.commands()[1:]:
        assert Path(args[-1]).is_file()
