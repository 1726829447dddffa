"""tools/format_sweep.py, loaded by path: it finds no mismatch between
numio.scientific_text and its reference, and reports one when the two
differ."""

from conftest import load_file

format_sweep = load_file("tools/format_sweep.py")


def test_the_sweep_finds_no_mismatch(capsys):
    assert format_sweep.main(["--seed", "32", "--count", "2000"]) == 0
    assert capsys.readouterr().out == "seed 32: 2000 finite float32 values, 0 mismatches\n"


def test_the_sweep_reports_a_mismatch(capsys, monkeypatch):
    # with no rounding bias the reference truncates the sixth digit
    monkeypatch.setattr(format_sweep, "ROUND_HALF_DIGIT", 0.0)
    assert format_sweep.main(["--seed", "32", "--count", "2000"]) == 1
    *shown, total = capsys.readouterr().out.splitlines()
    assert len(shown) == format_sweep.SHOWN
    assert all(line.startswith("0x") and "reference" in line for line in shown)
    assert total.startswith("seed 32: 2000 finite float32 values,")
    assert not total.endswith(" 0 mismatches")
