"""Session lifecycle, alternate units, and the command line front end."""

import signal
from pathlib import Path

import pytest

from reca import decks
from reca.cli import main
from reca.iosys import PAGE_EJECT
from reca.session import Session, SessionConfig, run_deck

from conftest import run

FACTORIAL_DECK = [
    "* N'R",
    "(N,0L'/1',P'/1'-'R*,)'R",
    "('/5''R OX,)",
]


def write_deck(tmp_path, lines, name="test.deck"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# library sessions


def test_definitions_persist_within_session():
    lines, status = run(["*(P*,)Q", "('/4'Q OX,)", "*('/5'Q OX,)"])
    assert status == 0
    assert "  1.60000E 01" in lines
    assert "  2.50000E 01" in lines


def test_on_line_reports_unit_numbers():
    seen = []
    run_deck(["*('/1'OX,)"], on_line=lambda unit, text: seen.append(unit))
    assert set(seen) == {3}


def test_punch_unit_collects_lines():
    sess, status = run_deck(["*O2(\"HELLO'X,)"])
    assert status == 0
    assert "HELLO" in sess.punch
    # nothing from the program body went to the printer
    assert all("HELLO" not in line for line in sess.output)


FIELD_150 = "  1.50000E 00"


@pytest.mark.parametrize("cards, config, fields_per_line", [
    (["* ($10$'/1.5'OL.,X,)"], None, [9, 1]),
    (["* ($8$'/1.5'OL.,X,)"], SessionConfig(width=80), [6, 2]),
    (["*O1 ($8$'/1.5'OL.,X,)"], None, [6, 2]),  # the console is 80 wide
])
def test_fields_never_split_across_lines(cards, config, fields_per_line):
    sess, status = run_deck(cards, config=config)
    assert status == 0
    printed = [line for line in sess.output if FIELD_150 in line]
    assert printed == [FIELD_150 * n for n in fields_per_line]


def test_keyboard_source_drives_session():
    lines = iter(["*('/3''/4'*OX,)"])

    def prompt():
        return next(lines, None)

    sess = Session(keyboard=prompt)
    assert sess.input_unit == 6
    status = sess.run()
    assert status == 0
    assert "  1.20000E 01" in sess.output


def test_echo_default_restored_each_cycle():
    # suppression requested by a deck lasts for one program only
    sess, status = run_deck(["*S ('/1'L,)", "*('/2'L,)"])
    joined = "\n".join(sess.output)
    assert "'/1'" not in joined
    assert "'/2'" in joined


def test_no_echo_config_applies_every_cycle():
    sess, status = run_deck(
        ["*('/1'OX,)", "*('/2'OX,)"], config=SessionConfig(echo=False)
    )
    assert "  1.00000E 00" in sess.output
    assert all("OX" not in line for line in sess.output)


def test_listing_always_config():
    sess, status = run_deck(["*(A,)Y"], config=SessionConfig(listing_always=True))
    assert "      0     -2      5      0      1" in sess.output


def test_run_deck_accepts_multiline_string():
    sess, status = run_deck("*('/2''/2'&OX,)\n")
    assert status == 0
    assert "  4.00000E 00" in sess.output


def test_card_past_column_80_is_noted():
    sess, status = run_deck(["*('/1'OX,)" + " " * 70 + "JUNK"])
    assert status == 0
    assert sess.output == ["*(", "'/1'OX,)" + " " * 3, "  1.00000E 00", PAGE_EJECT]
    assert sess.reader.diagnostics == ["column 81: 4 characters past column 80 dropped"]
    sess, status = run_deck(["*('/1'OX,)" + " " * 100])
    assert sess.reader.diagnostics == []


@pytest.mark.parametrize("deck", [
    ["*('/1'OX"],
    ['*("ABC'],
    ["*('*A NOTE"],
    ["*(X,)'Y", "(X"],
    ["*(" + "X" * 76 + ",)"],   # the name would start on the next card
])
def test_deck_ending_inside_a_program_is_status_one(deck):
    sess, status = run_deck(deck)
    assert status == 1
    assert sess.reader.diagnostics == ["end of input inside a program"]
    assert not any(line.startswith(("COMP", "EXEC", "CONV")) for line in sess.output)


@pytest.mark.parametrize("deck", [
    ["*('/1'OX,)'A "],
    ["*(X,)'Y", "", "   "],
    ["*(X,)Y"],
])
def test_deck_ending_after_a_named_program_is_clean(deck):
    sess, status = run_deck(deck)
    assert status == 0
    assert sess.reader.diagnostics == []


# command line front end


def test_cli_runs_deck_file(tmp_path, capsys):
    path = write_deck(tmp_path, FACTORIAL_DECK)
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "  1.20000E 02" in out


def test_cli_reports_diagnostics_in_status(tmp_path, capsys):
    path = write_deck(tmp_path, ["*(*,)"])
    assert main([path]) == 1
    assert "EXEC 02 EMPTY PUSHDOWN LIST" in capsys.readouterr().out


@pytest.mark.parametrize("name", [
    "factorial", "damped_oscillation", "simpson_pi", "rose_curve",
])
def test_cli_runs_bundled_deck_files(name, capsys):
    sess, status = run_deck(getattr(decks, name.upper()))
    path = Path(decks.__file__).parent / f"{name}.deck"
    assert main([str(path)]) == status
    out = capsys.readouterr().out
    assert out.splitlines() == ["" if l == PAGE_EJECT else l for l in sess.output]


def test_cli_reports_replaced_characters(tmp_path, capsys):
    path = write_deck(tmp_path, ["*('/1'{OX,)"])
    assert main([path]) == 0
    captured = capsys.readouterr()
    assert "  1.00000E 00" in captured.out
    assert captured.err == "reca: column 7: character '{' replaced by blank\n"


def test_cli_notes_a_deck_that_ends_inside_a_program(tmp_path, capsys):
    # column 81 onward is cut, so the program never closes
    path = write_deck(tmp_path, ["*(" + "'/1'" + "L" * 74 + "'/2'OX,)"])
    assert main([path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "*(\n'/1'" + "L" * 74 + "\n"
    assert captured.err == (
        "reca: column 81: 8 characters past column 80 dropped\n"
        "reca: end of input inside a program\n"
    )


def test_cli_missing_deck_is_status_two(tmp_path, capsys):
    assert main([str(tmp_path / "absent.deck")]) == 2
    assert "cannot read deck" in capsys.readouterr().err


def test_cli_strict_charset_rejects_stray_characters(tmp_path, capsys):
    path = write_deck(tmp_path, ["*('/1'OX,) é"])
    assert main([path, "--strict-charset"]) == 2
    assert capsys.readouterr().err.startswith("reca:")


def test_cli_no_echo_flag(tmp_path, capsys):
    path = write_deck(tmp_path, ["*('/7'OX,)"])
    assert main([path, "--no-echo"]) == 0
    out = capsys.readouterr().out
    assert "  7.00000E 00" in out
    assert "OX" not in out


def test_cli_listing_always_flag(tmp_path, capsys):
    path = write_deck(tmp_path, ["*(A,)Y"])
    assert main([path, "--listing-always"]) == 0
    assert "      0     -2      5      0      1" in capsys.readouterr().out


def test_cli_punch_file(tmp_path, capsys):
    path = write_deck(tmp_path, ["*O2(\"CARD TEXT'X,)"])
    punch = tmp_path / "out.punch"
    assert main([path, "--punch", str(punch)]) == 0
    assert "CARD TEXT" in punch.read_text(encoding="utf-8")


def test_cli_max_steps_interrupts(tmp_path, capsys):
    path = write_deck(tmp_path, ["*((L.),)"])
    assert main([path, "--max-steps", "500"]) == 0
    assert "MANUAL INTERRUPT FROM SWITCH  5" in capsys.readouterr().out


def test_cli_ctrl_c_stops_a_loop_of_jumps(tmp_path, capsys):
    # SIGINT every 50 ms while the CLI's own handler is installed; fail
    # after 5 s instead of hanging
    ticks = []

    def interrupt(signum, frame):
        ticks.append(signum)
        if len(ticks) > 100:
            raise TimeoutError("still running after 5 s")
        if signal.getsignal(signal.SIGINT) is not signal.default_int_handler:
            signal.raise_signal(signal.SIGINT)

    path = write_deck(tmp_path, ["*S", "((.),)"])
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.05, 0.05)
    try:
        status = main([path])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert status == 0
    assert "MANUAL INTERRUPT FROM SWITCH  5" in capsys.readouterr().out


def test_cli_width_eighty(tmp_path, capsys):
    # ten 13-character fields overflow an 80-column printer line
    path = write_deck(tmp_path, ["*S ($10$'/1'O L.,)"])
    assert main([path, "--width", "80"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "E 00" in l]
    assert all(len(l) <= 80 for l in lines)
    assert sum(l.count("E 00") for l in lines) == 10
