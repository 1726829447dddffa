"""Session lifecycle, alternate units, and the command line front end."""

import gc
import signal
from pathlib import Path

import pytest

from reca import charset, decks
from reca.cli import main
from reca.iosys import PAGE_EJECT, CardReader
from reca.session import Session, SessionConfig, run_deck

import generators
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


def test_runs_leave_no_garbage():
    # a session is freed by reference counting alone: no cycle holds it
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            run_deck(decks.FACTORIAL)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    assert sess.reader.unit == 6
    status = sess.run()
    assert status == 0
    assert "  1.20000E 01" in sess.output


def test_a_session_reads_cards_or_a_keyboard_not_both():
    # the reader holds one source, and neither may be dropped silently
    with pytest.raises(TypeError):
        Session(cards=["*('/1'OX,)"], keyboard=["*('/2'OX,)"])


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


# lowercase, so that each program card is decoded if it is echoed
LOWERCASE_PROGRAMS = ["('/1'p,)y   ('/2'l,)z", "(y z,)"]


@pytest.mark.parametrize("way, decodes", [
    ("listing on", 2), ("SessionConfig", 0), ("--no-echo", 0), ("monitor S", 0)])
def test_no_card_is_decoded_or_echoed_while_the_listing_is_off(
        way, decodes, tmp_path, monkeypatch, capsys):
    decoded, rounds = [], []
    decode_words = charset.decode_words
    cycle, hand_back, next_card = Session.cycle, CardReader.hand_back, CardReader.next_card

    def counting_decode(words):
        decoded.append(words)
        return decode_words(words)

    def noting_cycle(sess):
        # a round notes whether it is its session's first, and then, in
        # order, whether each hand-back and card turn is passed an echo
        rounds.append((not hasattr(sess, "noted"), []))
        sess.noted = True
        return cycle(sess)

    def noting_hand_back(reader, start, stop, echo=None):
        rounds[-1][1].append(echo is not None)
        hand_back(reader, start, stop, echo)

    def noting_next_card(reader, start, echo=None):
        rounds[-1][1].append(echo is not None)
        return next_card(reader, start, echo)

    monkeypatch.setattr(charset, "decode_words", counting_decode)
    monkeypatch.setattr(Session, "cycle", noting_cycle)
    monkeypatch.setattr(CardReader, "hand_back", noting_hand_back)
    monkeypatch.setattr(CardReader, "next_card", noting_next_card)
    deck = ["*S" if way == "monitor S" else "*", *LOWERCASE_PROGRAMS]
    config = SessionConfig(echo=way != "SessionConfig", max_steps=2000)
    if way == "--no-echo":
        assert main([write_deck(tmp_path, deck), "--no-echo"]) == 0
    else:
        assert run_deck(deck, config=config)[1] == 0
    assert len(decoded) == decodes
    if way != "--no-echo":
        # and the decks whose commands and tokens run across column 80, cut
        # short anywhere; a *S card turns the listing off for the round it
        # starts
        for cards in generators.monitor_decks() + generators.compile_80_decks() + \
                generators.column_80_decks():
            for cut in generators.cut_short(cards):
                run_deck(["*S", *cut] if way == "monitor S" else cut, config=config)
    passed = [(first, notes.count(True)) for first, notes in rounds]
    if way == "listing on":
        assert any(count for _, count in passed)
    elif way == "monitor S":
        # the *S card's own hand-back is passed the echo, and nothing after
        # it in the round it starts
        assert all(count == 1 for first, count in passed if first)
    else:
        assert not any(count for _, count in passed)


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


def test_a_strict_charset_error_leaves_the_pending_echo_unflushed():
    # the cycle flushes when a round or the deck ends, not when a
    # CharsetError escapes it: the monitor flushed *( with the (, and the
    # echo of the rest of the first card stays on the line
    sess = Session(cards=["*('/1'OX,", "AéB,)"],
                   config=SessionConfig(strict_charset=True))
    with pytest.raises(charset.CharsetError):
        sess.run()
    assert sess.output == ["*("]


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


def test_cli_deck_that_is_not_utf8_is_status_two(tmp_path, capsys):
    path = tmp_path / "latin.deck"
    path.write_bytes(b"*('/1'OX,) \xff\n")
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("reca: cannot read deck: ")
    assert "can't decode byte 0xff" in captured.err


def test_cli_strict_charset_rejects_stray_characters(tmp_path, capsys):
    path = write_deck(tmp_path, ["*('/1'OX,) é"])
    assert main([path, "--strict-charset"]) == 2
    assert capsys.readouterr().err.startswith("reca:")


def test_cli_strict_charset_error_in_a_read_is_status_two(tmp_path, capsys):
    # the stray character is on a data card that I reads while the program runs
    path = write_deck(tmp_path, ["*(IOX,)", "'/1\u00e9'"])
    assert main([path, "--strict-charset"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "reca: column 4: character '\u00e9' not in character set\n"
    assert "ARITHMETIC FAULT" not in captured.out


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
    # a directory cannot be written as a punch file
    assert main([path, "--punch", str(tmp_path)]) == 2
    assert "reca: cannot write punch file: " in capsys.readouterr().err


def test_cli_prompt_reads_the_keyboard_until_end_of_file(monkeypatch, capsys):
    typed = iter(["*('/7'OX,)"])
    prompts = []

    def keyboard(prompt):
        prompts.append(prompt)
        try:
            return next(typed)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", keyboard)
    assert main([]) == 0
    # the page eject prints as an empty line
    assert capsys.readouterr().out.splitlines() == [
        "*(", "'/7'OX,)   ", "  7.00000E 00", ""]
    assert prompts == ["| ", "| "]


def test_cli_max_steps_interrupts(tmp_path, capsys):
    path = write_deck(tmp_path, ["*((L.),)"])
    assert main([path, "--max-steps", "500"]) == 0
    assert "MANUAL INTERRUPT FROM SWITCH  5" in capsys.readouterr().out


def test_cli_rejects_a_negative_step_budget(tmp_path, capsys):
    path = write_deck(tmp_path, ["*('/1'OX,)"])
    with pytest.raises(SystemExit) as exc:
        main([path, "--max-steps", "-5"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # nothing ran
    assert "--max-steps: must be 0 or more, not -5" in err


def test_cli_zero_step_budget_stops_at_the_first_step(tmp_path, capsys):
    path = write_deck(tmp_path, ["*('/1'OX,)"])
    assert main([path, "--max-steps", "0"]) == 0
    out = capsys.readouterr().out
    assert "MANUAL INTERRUPT FROM SWITCH  5" in out
    assert "1.00000E 00" not in out


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
