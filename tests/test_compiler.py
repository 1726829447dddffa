"""Monitor behavior and one-pass compilation."""

import pytest

import reference_compiler
from reca import charset, compiler, tables
from reca.iosys import LineWriter
from reca.session import Session, SessionConfig, run_deck
from reca.store import RECURSIVE_MARK
from reca.tables import DECLARED_RECURSIVE, Subroutine

from conftest import run


def compile_only(deck):
    """Run the monitor+compiler on a deck whose program never executes
    anything harmful; returns the session after the full run."""
    sess = Session(cards=deck if isinstance(deck, list) else [deck])
    sess.run()
    return sess


def test_factorial_compiles_to_known_cells():
    sess = compile_only([
        "* N'R",
        "(N,0L'/1',P'/1'-'*RECURSION' 'R*,)'R",
    ])
    assert sess.store.cells[1:21] == [
        2000, -22, 5, 20, -49, 11, -20, -98, 1, 20, -24,
        -98, 2, -33, -90, 19, -29, 20, 0, 1,
    ]
    binding = sess.exec_code[90]
    assert type(binding) is Subroutine
    assert binding.entry == 1
    assert sess.store.cells[binding.entry] == RECURSIVE_MARK


def test_nonrecursive_definition_has_zero_entry():
    sess = compile_only(["*(A,)Y"])
    binding = sess.exec_code[41]
    assert type(binding) is Subroutine
    assert binding.entry == 1
    assert sess.store.cells[binding.entry] == 0
    assert sess.compile_code[41] == tables.PREDICATE


def test_recursive_declaration_without_body():
    sess = compile_only(["* N'Q"])
    assert sess.exec_code[89] is DECLARED_RECURSIVE
    assert sess.compile_code[89] == tables.PREDICATE


def test_counter_compiles_to_four_cells():
    sess = compile_only(["*($3$A.,)Z"])
    # entry, counter op, reference, live count, false link, then the body
    assert sess.store.cells[1:11] == [0, -28, -3, -3, 8, -2, 2, 10, 0, 1]


def test_constant_pool_and_rollback():
    sess = compile_only(["*('/2.5'L,)Y", "('/7'L,) "])
    # defined program committed slot 1; the immediate one's slot 2 rolled back
    assert sess.constants[1] == 2.5
    assert sess.constants[2] == 7.0
    assert sess.constants_used == 1


def test_quoted_string_cells():
    sess = compile_only(['*("AB\',)Y'])
    cells = sess.store.cells
    assert cells[2] == -64
    assert cells[3] == 2
    assert cells[4:6] == [-16064, -15808]  # A and B as raw characters


def test_variable_argument_zero_means_slot_ten():
    sess = compile_only(["*(F0S3,)Y"])
    assert sess.store.cells[2:6] == [-7, 10, -35, 3]


def test_comment_produces_no_cells():
    sess = compile_only(["*('*IGNORED TEXT'A,)Y"])
    assert sess.store.cells[1:6] == [0, -2, 5, 0, 1]


def test_blank_cards_before_program_are_skipped():
    lines, status = run(["", "NOT A CONTROL CARD", "*('/1'OX,)"])
    assert status == 0
    assert "  1.00000E 00" in lines


def test_comment_card_echoes():
    lines, status = run(["C HELLO", "*('/1'L,)"])
    assert lines[0].rstrip() == "C HELLO"


# echo of the card runs: the lines are those the character-at-a-time
# reader printed


def test_echo_spans_command_card_and_program_card():
    deck = ["* N'Y", "('/2'OX,)'Y ", "('Y,)"]
    assert run(deck) == ([
        "* N'Y" + " " * 75 + "(", "'/2'OX,)'Y ", "('Y,)   ", "  2.00000E 00",
    ], 0)
    assert run(deck, width=80) == ([
        "* N'Y" + " " * 75, "(", "'/2'OX,)'Y ", "('Y,)   ", "  2.00000E 00",
    ], 0)


def test_comment_card_echo_on_unit_one():
    deck = ["*O1('/1'OX,)", "C UNDER UNIT ONE", "*('/2'OX,)"]
    expected = [
        "*O1(", "'/1'OX,)   ", "  1.00000E 00", "C UNDER UNIT ONE" + " " * 64,
        "*(", "'/2'OX,)   ", "  2.00000E 00",
    ]
    assert run(deck) == (expected, 0)
    assert run(deck, width=80) == (expected, 0)


def test_erase_between_program_groups_echo():
    deck = ["C GROUP 1", "*E", "('/1'OX,)", "*E", "('/2'OX,)"]
    assert run(deck) == ([
        "C GROUP 1" + " " * 71,
        "*E" + " " * 78 + "(", "'/1'OX,)   ", "  1.00000E 00",
        "*E" + " " * 78 + "(", "'/2'OX,)   ", "  2.00000E 00",
    ], 0)
    assert run(deck, width=80) == ([
        "C GROUP 1" + " " * 71,
        "*E" + " " * 78, "(", "'/1'OX,)   ", "  1.00000E 00",
        "*E" + " " * 78, "(", "'/2'OX,)   ", "  2.00000E 00",
    ], 0)


def test_string_and_comment_bodies_run_across_cards():
    deck = ['*("HELLO', "WORLD'X'*A NOTE", "ENDS HERE'X,)"]
    assert run(deck) == ([
        "*(",
        '"HELLO' + " " * 72 + "WORLD'X'*A NOTE" + " " * 27,
        " " * 38 + "ENDS HERE'X,)   ",
        "HELLO" + " " * 72 + "WORLD",
    ], 0)
    assert run(deck, width=80) == ([
        "*(",
        '"HELLO' + " " * 72 + "WO",
        "RLD'X'*A NOTE" + " " * 65 + "EN",
        "DS HERE'X,)   ",
        "HELLO" + " " * 72 + "WOR",
        "LD",
    ], 0)


def test_store_overflow_inside_a_string_stops_echo_and_text_together():
    deck = ['*("' + "A" * 77] + ["B" * 80] * 6 + ["'X,)"]
    message = "COMP 02 PROGRAM LENGTH EXCEEDS CAPACITY"
    assert run(deck) == ([
        "*(", '"' + "A" * 77 + "B" * 42, "B" * 120, "B" * 120, "B" * 120,
        message, "B" * 14,
    ], 1)
    assert run(deck, width=80) == ([
        "*(", '"' + "A" * 77 + "B" * 2, *["B" * 80] * 5, message, "B" * 14,
    ], 1)
    # cells 4..496 hold the text, which stopped at its 493rd character
    sess = compile_only(deck)
    assert sess.store.cells[495:498] == [charset.WORD_BY_CHAR["B"]] * 2 + [0]


def test_multi_card_program():
    lines, status = run(["*('/2'", "'/3'*OX,)"])
    assert status == 0
    assert "  6.00000E 00" in lines


def test_monitor_unit_commands():
    sess = compile_only(["*I2O1('/1'L,)"])
    assert sess.reader.unit == 2
    assert sess.writer.unit == 1
    assert sess.writer.width == 80


def test_monitor_bad_unit_diagnosed():
    lines, status = run(["*O5"])
    assert status == 1
    assert "SUP 01 ILLEGAL I/O UNIT NUMBER" in lines


# after I, the rest of the card is read as the new unit reads it: the
# keyboard, unit 6, takes the keypunch glyphs % < @ as themselves, so the
# O in "OX" is a command with a bad unit; the card unit takes them as ( ) '
# (deck, output lines, status, input unit, constant 1, nonzero store cells)
READ_AFTER_I = [
    (["*I6%@/1@OX<", "('/2'OX,)"],
     ["SUP 01 ILLEGAL I/O UNIT NUMBER", "*I6%@/1@OX<" + " " * 69 + "(",
      "'/2'OX,)   ", "  2.00000E 00", "\f"],
     1, 6, 2.0, {2: -98, 3: 1, 4: -23, 5: -40, 6: 8, 8: 1}),
    (["*I6" + " " * 76 + "I", "2%@/1@OX<"],
     ["*I6" + " " * 76 + "I2(", "'/1'OX)   ", "  1.00000E 00", "\f"],
     0, 2, 1.0, {2: -98, 3: 1, 4: -23, 5: -40, 7: 1}),
]


@pytest.mark.parametrize("deck, output, status, unit, constant, cells", READ_AFTER_I)
def test_monitor_reads_on_through_the_new_input_unit(deck, output, status, unit,
                                                     constant, cells):
    sess, got = run_deck(deck)
    assert (sess.output, sess.punch, got) == (output, [], status)
    assert (sess.reader.unit, sess.reader.iac, sess.reader.cursor) == (unit, charset.BLANK, 80)
    assert sess.constants[1] == constant
    assert {i: c for i, c in enumerate(sess.store.cells) if c} == cells
    assert (sess.store.ilc, sess.store.ilc0) == (1, 1)


def test_monitor_erase_resets():
    sess = compile_only(["*(A,)Y", "(,)", "*E", "*('/1'L,)"])
    # Y's definition is gone and the store was reused from cell 1
    assert sess.exec_code[41] == 0
    assert sess.store.cells[1] == 0


def test_monitor_suppress_listing():
    lines, status = run(["*S ('/1'OX,)"])
    assert status == 0
    assert [l.rstrip() for l in lines] == ["*S", "  1.00000E 00"]


def test_listing_requested_by_name_letter():
    # the listing letter is the third name character
    lines, status = run(["*(A,)Y L"])
    assert "      0     -2      5      0      1" in lines


def test_definitions_survive_compile_errors():
    lines, status = run(["*('/9'OX,)YL", "(D,)", "*(Y,)"])
    assert status == 1
    assert "COMP 07 REC/3150 OPERATOR" in lines
    assert "  9.00000E 00" in lines


def test_error_excess_nesting():
    lines, status = run(["*((((((((((("])
    assert "COMP 01 EXCESS NESTING" in lines


def test_error_store_overflow():
    lines, status = run(["*(" + "A" * 78] + ["A" * 80] * 6)
    assert "COMP 02 PROGRAM LENGTH EXCEEDS CAPACITY" in lines


def test_error_bad_numeric_argument():
    lines, status = run(["*(FA"])
    assert "COMP 03 ILLEGAL ARGUMENT" in lines


def test_error_level_zero_junk():
    lines, status = run(["*(A,)Z", "B"])
    assert "COMP 04 ILLEGAL CHARACTER ON PARENTHESIS LEVEL ZERO" in lines


def test_error_zero_counter():
    lines, status = run(["*($0$"])
    assert "COMP 05 NEGATIVE OR ZERO COUNTER" in lines


def test_error_constant_excess():
    lines, status = run(["*(" + "'/1'" * 19] + ["'/1'" * 12 + ",)"])
    assert "COMP 06 PROGRAM DEFINED CONSTANT EXCESS" in lines


def test_error_unterminated_constant():
    lines, status = run(["*('/1X"])
    assert "CONV 01 SYNTAX ERROR IN NUMERIC DATA" in lines


def test_error_reserved_operator():
    lines, status = run(["*(D"])
    assert "COMP 07 REC/3150 OPERATOR" in lines


def test_keypunch_aliases_compile_on_card_unit():
    # % < @ # arrive from cards as ( ) ' =
    lines, status = run(["*%@/2@OX<"])
    assert status == 0
    assert "  2.00000E 00" in lines


# each compile diagnostic raised mid-card: (message, what precedes the
# character read last before it, that character); the program starts
# "*(" on its own line, and the character falls in column 1, 40 or 80
DIAGNOSED = [
    ("COMP 01 EXCESS NESTING", "(" * 9, "("),
    ("COMP 02 PROGRAM LENGTH EXCEEDS CAPACITY", "A" * 493, "A"),
    ("COMP 03 ILLEGAL ARGUMENT", "F", "A"),
    ("COMP 04 ILLEGAL CHARACTER ON PARENTHESIS LEVEL ZERO", "A,)Y    ", "B"),
    ("COMP 05 NEGATIVE OR ZERO COUNTER", "$0", "$"),
    ("COMP 06 PROGRAM DEFINED CONSTANT EXCESS", "'/1'" * 30 + "'/1", "'"),
    ("COMP 07 REC/3150 OPERATOR", "", "D"),
    ("CONV 01 SYNTAX ERROR IN NUMERIC DATA", "'/1", "X"),
]


def lines_of(text, width):
    """text put on an empty line buffer: (the lines it fills, the rest)."""
    full = len(text) // width * width
    return [text[i:i + width] for i in range(0, full, width)], text[full:]


@pytest.mark.parametrize("width", [80, 120])
@pytest.mark.parametrize("column", [1, 40, 80])
@pytest.mark.parametrize("message, before, last", DIAGNOSED,
                         ids=[entry[0][:7] for entry in DIAGNOSED])
def test_echo_stops_at_the_character_that_raised_the_diagnostic(
        message, before, last, column, width):
    # blanks, which the compiler skips, put the last character in column
    text = "*(" + " " * ((column - 3 - len(before)) % 80) + before + last + "OX,)"
    cards = [text[i:i + 80] for i in range(0, len(text), 80)]
    sess = Session(cards=cards, config=SessionConfig(width=width))
    assert sess.cycle()
    read = text[2:text.index(before + last) + len(before) + 1]
    if last == "B":
        # the name "Y  " is echoed and its line released; the two blanks
        # after it and the character that is not ( are read, not echoed
        lines, rest = lines_of(read[:-3], width)
        expected = ["*(", *lines, *([rest] if rest else []), message]
    else:
        lines, rest = lines_of(read, width)
        expected = ["*(", *lines, message, *([rest] if rest else [])]
    assert sess.output == [*expected, "\f"]
    assert charset.char_of(sess.reader.iac) == last
    assert sess.reader.cursor == column
    # the store as the per-character compiler leaves it, ilc included
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiler, "monitor", reference_compiler.monitor)
        mp.setattr(compiler, "compile_program", reference_compiler.compile_program)
        mp.setattr(LineWriter, "put_text", reference_compiler.gated_put_text)
        ref = Session(cards=cards, config=SessionConfig(width=width))
        assert ref.cycle()
    assert (sess.store.ilc, sess.store.ilc0, sess.store.cells) == (
        ref.store.ilc, ref.store.ilc0, ref.store.cells)


def test_cards_ending_right_after_a_token_across_column_80():
    deck = ["*(" + " " * 74 + "'/12", ".5'"]
    echoed = " " * 74 + "'/12" + ".5'" + " " * 77
    for width in (80, 120):
        sess, status = run_deck(deck, config=SessionConfig(width=width))
        assert status == 1
        assert sess.reader.diagnostics == ["end of input inside a program"]
        lines, rest = lines_of(echoed, width)
        assert sess.output == ["*(", *lines, *([rest] if rest else [])]
        assert (sess.reader.iac, sess.reader.cursor) == (charset.BLANK, 80)
        assert sess.constants[1] == 12.5
