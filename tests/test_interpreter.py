"""Execution semantics: stack operators, predicates, counters, calls."""

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_interpreter
from reca import interpreter, numio
from reca.charset import CharsetError
from reca.decks import FACTORIAL
from reca.iosys import INTERRUPT_NOTICE, PAGE_EJECT, CardReader, Diagnostic, EndOfInput
from reca.session import Session, SessionConfig, run_deck

from conftest import field_value, run, time_limit
from generators import BINARY, EDGE_OPERANDS, TESTS, UNARY, float_edge_deck, snapshot


def result_of(program, extra_cards=()):
    """Run one immediate program plus data cards; return printed values."""
    lines, status = run(["*" + program, *extra_cards])
    values = []
    for line in lines:
        if line and line.lstrip(" -")[:1].isdigit() and "E" in line:
            fields = [line[i:i + 13] for i in range(0, len(line), 13)]
            values.extend(field_value(f) for f in fields if f.strip())
    return values, status


def test_arithmetic_operators():
    assert result_of("('/2''/3'&OX,)")[0] == [5.0]
    assert result_of("('/2''/3'-OX,)")[0] == [-1.0]
    assert result_of("('/2''/3'*OX,)")[0] == [6.0]
    assert result_of("('/3''/2'/OX,)")[0] == [1.5]
    assert result_of("('/2''/10'BOX,)")[0] == [1024.0]
    assert result_of("('/2.5''/0.5'+OX,)")[0] == [3.0]


def test_unary_operators():
    assert result_of("('/-3'AOX,)")[0] == [3.0]
    assert result_of("('/4'QOX,)")[0] == [2.0]
    assert result_of("('/1'EOX,)")[0] == pytest.approx([math.e], rel=1e-5)
    assert result_of("('/1'E'LOX,)")[0] == [1.0]
    assert result_of("('/0''SOX,)")[0] == [0.0]
    assert result_of("('/0'COX,)")[0] == [1.0]
    assert result_of("('/5'MOX,)")[0] == [-5.0]
    assert result_of("('/1''AOX,)")[0] == pytest.approx([math.pi / 4], rel=1e-5)
    assert result_of("('/0'HOX,)")[0] == [0.0]


def test_print_keeps_value():
    values, _ = result_of("('/7'OOX,)")
    assert values == [7.0, 7.0]


def test_variables_store_and_fetch():
    values, _ = result_of("('/9'S4LF4OX,)")
    assert values == [9.0]
    # slot written by S0 is read back by F0
    values, _ = result_of("('/6'S0LF0OX,)")
    assert values == [6.0]


def test_variables_persist_across_programs():
    lines, status = run(["*('/8'S2L,)", "*(F2OX,)"])
    assert "  8.00000E 00" in lines


def test_dup_copies_value_below():
    values, _ = result_of("('/3'P*OX,)")
    assert values == [9.0]


def test_pop_is_noop_on_effectively_empty_stack():
    values, status = result_of("(LL'/2'OX,)")
    assert status == 0
    assert values == [2.0]


def test_predicate_negative_branches():
    # negative: first alternative; nonnegative: second
    assert result_of("('/-1'(N'/5',L'/6',)OX,)")[0] == [5.0]
    assert result_of("('/1'(N'/5',L'/6',)OX,)")[0] == [6.0]


def test_predicate_zero_uses_tolerance():
    assert result_of("('/0.000004'(0'/1',L'/2',)OX,)")[0] == [1.0]
    assert result_of("('/0.1'(0'/1',L'/2',)OX,)")[0] == [2.0]


def test_predicate_equal_compares_top_two():
    assert result_of("('/3''/3'(J'/1',LL'/2',)OX,)")[0] == [1.0]
    assert result_of("('/3''/4'(J'/1',LL'/2',)OX,)")[0] == [2.0]


def test_character_match_after_read():
    # R reads a character, =x branches on it
    # the character follows the three name columns on the same card
    lines, status = run(["*(R(=A\"Y',\"N',)X,)   A"])
    assert any(l.strip() == "Y" for l in lines)
    lines, status = run(["*(R(=A\"Y',\"N',)X,)   B"])
    assert any(l.strip() == "N" for l in lines)


def test_write_repeats_last_character():
    lines, status = run(["*(RWWWX,)   Z"])
    assert any(l.strip() == "ZZZ" for l in lines)  # three writes of the read character


def test_string_output_and_flush():
    lines, status = run(["*(\"HI THERE'X,)"])
    assert "HI THERE" in lines


def test_string_leaves_its_last_character_in_iac():
    # W and =x see the string's last character; an empty string leaves
    # the character R read
    lines, status = run(["*(\"XB'WW(=B\"Y',\"N',)X,)"])
    assert "XBBBY" in lines
    lines, status = run(["*(R\"'WX,)   Z"])
    assert "Z" in lines


def test_numeric_input_operator():
    lines, status = run(["*(IOX,)", "'/12.5'"])
    assert "  1.25000E 01" in lines


def test_numeric_input_bad_data():
    lines, status = run(["*(I,)", "XYZ"])
    assert status == 1
    assert "CONV 01 SYNTAX ERROR IN NUMERIC DATA" in lines


def test_numeric_input_past_last_card_is_reported():
    # three reads, one data card: the second read finds no card
    sess, status = run_deck(["*($3$I OX.,)", "'/1'"])
    assert status == 1
    assert sess.output[-3:] == [
        "  1.00000E 00", "CONV 01 SYNTAX ERROR IN NUMERIC DATA", PAGE_EJECT,
    ]


def datum_outcome(read_datum, cards, column, unit):
    """Frame one datum from column (0-based; 80 starts on the first card's
    refill) of cards read on unit; everything the framing leaves behind."""
    source = iter(cards)
    reader = CardReader(lambda: next(source, None), unit=unit)
    if column < 80:
        reader.next_card(80)
        reader.cursor = column
    try:
        value = struct.pack("f", read_datum(reader))  # nan and -0.0 by their bits
    except Diagnostic as exc:
        value = f"diagnostic {exc.code}"
    except EndOfInput:
        value = "end of input"
    return value, reader.cursor, reader.iac, reader.record, next(source, "no card left")


DATUM_NUMBERS = st.one_of(
    st.sampled_from(["1.5", "-2.5E1", "7E-3", "12345678", "", "1E39", "0E99", "-0"]),
    st.text(alphabet="0123456789.E-+& '/@X", max_size=12),
)


@settings(max_examples=400, deadline=None)
@given(column=st.integers(0, 80),
       at=st.one_of(st.integers(76, 81), st.integers(156, 161), st.integers(0, 170)),
       opening=st.sampled_from(["'/", "@/", "'", "/", "'X", "X", "' /", "''/", ""]),
       number=DATUM_NUMBERS, blanks=st.integers(0, 90),
       closing=st.sampled_from(["'", "@", "", "X", "/", "''"]),
       more=st.sampled_from([[], ["'"], ["", "  '/3'"]]), unit=st.sampled_from([2, 6]))
@example(column=3, at=170, opening="'/", number="1.5", blanks=0, closing="'",
         more=[], unit=2)  # blanks over two cards before the frame
@example(column=0, at=79, opening="'/", number="2", blanks=0, closing="'",
         more=[], unit=2)  # the quote in column 80, the slash on the next card
@example(column=0, at=78, opening="@/", number="2", blanks=0, closing="@",
         more=[], unit=2)  # the slash in column 80, keypunch quotes
@example(column=0, at=76, opening="'/", number="1", blanks=0, closing="'",
         more=[], unit=2)  # the closing quote in column 80
@example(column=0, at=70, opening="'/", number="4", blanks=85, closing="'",
         more=[], unit=6)  # blanks after the number across a card, keyboard
@example(column=80, at=0, opening="@/", number="1.5", blanks=0, closing="@",
         more=[], unit=6)  # no keypunch quote on the keyboard
@example(column=0, at=79, opening="'", number="", blanks=0, closing="",
         more=[], unit=2)  # the deck ends inside the frame
@example(column=5, at=0, opening="", number="", blanks=0, closing="",
         more=[], unit=2)  # the deck ends in the blanks before a frame
@example(column=0, at=0, opening="'/", number="12", blanks=3, closing="",
         more=[], unit=2)  # no closing quote
@example(column=0, at=0, opening="'/", number="12", blanks=0, closing="X",
         more=[], unit=2)  # a non-blank terminator that is not a quote
@example(column=0, at=80, opening="", number="", blanks=0, closing="",
         more=["", "@/1.5@"], unit=2)  # an all-blank card, an empty card, then the datum
@example(column=2, at=80, opening="", number="", blanks=0, closing="",
         more=["(A"], unit=2)  # blanks to the card's end, then no quote
@example(column=1, at=1, opening="", number="", blanks=0, closing="",
         more=[], unit=2)  # blanks to the end of input
def test_read_datum_matches_the_reference_framing(
        column, at, opening, number, blanks, closing, more, unit):
    # the frame starts at column at of the text laid across the cards, or
    # where the reader starts if that is later; numio.parse_number reads
    # the whole datum in one scan, the frozen framing a character at a time
    start = column % 80
    line = "X" * start + " " * max(at - start, 0) + opening + number + " " * blanks + closing
    cards = [line[i:i + 80] for i in range(0, len(line), 80)] + more
    expected = datum_outcome(reference_interpreter._read_datum, cards, column, unit)
    assert datum_outcome(numio.parse_number, cards, column, unit) == expected


def test_character_read_past_last_card_is_reported():
    sess, status = run_deck(["*($90$R.,\"DONE'X,)"])
    assert status == 1
    assert sess.output[-2:] == ["CONV 01 SYNTAX ERROR IN NUMERIC DATA", PAGE_EJECT]


def test_counter_runs_body_n_times():
    lines, status = run(["*S ($4$\"*'.,)"])
    # skip the echoed control line; the final flush delivers the stars
    assert "".join(lines[1:]).count("*") == 4


def test_counter_resets_for_reuse():
    # two full passes over the same counter give the same count
    lines, status = run(["*S ($2$($3$\"*'.,).,)"])
    assert "".join(lines[1:]).count("*") == 6


def test_recursion_factorial():
    lines, status = run([
        "* N'R",
        "(N,0L'/1',P'/1'-'R*,)'R",
        "('/5''R OX,)",
    ])
    assert status == 0
    assert "  1.20000E 02" in lines


def test_nonrecursive_subroutine_call():
    lines, status = run(["*(P*,)Q", "('/3'Q OX,)"])
    assert "  9.00000E 00" in lines


def test_error_empty_stack():
    lines, status = run(["*(*,)"])
    assert "EXEC 02 EMPTY PUSHDOWN LIST" in lines


def test_error_stack_overflow():
    lines, status = run(["*('/1'(P.),)"])
    assert "EXEC 03 PUSHDOWN LIST OVERFLOW" in lines


def test_error_excess_recursion():
    lines, status = run(["* N'R", "('R,)'R", "('R,)"])
    assert "EXEC 01 EXCESSIVE RECURSION" in lines


def test_error_undefined_recursive():
    lines, status = run(["* N'Q", "('Q,)"])
    assert "EXEC 04 RECURSIVE SUBROUTINE NOT DEFINED" in lines


def test_error_undefined_call():
    lines, status = run(["*(K,)"])
    assert "EXEC 05 UNDEFINED NONRECURSIVE SUBROUTINE" in lines


def test_arithmetic_fault_stops_execution():
    lines, status = run(["*('/-1'QOX,)"])
    assert status == 1
    assert "EXEC 06 ARITHMETIC FAULT" in lines
    lines, status = run(["*('/1''/0'/OX,)"])
    assert "EXEC 06 ARITHMETIC FAULT" in lines
    lines, status = run(["*('/0''LOX,)"])
    assert "EXEC 06 ARITHMETIC FAULT" in lines


def test_float32_overflow_is_a_fault():
    lines, status = run(["*('/1E30''/1E30'*OX,)"])
    assert "EXEC 06 ARITHMETIC FAULT" in lines
    # a constant whose scale overflows a double reads as inf, which faults
    # when printed; 0 times that scale is nan, which is not negative, so N
    # falls false and nothing faults (pinned as they are today)
    lines, status = run(["*('/1E400'OX,)"])
    assert (lines[-1], status) == ("EXEC 06 ARITHMETIC FAULT", 1)
    lines, status = run(["*('/0E400'(N'/2',L'/3',)OX,)"])
    assert (lines[-1], status) == ("  3.00000E 00", 0)


def test_step_budget_interrupts():
    sess, status = run_deck(["*((L.),)"], config=SessionConfig(max_steps=1000))
    assert "MANUAL INTERRUPT FROM SWITCH  5" in sess.output
    assert status == 0  # an interrupt is not an error


@pytest.mark.parametrize("deck", [
    ["*S", "((.),)"],     # a loop of jumps alone, no operation in it
    ["*(:M(H.,),)"],      # an inner loop that never reaches an operation
    # a loop of false returns: Y calls itself, which sets its return to its
    # own link cell; once the counter is spent Y returns false there, runs
    # on to its false exit through forward jumps and returns false again
    ["*($1$Y.)Y", "(Y,)"],
])
def test_step_budget_counts_backward_jumps(deck):
    with time_limit(5):
        sess, status = run_deck(deck, config=SessionConfig(max_steps=100))
    assert sess.output[-2:] == ["MANUAL INTERRUPT FROM SWITCH  5", PAGE_EJECT]
    assert status == 0


# the shape of the recursion workload's decks: 'Y sums 1..n recursively
TRIANGULAR = ["* N'Y", "(0,P'/1'-'Y&,)'Y", "('/4''Y OX,)"]
# K calls Y, which is defined after it, so Y returns by a backward jump
LATER_CALLEE = ["*(Y'/1'&,)K", "(P*,)Y", "('/3'K OX,)"]
# Y's body runs on to its end, its false exit, when N holds: a false
# return from a recursive Y, and from a nonrecursive one
FALSE_RETURN_RECURSIVE = ["*NY", "(N)Y", "('/-1'(Y\"NEG',\"POS',)X,)"]
FALSE_RETURN = ["*(N)Y", "('/-1'(Y\"NEG',\"POS',)X,)"]


def live_and_reference(run_once):
    """Snapshots of run_once(), which returns (session, status), under the
    live execute loop and under the frozen reference loop."""
    live = snapshot(*run_once())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interpreter, "execute", reference_interpreter.execute)
        return live, snapshot(*run_once())


@pytest.mark.parametrize("deck", [FALSE_RETURN_RECURSIVE, FALSE_RETURN],
                         ids=["recursive", "nonrecursive"])
def test_a_false_return_takes_the_false_branch_of_the_call(deck):
    config = SessionConfig(echo=False)
    live, expected = live_and_reference(lambda: run_deck(deck, config=config))
    assert live == expected
    assert live["output"] == ["POS", PAGE_EJECT]
    assert live["status"] == 0


@pytest.mark.parametrize(
    "deck", [FACTORIAL, TRIANGULAR, LATER_CALLEE, FALSE_RETURN_RECURSIVE, FALSE_RETURN],
    ids=["factorial", "triangular", "later callee", "false return recursive", "false return"])
def test_every_step_budget_stops_where_the_reference_loop_does(deck):
    # every budget from 0 to one past the run's full step count, so that
    # the interrupt falls once on every operation and backward jump,
    # the terminal jumps that return from a subroutine among them
    max_steps, full = 0, None
    while full is None or max_steps <= full + 1:
        config = SessionConfig(max_steps=max_steps)
        live, expected = live_and_reference(lambda: run_deck(deck, config=config))
        assert live == expected, f"max_steps={max_steps}"
        if full is None and INTERRUPT_NOTICE not in live["output"]:
            full = max_steps
        max_steps += 1
    assert full > 0


@pytest.mark.parametrize("ceiling", range(200, 212))
def test_an_unbounded_run_counts_on_past_its_ceiling(monkeypatch, ceiling):
    # the first 'Y returns after some 200 steps, so a ceiling this low is
    # passed at an operation for some of these values and at the backward
    # jump of a return for others; the run must go on to the end all the
    # same, as a budget of 2**40 does
    monkeypatch.setattr(interpreter, "_CEILING", ceiling)
    deck = TRIANGULAR[:2] + ["($10$'/40''Y L.,'/1'OX,)"]
    live, expected = live_and_reference(lambda: run_deck(deck))
    assert live == expected
    assert INTERRUPT_NOTICE not in live["output"]
    set_high = snapshot(*run_deck(deck, config=SessionConfig(max_steps=2**40)))
    assert set_high == live


def test_a_cancel_stops_an_unbounded_run_where_it_passes_its_ceiling(monkeypatch):
    # X's line raises the flag; the next operation, '/2, is step 4 and
    # passes the ceiling, and no backward jump or call follows to see it
    monkeypatch.setattr(interpreter, "_CEILING", 3)

    def cancel_on_value(unit, text):
        if text == "  1.00000E 00":
            sess.cancelled = True

    sess = Session(cards=["*('/1'OX'/2'OX,)"], config=SessionConfig(echo=False),
                   on_line=cancel_on_value)
    assert sess.run() == 0
    assert sess.output == ["  1.00000E 00", "MANUAL INTERRUPT FROM SWITCH  5", PAGE_EJECT]
    assert not sess.cancelled


def test_stack_pointer_resets_between_programs():
    # leftovers from one program do not leak into the next
    lines, status = run(["*('/1''/2''/3'L,)", "*(*,)"])
    assert "EXEC 02 EMPTY PUSHDOWN LIST" in lines


def test_cancel_stops_a_loop_at_its_backward_jump():
    # the flag goes up as the first value prints; the repeat's jump back
    # to the counter sees it
    def cancel_on_value(unit, text):
        if text == "  1.00000E 00":
            sess.cancelled = True

    sess = Session(cards=["*($1000$'/1'OX.,)"], config=SessionConfig(echo=False),
                   on_line=cancel_on_value)
    with time_limit(5):
        status = sess.run()
    assert sess.output == ["  1.00000E 00", "MANUAL INTERRUPT FROM SWITCH  5", PAGE_EJECT]
    assert status == 0
    assert not sess.cancelled


def test_cancel_before_a_program_stops_it_at_entry():
    sess = Session(cards=["*('/1'O'/2'OX,)", "*('/3'OX,)"], config=SessionConfig(echo=False))
    sess.cancelled = True
    status = sess.run()
    # the notice comes before any value; the flag is spent, so the next
    # program runs
    assert sess.output == [
        "MANUAL INTERRUPT FROM SWITCH  5", PAGE_EJECT, "  3.00000E 00", PAGE_EJECT,
    ]
    assert status == 0


def test_cancel_during_a_keyboard_read_stops_the_reading_program():
    # Ctrl-C while I waits on the keyboard: the program stops after that
    # read and asks for no second value; the next program runs
    lines = iter(["*(IOIOX,)", "'/1'", "*('/3'OX,)", None])
    asked = []

    def keyboard():
        line = next(lines)
        asked.append(line)
        if line == "'/1'":
            sess.cancelled = True
        return line

    sess = Session(keyboard=keyboard, config=SessionConfig(echo=False))
    with time_limit(5):
        status = sess.run()
    assert asked == ["*(IOIOX,)", "'/1'", "*('/3'OX,)", None]
    assert sess.output == [
        "MANUAL INTERRUPT FROM SWITCH  5", PAGE_EJECT, "  3.00000E 00", PAGE_EJECT,
    ]
    assert status == 0
    assert not sess.cancelled


def test_cancel_stops_a_program_at_a_subroutine_call():
    # the flag goes up as X prints the first value; Y's call sees it, so
    # Y's text never prints, though its return would stop the program too
    def cancel_on_value(unit, text):
        if text == "  1.00000E 00":
            sess.cancelled = True

    sess = Session(cards=["*(\"IN Y'X,)Y", "('/1'OXY'/2'OX,)", "*('/3'OX,)"],
                   config=SessionConfig(echo=False), on_line=cancel_on_value)
    with time_limit(5):
        status = sess.run()
    assert sess.output == [
        "  1.00000E 00", "MANUAL INTERRUPT FROM SWITCH  5", PAGE_EJECT,
        "  3.00000E 00", PAGE_EJECT,
    ]
    assert status == 0
    assert not sess.cancelled


def test_cancel_stops_a_program_at_a_false_return():
    # the flag goes up as Y prints; N then holds and Y runs on to its false
    # exit, whose return sees the flag before POS prints
    def cancel_on_text(unit, text):
        if text == "IN Y":
            sess.cancelled = True

    sess = Session(cards=["*(\"IN Y'XN)Y", "('/-1'(Y\"NEG',\"POS',)X,)"],
                   config=SessionConfig(echo=False), on_line=cancel_on_text)
    with time_limit(5):
        status = sess.run()
    assert sess.output == ["IN Y", "MANUAL INTERRUPT FROM SWITCH  5", PAGE_EJECT]
    assert status == 0
    assert not sess.cancelled


def test_cancel_during_an_r_read_stops_the_reading_program():
    # the program's name ends its card, so R reads the next keyboard line;
    # Ctrl-C during that read stops the program before W writes the A
    lines = iter(["*" + " " * 68 + "(RWRWX,)", "AB", "*('/3'OX,)", None])

    def keyboard():
        line = next(lines)
        if line == "AB":
            sess.cancelled = True
        return line

    sess = Session(keyboard=keyboard, config=SessionConfig(echo=False))
    with time_limit(5):
        status = sess.run()
    assert sess.output == [
        "MANUAL INTERRUPT FROM SWITCH  5", PAGE_EJECT, "  3.00000E 00", PAGE_EJECT,
    ]
    assert status == 0
    assert not sess.cancelled


@pytest.mark.parametrize("deck", [
    ["*(IOX,)", "'/1\u00e9'"],  # I reads a datum card with a stray character
    ["*" + " " * 70 + "(RWX,)   ", "A\u00e9"],  # R reads the next card
], ids=["I", "R"])
def test_a_strict_charset_error_in_a_read_is_no_arithmetic_fault(deck):
    with pytest.raises(CharsetError, match="column [24]: character '\u00e9'"):
        run_deck(deck, config=SessionConfig(strict_charset=True))
    # without strict the stray character reads as a blank
    sess, _ = run_deck(deck)
    assert "EXEC 06 ARITHMETIC FAULT" not in sess.output
    assert sess.reader.diagnostics


def f32(x):
    return struct.unpack("f", struct.pack("f", x))[0]


def same(x, y):
    """Equal as float32 results: the same value and sign, or both nan."""
    if x != x or y != y:
        return x != x and y != y
    return x == y and math.copysign(1, x) == math.copysign(1, y)


UNARY_MATH = {
    "A": abs, "C": math.cos, "E": math.exp, "H": math.tanh,
    "M": lambda a: -a, "Q": math.sqrt, "'A": math.atan, "'L": math.log,
    "'S": math.sin,
}
BINARY_MATH = {
    "&": lambda x, y: x + y, "+": lambda x, y: x + y,
    "-": lambda x, y: x - y, "*": lambda x, y: x * y,
    "/": lambda x, y: x / y, "B": math.pow,
}
NEAR_ZERO = f32(5.0e-6)


def expected_unary(op, a):
    """The float32 result of op on a, or None for an arithmetic fault."""
    try:
        r = f32(UNARY_MATH[op](a))
    except (ValueError, OverflowError, struct.error):
        return None
    if op == "E" and r == math.inf:
        return None
    return r


def expected_binary(op, x, y):
    try:
        r = f32(BINARY_MATH[op](x, y))
    except (ValueError, OverflowError, ZeroDivisionError, struct.error):
        return None
    return r if -3.5e38 < r < 3.5e38 else None


def expected_test(op, x, y=None):
    """2.0 where the test's condition holds, 3.0 where not."""
    if op == "N":
        holds = x < 0
    elif op == "0":
        holds = abs(x) <= NEAR_ZERO
    else:  # J compares the top two, in double precision
        holds = abs(y - x) <= NEAR_ZERO
    return 2.0 if holds else 3.0


def check_edge(op, texts, want):
    """Run op's float-edge deck on texts; None if it left want (None for
    an arithmetic fault) in variable 1, else a description."""
    sess, status = run_deck(float_edge_deck(op, texts), config=SessionConfig(echo=False))
    lines = [l for l in sess.output if l != PAGE_EJECT]
    got = sess.variables[1]
    if want is None:
        ok = status == 1 and lines == ["EXEC 06 ARITHMETIC FAULT"] and got == 0.0
    else:
        ok = status == 0 and lines == ["  1.00000E 00"] and same(got, want)
    return None if ok else f"{op} {texts}: want {want}, got {status} {lines} {got}"


def read_as_constant_and_datum(text):
    """What '/text' prints, and the status, as a constant in a program and
    as a datum read by I, with the listing off."""
    return (run([f"*('/{text}'OX,)"], echo=False),
            run(["*(IOX,)", f"'/{text}'"], echo=False))


def test_edge_operands_parse_to_their_float32_values():
    for text, value in EDGE_OPERANDS:
        sess, status = run_deck([f"*('/{text}'S1L,)"])
        assert status == 0 and same(sess.variables[1], value), text
        constant, datum = read_as_constant_and_datum(text)
        assert constant == datum, text


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789.E-+& X", max_size=16))
@example("12X")  # a word breaks the tail: CONV 01 both
@example("1 2")  # so does a second number after blanks
@example("  -2.5E1   ")  # blanks on both sides of the number
def test_a_constant_and_a_datum_read_alike(text):
    # numio.scan_constant reads the tail of '/number' for the compiler
    # and for I alike
    constant, datum = read_as_constant_and_datum(text)
    assert constant == datum


@pytest.mark.parametrize("op", UNARY)
def test_unary_operator_matches_float32_oracle(op):
    failures = [check_edge(op, [text], expected_unary(op, a))
                for text, a in EDGE_OPERANDS]
    assert [f for f in failures if f] == []


@pytest.mark.parametrize("op", BINARY)
def test_binary_operator_matches_float32_oracle(op):
    failures = [check_edge(op, [tx, ty], expected_binary(op, x, y))
                for tx, x in EDGE_OPERANDS for ty, y in EDGE_OPERANDS]
    assert [f for f in failures if f] == []


@pytest.mark.parametrize("op", TESTS)
def test_test_operator_matches_float32_oracle(op):
    if op == "J":
        cases = [([tx, ty], expected_test(op, x, y))
                 for tx, x in EDGE_OPERANDS for ty, y in EDGE_OPERANDS]
    else:
        cases = [([tx], expected_test(op, x)) for tx, x in EDGE_OPERANDS]
    failures = [check_edge(op, texts, want) for texts, want in cases]
    assert [f for f in failures if f] == []


@pytest.mark.parametrize("op", TESTS + ["A"])
@settings(max_examples=60, deadline=None)
@given(x=st.floats(width=32), y=st.floats(width=32))
@example(x=-0.0, y=0.0)
@example(x=2.0**-149, y=-0.0)  # the smallest subnormal
@example(x=math.nan, y=1.0)  # what '/0E99' reads as
@example(x=math.inf, y=math.inf)  # what '/1E39' reads as
@example(x=-math.inf, y=2.0**-149)
def test_tests_and_abs_match_the_oracle_on_any_float32(op, x, y):
    # the operands come from variables 1 and 2, so any float32 reaches
    # the test; the value bits must be the reference loop's as well
    operands = [x, y] if op == "J" else [x]
    fetch = "".join(f"F{i}" for i in range(1, len(operands) + 1))
    if op == "A":
        body = "A"
        # A keeps the sign of -0.0, as a >= 0 holds for it
        want = x if x == 0 else expected_unary(op, x)
    else:
        body = f"({op}'/2',{'L' * len(operands)}'/3',)"
        want = expected_test(op, *operands)

    def run_once():
        sess = Session(cards=[f"*({fetch}{body}S1L'/1'OX,)"],
                       config=SessionConfig(echo=False))
        sess.variables[1:len(operands) + 1] = operands
        return sess, sess.run()

    live, expected = live_and_reference(run_once)
    assert live == expected
    sess, status = run_once()
    assert status == 0 and sess.output == ["  1.00000E 00", PAGE_EJECT]
    assert same(sess.variables[1], want)
