"""Numeric parsing and formatting in float32."""

import ast
import math
import random
import re
import struct
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_compiler
from reca import charset, numio
from reca.iosys import BAD_DATUM, CardReader, Diagnostic, EndOfInput, LineWriter
from reca.numio import f32, format_number, parse_text, scientific_text
from reca.session import Session

from conftest import digit_value, digit_word, is_digit_word, run, table_rows
from generators import COLUMN_80_TOKENS, number_decks, straddling_decks

SHAPE = re.compile(r"^ [ -]\d\.\d{5}E[ -]\d\d$")


def value_of(field):
    return float(field.replace("E ", "E+"))


def test_parse_basic_floats():
    assert parse_text("1.5'") == (1.5, "'")
    assert parse_text("-0.3'")[0] == f32(-0.3)
    assert parse_text("'") == (0.0, "'")
    assert parse_text("1E2 ") == (100.0, " ")
    assert parse_text("  12.25'")[0] == 12.25
    assert parse_text("+4'")[0] == 4.0
    assert parse_text("&4'")[0] == 4.0  # & doubles as plus
    assert parse_text(".5'")[0] == 0.5
    assert parse_text("2.5E-1'")[0] == 0.25
    assert parse_text("1.5E&2'")[0] == 150.0
    assert parse_text("3E04'")[0] == 30000.0
    assert parse_text("1E400'") == (math.inf, "'")  # the scale overflows a double


def test_parse_terminator_latched_not_consumed():
    assert parse_text("50$", integer=True) == (50, "$")
    assert parse_text("  -7;", integer=True) == (-7, ";")
    assert parse_text("X", integer=True) == (0, "X")


def test_parse_text_reads_one_card():
    # a token, or blanks, up to column 80 leave no terminator on the card
    assert parse_text("9" * 79) == (f32(float("9" * 79)), " ")
    with pytest.raises(EndOfInput):
        parse_text("9" * 80)
    with pytest.raises(EndOfInput):
        parse_text("")


def test_parse_second_point_terminates():
    # a second point ends the token and is latched as the terminator
    assert parse_text("12.5.'") == (12.5, ".")


def test_format_shapes():
    assert format_number(0.0) == "  0.00000E 00"
    assert format_number(1.0) == "  1.00000E 00"
    assert format_number(3628800.0) == "  3.62880E 06"
    assert format_number(-0.00613488) == " -6.13488E-03"
    assert format_number(0.15) == "  1.50000E-01"
    assert format_number(-1.0) == " -1.00000E 00"
    assert format_number(1e20) == "  1.00000E 20"


def test_format_rounding_carry():
    # 9.999999 rounds up and renormalizes to the next exponent
    assert format_number(9.9999999) == "  1.00000E 01"


def test_format_is_thirteen_characters():
    for v in (0.0, 1.0, -2.5, 3.1e-7, -4.2e17):
        field = format_number(v)
        assert len(field) == 13
        assert SHAPE.match(field)


def test_roundtrip_over_wide_magnitude_range():
    rng = random.Random(20260825)
    for _ in range(1000):
        v = f32(rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20))
        field = format_number(v)
        assert SHAPE.match(field), field
        back = value_of(field)
        if v == 0:
            assert back == 0
        else:
            assert abs(back - v) / abs(v) < 5.5e-6


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_roundtrip_property(v):
    field = format_number(v)
    assert SHAPE.match(field)
    back = value_of(field)
    if v == 0:
        assert back == 0
    elif abs(v) >= 1e-37:  # below that, the last digit of a denormal wobbles
        assert abs(back - v) / abs(v) < 5.5e-6


@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False, width=32))
def test_parse_formats_back(v):
    text = format_number(v).replace("E ", "E").strip() + "'"
    parsed, term = parse_text(text)
    assert term == "'"
    assert math.isclose(parsed, f32(value_of(format_number(v))), rel_tol=1e-6, abs_tol=1e-9)


def reference_words(value):
    """The formatter as it was before scientific_words: one f32 call per
    rounding step and one put per character."""
    out = []
    put = out.append
    if value - value != 0:
        raise OverflowError("value is not representable")
    k = 0
    sign = charset.MINUS if value < 0 else charset.BLANK
    put(charset.BLANK)
    v = value if value >= 0 else -value
    if v > 0:
        while v < 10.0:
            v = f32(v * 10.0)
            k -= 1
        while v >= 10.0:
            v = f32(v * 0.1)
            k += 1
    v = f32(v + numio.ROUND_HALF_DIGIT)
    if v >= 10.0:
        v = f32(v * 0.1)
        k += 1
    put(sign)
    n = int(v)
    put(digit_word(n))
    put(charset.DOT)
    for _ in range(5):
        v = f32(10.0 * f32(v - n))
        n = int(v)
        put(digit_word(n))
    put(charset.LETTER_E)
    if k < 0:
        put(charset.MINUS)
        k = -k
    else:
        put(charset.BLANK)
    put(digit_word(k // 10))
    put(digit_word(k % 10))
    return out


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
@example(0.0)
@example(-0.0)
@example(f32(1e-45))            # smallest subnormal
@example(f32(1.1754942e-38))    # largest subnormal
@example(f32(1.1754944e-38))    # smallest normal
@example(f32(3.4028235e38))     # largest finite
@example(f32(-3.4028235e38))
@example(f32(9.9999999))        # rounds up to 10 before normalizing
@example(f32(9.999995))         # the rounding bias carries into the exponent
@example(f32(-0.99999994))
@example(f32(1.4000049829483032))  # the digits depend on the round after the first
@example(f32(1.0803149938583374))  # and on the round after the second
def test_scientific_text_matches_reference(v):
    assert scientific_text(v) == charset.decode_words(reference_words(v))


def test_scientific_text_matches_reference_in_every_binade():
    # every exponent field but the all-ones one (inf and nan), 0 being the
    # subnormals and zero; in each, the first, the last and 100 seeded
    # mantissas, with either sign
    rng = random.Random(1973)
    for exponent in range(255):
        mantissas = [0, (1 << 23) - 1] + [rng.getrandbits(23) for _ in range(100)]
        for mantissa in mantissas:
            for sign in (0, 1 << 31):
                bits = sign | exponent << 23 | mantissa
                v = struct.unpack("<f", struct.pack("<I", bits))[0]
                assert scientific_text(v) == charset.decode_words(reference_words(v)), \
                    hex(bits)


FLT_MAX = f32(3.4028235e38)


def test_f32_casts_as_c_does_at_the_edges():
    # saturation to inf, underflow to zero, the least subnormal and nan
    flt_max = float.fromhex("0x1.fffffep+127")
    assert f32(flt_max) == flt_max
    assert f32(3.5e38) == math.inf
    assert f32(-1e39) == -math.inf
    assert math.copysign(1.0, f32(1e-46)) == 1.0 and f32(1e-46) == 0.0
    assert f32(2.0 ** -149) == 2.0 ** -149
    assert math.isnan(f32(math.nan))


def cell_round(x):
    """x rounded to float32 by C's cast, through a one-cell array."""
    return array("f", (x,))[0]


def split_round(x):
    """x rounded to float32 by Dekker's split, as numio rounds it."""
    c = x * numio._SPLIT
    return c - (c - x)


@given(st.floats(min_value=2.0 ** -126, max_value=FLT_MAX), st.booleans())
@example(2.0 ** -126, False)
@example(2.0 ** -126, True)
@example(FLT_MAX, False)
@example(FLT_MAX, True)
def test_split_rounds_as_the_float32_cast(x, negative):
    x = -x if negative else x
    assert split_round(x) == cell_round(x)


def test_split_rounds_ties_to_even_in_every_binade():
    # doubles exactly halfway between two float32s, odd 25-bit
    # significands: each rounds to the neighbour whose significand is even
    rng = random.Random(1971)
    for exponent in range(-126, 128):
        significands = [(1 << 24) + 1, (1 << 24) + 3, (1 << 25) - 1, (1 << 25) - 3]
        significands += [rng.getrandbits(24) << 1 | 1 << 24 | 1 for _ in range(20)]
        for m in significands:
            x = math.ldexp(m, exponent - 24)
            if cell_round(x) == math.inf:
                continue  # the tie above the largest float32 rounds to inf
            for x in (x, -x):
                assert split_round(x) == cell_round(x), x.hex()


@given(st.integers(1, (1 << 23) - 1))
@example(1)
@example((1 << 23) - 1)
@example(838861)  # the least whose product is normal
def test_split_scales_a_subnormal_exactly(m):
    # the formatter's first normalisation steps for a subnormal value
    x = math.ldexp(m, -149) * 10.0
    assert split_round(x) == cell_round(x)


@given(st.floats(allow_nan=False, allow_infinity=False, width=32), st.integers(0, 9))
@example(f32(1.1754944e-38), 0)
@example(f32(3.4028235e38), 9)
@example(f32(9.999995), 0)
@example(f32(1e29), 9)
def test_split_rounds_each_form_numio_rounds(v, d):
    # the formatter's normalisation steps, rounding bias and digit of the
    # peel, and a digit step of the parser, which the cast rounds, so that
    # either round may make it; wherever the round is normal
    forms = (v * 10.0, v * 0.1, v + numio.ROUND_HALF_DIGIT, 10.0 * (v - int(v)),
             v * 10.0 + d)
    for x in forms:
        if abs(x) >= 2.0 ** -126 and abs(cell_round(x)) != math.inf:
            assert split_round(x) == cell_round(x), (v, d, x)


def test_standalone_helpers_build_no_session(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Session constructed")

    monkeypatch.setattr(Session, "__init__", refuse)
    assert format_number(1e20) == "  1.00000E 20"
    assert parse_text("1.5'") == (1.5, "'")
    tree = ast.parse(Path(numio.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "session" not in imported


def test_format_scientific_needs_only_a_writer():
    lines = []
    writer = LineWriter(lines, [], width=80)
    for _ in range(7):
        numio.format_scientific(writer, 1.5)
    writer.flush()
    assert lines == ["  1.50000E 00" * 6, "  1.50000E 00"]


def test_parse_number_needs_only_a_card_reader():
    # a datum read through its closing quote, then one whose number a
    # word other than blank or quote ends
    cards = iter([" '/-12.5E1 '", "'/42;"])
    reader = CardReader(lambda: next(cards, None))
    assert numio.parse_number(reader) == -125.0
    assert reader.cursor == 12 and charset.char_of(reader.iac) == "'"
    with pytest.raises(Diagnostic) as caught:
        numio.parse_number(reader)
    assert caught.value.code == BAD_DATUM
    assert reader.cursor == 5 and charset.char_of(reader.iac) == ";"


def reference_parse_float(read):
    """The float parser as it was before parse_number scanned the card:
    one read and one f32 call per character."""
    sign = 1.0
    exp_sign = 1
    exponent = 0
    frac = 0  # 0 until a point is seen, then counts characters past it
    value = 0.0
    w = read()
    while w == charset.BLANK:
        w = read()
    if w == charset.MINUS:
        sign = -1.0
        w = read()
    elif w in (charset.PLUS, charset.AMPERSAND):
        w = read()
    while True:
        if frac > 0:
            frac += 1
        elif w == charset.DOT:
            frac += 1
            w = read()
            continue
        if w == charset.LETTER_E:
            w = read()
            if w == charset.MINUS:
                exp_sign = -1
                w = read()
            elif w in (charset.PLUS, charset.AMPERSAND):
                w = read()
            while is_digit_word(w):
                exponent = 10 * exponent + digit_value(w)
                w = read()
            break
        if is_digit_word(w):
            value = f32(value * 10.0 + digit_value(w))
            w = read()
            continue
        break
    if frac > 0:
        frac -= 2  # point and terminator were both counted
    exponent = exp_sign * exponent - frac
    try:
        scale = f32(10.0 ** exponent)
    except OverflowError:
        scale = float("inf")
    return f32(sign * value * scale)


def reference_parse_int(read):
    """The integer parser as it was before parse_number scanned the card."""
    sign = 1
    value = 0
    w = read()
    while w == charset.BLANK:
        w = read()
    if w == charset.MINUS:
        sign = -1
        w = read()
    elif w in (charset.PLUS, charset.AMPERSAND):
        w = read()
    while is_digit_word(w):
        value = 10 * value + digit_value(w)
        w = read()
    return sign * value


def parse_outcome(cards, column, unit, integer, parser):
    """Parse from column (0-based; 80 starts on the first card's refill)
    of cards read on unit; everything the parse leaves behind.  parser is
    "reference", the frozen parsers, which read a character at a time, or
    "copy", the parse_number with an echo argument that
    tests/reference_compiler.py keeps."""
    source = iter(cards)
    reader = CardReader(lambda: next(source, None), unit=unit)
    if column < 80:
        reader.next_card(80)
        reader.cursor = column
    echoed = []
    if parser == "reference":
        def read():
            w = reader.read()
            echoed.append(charset.char_of(w))
            return w

        parse = reference_parse_int if integer else reference_parse_float
        args = (read,)
    else:
        parse = reference_compiler.parse_number
        args = (reader, integer, echoed.extend)
    try:
        value = parse(*args)
    except EndOfInput:
        value = "end of input"
    if isinstance(value, float):
        value = struct.pack("f", value)  # nan and -0.0 compare by their bits
    return value, reader.cursor, reader.iac, echoed


def scan_outcome(cards, column, unit, integer):
    """numio.scan_number over the views of cards on unit laid end to end,
    from column as parse_outcome reads it: the value, the terminator's
    column plus one, as a reader's cursor would be, and the terminator."""
    tape = []
    for line in cards:
        words = charset.encode_card(line)
        tape += charset.translate_card(words, line) if unit == 2 else words
    try:
        value, stop = numio.scan_number(tape, column % 80, integer)
    except IndexError:
        return "end of input"
    if isinstance(value, float):
        value = struct.pack("f", value)
    return value, stop % 80 + 1, tape[stop]


NUMBER_TEXT = st.text(alphabet="0123456789.E-+& '$;X/%<@#", max_size=24)


@settings(max_examples=400, deadline=None)
@given(column=st.integers(0, 80), blanks=st.integers(0, 170), text=NUMBER_TEXT,
       filler=st.sampled_from(["", "9", "E1.", "'/"]),
       more=st.sampled_from([[], ["7'"], ["", "  3E2'"]]),
       unit=st.sampled_from([2, 6]), integer=st.booleans())
@example(column=78, blanks=0, text="12.5E-1'", filler="", more=[], unit=2,
         integer=False)  # the token straddles column 80
@example(column=75, blanks=0, text="1.25", filler="", more=[], unit=2,
         integer=False)  # the cards run out inside the token
@example(column=3, blanks=160, text="-7%", filler="", more=[], unit=2,
         integer=True)  # blanks over two cards, then a keypunch terminator
@example(column=79, blanks=161, text="1.5E2'", filler="9", more=[], unit=2,
         integer=False)  # three card ends before the token
@example(column=79, blanks=0, text="0E99@", filler="", more=[], unit=6,
         integer=False)  # nan, on the keyboard unit
@example(column=80, blanks=0, text="-0'", filler="", more=[], unit=2,
         integer=False)  # -0.0, read from the first card's refill
@example(column=0, blanks=0, text="1" + "0" * 40 + "E-10'", filler="", more=[],
         unit=2, integer=False)  # the digit steps saturate to inf and stay inf
@example(column=0, blanks=0, text="1E39'", filler="", more=[], unit=2,
         integer=False)  # the scale overflows
@example(column=0, blanks=0, text="9" * 31 + "'", filler="", more=[], unit=2,
         integer=False)  # the digit steps pass 1e30
@example(column=0, blanks=0, text="4" + "0" * 38 + "E-1'", filler="", more=[], unit=2,
         integer=False)  # past the largest float32, then scaled back
@example(column=0, blanks=0, text="4" + "0" * 20 + "." + "0" * 18 + "'", filler="",
         more=[], unit=2, integer=False)  # the same after the point
@example(column=0, blanks=0, text="340282356779733661637539395458142568447'",
         filler="", more=[], unit=2, integer=False)  # a step rounds past the largest
@example(column=50, blanks=0, text="-" + "3" * 20 + "." + "3" * 24 + "E-9'",
         filler="9", more=[], unit=2, integer=False)  # past 1e30 after the point, across column 80
@example(column=0, blanks=0, text="9" * 140 + "'", filler="", more=[],
         unit=2, integer=False)  # 140 digits over two cards
@example(column=0, blanks=0, text="16777216'", filler="", more=[], unit=2,
         integer=False)  # the first digit step to reach 2**24
@example(column=0, blanks=0, text="16777217'", filler="", more=[], unit=2,
         integer=False)  # past 2**24, where a step rounds: a tie, down to even
@example(column=0, blanks=0, text="16777219'", filler="", more=[], unit=2,
         integer=False)  # the tie that rounds up to even
@example(column=0, blanks=0, text="99999999'", filler="", more=[], unit=2,
         integer=False)  # eight nines: the last step is cast
@example(column=0, blanks=0, text="123456789E-2'", filler="", more=[], unit=2,
         integer=False)  # nine digits, then scaled
def test_parse_number_matches_the_reference_parsers(
        column, blanks, text, filler, more, unit, integer):
    # the token begins at column, after filler on the columns before it
    line = (filler * 80)[:column % 80] + " " * blanks + text
    cards = [line[i:i + 80] for i in range(0, len(line) or 1, 80)] + more
    expected = parse_outcome(cards, column, unit, integer, "reference")
    assert parse_outcome(cards, column, unit, integer, "copy") == expected
    # the live scanner reads the same value and stops at the same terminator
    live = scan_outcome(cards, column, unit, integer)
    assert live == (expected[0] if expected[0] == "end of input" else expected[:3])


def test_number_decks_print_what_the_reference_parser_and_formatter_give():
    # each datum as the frozen parser reads it and the frozen formatter
    # prints it, until one reads as inf or nan, on which O faults
    for deck in number_decks():
        data = re.findall(r"'/([^']*)'", "".join(deck[1:]))
        expected = []
        for text in data:
            cards = iter([text + "'"])
            reader = CardReader(lambda: next(cards, None))
            value = reference_parse_float(reader.read)
            if value - value != 0:
                break
            expected.append("".join(map(charset.char_of, reference_words(value))))
        lines, status = run(deck)
        assert [line for line in lines if SHAPE.match(line)] == expected, deck
        assert status == (0 if len(expected) == len(data) else 1), deck


@pytest.mark.parametrize("program, token, rest", COLUMN_80_TOKENS)
def test_a_number_reads_the_same_across_column_80(program, token, rest):
    # the same token on one card, as data after its program or in it
    if program.endswith(")"):
        plain = [program, token + rest]
    else:
        plain = [program + token + rest]
    lines, status = run(plain)
    expected = table_rows(lines), status
    for deck in straddling_decks(program, token, rest):
        lines, status = run(deck)
        assert (table_rows(lines), status) == expected, deck
