"""Card reader, line writer, and the diagnostic catalog."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reca import charset
from reca.iosys import MESSAGES, CardReader, EndOfInput, LineWriter


def reader_for(lines, unit=2):
    it = iter(lines)
    return CardReader({unit: lambda: next(it, None)})


def drain(reader, n, unit=2):
    return "".join(charset.char_of(reader.read(unit)) for _ in range(n))


def test_reader_pads_to_eighty():
    r = reader_for(["AB"])
    assert drain(r, 80) == "AB" + " " * 78
    with pytest.raises(EndOfInput):
        r.read(2)


def test_reader_card_boundaries_and_force_refill():
    r = reader_for(["A" * 80, "B"])
    assert drain(r, 80) == "A" * 80
    assert drain(r, 1) == "B"
    r.force_refill()
    with pytest.raises(EndOfInput):
        r.read(2)  # the rest of card two was discarded


def test_keypunch_translation_only_on_card_unit():
    r = reader_for(["%<@#"], unit=2)
    assert drain(r, 4, unit=2) == "()'="
    r = reader_for(["%<@#"], unit=6)
    assert drain(r, 4, unit=6) == "%<@#"


def test_reader_unit_fallback():
    # a unit with nothing attached falls back to whatever source exists
    r = reader_for(["A"], unit=2)
    assert charset.char_of(r.read(6)) == "A"


def collect_writer(widths=None):
    lines = []
    return LineWriter(lambda unit, text: lines.append((unit, text)), widths), lines


def put_text(w, text, unit):
    for ch in text:
        w.put(charset.WORD_BY_CHAR[ch], unit)


GLYPH_WORDS = sorted(charset.CHAR_BY_WORD)


def words_from(start, count):
    return [GLYPH_WORDS[i % len(GLYPH_WORDS)] for i in range(start, start + count)]


@given(st.integers(0, 260), st.integers(0, 260), st.integers(0, 62),
       st.sampled_from([1, 3]), st.sampled_from([1, 3]),
       st.sampled_from([80, 120]), st.booleans())
@example(100, 30, 0, 3, 1, 120, True)  # the buffer is already past the new unit's width
@example(67, 13, 0, 3, 3, 80, True)   # the field fills the line exactly
def test_put_words_matches_repeated_put(n_before, n, start, before_unit, unit, width, echo):
    one, one_lines = collect_writer(widths={3: width})
    many, many_lines = collect_writer(widths={3: width})
    for w in words_from(start, n_before):
        one.put(w, before_unit)
        many.put(w, before_unit)
    one.echo = many.echo = echo
    words = words_from(start + n_before, n)
    for w in words:
        one.put(w, unit)
    many.put_words(words, unit)
    assert (many_lines, many.buffer) == (one_lines, one.buffer)


def test_writer_explicit_flush():
    w, lines = collect_writer()
    put_text(w, "HELLO", 3)
    assert lines == []
    w.flush(3)
    assert lines == [(3, "HELLO")]
    w.flush(3)  # flushing an empty buffer writes nothing
    assert lines == [(3, "HELLO")]


def test_writer_auto_flush_at_unit_width():
    w, lines = collect_writer()
    put_text(w, "X" * 121, 3)
    assert lines == [(3, "X" * 120)]
    w, lines = collect_writer()
    put_text(w, "Y" * 81, 1)
    assert lines == [(1, "Y" * 80)]


def test_writer_width_override():
    w, lines = collect_writer(widths={3: 80})
    put_text(w, "Z" * 80, 3)
    assert lines == [(3, "Z" * 80)]


def test_writer_echo_suppression():
    w, lines = collect_writer()
    w.echo = False
    put_text(w, "QUIET", 3)
    w.flush(3)
    assert lines == []
    w.echo = True
    put_text(w, "LOUD", 3)
    w.flush(3)
    assert lines == [(3, "LOUD")]


def test_writer_clear_discards():
    w, lines = collect_writer()
    put_text(w, "DROPPED", 3)
    w.clear()
    w.flush(3)
    assert lines == []


def test_message_catalog():
    assert len(MESSAGES) == 20
    expected = {
        -1: "COMP 01 EXCESS NESTING",
        -2: "COMP 02 PROGRAM LENGTH EXCEEDS CAPACITY",
        -3: "EXEC 01 EXCESSIVE RECURSION",
        -4: "EXEC 02 EMPTY PUSHDOWN LIST",
        -5: "EXEC 03 PUSHDOWN LIST OVERFLOW",
        -6: "COMP 03 ILLEGAL ARGUMENT",
        -7: "COMP 04 ILLEGAL CHARACTER ON PARENTHESIS LEVEL ZERO",
        -8: "COMP 05 NEGATIVE OR ZERO COUNTER",
        -9: "SUP 01 ILLEGAL I/O UNIT NUMBER",
        -10: "COMP 06 PROGRAM DEFINED CONSTANT EXCESS",
        -11: "CONV 01 SYNTAX ERROR IN NUMERIC DATA",
        -12: "EXEC 04 RECURSIVE SUBROUTINE NOT DEFINED",
        -13: "EXEC 05 UNDEFINED NONRECURSIVE SUBROUTINE",
        -15: "COMP 07 REC/3150 OPERATOR",
    }
    for code, text in expected.items():
        assert MESSAGES[-code - 1] == text
    w, lines = collect_writer()
    w.emit_message(-9, 3)
    assert lines == [(3, "SUP 01 ILLEGAL I/O UNIT NUMBER")]


def test_message_bypasses_buffer():
    w, lines = collect_writer()
    put_text(w, "PENDING", 3)
    w.emit_message(-1, 3)
    w.flush(3)
    assert lines == [(3, "COMP 01 EXCESS NESTING"), (3, "PENDING")]
