"""Card reader, line writer, and the diagnostic catalog."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reca import charset
from reca.iosys import MESSAGES, CardReader, EndOfInput, LineWriter
from reca.session import Session, SessionConfig

from reference_compiler import card, through_quote


def reader_for(lines, unit=2):
    it = iter(lines)
    return CardReader(lambda: next(it, None), unit=unit)


def drain(reader, n):
    return "".join(charset.char_of(reader.read()) for _ in range(n))


def test_reader_pads_to_eighty():
    r = reader_for(["AB"])
    assert drain(r, 80) == "AB" + " " * 78
    with pytest.raises(EndOfInput):
        r.read()


def test_reader_card_boundaries():
    r = reader_for(["A" * 80, "B"])
    assert drain(r, 80) == "A" * 80
    assert drain(r, 1) == "B"
    assert drain(r, 79) == " " * 79
    with pytest.raises(EndOfInput):
        r.read()
    # a reader whose source is dry from the start has no card to read
    with pytest.raises(EndOfInput):
        CardReader(lambda: None).read()


def test_keypunch_translation_only_on_card_unit():
    r = reader_for(["%<@#"], unit=2)
    assert drain(r, 4) == "()'="
    r = reader_for(["%<@#"], unit=6)
    assert drain(r, 4) == "%<@#"


def test_select_re_views_the_current_card():
    # a switch of unit mid-card: the rest of the card reads, and echoes,
    # as the new unit reads it
    r = reader_for(["%<@#" * 3], unit=6)
    r.next_card(80)
    echoed = []
    for unit, text in [(6, "%<@#"), (2, "()'="), (6, "%<@#")]:
        r.select(unit)
        view, i = r.view, r.cursor
        assert r.unit == unit
        assert charset.decode_words(view[i:i + 4]) == text
        assert drain(r, 4) == text
        r.hand_back(i, i + 4, echoed.append)
    assert echoed == ["%<@#", "()'=", "%<@#"]
    assert r.cursor == 12 and charset.char_of(r.iac) == "#"


def test_reader_latches_every_read_in_iac():
    r = reader_for(["AB'C" + " " * 76, "  D"])
    assert r.iac == 0
    r.read()
    assert charset.char_of(r.iac) == "A"
    assert charset.char_of(r.read()) == charset.char_of(r.iac) == "B"
    assert charset.char_of(r.read()) == charset.char_of(r.iac) == "'"
    r.hand_back(r.cursor, 80)
    assert charset.char_of(r.iac) == " "


def test_next_card_hands_back_the_rest_and_reads_the_next():
    r = reader_for(["AB" + "C" * 77 + "D", "%E"])
    r.next_card(80)
    echoed = []
    nxt = r.next_card(2, echoed.append)
    assert echoed == ["C" * 77 + "D"]
    assert charset.char_of(r.iac) == "D"
    assert nxt is r.view and r.cursor == 0
    assert charset.char_of(nxt[0]) == "("  # read in as the card unit reads it


def test_next_card_of_a_fresh_card_echoes_nothing():
    r = reader_for(["A", "B"])
    echoed = []
    card = r.next_card(80, echoed.append)
    assert charset.char_of(card[0]) == "A"
    assert (echoed, r.iac, r.cursor) == ([], 0, 0)


def test_next_card_hands_back_before_the_cards_run_out():
    r = reader_for(["A" * 79 + "B"])
    r.next_card(80)
    echoed = []
    with pytest.raises(EndOfInput):
        r.next_card(78, echoed.append)
    assert echoed == ["AB"]
    assert charset.char_of(r.iac) == "B"
    assert r.cursor == 80


@pytest.mark.parametrize("unit, text", [(2, "A(B)'=C"), (6, "A%B<@#C")])
def test_the_echo_is_the_card_as_the_input_unit_reads_it(unit, text):
    r = reader_for(["A%B<@#C"], unit=unit)
    r.next_card(80)
    echoed = []
    r.hand_back(0, 2, echoed.append)
    r.hand_back(2, 7, echoed.append)
    assert echoed == [text[:2], text[2:]]
    assert charset.char_of(r.iac) == "C" and r.cursor == 7


def counting_decode(monkeypatch):
    """The words of each charset.decode_words call from now on."""
    decoded = []
    decode_words = charset.decode_words

    def counting(words):
        decoded.append(words)
        return decode_words(words)

    monkeypatch.setattr(charset, "decode_words", counting)
    return decoded


@pytest.mark.parametrize("line, unit, decodes", [
    pytest.param("AB" + " " * 77 + "C", 2, 0, id="plain"),
    pytest.param("A%B<@#C", 6, 0, id="keypunch-glyphs-as-themselves"),
    pytest.param("ab" + " " * 77 + "c", 2, 1, id="lowercase"),
    pytest.param("A~B", 2, 1, id="not-sign-alias"),
    pytest.param("A\u00e9B", 2, 1, id="stray-character"),
    pytest.param("A" * 80 + "B", 2, 1, id="past-column-80"),
    pytest.param("A%B<@#C", 2, 1, id="keypunch-glyphs-on-the-card-unit"),
])
def test_a_card_is_decoded_at_most_once_however_often_it_is_echoed(
        monkeypatch, line, unit, decodes):
    r = reader_for([line, "d"], unit=unit)
    text = charset.decode_words(r.next_card(80))
    decoded = counting_decode(monkeypatch)
    echoed = []
    for start in range(0, 80, 8):
        r.hand_back(start, start + 8, echoed.append)
    assert "".join(echoed) == text
    assert len(decoded) == decodes
    r.next_card(80, echoed.append)
    r.hand_back(0, 1)  # a hand-back with no echo decodes nothing
    assert len(decoded) == decodes
    r.hand_back(1, 2, echoed.append)  # "d" is lowercase
    assert len(decoded) == decodes + 1


# the glyphs, keypunch glyphs among them, lowercase, the not-sign's alias,
# and strays: e acute, a tab, dotless i (whose uppercase is I), a no-break space
LINE_CHARS = st.sampled_from([
    *charset.WORD_BY_CHAR, *"abcdefghijklmnopqrstuvwxyz~",
    "\u00e9", "\t", "\u0131", "\u00a0"])


@given(st.lists(st.text(LINE_CHARS, max_size=100), max_size=4), st.sampled_from([2, 6]))
@example(["A" * 80 + " "], 2)  # nothing but a blank past column 80
@example(["%(<)"], 2)           # a keypunch glyph and what it stands for
def test_the_text_of_every_card_dealt_is_its_words_decoded(lines, unit):
    r = reader_for(lines, unit=unit)
    view = r.view  # the blank card before the first
    assert r.text() == charset.decode_words(view)
    for _ in lines:
        view = r.next_card(80)
        assert r.text() == charset.decode_words(view)


def test_view_and_cursor_give_the_card_to_walk_on_from():
    r = reader_for(["A%"])
    r.read()
    card, i = r.view, r.cursor
    assert i == 1
    assert charset.char_of(card[i]) == "("


def test_a_used_up_card_stays_the_view_until_next_card():
    pulled = []
    cards = iter(["A" * 80, "B"])

    def source():
        pulled.append(next(cards, None))
        return pulled[-1]

    r = CardReader(source)
    drain(r, 80)
    card, i = r.view, r.cursor
    assert card is r.record and i == 80  # the used-up card
    assert charset.decode_words(card) == "A" * 80
    assert pulled == ["A" * 80]
    assert r.cursor == 80 and charset.char_of(r.iac) == "A"


def collect_writer(width=120):
    lines = []
    writer = LineWriter([], [], width=width,
                        on_line=lambda unit, text: lines.append((unit, text)))
    return writer, lines


def collect_session():
    lines = []
    return Session(on_line=lambda unit, text: lines.append((unit, text))), lines


def put_text(w, text, unit):
    w.select(unit)
    for ch in text:
        w.put(charset.WORD_BY_CHAR[ch])


def test_writer_sorts_lines_into_output_and_punch():
    output, punch = [], []
    w = LineWriter(output, punch)
    put_text(w, "PRINTED", 3)
    w.flush()
    put_text(w, "PUNCHED", 2)
    w.emit_text(MESSAGES[8])
    w.flush()
    assert output == ["PRINTED"]
    assert punch == ["SUP 01 ILLEGAL I/O UNIT NUMBER", "PUNCHED"]


GLYPH_WORDS = sorted(charset.CHAR_BY_WORD)


def words_from(start, count):
    return [GLYPH_WORDS[i % len(GLYPH_WORDS)] for i in range(start, start + count)]


@given(st.integers(0, 260), st.integers(0, 260), st.integers(0, 62),
       st.sampled_from([1, 3]), st.sampled_from([1, 3]),
       st.sampled_from([80, 120]))
@example(100, 30, 0, 3, 1, 120)  # the buffer is already past the new unit's width
@example(67, 13, 0, 3, 3, 80)   # the field fills the line exactly
def test_put_words_matches_repeated_put(n_before, n, start, before_unit, unit, width):
    one, one_lines = collect_writer(width)
    many, many_lines = collect_writer(width)
    one.select(before_unit)
    many.select(before_unit)
    for w in words_from(start, n_before):
        one.put(w)
        many.put(w)
    # and put_text, given the same characters as text
    texts, texts_lines = collect_writer(width)
    texts.select(before_unit)
    texts.put_text("".join(map(charset.char_of, words_from(start, n_before))))
    one.select(unit)
    many.select(unit)
    texts.select(unit)
    words = words_from(start + n_before, n)
    for w in words:
        one.put(w)
    many.put_words(words)
    texts.put_text("".join(map(charset.char_of, words)))
    assert (many_lines, many.buffer) == (one_lines, one.buffer)
    assert (texts_lines, texts.buffer) == (one_lines, one.buffer)


# card runs: one slice each, the same as reading the characters one by one;
# the run up to a quote is the reference compiler's through_quote, and a
# hand-back runs to the end of the card or to a drawn stop, echoed or not

RUN_CARDS = st.lists(
    st.one_of(
        st.just(""),
        st.just(" " * 80),
        st.text(alphabet="      ''%<@#AB(=", max_size=80),
    ),
    min_size=1, max_size=3,
)


def read_run(sess, op, limit):
    reader, writer = sess.reader, sess.writer
    if op == "to_quote":
        run = through_quote(reader, limit)
        writer.put_words(run)
        return run
    view = card(reader)
    start = reader.cursor
    stop = 80 if op.startswith("to_end") else min(start + limit, 80)
    echo = None if op.endswith("unechoed") else writer.put_text
    reader.hand_back(start, stop, echo)
    return view[start:stop]


def read_each(sess, op, limit):
    """What each run stands for, read and put a character at a time."""
    reader, writer = sess.reader, sess.writer
    if op.startswith(("to_end", "to_stop")):
        run = []
        count = 80 - reader.cursor if reader.cursor < 80 else 80
        for _ in range(count if op.startswith("to_end") else min(count, limit)):
            run.append(reader.read())
            if not op.endswith("unechoed"):
                writer.put(run[-1])
        return run
    run = []  # to_quote
    for _ in range(limit):
        run.append(reader.read())
        writer.put(run[-1])
        if run[-1] == charset.QUOTE or reader.cursor == 80:
            break
    return run


def run_state(read, cards, config, skip, fill, op, limit):
    """(result, output, buffer, cursor, iac) after skip reads, fill puts and
    one read of op; result is "EOF" when the cards ran out."""
    width, input_unit, output_unit = config
    sess = Session(cards=cards, config=SessionConfig(width=width))
    sess.reader.select(input_unit)
    sess.writer.select(output_unit)
    try:
        for _ in range(skip):
            sess.reader.read()
        for _ in range(fill):
            sess.writer.put(charset.LETTER_C)
        result = read(sess, op, limit)
    except EndOfInput:
        result = "EOF"
    return result, sess.output, sess.writer.buffer, sess.reader.cursor, sess.reader.iac


@given(RUN_CARDS,
       st.tuples(st.sampled_from([80, 120]), st.sampled_from([2, 6]),
                 st.sampled_from([1, 3])),
       st.integers(0, 170), st.integers(0, 130),
       st.sampled_from(["to_end", "to_end_unechoed", "to_stop", "to_stop_unechoed",
                        "to_quote"]),
       st.integers(1, 90))
@example(["A" * 79 + "'"], (120, 2, 3), 1, 0, "to_quote", 80)  # quote in column 80
@example(["A@B'" * 20], (80, 2, 3), 3, 78, "to_stop", 5)  # the line fills on the way
@example(["A@B'" * 20], (80, 2, 3), 79, 0, "to_stop_unechoed", 5)  # iac latched, no echo
@example(["A"], (120, 2, 3), 80, 0, "to_end_unechoed", 1)  # the cards have run out
@example(["A@B'"], (120, 2, 3), 0, 0, "to_quote", 80)  # @ read as a quote
@example(["'(@)"], (120, 6, 3), 2, 0, "to_quote", 5)  # @ read as itself
def test_runs_match_reading_each_character(cards, config, skip, fill, op, limit):
    args = cards, config, skip, fill, op, limit
    assert run_state(read_run, *args) == run_state(read_each, *args)


def test_writer_explicit_flush():
    w, lines = collect_writer()
    put_text(w, "HELLO", 3)
    assert lines == []
    w.flush()
    assert lines == [(3, "HELLO")]
    w.flush()  # flushing an empty buffer writes nothing
    assert lines == [(3, "HELLO")]


def test_writer_auto_flush_at_unit_width():
    w, lines = collect_writer()
    put_text(w, "X" * 121, 3)
    assert lines == [(3, "X" * 120)]
    w, lines = collect_writer()
    put_text(w, "Y" * 81, 1)
    assert lines == [(1, "Y" * 80)]


def test_writer_width_override():
    w, lines = collect_writer(80)
    put_text(w, "Z" * 80, 3)
    assert lines == [(3, "Z" * 80)]


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
    sess, lines = collect_session()
    sess.diagnose(-9)
    assert lines == [(3, "SUP 01 ILLEGAL I/O UNIT NUMBER")]
    assert sess.errors_emitted


def test_message_bypasses_buffer():
    sess, lines = collect_session()
    put_text(sess.writer, "PENDING", 3)
    sess.diagnose(-1)
    sess.writer.flush()
    assert lines == [(3, "COMP 01 EXCESS NESTING"), (3, "PENDING")]
