"""Character set representations and translations."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reca import charset

from conftest import digit_value, digit_word, is_digit_word

ALL_CHARS = sorted(charset.WORD_BY_CHAR)


def test_known_storage_words():
    # spot values fixed by the storage-word construction cp*256+64
    assert charset.WORD_BY_CHAR[" "] == 16448
    assert charset.WORD_BY_CHAR["("] == 19776
    assert charset.WORD_BY_CHAR[")"] == 23872
    assert charset.WORD_BY_CHAR["'"] == 32064
    assert charset.WORD_BY_CHAR["="] == 32320
    assert charset.WORD_BY_CHAR["-"] == 24640
    assert charset.WORD_BY_CHAR["."] == 19264
    assert charset.WORD_BY_CHAR["/"] == 24896
    assert charset.WORD_BY_CHAR["+"] == 20032
    assert charset.WORD_BY_CHAR["&"] == 20544
    assert charset.WORD_BY_CHAR["%"] == 27712
    assert charset.WORD_BY_CHAR["<"] == 19520
    assert charset.WORD_BY_CHAR["@"] == 31808
    assert charset.WORD_BY_CHAR["#"] == 31552
    assert charset.WORD_BY_CHAR["E"] == -15040
    assert charset.WORD_BY_CHAR["C"] == -15552
    assert charset.WORD_BY_CHAR["L"] == -11456
    assert charset.WORD_BY_CHAR["*"] == 23616


def test_digit_words_span_negative_range():
    assert [charset.WORD_BY_CHAR[d] for d in "09"] == [-4032, -1728]
    for v in range(10):
        w = digit_word(v)
        assert is_digit_word(w)
        assert digit_value(w) == v
    assert not is_digit_word(charset.BLANK)
    assert not is_digit_word(charset.WORD_BY_CHAR["A"])
    assert charset.DIGIT_BY_WORD == {digit_word(v): v for v in range(10)}


def test_class_codes():
    # the six-bit code is the low six bits of the code point, plus one
    assert charset.code_of(" ") == 1
    assert charset.code_of("A") == 2
    assert charset.code_of("I") == 10
    assert charset.code_of("J") == 18
    assert charset.code_of("R") == 26
    assert charset.code_of("S") == 35
    assert charset.code_of("Z") == 42
    assert charset.code_of("0") == 49
    assert charset.code_of("9") == 58
    assert charset.code_of("(") == 14
    assert charset.code_of(")") == 30
    assert charset.code_of("'") == 62
    assert charset.code_of("$") == 28
    assert charset.code_of('"') == 64
    assert charset.code_of("/") == 34


def test_sixty_three_glyphs_and_code_43_unassigned():
    assert len(ALL_CHARS) == 63
    codes = {charset.code_of(c) for c in ALL_CHARS}
    assert codes == set(range(1, 65)) - {43}
    # the digits alone have class codes 49..58, so on a glyph's word
    # DIGIT_BY_WORD and a test of the class code agree
    assert {c for c in ALL_CHARS if 49 <= charset.code_of(c) <= 58} == set("0123456789")


def test_quote_extension():
    assert charset.quote_extend(charset.code_of("R")) == 90
    assert charset.quote_extend(charset.code_of("/")) == 98
    assert 65 <= charset.quote_extend(1) <= 128


def test_keypunch_translation():
    pairs = {"%": "(", "<": ")", "@": "'", "#": "="}
    text = "".join(pairs) + "A9*'&"
    translated = charset.translate_card(charset.encode_card(text), text)
    assert charset.decode_words(translated[:4]) == "".join(pairs.values())
    # everything else passes through
    assert charset.decode_words(translated[4:]) == "A9*'&" + " " * 71


def test_encode_card_pads_and_folds():
    words = charset.encode_card("ab")
    assert len(words) == 80
    assert words[0] == charset.WORD_BY_CHAR["A"]
    assert words[1] == charset.WORD_BY_CHAR["B"]
    assert words[2:] == [charset.BLANK] * 78
    assert charset.encode_card("X" * 100) == [charset.WORD_BY_CHAR["X"]] * 80


def test_encode_card_notes_characters_past_column_80():
    notes = []
    assert charset.encode_card("X" * 80 + "  AB  ", diagnostics=notes) == \
        [charset.WORD_BY_CHAR["X"]] * 80
    charset.encode_card("X" * 80 + "A", diagnostics=notes)
    charset.encode_card("X" * 80 + "   ", diagnostics=notes)
    assert notes == [
        "column 81: 4 characters past column 80 dropped",
        "column 81: 1 character past column 80 dropped",
    ]


def test_encode_card_unknown_characters():
    notes = []
    words = charset.encode_card("{", diagnostics=notes)
    assert words[0] == charset.BLANK
    assert notes and "{" in notes[0]
    with pytest.raises(charset.CharsetError):
        charset.encode_card("{", strict=True)


def test_not_sign_alias():
    assert charset.encode_card("~")[0] == charset.WORD_BY_CHAR["¬"]


@given(st.sampled_from(ALL_CHARS))
def test_word_roundtrip(ch):
    w = charset.WORD_BY_CHAR[ch]
    assert -32768 <= w <= 32767
    assert charset.char_of(w) == ch
    assert 1 <= charset.class_code(w) <= 64


@given(st.text(alphabet=ALL_CHARS, max_size=80))
def test_card_decode_roundtrip(text):
    words = charset.encode_card(text)
    assert charset.decode_words(words).rstrip(" ") == text.rstrip(" ")


def reference_decode(words):
    """decode_words as it was before its table: one dict lookup a word."""
    return "".join([charset.CHAR_BY_WORD.get(w, " ") for w in words])


def test_decode_words_matches_reference_on_every_word():
    # the word an A1 read leaves for each code point, glyph or not
    words = [charset.word_from_codepoint(cp) for cp in range(256)]
    assert [charset.decode_words([w]) for w in words] == \
        [reference_decode([w]) for w in words]
    assert charset.decode_words(words) == reference_decode(words)
    # Q is 0xD840, a high surrogate in UTF-16; the word after it is not
    # its pair but a character of its own
    q = charset.WORD_BY_CHAR["Q"]
    assert charset.decode_words([q, 0xDC40 - 0x10000]) == "Q "
    # no words; a 121-word line
    glyphs = charset.encode_card("THE SUM IS 1.5E-3, OR (A+B)/2 ¢¬")
    for line in [], glyphs + glyphs[:41]:
        assert charset.decode_words(line) == reference_decode(line), line


CARD_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(ALL_CHARS + [c.lower() for c in ALL_CHARS] + ["~"]),
        st.characters(),
    ),
    max_size=100,
)


def reference_encode(text, strict, diagnostics):
    """encode_card one character at a time: alias, fold to uppercase, look up;
    then note anything but blanks cut past column 80."""
    words = []
    for col, ch in enumerate(text[:80], start=1):
        ch = charset.DEFAULT_ALIASES.get(ch, ch)
        w = charset.WORD_BY_CHAR.get(ch.upper())
        if w is None:
            if strict:
                raise charset.CharsetError(
                    f"column {col}: character {ch!r} not in character set")
            diagnostics.append(f"column {col}: character {ch!r} replaced by blank")
            w = charset.BLANK
        words.append(w)
    dropped = len(text[80:].rstrip(" "))
    if dropped:
        plural = "s" if dropped > 1 else ""
        diagnostics.append(f"column 81: {dropped} character{plural} past column 80 dropped")
    return words + [charset.BLANK] * (80 - len(words))


@given(CARD_TEXT, st.booleans())
@example("ab~" * 30, False)
@example("x" * 79 + "~{", True)   # the bad character lies past column 80
@example("x" * 40 + "\u0131", True)  # dotless i folds to I
@example("{a}\u0131~", False)  # notes in column order
@example("{a}\u0131~", False)  # notes in column order
def test_encode_card_matches_reference(text, strict):
    def encode(encoder):
        notes = []
        try:
            return encoder(text, strict=strict, diagnostics=notes), notes
        except charset.CharsetError as exc:
            return str(exc), notes

    assert encode(charset.encode_card) == encode(reference_encode)
