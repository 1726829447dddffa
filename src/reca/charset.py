"""Card character set and its three machine representations.

Every character lives in three forms:

* text       - the Python character as it appears on a card or a printed line
* word       - a signed 16-bit storage word, the value an A1-format read
               would leave in memory: code point * 256 + 64, wrapped to
               two's complement.  Letters land in the negative range, which
               the rest of the system exploits freely.
* class code - a small index 1..64 used to subscript dispatch tables,
               recovered from the word by masking the low six bits of the
               code point and adding one.

A quote prefix shifts a class code into the upper half (65..128) so quoted
letters get their own table rows.
"""

import re
import struct

# code points for the 63 assigned card glyphs (one slot of the 64 is unused)
_CODEPOINTS = {
    " ": 0x40,
    "¢": 0x4A, ".": 0x4B, "<": 0x4C, "(": 0x4D, "+": 0x4E, "|": 0x4F,
    "&": 0x50,
    "!": 0x5A, "$": 0x5B, "*": 0x5C, ")": 0x5D, ";": 0x5E, "¬": 0x5F,
    "-": 0x60, "/": 0x61,
    ",": 0x6B, "%": 0x6C, "_": 0x6D, ">": 0x6E, "?": 0x6F,
    ":": 0x7A, "#": 0x7B, "@": 0x7C, "'": 0x7D, "=": 0x7E, '"': 0x7F,
}
for _i, _c in enumerate("ABCDEFGHI"):
    _CODEPOINTS[_c] = 0xC1 + _i
for _i, _c in enumerate("JKLMNOPQR"):
    _CODEPOINTS[_c] = 0xD1 + _i
for _i, _c in enumerate("STUVWXYZ"):
    _CODEPOINTS[_c] = 0xE2 + _i
for _i, _c in enumerate("0123456789"):
    _CODEPOINTS[_c] = 0xF0 + _i

# ASCII stand-in for the not-sign, the one glyph most keyboards lack
DEFAULT_ALIASES = {"~": "¬"}


def _wrap16(v):
    return ((v + 0x8000) & 0xFFFF) - 0x8000


def word_from_codepoint(cp):
    """Storage word for a code point, as left by an A1 read."""
    return _wrap16(cp * 256 + 64)


WORD_BY_CHAR = {c: word_from_codepoint(cp) for c, cp in _CODEPOINTS.items()}
CHAR_BY_WORD = {w: c for c, w in WORD_BY_CHAR.items()}

BLANK = WORD_BY_CHAR[" "]           # 16448
QUOTE = WORD_BY_CHAR["'"]           # 32064
LPAREN = WORD_BY_CHAR["("]          # 19776
RPAREN = WORD_BY_CHAR[")"]
STAR = WORD_BY_CHAR["*"]
SLASH = WORD_BY_CHAR["/"]           # 24896
PLUS = WORD_BY_CHAR["+"]
MINUS = WORD_BY_CHAR["-"]
AMPERSAND = WORD_BY_CHAR["&"]
DOT = WORD_BY_CHAR["."]
LETTER_C = WORD_BY_CHAR["C"]        # -15552
LETTER_E = WORD_BY_CHAR["E"]        # -15040
LETTER_L = WORD_BY_CHAR["L"]        # -11456
# the digit each digit glyph stands for
DIGIT_BY_WORD = {WORD_BY_CHAR[c]: int(c) for c in "0123456789"}

# card-code translation applied on the punched-card unit only: the four
# multipunch glyphs stand for the characters a printing keyboard types
KEYPUNCH_MAP = {
    WORD_BY_CHAR["%"]: LPAREN,
    WORD_BY_CHAR["<"]: RPAREN,
    WORD_BY_CHAR["@"]: QUOTE,
    WORD_BY_CHAR["#"]: WORD_BY_CHAR["="],
}


def translate_card(words, text):
    """The card unit's view of words, the card encoded from text: the
    keypunch substitutions made, or words itself when text holds none of
    the four glyphs, as nearly every card does."""
    if "%" in text or "<" in text or "@" in text or "#" in text:
        keypunch = KEYPUNCH_MAP.get
        return [keypunch(w, w) for w in words]
    return words


def class_code(word):
    """Dispatch-table index 1..64 for a storage word."""
    return (((word - 64) >> 8) & 63) + 1


def quote_extend(code):
    """Shift a class code into the quoted upper half 65..128."""
    return code + 64


def code_of(char):
    """Class code of a plain character (helper for table construction)."""
    return class_code(WORD_BY_CHAR[char])


def char_of(word):
    """Printable character for a storage word (blank if unassigned)."""
    return CHAR_BY_WORD.get(word, " ")


class CharsetError(ValueError):
    """A card contained a character outside the machine character set."""


# every character that encodes under the default aliases without a note:
# the glyphs, their lowercase forms and the aliases themselves
_DEFAULT_WORD = {
    ch: w
    for ch in (*WORD_BY_CHAR, *map(str.lower, WORD_BY_CHAR), *DEFAULT_ALIASES)
    if (w := WORD_BY_CHAR.get(DEFAULT_ALIASES.get(ch, ch).upper())) is not None
}


# a source line whose every character is a glyph as it stands, within 80
# columns: its card decodes to the line itself, blank-padded
is_plain = re.compile(f"[{re.escape(''.join(WORD_BY_CHAR))}]{{0,80}}").fullmatch


def encode_card(text, strict=False, diagnostics=None):
    """Turn one source line into exactly 80 storage words.

    Lowercase is folded to uppercase, short lines are blank-padded, long
    lines are truncated.  Characters outside the set become blanks; with
    strict=True they raise instead, otherwise a note is appended to the
    diagnostics list if one is given.  Cutting anything but blanks past
    column 80 also appends a note.
    """
    dropped = len(text[80:].rstrip(" "))
    text = text[:80]
    try:
        words = list(map(_DEFAULT_WORD.__getitem__, text))
    except KeyError:
        words = []
        for col, ch in enumerate(text, start=1):
            # else another character whose uppercase is a glyph, such as
            # dotless i
            w = _DEFAULT_WORD.get(ch) or WORD_BY_CHAR.get(ch.upper())
            if w is None:
                if strict:
                    raise CharsetError(f"column {col}: character {ch!r} not in character set")
                if diagnostics is not None:
                    diagnostics.append(f"column {col}: character {ch!r} replaced by blank")
                w = BLANK
            words.append(w)
    if dropped and diagnostics is not None:
        plural = "s" if dropped > 1 else ""
        diagnostics.append(
            f"column 81: {dropped} character{plural} past column 80 dropped")
    words.extend([BLANK] * (80 - len(words)))
    return words


# the latin-1 byte of the glyph at each code point, a blank where none is
_GLYPHS = bytes(ord(CHAR_BY_WORD.get(word_from_codepoint(cp), " ")) for cp in range(256))


def decode_words(words):
    """Render a sequence of glyph words, as an A1 read leaves them (a
    card's view, or a string's cells copied from one), as text: one
    translation of their code points."""
    raw = struct.pack(f"<{len(words)}h", *words)
    return raw[1::2].translate(_GLYPHS).decode("latin-1")
