"""Numeric conversion between card characters and 32-bit floats.

All runtime arithmetic is IEEE single precision: every intermediate value
is rounded through float32 so results are reproducible bit for bit.  The
parser consumes characters through a read callable and stops at the first
character that does not fit the token; read from a card reader, that
character stays latched in the reader's iac.  The formatter builds the
fixed 13-character scientific form [blank][sign]d.dddddE[sign]dd as
storage words and puts them on a line writer in one call.
"""

import struct

from . import charset
from .iosys import CardReader

_F32 = struct.Struct("f")
_pack = _F32.pack
_unpack = _F32.unpack


def f32(x):
    """Round a Python float to the nearest IEEE single precision value."""
    return _unpack(_pack(x))[0]


ROUND_HALF_DIGIT = f32(5.0e-6)  # rounding bias added before digit extraction
FIELD_WIDTH = 13


def parse_number(read, integer=False):
    """Read one number, a word at a time from read; return its value.

    integer parses an integer, otherwise a float.  The first character
    after the token is read too; it ends the token and is not part of it.

    Accepted float shape: blanks, optional sign (- + &), digits with at
    most one point, optional exponent E[sign]digits.  Anything else ends
    the token; an empty token is zero.
    """
    return (_parse_int if integer else _parse_float)(read)


def _parse_float(read):
    """The value of a float token read word by word."""
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
            while charset.is_digit_word(w):
                exponent = 10 * exponent + charset.digit_value(w)
                w = read()
            break
        if charset.is_digit_word(w):
            value = f32(value * 10.0 + charset.digit_value(w))
            w = read()
            continue
        break
    if frac > 0:
        frac -= 2  # point and terminator were both counted
    exponent = exp_sign * exponent - frac
    try:
        scale = f32(10.0 ** exponent)
    except OverflowError:
        scale = float("inf")  # out of range; arithmetic on it faults later
    return f32(sign * value * scale)


def _parse_int(read):
    """The value of an integer token read word by word."""
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
    while charset.is_digit_word(w):
        value = 10 * value + charset.digit_value(w)
        w = read()
    return sign * value


def scientific_words(value):
    """The 13 storage words of value as [blank][sign]d.dddddE[sign]dd.

    The mantissa is normalized by repeated float32 multiplies into [1, 10)
    (overshoot then divide back, so the rounding trail matches the
    original fixed sequence), biased by half the last digit, and its six
    digits peeled off by repeated scale-and-truncate.
    """
    if value - value != 0:  # infinity or nan would never normalize
        raise OverflowError("value is not representable")
    pack = _pack
    unpack = _unpack
    k = 0
    sign = charset.MINUS if value < 0 else charset.BLANK
    v = value if value >= 0 else -value
    if v > 0:
        while v < 10.0:
            v = unpack(pack(v * 10.0))[0]
            k -= 1
        while v >= 10.0:
            v = unpack(pack(v * 0.1))[0]
            k += 1
    v = unpack(pack(v + ROUND_HALF_DIGIT))[0]
    if v >= 10.0:
        # rounding carried into a new leading digit
        v = unpack(pack(v * 0.1))[0]
        k += 1
    # digit_word(n) is n * 256 - 4032
    n = int(v)
    words = [charset.BLANK, sign, n * 256 - 4032, charset.DOT]
    for _ in range(5):
        v = unpack(pack(10.0 * unpack(pack(v - n))[0]))[0]
        n = int(v)
        words.append(n * 256 - 4032)
    words.append(charset.LETTER_E)
    if k < 0:
        words.append(charset.MINUS)
        k = -k
    else:
        words.append(charset.BLANK)
    if k > 99:
        # unreachable for float32 magnitudes, kept as a hard stop
        raise OverflowError("exponent does not fit in two digits")
    words.append(k // 10 * 256 - 4032)
    words.append(k % 10 * 256 - 4032)
    return words


def format_scientific(writer, value):
    """Append value's 13-character field to the writer's line, first
    releasing the line if the field would not fit in the unit's width."""
    words = scientific_words(value)
    if len(writer.buffer) > writer.width - FIELD_WIDTH:
        writer.flush()
    writer.put_words(words)


def format_number(value):
    """Standalone formatting helper: the 13-character field as a string."""
    return charset.decode_words(scientific_words(f32(value)))


def parse_text(text, integer=False):
    """Standalone parsing helper: (value, terminator character).

    text is read as one card on the card unit, so the keypunch
    substitutions apply; reading past its 80 columns raises EndOfInput.
    """
    cards = iter([text])
    reader = CardReader({2: lambda: next(cards, None)})
    value = parse_number(reader.read, integer)
    return value, charset.char_of(reader.iac)
