"""Numeric conversion between card characters and 32-bit floats.

All runtime arithmetic is IEEE single precision: every intermediate value
is rounded through float32 so results are reproducible bit for bit.  The
parser consumes characters through a read callable and stops at the first
character that does not fit the token; in a session that character stays
latched in sess.iac.  The formatter builds the fixed 13-character
scientific form [blank][sign]d.dddddE[sign]dd as storage words and puts
them on the session's line in one call.
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

# parse modes
SILENT_FLOAT = 0
ECHO_FLOAT = 1
ECHO_INT = 2


def parse_number(sess, mode):
    """Read one number from the session input; return its value.

    mode SILENT_FLOAT parses a float without echoing, ECHO_FLOAT echoes
    while parsing, ECHO_INT parses an integer (always echoed).  The first
    character after the token stays latched in sess.iac.

    Accepted float shape: blanks, optional sign (- + &), digits with at
    most one point, optional exponent E[sign]digits.  Anything else ends
    the token; an empty token is zero.
    """
    if mode == ECHO_INT:
        return _parse_int(sess.read_echo)[0]
    read = sess.read_char if mode == SILENT_FLOAT else sess.read_echo
    return _parse_float(read)[0]


def _parse_float(read):
    """(value, terminator word) of a float token read word by word."""
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
    return f32(sign * value * scale), w


def _parse_int(read):
    """(value, terminator word) of an integer token read word by word."""
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
    return sign * value, w


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


def format_scientific(sess, value):
    """Append value's 13-character field to the session's output line,
    first releasing the line if the field would not fit in the unit's
    width."""
    words = scientific_words(value)
    writer = sess.writer
    unit = sess.output_unit
    if len(writer.buffer) > writer.width(unit) - FIELD_WIDTH:
        writer.flush(unit)
    writer.put_words(words, unit)


def format_number(value):
    """Standalone formatting helper: the 13-character field as a string."""
    return charset.decode_words(scientific_words(f32(value)))


def parse_text(text, mode=ECHO_FLOAT):
    """Standalone parsing helper: (value, terminator character).

    text is read as one card on the card unit, so the keypunch
    substitutions apply; reading past its 80 columns raises EndOfInput.
    """
    cards = iter([text])
    reader = CardReader({2: lambda: next(cards, None)})
    parse = _parse_int if mode == ECHO_INT else _parse_float
    value, w = parse(lambda: reader.read(2))
    return value, charset.char_of(w)
