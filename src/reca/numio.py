"""Numeric conversion between card characters and 32-bit floats.

All runtime arithmetic is IEEE single precision: every intermediate value
is rounded through float32 so results are reproducible bit for bit.  The
scanner, scan_number, reads a number off any sequence of words from a
given index and stops at the first word that does not fit the token; a
read past the end of the words raises IndexError.  A number is written
'/number' both as a constant in a program and as a datum on a data card,
and scan_constant reads the tail of that form, the number, blanks and
the closing quote, once for both.  The compiler runs it on the tape of
cards it walks, and takes the token again when the tape runs out.
parse_number, which reads the data of I, reads the whole datum, the
blanks and '/ before the tail too, on the view of the card a card reader
holds, from the reader's resume, and hands back through its last word,
latched in the reader's iac.  A datum may run past column 80, and a read
may start on a used-up card: parse_number then turns the card through
the reader's next_card, as the compiler's turn does, and scans again over
the datum's words so far and the next card.  The formatter builds
the fixed 13-character scientific form [blank][sign]d.dddddE[sign]dd as
text, in straight code with one round a digit, and puts it on a line
writer in one call.

Where the float32 round is normal or exact, Dekker's split makes it:
c = x * (2**29 + 1); c - (c - x) is x to 24 bits, ties to even.  So every
round of the formatter is split, and each digit step of the parser from
2**24 to 1e30; below 2**24 a digit step gives a whole number, which is a
float32 already, so it needs no round.  Where the round may be subnormal
or inf (f32, which a digit step from 1e30 calls, and the parser's scale
and product) C's double-to-float cast makes it, always through a one-cell
array("f") made fresh so that callers share no state.
"""

from array import array

from . import charset
from .charset import AMPERSAND, BLANK, DOT, LETTER_E, MINUS, PLUS, QUOTE, SLASH
from .iosys import BAD_DATUM, Diagnostic, EndOfInput

_new_cell = array("f", (0.0,)).__copy__
_SPLIT = 2.0 ** 29 + 1  # splits a double's 53 bits as 24 + 29


def f32(x):
    """Round a Python float to the nearest IEEE single precision value;
    past float32's range it saturates to inf, as C's cast does."""
    f = _new_cell()
    f[0] = x
    return f[0]


ROUND_HALF_DIGIT = f32(5.0e-6)  # rounding bias added before digit extraction
FIELD_WIDTH = 13


def parse_number(reader):
    """Read one datum of I off reader's cards, blanks and then '/number',
    and return its value; a bad frame raises Diagnostic(BAD_DATUM).

    The datum is read through its closing quote, or through the word that
    breaks its frame; that word is latched in reader.iac.  A word is
    looked at only once every word before it has passed, so the reader is
    left, and the cards read in, where reading the datum a character at a
    time would leave them.
    """
    # tape ends with the view, preceded, once the card has turned, by the
    # datum's words on earlier cards; view[begin:] is not handed back yet,
    # and the blanks before tape[first] are read
    tape, begin = reader.resume()
    first = begin
    while True:
        try:
            while tape[first] == BLANK:
                first += 1
            value = None
            if tape[first] == QUOTE and tape[first + 1] == SLASH:
                value, i = scan_constant(tape, first + 2)
            else:  # through the word that breaks the frame
                i = first + (2 if tape[first] == QUOTE else 1)
            break
        except IndexError:
            # the datum or the blanks before it run off the end of the
            # tape, or the card is used up: turn the card and scan again,
            # past the blanks read
            card = reader.next_card(begin)
            tape = tape[first:] + card if first < len(tape) else card
            first = begin = 0
    # hand back through tape[i - 1], which is on the view at i - len(tape) + 79
    reader.hand_back(begin, i - len(tape) + 80)
    if value is None:
        raise Diagnostic(BAD_DATUM)
    return value


def scan_constant(tape, i):
    """(value, index past the closing quote) of the tail of '/number'
    that starts at tape[i]: the number, blanks and the quote.  When a word
    breaks the tail, (None, index past that word).  Indexing past the end
    of tape raises IndexError."""
    value, i = scan_number(tape, i, False)
    while tape[i] == BLANK:
        i += 1
    return (value if tape[i] == QUOTE else None), i + 1


def scan_number(card, i, integer):
    """(value, index of the terminator) of the number that starts at
    card[i], card being a sequence of words; integer reads an integer,
    otherwise a float.  Indexing past the end of card raises IndexError.

    Accepted float shape: blanks, optional sign (- + &), digits with at
    most one point, optional exponent E[sign]digits.  Anything else ends
    the token and is its terminator; an empty token is zero.
    """
    w = card[i]
    while w == BLANK:
        i += 1
        w = card[i]
    negative = w == MINUS
    if negative or w == PLUS or w == AMPERSAND:
        i += 1
        w = card[i]
    # the digit glyphs 0..9 are the words -4032 .. -1728, 256 apart, so a
    # digit word's value is (w + 4032) // 256
    if integer:
        n = 0
        while -4032 <= w <= -1728:
            n = 10 * n + (w + 4032) // 256
            i += 1
            w = card[i]
        return (-n if negative else n), i
    value = 0.0
    point = None  # the index of the point, once one is read
    while True:
        if -4032 <= w <= -1728:
            x = value * 10.0 + (w + 4032) // 256
            if x < 16777216.0:  # 2**24: a whole number, so a float32
                value = x
            else:
                c = x * _SPLIT
                # the split does not saturate to inf; past 1e30 the cast must
                value = c - (c - x) if x < 1e30 else f32(x)
        elif w == DOT and point is None:
            point = i
        else:
            break
        i += 1
        w = card[i]
    places = 0 if point is None else i - point - 1
    exponent = 0
    if w == LETTER_E:
        i += 1
        w = card[i]
        exp_negative = w == MINUS
        if exp_negative or w == PLUS or w == AMPERSAND:
            i += 1
            w = card[i]
        while -4032 <= w <= -1728:
            exponent = 10 * exponent + (w + 4032) // 256
            i += 1
            w = card[i]
        if exp_negative:
            exponent = -exponent
    f = _new_cell()
    try:
        f[0] = 10.0 ** (exponent - places)
    except OverflowError:
        # out of range: the value is an infinity, or nan for a zero number.
        # O and the binary operators fault on it, and E on +inf; the other
        # unary operators and the tests run on it (ROADMAP item 4)
        f[0] = float("inf")
    f[0] = (-1.0 if negative else 1.0) * value * f[0]
    return f[0], i


def scientific_text(value):
    """The 13-character field of float32 value, [blank][sign]d.dddddE[sign]dd.

    The mantissa is normalized by repeated float32 multiplies into [1, 10)
    (overshoot then divide back, so the rounding trail matches the
    original fixed sequence), biased by half the last digit, and its six
    digits peeled off by scale-and-truncate, one float32 round a digit.
    """
    if value - value != 0:  # infinity or nan would never normalize
        raise OverflowError("value is not representable")
    k = 0
    v = value if value >= 0 else -value
    if v > 0:
        # ten times a subnormal is a whole multiple of 2**-149, so it is
        # a float32 itself below 2**-126 and the split leaves it exact
        while v < 10.0:
            x = v * 10.0
            c = x * _SPLIT
            v = c - (c - x)
            k -= 1
        while v >= 10.0:
            x = v * 0.1
            c = x * _SPLIT
            v = c - (c - x)
            k += 1
    x = v + ROUND_HALF_DIGIT
    c = x * _SPLIT
    v = c - (c - x)
    if v >= 10.0:
        # rounding carried into a new leading digit
        x = v * 0.1
        c = x * _SPLIT
        v = c - (c - x)
        k += 1
    # v - int(v) is exact for a float32 v below 10; only the times 10 rounds
    d0 = int(v)
    x = 10.0 * (v - d0)
    c = x * _SPLIT
    v = c - (c - x)
    d1 = int(v)
    x = 10.0 * (v - d1)
    c = x * _SPLIT
    v = c - (c - x)
    d2 = int(v)
    x = 10.0 * (v - d2)
    c = x * _SPLIT
    v = c - (c - x)
    d3 = int(v)
    x = 10.0 * (v - d3)
    c = x * _SPLIT
    v = c - (c - x)
    d4 = int(v)
    x = 10.0 * (v - d4)
    c = x * _SPLIT
    d5 = int(c - (c - x))
    e1, e0 = divmod(-k if k < 0 else k, 10)  # two digits for a float32's exponent
    digits = "0123456789"
    return (f" {'-' if value < 0 else ' '}{digits[d0]}.{digits[d1]}{digits[d2]}"
            f"{digits[d3]}{digits[d4]}{digits[d5]}E{'-' if k < 0 else ' '}"
            f"{digits[e1]}{digits[e0]}")


def format_scientific(writer, value):
    """Append value's 13-character field to the writer's line, first
    releasing the line if the field would not fit in the unit's width."""
    text = scientific_text(value)
    if len(writer.buffer) > writer.width - FIELD_WIDTH:
        writer.flush()
    writer.put_text(text)


def format_number(value):
    """Standalone formatting helper: the 13-character field as a string."""
    return scientific_text(f32(value))


def parse_text(text, integer=False):
    """Standalone parsing helper: (value, terminator character) of the
    number at the start of text, as scan_number reads it.

    text is read as one card on the card unit, so the keypunch
    substitutions apply; reading past its 80 columns raises EndOfInput.
    """
    card = charset.translate_card(charset.encode_card(text), text)
    try:
        value, stop = scan_number(card, 0, integer)
    except IndexError:
        raise EndOfInput from None
    return value, charset.char_of(card[stop])
