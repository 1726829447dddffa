"""Card input and line output.

Input arrives as 80-column card images read one character at a time.
Output is accumulated a character at a time into a single line buffer and
released to a sink either explicitly or when the buffer reaches the width
of the current output unit.

Units follow the machine convention: 1 console printer, 2 card
reader/punch, 3 line printer, 6 keyboard.  Only the card unit applies the
keypunch substitutions ( % < @ # for ( ) ' = ).
"""

from . import charset


class EndOfInput(Exception):
    """The input source ran dry; the session winds down as if terminated."""


class Diagnostic(Exception):
    """A catalog diagnostic: it ends the program being compiled or run.

    code is the negative catalog number.  Not a ValueError, so the
    interpreter's arithmetic-fault handler lets it through.
    """

    def __init__(self, code):
        super().__init__(code)
        self.code = code


# diagnostic codes, the negated 1-based index into MESSAGES
EXCESS_NESTING = -1
STORE_OVERFLOW = -2
DEEP_RECURSION = -3
STACK_EMPTY = -4
STACK_OVERFLOW = -5
BAD_ARGUMENT = -6
BAD_LEVEL_ZERO = -7
BAD_COUNTER = -8
BAD_UNIT = -9
CONSTANT_EXCESS = -10
BAD_NUMBER = BAD_DATUM = -11
UNDEFINED_RECURSIVE = -12
UNDEFINED_CALL = -13
RESERVED_OP = -15

# diagnostic messages, indexed by abs(code) 1..20
MESSAGES = [
    "COMP 01 EXCESS NESTING",
    "COMP 02 PROGRAM LENGTH EXCEEDS CAPACITY",
    "EXEC 01 EXCESSIVE RECURSION",
    "EXEC 02 EMPTY PUSHDOWN LIST",
    "EXEC 03 PUSHDOWN LIST OVERFLOW",
    "COMP 03 ILLEGAL ARGUMENT",
    "COMP 04 ILLEGAL CHARACTER ON PARENTHESIS LEVEL ZERO",
    "COMP 05 NEGATIVE OR ZERO COUNTER",
    "SUP 01 ILLEGAL I/O UNIT NUMBER",
    "COMP 06 PROGRAM DEFINED CONSTANT EXCESS",
    "CONV 01 SYNTAX ERROR IN NUMERIC DATA",
    "EXEC 04 RECURSIVE SUBROUTINE NOT DEFINED",
    "EXEC 05 UNDEFINED NONRECURSIVE SUBROUTINE",
    "REC 01 UNUSED",
    "COMP 07 REC/3150 OPERATOR",
    "REC 02 UNUSED",
    "REC 03 UNUSED",
    "REG 04 UNUSED",
    "REC 05 UNUSED",
    "REC 06 UNUSED",
]

PAGE_EJECT = "\f"
INTERRUPT_NOTICE = "MANUAL INTERRUPT FROM SWITCH  5"
ARITHMETIC_FAULT = "EXEC 06 ARITHMETIC FAULT"


class CardReader:
    """Deals characters off 80-column card images.

    sources maps a unit number to a callable returning the next source
    line as a string, or None at end of input.  One shared card buffer is
    used regardless of unit, matching the original single-record design.
    Each card is held twice: as encoded, and with the keypunch
    substitutions made for reads from the card unit.
    """

    def __init__(self, sources, strict=False):
        self.sources = sources
        self.strict = strict
        self.diagnostics = []
        self.record = [charset.BLANK] * 80
        self.translated = self.record
        self.cursor = 80  # characters already consumed from the record

    def force_refill(self):
        """Discard the rest of the current card; next read starts fresh."""
        self.cursor = 80

    def _refill(self, unit):
        source = self.sources.get(unit)
        if source is None:
            # unit selected but nothing attached there; fall back to any source
            for fallback in self.sources.values():
                source = fallback
                break
        if source is None:
            raise EndOfInput
        line = source()
        if line is None:
            raise EndOfInput
        self.record = charset.encode_card(
            line, strict=self.strict, diagnostics=self.diagnostics
        )
        keypunch = charset.KEYPUNCH_MAP.get
        self.translated = [keypunch(w, w) for w in self.record]
        self.cursor = 0

    def read(self, unit):
        """Next character word from the given unit, refilling as needed."""
        if self.cursor >= 80:
            self._refill(unit)
        w = (self.translated if unit == 2 else self.record)[self.cursor]
        self.cursor += 1
        return w


class LineWriter:
    """Character-at-a-time line buffer with per-unit widths.

    sink(unit, text) receives each completed line.  The echo flag mirrors
    the listing-suppression switch: when off, buffered puts are discarded
    silently, but explicit flushes and messages still go through.
    """

    def __init__(self, sink, widths=None):
        self.sink = sink
        self.widths = {1: 80, 2: 80, 3: 120, 6: 80}
        if widths:
            self.widths.update(widths)
        self.buffer = []
        self.echo = True

    def width(self, unit):
        return self.widths.get(unit, 80)

    def put(self, word, unit):
        """Append one character; auto-flush at the unit width."""
        if not self.echo:
            return
        self.buffer.append(word)
        if len(self.buffer) >= self.widths.get(unit, 80):
            self._emit(unit)

    def put_words(self, words, unit):
        """Append several characters, flushing exactly where repeated put
        would: whenever the buffer reaches the unit width."""
        if not self.echo:
            return
        buffer = self.buffer
        width = self.widths.get(unit, 80)
        start = 0
        while start < len(words):
            # an overfull buffer (the unit narrowed) takes one more word
            stop = start + max(width - len(buffer), 1)
            buffer.extend(words[start:stop])
            start = stop
            if len(buffer) >= width:
                self._emit(unit)

    def flush(self, unit):
        """Release the buffered line if nonempty; always leaves it empty."""
        if self.buffer:
            self._emit(unit)

    def clear(self):
        """Drop buffered characters without writing them."""
        self.buffer.clear()

    def emit_text(self, text, unit):
        """Write a whole line directly, bypassing the buffer."""
        self.sink(unit, text)

    def emit_message(self, code, unit):
        """Write diagnostic abs(code) of the catalog, bypassing the buffer."""
        self.sink(unit, MESSAGES[-code - 1])

    def _emit(self, unit):
        self.sink(unit, charset.decode_words(self.buffer))
        self.buffer.clear()
