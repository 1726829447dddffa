"""Card input and line output.

Input arrives as 80-column card images.  The reader holds one current
card and deals it out a character at a time.  select sets the input unit
and, in the same place, the view: the current card as that unit reads
it.  A scanner (the monitor, the compiler, the parser of I's data) may
instead take the view itself, walk it with an index of its own, and then
hand its place back by position through hand_back, the one place that
does so: echo what it read, latch the last word it took in iac and move
the reader's cursor past it.  With the listing off, which is the
round's switch and not the reader's, a scanner passes no echo, and
nothing is sliced.  The echo is the view's text, taken the first time
any part of it is echoed and kept until select runs again.  A card read
from a plain source line, every character a glyph as it stands and no
more than 80 of them, with no keypunch substitution made, takes its
text from the line itself, blank-padded; any other view is decoded
once.
next_card is the one card turn: it hands back the rest of the card,
reads the next one in and returns its view.  A scanner takes up the walk
from view and cursor, the used-up card at cursor 80, for no card is read
in before the scanner's own turn.  Every read latches the last character
read in iac.
Output is text: the writer holds its pending line as one string, takes
runs of characters onto it and releases it either explicitly or when it
reaches the width of the current output unit, which the writer holds.
Storage words are decoded on the way in, by put and put_words.  Every
put goes onto the line: the writer holds no listing switch, for the
monitor and the compiler pass no echo while the listing is off.

Units follow the machine convention: 1 console printer, 2 card
reader/punch, 3 line printer, 6 keyboard.  Only the card unit applies the
keypunch substitutions ( % < @ # for ( ) ' = ).
"""

from . import charset
from .charset import BLANK


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
    """Deals characters, or the current card to walk, off 80-column card
    images.

    source is a callable returning the next source line as a string, or
    None at end of input.  The reader holds one current card, whatever the
    unit, matching the original single-record design: the card as encoded
    (record), its source line, and view, the card as the input unit reads
    it, which select chooses.  Every read latches the last word it took in
    iac.  The text of the view, to echo it or to search it, is kept until
    select runs again.

    Every read starts by refilling when the card is used up, so a read
    never comes up empty at the end of a card.
    """

    def __init__(self, source, unit=2, strict=False):
        self.source = source
        self.strict = strict
        self.diagnostics = []
        self.line = ""   # the source line of the current card
        self.record = [BLANK] * 80
        self.cursor = 80  # characters already consumed from the card
        self.iac = 0      # the last word read
        self.select(unit)

    def select(self, unit):
        """Read from unit from now on: view is the current card as unit
        reads it, the keypunch substitutions made on the card unit (the
        record itself when the card has no keypunch glyph)."""
        self.unit = unit
        self.view = (charset.translate_card(self.record, self.line)
                     if unit == 2 else self.record)
        self._text = None

    def _refill(self):
        line = self.source()
        if line is None:
            raise EndOfInput
        self.record = charset.encode_card(
            line, strict=self.strict, diagnostics=self.diagnostics
        )
        self.line = line
        self.cursor = 0
        self.select(self.unit)

    def read(self):
        """Next character word from the input unit, refilling as needed."""
        if self.cursor >= 80:
            self._refill()
        w = self.iac = self.view[self.cursor]
        self.cursor += 1
        return w

    def text(self):
        """The view as text: the source line, blank-padded, when the view
        is the record and the line is plain (charset.is_plain), else the
        view decoded."""
        if self._text is None:
            plain = self.view is self.record and charset.is_plain(self.line)
            self._text = (self.line.ljust(80) if plain
                          else charset.decode_words(self.view))
        return self._text

    def hand_back(self, start, stop, echo=None):
        """A scanner that walked the view from index start hands its place
        back: the text of view[start:stop] goes to echo if given, its last
        word is latched in iac, and the cursor moves to stop.  When stop
        is start, the view is not looked at."""
        if stop > start:
            if echo:
                echo(self.text()[start:stop])
            self.iac = self.view[stop - 1]
        self.cursor = stop

    def next_card(self, start, echo=None):
        """Hand back view[start:80], as hand_back does, and return the
        next card's view; the cards running out raise EndOfInput only
        after the hand-back."""
        self.hand_back(start, 80, echo)
        self._refill()
        return self.view


class LineWriter:
    """Line buffer for the current output unit, held as one string.

    Each completed line is appended to punch when the unit is the card
    punch, to output otherwise, and then passed to on_line(unit, text) if
    given.  The line printer, unit 3, is width columns wide; the other
    units are 80.  The writer puts every character it is given; the
    listing switch is the round's, kept by the monitor and the compiler.
    """

    def __init__(self, output, punch, width=120, on_line=None):
        self.output = output
        self.punch = punch
        self.on_line = on_line
        self.printer_width = width
        self.unit = 3
        self.width = width
        self.buffer = ""

    def select(self, unit):
        """Write to unit from now on, at its width."""
        self.unit = unit
        self.width = self.printer_width if unit == 3 else 80

    def put_text(self, text):
        """Append characters, releasing the line exactly where appending
        them one at a time would: whenever it reaches the unit width."""
        line = self.buffer + text
        if len(line) >= self.width:
            # an overfull line (the unit narrowed) takes one more character
            stop = max(self.width, len(self.buffer) + 1)
            while len(line) >= stop:
                self.buffer, line = line[:stop], line[stop:]
                self._emit()
                stop = self.width
        self.buffer = line

    def put(self, word):
        """Append the character of one storage word."""
        self.put_text(charset.char_of(word))

    def put_words(self, words):
        """Append the characters of a run of storage words."""
        self.put_text(charset.decode_words(words))

    def flush(self):
        """Release the buffered line if nonempty; always leaves it empty."""
        if self.buffer:
            self._emit()

    def emit_text(self, text):
        """Write a whole line directly, bypassing the buffer."""
        (self.punch if self.unit == 2 else self.output).append(text)
        if self.on_line:
            self.on_line(self.unit, text)

    def _emit(self):
        self.emit_text(self.buffer)
        self.buffer = ""
