"""Monitor and one-pass compiler.

The monitor scans cards for a control line: a leading C echoes the card
as commentary, a leading * introduces command letters (I O T E N S), and
any card is abandoned the moment a left parenthesis appears.  The
monitor stops at that (, and the compiler opens the program it starts.

The compiler translates the parenthesized expression directly into
threaded code in the program store, resolving forward branches through
backpatch chains.  A program ends at the level-zero right parenthesis,
followed by three name characters: a blank first character executes the
program immediately, otherwise the name is bound as a subroutine; an L in
the third position prints the object-code listing.

The monitor and the compiler each walk a tape of cards with an index of
their own: the reader's view of the current card, preceded by the words
of the current command or token that lie on earlier cards.  Each echoes
what it has read in one call a card segment, as the view's text, which
the reader takes from the source line or decodes once a card, and hands
its place back to the reader by position: through its next_card at the
end of each card, which reads the next one in, and through its hand_back
before anything else reads, writes or looks.  The monitor hands back
once a command's last word is read, before the command takes effect, and
with the ( that starts compilation; the compiler before the flush,
listing and binding that follow a program's name, and when a diagnostic
it raises abandons the program.  The compiler keeps the store's next
free cell in a local as well, and stores it back however the walk ends.
The monitor drops a card that is not a control card unechoed and skips a
run of blanks with one search of the card's text.  A command that runs
off the end of its tape is taken again, from its letter, once the next
card is in: the monitor's one card turn.  After each command the monitor
walks on from the reader's view and cursor, so after I it walks the card
as the new input unit reads it.  The listing switch is the round's echo:
the monitor starts each round from the session's configuration, drops
the echo at S and returns it, and the compiler is passed it.  With the
listing off, neither passes an echo to the reader.

The compiler handles every class of character straight off a tape: the
current card, preceded by the words of the current token that lie on
earlier cards.  Blanks, operators, predicates, parentheses and
separators, the argument character of F, S and =, the bodies of '*
comments and " strings, the numbers of counters, which numio.scan_number
scans, and the number, blanks and closing quote of a '/number' constant,
which numio.scan_constant reads as it does for the data of I, are all
read off the tape, and so are the three name characters after the
level-zero ).  A token that runs off the end of the tape is taken again,
from its first word, once the next card is in: the one card turn of the
compiler inside a program, and the one place there where the cards can
run out, which ends the session with a note among the reader's
diagnostics.  The blanks after a bound program's name are skipped on the
compiler's own tape, unechoed, and the left parenthesis of the next
program is taken off it and echoed with the segment it starts; anything
else there is COMP 04, and the cards running out there end the session
cleanly.

A catalog diagnostic raises iosys.Diagnostic, which abandons the program
being compiled; the session reports it.  An illegal unit number is the
one diagnostic that does not abort: the monitor prints it and reads on.
"""

from . import charset, numio, tables
from .charset import BLANK, DIGIT_BY_WORD, LETTER_L, LPAREN, QUOTE
from .iosys import (
    BAD_ARGUMENT, BAD_COUNTER, BAD_LEVEL_ZERO, BAD_NUMBER, BAD_UNIT,
    CONSTANT_EXCESS, EXCESS_NESTING, RESERVED_OP, STORE_OVERFLOW, Diagnostic,
    EndOfInput,
)
from .store import RECURSIVE_MARK
from .tables import (
    CHAR_PRED, CLOSE, COMMENT, CONSTANT, COUNTER, DECLARED_RECURSIVE, OPEN,
    OPERATOR, OPERATOR_NUM, PREDICATE, QUOTE_PREFIX, REPEAT, SEQUENT, STRING,
    Subroutine,
)


# monitor command letters, as storage words
_INPUT, _OUTPUT, _TERMINATE, _ERASE, _RECURSIVE, _SUPPRESS = _COMMANDS = tuple(
    charset.WORD_BY_CHAR[c] for c in "IOTENS"
)


class Terminated(Exception):
    """The session is over: the monitor saw the terminate command."""


def monitor(sess):
    """Scan cards until compilation starts; returns the round's echo when
    ( is consumed and handed back: the writer's put_text, or None when
    the configuration turns the listing off or an S command has been
    read.  The walk keeps its place in locals, as compile_program's does:
    the tape, the index i of its next word, and start (card[start:] is
    not yet echoed); tape[i] is the card's word i - len(tape) + 80.  The
    tape is the current card, the reader's view, preceded only by the
    words of a command that lie on earlier cards.  A command reads all its
    words, the letter, the argument and N's quoted character, before it
    is handed back and takes effect, so one that runs off the end of the
    tape is taken again, from its letter, once the next card is in.  A
    blank, a ( or a letter that is no command is one word, so the tape is
    the bare card wherever a run of blanks is skipped.  After a command
    the walk goes on from the reader's view and cursor: after I, the card
    as the new unit reads it."""
    reader = sess.reader
    writer = sess.writer
    echo = writer.put_text if sess.config.echo else None  # None: the listing is off
    while True:
        card = reader.next_card(80)  # a control card starts a fresh card
        if card[0] == charset.STAR:
            break
        if card[0] == charset.LETTER_C:
            reader.hand_back(0, 80, echo)
            writer.flush()
        else:
            # not a control card: it goes unechoed, read as far as its first word
            reader.hand_back(0, 1)
    tape, i, start = card, 1, 0  # the * is read, not yet echoed
    while True:
        token = i
        try:
            w = tape[i]
            i += 1
            if w == BLANK:
                # every word on a card is a glyph, so the card's text has a
                # blank where the card has one: skip the run in one search
                i = 80 - len(reader.text()[i:].lstrip(" "))
                continue
            if w == LPAREN:
                break
            if w not in _COMMANDS:
                continue
            arg = tape[i]
            i += 1
            if arg == LPAREN:
                break
            if w == _RECURSIVE:
                code = charset.class_code(arg)
                if sess.compile_code[code] == QUOTE_PREFIX:
                    code = tables.quote_extend(charset.class_code(tape[i]))
                    i += 1
        except IndexError:
            # the tape ran out: read the next card in, keep the command's
            # words, and take it again
            card = reader.next_card(start, echo)
            tape = tape[token:] + card if token < len(tape) else card
            i = start = 0
            continue
        reader.hand_back(start, i - len(tape) + 80, echo)
        unit = DIGIT_BY_WORD.get(arg)  # of I and O, if arg is a digit
        if w == _INPUT and unit in (2, 6):
            # the unit decides whether the keypunch glyphs are translated
            reader.select(unit)
        elif w == _OUTPUT and unit in (1, 2, 3):
            writer.select(unit)
        elif w == _INPUT or w == _OUTPUT:
            sess.diagnose(BAD_UNIT)
        elif w == _TERMINATE:
            raise Terminated
        elif w == _ERASE:
            sess.erase()
        elif w == _RECURSIVE:
            sess.compile_code[code] = PREDICATE
            sess.exec_code[code] = DECLARED_RECURSIVE
        elif w == _SUPPRESS:
            echo = None
        tape = reader.view
        i = start = reader.cursor
    # the left parenthesis at level zero
    reader.hand_back(start, i - len(tape) + 80, echo)
    writer.flush()
    return echo


def compile_program(sess, echo):
    """Compile until a program completes that should run now, passing
    echo, the round's echo that monitor returns, to the reader with what
    it reads.  Named programs met on the way are bound and compilation
    goes on with the next one.  A catalog diagnostic raises Diagnostic.
    The cards running out inside a program note it among the reader's
    diagnostics, mark the session as failed and raise EndOfInput; running
    out in the blanks after a bound name raises EndOfInput alone.

    The walk opens a program at the store's next free cell and walks a
    tape of cards from the reader's cursor, just past the program's (.  A
    program is opened by its entry cell, ilc0, and its level-zero frame:
    here for the first, and after a bound name for each one that follows,
    before the blanks up to its ( are skipped.  A missing ( then abandons
    only the new program, for the next cycle starts the store again at
    ilc0.  The opening is written out at both places: one loop over
    programs would need a flag that only the second place sets, and be
    longer.  The tape is the current card, the reader's view, preceded
    only by the words of the current token that lie on earlier cards.
    The walk's place is kept in locals: the tape, the index i of its next
    word, the card, start (card[start:] is not yet echoed), ilc, the
    store's next free cell, and frames, the open parenthesis levels;
    tape[i] is the card's word i - len(tape) + 80.  The walk hands its
    place back to the reader by position before anything else reads,
    writes or looks, and when a diagnostic raised here leaves it; ilc goes
    back to the store however the walk ends.

    A token that reads past the end of the tape, or a string or comment
    whose closing quote the tape does not hold, raises IndexError.  The
    next card is then read in, the tape cut to the token's words and that
    card, and the token taken again from its first word, with ilc reset to
    where it began; reset only after the read, so that the cards running
    out leave ilc where the token had got to.  Taking a token again is
    taking it once because every branch reads all its words before it
    changes anything but ilc and the store cells from its own first cell
    on: the operation branch writes its operator cell and its class's
    inline cells as it reads, and takes a constant's pool slot and joins a
    test's false link to the frame only after its last word.  The
    level-zero ) seals the program before it reads the name, so short of
    three name characters on the tape it puts its frame back, the chains
    it has filled zeroed, and is taken again, writing the same cells with
    the same values.  Only the blanks after a bound program's name are
    skipped on cards that the walk turns itself.
    The tape may be the reader's card, so the walk never writes to it.
    Only the tape can run out: a branch indexes besides it only the store,
    which has 8 cells of headroom past the ilc > 495 check, frames, which
    is never empty inside a program, and the table, whose 129 rows cover
    every class code."""
    st = sess.store
    cells = st.cells
    fill_chain = st.fill_chain
    table = sess.compile_code  # only the monitor replaces it
    reader = sess.reader
    card = tape = reader.view
    i = start = reader.cursor
    # open the program: its entry cell, and the level-zero frame of
    # [loop target, false chain, true chain]
    ilc = st.ilc0 = st.ilc
    cells[ilc] = 0
    ilc += 1
    frames = [[ilc, 0, 0]]
    try:
        while True:
            if ilc > 495:
                raise Diagnostic(STORE_OVERFLOW)
            token, token_ilc = i, ilc
            try:
                w = tape[i]
                i += 1
                # the class code of a word, as charset.class_code computes it
                code = (((w - 64) >> 8) & 63) + 1
                cls = table[code]
                while cls == QUOTE_PREFIX:
                    w = tape[i]
                    i += 1
                    code = (((w - 64) >> 8) & 63) + 65
                    cls = table[code]
                # the classes are told apart by range, as tables orders them:
                # the operations (OPERATOR to CONSTANT, and STRING) first, for
                # they are the commonest, then the separators, ) and (; the
                # blank, IGNORE, falls through them all
                if cls > REPEAT:
                    if cls < COMMENT or cls == STRING:
                        # an operation: its operator cell, then the cells its
                        # compile class lays out after it
                        cells[ilc] = -code
                        ilc += 1
                        if cls == OPERATOR:
                            continue  # the commonest class lays out no cells
                        if cls != PREDICATE:  # whose only cell is its false link
                            if cls == OPERATOR_NUM:
                                # the variable's slot; the glyph 0 selects ten
                                digit = DIGIT_BY_WORD.get(tape[i])
                                i += 1
                                if digit is None:
                                    raise Diagnostic(BAD_ARGUMENT)
                                cells[ilc] = digit or 10
                                ilc += 1
                            elif cls == CONSTANT:
                                # '/number: its slot in the pool, which takes
                                # the value
                                value, i = numio.scan_constant(tape, i)
                                if value is None:
                                    raise Diagnostic(BAD_NUMBER)
                                sess.constants_used += 1
                                cells[ilc] = sess.constants_used
                                ilc += 1
                                if sess.constants_used > len(sess.constants) - 1:
                                    raise Diagnostic(CONSTANT_EXCESS)
                                sess.constants[sess.constants_used] = value
                            elif cls == COUNTER:
                                # $n$: the count to reload, then the live
                                # count, both -n
                                n, i = numio.scan_number(tape, i, True)
                                i += 1
                                if n <= 0:
                                    raise Diagnostic(BAD_COUNTER)
                                cells[ilc] = cells[ilc + 1] = -n
                                ilc += 2
                            elif cls == CHAR_PRED:
                                cells[ilc] = tape[i]  # the raw character
                                i += 1
                                ilc += 1
                            else:
                                # STRING: the length of "text', then its
                                # characters verbatim; the store overflows once
                                # the text reaches cell 497, or at once when
                                # the text starts there
                                count_cell = ilc
                                ilc += 1
                                limit = i + max(497 - ilc, 1)
                                try:
                                    stop = tape.index(QUOTE, i, limit)
                                except ValueError:
                                    stop = min(limit, len(tape))
                                cells[ilc:ilc + stop - i] = tape[i:stop]
                                ilc += stop - i
                                i = stop
                                if stop == limit:
                                    raise Diagnostic(STORE_OVERFLOW)
                                if stop == len(tape):
                                    raise IndexError  # no closing quote yet
                                i += 1
                                cells[count_cell] = ilc - count_cell - 1
                        if cls >= PREDICATE and cls <= COUNTER:
                            # a test: its layout ends in a false link, which
                            # joins the frame's false chain
                            frame = frames[-1]
                            cells[ilc] = frame[1]
                            frame[1] = ilc
                            ilc += 1
                    elif cls == COMMENT:
                        try:
                            i = tape.index(QUOTE, i) + 1
                        except ValueError:
                            raise IndexError from None  # no closing quote yet
                    else:  # RESERVED
                        raise Diagnostic(RESERVED_OP)
                elif cls >= SEQUENT:
                    # , or . ends an alternative, and the frame's false chain
                    # lands after its cell
                    frame = frames[-1]
                    if cls == SEQUENT:
                        # thread a jump into the frame's true chain
                        cells[ilc] = frame[2]
                        frame[2] = ilc
                    else:
                        cells[ilc] = frame[0]  # jump back to the frame's start
                    ilc += 1
                    if frame[1]:
                        fill_chain(frame[1], ilc)
                        frame[1] = 0
                elif cls == CLOSE:
                    frame = frames.pop()
                    if frames:
                        # thread this exit into the enclosing frame's false chain
                        outer = frames[-1]
                        cells[ilc] = outer[1]
                        outer[1] = ilc
                    else:
                        cells[ilc] = 0  # the program's false exit
                    ilc += 1
                    if frame[1]:
                        fill_chain(frame[1], ilc)
                    if frame[2]:
                        fill_chain(frame[2], ilc)
                    if frames:
                        continue
                    # level zero: seal the program and take the three name
                    # characters.  Short of them, the frame goes back with
                    # its chains, already filled, cut, and the ) is taken
                    # again on the next card
                    cells[ilc] = st.ilc0
                    name = tape[i:i + 3]
                    if len(name) < 3:
                        frames.append([frame[0], 0, 0])
                        raise IndexError
                    i += 3
                    reader.hand_back(start, i - len(tape) + 80, echo)
                    sess.writer.flush()
                    if name[2] == LETTER_L or sess.config.listing_always:
                        for line in st.dump_listing(st.ilc0, ilc):
                            sess.writer.emit_text(line)
                    ilc += 1
                    if name[0] == BLANK:  # run it now
                        sess.constants_used = sess.constants_committed
                        return
                    name1 = charset.class_code(name[0])
                    if table[name1] == QUOTE_PREFIX:
                        name1 = tables.quote_extend(charset.class_code(name[1]))
                    table[name1] = PREDICATE
                    if sess.exec_code[name1] is DECLARED_RECURSIVE:
                        cells[st.ilc0] = RECURSIVE_MARK
                    sess.exec_code[name1] = Subroutine(st.ilc0)
                    sess.constants_committed = sess.constants_used
                    st.ilc0 = ilc
                    cells[ilc] = 0
                    ilc += 1
                    frames = [[ilc, 0, 0]]
                    # a further program must follow on this or a later card,
                    # after blanks that are not echoed.  A card of them is
                    # handed back from its last column, which latches what
                    # reading it would: a blank, or the name's last character
                    i = reader.cursor
                    while i == 80 or card[i] == BLANK:
                        i += 1
                        if i >= 80:
                            card = reader.next_card(79)
                            i = 0
                    # the ( is echoed with the segment it starts
                    tape, start = card, i
                    i += 1
                    if card[start] != LPAREN:
                        echo = None  # read, not echoed, as the walk is left
                        raise Diagnostic(BAD_LEVEL_ZERO)
                elif cls == OPEN:
                    if len(frames) >= 10:
                        raise Diagnostic(EXCESS_NESTING)
                    frames.append([ilc, 0, 0])
            except IndexError:
                # the tape ran out: read the next card in, keep the token's
                # words, and take it again.  The cards running out here end
                # the session inside a program
                try:
                    card = reader.next_card(start, echo)
                except EndOfInput:
                    reader.diagnostics.append("end of input inside a program")
                    sess.errors_emitted = True
                    raise
                tape = tape[token:] + card if token < len(tape) else card
                i, ilc, start = 0, token_ilc, 0
    except Diagnostic:
        reader.hand_back(start, i - len(tape) + 80, echo)
        raise
    finally:
        st.ilc = ilc
