"""The compiler and the monitor as they stood before each walked the card
with a local index, kept as a reference that tests/test_properties.py runs
generated decks against.

It is a verbatim copy of that compiler's _compile and of every helper it
calls: a read and a put for each character, one helper call for each atom,
counter, constant and string.  The monitor and its _begin_program are
copied too: a read and a put for each character that steers it.  So are
the reader, writer and session methods that went when a card walk
replaced their last caller: the card reader's through_quote, force_refill,
rest and nonblank, here with an echo argument for the blanks it skips,
the line writer's clear and the session's read_echo.  So is numio's
parse_number as it read a bare number, with an echo argument that only
the compiler copied here passed, the card reader's card, which went when
the reader came to hold one current card, and the program store's emit,
which went when the monitor stopped opening programs.  The nonblank and
parse_number here also frame the I datum of the frozen
tests/reference_interpreter.py.  Only the imports changed, and what follows the
writer's line becoming a string and the reader holding one current card:
the echo that the reader's hand-backs in parse_number take is the
writer's put_text, for the reader echoes a card's text; clear empties the
string; the I command sets the input unit through the reader's select;
card returns the reader's view; and parse_number hands back positions on
the view, not the card itself.  These functions take the reader, the
writer, the session or the store as their first argument instead of
being methods; scan_number, the tables and the store come from reca.

Two changes follow from facts that came to be held once.  This monitor
and compiler put every character they read and leave it to the line
writer's echo flag to drop them while the listing is off; the writer no
longer does, so gated_put_text keeps its put_text as it stood with that
gate, and the tests patch it onto LineWriter.put_text while these run.
And a defined program's binding is Subroutine(st.ilc0), its entry alone,
for the linkage kind is read from the mark this compiler writes in the
entry cell.

Two more follow from the listing switch becoming the round's value, which
the monitor returns and the cycle passes to the compiler, and from the
compiler's wrapper going.  This monitor sets the line writer's echo flag
from the configuration at the start of a round, as the cycle used to, for
gated_put_text reads it.  And compile_program is a copy of the wrapper
that noted the cards running out inside a program: it takes the round's
echo and ignores it, for this compiler puts every character it reads.
"""

from reca import charset, tables
from reca.charset import BLANK, QUOTE
from reca.compiler import (
    _COMMANDS, _ERASE, _INPUT, _OUTPUT, _RECURSIVE, _SUPPRESS, _TERMINATE,
    Terminated,
)
from reca.iosys import (
    BAD_ARGUMENT, BAD_COUNTER, BAD_LEVEL_ZERO, BAD_NUMBER, BAD_UNIT,
    CONSTANT_EXCESS, EXCESS_NESTING, RESERVED_OP, STORE_OVERFLOW, Diagnostic,
    EndOfInput,
)
from reca.numio import scan_number
from reca.store import RECURSIVE_MARK
from reca.tables import (
    CHAR_PRED, CLOSE, COMMENT, CONSTANT, COUNTER, DECLARED_RECURSIVE, IGNORE,
    OPEN, OPERATOR, OPERATOR_NUM, PREDICATE, QUOTE_PREFIX, REPEAT, SEQUENT,
    STRING, Subroutine,
)


def monitor(sess):
    """Scan cards until compilation starts; returns when ( is consumed."""
    reader = sess.reader
    writer = sess.writer
    writer.echo = sess.config.echo
    while True:
        force_refill(reader)
        w = read_echo(sess)
        if w == charset.LETTER_C:
            writer.put_words(rest(reader))
            writer.flush()
            continue
        if w == charset.STAR:
            break
        # not a control card: drop the partial echo and try the next card
        clear(writer)
    while True:
        w = nonblank(reader, writer.put_words)
        if w == charset.LPAREN:
            _begin_program(sess)
            return
        writer.put(w)
        if w not in _COMMANDS:
            continue
        arg = reader.read()
        if arg == charset.LPAREN:
            _begin_program(sess)
            return
        writer.put(arg)
        code = charset.class_code(arg)
        if w == _INPUT:
            if code in (51, 55):  # glyphs 2 and 6
                reader.select(code - 49)
            else:
                sess.diagnose(BAD_UNIT)
        elif w == _OUTPUT:
            if 50 <= code <= 52:  # glyphs 1..3
                writer.select(code - 49)
            else:
                sess.diagnose(BAD_UNIT)
        elif w == _TERMINATE:
            raise Terminated
        elif w == _ERASE:
            sess.store.ilc = 1
            sess.compile_code = tables.compile_table()
            sess.exec_code = tables.exec_table()
            sess.constants_used = 0
            sess.constants_committed = 0
        elif w == _RECURSIVE:
            if sess.compile_code[code] == QUOTE_PREFIX:
                code = tables.quote_extend(charset.class_code(read_echo(sess)))
            sess.compile_code[code] = PREDICATE
            sess.exec_code[code] = DECLARED_RECURSIVE
        elif w == _SUPPRESS:
            writer.echo = False


def _begin_program(sess):
    """Left parenthesis at level zero: open the program frame."""
    sess.writer.put(charset.LPAREN)
    sess.writer.flush()
    st = sess.store
    st.ilc0 = st.ilc
    emit(st, 0)
    sess.frames = [[st.ilc, 0, 0]]  # [loop target, false chain, true chain]


def compile_program(sess, echo):
    """Compile until a program completes that should run now.

    Named programs met on the way are bound and compilation goes on with
    the next one.  A catalog diagnostic raises Diagnostic.  The cards
    running out inside a program note it among the reader's diagnostics,
    mark the session as failed and raise Terminated.
    """
    try:
        _compile(sess)
    except EndOfInput:
        sess.reader.diagnostics.append("end of input inside a program")
        sess.errors_emitted = True
        raise Terminated from None


def _compile(sess):
    st = sess.store
    table = sess.compile_code  # only the monitor replaces it
    read = sess.reader.read
    put = sess.writer.put
    while True:
        if st.ilc > 495:
            raise Diagnostic(STORE_OVERFLOW)
        w = read()
        put(w)
        # the class code of a word, as charset.class_code computes it
        code = (((w - 64) >> 8) & 63) + 1
        cls = table[code]
        while cls == QUOTE_PREFIX:
            w = read()
            put(w)
            code = (((w - 64) >> 8) & 63) + 65
            cls = table[code]
        if cls == IGNORE:
            continue
        if cls == OPEN:
            if len(sess.frames) >= 10:
                raise Diagnostic(EXCESS_NESTING)
            sess.frames.append([st.ilc, 0, 0])
        elif cls == CLOSE:
            if _close_paren(sess):
                return
        elif cls == SEQUENT:
            frame = sess.frames[-1]
            frame[2] = emit(st, frame[2])
            st.fill_chain(frame[1], st.ilc)
            frame[1] = 0
        elif cls == REPEAT:
            frame = sess.frames[-1]
            emit(st, frame[0])
            st.fill_chain(frame[1], st.ilc)
            frame[1] = 0
        elif cls == OPERATOR:
            emit(st, -code)
        elif cls == PREDICATE:
            _emit_atom(sess, code, n_args=0, numeric=False, link=True)
        elif cls == OPERATOR_NUM:
            _emit_atom(sess, code, n_args=1, numeric=True, link=False)
        elif cls == CHAR_PRED:
            _emit_atom(sess, code, n_args=1, numeric=False, link=True)
        elif cls == COUNTER:
            _compile_counter(sess, code)
        elif cls == CONSTANT:
            _compile_constant(sess, code)
        elif cls == COMMENT:
            while _read_to_quote(sess)[-1] != charset.QUOTE:
                pass
        elif cls == STRING:
            _compile_string(sess, code)
        else:  # RESERVED
            raise Diagnostic(RESERVED_OP)


def _close_paren(sess):
    """Close a level; True when it completed a program to run now."""
    st = sess.store
    frames = sess.frames
    frame = frames.pop()
    if frames:
        # thread this exit into the enclosing frame's false chain
        frames[-1][1] = emit(st, frames[-1][1])
    else:
        emit(st, 0)  # the program's false exit
    st.fill_chain(frame[1], st.ilc)
    st.fill_chain(frame[2], st.ilc)
    if frames:
        return False
    # level zero: seal the program and read the three name characters
    st.cells[st.ilc] = st.ilc0
    name1 = charset.class_code(read_echo(sess))
    name2 = tables.quote_extend(charset.class_code(read_echo(sess)))
    name3 = read_echo(sess)
    sess.writer.flush()
    if name3 == charset.LETTER_L or sess.config.listing_always:
        for line in st.dump_listing(st.ilc0, st.ilc):
            sess.writer.emit_text(line)
    st.ilc += 1
    if name1 == 1:  # blank name: run it now
        sess.constants_used = sess.constants_committed
        sess.writer.echo = True
        return True
    if sess.compile_code[name1] == QUOTE_PREFIX:
        name1 = name2
    sess.compile_code[name1] = PREDICATE
    recursive = sess.exec_code[name1] is DECLARED_RECURSIVE
    sess.exec_code[name1] = Subroutine(st.ilc0)
    if recursive:
        st.cells[st.ilc0] = RECURSIVE_MARK
    sess.constants_committed = sess.constants_used
    st.ilc0 = st.ilc
    emit(st, 0)
    sess.frames = [[st.ilc, 0, 0]]
    # a further program must follow on this or a later card
    try:
        w = nonblank(sess.reader)
    except EndOfInput:
        raise Terminated from None
    if w != charset.LPAREN:
        raise Diagnostic(BAD_LEVEL_ZERO)
    sess.writer.put(w)
    return False


def _emit_atom(sess, code, n_args, numeric, link):
    """Emit an operator cell, its argument cells, and an optional link."""
    st = sess.store
    emit(st, -code)
    for _ in range(n_args):
        w = read_echo(sess)
        if numeric:
            c = charset.class_code(w)
            if not 49 <= c <= 58:
                raise Diagnostic(BAD_ARGUMENT)
            if c == 49:
                c += 10  # the glyph 0 selects slot ten
            emit(st, c - 49)
        else:
            emit(st, w)
    if link:
        frame = sess.frames[-1]
        frame[1] = emit(st, frame[1])


def _compile_counter(sess, code):
    """$n$ becomes [op, -n, -n, link]; the middle cell is the live count."""
    st = sess.store
    emit(st, -code)
    n = parse_number(sess.reader, integer=True, echo=sess.writer.put_text)
    if n <= 0:
        raise Diagnostic(BAD_COUNTER)
    emit(st, -n)
    emit(st, -n)
    frame = sess.frames[-1]
    frame[1] = emit(st, frame[1])


def _compile_constant(sess, code):
    """'/number' becomes [op, pool slot]; the value goes to the pool."""
    st = sess.store
    emit(st, -code)
    value = parse_number(sess.reader, echo=sess.writer.put_text)
    reader = sess.reader
    if reader.iac == charset.BLANK:
        sess.writer.put(nonblank(reader, sess.writer.put_words))
    if reader.iac != charset.QUOTE:
        raise Diagnostic(BAD_NUMBER)
    sess.constants_used += 1
    emit(st, sess.constants_used)
    if sess.constants_used > len(sess.constants) - 1:
        raise Diagnostic(CONSTANT_EXCESS)
    sess.constants[sess.constants_used] = value


def _compile_string(sess, code):
    """"text' becomes [op, length, the characters verbatim]."""
    st = sess.store
    emit(st, -code)
    count_cell = st.ilc
    st.ilc += 1
    # the store overflows once the text reaches cell 497, or at once
    # when the text starts there
    end = max(497, st.ilc + 1)
    while True:
        run = _read_to_quote(sess, end - st.ilc)
        closed = run[-1] == charset.QUOTE
        if closed:
            run = run[:-1]
        st.cells[st.ilc:st.ilc + len(run)] = run
        st.ilc += len(run)
        if closed:
            st.cells[count_cell] = st.ilc - count_cell - 1
            return
        if st.ilc >= end:
            raise Diagnostic(STORE_OVERFLOW)


def _read_to_quote(sess, limit=80):
    """Read and echo the current card up to and including the next quote,
    or to the end of the card; at most limit characters."""
    run = through_quote(sess.reader, limit)
    sess.writer.put_words(run)
    return run


def through_quote(reader, limit=80):
    """The words up to and including the next quote, or up to the end
    of the card if no quote follows; at most limit words."""
    record = card(reader)
    start = reader.cursor
    stop = min(start + limit, 80)
    try:
        stop = record.index(QUOTE, start, stop) + 1
    except ValueError:
        pass
    reader.cursor = stop
    reader.iac = record[stop - 1]
    return record[start:stop]


def read_echo(sess):
    """Read one character and list it: put it on the output line."""
    w = sess.reader.read()
    sess.writer.put(w)
    return w


def nonblank(reader, echo=None):
    """Read past blanks, across cards, passing each run of them to
    echo if given; returns the first other character, read."""
    while True:
        if reader.cursor >= 80:
            reader._refill()
        record = reader.record  # blanks read the same on every unit
        start = stop = reader.cursor
        while stop < 80 and record[stop] == BLANK:
            stop += 1
        if stop > start:
            reader.cursor = stop
            reader.iac = BLANK
            if echo:
                echo(record[start:stop])
        if stop < 80:
            return reader.read()


def force_refill(reader):
    """Discard the rest of the current card; next read starts fresh."""
    reader.cursor = 80


def rest(reader):
    """The rest of the current card."""
    run = card(reader)[reader.cursor:]
    reader.cursor = 80
    reader.iac = run[-1]
    return run


def card(reader):
    """The current card as the input unit reads it, refilled first if
    it is used up; cursor indexes the next word to read from it."""
    if reader.cursor >= 80:
        reader._refill()
    return reader.view


def emit(st, value):
    """Store value at the next free cell and return its address."""
    addr = st.ilc
    st.cells[addr] = value
    st.ilc += 1
    return addr


def clear(writer):
    """Drop buffered characters without writing them."""
    writer.buffer = ""


def gated_put_text(writer, text):
    """Append characters, releasing the line exactly where appending
    them one at a time would: whenever it reaches the unit width."""
    if not writer.echo:
        return
    line = writer.buffer + text
    if len(line) >= writer.width:
        # an overfull line (the unit narrowed) takes one more character
        stop = max(writer.width, len(writer.buffer) + 1)
        while len(line) >= stop:
            writer.buffer, line = line[:stop], line[stop:]
            writer._emit()
            stop = writer.width
    writer.buffer = line


def parse_number(reader, integer=False, echo=None):
    """Read one number off reader's cards; return its value.

    integer parses an integer, otherwise a float.  The first character
    after the token is read too; it ends the token, is not part of it,
    and is latched in reader.iac.  The reader is left where reading the
    token a character at a time would leave it.  echo, if given, is
    called with the words read, the leading blanks and the terminator
    included: once, or once a card when the token runs onto later cards.

    Accepted float shape: blanks, optional sign (- + &), digits with at
    most one point, optional exponent E[sign]digits.  Anything else ends
    the token; an empty token is zero.
    """
    # tape is the cards read so far laid end to end, the token starts at
    # tape[begin], and the last card's [start:] is what it has not echoed
    tape = card(reader)
    begin = start = reader.cursor
    while True:
        try:
            value, stop = scan_number(tape, begin, integer)
            break
        except IndexError:
            # the token or the blanks before it run off the end of tape:
            # turn the card and scan again
            tape = tape + reader.next_card(start, echo)
            start = 0
    # hand back through the terminator, tape[stop], which is on the last
    # card at stop - len(tape) + 80
    reader.hand_back(start, stop - len(tape) + 81, echo)
    return value
