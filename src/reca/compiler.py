"""Monitor and one-pass compiler.

The monitor scans cards for a control line: a leading C echoes the card
as commentary, a leading * introduces command letters (I O T E N S), and
any card is abandoned the moment a left parenthesis appears, which starts
compilation.

The compiler translates the parenthesized expression directly into
threaded code in the program store, resolving forward branches through
backpatch chains.  A program ends at the level-zero right parenthesis,
followed by three name characters: a blank first character executes the
program immediately, otherwise the name is bound as a subroutine; an L in
the third position prints the object-code listing.

Characters that steer the monitor or the compiler are read and echoed
one at a time.  What nothing examines one by one is read as a run of the
card and echoed in one call: the rest of a comment card, blanks between
command letters and after a program's name, and the bodies of '* comments
and " strings.

A catalog diagnostic raises iosys.Diagnostic, which abandons the program
being compiled; the session reports it.  An illegal unit number is the
one diagnostic that does not abort: the monitor prints it and reads on.
"""

from . import charset, numio, tables
from .iosys import (
    BAD_ARGUMENT, BAD_COUNTER, BAD_LEVEL_ZERO, BAD_NUMBER, BAD_UNIT,
    CONSTANT_EXCESS, EXCESS_NESTING, RESERVED_OP, STORE_OVERFLOW, Diagnostic,
    EndOfInput,
)
from .store import RECURSIVE_MARK
from .tables import (
    CHAR_PRED, CLOSE, COMMENT, CONSTANT, COUNTER, DECLARED_RECURSIVE, IGNORE,
    OPEN, OPERATOR, OPERATOR_NUM, PREDICATE, QUOTE_PREFIX, REPEAT, SEQUENT,
    STRING, Subroutine,
)


# monitor command letters, as storage words
_INPUT, _OUTPUT, _TERMINATE, _ERASE, _RECURSIVE, _SUPPRESS = _COMMANDS = tuple(
    charset.WORD_BY_CHAR[c] for c in "IOTENS"
)


class Terminated(Exception):
    """The session is over: the monitor saw the terminate command, or the
    cards ran out after a named program, where another may begin."""


class UnfinishedProgram(Exception):
    """The cards ran out inside a program, before its name was read."""


def monitor(sess):
    """Scan cards until compilation starts; returns when ( is consumed."""
    while True:
        sess.reader.force_refill()
        w = sess.read_echo()
        if w == charset.LETTER_C:
            sess.read_rest()
            sess.flush()
            continue
        if w == charset.STAR:
            break
        # not a control card: drop the partial echo and try the next card
        sess.writer.clear()
    while True:
        w = sess.read_nonblank(echo=True)
        if w == charset.LPAREN:
            _begin_program(sess)
            return
        sess.put_char(w)
        if w not in _COMMANDS:
            continue
        arg = sess.read_char()
        if arg == charset.LPAREN:
            _begin_program(sess)
            return
        sess.put_char(arg)
        code = charset.class_code(arg)
        if w == _INPUT:
            if code in (51, 55):  # glyphs 2 and 6
                sess.input_unit = code - 49
            else:
                sess.diagnose(BAD_UNIT)
        elif w == _OUTPUT:
            if 50 <= code <= 52:  # glyphs 1..3
                sess.output_unit = code - 49
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
                w2 = sess.read_char()
                sess.put_char(w2)
                code = tables.quote_extend(charset.class_code(w2))
            sess.compile_code[code] = PREDICATE
            sess.exec_code[code] = DECLARED_RECURSIVE
        elif w == _SUPPRESS:
            sess.writer.echo = False


def _begin_program(sess):
    """Left parenthesis at level zero: open the program frame."""
    sess.put_char(charset.LPAREN)
    sess.flush()
    st = sess.store
    st.ilc0 = st.ilc
    st.emit(0)
    sess.frames = [[st.ilc, 0, 0]]  # [loop target, false chain, true chain]


def compile_program(sess):
    """Compile until a program completes that should run now.

    Named programs met on the way are bound and compilation goes on with
    the next one.  A catalog diagnostic raises Diagnostic; the cards
    running out inside a program raise UnfinishedProgram.
    """
    try:
        _compile(sess)
    except EndOfInput:
        raise UnfinishedProgram from None


def _compile(sess):
    st = sess.store
    table = sess.compile_code  # only the monitor replaces it
    read_echo = sess.read_echo
    while True:
        if st.ilc > 495:
            raise Diagnostic(STORE_OVERFLOW)
        # the class code of a word, as charset.class_code computes it
        code = (((read_echo() - 64) >> 8) & 63) + 1
        cls = table[code]
        while cls == QUOTE_PREFIX:
            code = (((read_echo() - 64) >> 8) & 63) + 65
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
            frame[2] = st.emit(frame[2])
            st.fill_chain(frame[1], st.ilc)
            frame[1] = 0
        elif cls == REPEAT:
            frame = sess.frames[-1]
            st.emit(frame[0])
            st.fill_chain(frame[1], st.ilc)
            frame[1] = 0
        elif cls == OPERATOR:
            st.emit(-code)
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
            while sess.read_to_quote()[-1] != charset.QUOTE:
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
        frames[-1][1] = st.emit(frames[-1][1])
    else:
        st.emit(0)  # the program's false exit
    st.fill_chain(frame[1], st.ilc)
    st.fill_chain(frame[2], st.ilc)
    if frames:
        return False
    # level zero: seal the program and read the three name characters
    st.cells[st.ilc] = st.ilc0
    name1 = charset.class_code(sess.read_echo())
    name2 = tables.quote_extend(charset.class_code(sess.read_echo()))
    name3 = sess.read_echo()
    sess.flush()
    if name3 == charset.LETTER_L or sess.config.listing_always:
        for line in st.dump_listing(st.ilc0, st.ilc):
            sess.emit_line(line)
    st.ilc += 1
    if name1 == 1:  # blank name: run it now
        sess.constants_used = sess.constants_committed
        sess.writer.echo = True
        return True
    if sess.compile_code[name1] == QUOTE_PREFIX:
        name1 = name2
    sess.compile_code[name1] = PREDICATE
    recursive = sess.exec_code[name1] is DECLARED_RECURSIVE
    sess.exec_code[name1] = Subroutine(st.ilc0, recursive)
    if recursive:
        st.cells[st.ilc0] = RECURSIVE_MARK
    sess.constants_committed = sess.constants_used
    st.ilc0 = st.ilc
    st.emit(0)
    sess.frames = [[st.ilc, 0, 0]]
    # a further program must follow on this or a later card
    try:
        w = sess.read_nonblank(echo=False)
    except EndOfInput:
        raise Terminated from None
    if w != charset.LPAREN:
        raise Diagnostic(BAD_LEVEL_ZERO)
    sess.put_char(w)
    return False


def _emit_atom(sess, code, n_args, numeric, link):
    """Emit an operator cell, its argument cells, and an optional link."""
    st = sess.store
    st.emit(-code)
    for _ in range(n_args):
        w = sess.read_echo()
        if numeric:
            c = charset.class_code(w)
            if not 49 <= c <= 58:
                raise Diagnostic(BAD_ARGUMENT)
            if c == 49:
                c += 10  # the glyph 0 selects slot ten
            st.emit(c - 49)
        else:
            st.emit(w)
    if link:
        frame = sess.frames[-1]
        frame[1] = st.emit(frame[1])


def _compile_counter(sess, code):
    """$n$ becomes [op, -n, -n, link]; the middle cell is the live count."""
    st = sess.store
    st.emit(-code)
    n = numio.parse_number(sess, numio.ECHO_INT)
    if n <= 0:
        raise Diagnostic(BAD_COUNTER)
    st.emit(-n)
    st.emit(-n)
    frame = sess.frames[-1]
    frame[1] = st.emit(frame[1])


def _compile_constant(sess, code):
    """'/number' becomes [op, pool slot]; the value goes to the pool."""
    st = sess.store
    st.emit(-code)
    value = numio.parse_number(sess, numio.ECHO_FLOAT)
    if sess.iac == charset.BLANK:
        sess.put_char(sess.read_nonblank(echo=True))
    if sess.iac != charset.QUOTE:
        raise Diagnostic(BAD_NUMBER)
    sess.constants_used += 1
    st.emit(sess.constants_used)
    if sess.constants_used > len(sess.constants) - 1:
        raise Diagnostic(CONSTANT_EXCESS)
    sess.constants[sess.constants_used] = value


def _compile_string(sess, code):
    """"text' becomes [op, length, the characters verbatim]."""
    st = sess.store
    st.emit(-code)
    count_cell = st.ilc
    st.ilc += 1
    # the store overflows once the text reaches cell 497, or at once
    # when the text starts there
    end = max(497, st.ilc + 1)
    while True:
        run = sess.read_to_quote(end - st.ilc)
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
