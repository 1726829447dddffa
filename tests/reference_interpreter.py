"""The execute loop as it stood before the loop-body rewrite, kept as a
reference that tests/test_properties.py runs generated decks against.

It is a verbatim copy of that loop: one struct round per float32 result, the
cancel flag read on every operation, and the entry-cell test at the loop
head.  Only the imports changed, so that it runs from the tests, and a
subroutine's false return became a step with a cancel check, as in the
live loop, for without one a subroutine that has called itself can
return false into its own body without end; the limits and constants
come from reca.interpreter, so that only the loop body is frozen.

_read_datum, the framing of an I datum, is frozen too: a blank skip, a
read for the quote and one for the slash around the number parser, and
a blank skip before the closing quote.  It runs on the frozen nonblank
and parse_number that tests/reference_compiler.py keeps, not on the live
reader or numio, so that it stays what it was when numio.parse_number
came to read the whole datum in one scan; the framing property of
tests/test_interpreter.py runs that scan against it.
"""

import math
import struct

from reca import charset, numio
from reca.interpreter import (
    _INF, NEAR_ZERO, RECURSION_LIMIT, STACK_LIMIT, _Interrupted,
)
from reca.iosys import (
    ARITHMETIC_FAULT, BAD_DATUM, DEEP_RECURSION, INTERRUPT_NOTICE, STACK_EMPTY,
    STACK_OVERFLOW, UNDEFINED_CALL, UNDEFINED_RECURSIVE, Diagnostic, EndOfInput,
)
from reca.store import RECURSIVE_MARK
from reca.tables import DECLARED_RECURSIVE
from reference_compiler import nonblank, parse_number

_pack = struct.pack
_unpack = struct.unpack


def _read_datum(reader):
    """Runtime numeric input: blanks, then '/number' ; raises Diagnostic
    on a bad shape."""
    w = nonblank(reader)
    if w != charset.QUOTE or reader.read() != charset.SLASH:
        raise Diagnostic(BAD_DATUM)
    value = parse_number(reader)
    if reader.iac == charset.BLANK:
        nonblank(reader)
    if reader.iac != charset.QUOTE:
        raise Diagnostic(BAD_DATUM)
    return value


def execute(sess):
    """Run the most recently compiled program; a catalog diagnostic
    raises Diagnostic."""
    st = sess.store
    prog = st.cells
    xeq = sess.exec_code
    pdl = sess.stack
    save = sess.variables
    const = sess.constants
    reader = sess.reader
    writer = sess.writer
    ilc0 = st.ilc0
    im = 1
    iret = [0] * (RECURSION_LIMIT + 2)
    irec = 1
    ixl = ilc0 + 1
    steps = 0
    budget = _INF if sess.config.max_steps is None else sess.config.max_steps
    pack = _pack
    unpack = _unpack
    cos, sin, exp, sqrt, log, atan, tanh, pow_ = (
        math.cos, math.sin, math.exp, math.sqrt, math.log, math.atan, math.tanh,
        math.pow,
    )
    try:
        while True:
            if ixl == ilc0:
                break
            cell = prog[ixl]
            if cell < 0:
                ix = -cell
                ixl += 1
                steps += 1
                if sess.cancelled or steps > budget:
                    raise _Interrupted
                b = xeq[ix]
                if type(b) is int:
                    if b == 0:
                        raise Diagnostic(UNDEFINED_CALL)
                    if b <= 13:  # unary and tests
                        if im <= 1:
                            raise Diagnostic(STACK_EMPTY)
                        a = pdl[im - 1]
                        if b == 6:  # branch unless negative
                            if a < 0:
                                ixl += 1
                        elif b == 9:  # store to variable, value kept
                            save[prog[ixl]] = a
                            ixl += 1
                        elif b == 7:
                            numio.format_scientific(writer, a)
                        elif b == 13:  # branch unless near zero
                            if (a if a >= 0 else -a) <= NEAR_ZERO:
                                ixl += 1
                        elif b == 5:
                            pdl[im - 1] = -a
                        elif b == 1:
                            pdl[im - 1] = a if a >= 0 else -a
                        elif b == 12:
                            pdl[im - 1] = unpack("f", pack("f", sin(a)))[0]
                        elif b == 2:
                            pdl[im - 1] = unpack("f", pack("f", cos(a)))[0]
                        elif b == 3:
                            a = unpack("f", pack("f", exp(a)))[0]
                            if a == _INF:
                                raise OverflowError("float32 range exceeded")
                            pdl[im - 1] = a
                        elif b == 8:
                            pdl[im - 1] = unpack("f", pack("f", sqrt(a)))[0]
                        elif b == 11:
                            pdl[im - 1] = unpack("f", pack("f", log(a)))[0]
                        elif b == 10:
                            pdl[im - 1] = unpack("f", pack("f", atan(a)))[0]
                        else:  # 4
                            pdl[im - 1] = unpack("f", pack("f", tanh(a)))[0]
                    elif b <= 19:  # binary
                        if im <= 2:
                            raise Diagnostic(STACK_EMPTY)
                        im -= 1
                        y = pdl[im]
                        if b == 18:  # branch unless top two nearly equal
                            im += 1
                            d = pdl[im - 1] - pdl[im - 2]
                            if (d if d >= 0 else -d) <= NEAR_ZERO:
                                ixl += 1
                        else:
                            x = pdl[im - 1]
                            if b == 17:
                                r = x * y
                            elif b == 15:
                                r = x + y
                            elif b == 16:
                                r = x - y
                            elif b == 19:
                                r = x / y
                            else:  # 14: power, ValueError on a bad domain
                                r = pow_(x, y)
                            r = unpack("f", pack("f", r))[0]
                            # packing saturates silently, so range-check here
                            if not -3.5e38 < r < 3.5e38:
                                raise OverflowError("float32 range exceeded")
                            pdl[im - 1] = r
                    elif b <= 23:  # operations that push
                        if im > STACK_LIMIT:
                            raise Diagnostic(STACK_OVERFLOW)
                        im += 1
                        if b == 21:  # variable fetch
                            pdl[im - 1] = save[prog[ixl]]
                            ixl += 1
                        elif b == 20:  # constant fetch
                            pdl[im - 1] = const[prog[ixl]]
                            ixl += 1
                        elif b == 23:  # duplicate the value below
                            if im <= 2:
                                raise Diagnostic(STACK_EMPTY)
                            pdl[im - 1] = pdl[im - 2]
                        else:  # 22: numeric input
                            pdl[im - 1] = _read_datum(reader)
                    elif b == 29:  # counter
                        ixl += 1
                        k = prog[ixl]
                        if k < 0:
                            prog[ixl] = k + 1
                            ixl += 2  # still counting: skip the false link
                        else:
                            prog[ixl] = prog[ixl - 1]  # reload and fall false
                            ixl += 1
                    elif b == 26:  # emit stored string
                        n = prog[ixl]
                        if n > 0:
                            reader.iac = prog[ixl + n]
                            writer.put_words(prog[ixl + 1:ixl + n + 1])
                            ixl += n
                        ixl += 1
                    elif b == 27:  # branch if last character matches
                        if reader.iac == prog[ixl]:
                            ixl += 2
                        else:
                            ixl += 1
                    elif b == 24:
                        reader.read()
                    elif b == 25:
                        writer.put(reader.iac)
                    elif b == 28:
                        writer.flush()
                    elif b == 30:
                        if im > 1:
                            im -= 1
                elif b is DECLARED_RECURSIVE:
                    raise Diagnostic(UNDEFINED_RECURSIVE)
                else:  # call a defined subroutine
                    entry = b.entry
                    if b.recursive:
                        if irec > RECURSION_LIMIT:
                            raise Diagnostic(DEEP_RECURSION)
                        iret[irec] = ixl + 1
                        irec += 1
                    else:
                        prog[entry] = ixl + 1
                    ixl = entry + 1
            elif cell > ixl:  # forward jump
                ixl = cell
                if ixl >= RECURSIVE_MARK:
                    irec -= 1
                    ixl = iret[irec]
            elif cell:  # backward jump: it may close a loop, so it is a step
                steps += 1
                if sess.cancelled or steps > budget:
                    raise _Interrupted
                ixl = cell
            else:  # return through the program entry
                ixl = prog[ixl + 1]
                if ixl == ilc0:
                    break
                steps += 1
                if sess.cancelled or steps > budget:
                    raise _Interrupted
                if prog[ixl] >= RECURSIVE_MARK:
                    irec -= 1
                    ixl = iret[irec] - 1
                else:
                    ixl = prog[ixl] - 1
    except (ValueError, ZeroDivisionError, OverflowError):
        writer.emit_text(ARITHMETIC_FAULT)
        sess.errors_emitted = True
    except EndOfInput:
        raise Diagnostic(BAD_DATUM) from None
    except _Interrupted:
        sess.cancelled = False
        writer.emit_text(INTERRUPT_NOTICE)
