"""Threaded-code interpreter.

Execution walks the program store from the entry cell of the most recent
program.  Negative cells invoke operations, positive cells are jumps (or
inline arguments consumed by the preceding operation), and a zero cell
returns through the entry of the enclosing program.  A subroutine's
binding holds only its entry cell, and its linkage is read from that
cell: the compiler marks a recursive callee's entry with
store.RECURSIVE_MARK, and a call to it pushes the return address on a
pushdown return stack, which the backward jump that ends the callee pops
at once, so no pass fetches the mark as a cell to run; a call to any
other callee stores the return address in the entry cell.

All arithmetic is float32.  The loop is deliberately flat and runs some
four million operations a second: everything hot is a local, the
operation numbers too, named as in tables.OPERATIONS, and each compare
has operands of one type, which CPython 3.11+ specialises.  The value
tests compare with 0.0, and an unbounded run counts its steps against an
int ceiling under 2**30, lifted to inf if they pass it.  The seven
operations that call a function of the math library (COS, EXP, SQRT,
ATAN, LOG, SIN and TANH) share one branch, which looks the function up
in FUNCTIONS by operation number.

A catalog diagnostic raises iosys.Diagnostic; running out of data cards
in I or R raises it as CONV 01.  I reads its datum, blanks and then
'/number', with numio.parse_number, in one scan of the reader's card
that raises CONV 01 on a bad frame too.  A stray character on a card
that I or R reads in raises charset.CharsetError when the reader is
strict.  An arithmetic fault or an interrupt prints its notice and ends
the program.  The step budget counts every operation, every backward
jump and every false return from a subroutine and is checked at each, so
--max-steps stops at the same cell whatever the program.  The cancel
flag (Ctrl-C) is checked where a program could run on without end: when
execute starts, at every backward jump, at every subroutine call and at
every false return from one (a subroutine that has called itself returns
false into its own body); a backward jump and a false return test the
budget and the flag in one condition.  Between two of those points
execution makes at most one forward pass through the store.  It is
checked as well after each read by I and R, which can wait on the
keyboard for as long as the user takes, so an interrupt typed during a
read stops the program that was reading, and where an unbounded run
passes its ceiling, so a run that does so at an operation with Ctrl-C
pending stops at that operation.
"""

import math
from array import array

from . import charset, numio
from .iosys import (
    ARITHMETIC_FAULT, BAD_DATUM, DEEP_RECURSION, INTERRUPT_NOTICE, STACK_EMPTY,
    STACK_OVERFLOW, UNDEFINED_CALL, UNDEFINED_RECURSIVE, Diagnostic, EndOfInput,
)
from .store import RECURSIVE_MARK
from .tables import DECLARED_RECURSIVE, OPERATIONS

STACK_LIMIT = 200
RECURSION_LIMIT = 100
NEAR_ZERO = numio.f32(5.0e-6)
_INF = float("inf")
_CEILING = 2**30 - 1  # the budget of an unbounded run, until steps pass it
# the library function of each operation that calls one, by operation
# number, and None for every other number
_LIBRARY = ("COS", "EXP", "SQRT", "ATAN", "LOG", "SIN", "TANH")
FUNCTIONS = [None] + [getattr(math, name.lower()) if name in _LIBRARY else None
                      for name, _, _ in OPERATIONS]


class _Interrupted(Exception):
    """The step budget ran out or the session was cancelled."""


def _past_budget(sess):
    """Stop a bounded run or a cancelled one; lift an unbounded run's
    ceiling to inf."""
    if sess.config.max_steps is not None or sess.cancelled:
        raise _Interrupted
    return _INF


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
    sp = 0  # the top slot; slot 0 lies below an empty stack
    near, mark, max_sp, max_rec = NEAR_ZERO, RECURSIVE_MARK, STACK_LIMIT, RECURSION_LIMIT
    iret = [0] * (max_rec + 2)
    irec = 1
    ixl = ilc0 + 1
    steps = 0
    budget = _CEILING if sess.config.max_steps is None else sess.config.max_steps
    # storing into a float array is C's double-to-float cast: the float32
    # round, saturating to inf, as numio.f32 makes it
    f = array("f", (0.0,))
    functions, pow_ = FUNCTIONS, math.pow
    # the operation numbers, as locals named as in tables.OPERATIONS; the
    # library functions that FUNCTIONS alone serves, all but EXP, are _
    (ABS, _, EXP, _, NEG, TEST_NEG, PRINT, _, SET, _, _, _,
     TEST_ZERO, POW, ADD, SUB, MUL, TEST_EQ, DIV, CONST, GET, INPUT, DUP, READ,
     WRITE, STRING, MATCH, FLUSH, COUNTER, POP) = range(1, len(OPERATIONS) + 1)
    try:
        if sess.cancelled:
            raise _Interrupted
        while True:
            cell = prog[ixl]
            if cell < 0:
                ixl += 1
                steps += 1
                if steps > budget:
                    budget = _past_budget(sess)
                b = xeq[-cell]
                if type(b) is int:
                    # the groups and the branches within them are tested in
                    # order of how often the demo and bench decks run them
                    if b >= POW:
                        if b <= DIV:  # binary
                            if sp <= 1:
                                raise Diagnostic(STACK_EMPTY)
                            y = pdl[sp]
                            sp -= 1
                            if b == ADD:
                                r = pdl[sp] + y
                            elif b == MUL:
                                r = pdl[sp] * y
                            elif b == SUB:
                                r = pdl[sp] - y
                            elif b == TEST_EQ:  # branch unless nearly equal
                                d = y - pdl[sp]
                                sp += 1  # a test pops nothing
                                if (d if d >= 0.0 else -d) <= near:
                                    ixl += 1
                                continue
                            elif b == DIV:
                                r = pdl[sp] / y
                            else:  # POW, ValueError on a bad domain
                                r = pow_(pdl[sp], y)
                            f[0] = r
                            r = f[0]
                            # the round saturates silently, so range-check here
                            if not -3.5e38 < r < 3.5e38:
                                raise OverflowError("float32 range exceeded")
                            pdl[sp] = r
                        elif b <= DUP:  # operations that push
                            if sp >= max_sp:
                                raise Diagnostic(STACK_OVERFLOW)
                            sp += 1
                            if b == CONST:
                                pdl[sp] = const[prog[ixl]]
                                ixl += 1
                            elif b == DUP:  # duplicate the value below
                                if sp <= 1:
                                    raise Diagnostic(STACK_EMPTY)
                                pdl[sp] = pdl[sp - 1]
                            elif b == GET:  # variable fetch
                                pdl[sp] = save[prog[ixl]]
                                ixl += 1
                            else:  # INPUT
                                pdl[sp] = numio.parse_number(reader)
                                if sess.cancelled:  # Ctrl-C during the read
                                    raise _Interrupted
                        elif b == COUNTER:
                            ixl += 1
                            k = prog[ixl]
                            if k < 0:
                                prog[ixl] = k + 1
                                ixl += 2  # still counting: skip the false link
                            else:
                                prog[ixl] = prog[ixl - 1]  # reload and fall false
                                ixl += 1
                        elif b == STRING:  # emit the stored run
                            n = prog[ixl]
                            if n > 0:
                                reader.iac = prog[ixl + n]
                                writer.put_words(prog[ixl + 1:ixl + n + 1])
                                ixl += n
                            ixl += 1
                        elif b == MATCH:  # branch if last character matches
                            if reader.iac == prog[ixl]:
                                ixl += 2
                            else:
                                ixl += 1
                        elif b == READ:
                            reader.read()
                            if sess.cancelled:  # Ctrl-C during the read
                                raise _Interrupted
                        elif b == WRITE:
                            writer.put(reader.iac)
                        elif b == FLUSH:
                            writer.flush()
                        elif b == POP:
                            if sp > 0:
                                sp -= 1
                    elif b:  # unary and tests
                        if sp <= 0:
                            raise Diagnostic(STACK_EMPTY)
                        a = pdl[sp]
                        if b == TEST_ZERO:  # branch unless near zero
                            if (a if a >= 0.0 else -a) <= near:
                                ixl += 1
                        elif b == TEST_NEG:  # branch unless negative
                            if a < 0.0:
                                ixl += 1
                        elif b == SET:  # store to variable, value kept
                            save[prog[ixl]] = a
                            ixl += 1
                        elif b == PRINT:
                            numio.format_scientific(writer, a)
                        elif b == NEG:
                            pdl[sp] = -a
                        elif b == ABS:
                            pdl[sp] = a if a >= 0.0 else -a
                        else:  # a library function
                            f[0] = functions[b](a)
                            a = f[0]
                            # only EXP faults on inf: sqrt and log of inf
                            # stay inf, as the loop has always let them be
                            if a == _INF and b == EXP:
                                raise OverflowError("float32 range exceeded")
                            pdl[sp] = a
                    else:
                        raise Diagnostic(UNDEFINED_CALL)
                elif b is DECLARED_RECURSIVE:
                    raise Diagnostic(UNDEFINED_RECURSIVE)
                else:  # call a defined subroutine
                    if sess.cancelled:
                        raise _Interrupted
                    entry = b.entry
                    if prog[entry] >= mark:  # a recursive entry
                        if irec > max_rec:
                            raise Diagnostic(DEEP_RECURSION)
                        iret[irec] = ixl + 1
                        irec += 1
                    else:
                        prog[entry] = ixl + 1
                    ixl = entry + 1
            elif cell > ixl:  # forward jump
                ixl = cell
            elif cell:  # backward jump: it may close a loop, so it is a step
                steps += 1
                if steps > budget or sess.cancelled:
                    budget = _past_budget(sess)
                ixl = cell
                if ixl == ilc0:
                    break
                if prog[ixl] >= mark:  # a recursive entry: return from it now
                    irec -= 1
                    ixl = iret[irec]
            else:  # return through the program entry
                ixl = prog[ixl + 1]
                if ixl == ilc0:
                    break
                # a subroutine's false return: a step, as the backward jump
                # of a true return is, for it may close a loop too
                steps += 1
                if steps > budget or sess.cancelled:
                    budget = _past_budget(sess)
                if prog[ixl] >= mark:
                    irec -= 1
                    ixl = iret[irec] - 1
                else:
                    ixl = prog[ixl] - 1
    except charset.CharsetError:  # a ValueError, but no arithmetic fault
        raise
    except (ValueError, ZeroDivisionError, OverflowError):
        writer.emit_text(ARITHMETIC_FAULT)
        sess.errors_emitted = True
    except EndOfInput:
        raise Diagnostic(BAD_DATUM) from None
    except _Interrupted:
        sess.cancelled = False
        writer.emit_text(INTERRUPT_NOTICE)
