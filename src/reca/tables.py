"""Dispatch tables mapping character class codes to behavior.

Two tables of 128 entries (indexed 1..128; 65..128 are the quoted forms):

* compile table - how the compiler treats a source character
* exec table    - what an operator cell with that class code runs

OPERATIONS states each builtin operation once: its number in the exec
table, the characters bound to it and its compile class, which is also
the inline layout of its operator cell, the cells that follow it in the
store.  Both tables are built from it.  They start from pristine defaults
and are mutated as a session defines subroutines; the monitor's erase
command restores the defaults.
"""

import re

from .charset import code_of, quote_extend

# compile classes; an operation's class is also the layout of the cells that
# follow its operator cell.  The compiler tells the classes apart by range, so
# their order must hold: the blank and the structure (IGNORE to REPEAT, the
# separators last), then the operations OPERATOR to CONSTANT, then the rest,
# STRING among them; and the tests, PREDICATE to COUNTER, the classes whose
# layout ends in a false link, must stay contiguous, as execute's groups must.
IGNORE = 0
OPEN = 1          # (
CLOSE = 2         # ) and its keypunch twin
SEQUENT = 3       # , ;
REPEAT = 4        # . :
OPERATOR = 5      # no cells
OPERATOR_NUM = 6  # a variable number, 1..10
PREDICATE = 7     # a false link
CHAR_PRED = 8     # one raw character, then a false link
COUNTER = 9       # $n$: the count to reload, the live count, a false link
CONSTANT = 10     # '/number': the constant's slot in the pool
QUOTE_PREFIX = 11
COMMENT = 12      # '* ... '
STRING = 13       # " ... ': the length, then the characters
RESERVED = 14     # operators of a larger sibling system; rejected

# (name, compile class, characters): an operation's number is its place
# here, counted from 1, and a ' before a character quotes it.  execute
# tests the binary group (POW to DIV) and the push group (CONST to DUP) by
# range, so each must stay contiguous.
OPERATIONS = (
    # unary operations and tests
    ("ABS", OPERATOR, "A"), ("COS", OPERATOR, "C"), ("EXP", OPERATOR, "E"),
    ("TANH", OPERATOR, "H"), ("NEG", OPERATOR, "M"), ("TEST_NEG", PREDICATE, "N"),
    ("PRINT", OPERATOR, "O"), ("SQRT", OPERATOR, "Q"), ("SET", OPERATOR_NUM, "S"),
    ("ATAN", OPERATOR, "'A"), ("LOG", OPERATOR, "'L"), ("SIN", OPERATOR, "'S"),
    ("TEST_ZERO", PREDICATE, "0"),
    # binary operations
    ("POW", OPERATOR, "B"), ("ADD", OPERATOR, "+&"), ("SUB", OPERATOR, "-"),
    ("MUL", OPERATOR, "*"), ("TEST_EQ", PREDICATE, "J"), ("DIV", OPERATOR, "/"),
    # operations that push
    ("CONST", CONSTANT, "'/"), ("GET", OPERATOR_NUM, "F"), ("INPUT", OPERATOR, "I"),
    ("DUP", OPERATOR, "P"),
    # character input and output, counters, and the pop
    ("READ", OPERATOR, "R"), ("WRITE", OPERATOR, "W"), ("STRING", STRING, '"'),
    ("MATCH", CHAR_PRED, "=#"), ("FLUSH", OPERATOR, "X"), ("COUNTER", COUNTER, "$"),
    ("POP", OPERATOR, "L"),
)

# (compile class, characters) of the characters that are no operation's
_SYNTAX = [
    (OPEN, "(%"), (CLOSE, ")<"), (SEQUENT, ",;"), (REPEAT, ".:"),
    (COMMENT, "'*"), (RESERVED, "DGTUVZ'D'G'T'U'V'Z"),
]

UNDEFINED = 0


# the binding of a program declared recursive whose body is not yet
# compiled; execute tells it by identity, with is
DECLARED_RECURSIVE = "DECLARED_RECURSIVE"


class Subroutine:
    """Exec binding of a defined program: its entry cell.  The linkage
    kind lives in the store, in that cell: store.RECURSIVE_MARK for a
    program declared recursive, else its return address."""
    __slots__ = ("entry",)

    def __init__(self, entry):
        self.entry = entry


def _codes(chars):
    """The class codes of chars, where a ' quotes the character after it."""
    return [quote_extend(code_of(c[1])) if c[0] == "'" else code_of(c)
            for c in re.findall("'?.", chars)]


def _build_compile_table():
    # everything defaults to predicate (an operator cell that may later be
    # bound to a defined program); specific classes then overwrite
    table = [PREDICATE] * 129
    table[0] = IGNORE
    table[code_of(" ")] = IGNORE
    table[43] = IGNORE  # the one unassigned code
    table[code_of("'")] = table[code_of("@")] = QUOTE_PREFIX
    for cls, chars in [row[1:] for row in OPERATIONS] + _SYNTAX:
        for code in _codes(chars):
            table[code] = cls
    return table


def _build_exec_table():
    table = [UNDEFINED] * 129
    for op, (_, _, chars) in enumerate(OPERATIONS, 1):
        for code in _codes(chars):
            table[code] = op
    return table


# the pristine tables, built once; sessions mutate copies
_COMPILE_TABLE = _build_compile_table()
_EXEC_TABLE = _build_exec_table()


def compile_table():
    """Fresh compile-dispatch table, entries 1..128 (index 0 unused)."""
    return _COMPILE_TABLE[:]


def exec_table():
    """Fresh exec-dispatch table, entries 1..128 (index 0 unused)."""
    return _EXEC_TABLE[:]
