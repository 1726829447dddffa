"""Dispatch tables mapping character class codes to behavior.

Two tables of 128 entries (indexed 1..128; 65..128 are the quoted forms):

* compile table - how the compiler treats a source character
* exec table    - what an operator cell with that class code runs

Both start from pristine defaults and are mutated as a session defines
subroutines; the monitor's erase command restores the defaults.
"""

from dataclasses import dataclass

from .charset import code_of, quote_extend

# compile classes
IGNORE = 0
OPEN = 1          # (
CLOSE = 2         # ) and its keypunch twin
SEQUENT = 3       # , ;
REPEAT = 4        # . :
OPERATOR = 5      # emit operator cell, no argument
OPERATOR_NUM = 6  # operator with one numeric argument (variable fetch)
PREDICATE = 7     # operator with a false-branch link
CHAR_PRED = 8     # one raw character argument, then a false link
COUNTER = 9       # $n$
CONSTANT = 10     # '/number'
QUOTE_PREFIX = 11
COMMENT = 12      # '* ... '
STRING = 13       # " ... '
RESERVED = 14     # operators of a larger sibling system; rejected

# builtin operation numbers used in the exec table
OP_ABS, OP_COS, OP_EXP, OP_TANH, OP_NEG = 1, 2, 3, 4, 5
OP_TEST_NEG, OP_PRINT, OP_SQRT, OP_SET, OP_ATAN = 6, 7, 8, 9, 10
OP_LOG, OP_SIN, OP_TEST_ZERO = 11, 12, 13
OP_POW, OP_ADD, OP_SUB, OP_MUL, OP_TEST_EQ, OP_DIV = 14, 15, 16, 17, 18, 19
OP_CONST, OP_GET, OP_INPUT, OP_DUP = 20, 21, 22, 23
OP_READ, OP_WRITE, OP_STRING, OP_MATCH, OP_FLUSH = 24, 25, 26, 27, 28
OP_COUNTER, OP_POP = 29, 30

UNDEFINED = 0


class _DeclaredRecursive:
    """Placeholder binding: declared recursive, body not yet compiled."""

    def __repr__(self):
        return "DECLARED_RECURSIVE"


DECLARED_RECURSIVE = _DeclaredRecursive()


@dataclass(frozen=True)
class Subroutine:
    """Exec binding of a defined program: entry cell and linkage kind."""
    entry: int
    recursive: bool


def _q(char):
    return quote_extend(code_of(char))


_COMPILE_SPECIALS = {
    code_of("("): OPEN, code_of("%"): OPEN,
    code_of(")"): CLOSE, code_of("<"): CLOSE,
    code_of(","): SEQUENT, code_of(";"): SEQUENT,
    code_of("."): REPEAT, code_of(":"): REPEAT,
    code_of("$"): COUNTER,
    code_of("'"): QUOTE_PREFIX, code_of("@"): QUOTE_PREFIX,
    code_of('"'): STRING,
    code_of("="): CHAR_PRED, code_of("#"): CHAR_PRED,
    code_of("F"): OPERATOR_NUM, code_of("S"): OPERATOR_NUM,
    _q("/"): CONSTANT,
    _q("*"): COMMENT,
    _q("A"): OPERATOR, _q("L"): OPERATOR, _q("S"): OPERATOR,
}

_OPERATOR_CHARS = "ABCEHILMOPQRWX+&-*/"
_RESERVED_CHARS = "DGTUVZ"


def _build_compile_table():
    # everything defaults to predicate (an operator cell that may later be
    # bound to a defined program); specific classes then overwrite
    table = [PREDICATE] * 129
    table[0] = IGNORE
    table[code_of(" ")] = IGNORE
    table[43] = IGNORE  # the one unassigned code
    for ch in _OPERATOR_CHARS:
        table[code_of(ch)] = OPERATOR
    for ch in _RESERVED_CHARS:
        table[code_of(ch)] = RESERVED
        table[_q(ch)] = RESERVED
    for code, cls in _COMPILE_SPECIALS.items():
        table[code] = cls
    return table


def _build_exec_table():
    table = [UNDEFINED] * 129
    bindings = {
        "A": OP_ABS, "B": OP_POW, "C": OP_COS, "E": OP_EXP, "F": OP_GET,
        "H": OP_TANH, "I": OP_INPUT, "+": OP_ADD, "&": OP_ADD, "J": OP_TEST_EQ,
        "L": OP_POP, "M": OP_NEG, "N": OP_TEST_NEG, "O": OP_PRINT,
        "P": OP_DUP, "Q": OP_SQRT, "R": OP_READ, "$": OP_COUNTER,
        "*": OP_MUL, "-": OP_SUB, "/": OP_DIV, "S": OP_SET, "W": OP_WRITE,
        "X": OP_FLUSH, "0": OP_TEST_ZERO, "#": OP_MATCH, "=": OP_MATCH,
        '"': OP_STRING,
    }
    for ch, op in bindings.items():
        table[code_of(ch)] = op
    table[_q("A")] = OP_ATAN
    table[_q("L")] = OP_LOG
    table[_q("S")] = OP_SIN
    table[_q("/")] = OP_CONST
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
