"""The dispatch tables: the pristine tables built from tables.OPERATIONS,
execute's names for the operation numbers, and the rows a deck rebinds."""

import ast
import inspect
import json

from reca import charset, interpreter, tables
from reca.session import run_deck
from reca.store import RECURSIVE_MARK
from reca.tables import DECLARED_RECURSIVE, Subroutine

from conftest import run
from generators import snapshot

# both pristine tables, entry for entry, written out so that an edit of
# OPERATIONS that moves any entry shows
PRISTINE_COMPILE = [
    0, 0, 5, 5, 5, 14, 5, 6, 14, 5, 5, 7, 4, 2, 1, 5,
    7, 5, 7, 7, 5, 5, 7, 5, 5, 5, 5, 7, 9, 5, 2, 3,
    7, 5, 5, 6, 14, 14, 14, 5, 5, 7, 14, 0, 3, 1, 7, 7,
    7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 4, 8, 11, 11, 8,
    13, 7, 5, 7, 7, 14, 7, 7, 14, 7, 7, 7, 7, 7, 7, 7,
    7, 7, 7, 7, 5, 7, 7, 7, 7, 7, 7, 7, 7, 12, 7, 7,
    7, 7, 10, 5, 14, 14, 14, 7, 7, 7, 14, 7, 7, 7, 7, 7,
    7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
    7,
]
PRISTINE_EXEC = [
    0, 0, 1, 14, 2, 0, 3, 21, 0, 4, 22, 0, 0, 0, 0, 15,
    0, 15, 18, 0, 30, 5, 6, 7, 23, 8, 24, 0, 29, 17, 0, 0,
    0, 16, 19, 9, 0, 0, 0, 25, 28, 0, 0, 0, 0, 0, 0, 0,
    0, 13, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 27, 0, 0, 27,
    26, 0, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 20, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0,
]


def test_pristine_tables_are_unchanged():
    assert tables.compile_table() == PRISTINE_COMPILE
    assert tables.exec_table() == PRISTINE_EXEC


def _execute_tree():
    return ast.parse(inspect.getsource(interpreter.execute)).body[0]


def test_execute_names_the_operations_in_table_order():
    unpacks = [
        node.targets[0] for node in ast.walk(_execute_tree())
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "range"
    ]
    assert len(unpacks) == 1
    # the library functions that interpreter.FUNCTIONS alone serves are _
    served = {"COS", "TANH", "SQRT", "ATAN", "LOG", "SIN"}
    assert [name.id for name in unpacks[0].elts] == [
        "_" if row[0] in served else row[0] for row in tables.OPERATIONS]


def test_execute_tests_no_operation_by_its_number():
    for node in ast.walk(_execute_tree()):
        if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "b":
            assert all(isinstance(c, ast.Name) for c in node.comparators), \
                ast.unparse(node)


# name-space edges: the monitor's N and a program's name can rebind any
# character, the blank and the separators included


def test_a_blank_declared_recursive_makes_every_blank_a_call_until_erased():
    deck = ["*N Y", "( '/1' OX,)", "*( '/1' OX,)", "*E", "*( '/1' OX,)"]
    lines, status = run(deck, echo=False)
    assert lines == [
        "EXEC 04 RECURSIVE SUBROUTINE NOT DEFINED",
        "EXEC 04 RECURSIVE SUBROUTINE NOT DEFINED",
        "  1.00000E 00",
    ]
    assert status == 1
    sess, _ = run_deck(deck[:1])
    blank = charset.code_of(" ")
    assert sess.compile_code[blank] == tables.PREDICATE
    assert sess.exec_code[blank] is DECLARED_RECURSIVE


def test_a_program_named_comma_makes_every_later_comma_a_call():
    lines, status = run(["*('/1'OX,), ", "('/2'OX,)"], echo=False)
    assert lines == ["  2.00000E 00", "  1.00000E 00"]
    assert status == 0
    sess, _ = run_deck(["*('/1'OX,), "])
    comma = charset.code_of(",")
    assert sess.compile_code[comma] == tables.PREDICATE
    binding = sess.exec_code[comma]
    assert type(binding) is Subroutine
    assert binding.entry == 1
    assert sess.store.cells[binding.entry] == 0


def test_snapshot_holds_both_tables_as_plain_values():
    fields = snapshot(*run_deck(["*N'Q N'R", "(A,)Y", "(A,)'R"]))
    assert json.loads(json.dumps(fields)) == fields
    assert fields["compile table"][89] == fields["compile table"][41] == tables.PREDICATE
    assert fields["exec table"][89] == "DECLARED_RECURSIVE"
    # a defined program by its entry, its linkage kind in the entry cell
    assert fields["exec table"][41] == [1]
    assert fields["store cells"][1] == 0
    assert fields["exec table"][90] == [6]
    assert fields["store cells"][6] == RECURSIVE_MARK
    assert fields["exec table"][charset.code_of("A")] == 1
