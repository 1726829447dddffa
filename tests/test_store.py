"""Program store: emission by the reference compiler's emit, chain
filling, listings, integrity."""

import pytest

from reca.store import ProgramStore

from conftest import check_integrity
from reference_compiler import emit


def store_with(values):
    """A store whose cells 1.. hold values, with ilc just past them."""
    st = ProgramStore()
    st.cells[1:len(values) + 1] = values
    st.ilc = len(values) + 1
    return st


def test_emit_advances_cursor():
    st = ProgramStore()
    assert emit(st, 0) == 1
    assert emit(st, -22) == 2
    assert st.ilc == 3
    assert st.cells[1:3] == [0, -22]


def test_fill_chain_resolves_linked_cells():
    st = ProgramStore()
    # build a three-cell chain: 9 -> 5 -> 2 -> end
    st.cells[2] = 0
    st.cells[5] = 2
    st.cells[9] = 5
    st.ilc = 12
    st.fill_chain(9, 40)
    assert st.cells[2] == st.cells[5] == st.cells[9] == 40


def test_fill_chain_empty_head_is_noop():
    st = ProgramStore()
    before = list(st.cells)
    st.fill_chain(0, 99)
    assert st.cells == before


def test_dump_listing_eleven_wide_columns():
    st = store_with([0, -22, 5, 20, -49, 11, -20, -98, 1, 20, -24,
                     -98, 2, -33, -90, 19, -29, 20, 0, 1])
    lines = st.dump_listing(1, 20)
    assert lines == [
        "      0    -22      5     20    -49     11    -20    -98      1     20    -24",
        "    -98      2    -33    -90     19    -29     20      0      1",
    ]


def test_dump_listing_single_cell():
    st = store_with([12345])
    assert st.dump_listing(1, 1) == ["  12345"]


def test_integrity_accepts_well_formed_region():
    st = store_with([0, -22, 5, 6, 2, 0, 1])
    check_integrity(st, 1, 7)


def test_integrity_rejects_unfilled_link():
    st = store_with([0, -22, 0, 6, 2, 0, 1])
    with pytest.raises(AssertionError):
        check_integrity(st, 1, 7)


def test_integrity_rejects_out_of_range_jump():
    st = store_with([0, -22, 5, 499, 2, 0, 1])
    with pytest.raises(AssertionError):
        check_integrity(st, 1, 7)
