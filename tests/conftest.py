"""Shared helpers for the test suite."""

import re
import signal
from contextlib import contextmanager

import pytest

from reca.iosys import PAGE_EJECT
from reca.session import SessionConfig, run_deck
from reca.store import RECURSIVE_MARK

FIELD = re.compile(r"-?\d\.\d{5}E[- ]\d\d")


def is_digit_word(word):
    """True for the storage words of glyphs 0..9 (-4032 .. -1728)."""
    return -4032 <= word <= -1728


def digit_value(word):
    """Numeric value 0..9 of a digit storage word."""
    return (word + 4032) // 256


def digit_word(value):
    """Storage word of the glyph for a digit 0..9."""
    return value * 256 - 4032


def run(deck, **cfg):
    """Run a deck; returns (printed lines without page ejects, status)."""
    sess, status = run_deck(deck, config=SessionConfig(**cfg) if cfg else None)
    return [l for l in sess.output if l != PAGE_EJECT], status


def field_value(text):
    """Float value of one formatted field like ' 1.05000E 00'."""
    return float(text.replace("E ", "E+"))


def table_rows(lines):
    """Lines that consist only of formatted numeric fields."""
    rows = []
    for line in lines:
        fields = FIELD.findall(line)
        if fields and not line.strip(" -.0123456789E"):
            rows.append(fields)
    return rows


def squeeze(text):
    """Collapse blank runs, as the era's transcriptions did."""
    return " ".join(text.split())


def check_integrity(store, first, last):
    """Sanity-check a compiled region of argument-free code.

    first is the entry cell, last the cell holding the entry address.
    Every positive cell below the recursion mark must point inside the
    occupied store, and the only zero cells are the entry and the
    false-exit cell just before the terminal.  Raises AssertionError
    with a description on violation.
    """
    cells = store.cells
    assert cells[first] in (0, RECURSIVE_MARK), \
        f"cell {first}: entry is {cells[first]}"
    assert cells[last] == first, \
        f"cell {last}: terminal points at {cells[last]}, not {first}"
    assert cells[last - 1] == 0, \
        f"cell {last - 1}: false exit not zero"
    for addr in range(first + 1, last):
        v = cells[addr]
        if v == 0 and addr != last - 1:
            raise AssertionError(f"cell {addr}: unresolved chain link")
        if 0 < v < RECURSIVE_MARK and not first < v <= last:
            raise AssertionError(f"cell {addr}: jump to {v} outside program")


@contextmanager
def time_limit(seconds):
    """Fail with TimeoutError, instead of hanging, if the block runs on."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def run_fixture():
    return run
