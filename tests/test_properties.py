"""Properties over generated decks (see generators.py).

Any deck, well-formed or not, ends with status 0 or 1: under a step
budget run_deck must return, and no exception (a Diagnostic or an
EndOfInput among them) may escape it.

The execute loop leaves exactly what the reference loop in
reference_interpreter.py leaves, on every deck and at every step budget,
and the monitor and the compiler what the per-character ones in
reference_compiler.py leave, on decks whose programs are laid across
their cards at a random card width, on the monitor and keypunch decks of
generators.py, and on its decks whose tokens or monitor commands run
across column 80, cut short anywhere: the cards may end inside a command
or a token, or between the cards it is split over.  Each comparison runs
with the listing on and off; the reference front end puts what it reads
through the writer gated by the listing switch, as it was written for.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_compiler
import reference_interpreter
from generators import (
    BRANCH_DECKS, column_80_decks, compile_80_decks, cut_short, deck, keypunch_decks,
    monitor_decks, snapshot,
)
from reca import compiler, interpreter
from reca.iosys import LineWriter
from reca.session import SessionConfig, run_deck

DECKS = st.randoms(use_true_random=False).map(deck)
STRADDLED_DECKS = st.randoms(use_true_random=False).map(
    lambda rng: deck(rng, straddle=True))
WIDTHS = st.sampled_from([80, 120])
LISTING = st.booleans()


@settings(max_examples=200, deadline=None)
@given(DECKS, WIDTHS)
@example(["*($90$R.,\"DONE'X,)"], 120)
@example(["*S", "((.),)"], 80)
@example(["*(:M(H.,),)"], 120)
def test_every_deck_ends_with_a_status(deck, width):
    sess, status = run_deck(deck, config=SessionConfig(width=width, max_steps=2000))
    assert status in (0, 1)


@settings(max_examples=200, deadline=None)
@given(DECKS, WIDTHS, st.integers(0, 3000), LISTING)
@example(["*('/1E39'Q'/1'OX,)"], 120, 2000, True)
@example(["*('/1E39''L'/1'OX,)"], 80, 2000, True)
@example(["* N'R", "(N,0L'/1',P'/1'-'R*,)'R", "('/5''R OX,)"], 120, 2000, True)
@example(["*('/1''/1'(J'/2',)*+OX,)"], 80, 2000, True)  # J pops nothing
@example(["*NY", "(N)Y", "('/-1'(Y\"NEG',\"POS',)X,)"], 120, 2000, True)  # a recursive false return
@example(["*(N)Y", "('/-1'(Y\"NEG',\"POS',)X,)"], 80, 2000, True)  # a nonrecursive false return
@example(["*($90$R.,\"DONE'X,)"], 120, 0, True)  # no step at all
@example(["*('/1'OX\"A'WX,)"], 80, 2000, False)  # a run's output, the listing off
def test_execute_matches_the_reference_loop(deck, width, max_steps, listing):
    config = SessionConfig(width=width, echo=listing, max_steps=max_steps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interpreter, "execute", reference_interpreter.execute)
        expected = snapshot(*run_deck(deck, config=config))
    assert snapshot(*run_deck(deck, config=config)) == expected


def assert_front_end_matches_the_reference(deck, width, listing):
    config = SessionConfig(width=width, echo=listing, max_steps=2000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiler, "monitor", reference_compiler.monitor)
        mp.setattr(compiler, "compile_program", reference_compiler.compile_program)
        mp.setattr(LineWriter, "put_text", reference_compiler.gated_put_text)
        expected = snapshot(*run_deck(deck, config=config))
    assert snapshot(*run_deck(deck, config=config)) == expected


@settings(max_examples=300, deadline=None)
@given(STRADDLED_DECKS, WIDTHS, LISTING)
@example(["*(" + " " * 77 + "'", "/2'OX,)"], 120, True)  # quote prefix in column 80
@example(["*('/2'" + " " * 73 + "S", "1F1OX,)"], 80, True)  # the digit of S on the next card
@example(["*(" + " " * 77 + "=", "A'/1'OX,)"], 120, True)  # the character of = on the next card
@example(["*(A," + " " * 75 + ")", "Y  ('/1'Y OX,)"], 80, True)  # ) in column 80, name after
@example(["*(A,)Y", "", " " * 80, "(B,)Z", "", "('/1'Y Z OX,)"], 120, True)  # blank cards between
@example(["*(A,)Y L"], 80, True)  # the cards end in the blanks after a name
@example(["*(A,)Y" + " " * 74, "('/1'Y OX,)"], 120, True)  # blanks to column 80, ( on the next card
@example(["*(A,)Y", " " * 80, ""], 80, True)  # blanks to the end of the deck
@example(["*(A,)Y   B('/1'OX,)"], 120, True)  # not a ( after the blanks
@example(["*(A,)Y", "  B('/1'OX,)"], 80, True)  # not a ( after the blanks, on the next card
@example(["*(A,)Y  %'/1'Y OX,)"], 120, True)  # % read as ( on the card unit
@example(["*I6(A,)Y  %'/1'Y OX,)"], 80, True)  # % read as itself on the keyboard unit
@example(["*I6(A,)Y  ('/1'Y OX,)"], 120, True)  # ( on the keyboard unit
@example(["*E" + " " * 78, "C A COMMENT", "X NOT A CONTROL CARD", "*O1('/1'OX,)"], 120, True)
@example(["* N'", "Q('/1'OX,)"], 80, True)  # the quoted name of N on the next card
@example(["*('/", "", " " * 80, "  7.25'OX,)"], 120, True)  # a constant's blanks over two blank cards
@example(["*(($", "", "  3$'/1'OX.,),)"], 80, True)  # a counter's blanks over an empty card
@example(["*(A,)Y   B('/1'OX,)"], 80, False)  # the listing off
def test_compile_matches_the_reference_compiler(deck, width, listing):
    assert_front_end_matches_the_reference(deck, width, listing)


@pytest.mark.parametrize("listing", [True, False], ids=["listing on", "listing off"])
@pytest.mark.parametrize("width", [80, 120])
def test_monitor_and_keypunch_decks_match_the_reference(width, listing):
    for deck in monitor_decks() + keypunch_decks():
        assert_front_end_matches_the_reference(deck, width, listing)


@pytest.mark.parametrize("listing", [True, False], ids=["listing on", "listing off"])
@pytest.mark.parametrize("width", [80, 120])
@pytest.mark.parametrize("decks", [compile_80_decks, column_80_decks, monitor_decks])
def test_column_80_decks_cut_anywhere_match_the_reference(decks, width, listing):
    for deck in decks():
        for cut in cut_short(deck):
            assert_front_end_matches_the_reference(cut, width, listing)


@pytest.mark.parametrize("deck, reached", [
    (0, "MATCH"), (1, "NO MATCH"), (2, "COMP 06 PROGRAM DEFINED CONSTANT EXCESS"),
    (3, "inf"), (4, "nan"),
], ids=["= matches", "= does not match", "COMP 06", "inf constant", "nan constant"])
def test_branch_decks_reach_their_branches(deck, reached):
    sess, status = run_deck(BRANCH_DECKS[deck])
    if reached in ("inf", "nan"):
        assert str(sess.constants[1]) == reached
    else:
        assert reached in sess.output
