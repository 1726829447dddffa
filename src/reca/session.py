"""Session state and the monitor / compile / execute cycle.

A session owns the program store, the dispatch tables, the value stack,
the ten variables, the constant pool, and the shared card reader and line
writer.  Definitions and variables persist across the programs of one
session, and the store grows until erased; the value stack is emptied
after each run.

Each cycle is one round: scan cards for a program, compile it (binding
any named programs on the way) until one with a blank name completes, and
run that.  A catalog diagnostic from the compiler or the interpreter
unwinds to the cycle as iosys.Diagnostic and is printed there; it
discards the partial program (the store cursor snaps back at the next
cycle) but keeps earlier definitions.  Every round, clean or not, ends
with one epilogue: flush the line and page-eject the line printer.  The
terminate command, or running out of cards between programs, ends the
session.  Running out inside a program, after its ( and before its name
is complete, ends it the same way, once the compiler's card turn has put
a note among the reader's diagnostics and set status 1.  The listing
switch belongs to the round: the monitor returns the round's echo, and
the cycle passes it to the compiler.

The input unit and iac, the last character read, live on the card
reader; the output unit and its width on the line writer.  The monitor,
the compiler and the interpreter use the two directly.
"""

from dataclasses import dataclass
from functools import partial

from . import compiler, interpreter, tables
from .iosys import (
    MESSAGES, PAGE_EJECT, CardReader, Diagnostic, EndOfInput, LineWriter,
)
from .store import ProgramStore


@dataclass
class SessionConfig:
    width: int = 120          # line-printer width, 80 or 120
    echo: bool = True         # startup listing of source characters
    max_steps: int | None = None
    listing_always: bool = False
    strict_charset: bool = False


class Session:
    def __init__(self, cards=None, keyboard=None, config=None, on_line=None):
        """cards or keyboard, not both, is a callable or an iterable
        yielding source lines, read from the card or the keyboard unit;
        on_line, if given, sees each completed output line as (unit, text)."""
        if cards is not None and keyboard is not None:
            raise TypeError("a session reads cards or a keyboard, not both")
        cfg = config or SessionConfig()
        self.config = cfg
        lines = keyboard if cards is None else cards
        source = lines if callable(lines) else partial(next, iter(lines or ()), None)
        self.reader = CardReader(source, unit=6 if cards is None else 2,
                                 strict=cfg.strict_charset)
        self.output = []          # lines written to printer units
        self.punch = []           # lines written to the card punch
        self.writer = LineWriter(self.output, self.punch, width=cfg.width,
                                 on_line=on_line)
        self.store = ProgramStore()
        self.erase()
        self.stack = [0.0] * (interpreter.STACK_LIMIT + 2)
        self.variables = [0.0] * 11   # slots 1..10
        self.constants = [0.0] * 31   # slots 1..30
        self.errors_emitted = False
        self.cancelled = False

    def erase(self):
        """Forget every program and definition: the state a new session
        starts in, and the one the monitor's erase command restores."""
        self.store.ilc = 1
        self.compile_code = tables.compile_table()
        self.exec_code = tables.exec_table()
        self.constants_used = 0
        self.constants_committed = 0

    def diagnose(self, code):
        self.errors_emitted = True
        self.writer.emit_text(MESSAGES[-code - 1])

    # the top-level cycle

    def cycle(self):
        """One monitor / compile / execute round, the compiler passed the
        echo that the monitor returns.  Returns False when the session is
        over: the terminate command, or the cards running out."""
        self.store.ilc = self.store.ilc0
        try:
            compiler.compile_program(self, compiler.monitor(self))
            interpreter.execute(self)
        except Diagnostic as exc:
            self.diagnose(exc.code)
        except (compiler.Terminated, EndOfInput):
            self.writer.flush()
            return False
        self.writer.flush()
        if self.writer.unit == 3:
            self.writer.emit_text(PAGE_EJECT)
        return True

    def run(self):
        """Cycle until the deck ends; returns a process-style status."""
        while self.cycle():
            pass
        return 1 if self.errors_emitted else 0


def run_deck(deck, config=None, on_line=None):
    """Run a deck (a string or an iterable of source lines); returns
    (session, status)."""
    lines = deck.splitlines() if isinstance(deck, str) else list(deck)
    sess = Session(cards=lines, config=config, on_line=on_line)
    status = sess.run()
    return sess, status
