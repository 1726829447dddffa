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
is complete, ends it too, with status 1 and a note among the reader's
diagnostics.

Reads go through the session, which latches the last character read in
iac: one character at a time, or a run of the card in one slice.
"""

from dataclasses import dataclass, field

from . import compiler, interpreter, tables
from .charset import BLANK
from .iosys import PAGE_EJECT, CardReader, Diagnostic, EndOfInput, LineWriter
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
        """cards/keyboard are callables or iterables yielding source lines
        for the card and keyboard units; on_line, if given, sees each
        completed output line as (unit, text)."""
        cfg = config or SessionConfig()
        self.config = cfg
        sources = {}
        if cards is not None:
            sources[2] = self._as_source(cards)
        if keyboard is not None:
            sources[6] = self._as_source(keyboard)
        self.reader = CardReader(sources, strict=cfg.strict_charset)
        self.writer = LineWriter(self._sink, widths={3: cfg.width})
        self.on_line = on_line
        self.output = []          # lines written to printer units
        self.punch = []           # lines written to the card punch
        self.store = ProgramStore()
        self.compile_code = tables.compile_table()
        self.exec_code = tables.exec_table()
        self.frames = []          # open parenthesis levels during compile
        self.stack = [0.0] * (interpreter.STACK_LIMIT + 2)
        self.variables = [0.0] * 11   # slots 1..10
        self.constants = [0.0] * 31   # slots 1..30
        self.constants_used = 0
        self.constants_committed = 0
        self.input_unit = 2 if cards is not None else 6
        self.output_unit = 3
        self.iac = 0              # last character read or emitted by name
        self.errors_emitted = False
        self.cancelled = False

    @staticmethod
    def _as_source(lines):
        if callable(lines):
            return lines
        it = iter(lines)

        def pull():
            return next(it, None)

        return pull

    # character and line plumbing shared by all phases

    def _sink(self, unit, text):
        if unit == 2:
            self.punch.append(text)
        else:
            self.output.append(text)
        if self.on_line:
            self.on_line(unit, text)

    def read_char(self):
        w = self.iac = self.reader.read(self.input_unit)
        return w

    def put_char(self, word):
        self.writer.put(word, self.output_unit)

    def read_echo(self):
        w = self.iac = self.reader.read(self.input_unit)
        self.writer.put(w, self.output_unit)
        return w

    def read_rest(self):
        """Read and echo the rest of the current card."""
        run = self.reader.rest(self.input_unit)
        self.iac = run[-1]
        self.writer.put_words(run, self.output_unit)

    def read_nonblank(self, echo):
        """Read past blanks, across cards, echoing them if echo; returns
        the first other character, read but not echoed."""
        reader = self.reader
        unit = self.input_unit
        while True:
            run = reader.blanks(unit)
            if run:
                self.iac = BLANK
                if echo:
                    self.writer.put_words(run, self.output_unit)
            if reader.cursor < 80:
                w = self.iac = reader.read(unit)
                return w

    def read_to_quote(self, limit=80):
        """Read and echo the current card up to and including the next
        quote, or to the end of the card; at most limit characters."""
        run = self.reader.through_quote(self.input_unit, limit)
        self.iac = run[-1]
        self.writer.put_words(run, self.output_unit)
        return run

    def flush(self):
        self.writer.flush(self.output_unit)

    def emit_line(self, text):
        self.writer.emit_text(text, self.output_unit)

    def page_eject(self):
        self.writer.emit_text(PAGE_EJECT, self.output_unit)

    def diagnose(self, code):
        self.errors_emitted = True
        self.writer.emit_message(code, self.output_unit)

    # the top-level cycle

    def cycle(self):
        """One monitor / compile / execute round.  Returns False when the
        session is over."""
        self.store.ilc = self.store.ilc0
        self.writer.echo = self.config.echo
        try:
            compiler.monitor(self)
            compiler.compile_program(self)
            interpreter.execute(self)
        except Diagnostic as exc:
            self.diagnose(exc.code)
        except compiler.UnfinishedProgram:
            self.reader.diagnostics.append("end of input inside a program")
            self.errors_emitted = True
            self.flush()
            return False
        except (compiler.Terminated, EndOfInput):
            self.flush()
            return False
        self.flush()
        if self.output_unit == 3:
            self.page_eject()
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
