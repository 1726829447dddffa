"""Spans around reca's public callables, recorded from outside the program.

While installed, the tracer replaces each callable in ``TARGETS`` by a
wrapper that records a span (name, start, end, parent) in memory, and puts
everything back on exit.  A counting tracer also counts interpreter
operations: the exec tables that ``tables.exec_table`` returns are replaced
by a list that counts the lookups made while ``interpreter.execute`` is
running, one per operator cell dispatched.  That list makes every lookup a
Python call, so a counting tracer gives exact counts but not times; the
times come from a tracer that only records spans.
"""

import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute of that module or a class in it, span name)
TARGETS = (
    ("session", "Session.__init__", "session.init"),
    ("tables", "exec_table", "tables.exec_table"),
    ("compiler", "monitor", "compiler.monitor"),
    ("compiler", "compile_program", "compiler.compile"),
    ("interpreter", "execute", "interpreter.execute"),
    ("charset", "encode_card", "charset.encode_card"),
    ("iosys", "CardReader.read", "iosys.read"),
    ("iosys", "LineWriter.put", "iosys.put"),
    ("iosys", "LineWriter.flush", "iosys.flush"),
    ("numio", "format_scientific", "numio.format"),
    ("numio", "parse_number", "numio.parse"),
)
ROOT = "run_deck"


def resolve(reca, module_name, path):
    """The object that holds a target, and the target's attribute name."""
    owner = getattr(reca, module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self, reca, count=False):
        """reca is the imported package; its submodules are looked up on it.
        With count, interpreter operations and subroutine calls are counted."""
        self.reca = reca
        self.count = count
        self.executing = 0
        self.reset()

    def reset(self):
        self.spans = []      # [name, start_ns, end_ns, parent index or -1]
        self.stack = [-1]
        self.ops = 0
        self.calls = 0

    def wrap(self, name, fn):
        """fn, recording a span named name around each call."""
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            span = [name, clock(), 0, self.stack[-1]]
            spans.append(span)
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = clock()

        return traced

    def _counting_execute(self, fn):
        def execute(*args, **kwargs):
            self.executing += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.executing -= 1

        return execute

    def _counting_exec_table(self, fn):
        tracer = self
        subroutine = self.reca.tables.Subroutine

        class CountingTable(list):
            def __getitem__(self, index):
                value = list.__getitem__(self, index)
                if tracer.executing:
                    tracer.ops += 1
                    if type(value) is subroutine:
                        tracer.calls += 1
                return value

        def exec_table(*args, **kwargs):
            return CountingTable(fn(*args, **kwargs))

        return exec_table

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the with block."""
        saved = []
        try:
            for module_name, path, name in TARGETS:
                owner, attr = resolve(self.reca, module_name, path)
                original = vars(owner)[attr]
                fn = original
                if self.count and name == "interpreter.execute":
                    fn = self._counting_execute(fn)
                elif self.count and name == "tables.exec_table":
                    fn = self._counting_exec_table(fn)
                setattr(owner, attr, self.wrap(name, fn))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls, total ns and self ns.

        A span's self time is its duration minus the durations of its
        children, so the self times of all spans add up exactly to the
        durations of the root spans.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for (name, start, end, _), children in zip(spans, child_ns):
            entry = out[name]
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - children
        return dict(out)
