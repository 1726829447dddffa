"""Threaded program store.

Compiled programs live in one array of 500 signed words, 1-indexed like
the machine it models.  Cell meanings:

* negative      - operator: call the routine bound to class code -cell
* 0             - program entry cell (also: not-yet-linked chain end)
* positive 2000 - marks a recursive entry; return address is popped
* other positive- jump target, or an inline argument cell skipped by its
                  operator

An operator cell's inline layout, the cells that follow it, is given by
the compile class of its operation in tables.OPERATIONS; the compiler
writes every operation, operator cell and inline cells, in one branch,
and the layout of a test ends in its false link.

Forward references are kept as chains: each pending jump cell holds the
address of the previous pending cell (0 ends the chain) until the target
is known and the whole chain is filled in one sweep.
"""

CAPACITY = 500
RECURSIVE_MARK = 2000


class ProgramStore:
    def __init__(self):
        # index 0 unused; a little headroom past CAPACITY for the cells a
        # compile step may write before the next capacity check fires
        self.cells = [0] * (CAPACITY + 8)
        self.ilc = 1    # next free cell
        self.ilc0 = 1   # entry cell of the program being compiled

    def fill_chain(self, head, target):
        """Resolve a forward-reference chain to point at target.  The
        compiler skips the call for an empty chain, whose head is 0."""
        cells = self.cells
        while head != 0:
            following = cells[head]
            cells[head] = target
            head = following

    def dump_listing(self, first, last):
        """Cells first..last inclusive as lines of 11 width-7 integers."""
        values = self.cells[first:last + 1]
        return [
            "".join(f"{v:7d}" for v in values[i:i + 11])
            for i in range(0, len(values), 11)
        ]
