"""Seeded deck generators and the independent output checks for each workload.

Nothing here imports reca: the decks are plain card images, and every check
recomputes the expected output on its own (float32 through ``struct``), so a
change in the program cannot also change what it is checked against.

Each workload maps a seed to a fixed list of decks.  The same seed always
gives the same decks; the timed loop runs them in order, round and round.
"""

import random
import re
import struct
from dataclasses import dataclass

FIELD = r" [ -]\d\.\d{5}E[ -]\d\d"
FIELD_LINE = re.compile(FIELD)
PRODUCT_LINE = re.compile(f"({FIELD})({FIELD})({FIELD})")
# every catalog message starts with its group and a two-digit number
CATALOG_LINE = re.compile(r"^(COMP|EXEC|CONV|SUP|REC|REG) \d\d |^MANUAL INTERRUPT")

# one sample per deck: with 100 the p90 has ten samples beyond it
DECKS_PER_SET = 100


def f32(x):
    return struct.unpack("f", struct.pack("f", x))[0]


def field_value(text):
    return float(text.replace("E ", "E+"))


@dataclass(frozen=True)
class Deck:
    cards: tuple
    expect: tuple  # what the workload's check compares the output with


# rose: the committed eight-petal rose deck, card for card

ROSE_CARDS = (
    "C EIGHT PETAL ROSE",
    "* ('/-2'S0L($50$'/-2'S1L($74$F1P*F0P*&PPPP****F1P*F0P*-F1*F0*'/8'*P*-",
    "(N\"*',\" ',)LF1'/0.054'&S1L.,)XF0'/0.08'&S0L.,),)",
)


def rose_decks(seed):
    # the deck is fixed; the seed selects nothing
    return [Deck(ROSE_CARDS, ())]


def _rose_row(y):
    cells = []
    x = f32(-2.0)
    dx = f32(0.054)
    for _ in range(74):
        x2 = f32(x * x)
        y2 = f32(y * y)
        s = f32(x2 + y2)
        s5 = f32(f32(f32(f32(s * s) * s) * s) * s)
        t = f32(x2 - y2)
        t = f32(t * x)
        t = f32(t * y)
        t = f32(t * 8.0)
        t = f32(t * t)
        cells.append("*" if f32(s5 - t) < 0 else " ")
        x = f32(x + dx)
    return "".join(cells)


def rose_oracle():
    rows = []
    y = f32(-2.0)
    dy = f32(0.08)
    for _ in range(50):
        rows.append(_rose_row(y))
        y = f32(y + dy)
    return rows


def check_rose(deck, lines, status):
    if status != 0:
        return f"status {status}"
    rows = [line for line in lines if len(line) == 74]
    if rows != rose_oracle():
        return "plot differs from the implicit-curve oracle"
    return None


# recursion: triangular numbers by a recursive subroutine

# quoted, these letters name nothing until a deck defines them
NAME_LETTERS = "BCEHJKMPQRWY"
TARGET_CALLS = 1000   # recursive calls per deck, so every deck costs about the same
MAX_DEPTH = (80, 95)  # deepest argument; RECURSION_LIMIT is 100 nested calls


def recursion_decks(seed):
    rng = random.Random(f"recursion-{seed}")
    decks = []
    for _ in range(DECKS_PER_SET):
        hi = rng.randint(*MAX_DEPTH)
        # T(k) makes k + 1 calls; pick the lowest k so the deck makes about
        # TARGET_CALLS of them
        lo, calls = hi + 1, 0
        while lo > 1 and calls + lo <= TARGET_CALLS:
            lo -= 1
            calls += lo + 1
        name = "'" + rng.choice(NAME_LETTERS)
        cards = (
            f"C TRIANGULAR NUMBERS {lo} TO {hi}",
            f"* N{name}",
            f"(0,P'/1'-{name}&,){name}",
            f"('/{lo - 1}'S0L(${hi - lo + 1}$F0'/1'&S0{name}OLX.,),)",
        )
        decks.append(Deck(cards, tuple(k * (k + 1) // 2 for k in range(lo, hi + 1))))
    return decks


def check_recursion(deck, lines, status):
    if status != 0:
        return f"status {status}"
    got = [field_value(line) for line in lines if FIELD_LINE.fullmatch(line)]
    if got != [float(v) for v in deck.expect]:
        return "triangular numbers differ"
    return None


# numeric-io: pairs of numbers read from data cards, printed with their product

PAIRS = 40
PAIRS_PER_CARD = 2
EXPONENT_SPAN = 20
PRODUCT_SPAN = 30     # keeps every product a normal float32
REL_TOLERANCE = 5.5e-6


def _datum(rng, exponent):
    digits = rng.randint(100000, 999999)
    sign = rng.choice(("", "-"))
    return f"{sign}{digits // 100000}.{digits % 100000:05d}E{exponent}"


def numeric_io_decks(seed):
    rng = random.Random(f"numeric-io-{seed}")
    decks = []
    for _ in range(DECKS_PER_SET):
        texts, expect = [], []
        for _ in range(PAIRS):
            ea = rng.randint(-EXPONENT_SPAN, EXPONENT_SPAN)
            eb = rng.randint(max(-EXPONENT_SPAN, -PRODUCT_SPAN - ea),
                             min(EXPONENT_SPAN, PRODUCT_SPAN - ea))
            ta, tb = _datum(rng, ea), _datum(rng, eb)
            a, b = f32(float(ta)), f32(float(tb))
            texts += [ta, tb]
            expect.append((a, b, f32(a * b)))
        data = [
            " ".join(f"'/{t}'" for t in texts[i:i + 2 * PAIRS_PER_CARD])
            for i in range(0, len(texts), 2 * PAIRS_PER_CARD)
        ]
        cards = (f"C PRODUCTS OF {PAIRS} PAIRS", f"* ((${PAIRS}$IOIO*OLX.,),)", *data)
        decks.append(Deck(cards, tuple(expect)))
    return decks


def check_numeric_io(deck, lines, status):
    if status != 0:
        return f"status {status}"
    rows = [m.groups() for m in map(PRODUCT_LINE.fullmatch, lines) if m]
    if len(rows) != len(deck.expect):
        return f"{len(rows)} rows printed, {len(deck.expect)} expected"
    for row, want in zip(rows, deck.expect):
        for text, value in zip(row, want):
            if abs(field_value(text) - value) > REL_TOLERANCE * abs(value):
                return f"field {text!r} is not {value!r}"
    return None


# compile-batch: groups of named definitions separated by erase commands

GROUPS = 3
GROUP_CELLS = 300     # no definition starts past this, far inside the 500-cell store
DEF_CELLS = (20, 60)  # cell budget of one definition's body
GROUP_CONSTANTS = 24  # the pool holds 30, one goes to the immediate program
CARD_COLUMNS = 72
OPERATORS = "ABCEHILMOPQRWX+&-*/"
PREDICATES = "N0J"
SEPARATORS = ",;.:"
LETTERS = "ABCEFHIJKMNOPQRWXY"


def _body(rng, depth, state, names):
    """Tokens of a random body; state counts cells left and constants left."""
    tokens = []
    for _ in range(rng.randint(1, 6)):
        if state["cells"] <= 0:
            break
        r = rng.random()
        if r < 0.30:
            tok, cells = rng.choice(OPERATORS), 1
        elif r < 0.42:
            tok, cells = rng.choice(PREDICATES), 2
        elif r < 0.50:
            tok, cells = rng.choice("FS") + str(rng.randint(0, 9)), 2
        elif r < 0.56 and state["constants"] > 0:
            state["constants"] -= 1
            tok, cells = f"'/{rng.randint(0, 99)}.{rng.randint(0, 99)}'", 2
        elif r < 0.61:
            tok, cells = f"${rng.randint(1, 99)}$", 4
        elif r < 0.65:
            n = rng.randint(1, 6)
            tok, cells = '"' + "".join(rng.choices(LETTERS, k=n)) + "'", 2 + n
        elif r < 0.68:
            tok, cells = "'*" + "".join(rng.choices(LETTERS, k=5)) + "'", 0
        elif r < 0.74 and names:
            tok, cells = rng.choice(names), 2
        elif r < 0.77:
            tok, cells = "=" + rng.choice(LETTERS), 3
        elif r < 0.90 and depth < 8:
            state["cells"] -= 2
            tokens += ["(", *_body(rng, depth + 1, state, names), ",", ")"]
            continue
        else:
            tok, cells = rng.choice(OPERATORS) + rng.choice(SEPARATORS), 2
        tokens.append(tok)
        state["cells"] -= cells
    if not tokens:
        state["cells"] -= 1
        tokens = ["L"]
    return tokens


def _wrap(tokens):
    """Cards of at most CARD_COLUMNS columns, never splitting a token."""
    cards, line = [], ""
    for tok in tokens:
        if line and len(line) + len(tok) > CARD_COLUMNS:
            cards.append(line)
            line = ""
        line += tok
    return cards + [line] if line else cards


def compile_batch_decks(seed):
    rng = random.Random(f"compile-batch-{seed}")
    decks = []
    for _ in range(DECKS_PER_SET):
        cards = []
        for g in range(1, GROUPS + 1):
            cards += [f"C GROUP {g}", "*E"]
            names = []
            constants = GROUP_CONSTANTS
            cells = 0
            tokens = []
            for letter in rng.sample(NAME_LETTERS, len(NAME_LETTERS)):
                if cells >= GROUP_CELLS:
                    break
                state = {"cells": rng.randint(*DEF_CELLS), "constants": constants}
                budget = state["cells"]
                body = _body(rng, 1, state, names)
                constants = state["constants"]
                # entry cell, the level-zero sequent and close, the terminal
                cells += budget - state["cells"] + 4
                tokens += ["(", *body, ",", f")'{letter} "]
                names.append("'" + letter)
            cards += _wrap(tokens)
            cards.append(f"('/{g}'OX,)")
        decks.append(Deck(tuple(cards), tuple(range(1, GROUPS + 1))))
    return decks


def check_compile_batch(deck, lines, status):
    if status != 0:
        return f"status {status}"
    if any(CATALOG_LINE.match(line) for line in lines):
        return "a catalog message was printed"
    got = [field_value(line) for line in lines if FIELD_LINE.fullmatch(line)]
    if got != [float(g) for g in deck.expect]:
        return "the immediate programs printed the wrong values"
    return None


# name -> (deck generator, output check)
WORKLOADS = {
    "rose": (rose_decks, check_rose),
    "recursion": (recursion_decks, check_recursion),
    "numeric-io": (numeric_io_decks, check_numeric_io),
    "compile-batch": (compile_batch_decks, check_compile_batch),
}
