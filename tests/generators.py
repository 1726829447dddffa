"""Decks and run snapshots shared by the property tests and
tools/differential.py.

deck(rng) builds a random deck from the language's pieces, legal and
illegal: every kind of operator (including the card readers I and R),
predicates, counters, constants (float32 edge values among them), strings,
reserved letters, nesting, immediate programs, named programs each
followed by a program that calls it, predicate subroutines that can run
on to their end and return false there, monitor commands and data cards.

float_edge_decks() gives one deck for each operator and each float32 edge
operand (or pair of them), shaped as float_edge_deck describes.

column_80_decks() gives decks whose number tokens (constants, counters and
I data) reach column 80 and run across it onto the next card, and
compile_80_decks() decks whose other compiler tokens do: quote prefixes,
the arguments of S, F and =, names, comments and strings.  monitor_decks(),
keypunch_decks() and overflow_decks() give decks that use each monitor
command, the keypunch glyphs % < @ #, and programs that fill the store;
datum_decks() decks whose I data are framed well and badly, after blanks
across cards and across column 80, on the card unit and the keyboard;
number_decks() decks that read and print numbers at float32's edges.
BRANCH_DECKS reach branches that no deck drawn by deck(rng) reaches.
cut_short(deck) gives deck cut short after each card and at each column
of its last card.

snapshot(sess, status) records everything a run leaves behind, both
dispatch tables included, so that two runs of one deck can be compared
field by field.

Only the standard library is imported here, and nothing from reca: the
differential tool runs snapshot under another checkout's reca.
"""

import struct

# float32 edge operands: card text and the value the parser gives for it
EDGE_OPERANDS = [
    ("0", 0.0), ("1", 1.0), ("-1", -1.0),
    ("1E-45", struct.unpack("f", struct.pack("f", 1e-45))[0]),
    ("1E38", struct.unpack("f", struct.pack("f", 1e38))[0]),
    ("3.4028235E38", struct.unpack("f", struct.pack("f", 3.4028235e38))[0]),
    ("1E39", float("inf")), ("-1E39", float("-inf")), ("0E99", float("nan")),
    # just below and just above the largest argument E takes; the parser's
    # float32 steps put 88.73 one unit below the nearest float32
    ("88.72", struct.unpack("f", struct.pack("f", 88.72))[0]),
    ("88.73", 88.72999572753906),
    # the tolerance of 0 and J, either sign, and the float32 just above it
    ("5E-6", struct.unpack("f", struct.pack("f", 5e-6))[0]),
    ("-5E-6", struct.unpack("f", struct.pack("f", -5e-6))[0]),
    ("5.0000003E-6", 5.000000328436727e-06),
]
UNARY = ["A", "C", "E", "H", "M", "Q", "'A", "'L", "'S"]
BINARY = ["&", "+", "-", "*", "/", "B"]
TESTS = ["N", "0", "J"]

PUSHES = (["'/1'", "'/-2.5E1'", "'/0.5'", "'/1E30'", "F1", "F0", "I", "P"]
          + [f"'/{text}'" for text, _ in EDGE_OPERANDS])
OPERATORS = [
    "A", "B", "C", "E", "H", "L", "M", "O", "Q", "R", "W", "X",
    "+", "&", "-", "*", "/", "'A", "'L", "'S", "S2", "\"HI'", "'*NOTE'",
]
PREDICATES = ["N", "0", "J", "=A", "#/", "$3$", "$1$", "K", "Y", "'R", "'Q"]
ILL_FORMED = ["D", "T", "'Z", "SZ", "F", "$0$", "$-2$", "'/X'", ")", "(((("]
SEPARATORS = [",", ";", ".", ":"]
NAMES = ["   ", "   ", "   ", "  L", "K  ", "Y  ", "'R ", "'Q "]
COMMANDS = ["", "", "E", "S", "O1", "O3", "O9", "N'Q", "N'R", "I6"]
DATA = ["'/1'", "'/-2.5E1'", " '/3 '", "'/7E-3' '/2'", "XYZ", "", "C NOTE"]


def _body(rng, depth, ill_formed):
    parts = []
    for _ in range(rng.randint(1, 6)):
        r = rng.random()
        if r < 0.3:
            parts.append(rng.choice(PUSHES))
        elif r < 0.6:
            parts.append(rng.choice(OPERATORS))
        elif r < 0.75:
            parts.append(rng.choice(PREDICATES))
        elif r < 0.9 and depth < 6:
            parts.append("(" + _body(rng, depth + 1, ill_formed)
                         + rng.choice(SEPARATORS) + ")")
        else:
            parts.append(rng.choice(SEPARATORS))
    if ill_formed and rng.random() < 0.3:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(ILL_FORMED))
    return "".join(parts)


def deck(rng, straddle=False):
    """A random deck (a list of cards) drawn with rng, a random.Random.

    With straddle, each program is laid across its cards at a random card
    width: its first card holds that many columns of its text, from the
    ( on, after the * and the command and enough blanks, and the rest
    follows on full 80-column cards, so that a token of every class, name
    and ) included, comes to lie across column 80 in some deck."""
    ill_formed = rng.random() < 0.5
    cards = []
    for _ in range(rng.randint(1, 5)):
        r = rng.random()
        if r < 0.3:
            cards.append(rng.choice(DATA) if r < 0.25 else "*T")
            continue
        if r < 0.4:
            # a predicate subroutine, recursive or not, with no separator
            # before its ), so that it can run on to its end and return
            # false there; and a program that calls it
            name = rng.choice(["K", "Y", "'R", "'Q"])
            head = "*" + rng.choice(["", "N" + name])
            text = (f"({_body(rng, 1, ill_formed)}){name:<3}"
                    f"({rng.choice(PUSHES)}({name}\"T',\"F',)X,)   ")
        else:
            head = "*" + rng.choice(COMMANDS)
            text = "(" + _body(rng, 1, ill_formed) + rng.choice(SEPARATORS) + ")"
            name = rng.choice(NAMES)
            text += name
            if name[0] != " ":
                # a named program is followed, on the same card, by a
                # program that calls it
                text += f"({rng.choice(PUSHES)}({name.strip()}\"T',\"F',)X,)   "
        if straddle:
            width = rng.randint(1, 80 - len(head))
            text = head + " " * (80 - len(head) - width) + text
        else:
            text = head + text
        # a long program runs on over as many cards as it needs
        cards.extend(text[i:i + 80] for i in range(0, len(text), 80))
    return cards


def float_edge_deck(op, texts):
    """Push the operands, apply op and keep its result in variable 1, then
    print 1 in its place.  A test op leaves 2 in variable 1 when its
    condition holds and 3 when not.  Since the printed value is fixed, a
    fault that should not happen shows as a missing line."""
    pushes = "".join(f"'/{text}'" for text in texts)
    if op in TESTS:
        pops = "L" * len(texts)
        op = f"({op}'/2',{pops}'/3',)"
    return [f"*({pushes}{op}S1L'/1'OX,)"]


def float_edge_decks():
    decks = []
    for op in UNARY + ["N", "0"]:
        decks.extend(float_edge_deck(op, [text]) for text, _ in EDGE_OPERANDS)
    for op in BINARY + ["J"]:
        decks.extend(float_edge_deck(op, [x, y])
                     for x, _ in EDGE_OPERANDS for y, _ in EDGE_OPERANDS)
    return decks


# (program, token, what follows it): each token is laid so that it reaches
# column 80 and runs across it; I data follows its program on data cards
COLUMN_80_TOKENS = [
    ("*(", "'/-12.5E-1'", "OX,)"),
    ("*(", "'/    7.25'", "OX,)"),       # blanks before the number
    ("*(", "'/3E1     '", "OX,)"),       # blanks after it
    ("*(", "@/-1.5E&1@", "OX,)"),        # keypunch quotes
    ("*(", "'/12.5", ""),                # the cards end inside the constant
    ("*((", "$12$", "'/1'OX.,),)"),
    ("*((", "$   3$", "'/2'OX.,),)"),
    ("*(", "$25", ""),
    ("*(($2$IOX.,),)", "'/-3.125E&2'", " '/4'"),
    ("*(($2$IOX.,),)", "'/   4     '", "'/.5'"),
    ("*(IOX,)", "'/12.5", ""),
]


def straddling_decks(program, token, rest):
    """token laid so that it reaches column 80: one deck for each column
    of it that can fall there, and one with it starting the next card."""
    data = program.endswith(")")
    lead = "" if data else program
    decks = []
    for start in range(80 - len(token), 81):  # 0-based column of token
        text = lead + " " * (start - len(lead)) + token + rest
        cards = [text[i:i + 80] for i in range(0, len(text), 80)]
        decks.append([program, *cards] if data else cards)
    return decks


def cut_short(deck):
    """deck cut short after each of its cards, itself included, and at
    every column of its last card."""
    return ([deck[:k] for k in range(1, len(deck) + 1)]
            + [deck[:-1] + [deck[-1][:column]] for column in range(len(deck[-1]))])


def column_80_decks():
    return [deck for entry in COLUMN_80_TOKENS for deck in straddling_decks(*entry)]


# (program, token, what follows it) for the compiler's own tokens, laid as
# straddling_decks lays them: every class of character the compiler reads
# runs across column 80 in one of these decks
COMPILE_80_TOKENS = [
    ("*(", "'AOX", ",)"),               # quote prefix and quoted operator
    ("*('/2'", "S1F1", "OX,)"),         # the digit of S and of F
    ("*(", "FA", "OX,)"),               # COMP 03 from the next card
    ("*(", "=A", "'/1'OX,)"),           # the character of =
    ("*(", "(A.,)", "'/1'OX,)"),        # nesting and the repeat
    ("*(", "N;'/1'", "OX,)"),           # predicate, sequent
    ("*(A,", ")'Y ", "('/1''Y OX,)"),   # level-zero ) and its name
    ("*(A,", ")Y L", "  ('/1'OX,)"),    # the listing letter
    ("*('/2'OX,", ")  L", ""),          # an immediate program's name
    ("*(", "'*A NOTE'", "'/1'OX,)"),    # a comment body
    ("*(", '"HI THERE\'', "X,)"),       # a string body
    ("*(", "'/5 '", "OX,)"),            # a blank before the closing quote
    ("*(", "$3 A", ",)"),               # a counter ended by a blank
]


def compile_80_decks():
    return [deck for entry in COMPILE_80_TOKENS for deck in straddling_decks(*entry)]


# decks that use each of the monitor's commands; monitor_decks() adds
# decks with a command laid across column 80
MONITOR_DECKS = [
    ["*I6", "('/1'OX,)"],
    ["*I6('/1'OX,)", "%@/2@OX<"],
    ["*I2O1('/1'OX,)", "C ON UNIT ONE", "*O3('/2'OX,)"],
    ["*O2('/1'OX,)", "*O3('/2'OX,)"],
    ["*S('/1'OX,)", "*('/2'OX,)"],
    ["*E", "(A,)Y", "('/1'Y OX,)", "*E", "('/2'Y OX,)"],
    ["* N'Q", "(N,0L'/1',P'/1'-'Q*,)'Q", "('/5''Q OX,)"],
    ["*N'Q", "('/1''Q OX,)"],
    ["*T('/1'OX,)", "*('/2'OX,)"],
    ["*I5O7('/1'OX,)"],
    # the rest of the card after I is read as the new unit reads it
    ["*I6%@/1@OX<", "('/2'OX,)"],
    ["*I6" + " " * 76 + "I", "2%@/1@OX<"],
]


def monitor_decks():
    decks = list(MONITOR_DECKS)
    for command in ("I6", "O1", "S", "E", "N'Q", "O9"):
        decks.extend(straddling_decks("*", command, "('/1'OX,)"))
    return decks


# the keypunch glyphs % < @ # stand for ( ) ' = on the card unit
KEYPUNCH_DECKS = [
    ["*%@/2@OX<"],
    ["*%@/2@S1#A@/1@OX<"],
    ['*%"AB@X@*NOTE@@/3@OX<'],
    ["*%A,<Y", "%@/1@Y OX,<"],
    ["*%%@/1@OX.,<,<"],
    ["*%$2$@/1@OX.,<"],
    ["*%@/1@OX,< ", "*(@/2@OX,)"],
]


def keypunch_decks():
    decks = list(KEYPUNCH_DECKS)
    decks.extend(straddling_decks("*%", "@/1.5@", "OX<"))
    decks.extend(straddling_decks("*%A,", "<Y L", "%@/1@OX,<"))
    return decks


# I data frames, well and badly formed: keypunch quotes, blanks inside the
# frame and after the number, an empty number, no quote, no slash, a blank
# between quote and slash, a terminator that is neither blank nor quote,
# a second point, and no closing quote
DATUM_FRAMES = [
    "'/1.5'", "@/1.5@", "'/ -2.5E1 '", "'/7E-3'", "'/'", "'1.5'", "/1.5'",
    "' /1.5'", "'/1.5X", "'/1.5.5'", "'/1.5/", "'/1.5", "X'/1.5'",
]
# two reads, on the card unit and, after *I6, on the keyboard, where the
# cards are read without the keypunch substitutions
DATUM_PROGRAMS = ["*(($2$IOX.,),)", "*I6(($2$IOX.,),)"]


def datum_decks():
    """Decks whose I data are each of DATUM_FRAMES, followed by a good
    datum: on a card of their own, after blanks that run over two cards,
    and laid across column 80; and a datum whose closing quote follows
    blanks that run onto the next card."""
    decks = []
    for program in DATUM_PROGRAMS:
        for frame in DATUM_FRAMES:
            decks.append([program, frame + " '/4'"])
            decks.append([program, "", " " * 80, " " * 40 + frame, "'/4'"])
            decks.extend(straddling_decks(program, frame, " '/4'"))
        decks.append([program, " " * 75 + "'/3", "   '", "'/4'"])
    return decks


# I data at float32's edges: subnormals and the smallest normal, the
# largest float32 and values that round to it, mantissas of 24 to 46
# digits whose digit steps pass 1e30, and every decimal exponent from -45
# to 38; then data that read as inf or nan, on which O faults
NUMBER_DATA = [
    "1E-45", "7E-46", "-1.4E-45", "2.5E-40", "-9.99999E-39", "1.1754942E-38",
    "1.1754944E-38", "3.4028235E38", "-3.4028234E38", "-3.4028236E38",
    "9" * 24, "-" + "9" * 31, "2" * 38, "1" * 20 + "." + "1" * 15,
    "." + "0" * 44 + "15E5", "-" + "3" * 30 + "." + "3" * 8 + "E-45",
    *(f"{m}E{e}" for e in range(-45, 39) for m in ("1", "-2.71828", "3.14159")),
]
NUMBER_INF = [
    "1E39", "340282356779733661637539395458142568447", "9" * 56,
    "1" * 24 + "." + "1" * 24, "1" + "0" * 40 + "E-10", "3.14159" + "0" * 40 + "E-40",
]


def _data_cards(data):
    """Framed data laid on cards, as many a card as fit in 80 columns."""
    cards = [""]
    for text in data:
        datum = f" '/{text}'"
        if len(cards[-1]) + len(datum) > 80:
            cards.append("")
        cards[-1] += datum
    return cards


def number_decks():
    """Decks that read NUMBER_DATA with I and print each datum with O,
    twelve a deck; and for each of NUMBER_INF a deck that reads and
    prints 1.5 and then it."""
    read = "*(($%d$IOX.,),)"
    decks = [[read % len(data), *_data_cards(data)]
             for data in (NUMBER_DATA[i:i + 12] for i in range(0, len(NUMBER_DATA), 12))]
    decks.extend([read % 2, *_data_cards(["1.5", text])] for text in NUMBER_INF)
    return decks


def overflow_decks():
    """Programs that fill the store, so that COMP 02 comes with the last
    character read at column 1, 17, 40, 63 or 80 of a card: operators,
    counters, strings that reach cell 497, and a named program before."""
    # (fill, how many of its characters are read when COMP 02 comes, rest)
    fills = [
        ("A" * 494, 494, "OX,)"),
        ("$1$" * 124, 372, "A,)"),
        ('"' + "B" * 500 + "'", 494, "X,)"),
        ("A" * 300 + '"' + "C" * 300 + "'", 494, "X,)"),
    ]
    decks = []
    for column in (1, 17, 40, 63, 80):
        for fill, read, rest in fills:
            text = "*(" + " " * ((column - 2 - read) % 80) + fill + rest
            decks.append([text[i:i + 80] for i in range(0, len(text), 80)])
        # Y takes cells 1 to 5, so 489 operators fill the next program
        text = "*(A,)Y  " + " " * ((column - 498) % 80) + "(" + "A" * 489 + ",)"
        decks.append([text[i:i + 80] for i in range(0, len(text), 80)])
    return decks


# an R that reads the character = names, and one that reads another; 31
# constants in one program, one more than the pool holds (COMP 06); and
# constants whose power of ten overflows a double, read as inf and, for
# the number zero, nan
_CONSTANTS = "*(" + "'/1'" * 31 + ",)"
BRANCH_DECKS = [
    ["*(R(=A\"MATCH',\"NO MATCH',)X,)   A"],
    ["*(R(=A\"MATCH',\"NO MATCH',)X,)   B"],
    [_CONSTANTS[:80], _CONSTANTS[80:]],
    ["*('/1E400'OX,)"],
    ["*('/0E400'OX,)"],
]


def _bits(values):
    """Floats as one hex string of their doubles: exact, nan and -0.0
    included."""
    return struct.pack(f"<{len(values)}d", *values).hex()


def _binding(value):
    """An exec-table entry as a plain value: an operation number (0 for
    none), a defined program as [entry], whose linkage kind the store
    cells hold at entry, and the binding of a program declared recursive
    but not yet defined as its name."""
    if type(value) is int:
        return value
    if hasattr(value, "entry"):
        return [value.entry]
    return str(value)


def snapshot(sess, status):
    """Everything a run of run_deck leaves behind, field by field, in
    plain values that compare with == and pass through JSON."""
    reader, store = sess.reader, sess.store
    return {
        "output": list(sess.output),
        "punch": list(sess.punch),
        "status": status,
        "reader notes": list(reader.diagnostics),
        "iac": reader.iac,
        "input unit": reader.unit,
        "reader cursor": reader.cursor,
        "output unit": sess.writer.unit,
        "stack": _bits(sess.stack),
        "variables": _bits(sess.variables),
        "constants": _bits(sess.constants),
        "store cells": list(store.cells),
        "ilc": store.ilc,
        "ilc0": store.ilc0,
        "compile table": list(sess.compile_code),
        "exec table": [_binding(b) for b in sess.exec_code],
    }
