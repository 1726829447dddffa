"""Property: any deck, well-formed or not, ends with status 0 or 1.

Decks are generated from the language's pieces, legal and illegal: every
kind of operator (including the card readers I and R), predicates,
counters, constants, strings, reserved letters, nesting, named and
immediate programs, monitor commands and data cards.  Under a step
budget, run_deck must return, and no exception (a Diagnostic or an
EndOfInput among them) may escape it.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reca.session import SessionConfig, run_deck

PUSHES = ["'/1'", "'/-2.5E1'", "'/0.5'", "'/1E30'", "F1", "F0", "I", "P"]
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


def _deck(rng):
    ill_formed = rng.random() < 0.5
    cards = []
    for _ in range(rng.randint(1, 5)):
        r = rng.random()
        if r < 0.25:
            cards.append(rng.choice(DATA))
        elif r < 0.3:
            cards.append("*T")
        else:
            text = ("*" + rng.choice(COMMANDS) + "(" + _body(rng, 1, ill_formed)
                    + rng.choice(SEPARATORS) + ")" + rng.choice(NAMES))
            # a long program runs on over as many cards as it needs
            cards.extend(text[i:i + 80] for i in range(0, len(text), 80))
    return cards


DECKS = st.randoms(use_true_random=False).map(_deck)


@settings(max_examples=200, deadline=None)
@given(DECKS, st.sampled_from([80, 120]))
@example(["*($90$R.,\"DONE'X,)"], 120)
@example(["*S", "((.),)"], 80)
@example(["*(:M(H.,),)"], 120)
def test_every_deck_ends_with_a_status(deck, width):
    sess, status = run_deck(deck, config=SessionConfig(width=width, max_steps=2000))
    assert status in (0, 1)
