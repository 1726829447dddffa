"""End-to-end acceptance checks.

Each test prints a single PASS line when its criterion holds; a failing
assertion doubles as the FAIL line.  The demo decks are run through the
full monitor / compiler / interpreter pipeline and their output compared
against independent oracles computed here in float32.
"""

import math
import random
import re
import struct
import time

from reca import decks
from reca.numio import format_number, parse_text
from reca.session import Session, run_deck

from conftest import check_integrity, field_value

FIELD = re.compile(r"[ -]\d\.\d{5}E[ -]\d\d")
SHAPE = re.compile(r"^ [ -]\d\.\d{5}E[ -]\d\d$")


def f32(x):
    """x rounded to float32 through struct, not through the code under test."""
    return struct.unpack("f", struct.pack("f", x))[0]


def report(label):
    print(f"PASS: {label}")


def output_of(deck, **kwargs):
    sess, status = run_deck(deck, **kwargs)
    return [l for l in sess.output if l != "\f"], status


def timed(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# 1. the recursive factorial subroutine compiles to a known object listing


def test_factorial_object_listing():
    lines, status = output_of(decks.FACTORIAL)
    assert status == 0
    i = lines.index("      0    -22      5     20    -49     11    -20    -98      1     20    -24")
    assert lines[i + 1] == "    -98      2    -33    -90     19    -29     20      0      1"
    elapsed = timed(lambda: run_deck(decks.FACTORIAL))
    assert elapsed < 0.010, f"factorial deck took {elapsed * 1000:.2f}ms"
    report("factorial compiles to the expected 20-cell listing in under 10ms")


# 2. the factorial table prints ten exact rows of 13-character fields


def test_factorial_table_rows():
    lines, status = output_of(decks.FACTORIAL)
    rows = [l for l in lines if l.startswith("  ") and "E" in l]
    assert len(rows) == 10
    for k, row in enumerate(rows, start=1):
        fields = [row[i:i + 13] for i in range(0, 26, 13)]
        assert all(SHAPE.match(fld) for fld in fields), row
        assert field_value(fields[0]) == float(k)
        assert field_value(fields[1]) == float(math.factorial(k))
    assert rows[-1] == "  1.00000E 01  3.62880E 06"
    report("factorial table prints ten exact rows of 13-character fields")


# 3. Simpson integration of 4/(1+x^2) over [0,1] recovers pi


def test_simpson_pi():
    lines, status = output_of(decks.SIMPSON_PI)
    assert status == 0
    row = next(l for l in lines if l.startswith("PI="))
    value = field_value(row[3:16])
    assert abs(value - math.pi) < 2e-4, row
    report("Simpson quadrature prints PI within 2e-4 of the true value")


# 4. the damped oscillation table matches a float32 oracle


def test_damped_oscillation_table():
    lines, status = output_of(decks.DAMPED_OSCILLATION)
    assert status == 0
    rows = [l for l in lines if len(l) >= 26 and FIELD.match(l[1:14])]
    assert len(rows) == 51
    x = f32(0.0)
    step = f32(0.15)
    for k, row in enumerate(rows):
        got_x = field_value(row[0:13])
        got_y = field_value(row[13:26])
        want_x = 0.15 * k
        if k == 0:
            assert got_x == 0.0
        else:
            assert abs(got_x - want_x) / want_x < 1e-4, row
        want_y = math.sin(3.0 * x) * math.exp(-0.3 * x)
        assert abs(got_y - want_y) < 5e-4, row
        x = f32(x + step)
    report("damped oscillation table: 51 rows within tolerance of the oracle")


# 5. the eight-petal rose plot is cell-for-cell what the implicit curve says


def _rose_oracle_row(y):
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


def test_rose_plot_matches_oracle():
    lines, status = output_of(decks.ROSE_CURVE)
    assert status == 0
    rows = [l for l in lines if len(l) == 74]
    assert len(rows) == 50
    y = f32(-2.0)
    dy = f32(0.08)
    for row in rows:
        assert row == _rose_oracle_row(y)
        y = f32(y + dy)
    elapsed = timed(lambda: run_deck(decks.ROSE_CURVE))
    assert elapsed < 0.200, f"rose deck took {elapsed * 1000:.1f}ms"
    report("rose plot: 50x74 cells identical to the implicit-curve oracle, under 200ms")


# 6. counter iteration counts: leading counter runs the body n times,
#    trailing counter n+1 times


def _stars(deck):
    lines, status = output_of(deck)
    assert status == 0
    return "".join(lines[1:]).count("*")


def test_counter_iteration_counts():
    for n in (1, 2, 5, 50):
        assert _stars([f"*S (${n}$\"*'.,)"]) == n
        assert _stars([f"*S (\"*'${n}$.,)"]) == n + 1
    report("counters: $n$ before the body gives n passes, after it n+1")


# 7. every diagnostic in the catalog is reachable and printed verbatim


DIAGNOSTIC_DECKS = [
    (["*((((((((((("], "COMP 01 EXCESS NESTING"),
    (["*(" + "A" * 78] + ["A" * 80] * 6, "COMP 02 PROGRAM LENGTH EXCEEDS CAPACITY"),
    (["*(FA"], "COMP 03 ILLEGAL ARGUMENT"),
    (["*(A,)Z", "B"], "COMP 04 ILLEGAL CHARACTER ON PARENTHESIS LEVEL ZERO"),
    (["*($0$"], "COMP 05 NEGATIVE OR ZERO COUNTER"),
    (["*(" + "'/1'" * 19, "'/1'" * 12 + ",)"], "COMP 06 PROGRAM DEFINED CONSTANT EXCESS"),
    (["*(D"], "COMP 07 REC/3150 OPERATOR"),
    (["*(I,)", "XYZ"], "CONV 01 SYNTAX ERROR IN NUMERIC DATA"),
    (["* N'R", "('R,)'R", "('R,)"], "EXEC 01 EXCESSIVE RECURSION"),
    (["*(*,)"], "EXEC 02 EMPTY PUSHDOWN LIST"),
    (["*('/1'(P.),)"], "EXEC 03 PUSHDOWN LIST OVERFLOW"),
    (["* N'Q", "('Q,)"], "EXEC 04 RECURSIVE SUBROUTINE NOT DEFINED"),
    (["*(K,)"], "EXEC 05 UNDEFINED NONRECURSIVE SUBROUTINE"),
    (["*O5"], "SUP 01 ILLEGAL I/O UNIT NUMBER"),
]


def test_all_diagnostics_verbatim():
    for deck, message in DIAGNOSTIC_DECKS:
        lines, status = output_of(deck)
        assert status == 1, message
        assert message in lines, message
    report("all 14 diagnostics are reachable and printed verbatim")


# 8. print-and-reread round trip keeps six significant digits


def test_numeric_round_trip():
    rng = random.Random(20260825)
    for _ in range(1000):
        v = f32(rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20))
        field = format_number(v)
        assert SHAPE.match(field), field
        text = field.replace("E ", "E").strip() + "'"
        back, term = parse_text(text)
        assert term == "'"
        if v == 0:
            assert back == 0
        else:
            assert abs(back - v) / abs(v) < 5.5e-6, (v, field, back)
    report("1000 random values survive a print-and-reread round trip")


# 9. randomly generated programs always compile to a well-formed store


OPERATORS = "ACEHMQPLOWX+&-*/"
PREDICATES = "N0J"
SEPARATORS = ",;.:"


def _random_body(rng, depth, budget):
    parts = []
    for _ in range(rng.randint(1, 6)):
        if budget[0] <= 0:
            break
        r = rng.random()
        if r < 0.5:
            parts.append(rng.choice(OPERATORS))
            budget[0] -= 1
        elif r < 0.7:
            parts.append(rng.choice(PREDICATES))
            budget[0] -= 2
        elif r < 0.85 and depth < 9:
            budget[0] -= 3
            parts.append("(" + _random_body(rng, depth + 1, budget) + ",)")
        else:
            parts.append(rng.choice(OPERATORS) + rng.choice(SEPARATORS))
            budget[0] -= 2
    return "".join(parts) or "L"


def test_random_programs_compile_clean():
    rng = random.Random(17041970)
    for _ in range(500):
        body = _random_body(rng, 1, [120])
        # split the program across as many 80-column cards as it needs
        text = f"({body},)YY"
        cards = ["*S"] + [text[i:i + 80] for i in range(0, len(text), 80)]
        sess = Session(cards=cards)
        status = sess.run()
        assert status == 0, body
        last = sess.store.ilc0 - 1
        assert last >= 3, body
        check_integrity(sess.store, 1, last)
    report("500 random programs compile to well-formed threaded code")
