"""Compare reca's number formatter with a reference on random finite
float32 values.

    python3 tools/format_sweep.py --seed 32 --count 1000000

Run from anywhere inside a git checkout; only the standard library is
needed.  It draws random 32-bit patterns from --seed, skips those of inf
and nan, and formats each of the first --count finite values two ways:
with this checkout's numio.scientific_text, and with reference_text
below, the frozen formatter's rounding trail, one struct round a step
and one round a digit.  tests/test_numio.py compares scientific_text
with the same reference_text, on chosen values and in every binade.
It prints how many values it compared and how many fields differed, and
the bit patterns of the first mismatches with both fields.  The exit
status is 1 on any mismatch, else 0.
"""

import argparse
import random
import struct
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SHOWN = 10  # mismatches printed

_FLOAT = struct.Struct("<f")
_BITS = struct.Struct("<I")


def f32(x):
    """x rounded to float32, as C's double-to-float cast rounds it."""
    return _FLOAT.unpack(_FLOAT.pack(x))[0]


ROUND_HALF_DIGIT = f32(5.0e-6)


def reference_text(value):
    """The 13-character field of finite float32 value: normalize into
    [1, 10) one float32 multiply a decade, add the rounding bias, carry,
    then peel six digits with one float32 round for each of v - d and
    10 * (v - d)."""
    k = 0
    v = value if value >= 0 else -value
    if v > 0:
        while v < 10.0:
            v = f32(v * 10.0)
            k -= 1
        while v >= 10.0:
            v = f32(v * 0.1)
            k += 1
    v = f32(v + ROUND_HALF_DIGIT)
    if v >= 10.0:
        v = f32(v * 0.1)
        k += 1
    n = int(v)
    digits = [n]
    for _ in range(5):
        v = f32(10.0 * f32(v - n))
        n = int(v)
        digits.append(n)
    return (f" {'-' if value < 0 else ' '}{digits[0]}."
            f"{''.join(map(str, digits[1:]))}E{'-' if k < 0 else ' '}{abs(k):02}")


def finite_values(seed, count):
    """(bit pattern, value) of the first count finite float32 patterns
    that a random.Random(seed) draws."""
    rng = random.Random(seed)
    while count:
        bits = rng.getrandbits(32)
        if bits >> 23 & 0xFF != 0xFF:
            count -= 1
            yield bits, _FLOAT.unpack(_BITS.pack(bits))[0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(CHECKOUT / "src"))
    from reca.numio import scientific_text

    mismatches = 0
    for bits, value in finite_values(args.seed, args.count):
        field, expected = scientific_text(value), reference_text(value)
        if field != expected:
            mismatches += 1
            if mismatches <= SHOWN:
                print(f"0x{bits:08x}: scientific_text {field!r}, reference {expected!r}")
    print(f"seed {args.seed}: {args.count} finite float32 values, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
