"""Example decks exercising the major language features.

Each deck is the list of card lines of the .deck file beside this module;
the files are what `reca <file>` runs.
"""

import os

_HERE = os.path.dirname(__file__)


def _cards(name):
    with open(os.path.join(_HERE, f"{name}.deck"), encoding="utf-8") as fh:
        return fh.read().splitlines()


# recursive factorial: defines 'R, then tabulates n and n! for n = 1..10
FACTORIAL = _cards("factorial")

# x and sin(3x)*exp(-0.3x) for x = 0, 0.15, ..., 7.5 (51 rows)
DAMPED_OSCILLATION = _cards("damped_oscillation")

# pi by Simpson's rule on 4/(1+x*x) over [0,1], 40 panels
SIMPSON_PI = _cards("simpson_pi")

# 50 x 74 character plot of the region where
# (x*x+y*y)**5 - (8*(x*x-y*y)*x*y)**2 is negative (an eight-petal rose)
ROSE_CURVE = _cards("rose_curve")
