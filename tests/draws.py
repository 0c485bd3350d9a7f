"""Seeded random instances for the tests, by the recipe of ROADMAP's study tables.

`general(m, s)` is the general-probability draw ``general:{m}:{s}``: h is a
sample of m distinct integers in 1..100, sorted in descending order; the
integer weights 1..4 are redrawn until the largest is at most 2/5 of their
total; pi is the weights over their total, and epsilon = 2/5.
"""

import random
from fractions import Fraction

from mixcut.core import MixingInstance, build_instance


def general(m: int, s: int) -> MixingInstance:
    rng = random.Random(f"general:{m}:{s}")
    h = sorted(rng.sample(range(1, 101), m), reverse=True)
    while True:
        weights = [rng.randint(1, 4) for _ in range(m)]
        if 5 * max(weights) <= 2 * sum(weights):
            break
    total = sum(weights)
    return build_instance(m, h, [Fraction(w, total) for w in weights], Fraction(2, 5))
