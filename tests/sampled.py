"""The sampled integrability decision: the oracle side of the reduction identity.

`integrable_4d` decides by one exact polynomial identity.  This is the loop
it replaced: random travelling-wave reductions over random directions,
quadratic shifts and chart permutations, each tested by `linearisable_3d`.
One non-linearisable reduction is an exact counterexample; passing samples
only support the positive verdict.
"""

from fractions import Fraction
from itertools import permutations
from random import Random

from heavenly.errors import ZeroReduction
from heavenly.integrability import (
    Linearisability,
    ReductionSample,
    linearisable_3d,
    travelling_wave_reduce,
)

PERMUTATIONS = list(permutations((1, 2, 3, 4)))


def random_sample(rng):
    """A reduction with k_a in [-6, 6] / [1, 3] and Q_ab in [-4, 4] / [1, 2]."""
    k = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
    q = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            q[i][j] = q[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
    return ReductionSample.from_values(k, q)


def sampled_integrable(eq, trials=50, seed=0):
    """(False, (sample, perm)) at the first non-linearisable reduction among
    `trials` random ones, else (True, number of nondegenerate reductions run)."""
    rng = Random(seed)
    run = 0
    for _ in range(trials):
        sample = random_sample(rng)
        perm = rng.choice(PERMUTATIONS)
        try:
            reduced = travelling_wave_reduce(eq, sample, perm)
        except ZeroReduction:
            continue
        status = linearisable_3d(reduced, seed=rng.randrange(10 ** 6))
        if status is Linearisability.NOT_LINEARISABLE:
            return False, (sample, perm)
        run += status is Linearisability.LINEARISABLE
    return True, run
