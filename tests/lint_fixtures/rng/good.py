"""Clean RNG usage: seeded, locally owned generators only."""

import numpy as np
from numpy.random import default_rng

rng = default_rng(1234)
values = rng.normal(size=4)

other = np.random.default_rng(42)
draws = other.integers(0, 10, size=3)


def sample(seed: int):
    local = np.random.default_rng(seed)
    return local.random(2)


keyword_seeded = np.random.default_rng(seed=7)
bare_keyword_seeded = default_rng(seed=7)
legacy_stream = np.random.RandomState(7)
wrapped = np.random.Generator(np.random.PCG64(7))
sequence = np.random.SeedSequence(entropy=7)
