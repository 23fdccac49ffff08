"""True positives for rng-discipline: legacy globals and unseeded generators."""

import numpy as np
from numpy.random import default_rng

np.random.seed(1234)  # legacy global RNG state

values = np.random.rand(4)  # draws from the shared global stream

rng = default_rng()  # unseeded: every run draws differently

other = np.random.default_rng(None)  # literal None seed is still unseeded

keyword_none = np.random.default_rng(seed=None)  # an explicit None keyword is unseeded too

bare_keyword_none = default_rng(seed=None)

legacy_stream = np.random.RandomState()  # seedable, but no seed given

wrapped = np.random.Generator(np.random.PCG64())  # the bit generator is unseeded

sequence = np.random.SeedSequence()  # entropy drawn from the OS
