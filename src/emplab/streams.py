"""Deterministic, splittable random streams.

A stream is named by a seed path and a tag.  The seed path is a tuple of
integers whose first entry is the master seed and whose remaining entries
index the experiment cell, trial, draw block, etc.; the tag is one of the
names in ``TAGS``, each fixed to a small integer.  A stream is derived as

    SeedSequence(entropy=master_seed, spawn_key=(*indices, TAGS[tag]))

and fed to an SFC64 bit generator (Chris Doty-Humphrey's Small Fast
Chaotic generator, 256 bits of state).  The derivation is a pure function of
``(seed_path, tag)``: streams never depend on evaluation order or worker
count, and distinct tags or indices give statistically independent streams.
SeedSequence hashes each path and tag into the 192 bits of the state
beside SFC64's 64-bit counter, and the counter gives every stream a period
of at least 2**64, so the chance that two streams of one run overlap is
negligible.

The values a stream gives are byte-identical for one numpy version: numpy
may change the algorithms of its ``Generator`` distributions between
releases (NEP 19), which moves every draw built on them.
"""

from __future__ import annotations

import numpy as np

SeedPath = tuple[int, ...]

# The tags of the standard blocks of one trial.
TAGS = {
    "X": 1,          # measurement vectors
    "xi": 2,         # noise multipliers
    "eps": 3,        # random signs
    "gaussian": 4,   # standard gaussian draws (widths, order statistics)
    "probe": 6,      # probe directions in kernel experiments
    "ground_truth": 7,  # sparse ground-truth vectors
}


def rng_from_path(seed_path: SeedPath, tag: str) -> np.random.Generator:
    """Return the SFC64 generator for ``(seed_path, tag)``; KeyError for a tag not in TAGS."""
    if not seed_path:
        raise ValueError("seed_path must contain at least the master seed")
    ss = np.random.SeedSequence(entropy=seed_path[0], spawn_key=(*seed_path[1:], TAGS[tag]))
    return np.random.Generator(np.random.SFC64(ss))
