"""Deterministic, splittable random streams.

Every stochastic routine in this package takes a ``seed_path``: a tuple of
integers whose first entry is the master seed and whose remaining entries
index the experiment cell, trial, draw block, etc.  A stream is derived as

    SeedSequence(entropy=master_seed, spawn_key=(*indices, tag))

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

Stream tags for the standard sample blocks are fixed small integers
(``TAGS``).  A string tag is mapped to an integer by taking the first four
bytes, little-endian, of its SHA-256 digest, so alternate implementations
can reproduce the mapping.
"""

from __future__ import annotations

import hashlib

import numpy as np

SeedPath = tuple[int, ...]

# Fixed tags for the standard blocks of one trial.
TAGS = {
    "X": 1,          # measurement vectors
    "xi": 2,         # noise multipliers
    "eps": 3,        # random signs
    "gaussian": 4,   # standard gaussian draws (widths, order statistics)
    "directions": 5, # random unit directions
    "probe": 6,      # probe directions in kernel experiments
    "ground_truth": 7,  # sparse ground-truth vectors
}


def stream_tag(tag: int | str) -> int:
    """Map a tag to the integer used in the spawn key."""
    if isinstance(tag, (int, np.integer)):
        return int(tag)
    if tag in TAGS:
        return TAGS[tag]
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def as_seed_path(seed_path: int | SeedPath) -> SeedPath:
    """Normalize a bare master seed to a one-element path."""
    if isinstance(seed_path, (int, np.integer)):
        return (int(seed_path),)
    path = tuple(int(v) for v in seed_path)
    if not path:
        raise ValueError("seed_path must contain at least the master seed")
    return path


def child_path(seed_path: int | SeedPath, *indices: int) -> SeedPath:
    """Extend a seed path with further indices (cell, trial, draw, ...)."""
    return as_seed_path(seed_path) + tuple(int(i) for i in indices)


def rng_from_path(seed_path: int | SeedPath, tag: int | str = 0) -> np.random.Generator:
    """Return the SFC64 generator for ``(seed_path, tag)``."""
    path = as_seed_path(seed_path)
    key = tuple(path[1:]) + (stream_tag(tag),)
    ss = np.random.SeedSequence(entropy=path[0], spawn_key=key)
    return np.random.Generator(np.random.SFC64(ss))
