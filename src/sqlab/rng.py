"""Seeded randomness.

One named, counter-based generator (Philox) everywhere.  Per-run streams are
derived from (master seed, run index, purpose tag), so results never depend on
scheduling or worker count.
"""

import zlib

import numpy as np


def make_rng(master_seed, run_index=0, purpose=""):
    """Return a Generator for the stream (master_seed, run_index, purpose)."""
    tag = zlib.crc32(purpose.encode("utf-8"))
    ss = np.random.SeedSequence(
        entropy=int(master_seed), spawn_key=(int(run_index), tag)
    )
    return np.random.Generator(np.random.Philox(ss))
