"""Seeded random substreams, one per (master seed, trial, purpose) slot.

Each slot seeds an SFC64 generator through a SeedSequence (the NEP 19 idiom),
so any trial replays in isolation and no result depends on worker scheduling.
"""

import numpy as np


def substream(master_seed: int, trial: int = 0, purpose: str = "") -> np.random.Generator:
    """Independent generator for one (trial, purpose) slot of an experiment.

    The purpose's UTF-8 bytes enter as their length and then as zero-padded
    little-endian uint32 words; the length keeps "a" and "a\\0" apart.
    """
    tag = purpose.encode("utf-8")
    words = np.frombuffer(tag + b"\0" * (-len(tag) % 4), dtype="<u4").tolist()
    seed = np.random.SeedSequence([master_seed, trial, len(tag), *words])
    return np.random.Generator(np.random.SFC64(seed))
