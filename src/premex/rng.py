"""Deterministic derivation of independent random streams.

A single user-facing seed fans out into one stream per task (tree k,
boosting stage t, CV fold i, ...) by mixing the seed with the task path
through splitmix64.  Streams are independent of execution order, so
batched and one-at-a-time training produce bit-identical models.

The mixing function is fixed: splitmix64 (Steele, Lea & Flood's 64-bit
finalizer), applied to the seed and then folded over each path token.
String tokens are hashed with 8-byte blake2b first.  Changing any of
this would silently change every derived stream, so don't.
"""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _token(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    digest = hashlib.blake2b(str(part).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_seed(seed: int, *path) -> int:
    """Mix `seed` with a path of ints/strings into a 64-bit child seed."""
    state = splitmix64(int(seed) & _MASK64)
    for part in path:
        state = splitmix64(state ^ _token(part))
    return state


def stream(seed: int, *path) -> np.random.Generator:
    """A PCG64 generator seeded from (seed, *path)."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, *path)))
