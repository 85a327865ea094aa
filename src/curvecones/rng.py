"""Deterministic 64-bit PRNG with named substreams.

Every random choice in the package flows through a `Stream` keyed by
(seed, tag).  The generator is splitmix64, whose output is fixed by the
algorithm alone, so runs are reproducible byte for byte across platforms
and library versions.  Independent purposes get independent tags; drawing
order within one tag is part of the reproducibility contract.

A random member of a linear system (an ideal quadric, a point of a net's
vertex) is `combination`: one `field_vec` of coefficients for the rows,
None when they are all zero, so every caller draws it the same way.  A
random nonzero vector (a plane point, a probe) is `nonzero_vec`: one
`field_vec`, None when it is zero.
"""

from __future__ import annotations

import numpy as np

try:
    # the same object as hashlib.blake2b, without the import of hashlib's
    # OpenSSL backend (5-15 ms per process)
    from _blake2 import blake2b
except ImportError:         # a Python built without the _blake2 module
    from hashlib import blake2b

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def derive_key(seed: int, tag: str) -> int:
    """Stable 64-bit key for a (seed, tag) pair."""
    digest = blake2b(f"{seed}|{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class Stream:
    """splitmix64 stream keyed by (seed, tag)."""

    def __init__(self, seed: int, tag: str):
        self.seed = seed
        self.tag = tag
        self._state = derive_key(seed, tag)

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi), rejection-sampled to avoid bias."""
        span = hi - lo
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span

    def field(self, p: int) -> int:
        return self.integer(0, p)

    def nonzero(self, p: int) -> int:
        return self.integer(1, p)

    def field_vec(self, p: int, n: int) -> np.ndarray:
        """n draws of `field(p)`, in one loop over `next_u64` with the
        rejection test of `integer`."""
        limit = (1 << 64) - ((1 << 64) % p)
        out = []
        while len(out) < n:
            u = self.next_u64()
            if u < limit:
                out.append(u % p)
        return np.array(out, dtype=np.int64)

    def field_mat(self, p: int, rows: int, cols: int) -> np.ndarray:
        return self.field_vec(p, rows * cols).reshape(rows, cols)

    def nonzero_vec(self, p: int, n: int) -> np.ndarray | None:
        """One `field_vec(p, n)`, or None when it is the zero vector."""
        v = self.field_vec(p, n)
        return v if v.any() else None

    def combination(self, p: int, rows: np.ndarray) -> np.ndarray | None:
        """A random combination of the rows (residues mod p), its
        coefficients from one `field_vec`, or None when they are all zero;
        each entry sums one product below p^2 < 2^50 per row."""
        combo = self.field_vec(p, rows.shape[0])
        return combo @ rows % p if combo.any() else None

    def spawn(self, tag: str) -> "Stream":
        """Child stream with an extended tag; parent state is untouched."""
        return Stream(self.seed, f"{self.tag}/{tag}")
