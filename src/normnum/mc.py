"""Seeded sample streams, for the lemma grids and Monte Carlo cross checks.

Sampling is a counter-mode hash construction: point i of a stream is
derived from blake2b(seed, 0, i), so streams are reproducible bit for
bit and independent of Python's RNG state. Each point is a 128-bit
integer, an exact rational in [0, 1) once divided by 2**128, so
membership tests against exact regions inherit no rounding at all.
"""

from __future__ import annotations

import struct

from .measure import Record


class SamplerSpec(Record):
    """A reproducible sample stream: seed picks the stream, count its
    length."""

    __slots__ = ("seed", "count")

    def __init__(self, seed: int, count: int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self._fill(seed, count)


def sample_integers(spec: SamplerSpec) -> list[int]:
    """The stream's points as integers in [0, 2**128)."""
    import hashlib

    out = []
    pack = struct.pack
    for i in range(spec.count):
        digest = hashlib.blake2b(
            # a constant 0 fills the middle word of the hashed layout
            pack("<QQQ", spec.seed & (2**64 - 1), 0, i),
            digest_size=16,
        ).digest()
        out.append(int.from_bytes(digest, "big"))
    return out
