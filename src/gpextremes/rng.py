"""Deterministic random-stream bookkeeping.

Every stochastic routine in this package draws from an :class:`RngStream`.
The pair ``(master_seed, stream_id)`` fully determines the realized
sequence, so experiments replay bit-identically, and distinct stream ids
give statistically independent streams.  Derived (child) streams are
obtained by keyed hashing, which keeps worker decomposition and caller
call-order from ever touching the numbers another consumer sees.
"""
from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_MASK63 = (1 << 63) - 1
MAX_TAG_BYTES = 32


def _as_seed(value, name="master_seed", bits=64) -> int:
    """``value``, a Python or numpy integer (not a bool) in [0, 2**bits), as an int: a float is not truncated."""
    try:
        seed = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        seed = None
    if seed is None:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if not 0 <= seed < 1 << bits:
        raise DomainError(f"{name} must be a {bits}-bit unsigned integer, got {value}")
    return seed


@dataclass(frozen=True)
class RngStream:
    """Address of a reproducible random stream.

    ``generator()`` builds a fresh PCG64 generator each call; two calls on
    the same stream replay the same sequence.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "master_seed", _as_seed(self.master_seed))
        object.__setattr__(self, "stream_id", _as_seed(self.stream_id, "stream_id"))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, *salt) -> "RngStream":
        """Derive a dependent stream from hashable salt parts (ints or strings).

        Collisions between distinct salts occur with probability ~2^-63, so
        children of one stream are effectively independent of each other and
        of the parent.
        """
        h = hashlib.blake2b(digest_size=8, key=self.master_seed.to_bytes(8, "little"))
        h.update(self.stream_id.to_bytes(8, "little"))
        for part in salt:
            if isinstance(part, str):
                raw = part.encode("utf-8")
            else:
                raw = int(part).to_bytes(8, "little", signed=True)
            h.update(len(raw).to_bytes(2, "little"))
            h.update(raw)
        return RngStream(self.master_seed, int.from_bytes(h.digest(), "little") & _MASK63)


def derive_stream(master_seed, purpose_tag: str, index: int) -> RngStream:
    """Collision-resistant stream derivation from a short purpose tag.

    Same inputs always give the same stream; distinct ``(tag, index)`` pairs
    give distinct streams.  The tag must be non-empty and at most 32 bytes
    when UTF-8 encoded.
    """
    if not isinstance(purpose_tag, str) or not purpose_tag:
        raise DomainError("purpose_tag must be a non-empty string")
    if len(purpose_tag.encode("utf-8")) > MAX_TAG_BYTES:
        raise DomainError(f"purpose_tag exceeds {MAX_TAG_BYTES} bytes")
    return RngStream(_as_seed(master_seed), 0).child(purpose_tag, _as_seed(index, "index", 63))
