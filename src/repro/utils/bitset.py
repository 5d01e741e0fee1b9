"""Dense fixed-width bitvector backed by a NumPy ``uint64`` array.

The D-Galois implementation of MRBC (paper §4.3) keeps, for every vertex, a
map from a distance value to a *dense bitvector of size k* marking which of
the ``k`` batched sources currently have that distance at the vertex.  This
module provides that bitvector.  Operations that the hot loop needs —
set/clear/test, iteration over set bits, population count — are O(1) or
vectorized over the packed words.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

_WORD_BITS = 64


class Bitset:
    """A fixed-capacity set of small integers stored as packed 64-bit words.

    Parameters
    ----------
    capacity:
        Number of addressable bits.  Bits are indexed ``0 .. capacity-1``.
    words:
        Optional pre-built word array (used internally by :meth:`copy`).
    """

    __slots__ = ("_capacity", "_words")

    def __init__(self, capacity: int, words: np.ndarray | None = None) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self._capacity = int(capacity)
        nwords = (capacity + _WORD_BITS - 1) // _WORD_BITS
        if words is None:
            self._words = np.zeros(nwords, dtype=np.uint64)
        else:
            if words.shape != (nwords,):
                raise ValueError("word array has wrong shape for capacity")
            self._words = words

    # -- construction ------------------------------------------------------

    @classmethod
    def from_indices(cls, capacity: int, indices: Iterable[int]) -> "Bitset":
        """Build a bitset with exactly the given bits set."""
        bs = cls(capacity)
        for i in indices:
            bs.set(i)
        return bs

    def copy(self) -> "Bitset":
        """Return an independent copy of this bitset."""
        return Bitset(self._capacity, self._words.copy())

    # -- element access ----------------------------------------------------

    @property
    def capacity(self) -> int:
        """The number of addressable bits."""
        return self._capacity

    def _check(self, i: int) -> None:
        if not 0 <= i < self._capacity:
            raise IndexError(f"bit {i} out of range [0, {self._capacity})")

    def set(self, i: int) -> None:
        """Set bit ``i``."""
        self._check(i)
        self._words[i >> 6] |= np.uint64(1) << np.uint64(i & 63)

    def clear(self, i: int) -> None:
        """Clear bit ``i``."""
        self._check(i)
        self._words[i >> 6] &= ~(np.uint64(1) << np.uint64(i & 63))

    def test(self, i: int) -> bool:
        """Return whether bit ``i`` is set."""
        self._check(i)
        return bool((self._words[i >> 6] >> np.uint64(i & 63)) & np.uint64(1))

    def __contains__(self, i: object) -> bool:
        return isinstance(i, int) and 0 <= i < self._capacity and self.test(i)

    # -- bulk operations ---------------------------------------------------

    def clear_all(self) -> None:
        """Clear every bit in place."""
        self._words[:] = 0

    def count(self) -> int:
        """Population count (number of set bits)."""
        return int(np.bitwise_count(self._words).sum())

    def __len__(self) -> int:
        return self.count()

    def any(self) -> bool:
        """Return True if any bit is set."""
        return bool(self._words.any())

    def indices(self) -> np.ndarray:
        """Return the sorted array of set-bit indices as ``int64``."""
        if not self._words.size or not self._words.any():
            return np.empty(0, dtype=np.int64)
        bits = np.unpackbits(self._words.view(np.uint8), bitorder="little")
        return np.nonzero(bits)[0].astype(np.int64)

    def _mask_words(self, indices: np.ndarray) -> np.ndarray | None:
        """The words with exactly the bits named in ``indices`` set
        (duplicates allowed), or None when there are none: a bool
        scratch over the capacity, packed little-endian into words."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return None
        # One range check: a negative index reads as a huge unsigned one.
        if idx.view(np.uint64).max() >= self._capacity:
            raise IndexError("bit index out of range")
        flags = np.zeros(self._words.size * _WORD_BITS, dtype=bool)
        flags[idx] = True
        return np.packbits(flags, bitorder="little").view(np.uint64)

    def set_many(self, indices: np.ndarray) -> None:
        """Set every bit named in ``indices`` (duplicates allowed)."""
        mask = self._mask_words(indices)
        if mask is not None:
            np.bitwise_or(self._words, mask, out=self._words)

    def clear_many(self, indices: np.ndarray) -> None:
        """Clear every bit named in ``indices`` (duplicates allowed)."""
        mask = self._mask_words(indices)
        if mask is not None:
            np.bitwise_and(self._words, ~mask, out=self._words)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices().tolist())

    # -- set algebra (in place, same capacity) -----------------------------

    def _check_same(self, other: "Bitset") -> None:
        if self._capacity != other._capacity:
            raise ValueError("bitsets have different capacities")

    def ior(self, other: "Bitset") -> "Bitset":
        """In-place union with ``other``; returns self."""
        self._check_same(other)
        np.bitwise_or(self._words, other._words, out=self._words)
        return self

    def iand(self, other: "Bitset") -> "Bitset":
        """In-place intersection with ``other``; returns self."""
        self._check_same(other)
        np.bitwise_and(self._words, other._words, out=self._words)
        return self

    def isub(self, other: "Bitset") -> "Bitset":
        """In-place difference (``self &= ~other``); returns self."""
        self._check_same(other)
        np.bitwise_and(self._words, np.bitwise_not(other._words), out=self._words)
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitset):
            return NotImplemented
        return self._capacity == other._capacity and bool(
            np.array_equal(self._words, other._words)
        )

    def __hash__(self) -> int:  # pragma: no cover - bitsets are mutable
        raise TypeError("Bitset is unhashable (mutable)")

    def __repr__(self) -> str:
        shown = self.indices()[:16].tolist()
        more = "" if self.count() <= 16 else ", ..."
        return f"Bitset(capacity={self._capacity}, bits={shown}{more})"
