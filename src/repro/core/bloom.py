"""Bloom filter guarding the eviction-before-undo-flush ordering hazard.

PiCL's correctness requires that a cache line is never written in place
before its undo entry is durable (§III-B). The hardware detects the hazard
with a bloom filter over the addresses currently sitting in the on-chip
undo buffer: when an eviction's address *may* match, the buffer is flushed
first. The filter is cleared on every buffer flush, so false positives
only cost an early flush, never correctness.

The paper sizes it at 4096 bits for a 32-entry buffer, making the
false-positive rate insignificant; the size is configurable so the
ablation bench can chart the trade-off.
"""

from repro.common.errors import ConfigurationError
from repro.common.units import is_power_of_two


class BloomFilter:
    """A k-hash bloom filter over line addresses, backed by 64-bit words.

    Word-backed rather than one big int: ``add``/``might_contain`` run on
    every cross-epoch store and every dirty eviction, and setting a bit in
    a single 4096-bit Python int copies the whole thing each time. The
    two-hash default (the paper's configuration) is fully unrolled.
    """

    def __init__(self, n_bits=4096, n_hashes=2):
        if not is_power_of_two(n_bits):
            raise ConfigurationError("bloom filter bits must be a power of two")
        if n_hashes < 1:
            raise ConfigurationError("need at least one hash function")
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self._mask = n_bits - 1
        self._words = [0] * ((n_bits + 63) >> 6)
        self._population = 0

    def add(self, addr):
        """Set the address's bits."""
        h1 = (addr * 2654435761) & 0xFFFFFFFF
        h2 = ((addr >> 6) * 40503 + 0x9E3779B9) & 0xFFFFFFFF
        mask = self._mask
        words = self._words
        if self.n_hashes == 2:
            pos = h1 & mask
            words[pos >> 6] |= 1 << (pos & 63)
            pos = (h1 + h2) & mask
            words[pos >> 6] |= 1 << (pos & 63)
        else:
            for i in range(self.n_hashes):
                pos = (h1 + i * h2) & mask
                words[pos >> 6] |= 1 << (pos & 63)
        self._population += 1

    def might_contain(self, addr):
        """True when ``addr`` may have been added since the last clear."""
        h1 = (addr * 2654435761) & 0xFFFFFFFF
        h2 = ((addr >> 6) * 40503 + 0x9E3779B9) & 0xFFFFFFFF
        mask = self._mask
        words = self._words
        if self.n_hashes == 2:
            pos = h1 & mask
            if not (words[pos >> 6] >> (pos & 63)) & 1:
                return False
            pos = (h1 + h2) & mask
            return (words[pos >> 6] >> (pos & 63)) & 1 != 0
        for i in range(self.n_hashes):
            pos = (h1 + i * h2) & mask
            if not (words[pos >> 6] >> (pos & 63)) & 1:
                return False
        return True

    def clear(self):
        """Reset the filter (done on each undo-buffer flush)."""
        words = self._words
        for i in range(len(words)):
            words[i] = 0
        self._population = 0

    @property
    def population(self):
        """Number of adds since the last clear (not distinct addresses)."""
        return self._population

    def saturation(self):
        """Fraction of bits set (diagnostic for sizing studies)."""
        set_bits = 0
        for word in self._words:
            set_bits += bin(word).count("1")
        return set_bits / self.n_bits
