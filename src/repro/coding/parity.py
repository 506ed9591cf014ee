"""One-dimensional and interleaved parity codes.

``InterleavedParity(ways=8)`` is the paper's 8-way interleaved parity:
``P[i] = XOR(data_bit[i], data_bit[i+8], ..., data_bit[i+56])`` (paper
Section 3.6), i.e. parity group ``i`` covers bit ``i`` of every byte when
bits are indexed MSB-first.  ``ways=1`` degenerates to one parity bit per
word — the classic one-dimensional parity cache.

Interleaved parity detects every spatial burst of up to ``ways`` adjacent
bits inside a word, because such a burst touches each parity group at most
once.

Encoding is an XOR-fold.  Because ``ways`` divides the word width, MSB-first
bit ``k`` sits at LSB position ``data_bits - 1 - k``, which is congruent to
``ways - 1 - (k mod ways)`` modulo ``ways``: group ``i`` is exactly the set
of LSB positions congruent to ``ways - 1 - i``, the position of group
``i``'s bit in the check word.  So XOR-ing the word's ``ways``-bit chunks
together yields the check word itself.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from ..errors import ConfigurationError
from ..util import get_bit, mask, parity
from .base import DetectionOutcome, Inspection, WordCode

#: The one inspection every clean word shares (``Inspection`` is frozen).
_CLEAN = Inspection(outcome=DetectionOutcome.CLEAN)


def _fold_schedule(data_bits: int, ways: int) -> Tuple[Tuple[int, int], ...]:
    """``(shift, keep)`` steps that XOR-fold a word down to ``ways`` bits.

    Each step XORs the upper half of the remaining ``ways``-bit chunks
    onto the lower half (``x >> shift ^ x & keep``), rounding the lower
    half up so an odd chunk count folds correctly too.
    """
    steps = []
    chunks = data_bits // ways
    while chunks > 1:
        low = (chunks + 1) // 2
        steps.append((low * ways, mask(low * ways)))
        chunks = low
    return tuple(steps)


class InterleavedParity(WordCode):
    """k-way interleaved parity over a data word.

    Parity group ``i`` (0-based) covers the MSB-first bit indices
    ``{k : k mod ways == i}``.  The check word stores group 0's bit in its
    MSB-first bit 0, group 1 in bit 1, and so on.
    """

    def __init__(self, data_bits: int = 64, ways: int = 8):
        if ways < 1:
            raise ConfigurationError(f"parity ways must be >= 1, got {ways}")
        if data_bits % ways:
            raise ConfigurationError(
                f"data width {data_bits} must be a multiple of ways {ways}"
            )
        super().__init__(data_bits=data_bits, check_bits=ways)
        self.ways = ways
        self._data_mask = mask(data_bits)
        self._check_mask = mask(ways)
        self._folds = _fold_schedule(data_bits, ways)

    def encode(self, data: int) -> int:
        # Bits outside the word (wider or negative ints) belong to no
        # parity group, so they are masked off first.
        x = data & self._data_mask
        if self.ways == 1:
            # The one-bit fold is the word's parity; a popcount is
            # cheaper than log2(data_bits) single-bit folds.
            return parity(x)
        for shift, keep in self._folds:
            x = x >> shift ^ x & keep
        return x

    def inspect(self, data: int, check: int) -> Inspection:
        if not (
            0 <= data <= self._data_mask and 0 <= check <= self._check_mask
        ):
            self._validate(data, check)
        syndrome = self.encode(data) ^ check
        if syndrome == 0:
            return _CLEAN
        faulty = frozenset(
            i for i in range(self.ways) if get_bit(syndrome, i, self.ways)
        )
        return Inspection(
            outcome=DetectionOutcome.DETECTED,
            syndrome=syndrome,
            faulty_parities=faulty,
        )

    def group_of_bit(self, bit_index: int) -> int:
        """Parity group covering MSB-first data bit ``bit_index``."""
        if not 0 <= bit_index < self.data_bits:
            raise ConfigurationError(
                f"bit index {bit_index} out of range for {self.data_bits} bits"
            )
        return bit_index % self.ways

    def bits_of_group(self, group: int) -> FrozenSet[int]:
        """MSB-first data bit indices covered by parity group ``group``."""
        if not 0 <= group < self.ways:
            raise ConfigurationError(f"parity group {group} out of range")
        return frozenset(range(group, self.data_bits, self.ways))

    def group_mask(self, group: int) -> int:
        """Data-word mask of the bits covered by ``group``."""
        if not 0 <= group < self.ways:
            raise ConfigurationError(f"parity group {group} out of range")
        # One bit per chunk (0x0101...01 for ways=8), moved to the LSB
        # position of group ``group`` (see the module docstring).
        return self._data_mask // self._check_mask << (self.ways - 1 - group)


def word_parity_code(data_bits: int = 64) -> InterleavedParity:
    """One parity bit for the entire word (1-D parity)."""
    return InterleavedParity(data_bits=data_bits, ways=1)


def byte_parity_code(data_bits: int = 64) -> InterleavedParity:
    """Eight-way interleaved parity (the paper's CPPC configuration)."""
    return InterleavedParity(data_bits=data_bits, ways=8)
