"""The R1/R2 XOR register pairs at the heart of CPPC (paper Section 3).

``R1`` accumulates the (rotated) value of every unit written into the
cache; ``R2`` accumulates the (rotated) value of every dirty unit removed
from it — overwritten by a store or evicted by a write-back.  At any
instant ``R1 XOR R2`` equals the XOR of the rotated values of every dirty
unit resident in the pair's protection domain, which is what recovery
exploits.

A :class:`RegisterFile` holds 1, 2, 4 or 8 pairs and assigns rotation
classes to pairs the way paper Sections 4.6/4.11 describe: with ``p``
pairs and 8 classes, classes ``[i*8/p, (i+1)*8/p)`` belong to pair ``i``.
"""

from __future__ import annotations

import dataclasses
from typing import List

from ..errors import ConfigurationError
from ..util import check_word, parity


@dataclasses.dataclass
class RegisterPair:
    """One (R1, R2) pair protecting a subset of the cache's dirty data.

    Following paper Section 4.9, each register carries its own parity
    bits, maintained incrementally (``parity(x ^ v) = parity(x) ^
    parity(v)``) and checked whenever the register is read for recovery.
    A register whose parity fails can itself be rebuilt from the other
    register plus the cache's dirty words (see
    :meth:`repro.cppc.CppcProtection.repair_register`).
    """

    width_bits: int
    r1: int = 0
    r2: int = 0
    #: Stored parity (one even-parity bit per register); maintained by
    #: delta, so a corruption of the register value becomes detectable.
    r1_parity: int = 0
    r2_parity: int = 0

    def __post_init__(self):
        if self.width_bits < 8 or self.width_bits % 8:
            raise ConfigurationError(
                f"register width must be a positive multiple of 8 bits, "
                f"got {self.width_bits}"
            )

    def on_written(self, rotated_value: int) -> None:
        """A unit value (already rotated) was stored into the domain."""
        check_word(rotated_value, self.width_bits)
        self.r1 ^= rotated_value
        self.r1_parity ^= parity(rotated_value)

    def on_dirty_removed(self, rotated_value: int) -> None:
        """A dirty unit value (already rotated) left the domain."""
        check_word(rotated_value, self.width_bits)
        self.r2 ^= rotated_value
        self.r2_parity ^= parity(rotated_value)

    @property
    def dirty_xor(self) -> int:
        """XOR of the rotated values of all dirty units in the domain."""
        return self.r1 ^ self.r2

    def r1_intact(self) -> bool:
        """Whether R1's stored parity matches its contents (Section 4.9)."""
        return parity(self.r1) == self.r1_parity

    def r2_intact(self) -> bool:
        """Whether R2's stored parity matches its contents."""
        return parity(self.r2) == self.r2_parity

    def corrupt_r1(self, xor_mask: int) -> None:
        """Flip register bits without updating parity (fault injection)."""
        check_word(xor_mask, self.width_bits)
        self.r1 ^= xor_mask

    def corrupt_r2(self, xor_mask: int) -> None:
        """Flip R2 bits without updating parity (fault injection)."""
        check_word(xor_mask, self.width_bits)
        self.r2 ^= xor_mask

    def reset(self) -> None:
        """Clear both registers (power-on state)."""
        self.r1 = 0
        self.r2 = 0
        self.r1_parity = 0
        self.r2_parity = 0


class RegisterFile:
    """The set of register pairs of one CPPC, indexed by rotation class."""

    VALID_PAIR_COUNTS = (1, 2, 4, 8)

    def __init__(self, width_bits: int, num_pairs: int = 1, num_classes: int = 8):
        if num_pairs not in self.VALID_PAIR_COUNTS:
            raise ConfigurationError(
                f"num_pairs must be one of {self.VALID_PAIR_COUNTS}, got {num_pairs}"
            )
        if num_classes % num_pairs:
            raise ConfigurationError(
                f"num_pairs {num_pairs} must divide num_classes {num_classes}"
            )
        self.width_bits = width_bits
        self.num_pairs = num_pairs
        self.num_classes = num_classes
        self._classes_per_pair = num_classes // num_pairs
        self.pairs: List[RegisterPair] = [
            RegisterPair(width_bits) for _ in range(num_pairs)
        ]

    def pair_index_of_class(self, rotation_class: int) -> int:
        """Register pair responsible for ``rotation_class``."""
        if not 0 <= rotation_class < self.num_classes:
            raise ConfigurationError(
                f"rotation class {rotation_class} out of range "
                f"[0, {self.num_classes})"
            )
        return rotation_class // self._classes_per_pair

    def pair_of_class(self, rotation_class: int) -> RegisterPair:
        """The :class:`RegisterPair` protecting ``rotation_class``."""
        return self.pairs[self.pair_index_of_class(rotation_class)]

    def classes_of_pair(self, pair_index: int) -> range:
        """Rotation classes assigned to pair ``pair_index``."""
        if not 0 <= pair_index < self.num_pairs:
            raise ConfigurationError(f"pair index {pair_index} out of range")
        start = pair_index * self._classes_per_pair
        return range(start, start + self._classes_per_pair)

    def reset(self) -> None:
        """Clear every pair."""
        for p in self.pairs:
            p.reset()

    @property
    def storage_bits(self) -> int:
        """Total register storage (2 registers per pair)."""
        return 2 * self.num_pairs * self.width_bits
