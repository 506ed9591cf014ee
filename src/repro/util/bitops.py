"""Bit- and byte-level utilities shared by the whole package.

Conventions (matching the paper's figures):

* A *word* is an unsigned integer of ``width`` bits (64 unless stated
  otherwise), held in a plain Python ``int``.
* Bit index ``k`` counts from the **left** (most significant bit), i.e.
  bit 0 of a 64-bit word is its MSB.  This matches the paper, where
  "bit 0 of Word0" in Figure 3 is the MSB flipped by the particle strike.
* Byte index ``b`` also counts from the left: byte 0 is the most
  significant byte.
* ``rotl_bytes(x, c)`` rotates *left* by ``c`` bytes: destination byte
  ``j`` receives source byte ``(j + c) mod nbytes``, exactly the barrel
  shifter of paper Figure 6.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import ConfigurationError

WORD_BITS = 64
WORD_BYTES = WORD_BITS // 8


def mask(width: int) -> int:
    """Return an all-ones mask of ``width`` bits."""
    if width < 0:
        raise ConfigurationError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def check_word(value: int, width: int = WORD_BITS) -> int:
    """Validate that ``value`` fits in ``width`` bits and return it."""
    if not 0 <= value <= mask(width):
        raise ConfigurationError(
            f"value {value:#x} does not fit in {width} bits"
        )
    return value


def _bin_count(x: int) -> int:
    return bin(x).count("1")


#: Set-bit count of a non-negative int: ``int.bit_count`` where the
#: interpreter has it (Python >= 3.10), ``bin(x).count("1")`` before.
_bit_count = getattr(int, "bit_count", _bin_count)


def popcount(x: int) -> int:
    """Number of set bits in ``x`` (x must be non-negative)."""
    if x < 0:
        raise ConfigurationError("popcount requires a non-negative integer")
    return _bit_count(x)


def parity(x: int) -> int:
    """Even-parity bit of ``x``: 1 if the number of set bits is odd."""
    if x < 0:
        raise ConfigurationError("parity requires a non-negative integer")
    return _bit_count(x) & 1


def get_bit(x: int, k: int, width: int = WORD_BITS) -> int:
    """Bit ``k`` of ``x`` counting from the MSB (bit 0 = MSB)."""
    if not 0 <= k < width:
        raise ConfigurationError(f"bit index {k} out of range for width {width}")
    return (x >> (width - 1 - k)) & 1


def flip_bit(x: int, k: int, width: int = WORD_BITS) -> int:
    """Return ``x`` with MSB-first bit ``k`` inverted."""
    if not 0 <= k < width:
        raise ConfigurationError(f"bit index {k} out of range for width {width}")
    return x ^ (1 << (width - 1 - k))


def flip_bits(x: int, positions: Iterable[int], width: int = WORD_BITS) -> int:
    """Flip every MSB-first bit index in ``positions``."""
    for k in positions:
        x = flip_bit(x, k, width)
    return x


def get_byte(x: int, b: int, nbytes: int = WORD_BYTES) -> int:
    """Byte ``b`` of ``x`` counting from the most significant byte."""
    if not 0 <= b < nbytes:
        raise ConfigurationError(f"byte index {b} out of range for {nbytes} bytes")
    return (x >> (8 * (nbytes - 1 - b))) & 0xFF


def rotl_bytes(x: int, c: int, nbytes: int = WORD_BYTES) -> int:
    """Rotate ``x`` left by ``c`` bytes.

    Destination byte ``j`` receives source byte ``(j + c) mod nbytes``;
    this is the barrel-shifter rotation of paper Figure 6, where word rows
    in rotation class ``c`` are rotated by ``c`` bytes before being XORed
    into R1/R2.
    """
    c %= nbytes
    if c == 0:
        return x
    width = 8 * nbytes
    shift = 8 * c
    return ((x << shift) | (x >> (width - shift))) & mask(width)


def rotr_bytes(x: int, c: int, nbytes: int = WORD_BYTES) -> int:
    """Rotate ``x`` right by ``c`` bytes (inverse of :func:`rotl_bytes`)."""
    return rotl_bytes(x, nbytes - (c % nbytes), nbytes)


def xor_reduce(values: Iterable[int]) -> int:
    """XOR of all values (0 for an empty iterable)."""
    acc = 0
    for v in values:
        acc ^= v
    return acc
