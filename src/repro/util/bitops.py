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

from typing import Iterable, Iterator, List, Sequence, Tuple

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


def set_bit(x: int, k: int, bit: int, width: int = WORD_BITS) -> int:
    """Return ``x`` with MSB-first bit ``k`` set to ``bit`` (0 or 1)."""
    if bit not in (0, 1):
        raise ConfigurationError(f"bit value must be 0 or 1, got {bit}")
    pos = width - 1 - k
    if bit:
        return x | (1 << pos)
    return x & ~(1 << pos) & mask(width)


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


def bit_positions(x: int, width: int = WORD_BITS) -> List[int]:
    """MSB-first indices of the set bits of ``x``."""
    return [k for k in range(width) if get_bit(x, k, width)]


def get_byte(x: int, b: int, nbytes: int = WORD_BYTES) -> int:
    """Byte ``b`` of ``x`` counting from the most significant byte."""
    if not 0 <= b < nbytes:
        raise ConfigurationError(f"byte index {b} out of range for {nbytes} bytes")
    return (x >> (8 * (nbytes - 1 - b))) & 0xFF


def set_byte(x: int, b: int, byte: int, nbytes: int = WORD_BYTES) -> int:
    """Return ``x`` with byte ``b`` (MSB-first) replaced by ``byte``."""
    if not 0 <= byte <= 0xFF:
        raise ConfigurationError(f"byte value must fit in 8 bits, got {byte}")
    shift = 8 * (nbytes - 1 - b)
    return (x & ~(0xFF << shift)) | (byte << shift)


def to_bytes_be(x: int, nbytes: int = WORD_BYTES) -> bytes:
    """Big-endian byte string of ``x`` (byte 0 first)."""
    return x.to_bytes(nbytes, "big")


def from_bytes_be(data: Sequence[int]) -> int:
    """Inverse of :func:`to_bytes_be`."""
    return int.from_bytes(bytes(data), "big")


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


def rotl_bits(x: int, c: int, width: int = WORD_BITS) -> int:
    """Rotate ``x`` left by ``c`` bits."""
    c %= width
    if c == 0:
        return x
    return ((x << c) | (x >> (width - c))) & mask(width)


def xor_reduce(values: Iterable[int]) -> int:
    """XOR of all values (0 for an empty iterable)."""
    acc = 0
    for v in values:
        acc ^= v
    return acc


def iter_bytes(x: int, nbytes: int = WORD_BYTES) -> Iterator[Tuple[int, int]]:
    """Yield ``(byte_index, byte_value)`` MSB-first."""
    for b in range(nbytes):
        yield b, get_byte(x, b, nbytes)


def bytes_to_words(data: Sequence[int], word_bytes: int = WORD_BYTES) -> List[int]:
    """Split a byte sequence into big-endian words.

    ``len(data)`` must be a multiple of ``word_bytes``.
    """
    if len(data) % word_bytes:
        raise ConfigurationError(
            f"byte length {len(data)} is not a multiple of word size {word_bytes}"
        )
    blob = bytes(data)
    return [
        int.from_bytes(blob[i : i + word_bytes], "big")
        for i in range(0, len(blob), word_bytes)
    ]


def words_to_bytes(words: Sequence[int], word_bytes: int = WORD_BYTES) -> bytes:
    """Inverse of :func:`bytes_to_words`."""
    return b"".join(w.to_bytes(word_bytes, "big") for w in words)
