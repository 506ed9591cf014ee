"""Backing main memory for the cache hierarchy.

Sparse (only blocks ever written are stored) and block-granular.  Unwritten
memory reads as zero, which keeps golden-model comparisons trivial.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..errors import AlignmentError, ConfigurationError


class MainMemory:
    """Block-granular sparse memory; the bottom of every hierarchy."""

    def __init__(self, block_bytes: int = 32):
        if block_bytes < 1 or block_bytes & (block_bytes - 1):
            raise ConfigurationError(
                f"block_bytes must be a power of two, got {block_bytes}"
            )
        self.block_bytes = block_bytes
        self._blocks: Dict[int, bytes] = {}
        self.reads = 0
        self.writes = 0

    def _check(self, block_addr: int) -> None:
        if block_addr % self.block_bytes:
            raise AlignmentError(
                f"address {block_addr:#x} is not {self.block_bytes}B aligned"
            )

    def read_block(self, block_addr: int, cycle: object = None) -> bytes:
        """Return the ``block_bytes`` at ``block_addr`` (zeros if untouched).

        ``cycle`` is accepted for interface parity with :class:`Cache` and
        ignored — memory keeps no timing state.
        """
        self._check(block_addr)
        self.reads += 1
        return self._blocks.get(block_addr, bytes(self.block_bytes))

    def write_block(self, block_addr: int, data: bytes, cycle: object = None) -> None:
        """Store a full block."""
        self._check(block_addr)
        if len(data) != self.block_bytes:
            raise AlignmentError(
                f"block write of {len(data)}B, expected {self.block_bytes}B"
            )
        self.writes += 1
        self._blocks[block_addr] = bytes(data)

    def peek(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes without counting an access (for tests)."""
        out = bytearray()
        while size:
            base = addr & ~(self.block_bytes - 1)
            offset = addr - base
            take = min(size, self.block_bytes - offset)
            block = self._blocks.get(base, bytes(self.block_bytes))
            out += block[offset : offset + take]
            addr += take
            size -= take
        return bytes(out)

    def byte_at(self, addr: int) -> int:
        """The byte at ``addr`` without counting an access (zero if
        untouched); one dict lookup, no intermediate byte strings."""
        block = self._blocks.get(addr & ~(self.block_bytes - 1))
        return 0 if block is None else block[addr & (self.block_bytes - 1)]

    def first_mismatch(self, image: Iterable[Tuple[int, int]]) -> Optional[int]:
        """The first address of ``image`` whose byte differs here, or None.

        ``image`` yields ``(address, expected_byte)`` pairs (a golden
        image's items, in store order); no access is counted.  The block
        holding the previous address is kept at hand, so a run of bytes
        in one block costs one dict lookup.
        """
        blocks = self._blocks
        mask = self.block_bytes - 1
        zeros = bytes(self.block_bytes)
        base = -1
        block = zeros
        for addr, expected in image:
            if (addr & ~mask) != base:
                base = addr & ~mask
                block = blocks.get(base, zeros)
            if block[addr & mask] != expected:
                return addr
        return None

    def poke(self, addr: int, data: bytes) -> None:
        """Write bytes without counting an access (for test setup)."""
        i = 0
        while i < len(data):
            base = (addr + i) & ~(self.block_bytes - 1)
            offset = (addr + i) - base
            take = min(len(data) - i, self.block_bytes - offset)
            block = bytearray(self._blocks.get(base, bytes(self.block_bytes)))
            block[offset : offset + take] = data[i : i + take]
            self._blocks[base] = bytes(block)
            i += take

    @property
    def resident_blocks(self) -> int:
        """Number of blocks ever written."""
        return len(self._blocks)
