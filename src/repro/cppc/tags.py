"""CPPC-style protection for the cache *tag array* (paper Section 7).

The paper's future work observes that the CPPC idea transfers naturally to
tags: the clean/dirty distinction does not exist (a lost tag cannot be
re-fetched from anywhere), tags are read-only until replaced, and so no
read-before-write is ever needed — one register pair suffices, with

* ``R1t`` accumulating the XOR of every tag inserted on a fill, and
* ``R2t`` accumulating the XOR of every tag removed on an eviction,

so ``R1t ^ R2t`` always equals the XOR of all currently valid tags.  A
parity bit per tag detects a fault at lookup time; recovery XORs
``R1t ^ R2t`` with every other valid tag to reconstruct the broken one.

Attach a :class:`TagCppc` to a :class:`~repro.memsim.Cache` via its
``tag_protection`` constructor argument.  Fault injection uses
``Cache.corrupt_tag``.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Optional

from ..coding import InterleavedParity
from ..errors import ConfigurationError, SimulationError, UncorrectableError
from ..util import check_word

if TYPE_CHECKING:  # pragma: no cover
    from ..memsim.cache import Cache


class TagCppc:
    """One register pair plus per-tag parity protecting a tag array.

    Args:
        tag_bits: width of the protected tag field.  Addresses whose tags
            do not fit raise :class:`ConfigurationError` at insertion.
        parity_ways: interleaved parity bits per tag (1 = plain parity).
    """

    def __init__(self, tag_bits: int = 40, parity_ways: int = 1):
        if tag_bits < 1:
            raise ConfigurationError("tag_bits must be positive")
        if tag_bits % parity_ways:
            raise ConfigurationError(
                f"parity_ways {parity_ways} must divide tag_bits {tag_bits}"
            )
        self.tag_bits = tag_bits
        self.code = InterleavedParity(data_bits=tag_bits, ways=parity_ways)
        self.r1 = 0
        self.r2 = 0
        self.cache: Optional["Cache"] = None
        #: Tag recoveries performed.
        self.recoveries = 0

    # ------------------------------------------------------------------
    def attach(self, cache: "Cache") -> None:
        """Bind to ``cache``; called by the cache constructor.  A weak
        proxy, so the cache and its tag protection form no cycle."""
        if self.cache is not None:
            raise ConfigurationError("tag protection is already attached")
        self.cache = weakref.proxy(cache)

    @property
    def valid_tag_xor(self) -> int:
        """XOR of all tags the register pair believes are resident."""
        return self.r1 ^ self.r2

    def encode(self, tag: int) -> int:
        """Parity bits for one tag."""
        return self.code.encode(check_word(tag, self.tag_bits))

    # ------------------------------------------------------------------
    # Event hooks (called by the cache)
    # ------------------------------------------------------------------
    def on_insert(self, tag: int) -> None:
        """A fill placed ``tag`` into the tag array."""
        self.r1 ^= check_word(tag, self.tag_bits)

    def on_remove(self, tag: int) -> None:
        """An eviction removed ``tag`` from the tag array."""
        self.r2 ^= check_word(tag, self.tag_bits)

    # ------------------------------------------------------------------
    # Verification and recovery
    # ------------------------------------------------------------------
    def verify(self, set_index: int, way: int, tag: int, tag_check: int) -> Optional[int]:
        """Check one stored tag; returns the recovered tag on a fault.

        Returns None when the tag is clean.  Raises UncorrectableError
        when recovery cannot reconstruct it (e.g. a second concurrent tag
        fault).
        """
        if not self.code.inspect(tag, tag_check).detected:
            return None
        recovered = self.recover(set_index, way)
        self.recoveries += 1
        return recovered

    def recover(self, faulty_set: int, faulty_way: int) -> int:
        """Reconstruct the tag at (set, way) from the registers.

        XORs ``R1t ^ R2t`` with every *other* valid tag; verifies the
        result against the stored parity before accepting it.
        """
        if self.cache is None:
            raise SimulationError("tag recovery invoked before attach()")
        acc = self.valid_tag_xor
        for set_index, way in self.cache.resident_lines():
            if set_index == faulty_set and way == faulty_way:
                continue
            line = self.cache.line(set_index, way)
            other = line.tag
            if self.code.inspect(other, line.tag_check).detected:
                raise UncorrectableError(
                    "tag-cppc: a second concurrent tag fault at "
                    f"set {set_index} way {way} defeats recovery",
                )
            acc ^= other
        faulty_line = self.cache.line(faulty_set, faulty_way)
        if self.code.inspect(acc, faulty_line.tag_check).detected:
            raise UncorrectableError(
                "tag-cppc: reconstructed tag fails its stored parity",
            )
        return acc
