"""CRC-32 (IEEE 802.3 polynomial), zlib-backed with a reference build.

The paper (section 4.2.1) uses a CRC checksum over the bytes of a
function's RTLs because, unlike a plain byte-sum, a CRC is sensitive to
byte *order* [Peterson & Brown 1961] — two functions with the same
instructions in a different order hash differently.

``crc32`` delegates to :func:`zlib.crc32` (a C loop) because hashing is
on the enumeration hot path: every attempted edge fingerprints its
candidate instance.  The original byte-at-a-time table-driven
implementation is kept as :func:`crc32_reference`, the property tests'
oracle: they assert both agree on arbitrary data and arbitrary seeds.

Both implementations chain identically: ``crc32(b, crc32(a)) ==
crc32(a + b)``, which is what lets the streaming fingerprint hash a
function line-by-line without materializing the joined text.
"""

from __future__ import annotations

import zlib
from typing import List

_POLYNOMIAL = 0xEDB88320


def _build_table() -> List[int]:
    table = []
    for byte in range(256):
        value = byte
        for _ in range(8):
            if value & 1:
                value = (value >> 1) ^ _POLYNOMIAL
            else:
                value >>= 1
        table.append(value)
    return table


_TABLE = _build_table()


def crc32_reference(data: bytes, seed: int = 0) -> int:
    """Table-driven CRC-32 of *data* (the from-scratch reference)."""
    value = seed ^ 0xFFFFFFFF
    for byte in data:
        value = (value >> 8) ^ _TABLE[(value ^ byte) & 0xFF]
    return value ^ 0xFFFFFFFF


def crc32(data: bytes, seed: int = 0) -> int:
    """CRC-32 of *data* (bit-identical to zlib.crc32 for every seed)."""
    return zlib.crc32(data, seed)
