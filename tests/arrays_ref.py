"""Reference (object-per-line) metadata/data arrays.

This is the original, straightforward implementation of
:mod:`repro.uarch.arrays` kept verbatim as an executable specification:
the packed flat-array rewrite is pinned against it by randomized
differential tests (``tests/test_arrays_packed.py``).  It lives with the
tests because nothing else uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim.config import CacheGeometry
from repro.tilelink.permissions import Perm


@dataclass
class RefMetaEntry:
    """One line's metadata."""

    tag: int = 0
    perm: Perm = Perm.NONE
    dirty: bool = False
    skip: bool = False

    @property
    def valid(self) -> bool:
        return self.perm is not Perm.NONE

    def invalidate(self) -> None:
        self.perm = Perm.NONE
        self.dirty = False
        self.skip = False


class RefMetaArray:
    """Set-associative metadata array with list-based LRU state."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._sets: List[List[RefMetaEntry]] = [
            [RefMetaEntry() for _ in range(geometry.ways)]
            for _ in range(geometry.num_sets)
        ]
        # per-set LRU order: way indices, most-recent last
        self._lru: List[List[int]] = [
            list(range(geometry.ways)) for _ in range(geometry.num_sets)
        ]

    def lookup(self, address: int) -> Optional[Tuple[int, RefMetaEntry]]:
        """Return (way, entry) on a tag hit, else None."""
        set_idx = self.geometry.set_index(address)
        tag = self.geometry.tag(address)
        for way, entry in enumerate(self._sets[set_idx]):
            if entry.valid and entry.tag == tag:
                return way, entry
        return None

    def entry(self, address: int) -> Optional[RefMetaEntry]:
        hit = self.lookup(address)
        return hit[1] if hit else None

    def touch(self, address: int, way: int) -> None:
        """Mark *way* most-recently used in *address*'s set."""
        set_idx = self.geometry.set_index(address)
        order = self._lru[set_idx]
        order.remove(way)
        order.append(way)

    def victim_way(self, address: int, exclude: Optional[set] = None) -> Optional[int]:
        """Pick a victim way (invalid first, else LRU), skipping *exclude*."""
        excluded = exclude or set()
        set_idx = self.geometry.set_index(address)
        for way, entry in enumerate(self._sets[set_idx]):
            if not entry.valid and way not in excluded:
                return way
        for way in self._lru[set_idx]:
            if way not in excluded:
                return way
        return None

    def way_entry(self, address: int, way: int) -> RefMetaEntry:
        return self._sets[self.geometry.set_index(address)][way]

    def install(
        self,
        address: int,
        way: int,
        perm: Perm,
        dirty: bool = False,
        skip: bool = False,
    ) -> RefMetaEntry:
        entry = self.way_entry(address, way)
        entry.tag = self.geometry.tag(address)
        entry.perm = perm
        entry.dirty = dirty
        entry.skip = skip
        self.touch(address, way)
        return entry

    def iter_valid(self) -> Iterator[Tuple[int, int, RefMetaEntry]]:
        """Yield (set, way, entry) for every valid line."""
        for set_idx, ways in enumerate(self._sets):
            for way, entry in enumerate(ways):
                if entry.valid:
                    yield set_idx, way, entry

    def address_of(self, set_idx: int, entry: RefMetaEntry) -> int:
        """Reconstruct the line address of a valid entry."""
        return (
            entry.tag * self.geometry.num_sets + set_idx
        ) * self.geometry.line_bytes


class RefDataArray:
    """Line-granular data SRAM backed by a dict of immutable lines."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._lines: Dict[Tuple[int, int], bytes] = {}

    def read_line(self, set_idx: int, way: int) -> bytes:
        return self._lines.get((set_idx, way), bytes(self.geometry.line_bytes))

    def write_line(self, set_idx: int, way: int, data: bytes) -> None:
        if len(data) != self.geometry.line_bytes:
            raise ValueError("line size mismatch")
        self._lines[(set_idx, way)] = bytes(data)

    def write_word(self, set_idx: int, way: int, offset: int, value: int) -> None:
        """Merge one 64-bit word into a line."""
        line = bytearray(self.read_line(set_idx, way))
        line[offset : offset + 8] = value.to_bytes(8, "little", signed=False)
        self._lines[(set_idx, way)] = bytes(line)

    def read_word(self, set_idx: int, way: int, offset: int) -> int:
        line = self.read_line(set_idx, way)
        return int.from_bytes(line[offset : offset + 8], "little", signed=False)
