"""Set-associative line-state containers for the timing model.

Same geometry/LRU behaviour as the cycle model's arrays, but keyed by line
address and storing model-level records instead of SRAM contents.  The
set-associative capacity is what makes FliT's auxiliary tables *cost*
something here (Figure 16): their lines evict workload lines.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.sim.config import CacheGeometry

R = TypeVar("R")


class LineCache(Generic[R]):
    """LRU set-associative map: line address -> record.

    The set-index arithmetic is derived from the geometry once, here:
    ``sets[address // line_bytes % num_sets]`` is the LRU-ordered map
    (oldest first) of the set holding *address*.  The timing model's
    per-access path indexes ``sets`` that way itself rather than paying a
    method call per lookup; its L1 miss path also inserts into a set
    directly and keeps ``_resident`` in step itself.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.line_bytes = geometry.line_bytes
        self.num_sets = geometry.num_sets
        self.ways = geometry.ways
        self.sets: List["OrderedDict[int, R]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self._resident = 0  # total lines, so __len__ skips the per-set sum

    def get(self, address: int) -> Optional[R]:
        return self.sets[address // self.line_bytes % self.num_sets].get(address)

    def touch(self, address: int) -> None:
        self.sets[address // self.line_bytes % self.num_sets].move_to_end(address)

    def put(self, address: int, record: R) -> Optional[Tuple[int, R]]:
        """Insert (MRU); return the evicted (address, record) if the set spilled."""
        bucket = self.sets[address // self.line_bytes % self.num_sets]
        if address not in bucket:
            self._resident += 1
        bucket[address] = record
        bucket.move_to_end(address)
        if len(bucket) > self.ways:
            self._resident -= 1
            return bucket.popitem(last=False)
        return None

    def remove(self, address: int) -> Optional[R]:
        record = self.sets[address // self.line_bytes % self.num_sets].pop(
            address, None
        )
        if record is not None:
            self._resident -= 1
        return record

    def __contains__(self, address: int) -> bool:
        return address in self.sets[address // self.line_bytes % self.num_sets]

    def __len__(self) -> int:
        return self._resident

    def items(self) -> Iterator[Tuple[int, R]]:
        for bucket in self.sets:
            yield from bucket.items()
