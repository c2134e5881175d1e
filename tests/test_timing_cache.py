"""Unit tests for the timing model's set-associative LineCache."""

import random

import pytest

from repro.sim.config import CacheGeometry
from repro.timing.cache import LineCache


def mk(size=512, ways=2):
    # size=512, ways=2 -> 4 sets of 64B lines
    return LineCache(CacheGeometry(size_bytes=size, ways=ways))


class TestLineCache:
    def test_get_miss(self):
        assert mk().get(0x1000) is None

    def test_put_and_get(self):
        cache = mk()
        cache.put(0x1000, "rec")
        assert cache.get(0x1000) == "rec"
        assert 0x1000 in cache

    def test_lru_eviction_order(self):
        cache = mk()
        stride = cache.geometry.num_sets * 64  # same set
        cache.put(0x0, "a")
        cache.put(stride, "b")
        cache.touch(0x0)  # a becomes MRU
        evicted = cache.put(2 * stride, "c")
        assert evicted == (stride, "b")

    def test_no_eviction_across_sets(self):
        cache = mk()
        for i in range(4):  # different sets
            assert cache.put(i * 64, i) is None
        assert len(cache) == 4

    def test_put_existing_updates_in_place(self):
        cache = mk()
        cache.put(0x40, "old")
        assert cache.put(0x40, "new") is None
        assert cache.get(0x40) == "new"
        assert len(cache) == 1

    def test_remove(self):
        cache = mk()
        cache.put(0x40, "x")
        assert cache.remove(0x40) == "x"
        assert cache.remove(0x40) is None
        assert 0x40 not in cache

    def test_items_iterates_everything(self):
        cache = mk()
        cache.put(0x0, "a")
        cache.put(0x40, "b")
        assert dict(cache.items()) == {0x0: "a", 0x40: "b"}

    def test_capacity_honoured_per_set(self):
        cache = mk(size=512, ways=2)
        stride = cache.geometry.num_sets * 64
        evictions = 0
        for i in range(6):
            if cache.put(i * stride, i) is not None:
                evictions += 1
        assert evictions == 4  # only 2 of 6 same-set lines fit
        assert len(cache) == 2


class _ReferenceCache:
    """Obvious model: ``CacheGeometry.set_index`` plus a per-set LRU list."""

    def __init__(self, geometry):
        self.geometry = geometry
        self.sets = [[] for _ in range(geometry.num_sets)]  # [(addr, rec)], LRU first

    def _set(self, address):
        return self.sets[self.geometry.set_index(address)]

    def _find(self, bucket, address):
        for i, (addr, _) in enumerate(bucket):
            if addr == address:
                return i
        return None

    def get(self, address):
        bucket = self._set(address)
        i = self._find(bucket, address)
        return None if i is None else bucket[i][1]

    def touch(self, address):
        bucket = self._set(address)
        bucket.append(bucket.pop(self._find(bucket, address)))

    def put(self, address, record):
        bucket = self._set(address)
        i = self._find(bucket, address)
        if i is not None:
            bucket.pop(i)
        bucket.append((address, record))
        if len(bucket) > self.geometry.ways:
            return bucket.pop(0)
        return None

    def remove(self, address):
        bucket = self._set(address)
        i = self._find(bucket, address)
        return None if i is None else bucket.pop(i)[1]

    def __contains__(self, address):
        return self._find(self._set(address), address) is not None

    def __len__(self):
        return sum(len(bucket) for bucket in self.sets)

    def items(self):
        return [item for bucket in self.sets for item in bucket]


@pytest.mark.parametrize(
    "size, ways",
    [(4096, 4), (48 * 1024, 8)],  # 16 sets; 96 sets (not a power of two)
    ids=["16-set", "96-set"],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_reference_model(size, ways, seed):
    geometry = CacheGeometry(size_bytes=size, ways=ways)
    cache, ref = LineCache(geometry), _ReferenceCache(geometry)
    rng = random.Random(seed)
    # about twice the capacity, so sets spill and evict
    pool = [
        rng.randrange(4 * geometry.num_lines) * 64
        for _ in range(2 * geometry.num_lines)
    ]
    for step in range(20_000):
        address = rng.choice(pool)
        roll = rng.random()
        if roll < 0.4:
            assert cache.put(address, step) == ref.put(address, step)
        elif roll < 0.6:
            assert cache.get(address) == ref.get(address)
        elif roll < 0.75:
            if address in ref:
                cache.touch(address)
                ref.touch(address)
        elif roll < 0.85:
            assert cache.remove(address) == ref.remove(address)
        else:
            assert (address in cache) == (address in ref)
        assert len(cache) == len(ref)
    assert list(cache.items()) == ref.items()  # same lines, same LRU order
