"""Packed-array equivalence suite.

Pins the packed flat-array :mod:`repro.uarch.arrays` against the retained
object-per-line reference (``tests/arrays_ref.py``) with randomized
differential tests, covers the ``write_word``/``read_word`` bounds fix
(the reference implementation silently *grew* the line on an
out-of-range offset), and checks engine-level bit-identity of one quick
figure-9 point and one quick figure-18 point against the committed
``baselines/quick.json``.
"""

import json
import random
from pathlib import Path

import pytest

from repro.sim.config import CacheGeometry
from repro.tilelink.permissions import Perm
from repro.uarch.arrays import DataArray, MetaArray
from tests.arrays_ref import RefDataArray, RefMetaArray

BASELINE = Path(__file__).resolve().parent.parent / "baselines" / "quick.json"

PERMS = [Perm.NONE, Perm.BRANCH, Perm.TRUNK]


def geometry():
    # 8 sets x 4 ways of 64B lines
    return CacheGeometry(size_bytes=2048, ways=4)


def random_address(rng, g):
    # a handful of tags per set so hits, misses and conflicts all occur
    return rng.randrange(0, 8 * g.num_sets) * g.line_bytes


def assert_meta_equal(packed, ref, g):
    """Full-state comparison: every slot plus the victim choice per set."""
    for set_idx in range(g.num_sets):
        for way in range(g.ways):
            address = set_idx * g.line_bytes  # any address in the set
            pe = packed.way_entry(address, way)
            re = ref.way_entry(address, way)
            assert pe.valid == re.valid, (set_idx, way)
            if pe.valid:
                assert pe.tag == re.tag, (set_idx, way)
                assert pe.perm is re.perm, (set_idx, way)
                assert pe.dirty == re.dirty, (set_idx, way)
                assert pe.skip == re.skip, (set_idx, way)
        for exclude in (None, {0}, {1, 3}, set(range(g.ways))):
            address = set_idx * g.line_bytes
            assert packed.victim_way(address, exclude) == ref.victim_way(
                address, exclude
            ), (set_idx, exclude)


class TestMetaDifferential:
    def test_random_operation_stream(self):
        g = geometry()
        rng = random.Random(0xC0FFEE)
        packed, ref = MetaArray(g), RefMetaArray(g)
        for step in range(4000):
            op = rng.randrange(6)
            address = random_address(rng, g)
            if op == 0:  # install over the reference's victim choice
                way = ref.victim_way(address)
                perm = rng.choice([Perm.BRANCH, Perm.TRUNK])
                dirty, skip = rng.random() < 0.5, rng.random() < 0.3
                packed.install(address, way, perm, dirty=dirty, skip=skip)
                ref.install(address, way, perm, dirty=dirty, skip=skip)
            elif op == 1:  # touch on a hit
                hit = ref.lookup(address)
                if hit is not None:
                    packed.touch(address, hit[0])
                    ref.touch(address, hit[0])
            elif op == 2:  # lookup agreement
                ph, rh = packed.lookup(address), ref.lookup(address)
                assert (ph is None) == (rh is None), step
                if ph is not None:
                    assert ph[0] == rh[0]
            elif op == 3:  # invalidate through the entry proxy
                entry = packed.entry(address)
                if entry is not None:
                    entry.invalidate()
                    ref.entry(address).invalidate()
            elif op == 4:  # mutate dirty/skip through the entry proxy
                hit = ref.lookup(address)
                if hit is not None:
                    way = hit[0]
                    pe = packed.way_entry(address, way)
                    re = ref.way_entry(address, way)
                    pe.dirty = re.dirty = rng.random() < 0.5
                    pe.skip = re.skip = rng.random() < 0.5
            else:  # iter_valid agreement
                pv = [(s, w) for s, w, _ in packed.iter_valid()]
                rv = [(s, w) for s, w, _ in ref.iter_valid()]
                assert pv == rv, step
            if step % 250 == 0:
                assert_meta_equal(packed, ref, g)
        assert_meta_equal(packed, ref, g)

    def test_victim_sequence_matches_reference(self):
        """Install-evict churn: stamp LRU == list LRU at every step."""
        g = geometry()
        rng = random.Random(7)
        packed, ref = MetaArray(g), RefMetaArray(g)
        for _ in range(2000):
            address = random_address(rng, g)
            hit = ref.lookup(address)
            if hit is not None:
                packed.touch(address, hit[0])
                ref.touch(address, hit[0])
                continue
            pv = packed.victim_way(address)
            rv = ref.victim_way(address)
            assert pv == rv
            packed.install(address, pv, Perm.TRUNK)
            ref.install(address, rv, Perm.TRUNK)

    def test_address_of_roundtrip(self):
        g = geometry()
        packed = MetaArray(g)
        address = 5 * g.num_sets * g.line_bytes + 3 * g.line_bytes
        entry = packed.install(address, way=2, perm=Perm.BRANCH)
        assert packed.address_of(g.set_index(address), entry) == address


class TestDataDifferential:
    def test_random_word_and_line_stream(self):
        g = geometry()
        rng = random.Random(42)
        packed, ref = DataArray(g), RefDataArray(g)
        words = g.line_bytes // 8
        for _ in range(3000):
            set_idx = rng.randrange(g.num_sets)
            way = rng.randrange(g.ways)
            op = rng.randrange(4)
            if op == 0:
                value = rng.getrandbits(64)
                offset = rng.randrange(words) * 8
                packed.write_word(set_idx, way, offset, value)
                ref.write_word(set_idx, way, offset, value)
            elif op == 1:
                payload = bytes(rng.getrandbits(8) for _ in range(g.line_bytes))
                packed.write_line(set_idx, way, payload)
                ref.write_line(set_idx, way, payload)
            elif op == 2:
                offset = rng.randrange(words) * 8
                assert packed.read_word(set_idx, way, offset) == ref.read_word(
                    set_idx, way, offset
                )
            else:
                assert packed.read_line(set_idx, way) == ref.read_line(
                    set_idx, way
                )
        for set_idx in range(g.num_sets):
            for way in range(g.ways):
                assert packed.read_line(set_idx, way) == ref.read_line(
                    set_idx, way
                )


class TestWordBounds:
    """Regression for the out-of-range word access bug.

    The reference implementation spliced past the end of the line: a
    64-byte line silently grew to 68 bytes on ``write_word(..., 60, v)``
    and reads past the end returned a short (mis-decoded) word.  The
    packed arrays raise ``ValueError`` instead.
    """

    def test_write_word_rejects_past_end(self):
        data = DataArray(geometry())
        with pytest.raises(ValueError, match="out of range"):
            data.write_word(0, 0, 60, 1)  # would straddle the line end

    def test_write_word_rejects_at_line_bytes(self):
        data = DataArray(geometry())
        with pytest.raises(ValueError, match="out of range"):
            data.write_word(0, 0, 64, 1)

    def test_write_word_rejects_negative(self):
        data = DataArray(geometry())
        with pytest.raises(ValueError, match="out of range"):
            data.write_word(0, 0, -8, 1)

    def test_read_word_rejects_past_end(self):
        data = DataArray(geometry())
        with pytest.raises(ValueError, match="out of range"):
            data.read_word(0, 0, 57)

    def test_last_word_still_accessible(self):
        g = geometry()
        data = DataArray(g)
        data.write_word(0, 0, g.line_bytes - 8, 0xA5A5)
        assert data.read_word(0, 0, g.line_bytes - 8) == 0xA5A5

    def test_reference_grow_bug_is_why(self):
        # documents the reference behaviour the fix removes: the line grew
        ref = RefDataArray(geometry())
        ref.write_word(0, 0, 60, 0xFFFFFFFFFFFFFFFF)
        assert len(ref._lines[(0, 0)]) == 68  # silently oversized


class TestEngineBitIdentity:
    """The packed rewrite must not move a single simulated cycle.

    Re-runs one quick-mode figure-9 point and one quick-mode figure-18
    point and compares them field-for-field against the committed
    ``baselines/quick.json`` (recorded with the original object-per-line
    arrays).
    """

    @pytest.fixture(scope="class")
    def baseline(self):
        with open(BASELINE) as fh:
            return json.load(fh)

    def test_fig9_point_bit_identical(self, baseline):
        from repro.bench.micro import run_fig09

        rows = run_fig09(quick=True, sizes=[512], threads=[1])
        assert len(rows) == 1
        row = rows[0]
        want = next(
            r
            for r in baseline["figures"]["9"]["rows"]
            if r["size_bytes"] == 512 and r["threads"] == 1
        )
        assert row.median_cycles == want["median_cycles"]
        assert row.stdev_cycles == want["stdev_cycles"]

    def test_fig18_point_bit_identical(self, baseline):
        from repro.bench.runner import point_seed
        from repro.bench.shared import run_fig18

        # the baseline snapshot runs each point with its canonical seed
        rows = run_fig18(
            quick=True,
            optimizers=["plain"],
            threads=[1],
            seed=point_seed(18, "plain,t=1"),
        )
        assert len(rows) == 1
        row = rows[0]
        want = next(
            r
            for r in baseline["figures"]["18"]["rows"]
            if r["optimizer"] == "plain" and r["threads"] == 1
        )
        assert row.throughput_mops == want["throughput_mops"]
        assert row.fences == want["fences"]
        assert row.ack_p50 == want["ack_p50"]
        assert row.ack_p99 == want["ack_p99"]
        assert row.cbo_issued == want["cbo_issued"]
        assert row.cbo_skipped == want["cbo_skipped"]
        assert row.wal_records == want["wal_records"]
        assert row.wal_bytes == want["wal_bytes"]
        assert row.commits == want["commits"]
        assert row.mean_batch == want["mean_batch"]
