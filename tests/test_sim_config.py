"""Unit tests for the SoC configuration dataclasses."""

import pytest

from repro.sim.config import CacheGeometry, SoCParams


class TestCacheGeometry:
    def test_sonicboom_l1_shape(self):
        geometry = CacheGeometry(size_bytes=32 * 1024, ways=8)
        assert geometry.num_sets == 64
        assert geometry.num_lines == 512

    def test_index_and_tag_roundtrip(self):
        g = CacheGeometry(size_bytes=32 * 1024, ways=8)
        address = 0x1234_5678 & ~0x3F
        set_idx = g.set_index(address)
        tag = g.tag(address)
        assert (tag * g.num_sets + set_idx) * g.line_bytes == address

    def test_line_address_alignment(self):
        g = CacheGeometry(size_bytes=4096, ways=4)
        assert g.line_address(0x1001) == 0x1000
        assert g.line_address(0x1000) == 0x1000

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(size_bytes=1000, ways=3)
        # zero or negative dimensions: no sets to index (or a division by
        # zero) on the first access, so they are refused up front
        for kwargs in (
            dict(size_bytes=0, ways=8),
            dict(size_bytes=-4096, ways=8),
            dict(size_bytes=4096, ways=0),
            dict(size_bytes=4096, ways=-4),
            dict(size_bytes=4096, ways=4, line_bytes=0),
            dict(size_bytes=4096, ways=4, line_bytes=-64),
        ):
            with pytest.raises(ValueError):
                CacheGeometry(**kwargs)

    def test_same_set_different_tags(self):
        g = CacheGeometry(size_bytes=32 * 1024, ways=8)
        a = 0x0000
        b = a + g.num_sets * g.line_bytes
        assert g.set_index(a) == g.set_index(b)
        assert g.tag(a) != g.tag(b)


class TestSoCParams:
    def test_defaults_match_paper_platform(self):
        params = SoCParams()
        assert params.num_cores == 2
        assert params.l1.size_bytes == 32 * 1024
        assert params.l2.size_bytes == 512 * 1024
        assert params.flush_unit.num_fshrs == 8
        assert params.latencies.bus_bytes == 16
        assert params.skip_it

    def test_with_skip_it_copy(self):
        params = SoCParams()
        naive = params.with_skip_it(False)
        assert not naive.skip_it
        assert params.skip_it  # original untouched

    def test_with_cores(self):
        assert SoCParams().with_cores(8).num_cores == 8

    def test_line_bytes_shortcut(self):
        assert SoCParams().line_bytes == 64
