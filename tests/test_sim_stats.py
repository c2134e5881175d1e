"""Unit tests for statistics helpers."""

import pytest

from repro.sim.stats import Histogram, StatCounter, median, stdev


class TestMedian:
    def test_odd_count(self):
        assert median([3, 1, 2]) == 2

    def test_even_count(self):
        assert median([4, 1, 3, 2]) == 2.5

    def test_single(self):
        assert median([7]) == 7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median([])


class TestStdev:
    def test_constant_series(self):
        assert stdev([5, 5, 5]) == 0.0

    def test_known_value(self):
        assert stdev([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stdev([])


class TestStatCounter:
    def test_increment_and_get(self):
        c = StatCounter()
        c.inc("hits")
        c.inc("hits", 4)
        assert c.get("hits") == 5

    def test_missing_is_zero(self):
        assert StatCounter().get("nothing") == 0

    def test_reading_creates_no_key(self):
        c = StatCounter()
        c.get("nothing")
        assert c.as_dict() == {}

    def test_in_place_bump_matches_inc(self):
        a, b = StatCounter(), StatCounter()
        a.inc("x")
        a.inc("y", 3)
        b.counts["x"] += 1
        b.counts["y"] += 3
        assert a.as_dict() == b.as_dict() == {"x": 1, "y": 3}
        assert list(a.as_dict()) == list(b.as_dict())  # first-bump order

    def test_as_dict_and_reset(self):
        c = StatCounter()
        c.inc("a")
        assert c.as_dict() == {"a": 1}
        c.reset()
        assert c.as_dict() == {}

    def test_repr_sorted(self):
        c = StatCounter()
        c.inc("b")
        c.inc("a")
        assert repr(c) == "StatCounter(a=1, b=1)"


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram()
        h.extend([1, 2, 3, 4, 5])
        assert h.count == 5
        assert h.median() == 3
        assert h.mean() == 3
        assert h.percentile(0) == 1
        assert h.percentile(100) == 5

    def test_percentile_bounds(self):
        h = Histogram()
        h.add(1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram().median()
        with pytest.raises(ValueError):
            Histogram().mean()

    def test_empty_percentiles_well_defined(self):
        # percentiles (unlike mean/median) are consumed by reports and
        # metric snapshots on histograms that may have no samples at
        # all; they return 0.0 instead of raising, matching summary()
        h = Histogram()
        assert h.percentile(50) == 0.0
        assert h.p50() == 0.0
        assert h.p99() == 0.0
        assert h.summary()["count"] == 0
        assert h.summary()["p99"] == 0.0
        # the bounds check still applies even when empty
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_samples_copy(self):
        h = Histogram()
        h.add(1)
        samples = h.samples
        samples.append(99)
        assert h.count == 1

    def test_p50_p99_helpers(self):
        h = Histogram()
        h.extend(range(1, 101))
        assert h.p50() == h.percentile(50.0) == 51
        assert h.p99() == h.percentile(99.0) == 99

    def test_p99_small_histogram_is_max(self):
        h = Histogram()
        h.extend([10, 30, 20])
        assert h.p99() == 30

    def test_p50_matches_summary(self):
        h = Histogram()
        h.extend([4, 8, 15, 16, 23, 42])
        assert h.summary()["p50"] == h.p50()
        assert h.summary()["p99"] == h.p99()
