"""Differential test: ``persisted_images(ats)`` against ``persisted_image``.

The window generator advances one running image over a stably sorted
landing schedule; the reference recomputes every image from scratch in
arrival order.  Random multi-thread traffic (stores, CBO.CLEAN/FLUSH,
ranged sweeps, the odd fence) keeps writebacks in flight, including
same-line writes that complete before an earlier one (the horizon
case) and adopted payloads.
"""

import random

import pytest

from repro.sim.config import CacheGeometry
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem

LINE = 64
LINES = 12


def _crash_times(system, rng):
    """Every completion and effective time, plus random points between,
    ascending, with one repeated time."""
    times = set()
    for effective, wb in system._landing_schedule():
        times.update((wb.done, effective, effective - 1))
    if not times:
        return []
    low, high = min(times), max(times)
    times.update(rng.randint(low - 5, high + 5) for _ in range(4))
    ats = sorted(times)
    ats.insert(rng.randrange(len(ats)), ats[rng.randrange(len(ats))])
    ats.sort()
    return ats


def _run(seed, skip_it, threads=3, steps=250):
    rng = random.Random(seed)
    system = TimingSystem(TimingParams(num_threads=threads, skip_it=skip_it))
    seen = {"horizon": 0, "adopted": 0, "ranged": 0, "compared": 0}
    adopt = system._record_or_adopt

    def spy(ctx, line, payload, completion):
        if not payload and any(wb.line == line for wb in system.in_flight):
            seen["adopted"] += 1
        adopt(ctx, line, payload, completion)

    system._record_or_adopt = spy
    value = 1
    for _ in range(steps):
        ctx = system.threads[rng.randrange(threads)]
        line = rng.randrange(LINES) * LINE
        roll = rng.random()
        if roll < 0.45:
            ctx.store(line + 8 * rng.randrange(8), value)
            value += 1
        elif roll < 0.65:
            ctx.clean(line)
        elif roll < 0.75:
            ctx.flush(line)
        elif roll < 0.85:
            ctx.clean_range(line, LINE * rng.randint(2, 4))
            seen["ranged"] += 1
        elif roll < 0.88:
            ctx.fence()
        else:
            # skew the clocks so same-line writes overtake each other
            ctx.now += rng.randint(0, 400)
        schedule = system._landing_schedule()
        seen["horizon"] += sum(effective > wb.done for effective, wb in schedule)
        ats = _crash_times(system, rng)
        images = list(system.persisted_images(ats))
        assert images == [system.persisted_image(at) for at in ats]
        seen["compared"] += len(ats)
    return seen


@pytest.mark.parametrize("skip_it", [True, False])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_window_images_equal_one_at_a_time_images(seed, skip_it):
    seen = _run(seed, skip_it)
    # the traffic reached every case the running image must get right
    assert seen["horizon"] > 0
    assert seen["adopted"] > 0
    assert seen["ranged"] > 0
    assert seen["compared"] > 1000


def test_unchanged_window_reuses_the_image_object():
    system = TimingSystem(TimingParams(num_threads=1))
    ctx = system.threads[0]
    ctx.store(0x40, 7)
    ctx.clean(0x40)
    (wb,) = system.in_flight
    before, still_before, landed = system.persisted_images(
        [wb.done - 2, wb.done - 1, wb.done]
    )
    assert before is still_before
    assert before.get(0x40, 0) == 0
    assert landed[0x40] == 7


def test_window_times_must_ascend():
    system = TimingSystem(TimingParams(num_threads=1))
    with pytest.raises(ValueError):
        list(system.persisted_images([5, 4]))


# --------------------------------------------------- the per-line index
# ``in_flight`` is the arrival-ordered list oracles read; the access path
# works from ``_in_flight_of``, the same writes grouped by line.  The
# references below are list scans over ``in_flight`` alone.


def _assert_index_matches_list(system):
    grouped = {}
    for wb in system.in_flight:
        grouped.setdefault(wb.line, []).append(id(wb))
    index = {
        line: [id(wb) for wb in pending]
        for line, pending in system._in_flight_of.items()
    }
    assert index == grouped


def _scan_settle_line(in_flight, persisted, line):
    persisted = dict(persisted)
    remaining = []
    for wb in in_flight:
        if wb.line == line:
            persisted.update(wb.values)
        else:
            remaining.append(wb)
    return remaining, persisted


def _scan_settle_thread(in_flight, persisted, tid):
    last = {}
    for i, wb in enumerate(in_flight):
        if wb.tid == tid:
            last[wb.line] = i
    persisted = dict(persisted)
    remaining = []
    for i, wb in enumerate(in_flight):
        if i <= last.get(wb.line, -1):
            persisted.update(wb.values)
        else:
            remaining.append(wb)
    return remaining, persisted


def _small_hierarchy(threads, skip_it, l3):
    """12 lines over a 2-set L1 and a 2-set L2: capacity misses, L2
    evictions and DRAM fills of lines whose writes are still in flight."""
    return TimingSystem(
        TimingParams(
            num_threads=threads,
            skip_it=skip_it,
            l1=CacheGeometry(size_bytes=2 * 2 * LINE, ways=2),
            l2=CacheGeometry(size_bytes=2 * 4 * LINE, ways=4),
            l3=CacheGeometry(size_bytes=2 * 2 * LINE, ways=2) if l3 else None,
        )
    )


def _run_index(seed, skip_it, l3, threads=3, steps=400):
    rng = random.Random(seed)
    system = _small_hierarchy(threads, skip_it, l3)
    seen = {
        "adopted": 0, "settled_line": 0, "settled_thread": 0,
        "fills": 0, "crashes": 0, "persist_all": 0,
    }
    adopt = system._record_or_adopt
    settle_line = system._settle_line
    settle_thread = system._settle_thread

    def adopt_spy(ctx, line, payload, completion):
        before = list(system.in_flight)
        merged = {}
        for wb in before:
            if wb.line == line:
                merged.update(wb.values)
        adopt(ctx, line, payload, completion)
        if payload:
            expected = dict(payload)
        elif merged:
            expected = merged
            seen["adopted"] += 1
        else:
            assert system.in_flight == before
            return
        assert system.in_flight[:-1] == before
        new = system.in_flight[-1]
        assert (new.tid, new.done, new.line, new.values) == (
            ctx.tid, completion, line, expected
        )

    def settle_line_spy(line):
        expected = _scan_settle_line(system.in_flight, system.persisted, line)
        seen["settled_line"] += len(expected[0]) < len(system.in_flight)
        settle_line(line)
        assert (system.in_flight, system.persisted) == expected

    def settle_thread_spy(tid):
        expected = _scan_settle_thread(system.in_flight, system.persisted, tid)
        seen["settled_thread"] += len(expected[0]) < len(system.in_flight)
        settle_thread(tid)
        assert (system.in_flight, system.persisted) == expected

    system._record_or_adopt = adopt_spy
    system._settle_line = settle_line_spy
    system._settle_thread = settle_thread_spy
    value = 1
    for _ in range(steps):
        ctx = system.threads[rng.randrange(threads)]
        line = rng.randrange(LINES) * LINE
        roll = rng.random()
        if roll < 0.35:
            ctx.store(line + 8 * rng.randrange(8), value)
            value += 1
        elif roll < 0.5:
            fills = system.stats.get("mem_fills")
            ctx.load(line + 8 * rng.randrange(8))
            seen["fills"] += system.stats.get("mem_fills") > fills
        elif roll < 0.62:
            ctx.clean(line)
        elif roll < 0.74:
            ctx.flush(line)
        elif roll < 0.8:
            ctx.clean_range(line, LINE * rng.randint(2, 4))
        elif roll < 0.85:
            ctx.fence()
        elif roll < 0.9:
            # settle a line directly; a no-op when nothing of it is in flight
            settle_line_spy(line)
        elif roll < 0.92:
            system.crash(rng.choice([None, ctx.now]))
            seen["crashes"] += 1
        elif roll < 0.94:
            system.persist_all()
            seen["persist_all"] += 1
        else:
            ctx.now += rng.randint(0, 400)
        _assert_index_matches_list(system)
    return seen


@pytest.mark.parametrize("l3", [False, True])
@pytest.mark.parametrize("skip_it", [True, False])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_line_index_tracks_the_arrival_list(seed, skip_it, l3):
    seen = _run_index(seed, skip_it, l3)
    # every path that edits the index ran, and did real work
    assert all(count > 0 for count in seen.values()), seen
