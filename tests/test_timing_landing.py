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
