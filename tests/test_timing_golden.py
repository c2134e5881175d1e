"""Golden trace for the timing model: counters, clocks and persisted words.

A seeded mixed trace on two threads — loads, stores, CAS, CBO.CLEAN and
CBO.FLUSH, CBO.RANGE sweeps and fences — runs against small caches that
spill at every level, with Skip It on and off and the victim L3 on and
off.  The expected values were recorded from the straightforward
per-access implementation; any rework of the access path must reproduce
them exactly, including which counter keys exist.  The persisted image
and the per-line writeback counts are pinned by a digest of their sorted
items (plus their size, so a mismatch says which way it went).
"""

import hashlib
import random

import pytest

from repro.sim.config import CacheGeometry
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem

LINES = 160  # more than the L2 holds, so inclusive and L3 spills happen
HOT_LINES = 12  # most accesses stay here, so L1 hits and upgrades happen too
WORDS_PER_LINE = 4
OPS = 3000


def _digest(mapping):
    blob = repr(sorted(mapping.items())).encode()
    return len(mapping), hashlib.sha256(blob).hexdigest()[:16]


def _run(skip_it, l3, seed=7):
    params = TimingParams(
        num_threads=2,
        l1=CacheGeometry(size_bytes=1024, ways=2),  # 8 sets
        l2=CacheGeometry(size_bytes=6144, ways=4),  # 24 sets
        l3=CacheGeometry(size_bytes=4096, ways=4) if l3 else None,
        skip_it=skip_it,
    )
    system = TimingSystem(params)
    rng = random.Random(seed)

    def word():
        lines = HOT_LINES if rng.random() < 0.7 else LINES
        return rng.randrange(lines) * 64 + rng.randrange(WORDS_PER_LINE) * 8

    for _ in range(OPS):
        ctx = system.threads[rng.randrange(2)]
        roll = rng.random()
        if roll < 0.35:
            system.load(ctx, word())
        elif roll < 0.60:
            system.store(ctx, word(), rng.randrange(1, 1000))
        elif roll < 0.70:
            address = word()
            current = system.arch.get(address, 0)
            expected = current if rng.random() < 0.5 else current + 1
            system.cas(ctx, address, expected, rng.randrange(1, 1000))
        elif roll < 0.80:
            system.cbo(ctx, word(), invalidate=False)
        elif roll < 0.87:
            system.cbo(ctx, word(), invalidate=True)
        elif roll < 0.91:
            system.cbo_range(
                ctx,
                word(),
                rng.randrange(1, 6 * 64),
                invalidate=rng.random() < 0.5,
                wait=rng.random() < 0.3,
            )
        else:
            system.fence(ctx)
    return {
        "stats": system.stats.as_dict(),
        "now": [ctx.now for ctx in system.threads],
        "persisted_image": _digest(system.persisted_image()),
        "wb_lines": _digest(system.wb_lines),
    }


# recorded from the straightforward per-access implementation
EXPECTED = {
    (True, False): {
        "now": [58959, 54483],
        "persisted_image": (224, "7dbc4ba7d95e3202"),
        "wb_lines": (124, "22a313d60b908291"),
        "stats": {
            "cas_failures": 166,
            "cas_successes": 147,
            "cbo_dram": 424,
            "cbo_issued": 435,
            "cbo_l2_clean": 403,
            "cbo_range_issued": 109,
            "cbo_range_line_skipped": 30,
            "cbo_range_lines": 422,
            "cbo_range_waits": 35,
            "cbo_skipped": 55,
            "fences": 299,
            "l1_evict_writebacks": 315,
            "l1_hits": 598,
            "l1_misses": 1326,
            "l2_evict_drops": 89,
            "l2_evict_writebacks": 101,
            "l2_hits": 789,
            "loads": 1021,
            "mem_fills": 537,
            "stores": 1081,
            "upgrades": 178,
        },
    },
    (True, True): {
        "now": [59123, 54493],
        "persisted_image": (178, "3f59ddf62550701b"),
        "wb_lines": (98, "9a7ed694f07f25d8"),
        "stats": {
            "cas_failures": 166,
            "cas_successes": 147,
            "cbo_dram": 456,
            "cbo_issued": 435,
            "cbo_l2_clean": 373,
            "cbo_l3_dirty_writebacks": 25,
            "cbo_range_issued": 109,
            "cbo_range_line_skipped": 28,
            "cbo_range_lines": 422,
            "cbo_range_waits": 35,
            "cbo_skipped": 55,
            "fences": 299,
            "l1_evict_writebacks": 315,
            "l1_hits": 598,
            "l1_misses": 1326,
            "l2_evict_to_l3": 190,
            "l2_hits": 788,
            "l3_evict_writebacks": 6,
            "l3_hits": 109,
            "loads": 1021,
            "mem_fills": 538,
            "stores": 1081,
            "upgrades": 178,
        },
    },
    (False, False): {
        "now": [61141, 56395],
        "persisted_image": (224, "7dbc4ba7d95e3202"),
        "wb_lines": (124, "22a313d60b908291"),
        "stats": {
            "cas_failures": 166,
            "cas_successes": 147,
            "cbo_dram": 424,
            "cbo_issued": 490,
            "cbo_l2_clean": 488,
            "cbo_range_issued": 109,
            "cbo_range_lines": 422,
            "cbo_range_waits": 35,
            "fences": 299,
            "l1_evict_writebacks": 315,
            "l1_hits": 579,
            "l1_misses": 1360,
            "l2_evict_drops": 89,
            "l2_evict_writebacks": 101,
            "l2_hits": 786,
            "loads": 1021,
            "mem_fills": 574,
            "stores": 1081,
            "upgrades": 163,
        },
    },
    (False, True): {
        "now": [61281, 56613],
        "persisted_image": (178, "3f59ddf62550701b"),
        "wb_lines": (98, "9a7ed694f07f25d8"),
        "stats": {
            "cas_failures": 166,
            "cas_successes": 147,
            "cbo_dram": 456,
            "cbo_issued": 490,
            "cbo_l2_clean": 456,
            "cbo_l3_dirty_writebacks": 25,
            "cbo_range_issued": 109,
            "cbo_range_lines": 422,
            "cbo_range_waits": 35,
            "fences": 299,
            "l1_evict_writebacks": 315,
            "l1_hits": 579,
            "l1_misses": 1360,
            "l2_evict_to_l3": 190,
            "l2_hits": 786,
            "l3_evict_writebacks": 6,
            "l3_hits": 109,
            "loads": 1021,
            "mem_fills": 574,
            "stores": 1081,
            "upgrades": 163,
        },
    },
}


@pytest.mark.parametrize("skip_it", [True, False], ids=["skipit", "noskip"])
@pytest.mark.parametrize("l3", [False, True], ids=["l2only", "l3"])
def test_golden_trace(skip_it, l3):
    assert _run(skip_it, l3) == EXPECTED[skip_it, l3]
