"""Differential test of PMemView's one-hop dispatch.

A view calls the timing system itself for every memory hook its
optimizer's class inherits unchanged, and looks its policy's flush
answers up once.  The reference view below is the plain form: every
access goes through ``optimizer.*`` and asks ``policy.*``.  Both run the
same seeded operations on their own system; every simulated counter,
clock and word must agree.
"""

import random

import pytest

from repro.persist.api import PMemView
from repro.persist.flushopt import OPTIMIZER_NAMES, make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import POLICY_NAMES, make_policy
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem

LINE = 64
THREADS = 2


class ReferenceView:
    """PMemView's contract with no shortcuts."""

    def __init__(self, ctx, policy, optimizer):
        self.ctx = ctx
        self.policy = policy
        self.optimizer = optimizer
        self._did_update = False
        self.flush_requests = 0

    def read(self, address, critical=False):
        value = self.optimizer.read(self.ctx, address)
        if self.policy.flush_on_read(critical):
            self.flush(address)
        return value

    def write(self, address, value, critical=False):
        self.optimizer.write(self.ctx, address, value)
        self._did_update = True
        if self.policy.flush_on_write(critical):
            self.flush(address)

    def cas(self, address, expected, new, critical=True):
        ok = self.optimizer.cas(self.ctx, address, expected, new)
        if ok:
            self._did_update = True
            if self.policy.flush_on_write(critical):
                self.flush(address)
        return ok

    def flush(self, address):
        self.flush_requests += 1
        self.optimizer.flush(self.ctx, address)

    def clean(self, address):
        self.flush_requests += 1
        self.optimizer.clean(self.ctx, address)

    def clean_range(self, address, length):
        self.flush_requests += 1
        self.optimizer.clean_range(self.ctx, address, length)

    def op_begin(self):
        self._did_update = False

    def op_end(self):
        if self.policy.fence_on_op_end(self._did_update):
            self.ctx.fence()


def _drive(view_cls, optimizer_name, policy_name, seed=7, steps=300):
    params = TimingParams(num_threads=THREADS, skip_it=optimizer_name == "skipit")
    system = TimingSystem(params)
    heap = SimHeap(line_bytes=params.line_bytes)
    optimizer = make_optimizer(optimizer_name, heap, table_entries=16)
    policy = make_policy(policy_name)
    views = [view_cls(ctx, policy, optimizer) for ctx in system.threads]
    # data words at the optimizer's field stride, leaving FliT-adjacent
    # counter slots free
    base = heap.alloc_region(8 * LINE)
    words = list(range(base, base + 8 * LINE, optimizer.field_stride))
    rng = random.Random(seed)
    reads = []
    for _ in range(steps):
        view = views[rng.randrange(THREADS)]
        view.op_begin()
        for _ in range(rng.randint(1, 4)):
            address = rng.choice(words)
            critical = rng.random() < 0.5
            roll = rng.random()
            if roll < 0.35:
                reads.append(view.read(address, critical=critical))
            elif roll < 0.6:
                view.write(address, rng.randint(1, 1 << 20), critical=critical)
            elif roll < 0.75:
                current = view.read(address)
                expected = current if rng.random() < 0.8 else current + 1
                view.cas(address, expected, rng.randint(1, 1 << 20), critical=critical)
            elif roll < 0.85:
                view.clean(address)
            elif roll < 0.95:
                view.flush(address)
            else:
                view.clean_range(address, LINE * rng.randint(1, 3))
        view.op_end()
    return {
        "stats": system.stats.as_dict(),
        "clocks": [ctx.now for ctx in system.threads],
        "arch": dict(system.arch),
        "persisted": system.persisted_image(),
        "flush_requests": [view.flush_requests for view in views],
        "reads": reads,
    }


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@pytest.mark.parametrize("optimizer_name", OPTIMIZER_NAMES)
def test_view_matches_reference_view(optimizer_name, policy_name):
    fast = _drive(PMemView, optimizer_name, policy_name)
    reference = _drive(ReferenceView, optimizer_name, policy_name)
    assert fast == reference
    # the sequence did real traffic
    assert fast["stats"]["loads"] > 0 and fast["stats"]["stores"] > 0


def test_only_overridden_hooks_go_through_the_optimizer():
    system = TimingSystem(TimingParams(num_threads=1))
    heap = SimHeap(line_bytes=LINE)
    policy = make_policy("automatic")
    hooks = ("_own_read", "_own_write", "_own_cas", "_own_flush", "_own_clean")
    owned = {
        name: tuple(
            getattr(PMemView(system.threads[0], policy, make_optimizer(name, heap)), hook)
            for hook in hooks
        )
        for name in OPTIMIZER_NAMES
    }
    assert owned == {
        "plain": (False,) * 5,
        "skipit": (False,) * 5,
        "flit-adjacent": (False, True, True, True, True),
        "flit-hashtable": (False, True, True, True, True),
        "link-and-persist": (True,) * 5,
    }
