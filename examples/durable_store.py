#!/usr/bin/env python3
"""A crash-consistent KV store with group commit, crashed twice.

``repro.store`` is the application layer the paper's primitives exist
for: a write-ahead log sealed with CBO.CLEAN + fence, operations
acknowledged in group-commit epochs, a checkpoint behind an atomically
flipped superblock pointer, and recovery that replays the log tail.

The script commits traffic with batch size 8 on the Skip It hardware,
crashes mid-batch, recovers (acked ops survive, the unacked tail is
discarded as a unit), reopens the store on the recovered state, writes
more, and crashes again.

Run:  python examples/durable_store.py
"""

import random

from repro.persist.api import PMemView
from repro.persist.flushopt import make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.persist.structures.base import persisted_reader
from repro.store import SharedLogStore, recover
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem


def main() -> None:
    system = TimingSystem(TimingParams(num_threads=1, skip_it=True))
    heap = SimHeap()
    view = PMemView(
        system.threads[0], make_policy("none"), make_optimizer("skipit", heap)
    )
    # one thread view: the single-writer store, driven through tid 0
    store = SharedLogStore(
        heap, [view], log_capacity=128, batch_size=8, checkpoint_every=4
    )
    db = store.handle(0)

    rng = random.Random(2024)
    acked, unacked = [], []
    for i in range(1, 101):
        ticket = db.put(rng.randint(1, 40), 1000 + i)
        (acked if ticket.acked else unacked).append(ticket)
    # three more puts that stay *pending* — no epoch seal, no ack
    pending = [db.put(90 + i, 9000 + i) for i in range(3)]

    everything = acked + unacked + pending
    print(f"operations submitted    : {len(everything)}")
    print(f"acknowledged (durable)  : {sum(t.acked for t in everything)}")
    print(f"pending (in open batch) : {sum(not t.acked for t in everything)}")
    print(f"commit epochs / fences  : {store.stats.get('store_commits')}"
          f" / {store.stats.get('store_fences')}")
    print(f"checkpoints taken       : {store.stats.get('store_checkpoints')}")
    print(f"writebacks issued       : {system.stats.get('cbo_issued')}")
    print(f"writebacks skipped      : {system.stats.get('cbo_skipped')} (Skip It)")

    # -- power failure, mid-batch -----------------------------------------
    system.crash(at=None)
    state = recover(persisted_reader(system.persisted_image()), store.layout)
    print("\n*** CRASH: caches gone, recovering from NVMM ***\n")
    print(f"recovered keys          : {len(state.items)}")
    print(f"applied through lsn     : {state.applied_lsn} "
          f"(acked was {store.acked_lsn})")
    print(f"replay stopped because  : {state.stop_reason}")
    assert state.applied_lsn == store.acked_lsn
    assert all(90 + i not in state.items for i in range(3)), "unacked leaked!"

    # -- reopen on the recovered state, keep going ------------------------
    store2 = SharedLogStore(heap, [view], batch_size=8, layout=store.layout)
    store2.adopt(state)
    db2 = store2.handle(0)
    for i in range(1, 33):
        db2.put(200 + i % 16, 5000 + i)
    db2.sync()
    system.crash(at=None)
    state2 = recover(persisted_reader(system.persisted_image()), store2.layout)
    print("\n*** SECOND CRASH after reopen ***\n")
    print(f"recovered keys          : {len(state2.items)}")
    assert state2.items == store2.memtable
    assert state2.applied_lsn == store2.acked_lsn
    print("second-generation state matches exactly — recovery is stable")


if __name__ == "__main__":
    main()
