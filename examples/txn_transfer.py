#!/usr/bin/env python3
"""A two-key atomic transfer, crashed mid-transaction and post-commit.

``repro.store.txn`` adds all-or-nothing multi-key transactions to the
durable store: the write set buffers client-side, then commits as one
contiguous WAL run — ``OP_TXN`` records followed by one
``OP_TXN_COMMIT`` record, written last — so recovery replays the whole
transaction or none of it.  The classic motivating workload is a
balance transfer: debit one account, credit another, and never let a
crash surface the debit without the credit.

The script seeds two accounts, crashes with a transfer's records
persisted but its epoch unsealed (recovery rolls the transfer back
whole — both balances untouched), then re-runs the transfer, seals the
epoch, crashes again, and shows the transfer replaying whole.

Run:  python examples/txn_transfer.py
"""

from repro.persist.api import PMemView
from repro.persist.flushopt import make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.persist.structures.base import persisted_reader
from repro.store import SharedLogStore, recover
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem

ALICE, BOB = 1, 2
OPENING = 1000
TRANSFER = 250


def balances(items) -> str:
    return f"alice={items.get(ALICE)} bob={items.get(BOB)}"


def main() -> None:
    system = TimingSystem(TimingParams(num_threads=1, skip_it=True))
    heap = SimHeap()
    view = PMemView(
        system.threads[0], make_policy("none"), make_optimizer("skipit", heap)
    )
    # one thread view: the single-writer store, driven through tid 0
    store = SharedLogStore(heap, [view], log_capacity=64, batch_size=8)
    db = store.handle(0)

    db.put(ALICE, OPENING)
    db.put(BOB, OPENING)
    db.sync()
    print(f"opening balances        : {balances(store.memtable)}")

    # -- transfer, crash before the epoch seals ---------------------------
    txn = db.begin()
    funds = txn.get(ALICE)
    txn.put(ALICE, funds - TRANSFER)
    txn.put(BOB, txn.get(BOB) + TRANSFER)
    ticket = txn.commit()
    print(f"transfer committed      : lsn run {ticket.first_lsn}..{ticket.lsn}"
          f" ({ticket.records} records), acked={ticket.acked}")
    system.persist_all()  # the run reaches NVMM; the epoch marker never does
    system.crash(at=None)
    state = recover(persisted_reader(system.persisted_image()), store.layout)
    print("\n*** CRASH before the epoch seal ***\n")
    print(f"recovered balances      : {balances(state.items)}")
    print(f"replay stopped because  : {state.stop_reason}")
    assert state.items[ALICE] == OPENING and state.items[BOB] == OPENING, (
        "a partial transfer leaked through recovery!"
    )
    total = state.items[ALICE] + state.items[BOB]
    assert total == 2 * OPENING, f"money went missing: {total}"
    print("rolled back whole: no debit without the credit, no money lost")

    # -- same transfer, sealed, crash after --------------------------------
    store2 = SharedLogStore(heap, [view], batch_size=8, layout=store.layout)
    store2.adopt(state)
    db2 = store2.handle(0)
    txn = db2.begin()
    txn.put(ALICE, txn.get(ALICE) - TRANSFER)
    txn.put(BOB, txn.get(BOB) + TRANSFER)
    ticket = txn.commit()
    db2.sync()
    assert ticket.acked, "sync must make the transaction durable"
    system.crash(at=None)
    state2 = recover(persisted_reader(system.persisted_image()), store2.layout)
    print("\n*** CRASH after the transaction acked ***\n")
    print(f"recovered balances      : {balances(state2.items)}")
    print(f"transactions replayed   : {state2.replayed_txns}")
    assert state2.items[ALICE] == OPENING - TRANSFER
    assert state2.items[BOB] == OPENING + TRANSFER
    assert state2.replayed_txns == 1
    print("replayed whole: the acked transfer survives the crash intact")


if __name__ == "__main__":
    main()
