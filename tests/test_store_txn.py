"""Unit tests for :mod:`repro.store.txn` — multi-key atomic transactions.

Covers the buffered :class:`Transaction` handle, the contiguous-run WAL
encoding (``OP_TXN``* + ``OP_TXN_COMMIT``), recovery's all-or-nothing
replay on both the single-writer and the shared log, and the serve-tier
``transact`` path's ticket bookkeeping.
"""

import pytest

from repro.persist.api import PMemView
from repro.persist.flushopt import make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.persist.structures.base import persisted_reader
from repro.store import (
    OP_TXN,
    OP_TXN_COMMIT,
    SharedLogStore,
    Transaction,
    TxnAborted,
    TxnTicket,
    recover,
    ticket_lsns,
)
from repro.store.layout import F_LSN
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem


def mk_store(optimizer="skipit", **kwargs):
    params = TimingParams(num_threads=1, skip_it=(optimizer == "skipit"))
    system = TimingSystem(params)
    heap = SimHeap(params.line_bytes)
    view = PMemView(
        system.threads[0], make_policy("none"), make_optimizer(optimizer, heap)
    )
    kwargs.setdefault("log_capacity", 64)
    kwargs.setdefault("num_buckets", 16)
    store = SharedLogStore(heap, [view], **kwargs)
    return system, heap, view, store


def mk_shared(optimizer="skipit", threads=3, **kwargs):
    params = TimingParams(num_threads=threads, skip_it=(optimizer == "skipit"))
    system = TimingSystem(params)
    heap = SimHeap(params.line_bytes)
    opt = make_optimizer(optimizer, heap)
    policy = make_policy("none")
    views = [PMemView(ctx, policy, opt) for ctx in system.threads[:threads]]
    kwargs.setdefault("log_capacity", 128)
    kwargs.setdefault("num_buckets", 16)
    store = SharedLogStore(heap, views, **kwargs)
    return system, heap, views, store


def recovered(system, store, at=None, **kwargs):
    return recover(
        persisted_reader(system.persisted_image(at)), store.layout, **kwargs
    )


class TestTransactionBuffer:
    def test_reads_see_own_buffered_writes(self):
        system, heap, view, store = mk_store()
        store.put(0, 1, 11)
        txn = store.begin(0)
        assert txn.get(1) == 11  # falls through to the store
        txn.put(1, 99)
        assert txn.get(1) == 99  # own write wins
        txn.delete(1)
        assert txn.get(1) is None  # buffered delete reads as absent
        assert store.get(0, 1) == 11  # nothing published yet

    def test_buffered_writes_do_not_touch_the_log(self):
        system, heap, view, store = mk_store()
        before = store.wal.records_appended
        txn = store.begin(0)
        txn.put(1, 11)
        txn.put(2, 22)
        assert store.wal.records_appended == before

    def test_put_validates_like_the_store(self):
        system, heap, view, store = mk_store()
        txn = store.begin(0)
        with pytest.raises(ValueError, match="keys"):
            txn.put(0, 1)
        with pytest.raises(ValueError, match="values"):
            txn.put(1, 0)
        with pytest.raises(ValueError, match="keys"):
            txn.delete(-3)

    def test_finished_txn_rejects_further_use(self):
        system, heap, view, store = mk_store()
        txn = store.begin(0)
        txn.abort()
        for call in (
            lambda: txn.get(1),
            lambda: txn.put(1, 1),
            lambda: txn.delete(1),
            lambda: txn.commit(),
            lambda: txn.abort(),
        ):
            with pytest.raises(TxnAborted):
                call()

    def test_abort_discards_and_counts(self):
        system, heap, view, store = mk_store()
        before = store.wal.records_appended
        txn = store.begin(0)
        txn.put(5, 55)
        txn.abort()
        assert store.get(0, 5) is None
        assert store.wal.records_appended == before
        assert store.stats.get("store_txn_aborts") == 1


class TestCommitEncoding:
    def test_commit_appends_contiguous_run_and_applies(self):
        system, heap, view, store = mk_store(batch_size=8)
        txn = store.begin(0)
        txn.put(1, 11)
        txn.put(2, 22)
        txn.delete(3)
        ticket = txn.commit()
        assert ticket.records == 3
        assert list(ticket_lsns(ticket)) == list(
            range(ticket.first_lsn, ticket.lsn + 1)
        )
        assert ticket.lsn - ticket.first_lsn == 3  # 3 payload + commit
        # applied to the memtable immediately (reads see it pre-ack)
        assert store.get(0, 1) == 11 and store.get(0, 2) == 22
        assert store.stats.get("store_txns") == 1
        assert store.stats.get("store_txn_records") == 3

    def test_run_ops_are_txn_then_commit(self):
        system, heap, view, store = mk_store(batch_size=8)
        seen = []
        store.wal.on_append = lambda lsn, op, key, value: seen.append(
            (lsn, op, key, value)
        )
        txn = store.begin(0)
        txn.put(7, 77)
        txn.delete(8)
        ticket = txn.commit()
        assert [op for _, op, _, _ in seen] == [OP_TXN, OP_TXN, OP_TXN_COMMIT]
        assert seen[0][2:] == (7, 77)
        assert seen[1][2:] == (8, 0)  # delete encodes as VALUE 0
        assert seen[2][2:] == (ticket.txn_id, 2)  # commit carries the count
        assert [lsn for lsn, _, _, _ in seen] == list(ticket_lsns(ticket))

    def test_empty_txn_commits_without_logging(self):
        system, heap, view, store = mk_store(batch_size=8)
        before = store.wal.records_appended
        ticket = store.begin(0).commit()
        assert ticket.acked and ticket.records == 0
        assert store.wal.records_appended == before
        assert list(ticket_lsns(ticket)) == []

    def test_txn_is_one_ticket_toward_the_epoch(self):
        system, heap, view, store = mk_store(batch_size=2)
        first = store.begin(0)
        first.put(1, 11)
        first.put(2, 22)
        first.put(3, 33)
        t1 = first.commit()
        assert not t1.acked  # 3 writes, still only 1 of 2 batch tickets
        second = store.begin(0)
        second.put(4, 44)
        t2 = second.commit()
        assert t1.acked and t2.acked  # 2nd ticket sealed the epoch
        assert store.stats.get("store_fences") == 1

    def test_oversized_txn_rejected(self):
        system, heap, view, store = mk_store(batch_size=2, log_capacity=16)
        txn = store.begin(0)
        for key in range(1, 16):
            txn.put(key, key + 10)
        with pytest.raises(ValueError, match="capacity|fit"):
            txn.commit()

    def test_large_txn_forces_checkpoint_for_room(self):
        system, heap, view, store = mk_store(
            batch_size=2, log_capacity=32, checkpoint_every=1000
        )
        i = 0
        while store.wal.next_lsn + 11 - store.watermark <= 32:
            i += 1  # fill until an 11-slot run cannot fit any more
            store.put(0, i % 8 + 1, 100 + i)
        checkpoints = store.stats.get("store_checkpoints")
        txn = store.begin(0)
        for key in range(1, 11):
            txn.put(key, 900 + key)
        ticket = txn.commit()  # needs an 11-slot run: must make room
        assert store.stats.get("store_checkpoints") > checkpoints
        assert ticket.records == 10

    def test_ticket_lsns_single_slot_for_plain_tickets(self):
        system, heap, view, store = mk_store()
        ticket = store.put(0, 1, 11)
        assert list(ticket_lsns(ticket)) == [ticket.lsn]
        txn_ticket = TxnTicket(lsn=9, txn_id=1, first_lsn=5, records=4)
        assert list(ticket_lsns(txn_ticket)) == [5, 6, 7, 8, 9]


class TestTxnRecovery:
    def test_committed_txn_replays_whole(self):
        system, heap, view, store = mk_store(batch_size=4)
        store.put(0, 1, 11)
        txn = store.begin(0)
        txn.put(2, 22)
        txn.put(3, 33)
        txn.delete(1)
        txn.commit()
        store.sync()
        state = recovered(system, store)
        assert state.items == {2: 22, 3: 33}
        assert state.replayed_txns == 1
        assert state.rolled_back_txns == 0

    def test_unsealed_txn_rolls_back_whole(self):
        system, heap, view, store = mk_store(batch_size=8)
        store.put(0, 1, 11)
        store.sync()
        txn = store.begin(0)
        txn.put(2, 22)
        txn.put(3, 33)
        txn.commit()  # epoch not sealed: no marker, not durable
        system.persist_all()  # records reach pmem, the marker never does
        state = recovered(system, store)
        assert state.items == {1: 11}  # all of the txn, or none: none
        assert state.applied_lsn == store.acked_lsn  # nothing acked, nothing applied
        assert state.applied_lsn < store.wal.next_lsn - 1

    def test_torn_commit_record_rolls_back_the_prefix(self):
        system, heap, view, store = mk_store(batch_size=8)
        store.put(0, 1, 11)
        store.sync()
        txn = store.begin(0)
        txn.put(2, 22)
        txn.put(3, 33)
        ticket = txn.commit()
        store.sync()
        # crash image torn mid-run: zero the commit record's LSN field
        image = dict(system.persisted_image())
        image[store.layout.field_addr(store.layout.slot_of(ticket.lsn), F_LSN)] = 0
        state = recover(persisted_reader(image), store.layout)
        assert state.items == {1: 11}
        assert state.rolled_back_txns == 1

    def test_txn_partial_flag_applies_torn_prefix(self):
        # the seeded txn_partial_replay mutant: same torn image, but the
        # surviving payload prefix leaks into the recovered state
        system, heap, view, store = mk_store(batch_size=8)
        store.put(0, 1, 11)
        store.sync()
        txn = store.begin(0)
        txn.put(2, 22)
        txn.put(3, 33)
        ticket = txn.commit()
        store.sync()
        image = dict(system.persisted_image())
        image[store.layout.field_addr(store.layout.slot_of(ticket.lsn), F_LSN)] = 0
        state = recover(persisted_reader(image), store.layout, txn_partial=True)
        assert state.items == {1: 11, 2: 22, 3: 33}  # the bug, visibly

    def test_mixed_plain_and_txn_round_trip(self):
        system, heap, view, store = mk_store(batch_size=4)
        store.put(0, 1, 11)
        txn = store.begin(0)
        txn.put(2, 22)
        txn.commit()
        store.put(0, 3, 33)
        aborted = store.begin(0)
        aborted.put(4, 44)
        aborted.abort()
        store.sync()
        state = recovered(system, store)
        assert state.items == {1: 11, 2: 22, 3: 33}
        assert state.applied_lsn == store.acked_lsn


class TestSharedTxn:
    def test_run_is_contiguous_under_interleaving(self):
        system, heap, views, store = mk_shared(threads=3, batch_size=8)
        txn = store.begin(1)
        txn.put(1, 11)
        txn.put(2, 22)
        # other threads write between begin and commit: buffering means
        # the run is reserved only at commit, so it stays contiguous
        store.put(0, 5, 55)
        store.put(2, 6, 66)
        ticket = txn.commit()
        assert ticket.tid == 1
        assert ticket.lsn - ticket.first_lsn == 2
        store.sync()
        state = recovered(system, store)
        assert state.items == {1: 11, 2: 22, 5: 55, 6: 66}
        assert state.replayed_txns == 1

    def test_one_seal_makes_whole_txn_durable(self):
        system, heap, views, store = mk_shared(threads=2, batch_size=8)
        txn = store.begin(0)
        for key in range(1, 5):
            txn.put(key, key * 11)
        ticket = txn.commit()
        assert not ticket.acked
        fences = store.stats.get("store_fences")
        store.sync(0)
        assert ticket.acked and ticket.durable_now is not None
        assert store.stats.get("store_fences") == fences + 1

    def test_txn_read_sees_other_threads_unacked_writes(self):
        system, heap, views, store = mk_shared(threads=2, batch_size=8)
        store.put(0, 9, 99)
        txn = store.begin(1)
        assert txn.get(9) == 99  # shared memtable, pre-ack


class TestServeTierTransact:
    def mk_tier(self, **kwargs):
        from repro.serve.tier import ServeTier

        system, heap, views, store = mk_shared(threads=2, batch_size=4)
        tier = ServeTier(store, **kwargs)
        return system, store, tier

    def test_transact_advances_floor_only_at_commit(self):
        system, store, tier = self.mk_tier()
        session = tier.session(1, tid=0)
        status, ticket = tier.transact(session, {1: 11, 2: 22, 3: 0})
        assert status == "ok"
        assert ticket.records == 3
        assert session.lsn_floor == ticket.lsn  # the commit record, not
        # an intermediate payload LSN
        assert tier.stats.get("serve_txns") == 1
        assert tier.inflight == 1

    def test_transact_harvests_after_drain(self):
        system, store, tier = self.mk_tier()
        session = tier.session(1, tid=0)
        tier.transact(session, {1: 11})
        tier.drain(0)
        assert tier.inflight == 0
        assert tier.stats.get("serve_completed") == 1
        assert tier.ack_latency.count == 1

    def test_empty_transact_completes_immediately(self):
        system, store, tier = self.mk_tier()
        session = tier.session(1, tid=0)
        status, ticket = tier.transact(session, {})
        assert status == "ok" and ticket.acked
        assert tier.inflight == 0
        assert tier.stats.get("serve_completed") == 1

    def test_shed_transact_leaves_no_trace(self):
        system, store, tier = self.mk_tier(high_water=1, low_water=0)
        session = tier.session(1, tid=0)
        records = store.wal.records_appended
        status, ticket = tier.transact(
            session, {1: 11, 2: 22}, backlog=50
        )
        assert status == "shed" and ticket is None
        assert tier.stats.get("serve_rejected") == 1
        # no begin, no append, no memtable write: the txn never happened
        assert store.get(0, 1) is None
        assert store.stats.get("store_txns") == 0
