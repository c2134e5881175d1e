""":mod:`repro.store.shared` — the store: one log, N threads, one fence
per epoch.

:class:`SharedLogStore` is the repo's only store.  With one thread view
it is the single-writer store: a private log, epochs sealed by its own
clean sequence and fence.  The sharded baseline
(:mod:`repro.workloads.store`, figure 17) runs one such store per thread,
so every thread pays its own clean sequence and fence once per batch —
N threads, N fences per group-commit interval.  That is exactly the
redundant-persist traffic the paper exists to eliminate, just moved up
a layer.

With N > 1 views the threads share the log instead:

* **Shared WAL** — all threads append CRC+LSN records into one circular
  log.  Slot reservation is a CAS-bumped tail word on the shared cache
  hierarchy (:class:`SharedWriteAheadLog`), so reservation traffic — the
  tail line bouncing between L1s — is simulated and charged, not
  assumed.  Records from different threads interleave in LSN order.
* **Leader-based sealing** — an :class:`EpochSealer` accumulates every
  thread's :class:`SharedCommitTicket`.  When the epoch trigger fires
  (``batch_size`` ops *per thread*, i.e. ``batch_size × threads``
  records, or a cycle budget), the **leader** thread writes one COMMIT
  marker covering all threads' records, issues one clean sequence and
  **one fence**, then acks every ticket — N threads' fences collapse
  into one.  If the leader does not show up (it may be read-only), a
  follower takes leadership over with a CAS on the shared leader word
  and seals in its place (election/handoff).
* **Ack latency** — the price of helped completion is that a thread's
  op becomes durable on *someone else's* fence.  Every ticket records
  submit→durable cycles; per-thread histograms
  (:attr:`SharedLogStore.ack_latency`) are the subsystem's headline
  metric, exported as obs histograms with p50/p99 summaries.

Durability contract: ``put``/``delete`` return a ticket; the operation
is *durable* once ``ticket.acked`` is True (its epoch's fence retired —
on whichever thread sealed it).  Before that it may or may not survive
a crash: epochs apply atomically, so recovery surfaces either the whole
epoch or none of it, and never anything beyond the last *initiated*
epoch marker.  ``get`` reads the shared memtable, so reads see every
thread's submitted-but-unacked writes.  Recovery replays the log in LSN
order (interleaved epochs replay exactly like single-threaded ones,
because the CAS tail makes LSN order the submission order), so
:func:`repro.store.recovery.recover` serves every thread count.

The store does its own explicit cleans and fences (that is the whole
point), so it is meant to run with the ``none`` persistence policy;
automatic policies would add per-access flushes on top and drown the
group-commit signal.

Virtual-time note: scheduler steps are atomic, so the tail CAS never
*fails* in the model — it buys the coherence traffic and latency of the
contended line, while atomicity comes from the step granularity.  The
same holds for the leadership CAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.persist.api import PMemView
from repro.persist.heap import SimHeap
from repro.sim.stats import Histogram, StatCounter
from repro.store.checkpoint import CheckpointManager
from repro.store.layout import (
    OP_COMMIT,
    OP_DELETE,
    OP_PUT,
    OP_TXN,
    OP_TXN_COMMIT,
    RECORD_FIELDS,
    StoreLayout,
)
from repro.store.recovery import RecoveredState
from repro.store.txn import Transaction, TxnTicket, ticket_lsns
from repro.store.wal import WriteAheadLog


@dataclass
class SharedCommitTicket:
    """Handle for one submitted operation on the shared log.

    ``submit_now`` is the submitting thread's clock at append time;
    ``durable_now`` is the sealing thread's clock when the epoch's fence
    retired.  Their difference is the ack latency the subsystem reports.
    """

    lsn: int
    tid: int
    submit_now: int
    acked: bool = False
    durable_now: Optional[int] = None
    #: causal trace id assigned by an attached StoreTracer (None untraced)
    trace_id: Optional[int] = None


class SharedWriteAheadLog(WriteAheadLog):
    """A WAL whose tail is reserved with a CAS on shared memory.

    ``tail_addr`` holds the last reserved LSN; every append CAS-bumps it
    through the appending thread's view, so the tail line migrates
    between L1s and the reservation cost scales with contention.
    ``next_lsn`` mirrors the durable word for cheap capacity checks.
    """

    def __init__(self, layout: StoreLayout, tail_addr: int) -> None:
        super().__init__(layout)
        self.tail_addr = tail_addr

    def reserve(self, view: PMemView) -> int:
        current = view.read(self.tail_addr)
        while not view.cas(self.tail_addr, current, current + 1):
            # unreachable under atomic scheduler steps, but the retry
            # loop is the honest shape of the protocol
            self.tail_cas_failures += 1
            current = view.read(self.tail_addr)
        lsn = current + 1
        self.next_lsn = lsn + 1
        return lsn

    def reserve_run(self, view: PMemView, count: int) -> int:
        """Claim *count* contiguous slots with **one** CAS bump.

        This is what makes a shared-log transaction's records
        contiguous: the whole run (payloads plus the TXN_COMMIT slot)
        is reserved atomically, so no other thread's append can land
        inside it.
        """
        if count < 1:
            raise ValueError("reserve_run needs at least one slot")
        current = view.read(self.tail_addr)
        while not view.cas(self.tail_addr, current, current + count):
            self.tail_cas_failures += 1
            current = view.read(self.tail_addr)
        first = current + 1
        self.next_lsn = first + count
        return first

    def reset_tail(self, view: PMemView, lsn: int) -> None:
        """Re-point the tail word after adoption (transient state)."""
        view.write(self.tail_addr, lsn)
        super().reset_tail(view, lsn)


class EpochSealer:
    """Leader-based cross-thread group commit.

    The epoch trigger is ``batch_size`` operations *per thread*: an
    epoch carries roughly ``batch_size × threads`` records and is sealed
    with one marker, one clean sequence and one fence — the same
    batching delay per thread as the sharded baseline at the same
    ``batch_size``, divided by N fences.

    Sealing is the leader's job.  A follower whose submit fires the
    trigger defers (counted in ``store_seals_deferred``); once the
    backlog exceeds the trigger by a full scheduler round (``threads``
    extra records) or the cycle budget has doubly expired, the follower
    CASes the leader word to itself and seals — leadership handoff for
    stalled or read-only leaders.
    """

    def __init__(
        self,
        store: "SharedLogStore",
        batch_size: int = 8,
        cycle_budget: Optional[int] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.store = store
        self.batch_size = batch_size
        self.cycle_budget = cycle_budget
        self.leader_tid = 0
        self.pending: List[SharedCommitTicket] = []
        self._window_start: Optional[int] = None

    @property
    def epoch_records(self) -> int:
        return self.batch_size * len(self.store.views)

    # ------------------------------------------------------------- intake
    def submit(self, tid: int, ticket: SharedCommitTicket) -> None:
        """Queue a ticket; seal (or hand leadership over) on a trigger."""
        store = self.store
        now = store.views[tid].ctx.now
        if not self.pending:
            self._window_start = now
        self.pending.append(ticket)
        budget = self.cycle_budget
        elapsed = now - self._window_start if self._window_start is not None else 0
        excess = len(self.pending) - self.epoch_records
        if excess < 0 and not (budget is not None and elapsed >= budget):
            return
        if tid == self.leader_tid:
            self.seal(tid)
        elif excess >= len(store.views) or (
            budget is not None and elapsed >= 2 * budget
        ):
            self.take_over(tid)
            self.seal(tid)
        else:
            # trigger fired on a follower: give the leader one scheduler
            # round to claim the epoch before leadership moves
            store.stats.inc("store_seals_deferred")
            if store.tracer is not None:
                store.tracer.seal_deferred(now)

    def take_over(self, tid: int) -> None:
        """Claim leadership with a CAS on the shared leader word."""
        store = self.store
        view = store.views[tid]
        if view.cas(store.leader_addr, self.leader_tid + 1, tid + 1):
            self.leader_tid = tid
            store.stats.inc("store_leader_takeovers")

    # -------------------------------------------------------------- seal
    def seal(self, tid: int) -> None:
        """Seal the pending epoch on thread *tid*'s clock; no-op if empty.

        One marker covering every thread's records, one clean sequence
        (payload first, marker last), one fence — then every ticket in
        the batch is acknowledged and its ack latency recorded.
        """
        store = self.store
        if not self.pending:
            return
        batch, self.pending = self.pending, []
        self._window_start = None
        view = store.views[tid]
        tracer = store.tracer
        epoch = None
        if tracer is not None:
            epoch = tracer.seal_begin(tid, view.ctx.now)

        marker_lsn = store.wal.append(view, OP_COMMIT, len(batch), 0)
        # marker in cache: the epoch is *initiated* — an eviction could
        # land it at any moment (the oracle's ceiling on recovery)
        store.initiated_lsn = marker_lsn
        if tracer is not None:
            tracer.seal_marker(epoch, marker_lsn, view.ctx.now)

        if store.ranged_seal:
            # one CBO.RANGE sweep over every thread's records at once
            # (two on a log wrap) — the leader's sweep pulls dirty lines
            # out of the other threads' L1s just like its cleans would
            first_lsn = min(min(ticket_lsns(t)) for t in batch)
            store.wal.clean_span(view, first_lsn, marker_lsn)
        else:
            for ticket in batch:
                # a transaction ticket covers its whole contiguous run
                for lsn in ticket_lsns(ticket):
                    store.wal.clean_record(view, lsn)
            store.wal.clean_record(view, marker_lsn)
        if tracer is not None:
            tracer.seal_cleaned(epoch, view.ctx.now)

        mutants = store.mutants
        if "store_ack_before_fence" in mutants:
            # seeded bug: acknowledge while the epoch's writebacks are
            # still in flight — a crash in that window loses acked ops
            self._acknowledge(batch, marker_lsn, view, epoch)
        elif "shared_ack_before_fence" in mutants:
            # seeded bug: the leader treats its fence as covering only
            # its own records and acks the followers' tickets while the
            # epoch's writebacks are still in flight — a crash in that
            # window loses acknowledged follower updates
            self._acknowledge(
                [t for t in batch if t.tid != tid], marker_lsn, view, epoch
            )

        store.probe_point("epoch_flushed")
        if store.ranged_seal:
            # the range is one ordering token: wait for its sweep's
            # writebacks to land instead of issuing a FENCE — atomicity
            # still comes from the marker + CRC/LSN chain, so the
            # cheaper completion wait gives the same durability promise
            waited_from = view.ctx.now
            view.ctx.await_writebacks()
            store.stats.inc("store_ranged_seals")
            waited = view.ctx.now - waited_from
        else:
            view.ctx.fence()
            store.stats.inc("store_fences")
            waited = getattr(view.ctx, "last_fence_waited", 0)
        if tracer is not None:
            tracer.seal_fenced(epoch, view.ctx.now, waited)

        self._acknowledge(batch, marker_lsn, view, epoch)
        store.stats.inc("store_commits")
        store.batch_sizes.add(len(batch))
        store.probe_point("epoch_committed")
        if tracer is not None:
            tracer.seal_end(epoch, view.ctx.now, len(batch))

    def _acknowledge(
        self,
        tickets: Sequence[SharedCommitTicket],
        marker_lsn: int,
        view: PMemView,
        epoch=None,
    ) -> None:
        store = self.store
        tracer = store.tracer
        now = view.ctx.now
        for ticket in tickets:
            if ticket.acked:
                continue
            ticket.acked = True
            ticket.durable_now = now
            latency = now - ticket.submit_now
            if latency < 0:
                # cross-thread clocks are only loosely synchronized by
                # the scheduler; a seal can complete on a clock slightly
                # behind the submitter's
                latency = 0
                store.stats.inc("store_ack_latency_clamped")
            store.ack_latency[ticket.tid].add(latency)
            store.ack_latency_all.add(latency)
            if tracer is not None and epoch is not None:
                tracer.op_acked(epoch, ticket, now)
        store.acked_lsn = max(store.acked_lsn, marker_lsn)


class StoreHandle:
    """A per-thread facade over the shared store (tid pre-bound)."""

    def __init__(self, store: "SharedLogStore", tid: int) -> None:
        self.store = store
        self.tid = tid

    def put(self, key: int, value: int) -> SharedCommitTicket:
        return self.store.put(self.tid, key, value)

    def delete(self, key: int) -> SharedCommitTicket:
        return self.store.delete(self.tid, key)

    def get(self, key: int) -> Optional[int]:
        return self.store.get(self.tid, key)

    def begin(self) -> Transaction:
        """Open a buffered transaction on this thread's clock."""
        return self.store.begin(self.tid)

    def sync(self) -> None:
        """Seal the pending epoch on this thread's clock."""
        self.store.sync(self.tid)

    def checkpoint(self) -> None:
        """Sync, then compact, charged to this thread's clock."""
        self.store.checkpoint(self.tid)


class SharedLogStore:
    """Crash-consistent KV store over one or more virtual-time threads.

    ``views`` binds the store to its threads: ``views[tid]`` is thread
    *tid*'s :class:`~repro.persist.api.PMemView` (all over one heap and
    one optimizer).  Every mutating call takes the acting ``tid`` first;
    :meth:`handle` returns a tid-bound facade.  ``SharedLogStore(heap,
    [view])`` is the single-writer store: tid 0 is its only thread.
    """

    #: thread count from which slots are CAS-reserved off a shared tail
    #: word and leadership lives in a shared leader word.  Below it the
    #: log is private: a lone thread has no one to race and is always
    #: the leader, so it appends with plain bookkeeping.  Figure 18's
    #: scaling sweep lowers it to 1, so its one-thread point runs the
    #: same protocol as its N-thread points.
    shared_tail_from = 2

    def __init__(
        self,
        heap: SimHeap,
        views: Sequence[PMemView],
        *,
        log_capacity: int = 512,
        batch_size: int = 8,
        cycle_budget: Optional[int] = None,
        checkpoint_every: int = 0,
        num_buckets: int = 64,
        layout: Optional[StoreLayout] = None,
        probe: Optional[Callable[[str], None]] = None,
        ranged_seal: bool = False,
    ) -> None:
        if not views:
            raise ValueError("shared store needs at least one thread view")
        strides = {view.optimizer.field_stride for view in views}
        if len(strides) != 1:
            raise ValueError("all views must share one optimizer stride")
        stride = strides.pop()
        if layout is None:
            superblock = heap.alloc_region(heap.line_bytes)
            log_base = heap.alloc_region(log_capacity * RECORD_FIELDS * stride)
            layout = StoreLayout(
                superblock=superblock,
                log_base=log_base,
                log_capacity=log_capacity,
                field_stride=stride,
                line_bytes=heap.line_bytes,
                num_buckets=num_buckets,
            )
        elif layout.field_stride != stride:
            raise ValueError("layout stride does not match the views' optimizer")
        threads = len(views)
        # an epoch needs marker + one op of slack on top of its records;
        # with several threads it may also overshoot by one record per
        # thread (leader grace round), which a lone thread never does
        grace = threads if threads > 1 else 0
        if batch_size * threads + grace + 2 > layout.log_capacity:
            raise ValueError(
                f"epoch of {batch_size} ops x {threads} threads does "
                f"not fit a {layout.log_capacity}-slot log"
            )
        self.heap = heap
        self.views = list(views)
        #: clock the checkpointer charges to; rebound to the acting
        #: thread's view for the duration of a checkpoint
        self.view = self.views[0]
        self.layout = layout
        #: policy knob: seal epochs (and publish checkpoints) with
        #: CBO.RANGE sweeps instead of per-line clean loops + fences
        self.ranged_seal = ranged_seal
        self.leader_addr: Optional[int] = None
        if threads >= self.shared_tail_from:
            # transient coordination words, one line each: the CAS-bumped
            # tail and the leader claim (recovery never reads either)
            tail_addr = heap.alloc_region(heap.line_bytes)
            self.leader_addr = heap.alloc_region(heap.line_bytes)
            self.views[0].write(self.leader_addr, 1)  # leader_tid 0, 1-based
            self.wal: WriteAheadLog = SharedWriteAheadLog(layout, tail_addr)
        else:
            self.wal = WriteAheadLog(layout)
        self.sealer = EpochSealer(self, batch_size, cycle_budget)
        self.checkpointer = CheckpointManager(self)
        self.checkpoint_every = checkpoint_every
        self.memtable: Dict[int, int] = {}
        #: key -> LSN of its last submitted mutation (session plumbing:
        #: a memtable read of one key observes exactly this LSN, so a
        #: serving session's floor rises no further than it must)
        self.memtable_lsn: Dict[int, int] = {}
        self.acked_lsn = 0
        self.initiated_lsn = 0
        self.watermark = 0
        self.stats = StatCounter()
        self.batch_sizes = Histogram()
        #: submit→durable cycles, per thread and aggregated — the
        #: headline metric of cross-thread group commit
        self.ack_latency: List[Histogram] = [Histogram() for _ in views]
        self.ack_latency_all = Histogram()
        self.mutants: Set[str] = set()  # seeded-bug flags (tests only)
        self.probe: Optional[Callable[[str], None]] = probe
        #: causal tracer (repro.obs.trace.StoreTracer); None = zero-cost
        self.tracer = None
        self._commits_at_checkpoint = 0
        self.txn_counter = 0  # txn ids, monotonic per store instance

    @property
    def leader_tid(self) -> int:
        return self.sealer.leader_tid

    @property
    def submitted_lsn(self) -> int:
        """Last reserved LSN — the submitted tip (upper bound on any
        session's floor; per-key observation uses :attr:`memtable_lsn`)."""
        return self.wal.next_lsn - 1

    @property
    def unsealed_backlog(self) -> int:
        """Records accumulated toward the current epoch (WAL tail depth)."""
        return len(self.sealer.pending)

    def flush_backlog(self, tid: int) -> int:
        """Thread *tid*'s in-flight writebacks (its flush-queue depth).

        ``unsealed_backlog + flush_backlog(tid)`` is the write backlog
        the serving tier's admission controller gates on.
        """
        return len(self.views[tid].ctx.outstanding)

    def handle(self, tid: int) -> StoreHandle:
        return StoreHandle(self, tid)

    # ---------------------------------------------------------- internals
    def probe_point(self, name: str) -> None:
        """Crash-sweep hook: fired at every protocol boundary."""
        if self.probe is not None:
            self.probe(name)

    def _ensure_capacity(self, tid: int, span: int = 1) -> None:
        # room for the next *span* appends plus the epoch's marker
        if self.wal.next_lsn + span - self.watermark > self.layout.log_capacity:
            self.checkpoint(tid)

    def _maybe_checkpoint(self, tid: int) -> None:
        if not self.checkpoint_every:
            return
        commits = self.stats.get("store_commits")
        if commits - self._commits_at_checkpoint >= self.checkpoint_every:
            self.checkpoint(tid)

    def _submit(self, tid: int, op: int, key: int, value: int) -> SharedCommitTicket:
        if key <= 0:
            raise ValueError("keys must be positive integers")
        self._ensure_capacity(tid)
        view = self.views[tid]
        tracer = self.tracer
        if tracer is not None:
            trace_id = tracer.op_begin(tid, view.ctx.now)
        lsn = self.wal.append(view, op, key, value)
        if op == OP_PUT:
            self.memtable[key] = value
        else:
            self.memtable.pop(key, None)
        self.memtable_lsn[key] = lsn
        ticket = SharedCommitTicket(lsn, tid, view.ctx.now)
        if tracer is not None:
            tracer.op_submitted(trace_id, ticket, ticket.submit_now)
        self.probe_point("op_submitted")
        self.sealer.submit(tid, ticket)
        self._maybe_checkpoint(tid)
        return ticket

    # ---------------------------------------------------------------- API
    def put(self, tid: int, key: int, value: int) -> SharedCommitTicket:
        if value <= 0:
            raise ValueError("values must be positive integers")
        self.stats.inc("store_puts")
        return self._submit(tid, OP_PUT, key, value)

    def delete(self, tid: int, key: int) -> SharedCommitTicket:
        self.stats.inc("store_deletes")
        return self._submit(tid, OP_DELETE, key, 0)

    def get(self, tid: int, key: int) -> Optional[int]:
        self.stats.inc("store_gets")
        return self.memtable.get(key)

    # ------------------------------------------------------- transactions
    def begin(self, tid: int) -> Transaction:
        """Open a buffered multi-key transaction on thread *tid*."""
        return Transaction(self, tid)

    def _txn_read(self, tid: int, key: int) -> Optional[int]:
        """Fall-through read for a transaction buffer miss."""
        self.stats.inc("store_gets")
        return self.memtable.get(key)

    def _commit_txn(self, txn: Transaction) -> TxnTicket:
        """Publish a transaction's write set as one atomic log run.

        The run (``n`` OP_TXN records + one OP_TXN_COMMIT, written
        last) is claimed with **one** CAS bump of the shared tail, so
        no other thread's append can land inside it; the sealer then
        treats the whole run as one batch member — one epoch seal, one
        clean sequence, one fence makes the transaction durable, and
        the per-key ``memtable_lsn`` advances only to the commit
        record's LSN (session floors move at txn commit, not per key).
        """
        tid = txn.tid
        self.stats.inc("store_txns")
        self.txn_counter += 1
        txn_id = self.txn_counter
        writes = txn.writes
        if not writes:
            # nothing to log: durable by vacuity, covers no slots
            return TxnTicket(
                lsn=self.acked_lsn,
                txn_id=txn_id,
                first_lsn=self.acked_lsn + 1,
                records=0,
                tid=tid,
                submit_now=self.views[tid].ctx.now,
                acked=True,
            )
        span = len(writes) + 1  # payload run + TXN_COMMIT record
        if span + 2 > self.layout.log_capacity:
            raise ValueError(
                f"transaction of {len(writes)} writes does not fit a "
                f"{self.layout.log_capacity}-slot log"
            )
        self._ensure_capacity(tid, span)
        view = self.views[tid]
        tracer = self.tracer
        if tracer is not None:
            trace_id = tracer.op_begin(tid, view.ctx.now)
        first = self.wal.reserve_run(view, span)
        self.probe_point("txn_reserved")
        lsn = first
        for key, value in writes.items():
            self.wal.append_at(view, lsn, OP_TXN, key, value)
            lsn += 1
            self.probe_point("txn_record_appended")
        commit_lsn = first + len(writes)
        self.wal.append_at(
            view, commit_lsn, OP_TXN_COMMIT, txn_id, len(writes)
        )
        for key, value in writes.items():
            if value:
                self.memtable[key] = value
            else:
                self.memtable.pop(key, None)
            self.memtable_lsn[key] = commit_lsn
        self.stats.inc("store_txn_records", len(writes))
        ticket = TxnTicket(
            lsn=commit_lsn,
            txn_id=txn_id,
            first_lsn=first,
            records=len(writes),
            tid=tid,
            submit_now=view.ctx.now,
        )
        if tracer is not None:
            tracer.op_submitted(trace_id, ticket, ticket.submit_now)
        if "txn_commit_before_fence" in self.mutants:
            # seeded bug: the commit record exists only in cache, yet
            # the client is told the transaction is durable — a crash
            # before the epoch's fence loses an acknowledged txn
            ticket.acked = True
            self.acked_lsn = max(self.acked_lsn, commit_lsn)
        self.probe_point("txn_committed")
        self.sealer.submit(tid, ticket)
        self._maybe_checkpoint(tid)
        return ticket

    def sync(self, tid: Optional[int] = None) -> None:
        """Seal the pending epoch (if any) on *tid*'s clock; durable on
        return.  Defaults to the current leader."""
        self.sealer.seal(self.sealer.leader_tid if tid is None else tid)

    def checkpoint(self, tid: Optional[int] = None) -> None:
        """Sync, then compact the committed state into a snapshot."""
        tid = self.sealer.leader_tid if tid is None else tid
        self.sync(tid)
        previous = self.view
        self.view = self.views[tid]
        try:
            self.checkpointer.checkpoint()
        finally:
            self.view = previous
        self._commits_at_checkpoint = self.stats.get("store_commits")

    # ------------------------------------------------------------ restart
    def adopt(self, state: RecoveredState, tid: int = 0) -> None:
        """Resume from a recovered image (same layout, same regions).

        Re-points the log tail (and the shared tail word, if any) at
        ``applied_lsn`` so reservation resumes there, then erases the
        stale log tail: pre-crash records beyond ``applied_lsn`` carry
        LSNs this instance will hand out again, and a CRC-valid stale
        record must never satisfy a future replay.  Finally fences and
        seals recovery with a fresh checkpoint, so the durable watermark
        is at ``applied_lsn`` before new traffic.

        Only a store that never reserved a slot may adopt: rewinding a
        used tail would hand its LSNs out twice.
        """
        if self.memtable or self.wal.next_lsn != 1:
            raise RuntimeError("adopt() requires a fresh store instance")
        view = self.views[tid]
        self.memtable = dict(state.items)
        # recovery loses per-key provenance; pin every adopted key at the
        # applied tip (conservative: sessions over-wait, never under-wait)
        self.memtable_lsn = {key: state.applied_lsn for key in state.items}
        self.acked_lsn = state.applied_lsn
        self.initiated_lsn = state.applied_lsn
        self.watermark = state.checkpoint_lsn
        self.wal.reset_tail(view, state.applied_lsn)
        stale = self.layout.log_capacity - (
            state.applied_lsn - state.checkpoint_lsn
        )
        self.wal.invalidate_slots(view, state.applied_lsn + 1, stale)
        view.ctx.fence()
        self.stats.inc("store_fences")
        self.checkpoint(tid)

    # ---------------------------------------------------------- benchmark
    def reset_measurement(self) -> None:
        """Zero every measurement-facing counter and all thread clocks.

        Benchmarks prefill and checkpoint before measuring; this discards
        the prefill's traffic (stats, WAL counters, flush requests) and
        rewinds the virtual clocks so throughput starts from cycle zero.
        Durable state (log, memtable, LSNs) is untouched.
        """
        self.stats.reset()
        # store_commits restarts from zero, so the periodic-checkpoint
        # baseline must too (no-op when checkpoint_every is disabled)
        self._commits_at_checkpoint = 0
        self.batch_sizes = Histogram()
        self.ack_latency = [Histogram() for _ in self.views]
        self.ack_latency_all = Histogram()
        self.wal.records_appended = 0
        self.wal.bytes_appended = 0
        self.wal.tail_cas_failures = 0
        for view in self.views:
            view.flush_requests = 0
            view.ctx.now = 0
            view.ctx.outstanding.clear()
