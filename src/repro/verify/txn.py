"""Stage 7: transaction-atomicity crash sweep (`repro.store.txn`).

The store sweeps (stages 4–5) already pin the journal-prefix contract:
recovery surfaces an exact prefix of sealed epochs.  Transactions add
a stronger clause *inside* an epoch: a multi-key write set is
all-or-nothing — no crash image may recover a **proper subset** of a
transaction's writes, and no image may surface any write of a
transaction whose commit record did not replay.

:class:`TxnOracle` layers exactly that over :class:`StoreOracle`.  It
watches the WAL append stream (``wal.on_append``), reassembles each
transaction's write set when its ``OP_TXN_COMMIT`` record goes by, and
at every crash point checks, per transaction:

* **uncommitted** (commit record beyond ``applied_lsn``) — none of its
  writes may be visible in the recovered state;
* **committed** — of the writes still *expected* visible (not
  overwritten by later journaled effects), either all or none may be
  missing; some-but-not-all is a torn transaction.

Both tests lean on the sweep workload's unique put values: a value
seen in the recovered map identifies exactly one journaled write.

The sweep (:class:`SharedTxnCrashSweep`) drives mixed
plain/transactional workloads through a real
:class:`~repro.store.shared.SharedLogStore` — one thread, or three on
the shared log — probing every reserve / append /
commit / seal / checkpoint boundary, with writeback-completion
sub-windows at the two boundaries that have real in-flight windows —
the same discipline as stages 4–5.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.persist.api import PMemView
from repro.persist.flushopt import make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.store.layout import OP_TXN, OP_TXN_COMMIT
from repro.store.shared import SharedLogStore
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem
from repro.verify.oracle import Violation
from repro.verify.store import StoreOracle, StoreSweepReport, crash_probe

#: mutant names this sweep understands (see repro.verify.mutants)
_REPLAY_MUTANTS = frozenset({"store_replay_trusts_crc", "txn_partial_replay"})


class TxnOracle(StoreOracle):
    """Journal-prefix oracle plus per-transaction atomicity."""

    def __init__(self) -> None:
        super().__init__()
        # open-run buffer: (lsn, key, value) of OP_TXN records not yet
        # sealed by their OP_TXN_COMMIT (runs are contiguous, so the
        # last n entries always belong to the commit record seen next)
        self._txn_buffer: List[Tuple[int, int, int]] = []
        #: txn id -> (commit-record LSN, ((lsn, key, value), ...))
        self.txns: Dict[int, Tuple[int, Tuple[Tuple[int, int, int], ...]]] = {}

    def observe(self, lsn: int, op: int, key: int, value: int) -> None:
        super().observe(lsn, op, key, value)
        if op == OP_TXN:
            self._txn_buffer.append((lsn, key, value))
        elif op == OP_TXN_COMMIT:
            writes = tuple(self._txn_buffer[-value:]) if value else ()
            if value:
                del self._txn_buffer[-value:]
            self.txns[key] = (lsn, writes)

    def check_state(
        self,
        state,
        layout,
        *,
        acked_lsn: int,
        initiated_lsn: int,
        at: object,
    ) -> List[Violation]:
        violations = super().check_state(
            state,
            layout,
            acked_lsn=acked_lsn,
            initiated_lsn=initiated_lsn,
            at=at,
        )
        reference = self.reference_state(state.applied_lsn)
        for txn_id, (commit_lsn, writes) in self.txns.items():
            # deletes are covered by the exact-prefix check; the subset
            # test needs puts, whose unique values identify provenance
            puts = [(key, value) for (_lsn, key, value) in writes if value]
            if not puts:
                continue
            if commit_lsn > state.applied_lsn:
                visible = [
                    key for key, value in puts
                    if state.items.get(key) == value
                ]
                if visible:
                    violations.append(
                        Violation(
                            kind="txn_partial",
                            word=layout.lsn_field_addr(commit_lsn),
                            detail=(
                                f"txn {txn_id} (commit lsn={commit_lsn}) "
                                f"did not replay (applied="
                                f"{state.applied_lsn}) but its writes to "
                                f"keys {visible[:4]} are visible"
                            ),
                            at=at,
                        )
                    )
            else:
                # committed: writes the journal still expects visible
                # (no later effect on the key up to applied_lsn) must be
                # all present or — impossible for a correct store, but
                # the test is subset-shaped — all absent
                expected = [
                    (key, value) for key, value in puts
                    if reference.get(key) == value
                ]
                seen = [
                    state.items.get(key) == value for key, value in expected
                ]
                if seen and any(seen) and not all(seen):
                    missing = [
                        key for (key, value), ok in zip(expected, seen)
                        if not ok
                    ]
                    violations.append(
                        Violation(
                            kind="txn_partial",
                            word=layout.lsn_field_addr(commit_lsn),
                            detail=(
                                f"committed txn {txn_id} (commit lsn="
                                f"{commit_lsn} <= applied="
                                f"{state.applied_lsn}) recovered torn: "
                                f"keys {missing[:4]} missing"
                            ),
                            at=at,
                        )
                    )
        return violations


def _drive_workload(rng: random.Random, clients, ops: int, key_range: int) -> None:
    """Mixed plain/transactional traffic over one or more store handles.

    ``clients`` is a sequence of ``(put, delete, begin)`` triples —
    one per virtual thread — visited round-robin.  Roughly half the
    steps are plain ops; the rest are transactions of 2–4 writes
    (mostly puts, the odd delete), of which ~10% abort client-side.
    Put values are globally unique so the oracle can attribute every
    recovered value to exactly one journaled write.
    """
    next_value = 1
    for i in range(ops):
        put, delete, begin = clients[i % len(clients)]
        roll = rng.random()
        if roll < 0.45:
            key = rng.randint(1, key_range)
            if rng.random() < 0.75:
                put(key, 1_000_000 + next_value)
                next_value += 1
            else:
                delete(key)
            continue
        txn = begin()
        for _ in range(rng.randint(2, 4)):
            key = rng.randint(1, key_range)
            if rng.random() < 0.85:
                txn.put(key, 1_000_000 + next_value)
                next_value += 1
            else:
                txn.delete(key)
        if roll < 0.5:
            txn.abort()
        else:
            txn.commit()


class SharedTxnCrashSweep:
    """Crash-sweep transactions on a :class:`SharedLogStore`.

    With ``threads=1`` this is the single-writer store.  What more
    threads add under test: the CAS-reserved contiguous run really is
    contiguous under interleaved multi-thread appends, and the sealing
    thread's single fence covers txn records written (and left dirty)
    by every other thread's L1.
    """

    def __init__(
        self,
        optimizer: str = "skipit",
        group_commit: int = 8,
        *,
        threads: int = 3,
        ops: int = 36,
        seed: int = 0,
        log_capacity: Optional[int] = None,
        checkpoint_every: int = 3,
        num_buckets: int = 16,
        key_range: int = 24,
        mutants: Sequence[str] = (),
    ) -> None:
        self.optimizer = optimizer
        self.group_commit = group_commit
        self.threads = threads
        self.ops = ops
        self.seed = seed
        # an epoch is batch_size tickets per thread, each up to five
        # slots wide, plus marker slack (and, with several threads,
        # leader-grace overshoot); small enough that sweeps wrap
        self.log_capacity = log_capacity or (
            max(64, 5 * group_commit + 8)
            if threads == 1
            else max(96, 5 * group_commit * threads + 5 * threads + 8)
        )
        self.checkpoint_every = checkpoint_every
        self.num_buckets = num_buckets
        self.key_range = key_range
        self.mutants = tuple(mutants)

    def run(self) -> StoreSweepReport:
        config = f"{self.optimizer}/gc={self.group_commit}"
        if self.threads > 1:
            config = f"txn-shared/{config}/t={self.threads}"
        else:
            config = f"txn/{config}"
        report = StoreSweepReport(config=config)
        params = TimingParams(
            num_threads=self.threads, skip_it=(self.optimizer == "skipit")
        )
        system = TimingSystem(params)
        heap = SimHeap(params.line_bytes)
        policy = make_policy("none")
        optimizer = make_optimizer(self.optimizer, heap)
        views = [
            PMemView(ctx, policy, optimizer)
            for ctx in system.threads[: self.threads]
        ]
        store = SharedLogStore(
            heap,
            views,
            log_capacity=self.log_capacity,
            batch_size=self.group_commit,
            checkpoint_every=self.checkpoint_every,
            num_buckets=self.num_buckets,
        )
        oracle = TxnOracle()
        store.wal.on_append = oracle.observe
        store.mutants.update(
            m for m in self.mutants if m not in _REPLAY_MUTANTS
        )

        store.probe = crash_probe(
            report,
            system,
            store,
            oracle,
            check_lsn="store_replay_trusts_crc" not in self.mutants,
            txn_partial="txn_partial_replay" in self.mutants,
        )
        rng = random.Random(self.seed)
        handles = [store.handle(tid) for tid in range(self.threads)]
        _drive_workload(
            rng,
            [(h.put, h.delete, h.begin) for h in handles],
            self.ops,
            self.key_range,
        )
        store.sync()
        store.checkpoint()
        return report


def run_txn_sweep(
    optimizers: Sequence[str] = ("plain", "flit-adjacent", "flit-hashtable", "link-and-persist", "skipit"),
    group_commits: Sequence[int] = (1, 8, 64),
    *,
    threads: int = 3,
    ops: int = 36,
    seed: int = 0,
) -> List[Tuple[str, StoreSweepReport]]:
    """The optimizer x batch-size txn sweep (verify CLI stage 8).

    Runs on the shared log — the harder configuration: contiguous-run
    reservation under interleaving plus cross-thread sealing.  The
    single-writer store (``threads=1``) is exercised by the unit tier.
    """
    results = []
    for optimizer in optimizers:
        for group_commit in group_commits:
            sweep = SharedTxnCrashSweep(
                optimizer, group_commit, threads=threads, ops=ops, seed=seed
            )
            report = sweep.run()
            results.append((report.config, report))
    return results
