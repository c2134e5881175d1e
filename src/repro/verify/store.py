"""Store-specific crash-point sweep: the durability contract, checked.

The generic §4 oracle reasons about words and CBO floors; the store
needs an *application-level* contract on top:

* **No lost commit** — every acknowledged epoch survives any crash:
  ``recover().applied_lsn >= store.acked_lsn`` at every crash point.
* **No ghost commit** — recovery never surfaces an epoch whose COMMIT
  marker was not yet written to cache:
  ``applied_lsn <= store.initiated_lsn``.  (An *initiated* epoch — its
  marker exists in cache but its fence has not retired — may legally
  land early via eviction or an in-flight writeback; acknowledged
  durability is exactly the fence's promise, not an upper bound.)
* **Exact prefix state** — the recovered KV map must equal replaying
  the submitted-operation journal up to ``applied_lsn``: atomic
  epochs, no torn records applied, no stale resurrections.

The sweep drives a seeded workload through a real
:class:`~repro.store.shared.SharedLogStore` — one thread, or N threads
interleaving on the shared log — and evaluates the contract at every
protocol boundary the store exposes (submit, epoch flush, fence
retirement, each checkpoint stage).  At the two boundaries with real
in-flight writeback windows — after an epoch's cleans and after the
superblock flip — it additionally enumerates a crash at every distinct
writeback-completion time, so the mid-writeback orderings are checked,
not just the quiescent images.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.persist.api import PMemView
from repro.persist.flushopt import make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.persist.structures.base import persisted_reader
from repro.store.layout import OP_DELETE, OP_PUT, OP_TXN, OP_TXN_COMMIT
from repro.store.recovery import RecoveryError, recover
from repro.store.shared import SharedLogStore
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem
from repro.verify.injector import MAX_VIOLATIONS, timing_crash_image
from repro.verify.mutants import TIMING_MUTANTS
from repro.verify.oracle import Violation

#: boundaries where writebacks of a just-sealed unit are still in
#: flight — worth enumerating every completion-time sub-window
WINDOWED_BOUNDARIES = frozenset({"epoch_flushed", "checkpoint_flipped"})


@dataclass
class StoreSweepReport:
    """Outcome of one store crash sweep configuration."""

    config: str
    boundaries: int = 0
    crash_points: int = 0
    recoveries: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return (
            f"store/{self.config}: {self.crash_points} crash points over "
            f"{self.boundaries} boundaries -> {status}"
        )


class StoreOracle:
    """Journal of submitted operations + the three contract checks."""

    def __init__(self) -> None:
        # lsn -> (op, key, value); markers included (op=OP_COMMIT)
        self.journal: Dict[int, Tuple[int, int, int]] = {}
        #: applied_lsn -> reference state, valid until the next append
        self._references: Dict[int, Dict[int, int]] = {}
        #: the last image recovered, its settings and what recovery gave
        self._recovered: Optional[Tuple[object, Dict[int, int], object]] = None

    def observe(self, lsn: int, op: int, key: int, value: int) -> None:
        self.journal[lsn] = (op, key, value)
        self._references.clear()

    def reference_state(self, applied_lsn: int) -> Dict[int, int]:
        """KV state after replaying the journal prefix up to a marker.

        Mirrors :func:`repro.store.recovery.recover` exactly, including
        transactions: OP_TXN records buffer and fold in only at their
        OP_TXN_COMMIT, so a transaction whose commit record lies beyond
        ``applied_lsn`` contributes nothing.  Memoised per
        ``applied_lsn`` until the journal grows; treat it as read-only.
        """
        state = self._references.get(applied_lsn)
        if state is None:
            state = self._references[applied_lsn] = self._replay(applied_lsn)
        return state

    def _replay(self, applied_lsn: int) -> Dict[int, int]:
        state: Dict[int, int] = {}
        txn_buffer: List[Tuple[int, int]] = []  # (key, value); 0 = delete
        for lsn in sorted(self.journal):
            if lsn > applied_lsn:
                break
            op, key, value = self.journal[lsn]
            if op == OP_PUT:
                state[key] = value
            elif op == OP_DELETE:
                state.pop(key, None)
            elif op == OP_TXN:
                txn_buffer.append((key, value))
            elif op == OP_TXN_COMMIT:
                for tkey, tvalue in txn_buffer[-value:] if value else []:
                    if tvalue:
                        state[tkey] = tvalue
                    else:
                        state.pop(tkey, None)
                txn_buffer.clear()
        return state

    def check(
        self,
        image: Dict[int, int],
        layout,
        *,
        acked_lsn: int,
        initiated_lsn: int,
        at: object,
        check_lsn: bool = True,
        txn_partial: bool = False,
    ) -> List[Violation]:
        """Recover the crash *image* and judge it at crash point *at*.

        Consecutive crash points often see the same image, so recovery
        runs only when the image (compared in full) or the replay
        settings differ from the previous call's; its outcome, state or
        :class:`RecoveryError`, is reused otherwise.  The contract
        checks always run, against this point's LSNs.  The oracle keeps
        the image to compare the next one against, so do not modify it
        afterwards.
        """
        settings = (layout, check_lsn, txn_partial)
        last = self._recovered
        if last is None or last[0] != settings or last[1] != image:
            try:
                outcome = recover(
                    persisted_reader(image),
                    layout,
                    check_lsn=check_lsn,
                    txn_partial=txn_partial,
                )
            except RecoveryError as exc:
                outcome = exc
            self._recovered = last = (settings, image, outcome)
        outcome = last[2]
        if isinstance(outcome, RecoveryError):
            return [
                Violation(
                    kind="unrecoverable",
                    word=layout.superblock,
                    detail=str(outcome),
                    at=at,
                )
            ]
        return self.check_state(
            outcome,
            layout,
            acked_lsn=acked_lsn,
            initiated_lsn=initiated_lsn,
            at=at,
        )

    def check_state(
        self,
        state,
        layout,
        *,
        acked_lsn: int,
        initiated_lsn: int,
        at: object,
    ) -> List[Violation]:
        """The three contract checks against an already-recovered *state*
        (split out so wrappers like the stage-7 session oracle can layer
        further checks on the same recovery)."""
        violations: List[Violation] = []
        if state.applied_lsn < acked_lsn:
            violations.append(
                Violation(
                    kind="lost",
                    word=layout.lsn_field_addr(acked_lsn),
                    detail=(
                        f"acked epoch lsn={acked_lsn} but recovery "
                        f"applied only lsn={state.applied_lsn} "
                        f"(stop: {state.stop_reason})"
                    ),
                    at=at,
                )
            )
        if state.applied_lsn > initiated_lsn:
            violations.append(
                Violation(
                    kind="ghost",
                    word=layout.lsn_field_addr(state.applied_lsn),
                    detail=(
                        f"recovery applied lsn={state.applied_lsn} beyond "
                        f"the last initiated epoch lsn={initiated_lsn}"
                    ),
                    at=at,
                )
            )
        reference = self.reference_state(state.applied_lsn)
        if state.items != reference:
            missing = sorted(set(reference) - set(state.items))[:4]
            extra = sorted(set(state.items) - set(reference))[:4]
            wrong = sorted(
                k
                for k in set(reference) & set(state.items)
                if reference[k] != state.items[k]
            )[:4]
            violations.append(
                Violation(
                    kind="corrupt",
                    word=layout.log_base,
                    detail=(
                        f"recovered state != journal prefix at "
                        f"lsn={state.applied_lsn}: missing={missing} "
                        f"extra={extra} wrong={wrong}"
                    ),
                    at=at,
                )
            )
        return violations


def crash_images(
    system: TimingSystem, windowed: bool
) -> Iterator[Tuple[Optional[int], Dict[int, int]]]:
    """The crash points of one boundary, as ``(at, image)``.

    First the image of a crash right now (``at`` is ``None``); then, at
    a windowed boundary, one image per distinct writeback-completion
    time, in ascending order.
    """
    yield None, timing_crash_image(system)
    if windowed:
        ats = sorted({wb.done for wb in system.in_flight})
        yield from zip(ats, system.persisted_images(ats))


def crash_probe(
    report: StoreSweepReport,
    system: TimingSystem,
    store,
    oracle: StoreOracle,
    **check_kw,
) -> Callable[[str], None]:
    """The ``store.probe`` every store-level sweep installs: judge each
    crash point of a boundary with ``oracle.check`` (*check_kw* are its
    replay settings) until the report holds ``MAX_VIOLATIONS``."""

    def probe(name: str) -> None:
        report.boundaries += 1
        if len(report.violations) >= MAX_VIOLATIONS:
            return
        for at, image in crash_images(system, name in WINDOWED_BOUNDARIES):
            report.crash_points += 1
            report.recoveries += 1
            report.violations.extend(
                oracle.check(
                    image,
                    store.layout,
                    acked_lsn=store.acked_lsn,
                    initiated_lsn=store.initiated_lsn,
                    at=f"{name}@{'now' if at is None else at}",
                    **check_kw,
                )[: MAX_VIOLATIONS - len(report.violations)]
            )

    return probe


class SharedStoreCrashSweep:
    """Crash-sweep one (optimizer, group-commit, threads) store config.

    With ``threads=1`` this is the single-writer store.  With more, the
    journal is written by N virtual-time threads interleaving their
    appends into one :class:`~repro.store.shared.SharedLogStore` —
    round-robin here, which still exercises cross-thread sealing because
    the epoch trigger lands on different threads as epochs and the
    leader-grace deferrals drift.  The CAS-bumped tail makes global LSN
    order the submission order, so the journal-prefix oracle applies to
    the interleaved log unchanged; what is *new* under test is that the
    sealing thread's single fence really covers records written (and
    left dirty) by every other thread's L1.
    """

    def __init__(
        self,
        optimizer: str = "skipit",
        group_commit: int = 8,
        *,
        threads: int = 3,
        ops: int = 48,
        seed: int = 0,
        log_capacity: Optional[int] = None,
        checkpoint_every: int = 3,
        num_buckets: int = 16,
        key_range: int = 24,
        mutants: Sequence[str] = (),
        ranged_seal: bool = False,
    ) -> None:
        self.optimizer = optimizer
        self.group_commit = group_commit
        self.threads = threads
        self.ops = ops
        self.seed = seed
        # the log must hold a full epoch (with several threads, plus a
        # grace round); small enough that long sweeps wrap (wrap +
        # stale-tail handling is part of what we verify)
        self.log_capacity = log_capacity or (
            max(40, 2 * group_commit + 8)
            if threads == 1
            else max(48, 2 * group_commit * threads + 2 * threads + 8)
        )
        self.checkpoint_every = checkpoint_every
        self.num_buckets = num_buckets
        self.key_range = key_range
        self.mutants = tuple(mutants)
        self.ranged_seal = ranged_seal

    def run(self) -> StoreSweepReport:
        config = f"{self.optimizer}/gc={self.group_commit}"
        if self.threads > 1:
            config = f"shared/{config}/t={self.threads}"
        if self.ranged_seal:
            config = f"ranged/{config}"
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
            ranged_seal=self.ranged_seal,
        )
        oracle = StoreOracle()
        store.wal.on_append = oracle.observe
        # hardware-level mutants (the truncated-sweep bug) live in the
        # timing model's flag set, not the store's
        system.mutants.update(m for m in self.mutants if m in TIMING_MUTANTS)
        store.mutants.update(
            m
            for m in self.mutants
            if m != "store_replay_trusts_crc" and m not in TIMING_MUTANTS
        )

        store.probe = crash_probe(
            report,
            system,
            store,
            oracle,
            check_lsn="store_replay_trusts_crc" not in self.mutants,
        )
        rng = random.Random(self.seed)
        next_value = 1
        for i in range(self.ops):
            tid = i % self.threads
            key = rng.randint(1, self.key_range)
            if rng.random() < 0.7:
                store.put(tid, key, 1_000_000 + next_value)
                next_value += 1
            else:
                store.delete(tid, key)
        store.sync()
        store.checkpoint()
        return report


def run_shared_store_sweep(
    optimizers: Sequence[str] = ("plain", "flit-adjacent", "flit-hashtable", "link-and-persist", "skipit"),
    group_commits: Sequence[int] = (1, 8, 64),
    *,
    threads: int = 3,
    ops: int = 48,
    seed: int = 0,
) -> List[Tuple[str, StoreSweepReport]]:
    """The optimizer x batch-size shared-log sweep (verify CLI stage)."""
    results = []
    for optimizer in optimizers:
        for group_commit in group_commits:
            sweep = SharedStoreCrashSweep(
                optimizer, group_commit, threads=threads, ops=ops, seed=seed
            )
            report = sweep.run()
            results.append((report.config, report))
    return results


def run_store_sweep(
    optimizers: Sequence[str] = ("plain", "flit-adjacent", "flit-hashtable", "link-and-persist", "skipit"),
    group_commits: Sequence[int] = (1, 8, 64),
    *,
    ops: int = 48,
    seed: int = 0,
) -> List[Tuple[str, StoreSweepReport]]:
    """The full optimizer x batch-size single-writer store sweep (verify
    CLI stage)."""
    results = []
    for optimizer in optimizers:
        for group_commit in group_commits:
            sweep = SharedStoreCrashSweep(
                optimizer, group_commit, threads=1, ops=ops, seed=seed
            )
            report = sweep.run()
            results.append((report.config, report))
    return results


def run_ranged_store_sweep(
    optimizers: Sequence[str] = ("plain", "flit-adjacent", "flit-hashtable", "link-and-persist", "skipit"),
    group_commits: Sequence[int] = (1, 8, 64),
    *,
    ops: int = 48,
    seed: int = 0,
) -> List[Tuple[str, StoreSweepReport]]:
    """The store sweep with CBO.RANGE epoch sealing (verify CLI stage).

    Same contract, same oracle — but epochs are sealed with one ranged
    clean and a completion wait instead of per-record cleans + a fence,
    so the ``epoch_flushed`` windows enumerate every mid-range cursor
    position of the sweep (each covered line's writeback lands at a
    distinct staggered time).
    """
    results = []
    for optimizer in optimizers:
        for group_commit in group_commits:
            sweep = SharedStoreCrashSweep(
                optimizer,
                group_commit,
                threads=1,
                ops=ops,
                seed=seed,
                ranged_seal=True,
            )
            report = sweep.run()
            results.append((report.config, report))
    return results
