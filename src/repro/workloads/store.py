"""Durable-store throughput drivers (the group-commit figures 17/18).

:class:`StoreBenchmark` runs per-thread shards — one single-writer
:class:`~repro.store.shared.SharedLogStore` (one log + memtable) per
thread, all on one shared cache hierarchy; :class:`SharedStoreBenchmark`
runs every thread on one shared log.  Both drive the same mixed
put/delete/get workload on virtual-time threads and report throughput
plus the persistence traffic the sweeps are about: fences, CBOs issued
vs skipped, log bytes, commit batches.

The store runs with the ``none`` policy — it does its own cleans and
fences (that is the subsystem's job); an automatic policy on top would
double-flush every log write and bury the group-commit signal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.attach import shared_store_registry, timing_registry
from repro.persist.api import PMemView
from repro.persist.flushopt import make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.store.shared import SharedLogStore
from repro.timing.params import TimingParams
from repro.timing.scheduler import VirtualTimeScheduler
from repro.timing.system import TimingSystem


def _mixed_step(store: SharedLogStore, tid: int, seed: int, key_range: int):
    """Thread *tid*'s step: 60% put, 20% delete, 20% get on random keys.

    Each thread writes from its own value space, which keeps the
    oracle's lost/ghost distinction sharp even when threads race on one
    key.
    """
    rng = random.Random(seed)
    next_value = key_range * 2 + tid * 10_000_000

    def step(ctx) -> None:
        nonlocal next_value
        r = rng.random()
        key = rng.randint(1, key_range)
        if r < 0.6:
            next_value += 1
            store.put(tid, key, next_value)
        elif r < 0.8:
            store.delete(tid, key)
        else:
            store.get(tid, key)

    return step


class _ScalingLogStore(SharedLogStore):
    """Figure 18's store: the shared tail and leader words even at one
    thread, so the sweep's t=1 point runs the protocol its t=N points
    scale."""

    shared_tail_from = 1


@dataclass
class StoreResult:
    """Outcome of one (optimizer, group-commit) store cell."""

    optimizer: str
    group_commit: int
    threads: int
    total_ops: int
    elapsed_cycles: int
    throughput_mops: float
    fences: int
    cbo_issued: int
    cbo_skipped: int
    wal_records: int
    wal_bytes: int
    commits: int
    checkpoints: int
    mean_batch: float
    flush_requests: int
    #: CBO.RANGE traffic (nonzero only with ``ranged_seal``)
    ranged_seals: int = 0
    cbo_range_issued: int = 0
    cbo_range_lines: int = 0
    cbo_range_skipped: int = 0
    #: ``timing.*`` + per-shard ``store.*`` metrics snapshot
    metrics: Dict[str, object] = field(default_factory=dict)


class StoreBenchmark:
    """One configured durable-store throughput experiment."""

    def __init__(
        self,
        optimizer: str,
        group_commit: int,
        threads: int = 2,
        key_range: int = 256,
        log_capacity: int = 256,
        num_buckets: int = 64,
        flit_table_entries: int = 1024,
        skip_it: Optional[bool] = None,
        ranged_seal: bool = False,
        seed: int = 12345,
    ) -> None:
        self.optimizer_name = optimizer
        self.group_commit = group_commit
        self.threads = threads
        self.key_range = key_range
        self.log_capacity = log_capacity
        self.num_buckets = num_buckets
        self.flit_table_entries = flit_table_entries
        # as in the structure benchmarks: the skip bit exists only when
        # benchmarking the skipit filter
        self.skip_it = skip_it if skip_it is not None else optimizer == "skipit"
        self.ranged_seal = ranged_seal
        self.seed = seed

    def run(self, duration: int = 200_000) -> StoreResult:
        params = TimingParams(num_threads=self.threads, skip_it=self.skip_it)
        system = TimingSystem(params)
        heap = SimHeap(line_bytes=params.line_bytes)
        optimizer = make_optimizer(
            self.optimizer_name, heap, self.flit_table_entries
        )
        policy = make_policy("none")
        stores = [
            SharedLogStore(
                heap,
                [PMemView(ctx, policy, optimizer)],
                log_capacity=self.log_capacity,
                batch_size=self.group_commit,
                num_buckets=self.num_buckets,
                ranged_seal=self.ranged_seal,
            )
            for ctx in system.threads[: self.threads]
        ]

        # Prefill each shard to ~50% occupancy and checkpoint, so
        # measurement starts from a durable steady state with a warm
        # log tail; the prefill's own traffic is then discarded.
        rng = random.Random(self.seed)
        for store in stores:
            for key in rng.sample(
                range(1, self.key_range + 1), self.key_range // 2
            ):
                store.put(0, key, key + self.key_range)
            store.checkpoint()
        system.persist_all()
        optimizer.declare_persisted(system)
        system.stats.reset()
        for store in stores:
            store.reset_measurement()

        steps = [
            _mixed_step(store, 0, self.seed + 7 * shard, self.key_range)
            for shard, store in enumerate(stores)
        ]
        scheduler = VirtualTimeScheduler(system)
        result = scheduler.run(steps, duration=duration, warmup=0)
        for store in stores:
            store.sync()

        stats = system.stats.as_dict()
        registry = timing_registry(system)
        snapshot = registry.snapshot()
        for tid, store in enumerate(stores):
            snapshot[f"store.t{tid}"] = shared_store_registry(store).snapshot()

        def total(name: str) -> int:
            return sum(s.stats.get(name) for s in stores)

        batches = [b for s in stores for b in s.batch_sizes.samples]
        return StoreResult(
            optimizer=self.optimizer_name,
            group_commit=self.group_commit,
            threads=self.threads,
            total_ops=result.total_ops,
            elapsed_cycles=result.elapsed,
            throughput_mops=result.throughput() / 1e6,
            fences=total("store_fences"),
            cbo_issued=stats.get("cbo_issued", 0),
            cbo_skipped=stats.get("cbo_skipped", 0),
            wal_records=sum(s.wal.records_appended for s in stores),
            wal_bytes=sum(s.wal.bytes_appended for s in stores),
            commits=total("store_commits"),
            checkpoints=total("store_checkpoints"),
            mean_batch=(sum(batches) / len(batches)) if batches else 0.0,
            flush_requests=sum(s.view.flush_requests for s in stores),
            ranged_seals=total("store_ranged_seals"),
            cbo_range_issued=stats.get("cbo_range_issued", 0),
            cbo_range_lines=stats.get("cbo_range_lines", 0),
            cbo_range_skipped=stats.get("cbo_range_line_skipped", 0),
            metrics=snapshot,
        )


@dataclass
class SharedStoreResult:
    """Outcome of one (optimizer, threads) shared-log store cell."""

    optimizer: str
    group_commit: int
    threads: int
    total_ops: int
    elapsed_cycles: int
    throughput_mops: float
    fences: int
    fences_per_kop: float
    ack_p50: float
    ack_p99: float
    cbo_issued: int
    cbo_skipped: int
    wal_records: int
    wal_bytes: int
    commits: int
    checkpoints: int
    leader_takeovers: int
    mean_batch: float
    flush_requests: int
    #: acks whose raw submit→durable delta was negative (cross-thread
    #: virtual-clock skew) and entered the histograms clamped to zero
    ack_clamped: int = 0
    #: CBO.RANGE traffic (nonzero only with ``ranged_seal``)
    ranged_seals: int = 0
    cbo_range_issued: int = 0
    cbo_range_lines: int = 0
    cbo_range_skipped: int = 0
    #: ``timing.*`` + ``store.shared.*`` metrics snapshot
    metrics: Dict[str, object] = field(default_factory=dict)


class SharedStoreBenchmark:
    """One configured shared-log store experiment (figure 18).

    Same mixed put/delete/get workload as :class:`StoreBenchmark`, but
    all threads append into one :class:`~repro.store.shared.SharedLogStore`
    instead of private shards — ``group_commit`` ops per thread are
    sealed by one leader fence, and each thread's submit→durable cycles
    land in the ack-latency histograms the figure reports.
    """

    def __init__(
        self,
        optimizer: str,
        group_commit: int,
        threads: int = 2,
        key_range: int = 256,
        log_capacity: int = 512,
        num_buckets: int = 64,
        flit_table_entries: int = 1024,
        skip_it: Optional[bool] = None,
        ranged_seal: bool = False,
        seed: int = 12345,
    ) -> None:
        self.optimizer_name = optimizer
        self.group_commit = group_commit
        self.threads = threads
        self.key_range = key_range
        self.log_capacity = log_capacity
        self.num_buckets = num_buckets
        self.flit_table_entries = flit_table_entries
        self.skip_it = skip_it if skip_it is not None else optimizer == "skipit"
        self.ranged_seal = ranged_seal
        self.seed = seed

    def run(self, duration: int = 200_000, tracer=None) -> SharedStoreResult:
        params = TimingParams(num_threads=self.threads, skip_it=self.skip_it)
        system = TimingSystem(params)
        heap = SimHeap(line_bytes=params.line_bytes)
        optimizer = make_optimizer(
            self.optimizer_name, heap, self.flit_table_entries
        )
        policy = make_policy("none")
        views = [
            PMemView(ctx, policy, optimizer)
            for ctx in system.threads[: self.threads]
        ]
        store = _ScalingLogStore(
            heap,
            views,
            log_capacity=self.log_capacity,
            batch_size=self.group_commit,
            num_buckets=self.num_buckets,
            ranged_seal=self.ranged_seal,
        )

        # Prefill to ~50% occupancy on thread 0 and checkpoint: same
        # durable steady state as the sharded baseline, traffic discarded.
        rng = random.Random(self.seed)
        for key in rng.sample(range(1, self.key_range + 1), self.key_range // 2):
            store.put(0, key, key + self.key_range)
        store.checkpoint(0)
        system.persist_all()
        optimizer.declare_persisted(system)
        system.stats.reset()
        store.reset_measurement()
        if tracer is not None:
            # attach after prefill so only measured ops are traced; left
            # attached on return so the caller can read tracer.records
            tracer.attach(store, system)

        steps = [
            _mixed_step(store, tid, self.seed + 7 * tid, self.key_range)
            for tid in range(self.threads)
        ]
        scheduler = VirtualTimeScheduler(system)
        result = scheduler.run(steps, duration=duration, warmup=0)
        store.sync()

        stats = system.stats.as_dict()
        registry = timing_registry(system)
        snapshot = registry.snapshot()
        snapshot["store.shared"] = shared_store_registry(store).snapshot()

        ack = store.ack_latency_all
        batches = store.batch_sizes.samples
        return SharedStoreResult(
            optimizer=self.optimizer_name,
            group_commit=self.group_commit,
            threads=self.threads,
            total_ops=result.total_ops,
            elapsed_cycles=result.elapsed,
            throughput_mops=result.throughput() / 1e6,
            fences=store.stats.get("store_fences"),
            fences_per_kop=(
                store.stats.get("store_fences") * 1000.0 / result.total_ops
                if result.total_ops
                else 0.0
            ),
            ack_p50=ack.p50() if ack.count else 0.0,
            ack_p99=ack.p99() if ack.count else 0.0,
            cbo_issued=stats.get("cbo_issued", 0),
            cbo_skipped=stats.get("cbo_skipped", 0),
            wal_records=store.wal.records_appended,
            wal_bytes=store.wal.bytes_appended,
            commits=store.stats.get("store_commits"),
            checkpoints=store.stats.get("store_checkpoints"),
            leader_takeovers=store.stats.get("store_leader_takeovers"),
            mean_batch=(sum(batches) / len(batches)) if batches else 0.0,
            flush_requests=sum(v.flush_requests for v in store.views),
            ack_clamped=store.stats.get("store_ack_latency_clamped"),
            ranged_seals=store.stats.get("store_ranged_seals"),
            cbo_range_issued=stats.get("cbo_range_issued", 0),
            cbo_range_lines=stats.get("cbo_range_lines", 0),
            cbo_range_skipped=stats.get("cbo_range_line_skipped", 0),
            metrics=snapshot,
        )
