"""The four benchmark workloads, built from the repository's public APIs.

Every workload has the same shape:

* ``__init__(seed)`` generates the inputs (addresses, values, keys, op
  streams) from the seed; the model under test receives only these.
* ``build()`` constructs the initial simulated state: what a user pays
  before the first measured operation (Soc or TimingSystem construction,
  structure prefill, ``persist_all``, store prefill and checkpoint).
* ``fresh(built)`` returns an untouched copy of that state for one unit
  of measured work (not timed).
* ``run(state, step)`` performs one *unit*: a fixed amount of simulated
  work, with its output checks, and returns a :class:`UnitResult`.  The
  caller times the whole call; the checks are a small share of it.
  ``step(fn, *args)`` runs one scheduled operation; the traced run passes
  one that opens a span per operation.

Units are deterministic for a seed, so every unit of a run must report
the same simulated counters; the driver checks that.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.persist.api import PMemView
from repro.persist.flushopt import make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.persist.structures import STRUCTURES
from repro.persist.structures.base import persisted_reader
from repro.serve.tier import ServeTier
from repro.sim.config import SoCParams
from repro.sim.stats import Histogram
from repro.store.recovery import recover
from repro.store.shared import SharedLogStore
from repro.timing.params import TimingParams
from repro.timing.scheduler import VirtualTimeScheduler
from repro.timing.system import TimingSystem
from repro.uarch.cpu import Instr
from repro.uarch.soc import Soc
from repro.verify.store import run_shared_store_sweep
from repro.verify.txn import run_txn_sweep
from repro.workloads.openloop import OpenLoopClient, PoissonArrivals, ZipfianKeys

#: the model's core clock (paper §7.1); simulated throughput is quoted at it
CLOCK_MHZ = 50.0


@dataclass
class UnitResult:
    """Outcome of one unit of measured work."""

    attempted: int = 0
    failed: int = 0  # operations whose output check failed
    shed: int = 0  # requests refused by admission control (serve only)
    #: end-to-end simulated metrics (deterministic for a seed)
    sim: Dict[str, float] = field(default_factory=dict)
    #: per-layer simulated counters for the traced table
    layers: Dict[str, float] = field(default_factory=dict)
    #: every simulated counter the unit produced, for the digest
    counters: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: host time of the unit is reported times this (1 = per unit)
    work_scale: float = 1.0

    @property
    def digest(self) -> str:
        blob = json.dumps(
            {
                "outcome": [self.attempted, self.failed, self.shed],
                "sim": self.sim,
                "counters": self.counters,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _direct(fn, *args):
    """The untraced ``step``: just run the operation."""
    return fn(*args)


def _mops(ops: int, cycles: int) -> float:
    """Simulated throughput in Mops at the model clock."""
    return _ratio(ops * CLOCK_MHZ, cycles)


# ---------------------------------------------------------------- soc_cbo
class SocCbo:
    """Cycle-level Soc, 2 cores, Skip It on: fig-13 and fig-10 rounds.

    A unit is four rounds, each one ``run_programs`` + ``drain`` on a
    fresh Soc: (fig-13 shape, fitting), (fig-10 shape, fitting),
    (fig-13 shape, exceeding), (fig-10 shape, exceeding).  A *fitting*
    region spreads its lines over the L1's sets; an *exceeding* region
    maps 12 lines to each touched set of the 8-way L1, so evictions run
    beside the flush queue.

    In the fig-10 rounds the other core reloads about a quarter of the
    writer's lines so that coherence probes run.  It does so only in the
    fitting round: with an L1-exceeding reader, an eviction Release that
    crosses an L2 probe is followed by a ProbeAck the L2 rejects as
    unsolicited (``RuntimeError`` in ``InclusiveL2Cache._probe_ack``), a
    model defect that ``tests/test_perfbench.py`` pins as an expected
    failure until it is fixed.
    """

    name = "soc_cbo"
    REGION_BASE = 0x1000_0000
    CORE_STRIDE = 0x100_0000  # keeps both cores' lines in the same L2 sets
    ROUND_STRIDE = 0x10_0000
    FIT_LINES = 64  # per core, spread over the 64 L1 sets
    EXCEED_SETS = 6  # touched L1 sets per core in an exceeding round
    EXCEED_WAYS = 12  # lines per touched set (the L1 has 8 ways)
    REDUNDANT_CLEANS = 10
    CROSS_READ_SHARE = 0.25

    def __init__(self, seed: int) -> None:
        self.params = SoCParams()  # 2 cores, Skip It on, 32 KiB L1s
        rng = random.Random(f"{self.name}/{seed}")
        geometry = self.params.l1
        self.line = geometry.line_bytes
        self.l1_sets = geometry.num_sets
        shapes = [("fig13", False), ("fig10", False), ("fig13", True), ("fig10", True)]
        #: per round: (shape, programs, {word: value} per core, reload slots)
        self.rounds = [
            self._round(rng, index, shape, exceed)
            for index, (shape, exceed) in enumerate(shapes)
        ]

    def _lines(self, rng: random.Random, base: int, exceed: bool) -> List[int]:
        line, sets = self.line, self.l1_sets
        if exceed:
            touched = rng.sample(range(sets), self.EXCEED_SETS)
            lines = [
                base + s * line + k * sets * line
                for s in touched
                for k in range(self.EXCEED_WAYS)
            ]
        else:
            lines = [base + i * line for i in rng.sample(range(4 * sets), self.FIT_LINES)]
        rng.shuffle(lines)
        return lines

    def _round(self, rng: random.Random, index: int, shape: str, exceed: bool):
        cores = self.params.num_cores
        writes: List[Dict[int, int]] = []
        bodies: List[List[Tuple[int, int, int]]] = []  # (line, word, value)
        for core in range(cores):
            base = self.REGION_BASE + core * self.CORE_STRIDE + index * self.ROUND_STRIDE
            body = []
            for line in self._lines(rng, base, exceed):
                word = line + 8 * rng.randrange(self.line // 8)
                body.append((line, word, rng.getrandbits(62) + 1))
            bodies.append(body)
            writes.append({word: value for _, word, value in body})
        programs: List[List[Instr]] = [[] for _ in range(cores)]
        reloads: List[List[Tuple[int, int]]] = [[] for _ in range(cores)]
        for core, body in enumerate(bodies):
            program = programs[core]
            if shape == "fig13":
                for line, word, value in body:
                    program.append(Instr.store(word, value))
                    program.extend(
                        Instr.clean(line) for _ in range(1 + self.REDUNDANT_CLEANS)
                    )
                program.append(Instr.fence())
                continue
            other = bodies[(core + 1) % cores]
            for i, (line, word, value) in enumerate(body):
                program += [Instr.store(word, value), Instr.flush(line), Instr.fence()]
                reloads[core].append((len(program), value))
                program.append(Instr.load(word))
                if not exceed and i < len(other) and rng.random() < self.CROSS_READ_SHARE:
                    program.append(Instr.load(other[i][1]))
        return shape, programs, writes, reloads

    def build(self) -> Soc:
        return Soc(self.params)

    def fresh(self, built: Soc) -> Soc:
        # construction is the whole setup; each unit gets its own Soc
        return self.build()

    def run(self, soc: Soc, step=_direct) -> UnitResult:
        result = UnitResult()
        cycles: List[int] = []
        for _shape, programs, writes, reloads in self.rounds:
            cycles.append(step(_soc_round, soc, programs))
            self._check_round(soc, writes, reloads, result)
        instrs = sum(len(p) for _, programs, _, _ in self.rounds for p in programs)
        total = sum(cycles)
        stats = soc.stats_summary()
        l1 = [stats[f"l1_{i}"] for i in range(len(soc.l1s))]
        fu = [stats[f"flush_unit_{i}"] for i in range(len(soc.l1s))]
        enqueued = sum(s.get("enqueued", 0) for s in fu)
        skipped = sum(s.get("skipped", 0) for s in fu)
        result.sim = {
            "sim_mops": _mops(instrs, total),
            "sim_wb_cycles": float(sorted(cycles)[len(cycles) // 2]),
        }
        result.layers = {
            "sim.cycles": total,
            "uarch.l1.mshr_full_nack": sum(s.get("mshr_full_nack", 0) for s in l1),
            "core.flush_unit.nack_ratio": _ratio(
                sum(s.get("nacked_dependent", 0) for s in fu), enqueued
            ),
            "core.flush_unit.skip_ratio": _ratio(skipped, skipped + enqueued),
            "uarch.l2.root_writebacks": stats["l2"].get("root_writebacks", 0),
            "uarch.l2.coherence_probes": stats["l2"].get("coherence_probes", 0),
        }
        result.counters = {"round_cycles": cycles, "stats": stats}
        return result

    def _check_round(self, soc: Soc, writes, reloads, result: UnitResult) -> None:
        """After the round's fences: every stored word is coherent and
        persisted, and every fig-10 reload returned its own store."""
        for per_core in writes:
            for word, value in per_core.items():
                result.attempted += 1
                if soc.persisted_value(word) != value or soc.coherent_value(word) != value:
                    result.failed += 1
        for core, slots in zip(soc.cores, reloads):
            for index, value in slots:
                result.attempted += 1
                if core.load_result(index) != value:
                    result.failed += 1


def _soc_round(soc: Soc, programs) -> int:
    cycles = soc.run_programs(programs)
    soc.drain()
    return cycles


# ------------------------------------------------------------ bst_persist
class BstPersist:
    """Figure-16 cell on the timing model: BST, 10k keys, automatic
    persistence, 5 % updates, 2 virtual-time threads; FliT hash table
    (1024 entries) and then Skip It, each from its own prefill of the
    same seeded key set."""

    name = "bst_persist"
    OPTIMIZERS = ("flit-hashtable", "skipit")
    KEY_RANGE = 20_000  # prefilled to half: 10k keys
    UPDATE_PERCENT = 5
    THREADS = 2
    FLIT_ENTRIES = 1024
    DURATION = 250_000  # virtual cycles per optimizer (fig-16 full length)
    WARMUP = 100  # uncounted ops per thread, as the figure driver does
    STREAM = 4_000  # pre-generated ops per thread; a unit uses ~400

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        self.prefill = rng.sample(range(1, self.KEY_RANGE + 1), self.KEY_RANGE // 2)
        half = self.UPDATE_PERCENT / 200.0
        self.streams: List[List[Tuple[str, int]]] = []
        for _ in range(self.THREADS):
            ops = []
            for _ in range(self.STREAM):
                r = rng.random()
                op = "insert" if r < half else "delete" if r < 2 * half else "contains"
                ops.append((op, rng.randint(1, self.KEY_RANGE)))
            self.streams.append(ops)

    def _build_one(self, optimizer_name: str):
        params = TimingParams(
            num_threads=self.THREADS, skip_it=optimizer_name == "skipit"
        )
        system = TimingSystem(params)
        heap = SimHeap(line_bytes=params.line_bytes)
        optimizer = make_optimizer(optimizer_name, heap, self.FLIT_ENTRIES)
        structure = STRUCTURES["bst"](heap, field_stride=optimizer.field_stride)
        policy = make_policy("automatic")
        views = [PMemView(ctx, policy, optimizer) for ctx in system.threads]
        structure.initialize(views[0])
        prefill_view = PMemView(views[0].ctx, make_policy("none"), optimizer)
        for key in self.prefill:
            structure.insert(prefill_view, key)
        system.persist_all()
        optimizer.declare_persisted(system)
        views[0].ctx.now = 0
        views[0].ctx.outstanding.clear()
        return system, structure, views

    def build(self) -> bytes:
        states = {name: self._build_one(name) for name in self.OPTIMIZERS}
        # pickled once so each unit restarts from the identical state
        return pickle.dumps(states, protocol=pickle.HIGHEST_PROTOCOL)

    def fresh(self, built: bytes):
        return pickle.loads(built)

    def run(self, states, step=_direct) -> UnitResult:
        result = UnitResult()
        total_ops = total_cycles = 0
        counters: Dict[str, object] = {}
        flush_requests = 0
        stats_sum: Dict[str, int] = {}
        for name in self.OPTIMIZERS:
            system, structure, views = states[name]
            mirror = set(self.prefill)
            steps = [
                self._step(structure, view, iter(stream), mirror, result, step)
                for view, stream in zip(views, self.streams)
            ]
            schedule = VirtualTimeScheduler(system).run(
                steps, duration=self.DURATION, warmup=self.WARMUP
            )
            total_ops += schedule.total_ops
            total_cycles += schedule.elapsed
            stats = system.stats.as_dict()
            requests = sum(v.flush_requests for v in views)
            flush_requests += requests
            for key, value in stats.items():
                stats_sum[key] = stats_sum.get(key, 0) + value
            counters[name] = {
                "ops": schedule.ops_per_thread,
                "elapsed": schedule.elapsed,
                "flush_requests": requests,
                "stats": stats,
            }
            result.sim[f"sim_mops.{name}"] = _mops(schedule.total_ops, schedule.elapsed)
        result.sim["sim_mops"] = _mops(total_ops, total_cycles)
        result.layers = _timing_layers(stats_sum)
        result.layers["persist.flush_requests"] = flush_requests
        result.counters = counters
        return result

    @staticmethod
    def _step(structure, view, stream, mirror, result: UnitResult, step):
        """One scheduled op; every result is checked against *mirror*."""

        def op(ctx) -> None:
            kind, key = next(stream)
            result.attempted += 1
            if kind == "insert":
                ok = structure.insert(view, key) == (key not in mirror)
                mirror.add(key)
            elif kind == "delete":
                ok = structure.delete(view, key) == (key in mirror)
                mirror.discard(key)
            else:
                ok = structure.contains(view, key) == (key in mirror)
            if not ok:
                result.failed += 1

        return lambda ctx: step(op, ctx)


def _timing_layers(stats: Dict[str, int]) -> Dict[str, float]:
    """Simulated timing-model counters shared by the timing workloads."""
    hits = stats.get("l1_hits", 0)
    skipped = stats.get("cbo_skipped", 0)
    return {
        "timing.l1_hit_ratio": _ratio(hits, hits + stats.get("l1_misses", 0)),
        "timing.mem_fills": stats.get("mem_fills", 0),
        "timing.cbo_skip_ratio": _ratio(skipped, skipped + stats.get("cbo_issued", 0)),
        "timing.fences": stats.get("fences", 0),
    }


# --------------------------------------------------------- serve_openloop
class ServeOpenLoop:
    """Figure-19 tier over ``SharedLogStore`` with the skipit optimizer:
    4 tenants (one read-mostly analytics tenant), zipfian θ=0.99 keys,
    60 % writes, group commit 8, 20 ops/kcycle offered as a Poisson open
    loop on the virtual clock.  The load is past saturation on purpose:
    the tier sheds about a third of the requests, and those show up as
    refused operations rather than being sized away.

    A unit is three independent cells (own tier, own seeded arrival and
    key streams) of 500k cycles each; their ack latencies are pooled.
    Three cells average out how much one seed's key and arrival draws
    move the cost, which a single longer cell would not.
    """

    name = "serve_openloop"
    OPTIMIZER = "skipit"
    CELLS = 3
    SESSIONS = 4
    ANALYTICS = 1
    GROUP_COMMIT = 8
    OFFERED_LOAD = 20.0  # total ops per kilocycle
    DURATION = 500_000  # virtual cycles per cell: ~9 checkpoints each
    KEY_SPACE = 1_000_000
    THETA = 0.99
    PREFILL_KEYS = 128
    UPDATE, SNAPSHOT = 0.6, 0.15
    ANALYTICS_UPDATE, ANALYTICS_SNAPSHOT = 0.05, 0.80

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        # per cell: one seed per tenant generator plus the prefill's
        self.seeds = [
            [rng.getrandbits(32) for _ in range(3 * self.SESSIONS + 1)]
            for _ in range(self.CELLS)
        ]

    def build(self):
        return [self._build_cell(seeds) for seeds in self.seeds]

    def _build_cell(self, seeds):
        params = TimingParams(num_threads=self.SESSIONS, skip_it=self.OPTIMIZER == "skipit")
        system = TimingSystem(params)
        heap = SimHeap(line_bytes=params.line_bytes)
        optimizer = make_optimizer(self.OPTIMIZER, heap)
        policy = make_policy("none")
        views = [PMemView(ctx, policy, optimizer) for ctx in system.threads]
        store = SharedLogStore(
            heap, views, log_capacity=512, batch_size=self.GROUP_COMMIT,
            checkpoint_every=4, num_buckets=64,
        )
        tier = ServeTier(store, high_water=48, low_water=12)
        hot = ZipfianKeys(self.KEY_SPACE, self.THETA, seed=seeds[-1])
        prefilled = set()
        while len(prefilled) < self.PREFILL_KEYS:
            key = hot.next()
            if key not in prefilled:
                prefilled.add(key)
                store.put(0, key, 1_000 + len(prefilled))
        store.checkpoint(0)
        system.persist_all()
        optimizer.declare_persisted(system)
        system.stats.reset()
        store.reset_measurement()
        return system, store, tier

    def fresh(self, built):
        return self.build()

    def run(self, cells, step=_direct) -> UnitResult:
        result = UnitResult()
        acks = Histogram()
        completed = elapsed = 0
        timing: Dict[str, int] = {}
        store_stats: Dict[str, int] = {}
        tier_stats: Dict[str, int] = {}
        records = cas_failures = engagements = 0
        result.counters["cells"] = []
        for seeds, (system, store, tier) in zip(self.seeds, cells):
            cell = self._run_cell(seeds, system, store, tier, step, result)
            elapsed += cell["elapsed"]
            completed += tier.stats.get("serve_completed")
            acks.extend(tier.ack_latency.samples)
            for total, stats in (
                (timing, system.stats.as_dict()),
                (store_stats, store.stats.as_dict()),
                (tier_stats, tier.stats.as_dict()),
            ):
                for key, value in stats.items():
                    total[key] = total.get(key, 0) + value
            records += store.wal.records_appended
            cas_failures += store.wal.tail_cas_failures
            engagements += tier.admission.engagements
            result.counters["cells"].append(cell)
        result.sim = {
            "sim_mops": _mops(completed, elapsed),
            "sim_ack_p50_cycles": float(acks.p50()),
            "sim_ack_p99_cycles": float(acks.p99()),
            "acked_writes": float(completed),
        }
        fences = store_stats.get("store_fences", 0)
        snap = tier_stats.get("serve_snapshot_reads", 0)
        fallback = tier_stats.get("serve_snapshot_fallback", 0)
        result.layers = _timing_layers(timing)
        result.layers.update({
            "store.fences": fences,
            "store.records_per_fence": _ratio(records, fences),
            "store.wal.tail_cas_failures": cas_failures,
            "store.seals_deferred": store_stats.get("store_seals_deferred", 0),
            "serve.shed": result.shed,
            "serve.admitted": tier_stats.get("serve_admitted", 0),
            "serve.snapshot_fallback_ratio": _ratio(fallback, snap + fallback),
            "serve.backpressure_engagements": engagements,
        })
        result.notes.append(
            f"acked writes {completed} over {self.CELLS} cells (p99 has "
            f"{completed - int(0.99 * completed)} samples beyond it); served "
            f"{result.attempted}, shed {result.shed}"
        )
        return result

    def _run_cell(self, seeds, system, store, tier, step, result: UnitResult):
        admitted: List[Tuple[int, object]] = []
        tier.on_write = lambda sid, key, ticket: admitted.append((key, ticket))
        mean_interarrival = 1000.0 * self.SESSIONS / self.OFFERED_LOAD
        clients = []
        for sid in range(self.SESSIONS):
            analytics = sid >= self.SESSIONS - self.ANALYTICS
            clients.append(
                OpenLoopClient(
                    tier,
                    tier.session(sid, sid),
                    ZipfianKeys(self.KEY_SPACE, self.THETA, seed=seeds[3 * sid]),
                    PoissonArrivals(mean_interarrival, seed=seeds[3 * sid + 1]),
                    update_fraction=self.ANALYTICS_UPDATE if analytics else self.UPDATE,
                    snapshot_fraction=self.ANALYTICS_SNAPSHOT if analytics else self.SNAPSHOT,
                    value_base=1_000_000 + sid * 10_000_000,
                    seed=seeds[3 * sid + 2],
                )
            )
        steps = [lambda ctx, c=c: step(c.step, ctx) for c in clients]
        schedule = VirtualTimeScheduler(system).run(steps, duration=self.DURATION)
        tier.drain()
        tier.on_write = None
        result.attempted += sum(c.served for c in clients)
        result.shed += tier.stats.get("serve_rejected")
        result.failed += self._check(system, store, admitted)
        return {
            "timing": system.stats.as_dict(),
            "store": store.stats.as_dict(),
            "serve": tier.stats.as_dict(),
            "acks": tier.ack_latency.samples,
            "elapsed": schedule.elapsed,
            "generated": [c.generated for c in clients],
            "served": [c.served for c in clients],
            "wal_records": store.wal.records_appended,
        }

    @staticmethod
    def _check(system, store, admitted) -> int:
        """Recover the persisted image; count admitted writes that are not
        acked after the drain, or that the recovered state lost."""
        state = recover(persisted_reader(system.persisted_image()), store.layout)
        lost = 0
        for key, ticket in admitted:
            if not ticket.acked or ticket.lsn > state.applied_lsn:
                lost += 1
            elif state.items.get(key) != store.memtable.get(key):
                lost += 1
        return lost


# ------------------------------------------------------------ verify_crash
class VerifyCrash:
    """Seeded shared-log store and transaction crash sweeps over the
    5 optimizers x group commit {1, 8, 64}: every crash point is one
    crash image plus one oracle check.

    A unit runs both sweeps for two sub-seeds.  The transaction sweep's
    history length, and with it the number of crash points, depends on
    the seed (about 6k to 7.8k points), so the unit's time is reported
    per 10,000 crash points (``WORK_SCALE``); the count itself is a
    per-layer metric that must not move between commits.
    """

    name = "verify_crash"
    SUB_SEEDS = 2
    POINTS_PER_UNIT = 10_000

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        self.seeds = [rng.getrandbits(32) for _ in range(self.SUB_SEEDS)]

    def build(self) -> None:
        # each sweep constructs its own store; nothing precedes it
        return None

    def fresh(self, built) -> None:
        return None

    def run(self, state, step=_direct) -> UnitResult:
        if step is _direct:
            reports = self._sweeps()
        else:
            # a traced op is one protocol boundary and its crash points
            original = SharedLogStore.probe_point
            SharedLogStore.probe_point = lambda store, name: step(original, store, name)
            try:
                reports = self._sweeps()
            finally:
                SharedLogStore.probe_point = original
        result = UnitResult()
        points = sum(r.crash_points for _, r in reports)
        result.attempted = points
        # at most one violation per crash point is counted
        result.failed = sum(len({v.at for v in r.violations}) for _, r in reports)
        result.sim = {"crash_points": float(points)}
        result.layers = {"verify.crash_points": points}
        result.work_scale = self.POINTS_PER_UNIT / points
        result.counters = {
            "sweeps": [
                [name, r.boundaries, r.crash_points, r.recoveries, [str(v) for v in r.violations]]
                for name, r in reports
            ]
        }
        return result

    def _sweeps(self):
        reports = []
        for seed in self.seeds:
            reports += run_shared_store_sweep(seed=seed) + run_txn_sweep(seed=seed)
        return reports


WORKLOADS = {cls.name: cls for cls in (SocCbo, BstPersist, ServeOpenLoop, VerifyCrash)}
