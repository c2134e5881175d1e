"""Differential cross-model fuzzing: cycle-level Soc vs fast timing model.

The two simulators implement the same §4/§6 semantics at wildly different
fidelities; wherever their observable behaviour is specified to agree,
generated programs must not tell them apart.  The fuzzer:

1. generates one straight-line memory program per core — value-unique
   stores, per-core word ownership on shared lines (false sharing is fair
   game, true racing of one word is not, so final images are
   deterministic), plus a *sealing epilogue* (fence, clean every touched
   line, fence) so both models end fully persisted;
2. runs the programs on a :class:`~repro.uarch.soc.Soc` (coalescing
   disabled: the timing model has no queue to merge in, so per-line
   counts would legitimately diverge) and on a
   :class:`~repro.timing.system.TimingSystem`;
3. diffs the persisted images — and, for single-core programs, the
   per-line skip/issue decisions and per-line DRAM writeback counts;
4. shrinks a failing program set to a minimal reproducer by greedy
   delta-debugging over the program bodies.

Every case is identified by its seed: ``DifferentialFuzzer().run_case(
ProgramGenerator(seed).generate_bodies())`` reproduces it exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.config import DEFAULT_SOC
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem
from repro.uarch.cpu import Instr
from repro.uarch.requests import MemOp
from repro.uarch.soc import Soc

#: default lines the generator draws from — distinct L1/L2 sets, so
#: programs exercise multiple sets without forcing capacity evictions
#: (capacity-eviction DRAM traffic would legitimately differ per model)
DEFAULT_LINES = tuple(0x3000 + i * 0x40 for i in range(4))

WORDS_PER_LINE = 8
WORD_BYTES = 8


@dataclass
class DiffReport:
    """Outcome of one differential case."""

    seed: Optional[int]
    mismatches: List[str] = field(default_factory=list)
    soc_cycles: int = 0
    bodies: Optional[List[List[Instr]]] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        where = f"seed={self.seed}" if self.seed is not None else "case"
        if self.ok:
            return f"{where}: models agree ({self.soc_cycles} soc cycles)"
        return f"{where}: {len(self.mismatches)} mismatches:\n  " + "\n  ".join(
            self.mismatches
        )


class ProgramGenerator:
    """Seeded generator of per-core memory programs the oracle can track.

    Word ownership: word slot *k* of every line belongs to core
    ``k % num_cores``, so two cores share lines (and fight over them
    coherence-wise) without ever racing one word.  Store values come from
    a global counter — unique and nonzero, as the durability oracle
    requires.
    """

    #: op mix: stores dominate so CBOs usually have something to persist.
    #: Ranged ops stay CLEAN/FLUSH only — the timing model has no
    #: invalidate-without-writeback, so CBO.RANGE.INVAL is Soc-only.
    WEIGHTS = (
        (MemOp.STORE, 8),
        (MemOp.LOAD, 4),
        (MemOp.CBO_CLEAN, 3),
        (MemOp.CBO_FLUSH, 2),
        (MemOp.CBO_RANGE_CLEAN, 2),
        (MemOp.CBO_RANGE_FLUSH, 1),
        (MemOp.FENCE, 2),
    )

    def __init__(
        self,
        seed: int,
        num_cores: int = 2,
        ops_per_core: int = 24,
        lines: Sequence[int] = DEFAULT_LINES,
        fenced_cbos: bool = False,
    ) -> None:
        self.seed = seed
        self.num_cores = num_cores
        self.ops_per_core = ops_per_core
        self.lines = tuple(lines)
        # fenced_cbos puts a fence after every CBO.  The cycle model
        # pipelines: a load overlapping an in-flight flush of the same
        # line can fill from a transiently-dirty L2 copy and get no skip
        # bit, where the atomic timing model fills post-flush from DRAM
        # and sets it.  Both are legal; per-line issue/skip decision
        # parity is only specified for quiescent CBOs, so the count-diff
        # configs generate fenced ones.
        self.fenced_cbos = fenced_cbos
        self.rng = random.Random(seed)
        self._next_value = 1

    def _word_for(self, core: int) -> int:
        line = self.rng.choice(self.lines)
        slots = [
            k for k in range(WORDS_PER_LINE) if k % self.num_cores == core
        ]
        return line + self.rng.choice(slots) * WORD_BYTES

    def generate_bodies(self) -> List[List[Instr]]:
        """One program body per core (no epilogue)."""
        ops = [op for op, weight in self.WEIGHTS for _ in range(weight)]
        bodies: List[List[Instr]] = []
        for core in range(self.num_cores):
            body: List[Instr] = []
            for _ in range(self.ops_per_core):
                op = self.rng.choice(ops)
                if op is MemOp.STORE:
                    body.append(
                        Instr.store(self._word_for(core), self._next_value)
                    )
                    self._next_value += 1
                elif op is MemOp.LOAD:
                    body.append(Instr.load(self.rng.choice(self.lines)))
                elif op is MemOp.CBO_CLEAN:
                    body.append(Instr.clean(self.rng.choice(self.lines)))
                    if self.fenced_cbos:
                        body.append(Instr.fence())
                elif op is MemOp.CBO_FLUSH:
                    body.append(Instr.flush(self.rng.choice(self.lines)))
                    if self.fenced_cbos:
                        body.append(Instr.fence())
                elif op in (MemOp.CBO_RANGE_CLEAN, MemOp.CBO_RANGE_FLUSH):
                    # the line pool is contiguous: any [start, start+span)
                    # slice is a valid range operand
                    start = self.rng.randrange(len(self.lines))
                    span = self.rng.randint(1, len(self.lines) - start)
                    ctor = (
                        Instr.clean_range
                        if op is MemOp.CBO_RANGE_CLEAN
                        else Instr.flush_range
                    )
                    body.append(ctor(self.lines[start], span * 64))
                    if self.fenced_cbos:
                        body.append(Instr.fence())
                else:
                    body.append(Instr.fence())
            bodies.append(body)
        return bodies

    @staticmethod
    def with_epilogue(bodies: Sequence[List[Instr]]) -> List[List[Instr]]:
        """Append the sealing epilogue: fence, clean touched lines, fence."""
        programs = []
        for body in bodies:
            touched = sorted(
                {
                    instr.address - (instr.address % 64)
                    for instr in body
                    if instr.op is MemOp.STORE
                }
            )
            epilogue = [Instr.fence()]
            epilogue += [Instr.clean(line) for line in touched]
            epilogue.append(Instr.fence())
            programs.append(list(body) + epilogue)
        return programs

    @staticmethod
    def schedule_of(
        programs: Sequence[List[Instr]],
    ) -> List[Tuple[int, Instr]]:
        """Deterministic round-robin interleaving for the timing model."""
        schedule: List[Tuple[int, Instr]] = []
        cursors = [0] * len(programs)
        remaining = sum(len(p) for p in programs)
        while remaining:
            for tid, program in enumerate(programs):
                if cursors[tid] < len(program):
                    schedule.append((tid, program[cursors[tid]]))
                    cursors[tid] += 1
                    remaining -= 1
        return schedule


class DifferentialFuzzer:
    """Runs generated programs on both models and diffs the observables."""

    def __init__(self, skip_it: bool = True, num_cores: int = 2) -> None:
        self.skip_it = skip_it
        self.num_cores = num_cores

    # ------------------------------------------------------------ backends
    def _soc_params(self):
        return dc_replace(
            DEFAULT_SOC.with_cores(self.num_cores),
            skip_it=self.skip_it,
            flush_unit=dc_replace(DEFAULT_SOC.flush_unit, coalesce=False),
        )

    def run_soc(self, programs: Sequence[List[Instr]]):
        """Returns (image, issued per line, range issues per base line,
        skipped per line, dram writes per line, cycles)."""
        from repro.obs.attach import acquire_bus, release_bus

        soc = Soc(self._soc_params())
        issued: Dict[int, int] = {}
        skipped: Dict[int, int] = {}
        range_issued: Dict[int, int] = {}

        def on_event(event) -> None:
            if event.category != "cbo":
                return
            address = event.args.get("address")
            if address is None:
                return
            if event.name.endswith(":begin"):
                # one span per op: ranged spans are keyed by their base
                # line and compared against the timing model's
                # cbo_range_issued events, not the per-line counter
                if ".range." in event.name:
                    range_issued[address] = range_issued.get(address, 0) + 1
                else:
                    issued[address] = issued.get(address, 0) + 1
            elif event.name == "skipped":
                skipped[address] = skipped.get(address, 0) + 1

        dram_writes: Dict[int, int] = {}
        original_write = soc.memory.write_line

        def counting_write(address: int, data: bytes) -> None:
            dram_writes[address] = dram_writes.get(address, 0) + 1
            original_write(address, data)

        soc.memory.write_line = counting_write
        bus = acquire_bus(soc)
        bus.subscribe(on_event)
        try:
            cycles = soc.run_programs(programs)
            soc.drain()
        finally:
            bus.unsubscribe(on_event)
            release_bus(soc)
            soc.memory.write_line = original_write
        words = self._words(programs)
        image = {w: soc.persisted_value(w) for w in words}
        return image, issued, range_issued, skipped, dram_writes, cycles

    def run_timing(self, programs: Sequence[List[Instr]]):
        """Returns (image, issued per line, range issues per base line,
        skipped per line, dram writes per line)."""
        from repro.obs.attach import attach_timing

        system = TimingSystem(
            TimingParams(num_threads=self.num_cores, skip_it=self.skip_it)
        )
        issued: Dict[int, int] = {}
        skipped: Dict[int, int] = {}
        range_issued: Dict[int, int] = {}

        def on_event(event) -> None:
            address = event.args.get("address")
            if event.name == "cbo_issued":
                issued[address] = issued.get(address, 0) + 1
            elif event.name == "cbo_range_issued":
                range_issued[address] = range_issued.get(address, 0) + 1
            elif event.name == "cbo_skipped":
                skipped[address] = skipped.get(address, 0) + 1

        bus = attach_timing(system)
        bus.subscribe(on_event)
        try:
            for tid, instr in ProgramGenerator.schedule_of(programs):
                ctx = system.threads[tid]
                if instr.op is MemOp.STORE:
                    ctx.store(instr.address, instr.data)
                elif instr.op is MemOp.LOAD:
                    ctx.load(instr.address)
                elif instr.op is MemOp.CBO_CLEAN:
                    ctx.clean(instr.address)
                elif instr.op is MemOp.CBO_FLUSH:
                    ctx.flush(instr.address)
                elif instr.op is MemOp.CBO_RANGE_CLEAN:
                    ctx.clean_range(instr.address, instr.length)
                elif instr.op is MemOp.CBO_RANGE_FLUSH:
                    ctx.flush_range(instr.address, instr.length)
                elif instr.op is MemOp.FENCE:
                    ctx.fence()
                else:
                    raise ValueError(f"untracked op {instr.op}")
        finally:
            bus.unsubscribe(on_event)
            system.obs = None
        words = self._words(programs)
        persisted = system.persisted_image()
        image = {w: persisted.get(w, 0) for w in words}
        return image, issued, range_issued, skipped, dict(system.wb_lines)

    @staticmethod
    def _words(programs: Sequence[List[Instr]]) -> List[int]:
        return sorted(
            {
                instr.address
                for program in programs
                for instr in program
                if instr.op is MemOp.STORE
            }
        )

    # ------------------------------------------------------------- compare
    def run_case(
        self,
        bodies: Sequence[List[Instr]],
        seed: Optional[int] = None,
    ) -> DiffReport:
        programs = ProgramGenerator.with_epilogue(bodies)
        report = DiffReport(seed=seed, bodies=[list(b) for b in bodies])
        (
            soc_image,
            soc_issued,
            soc_ranges,
            soc_skipped,
            soc_writes,
            cycles,
        ) = self.run_soc(programs)
        report.soc_cycles = cycles
        t_image, t_issued, t_ranges, t_skipped, t_writes = self.run_timing(
            programs
        )
        for word in soc_image:
            if soc_image[word] != t_image[word]:
                report.mismatches.append(
                    f"image[{word:#x}]: soc={soc_image[word]} "
                    f"timing={t_image[word]}"
                )
        if self.num_cores == 1:
            # decision/count parity is only deterministic single-threaded:
            # with >1 cores the interleavings differ by construction
            self._diff_counts(report, "issued", soc_issued, t_issued)
            self._diff_counts(report, "range_issued", soc_ranges, t_ranges)
            self._diff_counts(report, "skipped", soc_skipped, t_skipped)
            self._diff_counts(report, "dram_writes", soc_writes, t_writes)
        return report

    @staticmethod
    def _diff_counts(
        report: DiffReport,
        label: str,
        soc_counts: Dict[int, int],
        timing_counts: Dict[int, int],
    ) -> None:
        for line in sorted(set(soc_counts) | set(timing_counts)):
            a, b = soc_counts.get(line, 0), timing_counts.get(line, 0)
            if a != b:
                report.mismatches.append(
                    f"{label}[{line:#x}]: soc={a} timing={b}"
                )

    # ---------------------------------------------------------------- runs
    def run(self, cases: int, seed: int = 0) -> List[DiffReport]:
        """Run *cases* seeded cases; returns the failing reports."""
        failures = []
        for case in range(cases):
            case_seed = seed + case
            generator = ProgramGenerator(
                case_seed,
                num_cores=self.num_cores,
                fenced_cbos=self.num_cores == 1,
            )
            report = self.run_case(generator.generate_bodies(), seed=case_seed)
            if not report.ok:
                failures.append(report)
        return failures

    # -------------------------------------------------------------- shrink
    def shrink(
        self, bodies: Sequence[List[Instr]], max_rounds: int = 10
    ) -> List[List[Instr]]:
        """Greedy delta-debugging: drop any op whose removal keeps the diff.

        The sealing epilogue is regenerated for each candidate, so
        shrinking never introduces divergence that is merely an artifact
        of unsealed trailing state.
        """
        current = [list(body) for body in bodies]
        if self.run_case(current).ok:
            return current  # nothing to shrink
        for _ in range(max_rounds):
            shrunk = False
            for core in range(len(current)):
                index = 0
                while index < len(current[core]):
                    candidate = [list(body) for body in current]
                    del candidate[core][index]
                    if not self.run_case(candidate).ok:
                        current = candidate
                        shrunk = True
                    else:
                        index += 1
            if not shrunk:
                break
        return current
