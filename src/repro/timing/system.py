"""The functional-with-timing memory system.

Each simulated thread owns a :class:`ThreadCtx` (its virtual clock plus its
outstanding asynchronous writebacks).  All architectural state lives in
:class:`TimingSystem`:

* ``arch`` — the architecturally-current value of every written word;
* per-thread L1 state (permission, dirty, skip bit) in set-associative
  LRU caches;
* shared inclusive L2 state (dirty bit, full-map directory, and the word
  values its copy of the line holds);
* ``persisted`` — what main memory (the persistence domain) holds; a
  simulated crash keeps exactly this.

Writeback semantics follow §4: a CBO.X snapshots the line's words at issue
time into the persistence domain (writes *before* the writeback are
covered, later writes are not), completes asynchronously after a latency
that depends on where dirty data was found, and fences wait for all of the
issuing thread's outstanding writebacks.  Skip It (§6) drops a CBO.X at
the L1 for ``cbo_skip`` cycles when the line hits clean with the skip bit
set; the skip bit is set on fills from a clean L2 (GrantData) and cleared
on fills from a dirty L2 (GrantDataDirty), on re-dirtying stores, and on
dirty-data probes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.coherence.directory import DirectoryEntry
from repro.sim.stats import StatCounter
from repro.timing.cache import LineCache
from repro.timing.params import TimingParams
from repro.tilelink.permissions import Perm

# Enum member lookups (``Perm.TRUNK``) cost a descriptor call each on
# CPython 3.11; the access path compares against these aliases instead.
_NONE, _BRANCH, _TRUNK = Perm.NONE, Perm.BRANCH, Perm.TRUNK


# The cache and writeback records are slotted.  Each pickles as its
# constructor call: the default state of a slotted object is a new dict per
# instance, and the pickler's memo keeps every one alive until the dump
# ends (benchmarks pickle whole prefilled systems).
@dataclass(slots=True)
class L1Rec:
    perm: Perm
    dirty: bool = False
    skip: bool = False

    def __reduce__(self):
        return L1Rec, (self.perm, self.dirty, self.skip)


@dataclass(slots=True)
class L2Rec:
    dirty: bool = False
    directory: DirectoryEntry = field(default_factory=DirectoryEntry)
    values: Dict[int, int] = field(default_factory=dict)  # this copy's words

    def __reduce__(self):
        return L2Rec, (self.dirty, self.directory, self.values)


@dataclass(slots=True)
class L3Rec:
    """Victim-L3 record (optional deeper hierarchy, §7.4)."""

    dirty: bool = False
    values: Dict[int, int] = field(default_factory=dict)

    def __reduce__(self):
        return L3Rec, (self.dirty, self.values)


@dataclass(slots=True)
class InFlightWriteback:
    """One asynchronous DRAM write travelling to the persistence domain.

    A CBO.X snapshots the line's words at issue time (§4) but the bytes
    only land in DRAM when the writeback completes, ``done`` cycles into
    the issuing thread's virtual clock.  A crash before ``done`` loses the
    payload — exactly the window the paper's fence exists to close.
    """

    tid: int
    done: int  # completion time on the issuing thread's clock
    line: int
    values: Dict[int, int]  # words snapshotted at issue

    def __reduce__(self):
        return InFlightWriteback, (self.tid, self.done, self.line, self.values)


class ThreadCtx:
    """One simulated hardware thread: clock + outstanding writebacks."""

    def __init__(self, system: "TimingSystem", tid: int) -> None:
        self.system = system
        self.tid = tid
        self.now = 0
        self.outstanding: Deque[int] = deque()  # writeback completion times
        self.ops = 0
        #: cycles the most recent fence spent draining writebacks (pure
        #: bookkeeping for blame attribution; never read by the model)
        self.last_fence_waited = 0

    # convenience wrappers --------------------------------------------------
    def load(self, address: int) -> int:
        return self.system.load(self, address)

    def store(self, address: int, value: int) -> None:
        self.system.store(self, address, value)

    def cas(self, address: int, expected: int, new: int) -> bool:
        return self.system.cas(self, address, expected, new)

    def clean(self, address: int) -> None:
        self.system.cbo(self, address, invalidate=False)

    def flush(self, address: int) -> None:
        self.system.cbo(self, address, invalidate=True)

    def clean_range(self, address: int, length: int, wait: bool = False) -> None:
        self.system.cbo_range(self, address, length, invalidate=False, wait=wait)

    def flush_range(self, address: int, length: int, wait: bool = False) -> None:
        self.system.cbo_range(self, address, length, invalidate=True, wait=wait)

    def await_writebacks(self) -> None:
        self.system.await_writebacks(self)

    def fence(self) -> None:
        self.system.fence(self)


class TimingSystem:
    """Shared memory hierarchy for N virtual-time threads."""

    def __init__(self, params: Optional[TimingParams] = None) -> None:
        self.params = params or TimingParams()
        p = self.params
        self.l1s: List[LineCache[L1Rec]] = [
            LineCache(p.l1) for _ in range(p.num_threads)
        ]
        self.l2: LineCache[L2Rec] = LineCache(p.l2)
        self.l3: Optional[LineCache[L3Rec]] = (
            LineCache(p.l3) if p.l3 is not None else None
        )
        self.arch: Dict[int, int] = {}
        self.persisted: Dict[int, int] = {}
        self._line_words: Dict[int, Set[int]] = {}
        self.threads = [ThreadCtx(self, tid) for tid in range(p.num_threads)]
        self._line_bytes = p.line_bytes
        self.stats = StatCounter()
        #: the counters behind ``stats``, bumped in place on the access path
        self._counts = self.stats.counts
        self.obs = None  # observability bus; attached via repro.obs.attach_timing
        #: DRAM writes still in flight, in arrival order; a crash drops the
        #: unfinished ones
        self.in_flight: List[InFlightWriteback] = []
        #: the same writes indexed by line, each list in arrival order
        self._in_flight_of: Dict[int, List[InFlightWriteback]] = {}
        #: per-line DRAM writeback counts (differential fuzzing oracle)
        self.wb_lines: Dict[int, int] = {}
        #: test-only fault injection: names of re-introduced known bugs
        #: (see :mod:`repro.verify.mutants`); empty in production use
        self.mutants: Set[str] = set()

    # ------------------------------------------------------------- helpers
    def line_of(self, address: int) -> int:
        return address - (address % self._line_bytes)

    def _words_of(self, line: int) -> Set[int]:
        return self._line_words.get(line, set())

    def _arch_line(self, line: int) -> Dict[int, int]:
        arch = self.arch
        return {w: arch[w] for w in self._line_words.get(line, ()) if w in arch}

    # ------------------------------------------------- in-flight writebacks
    def _count_wb(self, line: int) -> None:
        self.wb_lines[line] = self.wb_lines.get(line, 0) + 1

    def _settle_line(self, line: int) -> None:
        """Land every in-flight write of *line*, in arrival order."""
        pending = self._in_flight_of.pop(line, None)
        if pending is None:
            return
        for wb in pending:
            self.persisted.update(wb.values)
        self.in_flight = [wb for wb in self.in_flight if wb.line != line]

    def _settle_thread(self, tid: int) -> None:
        """Land every in-flight write of *tid* (the fence waited for them).

        The memory controller serializes same-line writes in arrival
        order, so retiring one of *tid*'s writes also retires every
        same-line write that arrived before it — otherwise a stale
        payload could land after a newer one and revert the persistence
        domain.
        """
        in_flight = self.in_flight
        last: Dict[int, int] = {}
        for i, wb in enumerate(in_flight):
            if wb.tid == tid:
                last[wb.line] = i
        if not last:
            return
        remaining = []
        for i, wb in enumerate(in_flight):
            if i <= last.get(wb.line, -1):
                self.persisted.update(wb.values)
            else:
                remaining.append(wb)
        self.in_flight = remaining
        # the landed writes of each line are a prefix of its index entry,
        # ending at the last one of *tid*
        index = self._in_flight_of
        if not remaining:
            index.clear()
            return
        for line in last:
            pending = index[line]
            landed = len(pending)
            while pending[landed - 1].tid != tid:
                landed -= 1
            if landed < len(pending):
                index[line] = pending[landed:]
            else:
                del index[line]

    def _landing_schedule(self) -> List[Tuple[int, InFlightWriteback]]:
        """Each in-flight writeback paired with its effective completion time.

        The memory controller retires same-line writes in arrival order,
        so a write cannot land before its predecessors on the line: its
        effective time is the latest ``done`` among itself and every
        earlier same-line write.  Listed in arrival order.
        """
        horizon: Dict[int, int] = {}
        schedule = []
        for wb in self.in_flight:
            effective = max(wb.done, horizon.get(wb.line, wb.done))
            horizon[wb.line] = effective
            schedule.append((effective, wb))
        return schedule

    def _landed(self, at: Optional[int]) -> Iterator[Dict[int, int]]:
        """Payloads of the in-flight writebacks that have landed by *at*
        (by their issuing thread's clock when *at* is ``None``), in
        arrival order."""
        for effective, wb in self._landing_schedule():
            if effective <= (at if at is not None else self.threads[wb.tid].now):
                yield wb.values

    def persisted_image(self, at: Optional[int] = None) -> Dict[int, int]:
        """The words DRAM would hold if power failed right now.

        Non-destructive counterpart of :meth:`crash`: in-flight writebacks
        whose completion time has passed (``done <= at``, or the issuing
        thread's clock when *at* is ``None``) are included; younger ones
        are the mid-writeback window a crash would lose.
        """
        image = dict(self.persisted)
        for values in self._landed(at):
            image.update(values)
        return image

    def persisted_images(self, ats: Iterable[int]) -> Iterator[Dict[int, int]]:
        """``persisted_image(at)`` for each of the ascending times *ats*, lazily.

        One landing schedule, sorted stably by effective time, and one
        running image advanced across *ats*: each image costs only the
        writebacks that landed since the previous one.  Sorting keeps
        same-line writes in arrival order (their effective times never
        decrease), and different lines carry disjoint words, so the
        running image equals the arrival-order replay.  An image with
        nothing new landed is the previous object again; yielded images
        are never modified afterwards, so treat them as read-only.
        """
        schedule = sorted(self._landing_schedule(), key=itemgetter(0))
        image = dict(self.persisted)
        landed, previous = 0, float("-inf")
        for at in ats:
            if at < previous:
                raise ValueError(f"crash times must ascend: {at} after {previous}")
            previous = at
            if landed < len(schedule) and schedule[landed][0] <= at:
                image = dict(image)
                while landed < len(schedule) and schedule[landed][0] <= at:
                    image.update(schedule[landed][1].values)
                    landed += 1
            yield image

    # ------------------------------------------------------ L2 maintenance
    def _l2_evict(self, line: int, rec: L2Rec) -> None:
        """Inclusive eviction: revoke L1 copies, write back if dirty."""
        for tid in list(rec.directory.sharers):
            l1rec = self.l1s[tid].get(line)
            if l1rec is not None:
                if l1rec.dirty:
                    rec.values.update(self._arch_line(line))
                    rec.dirty = True
                self.l1s[tid].remove(line)
        if self.l3 is not None:
            spilled = self.l3.put(line, L3Rec(dirty=rec.dirty, values=rec.values))
            if spilled is not None:
                victim_line, victim = spilled
                if victim.dirty:
                    self.persisted.update(victim.values)
                    self._count_wb(victim_line)
                    self._counts["l3_evict_writebacks"] += 1
            self._counts["l2_evict_to_l3"] += 1
        elif rec.dirty:
            self.persisted.update(rec.values)
            self._count_wb(line)
            self._counts["l2_evict_writebacks"] += 1
        else:
            self._counts["l2_evict_drops"] += 1

    def _merge_owner_dirty(self, line: int, rec: L2Rec, keep_owner: bool) -> bool:
        """Pull dirty data from the TRUNK owner (if any) into the L2 copy.

        Returns True when a probe transfer happened.  ``keep_owner`` keeps
        the owner's copy as a BRANCH (clean) reader; otherwise the copy is
        revoked.
        """
        owner = rec.directory.owner
        if owner is None:
            return False
        l1rec = self.l1s[owner].get(line)
        transferred = False
        if l1rec is not None:
            if l1rec.dirty:
                rec.values.update(self._arch_line(line))
                rec.dirty = True
                l1rec.dirty = False
                l1rec.skip = False  # dirty above us: not persisted (§6.2)
                transferred = True
            if keep_owner:
                l1rec.perm = _BRANCH
            else:
                self.l1s[owner].remove(line)
        rec.directory.downgrade(owner, _BRANCH if keep_owner else _NONE)
        return transferred

    def _revoke_sharers(self, line: int, rec: L2Rec, keep: Optional[int]) -> None:
        for tid in list(rec.directory.sharers):
            if tid == keep:
                continue
            l1rec = self.l1s[tid].get(line)
            if l1rec is not None:
                if l1rec.dirty:
                    rec.values.update(self._arch_line(line))
                    rec.dirty = True
                self.l1s[tid].remove(line)
            rec.directory.downgrade(tid, _NONE)

    # ------------------------------------------------------------ accesses
    def _fill(
        self, ctx: ThreadCtx, line: int, want_write: bool
    ) -> "tuple[int, L1Rec]":
        """L1 miss path; returns the access cost and the new L1 record.

        Spelled out inline like the hit paths below: the L2 lookup or
        fetch, the probes (only when the directory names a holder), the
        L1 insert and its eviction.
        """
        params = self.params
        counts = self._counts
        l2 = self.l2
        bucket = l2.sets[line // l2.line_bytes % l2.num_sets]
        rec = bucket.get(line)
        if rec is None:
            # install the line in L2 from the victim L3 if present, else
            # from memory, inclusive-evicting on overflow
            l3rec = self.l3.remove(line) if self.l3 is not None else None
            if l3rec is not None:
                cost = params.l3_hit
                rec = L2Rec(dirty=l3rec.dirty, values=dict(l3rec.values))
                counts["l3_hits"] += 1
            else:
                cost = params.mem_access
                # a DRAM fetch is ordered after any pending write of the
                # same line at the memory controller, so settle those first
                if line in self._in_flight_of:
                    self._settle_line(line)
                persisted = self.persisted
                rec = L2Rec(
                    values={
                        w: persisted[w]
                        for w in self._line_words.get(line, ())
                        if w in persisted
                    }
                )
            # a miss: the line is new to its L2 set, so it lands MRU
            bucket[line] = rec
            if len(bucket) > l2.ways:
                self._l2_evict(*bucket.popitem(last=False))
            else:
                l2._resident += 1
            counts["mem_fills"] += 1
        else:
            cost = params.l2_hit
            bucket.move_to_end(line)
            counts["l2_hits"] += 1
        directory = rec.directory
        if want_write:
            if directory.owner is not None and self._merge_owner_dirty(
                line, rec, keep_owner=False
            ):
                cost += params.probe_extra
            if directory.sharers:
                self._revoke_sharers(line, rec, keep=ctx.tid)
            perm = _TRUNK
        else:
            if directory.owner is not None and self._merge_owner_dirty(
                line, rec, keep_owner=True
            ):
                cost += params.probe_extra
            perm = _BRANCH if directory.sharers else _TRUNK
        # GrantData vs GrantDataDirty decides the skip bit (§6.1)
        skip = params.skip_it and (
            not rec.dirty or "skip_dirty_grant" in self.mutants
        )
        l1rec = L1Rec(perm=perm, dirty=want_write, skip=skip and not want_write)
        # a miss: the line is new to its L1 set, so it lands MRU
        tid = ctx.tid
        l1 = self.l1s[tid]
        l1_bucket = l1.sets[line // l1.line_bytes % l1.num_sets]
        l1_bucket[line] = l1rec
        if len(l1_bucket) > l1.ways:
            victim, victim_rec = l1_bucket.popitem(last=False)
            victim_l2 = l2.sets[victim // l2.line_bytes % l2.num_sets].get(victim)
            if victim_l2 is None:  # pragma: no cover - inclusivity guarantees presence
                raise RuntimeError("L1 line absent from inclusive L2")
            if victim_rec.dirty:
                victim_l2.values.update(self._arch_line(victim))
                victim_l2.dirty = True
                counts["l1_evict_writebacks"] += 1
            victim_l2.directory.downgrade(tid, _NONE)
            cost += 5
        else:
            l1._resident += 1
        directory.grant(tid, perm)
        return cost, l1rec

    # The L1-hit paths of load() and store() are spelled out inline (one
    # set lookup, the LRU bump, the clock and the counters): they run once
    # per simulated access.
    def load(self, ctx: ThreadCtx, address: int) -> int:
        line = address - address % self._line_bytes
        counts = self._counts
        counts["loads"] += 1
        l1 = self.l1s[ctx.tid]
        bucket = l1.sets[line // l1.line_bytes % l1.num_sets]
        if line in bucket:
            bucket.move_to_end(line)
            ctx.now += self.params.l1_hit
            counts["l1_hits"] += 1
        else:
            ctx.now += self._fill(ctx, line, want_write=False)[0]
            counts["l1_misses"] += 1
        return self.arch.get(address, 0)

    def store(self, ctx: ThreadCtx, address: int, value: int) -> None:
        line = address - address % self._line_bytes
        counts = self._counts
        counts["stores"] += 1
        l1 = self.l1s[ctx.tid]
        bucket = l1.sets[line // l1.line_bytes % l1.num_sets]
        l1rec = bucket.get(line)
        if l1rec is None:
            cost, l1rec = self._fill(ctx, line, want_write=True)
            ctx.now += cost
            counts["l1_misses"] += 1
        elif l1rec.perm is _TRUNK:
            bucket.move_to_end(line)
            ctx.now += self.params.l1_hit
            counts["l1_hits"] += 1
        else:  # upgrade BRANCH -> TRUNK
            rec = self.l2.get(line)
            assert rec is not None
            self._revoke_sharers(line, rec, keep=ctx.tid)
            rec.directory.downgrade(ctx.tid, _NONE)
            rec.directory.grant(ctx.tid, _TRUNK)
            l1rec.perm = _TRUNK
            ctx.now += self.params.upgrade
            counts["upgrades"] += 1
        l1rec.dirty = True
        if "store_keeps_skip" not in self.mutants:
            l1rec.skip = False  # a dirty line is never persisted
        self.arch[address] = value
        words = self._line_words.get(line)
        if words is None:
            self._line_words[line] = {address}
        else:
            words.add(address)

    def cas(self, ctx: ThreadCtx, address: int, expected: int, new: int) -> bool:
        """Compare-and-swap: acquires write permission, then swaps atomically.

        Atomicity is trivially satisfied because operations are atomic at
        the model level; the cost is a write access plus a small ALU tax.
        """
        current = self.arch.get(address, 0)
        if current != expected:
            # failed CAS still acquired the line for writing
            self.store(ctx, address, current)
            ctx.now += 2
            self._counts["cas_failures"] += 1
            return False
        self.store(ctx, address, new)
        ctx.now += 2
        self._counts["cas_successes"] += 1
        return True

    # ----------------------------------------------------------- writeback
    def cbo(self, ctx: ThreadCtx, address: int, invalidate: bool) -> None:
        """CBO.FLUSH (*invalidate*) / CBO.CLEAN, asynchronous per §4."""
        line = address - address % self._line_bytes
        l1 = self.l1s[ctx.tid]
        l1rec = l1.sets[line // l1.line_bytes % l1.num_sets].get(line)
        # Skip It (§6.1): hit + clean + skip set => drop before the queue.
        if (
            self.params.skip_it
            and l1rec is not None
            and not l1rec.dirty
            and l1rec.skip
        ):
            ctx.now += self.params.cbo_skip
            self._counts["cbo_skipped"] += 1
            if self.obs is not None:
                self.obs.emit(
                    ctx.now,
                    "timing",
                    "cbo_skipped",
                    track=f"t{ctx.tid}",
                    address=line,
                    invalidate=invalidate,
                )
            return
        ctx.now += self.params.cbo_issue
        self._counts["cbo_issued"] += 1
        if self.obs is not None:
            self.obs.emit(
                ctx.now,
                "timing",
                "cbo_issued",
                track=f"t{ctx.tid}",
                address=line,
                invalidate=invalidate,
            )
        latency, payload = self._cbo_line(ctx, line, l1rec, invalidate)
        # the writeback runs asynchronously in one of the thread's FSHRs;
        # with all of them busy it starts when the oldest one completes
        start = ctx.now
        outstanding = ctx.outstanding
        if len(outstanding) >= self.params.num_fshrs:
            start = max(start, outstanding.popleft())
        completion = start + latency
        outstanding.append(completion)
        self._record_or_adopt(ctx, line, payload, completion)

    def _cbo_line(
        self,
        ctx: ThreadCtx,
        line: int,
        l1rec: Optional[L1Rec],
        invalidate: bool,
    ) -> "tuple[int, Optional[Dict[int, int]]]":
        """Per-line writeback decision shared by cbo() and cbo_range().

        Applies the metadata effects (dirty bits cleared, invalidations,
        skip bit set after a clean) and returns the writeback latency
        plus the words this line carries to DRAM (``None`` when the
        hierarchy holds nothing dirty).
        """
        l2 = self.l2
        rec = l2.sets[line // l2.line_bytes % l2.num_sets].get(line)
        latency = self.params.cbo_l2_roundtrip
        # a deeper hierarchy lengthens every writeback's path (§7.4):
        # requests traverse the L3 on their way to the persistence domain
        l3_extra = self.params.l3_extra_writeback if self.l3 is not None else 0
        latency += l3_extra
        # words this CBO carries to DRAM; they land only when the
        # asynchronous writeback completes (see InFlightWriteback)
        payload: Optional[Dict[int, int]] = None
        if l1rec is not None and l1rec.dirty:
            # dirty in our L1: full path to DRAM
            assert rec is not None
            rec.values.update(self._arch_line(line))
            l1rec.dirty = False
            latency = self.params.cbo_dram_writeback + l3_extra
            payload = self._persist_l2(line, rec)
            self._counts["cbo_dram"] += 1
        elif rec is not None and (
            rec.dirty or rec.directory.owner not in (None, ctx.tid)
        ):
            # dirty somewhere else in the hierarchy: probe/merge, then DRAM
            if self._merge_owner_dirty(line, rec, keep_owner=not invalidate):
                latency = (
                    self.params.cbo_dram_writeback
                    + self.params.probe_extra
                    + l3_extra
                )
            if rec.dirty:
                latency = max(
                    latency, self.params.cbo_dram_writeback + l3_extra
                )
                payload = self._persist_l2(line, rec)
                self._counts["cbo_dram"] += 1
            else:
                self._counts["cbo_l2_clean"] += 1
        else:
            # Not dirty anywhere the L2 can see — but the victim L3 may
            # hold the only dirty copy (the line lives in at most one of
            # L2/L3, so ``rec is None`` does not mean "persisted").
            l3rec = self.l3.get(line) if self.l3 is not None else None
            if "l3_dirty_clean_lost" in self.mutants and not invalidate:
                l3rec = None  # re-introduced PR 2 bug (test-only)
            if l3rec is not None and l3rec.dirty:
                payload = dict(l3rec.values)
                l3rec.dirty = False
                latency = self.params.cbo_dram_writeback + l3_extra
                self._counts["cbo_dram"] += 1
                self._counts["cbo_l3_dirty_writebacks"] += 1
            else:
                # persisted already: the LLC trivially skips the DRAM write
                self._counts["cbo_l2_clean"] += 1
        if invalidate:
            if rec is not None:
                self._revoke_sharers(line, rec, keep=None)
                self.l2.remove(line)
            if self.l3 is not None:
                l3rec = self.l3.remove(line)
                if l3rec is not None and l3rec.dirty:
                    # flushing a line dirty only in L3 persists it
                    payload = dict(payload or {})
                    payload.update(l3rec.values)
        elif l1rec is not None:
            # after a clean the resident line is persisted (§6.2)
            l1rec.skip = self.params.skip_it
        return latency, payload

    def _record_or_adopt(
        self,
        ctx: ThreadCtx,
        line: int,
        payload: Optional[Dict[int, int]],
        completion: int,
    ) -> None:
        if payload:
            # a new DRAM write: track it until it lands, count it
            wb = InFlightWriteback(
                tid=ctx.tid, done=completion, line=line, values=dict(payload)
            )
            pending = self._in_flight_of.get(line)
            if pending is None:
                self._in_flight_of[line] = [wb]
            else:
                pending.append(wb)
            self.in_flight.append(wb)
            self.wb_lines[line] = self.wb_lines.get(line, 0) + 1
            return
        # The line is clean in the hierarchy, but an earlier CBO's DRAM
        # write for it may still sit in the controller queue.  Same-address
        # ordering puts this CBO's completion behind those writes, so the
        # fence that waits for *this* CBO also covers them: adopt their
        # payload under our completion.  Not a new DRAM write — wb_lines is
        # deliberately untouched.
        pending = self._in_flight_of.get(line)
        if pending is None:
            return
        merged: Dict[int, int] = {}
        for wb in pending:
            merged.update(wb.values)
        if merged:
            wb = InFlightWriteback(
                tid=ctx.tid, done=completion, line=line, values=merged
            )
            pending.append(wb)
            self.in_flight.append(wb)

    def cbo_range(
        self,
        ctx: ThreadCtx,
        address: int,
        length: int,
        invalidate: bool = False,
        wait: bool = False,
    ) -> None:
        """CBO.RANGE.{CLEAN,FLUSH}: one charged multi-line sweep (SIMF-style).

        One instruction, one flush-queue entry, one ordering token: the
        issue cost is charged once, then a single range-capable FSHR
        sweeps ``[address, address + length)`` line by line.  Skip It is
        consulted per line *inside* the sweep — a filtered line costs a
        lookup (``cbo_skip``), not a writeback.  Each unfiltered line's
        payload travels as its own :class:`InFlightWriteback` with a
        staggered completion time, so a crash mid-sweep exposes every
        cursor position as a distinct window.

        With ``wait=True`` the op adopts SIMF completion semantics: the
        thread settles to the sweep's final line before continuing, so
        the whole range is one ordering token and no separate FENCE is
        needed — the caller's next instruction is ordered after every
        covered line is durable.
        """
        if length <= 0:
            raise ValueError("ranged CBO requires a positive byte length")
        line_bytes = self.params.line_bytes
        base = self.line_of(address)
        last = self.line_of(address + length - 1)
        nlines = (last - base) // line_bytes + 1
        ctx.now += self.params.cbo_issue
        self._counts["cbo_range_issued"] += 1
        self._counts["cbo_range_lines"] += nlines
        if self.obs is not None:
            self.obs.emit(
                ctx.now,
                "timing",
                "cbo_range_issued",
                track=f"t{ctx.tid}",
                address=base,
                lines=nlines,
                invalidate=invalidate,
            )
        # the sweep occupies one FSHR: same admission rule as one CBO.X
        start = ctx.now
        if len(ctx.outstanding) >= self.params.num_fshrs:
            start = max(start, ctx.outstanding.popleft())
        # seeded mutant: the range reports done with every line at or
        # past the mid-sweep cursor unswept — their dirty data never
        # reaches DRAM (lost writes the crash sweep must catch)
        sweep_lines = nlines
        if "range_skips_unreached_lines" in self.mutants:
            sweep_lines = max(1, nlines // 2)
        cursor = start
        horizon = start
        l1 = self.l1s[ctx.tid]
        l1_sets, l1_line_bytes, l1_num_sets = l1.sets, l1.line_bytes, l1.num_sets
        skipped = 0
        for index in range(sweep_lines):
            line = base + index * line_bytes
            l1rec = l1_sets[line // l1_line_bytes % l1_num_sets].get(line)
            if (
                self.params.skip_it
                and l1rec is not None
                and not l1rec.dirty
                and l1rec.skip
            ):
                # filtered inside the sweep: a lookup, not a writeback
                cursor += self.params.cbo_skip
                skipped += 1
                continue
            latency, payload = self._cbo_line(ctx, line, l1rec, invalidate)
            # the FSHR hands the line to the memory controller and
            # advances at sweep pitch; the write lands asynchronously
            # (same handoff the per-line CBO path gets from its flush
            # unit), so completions stagger by cursor position
            cursor += self.params.cbo_range_line
            done = cursor + latency
            horizon = max(horizon, done)
            self._record_or_adopt(ctx, line, payload, done)
        if skipped:
            self._counts["cbo_range_line_skipped"] += skipped
        if self.obs is not None:
            self.obs.emit(
                cursor,
                "timing",
                "cbo_range_done",
                track=f"t{ctx.tid}",
                address=base,
                lines=nlines,
                skipped=skipped,
            )
        # the whole sweep is one ordering token that a younger fence (or
        # an explicit SIMF completion wait) retires; it covers the last
        # line's landing, not just the scan's end
        ctx.outstanding.append(max(cursor, horizon))
        if wait:
            self.await_writebacks(ctx)

    def await_writebacks(self, ctx: ThreadCtx) -> None:
        """SIMF-style completion wait: retire *ctx*'s tokens, no FENCE.

        A CBO.RANGE is its own ordering token — waiting on its
        completion orders the caller's next instruction after every
        covered line is durable without issuing (or counting) a fence
        instruction.  The thread's clock advances to its last
        outstanding completion and those writebacks settle.
        """
        if ctx.outstanding:
            horizon = max(ctx.outstanding)
            ctx.now = max(ctx.now, horizon)
            ctx.outstanding.clear()
        self._settle_thread(ctx.tid)
        self._counts["cbo_range_waits"] += 1

    def _persist_l2(self, line: int, rec: L2Rec) -> Dict[int, int]:
        """Snapshot the L2 copy for DRAM and clear its dirty bit (§4)."""
        rec.dirty = False
        if "clean_forgets_l2_dirty" in self.mutants:
            return {}  # marked clean, payload dropped (test-only bug)
        return dict(rec.values)

    def fence(self, ctx: ThreadCtx) -> None:
        """FENCE: wait for every outstanding writeback of this thread (§5.3)."""
        waited = 0
        if "fence_forgets_writebacks" in self.mutants:
            ctx.outstanding.clear()  # test-only bug: no wait, no settle
        elif ctx.outstanding:
            horizon = max(ctx.outstanding)
            waited = max(0, horizon - ctx.now)
            ctx.now = max(ctx.now, horizon)
            ctx.outstanding.clear()
        if "fence_forgets_writebacks" not in self.mutants:
            # every writeback of this thread has now completed; its bytes
            # are in the persistence domain
            self._settle_thread(ctx.tid)
        ctx.last_fence_waited = waited
        ctx.now += self.params.fence_base
        self._counts["fences"] += 1
        if self.obs is not None:
            self.obs.emit(
                ctx.now, "timing", "fence", track=f"t{ctx.tid}", waited=waited
            )

    # ------------------------------------------------------------ steady state
    def persist_all(self) -> None:
        """Declare the current state fully persisted (benchmark setup aid).

        Copies every architectural value into the persistence domain,
        clears all dirty bits, and sets every resident line's skip bit
        (with Skip It enabled).  Benchmarks call this after prefilling so
        each configuration starts from the same warm, persisted state
        instead of measuring the prefill's writeback transient.
        """
        # superseded: everything lands right now
        self.in_flight.clear()
        self._in_flight_of.clear()
        self.persisted.update(self.arch)
        for _, rec in self.l2.items():
            rec.values.update(
                {w: self.arch[w] for w in rec.values if w in self.arch}
            )
            rec.dirty = False
        if self.l3 is not None:
            for _, l3rec in self.l3.items():
                if l3rec.dirty:
                    self.persisted.update(l3rec.values)
                    l3rec.dirty = False
        for l1 in self.l1s:
            for line, l1rec in l1.items():
                if l1rec.dirty:
                    l2rec = self.l2.get(line)
                    if l2rec is not None:
                        l2rec.values.update(self._arch_line(line))
                l1rec.dirty = False
                l1rec.skip = self.params.skip_it

    # ---------------------------------------------------------------- crash
    def crash(self, at: Optional[int] = None) -> Dict[int, int]:
        """Drop all cache state; return what survived (the persisted words).

        In-flight writebacks that completed by *at* (or by their issuing
        thread's clock when *at* is ``None``) made it to DRAM; younger
        ones are lost with the caches — the mid-writeback crash window
        the injector (:mod:`repro.verify.injector`) enumerates.
        """
        for values in self._landed(at):
            self.persisted.update(values)
        self.in_flight = []
        self._in_flight_of = {}
        p = self.params
        self.l1s = [LineCache(p.l1) for _ in range(p.num_threads)]
        self.l2 = LineCache(p.l2)
        if self.l3 is not None:
            self.l3 = LineCache(p.l3)
        self.arch = dict(self.persisted)
        for ctx in self.threads:
            ctx.outstanding.clear()
        self._counts["crashes"] += 1
        return dict(self.persisted)
