"""Unit tests for the functional-with-timing memory system."""

from repro.sim.config import CacheGeometry
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem
from repro.tilelink.permissions import Perm


def mk(threads=2, **kwargs):
    return TimingSystem(TimingParams(num_threads=threads, **kwargs))


class TestBasicAccesses:
    def test_load_of_unwritten_is_zero(self):
        system = mk()
        assert system.threads[0].load(0x40) == 0

    def test_store_load_roundtrip(self):
        system = mk()
        t = system.threads[0]
        t.store(0x40, 7)
        assert t.load(0x40) == 7

    def test_l1_hit_faster_than_miss(self):
        system = mk()
        t = system.threads[0]
        t.load(0x40)
        cold = t.now
        t.load(0x40)
        assert t.now - cold == system.params.l1_hit

    def test_mem_fill_slowest(self):
        system = mk()
        t = system.threads[0]
        t.load(0x40)
        assert t.now >= system.params.mem_access

    def test_l2_hit_cost_between(self):
        system = mk()
        a, b = system.threads
        a.load(0x40)  # into L2 (and a's L1)
        start = b.now
        b.load(0x40)
        assert b.now - start == system.params.l2_hit

    def test_cas_success_and_failure(self):
        system = mk()
        t = system.threads[0]
        t.store(0x40, 1)
        assert t.cas(0x40, 1, 2)
        assert not t.cas(0x40, 99, 3)
        assert t.load(0x40) == 2


class TestCoherence:
    def test_single_writer(self):
        system = mk()
        a, b = system.threads
        a.store(0x40, 1)
        b.store(0x40, 2)
        rec_a = system.l1s[0].get(0x40)
        rec_b = system.l1s[1].get(0x40)
        assert rec_a is None  # revoked
        assert rec_b.perm is Perm.TRUNK

    def test_reader_downgrades_writer(self):
        system = mk()
        a, b = system.threads
        a.store(0x40, 5)
        assert b.load(0x40) == 5
        assert system.l1s[0].get(0x40).perm is Perm.BRANCH
        assert system.l2.get(0x40).dirty  # merged dirty data

    def test_probe_costs_extra(self):
        system = mk()
        a, b = system.threads
        a.store(0x40, 5)
        start = b.now
        b.load(0x40)
        assert b.now - start == system.params.l2_hit + system.params.probe_extra

    def test_upgrade_path(self):
        system = mk()
        a, b = system.threads
        a.load(0x40)
        b.load(0x40)  # both BRANCH
        a.store(0x40, 1)
        assert system.l1s[0].get(0x40).perm is Perm.TRUNK
        assert system.l1s[1].get(0x40) is None


class TestSkipBit:
    def test_fill_from_clean_l2_sets_skip(self):
        system = mk()
        t = system.threads[0]
        t.load(0x40)
        assert system.l1s[0].get(0x40).skip

    def test_fill_from_dirty_l2_leaves_skip_unset(self):
        system = mk()
        a, b = system.threads
        a.store(0x40, 1)
        b.load(0x40)  # L2 now dirty
        system.l1s[1].remove(0x40)
        system.l2.get(0x40).directory.downgrade(1, Perm.NONE)
        b.load(0x40)  # refill from dirty L2 -> GrantDataDirty
        assert not system.l1s[1].get(0x40).skip

    def test_store_clears_skip(self):
        system = mk()
        t = system.threads[0]
        t.load(0x40)
        t.store(0x40, 1)
        rec = system.l1s[0].get(0x40)
        assert rec.dirty and not rec.skip

    def test_skip_disabled_config(self):
        system = mk(skip_it=False)
        t = system.threads[0]
        t.load(0x40)
        assert not system.l1s[0].get(0x40).skip


class TestWritebacks:
    def test_clean_persists_prior_store(self):
        system = mk()
        t = system.threads[0]
        t.store(0x40, 9)
        t.clean(0x40)
        t.fence()
        assert system.persisted[0x40] == 9

    def test_flush_invalidates_everywhere(self):
        system = mk()
        t = system.threads[0]
        t.store(0x40, 9)
        t.flush(0x40)
        assert system.l1s[0].get(0x40) is None
        assert system.l2.get(0x40) is None
        # the DRAM write is still in flight until the fence retires it
        t.fence()
        assert system.persisted[0x40] == 9

    def test_writeback_does_not_cover_later_stores(self):
        """§4: a writeback snapshots only the writes that precede it."""
        system = mk()
        t = system.threads[0]
        t.store(0x40, 1)
        t.clean(0x40)
        t.store(0x40, 2)
        t.fence()
        assert system.persisted[0x40] == 1
        assert system.arch[0x40] == 2

    def test_skip_it_drops_redundant_clean(self):
        system = mk()
        t = system.threads[0]
        t.store(0x40, 1)
        t.clean(0x40)
        before = t.now
        t.clean(0x40)  # resident, clean, skip set after the first clean
        assert t.now - before == system.params.cbo_skip
        assert system.stats.get("cbo_skipped") == 1

    def test_fence_waits_for_async_writebacks(self):
        system = mk()
        t = system.threads[0]
        t.store(0x40, 1)
        issue_done = t.now + system.params.cbo_issue
        t.clean(0x40)
        t.fence()
        assert t.now >= issue_done + system.params.cbo_dram_writeback

    def test_fence_with_nothing_outstanding_is_cheap(self):
        system = mk()
        t = system.threads[0]
        t.fence()
        assert t.now == system.params.fence_base

    def test_fshr_limit_serializes(self):
        system = mk()
        t = system.threads[0]
        n = system.params.num_fshrs + 4
        for i in range(n):
            t.store(0x1000 + i * 64, i)
        for i in range(n):
            t.clean(0x1000 + i * 64)
        t.fence()
        # with more writebacks than FSHRs the last ones queue behind the
        # first completions: the fence waits longer than one latency
        assert t.now > system.params.cbo_dram_writeback + system.params.fence_base

    def test_cbo_on_remote_dirty_line(self):
        system = mk()
        a, b = system.threads
        a.store(0x40, 3)
        b.flush(0x40)
        b.fence()
        assert system.persisted[0x40] == 3
        assert system.l1s[0].get(0x40) is None  # probe revoked the owner


class TestEvictionsAndCrash:
    def test_l1_eviction_dirties_l2(self):
        params = TimingParams(
            num_threads=1, l1=CacheGeometry(size_bytes=256, ways=2)
        )
        system = TimingSystem(params)
        t = system.threads[0]
        stride = params.l1.num_sets * 64
        for i in range(4):
            t.store(0x10000 + i * stride, i + 1)
        assert system.stats.get("l1_evict_writebacks") >= 1
        # evicted data still readable via L2
        assert t.load(0x10000) == 1

    def test_l2_eviction_persists_dirty_data(self):
        params = TimingParams(
            num_threads=1,
            l1=CacheGeometry(size_bytes=128, ways=2),
            l2=CacheGeometry(size_bytes=256, ways=2),
        )
        system = TimingSystem(params)
        t = system.threads[0]
        stride = params.l2.num_sets * 64
        for i in range(6):
            t.store(0x20000 + i * stride, i + 1)
        assert system.stats.get("l2_evict_writebacks") >= 1
        # inclusivity maintained: nothing cached in L1 that is absent in L2
        for line, _ in system.l1s[0].items():
            assert system.l2.get(line) is not None

    def test_crash_drops_unpersisted(self):
        system = mk()
        t = system.threads[0]
        t.store(0x40, 1)
        t.clean(0x40)
        t.fence()
        t.store(0x80, 2)  # never persisted
        survived = system.crash()
        assert survived.get(0x40) == 1
        assert 0x80 not in survived
        assert system.l1s[0].get(0x40) is None  # caches empty

    def test_persist_all_marks_state(self):
        system = mk()
        t = system.threads[0]
        t.store(0x40, 1)
        system.persist_all()
        assert system.persisted[0x40] == 1
        rec = system.l1s[0].get(0x40)
        assert not rec.dirty and rec.skip


class TestPickle:
    """Benchmarks pickle a prefilled system once and restart each run
    from a copy; the slotted records must survive the round trip."""

    @staticmethod
    def _traffic(system, rounds):
        for i in range(rounds):
            for t in system.threads:
                address = 0x1000 + 64 * ((i * 7 + t.tid * 3) % 40) + 8 * (i % 8)
                t.store(address, i + 1)
                t.load(address + 64 * 5)
                if i % 3 == 0:
                    t.clean(address)
                elif i % 3 == 1:
                    t.flush(address)
                if i % 11 == 10:
                    t.fence()

    def test_warmed_system_round_trips(self):
        import pickle

        system = mk(
            l1=CacheGeometry(size_bytes=512, ways=2),
            l2=CacheGeometry(size_bytes=1024, ways=4),
        )
        self._traffic(system, 60)
        assert system.in_flight  # writebacks still travelling
        blob = pickle.dumps(system, protocol=pickle.HIGHEST_PROTOCOL)
        # records travel as constructor calls, not as one field-name dict
        # per slotted instance
        assert b"sharers" not in blob
        l1rec = next(rec for _, rec in system.l1s[0].items())
        assert b"dirty" not in pickle.dumps(l1rec)
        copy = pickle.loads(blob)
        # the line index shares its records with the arrival list
        ids = {id(wb) for wb in copy.in_flight}
        assert {id(wb) for wbs in copy._in_flight_of.values() for wb in wbs} == ids
        for line, rec in system.l1s[0].items():
            assert copy.l1s[0].get(line) == rec
            assert copy.l1s[0].get(line).perm is rec.perm
        for run in (system, copy):
            self._traffic(run, 40)
        assert copy.stats.as_dict() == system.stats.as_dict()
        assert [t.now for t in copy.threads] == [t.now for t in system.threads]
        assert copy.arch == system.arch
        assert copy.persisted_image() == system.persisted_image()
        assert copy.wb_lines == system.wb_lines
