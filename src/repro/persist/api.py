"""Per-thread persistent-memory view.

A :class:`PMemView` binds a thread context to a persistence policy and a
writeback filter.  Data structures perform all shared-memory traffic
through it, tagging accesses as traversal (default) or *critical* (the
accesses the operation's durability hinges on); the policy maps tags to
flushes, the optimizer decides which flushes are redundant, and the
timing system charges for everything.
"""

from __future__ import annotations

from repro.persist.flushopt import FlushOptimizer
from repro.persist.policies import PersistencePolicy
from repro.timing.system import ThreadCtx


class PMemView:
    """What a persistent data structure sees of the memory system.

    Every access is one hop where it can be.  When the view is built it
    records which memory hooks the optimizer's class overrides; an
    inherited pass-through hook is skipped and the view calls the timing
    system itself.  The policy's flush answers, which depend only on the
    access tag, are looked up once for both tags.
    """

    def __init__(
        self,
        ctx: ThreadCtx,
        policy: PersistencePolicy,
        optimizer: FlushOptimizer,
    ) -> None:
        self.ctx = ctx
        self.policy = policy
        self.optimizer = optimizer
        self._did_update = False
        self.flush_requests = 0
        self._system = ctx.system
        cls = type(optimizer)
        self._own_read = cls.read is not FlushOptimizer.read
        self._own_write = cls.write is not FlushOptimizer.write
        self._own_cas = cls.cas is not FlushOptimizer.cas
        self._own_flush = cls.flush is not FlushOptimizer.flush
        self._own_clean = cls.clean is not FlushOptimizer.clean
        self._flush_read = policy.flush_on_read(False)
        self._flush_critical_read = policy.flush_on_read(True)
        self._flush_write = policy.flush_on_write(False)
        self._flush_critical_write = policy.flush_on_write(True)

    # ------------------------------------------------------------ accesses
    def read(self, address: int, critical: bool = False) -> int:
        if self._own_read:
            value = self.optimizer.read(self.ctx, address)
        else:
            value = self._system.load(self.ctx, address)
        if self._flush_critical_read if critical else self._flush_read:
            self.flush(address)
        return value

    def write(self, address: int, value: int, critical: bool = False) -> None:
        if self._own_write:
            self.optimizer.write(self.ctx, address, value)
        else:
            self._system.store(self.ctx, address, value)
        self._did_update = True
        if self._flush_critical_write if critical else self._flush_write:
            self.flush(address)

    def cas(
        self, address: int, expected: int, new: int, critical: bool = True
    ) -> bool:
        if self._own_cas:
            ok = self.optimizer.cas(self.ctx, address, expected, new)
        else:
            ok = self._system.cas(self.ctx, address, expected, new)
        if ok:
            self._did_update = True
            if self._flush_critical_write if critical else self._flush_write:
                self.flush(address)
        return ok

    def flush(self, address: int) -> None:
        """Request a writeback; the optimizer may prove it redundant."""
        self.flush_requests += 1
        if self._own_flush:
            self.optimizer.flush(self.ctx, address)
        else:
            self._system.cbo(self.ctx, address, invalidate=True)

    def clean(self, address: int) -> None:
        """Request a non-invalidating writeback (CBO.CLEAN).

        Unlike :meth:`flush`, the line stays cache-resident — the right
        primitive for hot metadata such as a log tail, where the next
        operation re-reads or re-writes the same line and (with Skip It)
        redundant cleans of the still-persisted line are dropped at the
        L1.  Goes through the same optimizer filter as :meth:`flush`.
        """
        self.flush_requests += 1
        if self._own_clean:
            self.optimizer.clean(self.ctx, address)
        else:
            self._system.cbo(self.ctx, address, invalidate=False)

    def clean_range(self, address: int, length: int) -> None:
        """Request one ranged writeback (CBO.RANGE.CLEAN) over a byte span.

        A single instruction — and a single flush request — no matter how
        many lines the span covers; the hardware sweeps them with the
        in-sweep Skip It filter.  Software filters may still carve the
        span into contiguous sub-ranges of not-provably-persisted lines.
        """
        self.flush_requests += 1
        self.optimizer.clean_range(self.ctx, address, length)

    # ----------------------------------------------------- operation frame
    def op_begin(self) -> None:
        self._did_update = False

    def op_end(self) -> None:
        if self.policy.fence_on_op_end(self._did_update):
            self._system.fence(self.ctx)
