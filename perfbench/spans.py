"""Span recorder for the traced run, wrapping each layer's public entry points.

The recorder patches methods and functions of the program from here, for
the duration of one traced unit, and restores them afterwards.  Each
wrapped call becomes a span (name, start, end, parent, op id); a span's
self time is its duration minus the time covered by its child spans.
Spans of one scheduled operation share an op id, opened by the
``workloads.step`` span the workload driver wraps around each operation.

Aggregates (calls and self time per name) cover every span; the span
records themselves are kept in memory up to ``keep`` and written as JSON
when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

ROOT = "bench.unit"  # one traced unit of measured work
SETUP = "bench.setup"  # one traced set-up
STEP = "workloads.step"  # one scheduled operation


def _targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped entry point."""
    # imported here, not at module load: the caller puts the program on the
    # path first
    from repro.core.flush_unit import FlushUnit
    from repro.mem.dram import DramModel
    from repro.persist.api import PMemView
    from repro.persist.flushopt import FlushOptimizer
    from repro.persist.structures import STRUCTURES
    from repro.serve.tier import ServeTier
    from repro.sim.engine import Engine
    from repro.store.shared import EpochSealer, SharedLogStore
    from repro.store.txn import Transaction
    from repro.timing.system import TimingSystem
    from repro.uarch.cpu import Core
    from repro.uarch.l1 import L1DataCache
    from repro.uarch.l2 import InclusiveL2Cache
    from repro.uarch.probe_unit import ProbeUnit
    from repro.verify.store import StoreOracle

    targets = [
        (Engine, "run_until", "sim.run_until"),
        (Core, "tick", "uarch.cpu.tick"),
        (L1DataCache, "tick", "uarch.l1.tick"),
        (InclusiveL2Cache, "tick", "uarch.l2.tick"),
        (ProbeUnit, "tick", "uarch.probe_unit.tick"),
        (FlushUnit, "tick", "core.flush_unit.tick"),
        (DramModel, "tick", "mem.dram.tick"),
    ]
    for method in ("load", "store", "cas", "cbo", "fence", "persist_all", "persisted_image"):
        targets.append((TimingSystem, method, f"timing.{method}"))
    for method in ("read", "write", "cas", "clean", "flush"):
        targets.append((PMemView, method, f"persist.view.{method}"))
    optimizers = [FlushOptimizer]
    while optimizers:
        cls = optimizers.pop()
        optimizers.extend(cls.__subclasses__())
        for method in ("read", "write", "cas", "flush", "clean", "clean_range"):
            if method in vars(cls):
                targets.append((cls, method, "persist.flushopt"))
    for cls in set(STRUCTURES.values()):
        for method in ("insert", "delete", "contains"):
            targets.append((cls, method, f"persist.structure.{method}"))
    for method in ("put", "delete", "get", "checkpoint"):
        targets.append((SharedLogStore, method, f"store.{method}"))
    targets.append((EpochSealer, "seal", "store.seal"))
    targets.append((Transaction, "commit", "store.txn_commit"))
    for method in ("put", "get", "snapshot_get", "harvest"):
        targets.append((ServeTier, method, f"serve.{method}"))
    targets.append((StoreOracle, "check", "verify.oracle.check"))
    # module-level functions are patched wherever they were imported
    import repro.store.recovery
    import repro.verify.injector

    for module, attr, name in (
        (repro.store.recovery, "recover", "store.recover"),
        (repro.verify.injector, "timing_crash_image", "verify.crash_image"),
    ):
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, attr, None) is original:
                targets.append((mod, attr, name))
    return targets


class SpanRecorder:
    """In-memory spans with exact self-time accounting."""

    def __init__(self, keep: int = 100_000) -> None:
        self.clock = time.perf_counter
        self.keep = keep
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)  # inclusive
        self.step_s: List[float] = []  # duration of every STEP span
        self.spans: List[Tuple[int, str, int, float, float, int]] = []
        self.dropped = 0
        self._stack: List[list] = []  # [id, name, parent, start, child_s, op]
        self._next_id = 0
        self._op = 0
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans
    def enter(self, name: str) -> list:
        stack = self._stack
        if name == STEP:
            self._op += 1
        frame = [
            self._next_id,
            name,
            stack[-1][0] if stack else -1,
            self.clock(),
            0.0,
            self._op,
        ]
        self._next_id += 1
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        sid, name, parent, start, child_s, op = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        self.total_s[name] += duration
        if stack:
            stack[-1][4] += duration
        if name == STEP:
            self.step_s.append(duration)
        if len(self.spans) < self.keep:
            self.spans.append((sid, name, parent, start, end, op))
        else:
            self.dropped += 1

    def span(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` inside a span called *name*."""
        frame = self.enter(name)
        try:
            return fn(*args)
        finally:
            self.exit(frame)

    def step(self, fn: Callable, *args):
        """One scheduled operation: a new op id for its spans."""
        return self.span(STEP, fn, *args)

    # ---------------------------------------------------------- patching
    def _wrap(self, name: str, fn: Callable) -> Callable:
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per recorder)."""
        if self._patches:
            return
        for owner, attr, name in _targets():
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----------------------------------------------------------- results
    def step_percentile_us(self, q: float) -> float:
        if not self.step_s:
            return 0.0
        ordered = sorted(self.step_s)
        return 1e6 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    def dump(self, path) -> None:
        """Write the kept spans and the aggregates as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "parent", "start_s", "end_s", "op"],
                    "spans": self.spans,
                    "dropped": self.dropped,
                    "calls": dict(self.calls),
                    "self_s": dict(self.self_s),
                },
                fh,
            )
