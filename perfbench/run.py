"""Repository benchmark: one workload per run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload soc_cbo --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

A run generates the workload's inputs from ``--seed``, times its set-up
three times (median), and after each set-up runs identical units of
simulated work, ``--seconds`` of wall time of them in all, checking
every unit's output.  With ``--trace 0`` the last line carries the end-to-end metrics;
with ``--trace 1`` the run adds one traced unit and the last line carries
the per-layer metrics.  The lines before it are for people: every
end-to-end metric by name and unit, the counter digest, and a
pure-Python calibration time that tells host drift from program change.
``--workload all`` runs each workload in turn, in its own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: the seed benchmark claims are developed on, and the one kept back to
#: confirm them (choosing-metrics guide §6.3)
DEFAULT_SEED = 1
HELDOUT_SEED = 20261017

#: set-up repetitions per run (the median is reported)
SETUP_REPEATS = 3

#: end-to-end metrics, with their units, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "completed_share": "ratio",
}

#: simulated end-to-end figures printed on every run (n/a where a
#: workload does not produce one), with their units
SIM_FIGURES = {
    "sim_mops": "Mops",
    "sim_wb_cycles": "cycles",
    "sim_ack_p50_cycles": "cycles",
    "sim_ack_p99_cycles": "cycles",
}

_TIMED = ("calls", "self_s")
#: layers whose share of one traced set-up is reported
SETUP_LAYERS = ("timing", "persist", "store")
#: per-layer metrics of the traced run, in BENCHMARK.json order
PER_LAYER = (
    ["sim.run_until.calls", "sim.run_until.self_s", "sim.cycles"]
    + [f"{n}.tick.self_s" for n in ("uarch.cpu", "uarch.l1", "uarch.l2", "uarch.probe_unit", "core.flush_unit", "mem.dram")]
    + ["uarch.l1.mshr_full_nack", "core.flush_unit.nack_ratio", "core.flush_unit.skip_ratio",
       "uarch.l2.root_writebacks", "uarch.l2.coherence_probes"]
    + [f"timing.{m}.{k}" for m in ("load", "store", "cas", "cbo", "fence") for k in _TIMED]
    + ["timing.persisted_image.self_s",
       "timing.l1_hit_ratio", "timing.mem_fills", "timing.cbo_skip_ratio", "timing.fences"]
    + [f"persist.view.{m}.{k}" for m in ("read", "write", "cas", "clean", "flush") for k in _TIMED]
    + ["persist.flushopt.self_s"]
    + [f"persist.structure.{m}.self_s" for m in ("insert", "delete", "contains")]
    + ["persist.flush_requests"]
    + [f"store.{m}.{k}" for m in ("put", "delete", "get", "seal", "checkpoint", "txn_commit", "recover") for k in _TIMED]
    + ["store.fences", "store.records_per_fence", "store.wal.tail_cas_failures", "store.seals_deferred"]
    + [f"serve.{m}.{k}" for m in ("put", "get", "snapshot_get", "harvest") for k in _TIMED]
    + ["serve.shed", "serve.admitted", "serve.snapshot_fallback_ratio", "serve.backpressure_engagements"]
    + ["workloads.step.host_us.p50", "workloads.step.host_us.p99", "workloads.driver.self_s"]
    + [f"verify.{m}.{k}" for m in ("crash_image", "oracle.check") for k in _TIMED]
    + ["verify.crash_points"]
    + [f"setup.{layer}.self_s" for layer in SETUP_LAYERS]
    + ["setup.timing.persist_all.self_s", "setup.driver.self_s"]
    + ["bench.trace_overhead_s"]
    + list(SIM_FIGURES)
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    if "ratio" in name or name == "store.records_per_fence":
        return "ratio"
    if "host_us" in name:
        return "us"
    if name in SIM_FIGURES:
        return SIM_FIGURES[name]
    if name == "sim.cycles":
        return "cycles"
    return "count"


def calibrate(repeats: int = 3) -> float:
    """CPU seconds of a fixed pure-Python loop (median of *repeats*)."""
    samples = []
    for _ in range(repeats):
        start = time.process_time()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        samples.append(time.process_time() - start)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args, names) -> int:
    """Each workload in its own child process, one after the other."""
    status = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        print()
        status = status or child.returncode
    return status


@dataclass
class Traced:
    """The traced unit and the separately traced set-up."""

    cpu_s: float  # process CPU of the traced unit
    result: object  # its UnitResult
    unit: SpanRecorder
    setup: SpanRecorder


def measure(workload, seconds: float, trace: bool):
    """Set up, then run units, interleaved over the whole run.

    Each of the ``SETUP_REPEATS`` set-ups is followed by its share of the
    *seconds* of measured units, so both medians sample the host across
    the run's full length instead of one stretch of it.
    """
    setup, units = [], []
    spent = 0.0  # wall seconds spent running units
    for rep in range(1, SETUP_REPEATS + 1):
        built = None
        gc.collect()
        start = time.process_time()
        built = workload.build()
        setup.append(time.process_time() - start)
        first_of_rep = True
        while first_of_rep or spent < seconds * rep / SETUP_REPEATS:
            first_of_rep = False
            began = time.perf_counter()
            state = workload.fresh(built)
            wall, cpu = time.perf_counter(), time.process_time()
            result = workload.run(state)
            cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
            # keep the first unit's result and later units' digests only, and
            # free the spent state before the next one is built, so peak RSS
            # is one state's, whatever the number of units
            units.append((cpu, wall, result if not units else result.digest))
            del state, result
            gc.collect()
            spent += time.perf_counter() - began
    traced = traced_run(workload, built) if trace else None
    return setup, units, traced


def traced_run(workload, built) -> Traced:
    """One unit, then one set-up, with every layer entry point wrapped."""
    unit = SpanRecorder()
    state = workload.fresh(built)
    unit.install()
    try:
        cpu = time.process_time()
        result = unit.span(spans.ROOT, workload.run, state, unit.step)
        cpu = time.process_time() - cpu
    finally:
        unit.uninstall()
    setup = SpanRecorder(keep=0)
    setup.install()
    try:
        setup.span(spans.SETUP, workload.build)
    finally:
        setup.uninstall()
    return Traced(cpu, result, unit, setup)


def layer_metrics(units, traced: Traced) -> dict:
    recorder = traced.unit
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name in PER_LAYER:
        for suffix, table in ((".calls", recorder.calls), (".self_s", recorder.self_s)):
            if name.endswith(suffix):
                metrics[name] = table.get(name[: -len(suffix)], 0)
    metrics.update(traced.result.layers)
    for name in SIM_FIGURES:
        metrics[name] = traced.result.sim.get(name, 0.0)
    metrics["workloads.step.host_us.p50"] = recorder.step_percentile_us(0.50)
    metrics["workloads.step.host_us.p99"] = recorder.step_percentile_us(0.99)
    metrics["workloads.driver.self_s"] = (
        recorder.self_s.get(spans.ROOT, 0.0) + recorder.self_s.get(spans.STEP, 0.0)
    )
    metrics["bench.trace_overhead_s"] = traced.cpu_s - statistics.median(u[0] for u in units)
    # the traced set-up by layer; what no layer span covers is the driver's
    setup = traced.setup
    for layer in SETUP_LAYERS:
        metrics[f"setup.{layer}.self_s"] = sum(
            value for name, value in setup.self_s.items() if name.startswith(layer + ".")
        )
    metrics["setup.timing.persist_all.self_s"] = setup.self_s.get("timing.persist_all", 0.0)
    metrics["setup.driver.self_s"] = setup.total_s.get(spans.SETUP, 0.0) - sum(
        metrics[f"setup.{layer}.self_s"] for layer in SETUP_LAYERS
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        from suite import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    imports_s = time.process_time()  # interpreter start and imports
    calibration_s = calibrate()

    workload = WORKLOADS[args.workload](args.seed)
    setup, units, traced = measure(workload, args.seconds, bool(args.trace))

    first = units[0][2]
    digests = {first.digest} | {u[2] for u in units[1:]}
    mismatches = []
    if len(digests) != 1:
        mismatches.append("units of one run disagree on simulated counters")
    if traced is not None and traced.result.digest != first.digest:
        mismatches.append("traced unit differs from untraced units in simulated counters")
    failed = first.failed + len(mismatches)
    attempted = first.attempted
    setup_s = imports_s + statistics.median(setup)
    run_s = statistics.median(u[0] for u in units) * first.work_scale
    wall_s = statistics.median(u[1] for u in units)
    failed_all = first.failed + first.shed

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  calibration_s      {calibration_s:.4f} s   (fixed pure-Python loop; informational)")
    print(f"  setup_s            {setup_s:.4f} s   (imports {imports_s:.4f} + median of "
          f"{len(setup)} builds {statistics.median(setup):.4f})")
    per = "" if first.work_scale == 1 else f" x {first.work_scale:.4f} work scale"
    print(f"  run_s              {run_s:.4f} s   (median CPU of {len(units)} units{per}; "
          f"wall {wall_s:.4f} s)")
    print(f"  peak_rss_mb        {peak_rss_mb():.1f} MiB")
    for name, unit in SIM_FIGURES.items():
        value = f"{first.sim[name]:.6g} {unit}" if name in first.sim else "n/a"
        print(f"  {name:<18} {value}")
    print(f"  failed_share       {failed_all}/{attempted} = {failed_all / attempted:.4f} "
          f"(shed {first.shed}, output-check failures {first.failed})")
    for note in first.notes:
        print(f"  note: {note}")
    print(f"  digest             {first.digest}")
    for problem in mismatches:
        print(f"  ERROR: {problem}")

    if traced is None:
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "peak_rss_mb": peak_rss_mb(),
            "completed_share": (attempted - failed_all) / attempted,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    else:
        layers = layer_metrics(units, traced)
        recorder = traced.unit
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        recorder.dump(path)
        print(f"  traced unit: {traced.cpu_s:.4f} s CPU, {sum(recorder.calls.values())} spans "
              f"({len(recorder.spans)} kept in {path.relative_to(ROOT)})")
        for name in PER_LAYER:
            print(f"    {name:<36} {layers[name]:.6g} {layer_unit(name)}")
        metrics = {n: {"value": layers[n], "unit": layer_unit(n)} for n in PER_LAYER}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
