"""The benchmark's own tests: determinism, output checks, span accounting.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import random

import pytest

import run as bench
from spans import ROOT, SpanRecorder
from suite import WORKLOADS, SocCbo


@pytest.fixture(scope="module")
def default_units():
    """Two units per workload on the default seed, from one set-up."""
    units = {}
    for name, cls in WORKLOADS.items():
        workload = cls(bench.DEFAULT_SEED)
        built = workload.build()
        units[name] = [workload.run(workload.fresh(built)) for _ in range(2)]
    return units


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sim_metrics_repeat_for_a_fixed_seed(name, default_units):
    first, again = default_units[name]
    assert first.failed == 0
    assert first.sim == again.sim
    assert first.digest == again.digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_held_out_seed_passes_every_output_check(name, default_units):
    workload = WORKLOADS[name](bench.HELDOUT_SEED)
    result = workload.run(workload.fresh(workload.build()))
    assert result.attempted > 0
    assert result.failed == 0
    # the seed changes the inputs, not just the label
    assert result.digest != default_units[name][0].digest


@pytest.mark.parametrize("name", ["soc_cbo", "serve_openloop", "verify_crash"])
def test_layer_self_times_add_up_to_the_traced_unit(name):
    workload = WORKLOADS[name](bench.DEFAULT_SEED)
    built = workload.build()
    untraced = workload.run(workload.fresh(built))
    traced = bench.traced_run(workload, built)
    recorder = traced.unit
    assert traced.result.digest == untraced.digest  # tracing moves no simulated counter
    listed = {
        metric[: -len(".self_s")]
        for metric in bench.PER_LAYER
        if metric.endswith(".self_s") and not metric.startswith("setup.")
    } - {"workloads.driver"}
    # every wrapped entry point has a row in the per-layer table ...
    assert set(recorder.self_s) - {ROOT, "workloads.step"} <= listed
    layers = bench.layer_metrics([(traced.cpu_s, 0.0, untraced)], traced)
    total = sum(layers[f"{layer}.self_s"] for layer in listed)
    total += layers["workloads.driver.self_s"]
    # ... so the table's self times sum to the traced unit, exactly
    assert total == pytest.approx(recorder.total_s[ROOT], rel=1e-9)


def test_self_time_excludes_children():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    recorder = SpanRecorder()
    recorder.clock = lambda: next(ticks)
    outer = recorder.enter("outer")
    inner = recorder.enter("inner")
    recorder.exit(inner)
    recorder.exit(outer)
    assert recorder.self_s["inner"] == 2.0
    assert recorder.self_s["outer"] == 8.0
    assert recorder.spans[0][2] == outer[0]  # the inner span's parent


def test_steps_open_a_new_op_id():
    recorder = SpanRecorder()
    recorder.step(lambda: recorder.span("leaf", lambda: None))
    recorder.step(lambda: recorder.span("leaf", lambda: None))
    ops = {name: [] for name in ("leaf", "workloads.step")}
    for _, name, _, _, _, op in recorder.spans:
        ops[name].append(op)
    assert ops["leaf"] == ops["workloads.step"] == [1, 2]


def test_wrapping_is_undone():
    from repro.timing.system import TimingSystem

    original = TimingSystem.load
    recorder = SpanRecorder()
    recorder.install()
    assert TimingSystem.load is not original
    recorder.uninstall()
    assert TimingSystem.load is original


@pytest.mark.xfail(raises=RuntimeError, strict=True, reason=(
    "L2 rejects the ProbeAck that follows an eviction Release crossing its "
    "probe; soc_cbo keeps cross-core reads out of L1-exceeding rounds until "
    "this is fixed"
))
def test_cross_core_reads_with_an_l1_exceeding_reader():
    from repro.uarch.cpu import Instr
    from repro.uarch.soc import Soc

    rng = random.Random(0)
    soc = Soc(SocCbo(0).params)
    own = [[], []]
    reads = [[], []]
    for core in range(2):
        base = SocCbo.REGION_BASE + core * SocCbo.CORE_STRIDE
        lines = [base + offset for offset in range(0, 32 * 1024, 64)]
        rng.shuffle(lines)
        for line in lines:
            value = rng.getrandbits(62) + 1
            own[core] += [Instr.store(line, value), Instr.flush(line), Instr.fence(), Instr.load(line)]
            if rng.random() < 0.25:
                reads[1 - core].append(Instr.load(line))
    soc.run_programs([own[0] + reads[0], own[1] + reads[1]])
    soc.drain()
