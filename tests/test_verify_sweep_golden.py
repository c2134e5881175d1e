"""Golden verdicts of the store-level crash sweeps.

``golden/crash_sweeps_seed0.json`` pins, for seed 0, every sweep's
``(config, boundaries, crash_points, recoveries, violations)`` and the
violation strings each seeded store/txn/serve/range mutant produces.
It was recorded before crash images were judged through the recovery
memo and the one-pass window images, so any change to how crash points
are enumerated or judged shows up here as a diff.  Regenerate it only
for a deliberate verdict change:
``PYTHONPATH=src python tests/test_verify_sweep_golden.py``.
"""

import json
import pathlib

import pytest

from repro.verify.serve import ServeCrashSweep, run_serve_sweep
from repro.verify.store import (
    SharedStoreCrashSweep,
    run_ranged_store_sweep,
    run_shared_store_sweep,
    run_store_sweep,
)
from repro.verify.txn import SharedTxnCrashSweep, run_txn_sweep

GOLDEN = pathlib.Path(__file__).parent / "golden" / "crash_sweeps_seed0.json"

SWEEPS = {
    "shared_store": run_shared_store_sweep,
    "txn": run_txn_sweep,
    "ranged_store": run_ranged_store_sweep,
    "store": run_store_sweep,
    "serve": run_serve_sweep,
}


def _mutant_sweeps():
    """Label -> sweep for each seeded mutant, in the configurations the
    mutant-kill tests use."""
    sweeps = {}
    for opt in ("plain", "skipit"):
        for m in ("store_ack_before_fence", "store_replay_trusts_crc"):
            sweeps[f"store/{m}/{opt}"] = SharedStoreCrashSweep(
                opt, group_commit=8, threads=1, ops=60, mutants=(m,)
            )
        sweeps[f"shared/shared_ack_before_fence/{opt}"] = SharedStoreCrashSweep(
            opt, group_commit=4, threads=3, ops=60,
            mutants=("shared_ack_before_fence",),
        )
        for m in ("stale_snapshot_read", "shed_acked_op"):
            sweeps[f"serve/{m}/{opt}"] = ServeCrashSweep(
                opt, group_commit=8, mutants=(m,)
            )
        for m in ("txn_partial_replay", "txn_commit_before_fence"):
            sweeps[f"txn/{m}/{opt}"] = SharedTxnCrashSweep(
                opt, group_commit=8, threads=1, mutants=(m,)
            )
            sweeps[f"txn-shared/{m}/{opt}"] = SharedTxnCrashSweep(
                opt, group_commit=8, threads=3, mutants=(m,)
            )
    sweeps["ranged/range_skips_unreached_lines/skipit"] = SharedStoreCrashSweep(
        "skipit", group_commit=8, threads=1, ranged_seal=True,
        mutants=("range_skips_unreached_lines",),
    )
    return sweeps


MUTANT_SWEEPS = _mutant_sweeps()


def _row(config, report):
    return [
        config,
        report.boundaries,
        report.crash_points,
        report.recoveries,
        [str(v) for v in report.violations],
    ]


def _sweep_rows(label):
    return [_row(config, report) for config, report in SWEEPS[label](seed=0)]


def _mutant_row(label):
    report = MUTANT_SWEEPS[label].run()
    return _row(report.config, report)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label", sorted(SWEEPS))
def test_sweep_matches_golden(golden, label):
    assert _sweep_rows(label) == golden["sweeps"][label]


@pytest.mark.parametrize("label", sorted(MUTANT_SWEEPS))
def test_mutant_violations_match_golden(golden, label):
    row = _mutant_row(label)
    assert row[4], f"{label} must turn its sweep red"
    assert row == golden["mutants"][label]


if __name__ == "__main__":  # pragma: no cover - regenerates the golden
    document = {
        "sweeps": {label: _sweep_rows(label) for label in SWEEPS},
        "mutants": {label: _mutant_row(label) for label in MUTANT_SWEEPS},
    }
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True))
