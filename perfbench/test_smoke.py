"""Smoke test of the benchmark itself, at the tiny config.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from ris_nfloc import harness, labeling, tdoa  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, identical, trial_seed, work_sizes  # noqa: E402

SEED = 7


def _module_bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "ris_nfloc" or name.startswith("ris_nfloc.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def _tiny_trials(count: int = 2):
    workload = WORKLOADS["tiny"]
    cfg = workload.config(SEED)
    return [
        (pcfg, trial_seed(SEED, i, t))
        for t in range(count)
        for pcfg, i in workload.points(cfg)
    ]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, kind):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny",
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    record = json.loads(lines[-1])
    assert record["correct"] is True
    assert record["failed"] == 0
    assert record["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert list(record["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert record["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
            for line in lines
        ), m["name"]


def test_traced_results_equal_untraced_and_wrappers_are_removed():
    trials = _tiny_trials()
    plain = [harness.run_trial(cfg, s) for cfg, s in trials]
    before = _module_bindings()
    solve_position = tdoa.solve_position
    with Tracer() as tracer:
        # rebound wherever the program imported it, not only where defined
        assert labeling.solve_position is not solve_position
        assert harness.solve_position is not solve_position
        traced = [harness.run_trial(cfg, s) for cfg, s in trials]
    assert not tracer.installed
    assert _module_bindings() == before
    assert tracer.trials == len(trials)
    assert all(identical(a, b) for a, b in zip(plain, traced))


def test_wrappers_are_removed_when_a_trial_raises():
    before = _module_bindings()
    cfg, seed = _tiny_trials(1)[0]
    bad = replace(cfg, oversampling=0)
    with pytest.raises(ValueError):
        with Tracer():
            harness.run_trial(bad, seed)
    assert _module_bindings() == before


def test_self_times_add_up_to_the_traced_trial_time():
    trials = _tiny_trials()
    with Tracer() as tracer:
        for cfg, s in trials:
            harness.run_trial(cfg, s)
    metrics = tracer.per_trial()
    self_ms = [v for k, v in metrics.items() if k.endswith(".self_ms")]
    assert len(self_ms) == sum(len(names) for names in TRACED.values())
    assert sum(self_ms) == pytest.approx(metrics["trace.trial_ms"], rel=1e-9)
    assert all(v >= 0.0 for v in self_ms)
    cells = [work_sizes(cfg)["fft_grid_cells"] for cfg, _ in trials]
    assert metrics["spectrum.computed_cells"] == pytest.approx(sum(cells) / len(cells))
    assert metrics["psp.assign.calls"] == 1.0
