"""Benchmark workloads, trial seeds and output checks.

A workload is a config file under ``configs/`` plus an optional sweep.  Its
config fixes ``trials`` to the size of the accuracy sample per sweep point.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Workload:
    name: str
    config_file: str
    accuracy_trials: int  # per sweep point
    sweep: tuple | None = None  # (variable, values) for harness.sweep

    def config(self, seed: int):
        from ris_nfloc.config import load_config

        cfg = load_config(CONFIG_DIR / self.config_file)
        return replace(cfg, seed=seed, trials=self.accuracy_trials)

    def points(self, cfg) -> list[tuple[object, int]]:
        """(config, point index) pairs; the index keys the trial seeds."""
        if self.sweep is None:
            return [(cfg, 0)]
        from ris_nfloc.harness import apply_sweep_value

        variable, values = self.sweep
        return [
            (apply_sweep_value(cfg, variable, v), i) for i, v in enumerate(values)
        ]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", "desk.ini", accuracy_trials=300),
        Workload("full", "full.ini", accuracy_trials=150),
        Workload("sweep_L", "full.ini", accuracy_trials=30, sweep=("L", (32, 64))),
        # only for the benchmark's own smoke test
        Workload("tiny", "tiny.ini", accuracy_trials=4, sweep=("L", (8, 12))),
    )
}


def trial_seed(seed: int, point: int, t: int):
    """The seed ``harness.run_trials`` gives trial ``t`` of sweep point ``point``."""
    import numpy as np

    return np.random.SeedSequence(entropy=seed, spawn_key=(point, t))


def check_result(result, cfg) -> list[str]:
    """Ways in which one TrialResult is malformed (empty when well formed)."""
    problems = []
    diagonal = math.dist(cfg.room_min_m, cfg.room_max_m)
    for arm in ("proposed", "baseline"):
        err = getattr(result, f"error_{arm}")
        if not getattr(result, f"censored_{arm}"):
            if not (math.isfinite(err) and 0.0 <= err <= diagonal):
                problems.append(f"{arm} error {err!r} outside [0, {diagonal:.3f}] m")
        acc = getattr(result, f"label_acc_{arm}")
        if not 0.0 <= acc <= 1.0:
            problems.append(f"{arm} label accuracy {acc!r} outside [0, 1]")
    if not (math.isfinite(result.peb) and result.peb > 0.0):
        problems.append(f"peb {result.peb!r} not finite and positive")
    return problems


def identical(a, b) -> bool:
    """Bit-for-bit equality of two dataclass records, NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    for x, y in zip(astuple(a), astuple(b)):
        if isinstance(x, float) and isinstance(y, float):
            if math.isnan(x) and math.isnan(y):
                continue
        if x != y:
            return False
    return True


def rerun_mismatches(workload: Workload, cfg, loop_results, m: int) -> list[str]:
    """Re-run the first ``m`` trials through the program's own entry point.

    Plain workloads go through ``harness.run_trials``; sweeps go through
    ``harness.sweep``, whose per-point summaries must equal the summaries of
    the benchmark's own trials.
    """
    from ris_nfloc import harness

    problems = []
    sub = replace(cfg, trials=m)
    if workload.sweep is None:
        again = harness.run_trials(sub)
        for t, (x, y) in enumerate(zip(loop_results[0][:m], again)):
            if not identical(x, y):
                problems.append(f"trial {t} differs on re-run: {x} != {y}")
        return problems
    variable, values = workload.sweep
    table = harness.sweep(sub, variable, values)
    for (pcfg, i), point in zip(workload.points(sub), table.points):
        mine = harness.summarize(pcfg, loop_results[i][:m], point.sweep_value,
                                 point.wall_time_s)
        if not identical(mine, point):
            problems.append(f"sweep point {values[i]} differs on re-run")
    return problems


def work_sizes(cfg) -> dict[str, int]:
    """Per-trial work sizes computed from the array shapes the trial makes."""
    n, k, l = cfg.subcarriers, cfg.tile_count, cfg.frames
    n_bar = cfg.oversampling * n
    return {
        "delay_phase_exponentials": n * k,  # N x K
        "fft_grid_cells": n_bar * l,  # n_bar x L
        "frame_bytes": 16 * n * l,  # complex128 N x L
        "spectrum_bytes": 16 * n_bar * l,  # complex128 n_bar x L
    }
