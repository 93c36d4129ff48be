"""One workload process of the benchmark; started by ``run.py``.

Usage: ``python3 perfbench/worker.py MODE --workload NAME --seed N --seconds S``
with ``PYTHONPATH`` pointing at the program's ``src`` directory.  MODE is

* ``setup``: import the program, load the config, run the warm-up trial of
  each sweep point, print ``READY`` and exit;
* ``timed``: the same, then the closed trial loop without tracing;
* ``traced``: the same, then an untraced loop and a traced re-run of the
  same trials, for the per-layer metrics.

The warm-up runs trial 0 of every point; the loop runs it again, which also
checks that a trial repeats bit for bit.  Timings are reported at the
reference speed of :mod:`speed`.  Protocol lines on stdout: ``READY`` once
set-up ends, ``INFO <text>`` for the log and ``RESULT <json>`` last.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import Speed  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_result,
    identical,
    rerun_mismatches,
    trial_seed,
    work_sizes,
)

MIN_TRIALS = 100  # p90 then has at least 10 trials beyond it
ACCURACY_SEED = 1  # the default config seed
RERUN_TRIALS = 4
SPANS_DIR = Path(__file__).resolve().parent.parent / ".perfbench"


def info(text: str) -> None:
    print(f"INFO {text}", flush=True)


class Loop:
    """Outcome of one closed trial loop over a workload's points."""

    def __init__(self, n_points: int):
        self.results = [[] for _ in range(n_points)]  # None for a raised trial
        self.trial_s: list[float] = []
        self.speed = Speed()
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.trial_s)

    @property
    def trial_ref_s(self) -> list[float]:
        """Trial times at the reference speed."""
        factor = self.speed.factor
        return [t / factor for t in self.trial_s]


def closed_loop(harness, points, seed, seconds, min_per_point, per_point=None):
    """Run trials 0, 1, ... of every point, interleaved, one at a time.

    Stops after ``seconds`` once each point has ``min_per_point`` trials, or
    after exactly ``per_point`` trials per point when that is given.  A unit
    of calibration work follows every trial, outside its timing.
    """
    loop = Loop(len(points))
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    t = 0
    while True:
        if per_point is not None:
            if t >= per_point:
                break
        elif t >= min_per_point and clock() >= deadline:
            break
        for cfg, i in points:
            s = trial_seed(seed, i, t)
            a = clock()
            try:
                result = harness.run_trial(cfg, s)
            except Exception as exc:  # a failure outside the censoring contract
                result = None
                loop.errors.append(f"point {i} trial {t}: {type(exc).__name__}: {exc}")
            loop.trial_s.append(clock() - a)
            loop.results[i].append(result)
            loop.speed.measure()
        t += 1
    return loop


def check_loop(loop, points, warm) -> tuple[int, list[str]]:
    """Failed-trial count and the problems found in a loop's results."""
    failed = len(loop.errors)
    problems = list(loop.errors)
    for (cfg, i), results in zip(points, loop.results):
        for t, r in enumerate(results):
            if r is None:
                continue
            bad = check_result(r, cfg)
            if bad:
                failed += 1
                problems.append(f"point {i} trial {t}: {'; '.join(bad)}")
        if not identical(warm[i], results[0]):
            problems.append(f"point {i} trial 0 differs from its warm-up run")
    return failed, problems


def accuracy(harness, workload) -> tuple[dict, int, list[str]]:
    """Accuracy summary on the workload's fixed evaluation sample.

    The sample is the first ``accuracy_trials`` trials of every point at the
    default config seed, run through ``harness.run_trials`` and pooled.  It
    does not follow ``--seed``: the accuracy statistics are tail-dominated,
    so a fresh sample per seed would spread them far more than any bound
    allows, while a fixed sample compares two program versions exactly.
    """
    cfg = workload.config(ACCURACY_SEED)
    pooled, failed, problems = [], 0, []
    for pcfg, i in workload.points(cfg):
        try:
            results = harness.run_trials(pcfg, point_index=i)
        except Exception as exc:  # a failure outside the censoring contract
            failed += pcfg.trials
            problems.append(f"accuracy point {i}: {type(exc).__name__}: {exc}")
            continue
        for t, r in enumerate(results):
            bad = check_result(r, pcfg)
            if bad:
                failed += 1
                problems.append(f"accuracy point {i} trial {t}: {'; '.join(bad)}")
        pooled += results
    point = harness.summarize(cfg, pooled, 0.0, 0.0)
    summary = {
        "rmse_proposed": point.rmse_proposed,
        "rmse_baseline": point.rmse_baseline,
        "label_acc": point.label_acc,
        "peb": point.peb,
        "censored_fraction": point.censored_fraction,
    }
    return summary, failed, problems


def timed(args, harness, workload, cfg, points, warm) -> dict:
    import numpy as np

    loop = closed_loop(harness, points, args.seed, args.seconds,
                       -(-MIN_TRIALS // len(points)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems = check_loop(loop, points, warm)
    if not loop.errors:
        problems += rerun_mismatches(workload, cfg, loop.results, RERUN_TRIALS)
    summary, acc_failed, acc_problems = accuracy(harness, workload)
    ms = 1e3 * np.asarray(loop.trial_ref_s)
    raw_ms = 1e3 * np.asarray(loop.trial_s)
    info(f"speed factor {loop.speed.factor:.4f}; as measured: "
         f"trials_per_s={1e3 * len(raw_ms) / raw_ms.sum():.4f} "
         f"trial_ms_p50={np.percentile(raw_ms, 50):.4f} "
         f"trial_ms_p90={np.percentile(raw_ms, 90):.4f}")
    return {
        "attempted": loop.attempted + workload.accuracy_trials * len(points),
        "failed": failed + acc_failed,
        "problems": problems + acc_problems,
        "samples": len(ms),
        "speed_factor": loop.speed.factor,
        "metrics": {
            "trials_per_s": 1e3 * len(ms) / ms.sum(),
            "trial_ms_p50": float(np.percentile(ms, 50)),
            "trial_ms_p90": float(np.percentile(ms, 90)),
            "peak_rss_mb": peak_rss_mb,
            "rmse_proposed_m": summary["rmse_proposed"],
            "uncensored_fraction": 1.0 - summary["censored_fraction"],
        },
        "summary": summary,
    }


def traced(args, harness, workload, cfg, points, warm, spans_path=None) -> dict:
    from tracer import Tracer

    plain = closed_loop(harness, points, args.seed, args.seconds / 2.0, 1)
    per_point = len(plain.results[0])
    run_trial = harness.run_trial
    tracer = Tracer()
    with tracer:
        traced_loop = closed_loop(harness, points, args.seed, 0.0, 0, per_point)
    problems = []
    if tracer.installed or harness.run_trial is not run_trial:
        problems.append("tracing wrappers were not removed")
    failed, found = check_loop(traced_loop, points, warm)
    problems += found
    for i, (a, b) in enumerate(zip(plain.results, traced_loop.results)):
        for t, (x, y) in enumerate(zip(a, b)):
            if x is None or y is None or not identical(x, y):
                failed += 1
                problems.append(f"point {i} trial {t}: traced result differs")
    factor = traced_loop.speed.factor
    metrics = {
        k: v / factor if k.endswith("_ms") else v
        for k, v in tracer.per_trial().items()
    }
    metrics["trace.overhead_frac"] = 1.0 - sum(plain.trial_ref_s) / sum(
        traced_loop.trial_ref_s)
    if spans_path is not None:
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write_spans(spans_path)
    return {
        "attempted": plain.attempted + traced_loop.attempted,
        "failed": failed + len(plain.errors),
        "problems": problems,
        "samples": traced_loop.attempted,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    # cold import of the program as its command line uses it
    from ris_nfloc import accel, cli, harness  # noqa: F401

    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed)
    points = workload.points(cfg)
    warm = [harness.run_trial(c, trial_seed(args.seed, i, 0)) for c, i in points]
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    import numpy as np

    info(f"program {Path(harness.__file__).parent}")
    info(
        f"nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} "
        f"numpy={np.__version__} numba_enabled={accel.NUMBA_ENABLED} "
        f"python={sys.version.split()[0]} "
        f"RIS_NFLOC_THREADS={os.environ.get('RIS_NFLOC_THREADS')} "
        f"OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS')} "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"
    )
    for pcfg, i in points:
        sizes = " ".join(f"{k}={v}" for k, v in work_sizes(pcfg).items())
        info(f"point {i} K={pcfg.tile_count} N={pcfg.subcarriers} L={pcfg.frames} "
             f"computed per trial: {sizes}")
    if args.mode == "timed":
        out = timed(args, harness, workload, cfg, points, warm)
    else:
        spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        out = traced(args, harness, workload, cfg, points, warm, spans)
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
