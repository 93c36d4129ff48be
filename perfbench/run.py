"""Monte Carlo trial benchmark of ris-nfloc.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Each workload runs the program's own trial pipeline (``harness.run_trial``,
re-checked through ``harness.run_trials`` / ``harness.sweep``) in a fresh
single-threaded process: a closed loop with one client, each trial starting
when the previous one returns.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units come from
``BENCHMARK.json``.  Timings are reported at the reference speed of
``speed.py``; the values as measured are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7  # set-up is timed in this many fresh processes
WORKER_TIMEOUT_S = 170.0

PINNED_ENV = {
    "RIS_NFLOC_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(mode: str, args, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up seconds and its result record.

    Set-up is the wall time from starting the process to its ``READY`` line,
    so it covers interpreter start, imports, config and the warm-up trial.
    """
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True, bufsize=1)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line == "READY":
                setup_s = time.perf_counter() - start
            elif line.startswith("INFO "):
                print(line[5:], flush=True)
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
            elif line:
                print(line, flush=True)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if time.perf_counter() >= deadline:
        raise BenchError(f"{mode} worker ran past the deadline and was stopped")
    if code != 0:
        raise BenchError(f"{mode} worker exited with code {code}")
    if setup_s is None:
        raise BenchError(f"{mode} worker never reported READY")
    if mode != "setup" and result is None:
        raise BenchError(f"{mode} worker printed no result")
    return setup_s, result


def declared_metrics(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def layer_profile(metrics: dict) -> None:
    """Per-layer self time per trial and its share of the traced trial."""
    total = metrics["trace.trial_ms"]
    layers: dict[str, float] = {}
    for key, value in metrics.items():
        if key.endswith(".self_ms"):
            layer = key.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + value
    print(f"profile: traced trial {total:.3f} ms = sum of layer self times "
          f"{sum(layers.values()):.3f} ms")
    for layer, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:10s} {ms:9.3f} ms/trial  {100.0 * ms / total:5.1f}%")


def print_accuracy(workload: str, summary: dict) -> None:
    """The accuracy summary, beside its recorded reference value."""
    line = " ".join(f"{k}={v:.6g}" for k, v in summary.items())
    print(f"accuracy summary on the fixed sample: {line}")
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()).get(workload) if path.is_file() else None
    if reference is not None:
        same = all(reference.get(k) == v for k, v in summary.items())
        print(f"accuracy summary equals reference.json: {'yes' if same else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ris-nfloc Monte Carlo trial benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ris_nfloc" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'ris_nfloc'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    kind = "per_layer" if args.trace else "end_to_end"
    declared = declared_metrics(kind)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} load=closed loop, 1 client, 1 process, 1 thread")
    print("pinned " + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    try:
        if args.trace:
            _, out = run_worker("traced", args, deadline)
            metrics = out["metrics"]
        else:
            setups = [run_worker("setup", args, deadline)[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            setup_s, out = run_worker("timed", args, deadline)
            setups.append(setup_s)
            # set-up is too short to calibrate on its own: it takes the
            # speed factor of the timed loop that follows it
            factor = out["speed_factor"]
            metrics = dict(out["metrics"], setup_s=statistics.median(setups) / factor)
            print("setup_s samples as measured: " + " ".join(f"{s:.4f}" for s in setups))
            print_accuracy(args.workload, out["summary"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [name for name, _ in declared if name not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(f"trials timed: {out['samples']} (attempted {out['attempted']}, "
          f"failed {out['failed']})")
    if args.trace:
        layer_profile(metrics)
    for problem in out["problems"][:20]:
        print(f"check failed: {problem}")
    for name, unit in declared:
        print(f"{name} = {metrics[name]!r} {unit}")
    record = {
        "correct": out["failed"] == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
