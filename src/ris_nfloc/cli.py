"""Command-line front end.

Subcommands cover the Monte Carlo experiments (simulate, sweep, heatmap,
cdf), the error bound (peb) and the timing benchmark (bench).  Flags
override config-file keys, and the config is checked once with them
applied; every output is reproducible from (config, seed).  Exit codes:
0 success, 2 configuration error, 3 pipeline failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import harness
from .config import (
    SWEEP_VARIABLES,
    ConfigError,
    bench_sizes,
    check_config,
    config_template,
    floor_point,
    parse_numbers,
    read_config,
)
from .csvfile import write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-nfloc",
        description="RIS-assisted near-field localization simulator",
    )
    parser.add_argument("--config", help="INI config file (see --print-config)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, help="override experiment seed")
    parser.add_argument("--trials", type=int, help="override trial count")
    parser.add_argument("--tiles", type=int, help="override tile count K")
    parser.add_argument("--frames", type=int, help="override frame budget L")
    parser.add_argument(
        "--bandwidth-hz",
        type=float,
        help="override bandwidth (scales subcarrier spacing)",
    )
    parser.add_argument(
        "--print-config", action="store_true", help="print the config schema and exit"
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("simulate", help="Monte Carlo run; writes trials.csv")

    p_sweep = sub.add_parser("sweep", help="sweep K, L, K0 or B; writes sweep.csv")
    p_sweep.add_argument("--var", required=True, choices=SWEEP_VARIABLES)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")

    p_heat = sub.add_parser("heatmap", help="floor RMSE grid; writes heatmap.csv")
    p_heat.add_argument("--resolution-m", type=float, default=1.0)

    sub.add_parser("cdf", help="error CDF of a Monte Carlo run; writes cdf.csv")

    p_peb = sub.add_parser("peb", help="position error bound; writes peb.csv")
    p_peb.add_argument(
        "--values", help="comma-separated bandwidths for a curve (Hz)"
    )
    p_peb.add_argument(
        "--ue", default="5,5", help="UE floor position x,y (default mid-room)"
    )

    p_bench = sub.add_parser("bench", help="timing benchmark; writes timing.csv")
    p_bench.add_argument(
        "--sizes", default="256,512,1024,2048,4096",
        help="subcarrier counts for the spectrum stage: positive integers, "
        "at least two distinct",
    )
    return parser


def _apply_overrides(cfg, args):
    """The config with the flags applied at once; the caller checks it."""
    fields = {"seed": args.seed, "trials": args.trials, "tile_count": args.tiles,
              "frames": args.frames}
    # the file's values are not yet checked: the check rejects zero subcarriers
    if args.bandwidth_hz is not None and cfg.subcarriers:
        fields["spacing_hz"] = args.bandwidth_hz / cfg.subcarriers
    return replace(cfg, **{k: v for k, v in fields.items() if v is not None})


def _rmses(point) -> str:
    """``rmse_<arm>=<value>`` for every arm of ``harness.ARMS``."""
    return " ".join(f"rmse_{a}={getattr(point, f'rmse_{a}'):.4g}" for a in harness.ARMS)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.print_config:
        print(config_template(), end="")
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = check_config(_apply_overrides(read_config(args.config), args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"config error: --out {args.out} is not a usable output "
              f"directory: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "simulate":
            results = harness.run_trials(cfg)
            harness.write_trials_csv(results, os.path.join(args.out, "trials.csv"))
            point = harness.summarize(cfg, results, 0.0, 0.0)
            print(
                f"trials={cfg.trials} {_rmses(point)} "
                f"label_acc={point.label_acc:.4g} "
                f"censored={point.censored_fraction:.4g}"
            )
        elif args.command == "sweep":
            table = harness.sweep(cfg, args.var, parse_numbers(args.values))
            harness.write_sweep_csv(table, os.path.join(args.out, "sweep.csv"))
            for p in table.points:
                print(f"{args.var}={p.sweep_value:g} {_rmses(p)} peb={p.peb:.4g}")
        elif args.command == "heatmap":
            rows = harness.heatmap(cfg, args.resolution_m)
            harness.write_heatmap_csv(rows, os.path.join(args.out, "heatmap.csv"))
            print(f"heatmap cells={len(rows)}")
        elif args.command == "cdf":
            results = harness.run_trials(cfg)
            errors = [r.error_proposed for r in results if not r.censored_proposed]
            harness.write_cdf_csv(errors, os.path.join(args.out, "cdf.csv"))
            samples = harness.cdf(errors)
            if len(samples):
                print(
                    f"n={len(samples)} p50={np.percentile(samples, 50):.4g} "
                    f"p90={np.percentile(samples, 90):.4g}"
                )
        elif args.command == "peb":
            ue = floor_point(cfg, parse_numbers(args.ue))
            bandwidths = [cfg.bandwidth_hz]
            if args.values:
                bandwidths = parse_numbers(args.values)
            subs = [harness.apply_sweep_value(cfg, "B", b) for b in bandwidths]
            rows = [(b, harness.peb_at(sub, ue)) for b, sub in zip(bandwidths, subs)]
            write_csv(os.path.join(args.out, "peb.csv"), ["sweep_value", "peb"], rows)
            for b, peb in rows:
                print(f"bandwidth={b:g} peb={peb:.6g}")
        elif args.command == "bench":
            sizes = bench_sizes(parse_numbers(args.sizes))
            rows, exponent = harness.timing_benchmark(cfg, sizes=sizes)
            harness.write_timing_csv(rows, os.path.join(args.out, "timing.csv"))
            for stage, size, seconds in rows:
                print(f"{stage:22s} size={size:<8d} {seconds * 1e3:.3f} ms")
            print(f"spectrum growth exponent vs n*log2(n): {exponent:.3f}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pipeline failure
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
