"""Monte Carlo experiments, the fixed-order baseline, metrics and timing.

A trial draws the UE on the room floor, then :func:`observe` draws the clock
and phase offsets, a multipath realization and receiver noise and runs the
shared pipeline (channel, frames, spectrum, peak extraction) once; the
heatmap runs the same pipeline at fixed UE positions.  Two labelers consume
the same extraction: the geometric one and the fixed-order baseline that
models code-collision failure.  Censored trials (a failed position fit, or
too few exclusive-slope arrivals to bootstrap one) are counted, never
dropped silently.  The experiment config and every check that decides
whether it can run live in :mod:`ris_nfloc.config`.

Power bookkeeping: the nominal absolute powers are meaningless against raw
double-bounce path loss, so cascade gains are path-loss-normalized per trial
(transmit power control): gains scaled so the tile-averaged magnitude equals
``gain_reference``.  The same normalized gains feed the per-tile SNRs for the
error bound, keeping simulation and bound coherent; the exact convention is
in :mod:`ris_nfloc.bounds`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .bounds import cascade_snrs, fim
from .channel import realize_channel
from .config import ConfigError, ExperimentConfig, apply_sweep_value
from .csvfile import write_csv
from .geometry import Scene, build_scene, toa_vector
from .labeling import BootstrapError, run_spl, solve_labeled
from .psp import PspAssignment
from .spectrum import ToaGroups, extract_toas, spectrum_2d
# harness itself no longer calls solve_position; perfbench/test_smoke.py
# checks that tracing rebinds it in this namespace
from .tdoa import PositionEstimationError, solve_position  # noqa: F401
from .waveform import FrameMatrix, WaveformConfig, synthesize_frames


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one Monte Carlo trial for both labelers."""

    error_proposed: float
    error_baseline: float
    label_acc_proposed: float
    label_acc_baseline: float
    labeled_proposed: int
    labeled_baseline: int
    censored_proposed: bool
    censored_baseline: bool
    peb: float


@dataclass(frozen=True)
class SweepPoint:
    sweep_value: float
    rmse_proposed: float
    rmse_baseline: float
    peb: float
    label_acc: float
    censored_fraction: float
    wall_time_s: float


@dataclass(frozen=True)
class MetricsTable:
    variable: str
    points: tuple[SweepPoint, ...]


def _draw_ue(cfg: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform floor position, rejecting draws hugging the RIS wall."""
    lo = np.asarray(cfg.room_min_m, dtype=float)
    hi = np.asarray(cfg.room_max_m, dtype=float)
    center = np.asarray(cfg.ris_center_m, dtype=float)
    normal = cfg.wall_normal()
    while True:
        p = np.array([rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1]), 0.0])
        if normal is None or abs(np.dot(p - center, normal)) >= cfg.wall_margin_m:
            return p


def _truth_sequences(
    assignment: PspAssignment, true_toas: np.ndarray
) -> dict[int, tuple[int, ...]]:
    out = {}
    for i, tiles in assignment.groups.items():
        out[i] = tuple(sorted(tiles, key=lambda k: (-true_toas[k - 1], k)))
    return out


def _label_accuracy(
    entries, assignment: PspAssignment, truth: dict[int, tuple[int, ...]]
) -> tuple[float, int]:
    """Fraction of labeled arrivals whose tile matches the ground truth.

    Per group, the descending arrivals correspond position-wise to the tiles
    sorted by descending true ToA; unlabeled (skipped) groups are excluded
    from the denominator.
    """
    correct = 0
    labeled = 0
    by_tile = {k: t for t, k in entries}
    for i, tiles in assignment.groups.items():
        group_entries = [(by_tile[k], k) for k in tiles if k in by_tile]
        if not group_entries:
            continue
        group_entries.sort(key=lambda e: (-e[0], e[1]))
        estimated = tuple(k for _, k in group_entries)
        correct += sum(a == b for a, b in zip(estimated, truth[i]))
        labeled += len(estimated)
    return (correct / labeled if labeled else 0.0), labeled


def label_baseline_dft(
    toa_groups: ToaGroups, assignment: PspAssignment
) -> tuple[list[tuple[float, int]], list[float]]:
    """Fixed-order labeling modeling the code-collision failure.

    Within each slope group the descending arrivals are mapped to the tiles
    in ascending index order (the unsorted initial hypothesis); no geometry
    is consulted, so collided groups come out wrong whenever the true delay
    order disagrees with tile order.
    """
    entries: list[tuple[float, int]] = []
    mags: list[float] = []
    for i in sorted(assignment.groups):
        if i not in toa_groups.toas:
            continue
        tiles = sorted(assignment.groups[i])
        for tau, k, m in zip(
            toa_groups.toas[i], tiles, toa_groups.magnitudes[i]
        ):
            entries.append((float(tau), k))
            mags.append(float(m))
    return entries, mags


@dataclass(frozen=True)
class Observation:
    """What the receiver sees in one trial, with the scene that caused it.

    ``cascade`` holds the path-loss-normalized cascade gains; ``toa_groups``
    the arrivals extracted from the trial's spectrum.
    """

    scene: Scene
    cascade: np.ndarray
    assignment: PspAssignment
    toa_groups: ToaGroups


def normalized_cascade(
    cfg: ExperimentConfig, ue: np.ndarray, t0: float, phi0: float, multipath_seed: int
) -> tuple[Scene, np.ndarray]:
    """Scene at ``ue`` and its cascade gains scaled to ``gain_reference``."""
    scene = build_scene(
        cfg.layout(),
        np.asarray(cfg.bs_position_m, dtype=float),
        ue,
        t0=t0,
        phi0=phi0,
        wavelength=cfg.wavelength_m,
    )
    channel = realize_channel(scene, cfg.wavelength_m, cfg.multipath(multipath_seed))
    cascade = cfg.gain_reference * channel.cascade / np.mean(np.abs(channel.cascade))
    return scene, cascade


def position_error_bound(
    cfg: ExperimentConfig, scene: Scene, cascade: np.ndarray
) -> float:
    """PEB referenced to the earliest arrival; the observable-subspace PEB
    stands in when the full FIM is singular."""
    k_ref = int(np.argmin(toa_vector(scene))) + 1
    snrs = cascade_snrs(cascade, cfg.waveform_config())
    bound = fim(scene, snrs, cfg.bandwidth_hz, k_ref)
    return bound.peb if np.isfinite(bound.peb) else bound.peb_observable


def observe(
    cfg: ExperimentConfig, ue: np.ndarray, rng: np.random.Generator
) -> Observation:
    """The trial pipeline from scene to extracted arrivals, for a UE at ``ue``.

    Draws, in this order: the clock offset, the phase offset, the multipath
    seed and the receiver-noise seed.
    """
    t0 = rng.uniform(0.0, cfg.clock_uncertainty_s)
    phi0 = rng.uniform(0.0, 2.0 * np.pi)
    scene, cascade = normalized_cascade(cfg, ue, t0, phi0, int(rng.integers(2**63)))
    assignment = cfg.assignment()
    frames = synthesize_frames(
        scene, cascade, assignment, cfg.waveform_config(),
        noise_seed=int(rng.integers(2**63)),
    )
    spec_map = spectrum_2d(frames, cfg.oversampling)
    toa_groups = extract_toas(spec_map, assignment, threshold_factor=cfg.peak_threshold)
    return Observation(scene, cascade, assignment, toa_groups)


def _label_and_solve(cfg: ExperimentConfig, obs: Observation):
    """The geometric labeler on one observation: (label map, position)."""
    label_map, p_hat, _ = run_spl(
        obs.toa_groups,
        obs.assignment,
        obs.scene,
        room=cfg.room,
        min_toa_gap=cfg.resolvability_margin / cfg.bandwidth_hz,
    )
    return label_map, p_hat


def run_trial(cfg: ExperimentConfig, trial_seed) -> TrialResult:
    """One Monte Carlo trial: shared pipeline, two labelers, one bound.

    ``trial_seed`` is any seed accepted by ``numpy.random.default_rng``;
    the harness derives it deterministically from (config seed, trial index).
    A failed position fix (:class:`PositionEstimationError`) or too few
    exclusive-slope arrivals (:class:`BootstrapError`) censors an arm; any
    other error propagates.
    """
    rng = np.random.default_rng(trial_seed)
    ue = _draw_ue(cfg, rng)
    obs = observe(cfg, ue, rng)
    assignment = obs.assignment
    truth = _truth_sequences(assignment, toa_vector(obs.scene))

    err_p, acc_p, nlab_p, cens_p = np.nan, 0.0, 0, True
    try:
        label_map, p_hat = _label_and_solve(cfg, obs)
        err_p = float(np.linalg.norm(p_hat - ue))
        acc_p, nlab_p = _label_accuracy(label_map.entries, assignment, truth)
        cens_p = False
    except PositionEstimationError as exc:
        if exc.best_estimate is not None:
            err_p = float(np.linalg.norm(exc.best_estimate - ue))
    except BootstrapError:
        pass

    err_b, acc_b, nlab_b, cens_b = np.nan, 0.0, 0, True
    base_entries, base_mags = label_baseline_dft(obs.toa_groups, assignment)
    if len(base_entries) >= 3:
        try:
            p_base = solve_labeled(base_entries, base_mags, obs.scene, cfg.room)
            err_b = float(np.linalg.norm(p_base - ue))
            acc_b, nlab_b = _label_accuracy(base_entries, assignment, truth)
            cens_b = False
        except PositionEstimationError as exc:
            if exc.best_estimate is not None:
                err_b = float(np.linalg.norm(exc.best_estimate - ue))

    return TrialResult(
        error_proposed=err_p,
        error_baseline=err_b,
        label_acc_proposed=acc_p,
        label_acc_baseline=acc_b,
        labeled_proposed=nlab_p,
        labeled_baseline=nlab_b,
        censored_proposed=cens_p,
        censored_baseline=cens_b,
        peb=position_error_bound(cfg, obs.scene, obs.cascade),
    )


def run_trials(cfg: ExperimentConfig, point_index: int = 0) -> list[TrialResult]:
    """All trials of one config; trial ``t`` is seeded from (seed, point_index, t)."""
    seeds = (
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(point_index, t))
        for t in range(cfg.trials)
    )
    return [run_trial(cfg, s) for s in seeds]


def _rmse(values: np.ndarray) -> float:
    values = values[np.isfinite(values)]
    if len(values) == 0:
        return float("nan")
    return float(np.sqrt(np.mean(values**2)))


def summarize(cfg: ExperimentConfig, results: list[TrialResult], sweep_value: float,
              wall_time_s: float) -> SweepPoint:
    ep = np.array([r.error_proposed for r in results])
    eb = np.array([r.error_baseline for r in results])
    cens_p = np.array([r.censored_proposed for r in results])
    cens_b = np.array([r.censored_baseline for r in results])
    return SweepPoint(
        sweep_value=sweep_value,
        rmse_proposed=_rmse(ep[~cens_p]),
        rmse_baseline=_rmse(eb[~cens_b]),
        peb=float(np.nanmean([r.peb for r in results])),
        label_acc=float(np.mean([r.label_acc_proposed for r in results])),
        censored_fraction=float(np.mean(cens_p | cens_b)),
        wall_time_s=wall_time_s,
    )


def sweep(cfg: ExperimentConfig, variable: str, values) -> MetricsTable:
    """Summaries of the sweep points; :class:`ConfigError` before the first
    trial when any point's config cannot run."""
    subs = [(apply_sweep_value(cfg, variable, value), value) for value in values]
    points = []
    for idx, (sub, value) in enumerate(subs):
        start = time.perf_counter()
        results = run_trials(sub, point_index=idx)
        points.append(
            summarize(sub, results, float(value), time.perf_counter() - start)
        )
    return MetricsTable(variable=variable, points=tuple(points))


def cdf(errors) -> np.ndarray:
    """Sorted error samples; pairs with (i+1)/n cumulative probabilities."""
    errors = np.asarray(errors, dtype=float)
    return np.sort(errors[np.isfinite(errors)])


def heatmap(cfg: ExperimentConfig, grid_resolution_m: float) -> list[tuple[float, float, float]]:
    """Per-cell RMSE of the geometric labeler over a fixed floor grid.

    A censored trial counts as NaN, so it drops out of its cell's RMSE.  The
    resolution must be positive and leave at least one cell center on the
    floor.
    """
    lo = np.asarray(cfg.room_min_m, dtype=float)
    hi = np.asarray(cfg.room_max_m, dtype=float)
    first = lo[:2] + grid_resolution_m / 2  # first cell center along x and y
    if not (grid_resolution_m > 0 and np.all(first < hi[:2])):
        raise ConfigError(
            f"heatmap resolution {grid_resolution_m:g} m must be positive and "
            f"leave a cell on the {hi[0] - lo[0]:g} x {hi[1] - lo[1]:g} m floor")
    xs = np.arange(first[0], hi[0], grid_resolution_m)
    ys = np.arange(first[1], hi[1], grid_resolution_m)
    rows = []
    for ix, x in enumerate(xs):
        for iy, y in enumerate(ys):
            ue = np.array([x, y, 0.0])
            errors = []
            for t in range(cfg.trials):
                seed = np.random.SeedSequence(
                    entropy=cfg.seed, spawn_key=(ix, iy, t)
                )
                obs = observe(cfg, ue, np.random.default_rng(seed))
                try:
                    _, p_hat = _label_and_solve(cfg, obs)
                    errors.append(float(np.linalg.norm(p_hat - ue)))
                except (PositionEstimationError, BootstrapError):
                    errors.append(float("nan"))
            rows.append((float(x), float(y), _rmse(np.array(errors))))
    return rows


def _time_callables(fns, min_time_s: float = 0.02, repeats: int = 5) -> list[float]:
    """Per-call seconds of each callable: the minimum over ``repeats`` rounds.

    Every round times each callable in turn for at least ``min_time_s``, so a
    burst of outside load slows one round of all of them rather than every
    round of one of them, and the minimum discards it.
    """
    for fn in fns:
        fn()  # warm up caches
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            calls = 0
            start = time.perf_counter()
            elapsed = 0.0
            while elapsed < min_time_s:
                fn()
                calls += 1
                elapsed = time.perf_counter() - start
            best[i] = min(best[i], elapsed / calls)
    return best


def _time_callable(fn, min_time_s: float = 0.02, repeats: int = 5) -> float:
    """Per-call seconds of one callable; min over repeats."""
    return _time_callables([fn], min_time_s, repeats)[0]


def timing_benchmark(cfg: ExperimentConfig, sizes=(256, 512, 1024, 2048, 4096)):
    """Stage timings plus the fitted spectrum growth exponent.

    Returns (rows, exponent) where rows are (stage, size, seconds) entries:
    the fast spectrum path across a 16x range of padded grid sizes, the dense
    reference transform and the peak scan of :mod:`ris_nfloc.kernels`, and
    the labeling-plus-solve stage versus tile count.  The exponent fits
    ``time ~ (n*log2(n))^e`` for the fast path, ``n`` the padded grid size.
    """
    rng = np.random.default_rng(cfg.seed)
    rows = []
    wcfg_l = 16
    fast_sizes, fast_calls = [], []
    for n_sub in sizes:
        wcfg = WaveformConfig(
            n_subcarriers=int(n_sub),
            spacing=cfg.bandwidth_hz / n_sub,
            carrier=cfg.carrier_hz,
            tx_power=1.0,
            noise_psd=0.0,
            l_frames=wcfg_l,
        )
        s = rng.standard_normal((n_sub, wcfg_l)) + 1j * rng.standard_normal(
            (n_sub, wcfg_l)
        )
        frames = FrameMatrix(s=s, config=wcfg)
        fast_sizes.append(cfg.oversampling * n_sub * wcfg_l)
        fast_calls.append(lambda frames=frames: spectrum_2d(frames, cfg.oversampling))
    # the growth exponent is fitted to these rows: long windows and many
    # interleaved rounds keep outside load from bending the fit
    fast_times = _time_callables(fast_calls, min_time_s=0.05, repeats=9)
    rows.extend(("spectrum_fft", n, t) for n, t in zip(fast_sizes, fast_times))

    # the numpy reference kernels
    n_dense, l_dense = 128, 8
    s = rng.standard_normal((n_dense, l_dense)) + 1j * rng.standard_normal(
        (n_dense, l_dense)
    )
    n_bar = cfg.oversampling * n_dense
    rows.append(
        (
            "spectrum_dense_numpy",
            n_bar * l_dense,
            _time_callable(lambda: kernels.idft2_dense(s, n_bar)),
        )
    )
    mag = np.abs(rng.standard_normal(4096))
    rows.append(
        (
            "peak_scan_numpy",
            4096,
            _time_callable(lambda: kernels.column_peak_mask(mag, 0.5)),
        )
    )

    # labeling + solve on exact arrivals across tile counts
    for k_tiles in (8, 16, 32, 64):
        sub = replace(cfg, tile_count=k_tiles, trials=1)
        scene = build_scene(
            sub.layout(),
            np.asarray(sub.bs_position_m, dtype=float),
            np.array([3.0, 4.0, 0.0]),
            wavelength=sub.wavelength_m,
        )
        assignment = sub.assignment()
        groups = ToaGroups.from_delays(toa_vector(scene), assignment)
        seconds = _time_callable(
            lambda: run_spl(groups, assignment, scene, room=sub.room)
        )
        rows.append(("spl_tdoa", k_tiles, seconds))

    x = np.log(np.array(fast_sizes) * np.log2(fast_sizes))
    y = np.log(np.array(fast_times))
    exponent = float(np.polyfit(x, y, 1)[0])
    return rows, exponent


def write_sweep_csv(table: MetricsTable, path) -> None:
    """sweep.csv with the fixed column order."""
    write_csv(
        path,
        ["sweep_value", "rmse_proposed", "rmse_baseline", "peb", "label_acc"],
        (
            (p.sweep_value, p.rmse_proposed, p.rmse_baseline, p.peb, p.label_acc)
            for p in table.points
        ),
    )


def write_cdf_csv(errors, path) -> None:
    samples = cdf(errors)
    n = len(samples)
    write_csv(
        path, ["error_m", "cum_prob"], ((e, (i + 1) / n) for i, e in enumerate(samples))
    )


def write_heatmap_csv(rows, path) -> None:
    write_csv(path, ["x", "y", "rmse"], rows)


def write_timing_csv(rows, path) -> None:
    write_csv(
        path,
        ["stage", "size", "seconds"],
        ((stage, size, f"{seconds:.6g}") for stage, size, seconds in rows),
    )


def write_trials_csv(results: list[TrialResult], path) -> None:
    write_csv(
        path,
        [
            "trial",
            "error_proposed_m",
            "error_baseline_m",
            "label_acc_proposed",
            "label_acc_baseline",
            "censored_proposed",
            "censored_baseline",
            "peb_m",
        ],
        (
            (
                t,
                r.error_proposed,
                r.error_baseline,
                r.label_acc_proposed,
                r.label_acc_baseline,
                int(r.censored_proposed),
                int(r.censored_baseline),
                r.peb,
            )
            for t, r in enumerate(results)
        ),
    )
