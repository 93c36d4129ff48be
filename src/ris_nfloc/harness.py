"""Monte Carlo experiments, the fixed-order baseline, metrics and timing.

A trial draws the UE on the room floor, then :func:`observe` draws the clock
and phase offsets, a multipath realization and receiver noise and runs the
shared pipeline (channel, frames, spectrum, peak extraction) once; the
heatmap runs the same pipeline at fixed UE positions.  What the config fixes
(the tile arrays, the forward link, the waveform and the solver's seed
lattice of the room) comes from the config's deployment
(:attr:`ExperimentConfig.deployment`), built once per config, so a trial adds
only its UE, its offsets and its draws, and its true delays are computed
once.  Every arm of :data:`ARMS` labels the same extraction: the geometric
labeler and the fixed-order baseline that models code-collision failure.
Each reads only the deployment and the extracted arrivals, never the scene,
so no arm can see the UE it estimates.  One scorer, :func:`_arm`, scores
every arm, in trials and heatmap cells alike, and counts a censored arm,
never dropping it silently.  The experiment config and every check that
decides whether it can run live in :mod:`ris_nfloc.config`.

Power bookkeeping: the nominal absolute powers are meaningless against raw
double-bounce path loss, so cascade gains are path-loss-normalized per trial
(transmit power control) to unit tile-averaged magnitude, and a trial runs in
units of that reference path amplitude: the powers and ``gain_reference``
enter only as the noise ratio of :meth:`ExperimentConfig.waveform_config`.
The same normalized gains feed the per-tile SNRs for the error bound,
keeping simulation and bound coherent; the exact convention is in
:mod:`ris_nfloc.bounds`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bounds import cascade_snrs, fim
from .channel import realize_channel
from .config import ExperimentConfig, apply_sweep_value, heatmap_cells
from .csvfile import write_csv
from .geometry import Scene, toa_vector
from .labeling import run_spl, solve_labeled
from .psp import PspAssignment
from .spectrum import ToaGroups, extract_toas, spectrum_2d
# harness itself no longer calls solve_position; perfbench/test_smoke.py
# checks that tracing rebinds it in this namespace
from .tdoa import BootstrapError, PositionEstimationError, solve_position  # noqa: F401
from .waveform import FrameMatrix, WaveformConfig, synthesize_frames


# TrialResult and SweepPoint keep flat <metric>_<arm> fields: perfbench reads
# them by name and compares records with astuple
@dataclass(frozen=True)
class TrialResult:
    """Outcome of one Monte Carlo trial for every arm of :data:`ARMS`."""

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
    lo, hi = cfg.room_min_m, cfg.room_max_m
    center, normal = cfg.deployment.ris_center, cfg.deployment.wall_normal
    while True:
        p = np.array([rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1]), 0.0])
        if abs(np.dot(p - center, normal)) >= cfg.wall_margin_m:
            return p


def _label_accuracy(
    entries, assignment: PspAssignment, true_toas: np.ndarray
) -> tuple[float, int]:
    """Fraction of labeled arrivals whose tile matches the ground truth, and
    the number labeled.

    Per group, the descending arrivals correspond position-wise to the tiles
    sorted by descending ``true_toas``; unlabeled (skipped) groups are
    excluded from the denominator.
    """
    correct = 0
    labeled = 0
    by_tile = {k: t for t, k in entries}
    for tiles in assignment.groups.values():
        group_entries = [(by_tile[k], k) for k in tiles if k in by_tile]
        if not group_entries:
            continue
        group_entries.sort(key=lambda e: (-e[0], e[1]))
        estimated = tuple(k for _, k in group_entries)
        truth = sorted(tiles, key=lambda k: (-true_toas[k - 1], k))
        correct += sum(a == b for a, b in zip(estimated, truth))
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

    ``true_toas`` holds the scene's true delays (:func:`toa_vector`),
    ``cascade`` the path-loss-normalized cascade gains and ``toa_groups``
    the arrivals extracted from the trial's spectrum.  The labelers read
    only ``assignment`` and ``toa_groups``; the rest scores them.
    """

    scene: Scene
    true_toas: np.ndarray
    cascade: np.ndarray
    assignment: PspAssignment
    toa_groups: ToaGroups


def normalized_cascade(
    cfg: ExperimentConfig, ue: np.ndarray, t0: float, phi0: float, multipath_seed: int
) -> tuple[Scene, np.ndarray]:
    """Scene at ``ue`` and its cascade gains scaled to unit mean magnitude."""
    dep = cfg.deployment
    scene = dep.scene(ue, t0=t0, phi0=phi0)
    channel = realize_channel(
        scene, dep.wavelength, cfg.multipath(multipath_seed), forward=dep.forward
    )
    cascade = channel.cascade / np.mean(np.abs(channel.cascade))
    return scene, cascade


def position_error_bound(
    cfg: ExperimentConfig, scene: Scene, cascade: np.ndarray, true_toas: np.ndarray
) -> float:
    """PEB referenced to the earliest of ``true_toas``: the bound over the
    observable subspace, which is the full PEB when the FIM has full rank."""
    k_ref = int(np.argmin(true_toas)) + 1
    snrs = cascade_snrs(cascade, cfg.deployment.waveform)
    return fim(scene, snrs, cfg.bandwidth_hz, k_ref).peb_observable


def peb_at(cfg: ExperimentConfig, ue: np.ndarray) -> float:
    """PEB at a UE position, with no clock or phase offset and the multipath
    realization of the config seed."""
    scene, cascade = normalized_cascade(cfg, ue, 0.0, 0.0, cfg.seed)
    return position_error_bound(cfg, scene, cascade, toa_vector(scene))


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
    true_toas = toa_vector(scene)
    assignment = cfg.assignment()
    frames = synthesize_frames(
        true_toas, cascade, assignment, cfg.deployment.waveform,
        noise_seed=int(rng.integers(2**63)),
    )
    spec_map = spectrum_2d(frames, cfg.oversampling)
    toa_groups = extract_toas(spec_map, assignment, threshold_factor=cfg.peak_threshold)
    return Observation(scene, true_toas, cascade, assignment, toa_groups)


def _proposed(cfg: ExperimentConfig, obs: Observation):
    """The geometric labeler (SPL) on one observation: (entries, position)."""
    entries, p_hat, _ = run_spl(
        obs.toa_groups, obs.assignment, cfg.deployment,
        min_toa_gap=cfg.resolvability_margin / cfg.bandwidth_hz,
    )
    return entries, p_hat


def _baseline(cfg: ExperimentConfig, obs: Observation):
    """The fixed-order labeler on one observation and the weighted fix of
    its labels: (entries, position)."""
    entries, mags = label_baseline_dft(obs.toa_groups, obs.assignment)
    return entries, solve_labeled(entries, mags, cfg.deployment)


# arm name (the <arm> of the per-arm fields) -> labeler.  These are this
# module's own labelers, which look up run_spl at each call: perfbench's
# tracer rebinds module attributes, never a dict entry
ARMS = {"proposed": _proposed, "baseline": _baseline}


def _arm(label, cfg: ExperimentConfig, obs: Observation, ue: np.ndarray):
    """Score one labeler arm on an observation: (entries, error, censored).

    ``label(cfg, obs)`` returns the labeled entries and the fix.  A failed
    fit (:class:`PositionEstimationError`) censors the arm with the error of
    its descent's endpoint; too few labels (:class:`BootstrapError`)
    censor it with NaN.  A censored arm labels nothing; other errors propagate.
    """
    try:
        entries, p_hat = label(cfg, obs)
        censored = False
    except PositionEstimationError as exc:
        entries, p_hat, censored = [], exc.best_estimate, True
    except BootstrapError:
        entries, p_hat, censored = [], None, True
    error = np.nan if p_hat is None else float(np.linalg.norm(p_hat - ue))
    return entries, error, censored


def run_trial(cfg: ExperimentConfig, trial_seed) -> TrialResult:
    """One Monte Carlo trial: shared pipeline, each arm scored, one bound.

    ``trial_seed`` is any seed accepted by ``numpy.random.default_rng``;
    the harness derives it deterministically from (config seed, trial index).
    Each arm is scored by :func:`_arm`, which says what censors it.
    """
    rng = np.random.default_rng(trial_seed)
    ue = _draw_ue(cfg, rng)
    obs = observe(cfg, ue, rng)
    arms = {}
    for name, label in ARMS.items():
        entries, arms[f"error_{name}"], arms[f"censored_{name}"] = _arm(
            label, cfg, obs, ue
        )
        arms[f"label_acc_{name}"], arms[f"labeled_{name}"] = _label_accuracy(
            entries, obs.assignment, obs.true_toas
        )
    return TrialResult(
        **arms, peb=position_error_bound(cfg, obs.scene, obs.cascade, obs.true_toas)
    )


def run_trials(cfg: ExperimentConfig, point_index: int = 0) -> list[TrialResult]:
    """All trials of one config; trial ``t`` is seeded from (seed, point_index, t)."""
    seeds = (
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(point_index, t))
        for t in range(cfg.trials)
    )
    return [run_trial(cfg, s) for s in seeds]


def _by_arm(record, metric: str) -> list:
    """The ``<metric>_<arm>`` field of ``record`` for every arm of :data:`ARMS`."""
    return [getattr(record, f"{metric}_{arm}") for arm in ARMS]


def _rmse(values: np.ndarray) -> float:
    values = values[np.isfinite(values)]
    if len(values) == 0:
        return float("nan")
    return float(np.sqrt(np.mean(values**2)))


def summarize(cfg: ExperimentConfig, results: list[TrialResult], sweep_value: float,
              wall_time_s: float) -> SweepPoint:
    """One sweep point.  Each RMSE and the label accuracy average over the
    trials whose arm is not censored (NaN when none is left); a censored
    trial's accuracy of 0.0 records that it labeled nothing."""
    errors = np.array([_by_arm(r, "error") for r in results], dtype=float)
    censored = np.array([_by_arm(r, "censored") for r in results], dtype=bool)
    rmses = {f"rmse_{a}": _rmse(errors[~censored[:, i], i]) for i, a in enumerate(ARMS)}
    acc = [r.label_acc_proposed for r in results if not r.censored_proposed]
    return SweepPoint(
        sweep_value=sweep_value,
        **rmses,
        peb=float(np.nanmean([r.peb for r in results])),
        label_acc=float(np.mean(acc)) if acc else float("nan"),
        censored_fraction=float(np.mean(censored.any(axis=1))),
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
    """Per-cell RMSE of the geometric labeler over the floor grid of
    :func:`~ris_nfloc.config.heatmap_cells`, which checks the resolution.

    A censored trial counts as NaN, so it drops out of its cell's RMSE.
    """
    xs, ys = heatmap_cells(cfg, grid_resolution_m)
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
                _, error, censored = _arm(_proposed, cfg, obs, ue)
                errors.append(np.nan if censored else error)
            rows.append((float(x), float(y), _rmse(np.array(errors))))
    return rows


def _time_callables(fns) -> list[float]:
    """Per-call seconds of each callable: the minimum over 9 rounds.

    Every round times each callable in turn for at least 50 ms, so a burst
    of outside load slows one round of all of them rather than every round
    of one of them, and the minimum discards it.  The growth exponent is
    fitted to these times: long windows and many interleaved rounds keep
    outside load from bending the fit.
    """
    for fn in fns:
        fn()  # warm up caches
    best = [float("inf")] * len(fns)
    for _ in range(9):
        for i, fn in enumerate(fns):
            calls = 0
            start = time.perf_counter()
            elapsed = 0.0
            while elapsed < 0.05:
                fn()
                calls += 1
                elapsed = time.perf_counter() - start
            best[i] = min(best[i], elapsed / calls)
    return best


def timing_benchmark(cfg: ExperimentConfig, sizes=(256, 512, 1024, 2048, 4096)):
    """Spectrum-stage timings plus the fitted spectrum growth exponent.

    Returns (rows, exponent) where rows are ``("spectrum_fft", size,
    seconds)`` entries: :func:`spectrum_2d`, the zero-padded delay-axis FFT
    of slope columns built beforehand plus the magnitudes it keeps, across
    the padded grid sizes of
    ``sizes`` subcarriers, timed in interleaved rounds
    (:func:`_time_callables`).  The exponent fits ``time ~ (n*log2(n))^e``,
    ``n`` the padded grid size.  Labeling and solve time on real trials is
    measured by perfbench's traced ``labeling.run_spl`` and
    ``tdoa.solve_position`` spans.
    """
    rng = np.random.default_rng(cfg.seed)
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
        frames = FrameMatrix.from_symbols(s, wcfg)
        fast_sizes.append(cfg.oversampling * n_sub * wcfg_l)
        fast_calls.append(lambda frames=frames: spectrum_2d(frames, cfg.oversampling))
    fast_times = _time_callables(fast_calls)
    rows = [("spectrum_fft", n, t) for n, t in zip(fast_sizes, fast_times)]

    x = np.log(np.array(fast_sizes) * np.log2(fast_sizes))
    y = np.log(np.array(fast_times))
    exponent = float(np.polyfit(x, y, 1)[0])
    return rows, exponent


def write_sweep_csv(table: MetricsTable, path) -> None:
    """sweep.csv; per-arm columns follow :data:`ARMS`."""
    write_csv(
        path,
        ["sweep_value", *(f"rmse_{a}" for a in ARMS), "peb", "label_acc"],
        ((p.sweep_value, *_by_arm(p, "rmse"), p.peb, p.label_acc) for p in table.points),
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
    """trials.csv; per-arm columns are metric-major and follow :data:`ARMS`."""
    write_csv(
        path,
        ["trial", *(f"error_{a}_m" for a in ARMS), *(f"label_acc_{a}" for a in ARMS),
         *(f"censored_{a}" for a in ARMS), "peb_m"],
        ((t, *_by_arm(r, "error"), *_by_arm(r, "label_acc"),
          *map(int, _by_arm(r, "censored")), r.peb) for t, r in enumerate(results)),
    )
