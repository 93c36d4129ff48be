import warnings
from dataclasses import replace

import numpy as np
import pytest

from ris_nfloc.config import ConfigError, check_config
from ris_nfloc.harness import (
    ExperimentConfig,
    MetricsTable,
    SweepPoint,
    TrialResult,
    apply_sweep_value,
    cdf,
    heatmap,
    label_baseline_dft,
    run_trial,
    run_trials,
    summarize,
    sweep,
    timing_benchmark,
    write_cdf_csv,
    write_heatmap_csv,
    write_sweep_csv,
    write_timing_csv,
    write_trials_csv,
)

DESK = ExperimentConfig(
    tile_count=16,
    subcarriers=256,
    spacing_hz=1.5625e6,
    frames=8,
    trials=10,
    seed=3,
)


def test_trial_deterministic_per_seed():
    a = run_trial(DESK, 1234)
    b = run_trial(DESK, 1234)
    assert a == b
    c = run_trial(DESK, 1235)
    assert a != c


def test_run_trials_reproducible():
    r1 = run_trials(DESK)
    r2 = run_trials(DESK)
    assert r1 == r2
    assert len(r1) == DESK.trials


def test_sufficient_budget_arms_identical():
    cfg = ExperimentConfig(
        tile_count=16,
        subcarriers=256,
        spacing_hz=1.5625e6,
        frames=16,
        trials=8,
        seed=5,
    )
    for r in run_trials(cfg):
        if not (r.censored_proposed or r.censored_baseline):
            assert r.error_proposed == pytest.approx(r.error_baseline, rel=1e-12)


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def test_bootstrap_shortfall_censors_proposed_arm(monkeypatch):
    from ris_nfloc import harness
    from ris_nfloc.labeling import BootstrapError

    plain = run_trial(DESK, 1234)
    monkeypatch.setattr(harness, "run_spl", _raise(BootstrapError("too few")))
    r = run_trial(DESK, 1234)
    assert r.censored_proposed
    assert np.isnan(r.error_proposed)
    assert (r.label_acc_proposed, r.labeled_proposed) == (0.0, 0)
    # the baseline arm and the bound do not depend on the labeler
    assert r.error_baseline == plain.error_baseline
    assert r.peb == plain.peb
    rows = heatmap(replace(DESK, trials=1), 5.0)
    assert all(np.isnan(rmse) for _, _, rmse in rows)


def test_failed_fit_censors_proposed_arm_with_its_best_estimate(monkeypatch):
    from ris_nfloc import harness
    from ris_nfloc.tdoa import PositionEstimationError

    plain = run_trial(DESK, 1234)
    assert not plain.censored_baseline
    seen = {}
    observe = harness.observe

    def observe_ue(cfg, ue, rng):
        seen["ue"] = ue
        return observe(cfg, ue, rng)

    def fail(toa_groups, assignment, dep, min_toa_gap):
        seen["p"] = seen["ue"] + np.array([0.3, -0.4, 0.0])
        raise PositionEstimationError("no convergence", best_estimate=seen["p"])

    monkeypatch.setattr(harness, "observe", observe_ue)
    monkeypatch.setattr(harness, "run_spl", fail)
    r = run_trial(DESK, 1234)
    assert r.censored_proposed
    assert r.error_proposed == float(np.linalg.norm(seen["p"] - seen["ue"]))
    assert (r.label_acc_proposed, r.labeled_proposed) == (0.0, 0)
    # the baseline arm and the bound do not depend on the labeler
    assert r == replace(
        plain,
        error_proposed=r.error_proposed,
        label_acc_proposed=0.0,
        labeled_proposed=0,
        censored_proposed=True,
    )
    rows = heatmap(replace(DESK, trials=1), 5.0)
    assert all(np.isnan(rmse) for _, _, rmse in rows)


def test_too_few_baseline_labels_censor_only_the_baseline_arm(monkeypatch):
    from ris_nfloc import harness

    plain = run_trial(DESK, 1234)
    assert not plain.censored_proposed
    two = ([(2e-8, 1), (1e-8, 2)], [1.0, 1.0])
    monkeypatch.setattr(harness, "label_baseline_dft", lambda *args: two)
    r = run_trial(DESK, 1234)
    assert r.censored_baseline
    assert np.isnan(r.error_baseline)
    assert (r.label_acc_baseline, r.labeled_baseline) == (0.0, 0)
    # the proposed arm and the bound do not depend on the baseline
    for name in (
        "error_proposed", "label_acc_proposed", "labeled_proposed",
        "censored_proposed", "peb",
    ):
        assert getattr(r, name) == getattr(plain, name), name


def test_unnamed_value_error_propagates(monkeypatch):
    from ris_nfloc import harness

    monkeypatch.setattr(harness, "run_spl", _raise(ValueError("a bug")))
    with pytest.raises(ValueError, match="a bug"):
        run_trial(DESK, 1234)
    with pytest.raises(ValueError, match="a bug"):
        heatmap(replace(DESK, trials=1), 5.0)


def test_labeler_arms_never_read_the_truth():
    # an observation stripped of its scene, true delays and cascade scores
    # every arm the same; full scale at L = 32 labels shared groups too
    from ris_nfloc.harness import ARMS, _arm, _draw_ue, observe

    shared_labeled = False
    for cfg in (DESK, ExperimentConfig(frames=32)):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            ue = _draw_ue(cfg, rng)
            obs = observe(cfg, ue, rng)
            blind = replace(obs, scene=None, true_toas=None, cascade=None)
            for name, label in ARMS.items():
                entries, error, censored = _arm(label, cfg, obs, ue)
                blind_entries, blind_error, blind_censored = _arm(label, cfg, blind, ue)
                assert blind_entries == entries
                assert np.array_equal(blind_error, error, equal_nan=True)
                assert blind_censored == censored
                if name == "proposed":
                    shared_labeled |= len(entries) > obs.assignment.k0_size
    assert shared_labeled


def test_baseline_fixed_order_labels():
    from ris_nfloc.psp import assign
    from ris_nfloc.spectrum import ToaGroups

    assignment = assign(6, 5, 3)
    shared = [i for i, t in assignment.groups.items() if len(t) > 1]
    toas = {i: np.array([3e-8, 2e-8])[: len(assignment.groups[i])] for i in shared}
    mags = {i: np.ones(len(assignment.groups[i])) for i in shared}
    groups = ToaGroups(toas=toas, magnitudes=mags)
    entries, _ = label_baseline_dft(groups, assignment)
    for i in shared:
        tiles = sorted(assignment.groups[i])
        got = [k for tau, k in entries if k in tiles]
        assert got == tiles  # ascending index against descending delay


def test_label_accuracy_bounds():
    for r in run_trials(DESK):
        assert 0.0 <= r.label_acc_proposed <= 1.0
        assert 0.0 <= r.label_acc_baseline <= 1.0


def test_proposed_labeling_beats_baseline_in_median():
    results = run_trials(ExperimentConfig(
        tile_count=16, subcarriers=256, spacing_hz=1.5625e6, frames=8,
        trials=30, seed=11,
    ))
    acc_p = np.median([r.label_acc_proposed for r in results])
    acc_b = np.median([r.label_acc_baseline for r in results])
    assert acc_p >= acc_b


def test_summarize_censoring_fields():
    results = run_trials(DESK)
    point = summarize(DESK, results, 8.0, 1.23)
    assert point.sweep_value == 8.0
    assert point.wall_time_s == 1.23
    assert 0.0 <= point.censored_fraction <= 1.0
    assert np.isfinite(point.rmse_proposed)


def _result(censored, acc):
    return TrialResult(
        error_proposed=float("nan") if censored else 0.2,
        error_baseline=1.0,
        label_acc_proposed=acc,
        label_acc_baseline=0.5,
        labeled_proposed=0 if censored else 16,
        labeled_baseline=16,
        censored_proposed=censored,
        censored_baseline=False,
        peb=0.3,
    )


def test_summarize_label_accuracy_skips_censored_trials():
    # a censored trial carries accuracy 0.0, which labeled nothing wrong
    results = [_result(False, 1.0), _result(True, 0.0), _result(False, 0.5)]
    assert summarize(DESK, results, 8.0, 0.0).label_acc == 0.75
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = summarize(DESK, [_result(True, 0.0)] * 2, 8.0, 0.0)
    assert np.isnan(point.label_acc)


def test_apply_sweep_value():
    cfg = apply_sweep_value(DESK, "K", 8)
    assert cfg.tile_count == 8
    cfg = apply_sweep_value(DESK, "L", 16)
    assert cfg.frames == 16
    cfg = apply_sweep_value(DESK, "B", 5e7)
    assert cfg.bandwidth_hz == pytest.approx(5e7)
    with pytest.raises(ConfigError):
        apply_sweep_value(DESK, "Z", 1)
    # K counts tiles: a fraction is rejected, not truncated
    with pytest.raises(ConfigError):
        apply_sweep_value(DESK, "K", 16.7)


def test_sweep_checks_every_point_before_the_first_trial(monkeypatch):
    from ris_nfloc import harness

    calls = []
    monkeypatch.setattr(harness, "run_trials", lambda *a, **k: calls.append(a))
    # L = 4 leaves no slope for the shared groups of the desk assignment
    with pytest.raises(ConfigError):
        sweep(DESK, "L", [8, 4])
    assert calls == []


def test_sweep_rows_and_csv(tmp_path):
    cfg = ExperimentConfig(
        tile_count=16, subcarriers=256, spacing_hz=1.5625e6, frames=8,
        trials=4, seed=2,
    )
    table = sweep(cfg, "L", [8, 16])
    assert len(table.points) == 2
    path = tmp_path / "sweep.csv"
    write_sweep_csv(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sweep_value,rmse_proposed,rmse_baseline,peb,label_acc"
    assert len(lines) == 3


def test_cdf_and_csv(tmp_path):
    errors = [0.5, 0.1, np.nan, 0.3]
    samples = cdf(errors)
    assert np.allclose(samples, [0.1, 0.3, 0.5])
    path = tmp_path / "cdf.csv"
    write_cdf_csv(errors, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "error_m,cum_prob"
    assert lines[-1].split(",")[1] == "1"


def test_constant_error_cdf_is_step():
    samples = cdf([0.2, 0.2, 0.2])
    assert np.all(samples == 0.2)


def test_heatmap_grid_count(tmp_path):
    cfg = ExperimentConfig(
        tile_count=8, subcarriers=128, spacing_hz=3.125e6, frames=8,
        trials=1, seed=1,
    )
    rows = heatmap(cfg, 5.0)
    assert len(rows) == 4  # 2 x 2 cells over the 10 x 10 floor
    xs = sorted({r[0] for r in rows})
    assert xs == [2.5, 7.5]
    path = tmp_path / "heatmap.csv"
    write_heatmap_csv(rows, path)
    assert path.read_text().startswith("x,y,rmse")
    for resolution in (0.0, float("nan")):
        with pytest.raises(ConfigError):
            heatmap(cfg, resolution)


def test_trials_csv(tmp_path):
    results = run_trials(DESK)
    path = tmp_path / "trials.csv"
    write_trials_csv(results, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + DESK.trials


_THIRD = 1.0 / 3.0
_NAN = float("nan")
_SWEEP_POINT = SweepPoint(
    sweep_value=4e8, rmse_proposed=_THIRD, rmse_baseline=_NAN, peb=1.5e-13,
    label_acc=1.0, censored_fraction=0.5, wall_time_s=_THIRD,
)
_TRIAL = TrialResult(
    error_proposed=_THIRD, error_baseline=_NAN, label_acc_proposed=1.0,
    label_acc_baseline=0.0, labeled_proposed=4, labeled_baseline=0,
    censored_proposed=False, censored_baseline=True, peb=np.float64(2.5e-3),
)


@pytest.mark.parametrize(
    "write, expected",
    [
        (
            lambda p: write_trials_csv([_TRIAL, _TRIAL], p),
            b"trial,error_proposed_m,error_baseline_m,label_acc_proposed,"
            b"label_acc_baseline,censored_proposed,censored_baseline,peb_m\r\n"
            b"0,0.333333333333,nan,1,0,0,1,0.0025\r\n"
            b"1,0.333333333333,nan,1,0,0,1,0.0025\r\n",
        ),
        (
            lambda p: write_sweep_csv(MetricsTable("B", (_SWEEP_POINT,)), p),
            b"sweep_value,rmse_proposed,rmse_baseline,peb,label_acc\r\n"
            b"400000000,0.333333333333,nan,1.5e-13,1\r\n",
        ),
        (
            lambda p: write_cdf_csv([2.0, _NAN, _THIRD], p),
            b"error_m,cum_prob\r\n0.333333333333,0.5\r\n2,1\r\n",
        ),
        (
            lambda p: write_heatmap_csv([(0.5, 1.5, _THIRD), (2.5, 1.5, _NAN)], p),
            b"x,y,rmse\r\n0.5,1.5,0.333333333333\r\n2.5,1.5,nan\r\n",
        ),
        (
            lambda p: write_timing_csv(
                [("spectrum_fft", 256, _THIRD * 1e-3), ("spectrum_fft", 512, 1.5)], p
            ),
            b"stage,size,seconds\r\nspectrum_fft,256,0.000333333\r\n"
            b"spectrum_fft,512,1.5\r\n",
        ),
    ],
    ids=["trials", "sweep", "cdf", "heatmap", "timing"],
)
def test_csv_writers_bytes(tmp_path, write, expected):
    path = tmp_path / "out.csv"
    write(path)
    assert path.read_bytes() == expected


def test_rmse_improves_with_frame_budget():
    cfg = ExperimentConfig(
        tile_count=16, subcarriers=256, spacing_hz=1.5625e6, frames=8,
        trials=40, seed=13,
    )
    table = sweep(cfg, "L", [8, 16])
    assert table.points[1].rmse_proposed <= table.points[0].rmse_proposed


def test_full_labeling_never_worse_than_bootstrap_median():
    # statistical contract: the group-by-group refinement cannot lose to the
    # bare anchor fix in the median
    from ris_nfloc.bounds import cascade_snrs  # noqa: F401  (import sanity)
    from ris_nfloc.channel import MultipathConfig, realize_channel
    from ris_nfloc.geometry import build_scene, toa_vector
    from ris_nfloc.labeling import run_spl
    from ris_nfloc.spectrum import extract_toas, spectrum_2d
    from ris_nfloc.waveform import synthesize_frames

    cfg = ExperimentConfig(
        tile_count=16, subcarriers=256, spacing_hz=1.5625e6, frames=8,
        trials=30, seed=17,
    )
    errs_boot, errs_full = [], []
    for t in range(cfg.trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0, t))
        )
        ue = np.array([rng.uniform(0.5, 9.4), rng.uniform(0.5, 9.4), 0.0])
        scene = build_scene(
            cfg.layout(), np.asarray(cfg.bs_position_m, dtype=float), ue,
            t0=rng.uniform(0, cfg.clock_uncertainty_s),
            phi0=rng.uniform(0, 2 * np.pi), wavelength=cfg.wavelength_m,
        )
        channel = realize_channel(
            scene, cfg.wavelength_m,
            MultipathConfig(j_paths=3, seed=int(rng.integers(2**63))),
            cfg.deployment.forward,
        )
        cascade = channel.cascade / np.mean(np.abs(channel.cascade))
        assignment = cfg.assignment()
        frames = synthesize_frames(
            toa_vector(scene), cascade, assignment, cfg.waveform_config(),
            noise_seed=int(rng.integers(2**63)),
        )
        groups = extract_toas(spectrum_2d(frames, cfg.oversampling), assignment)
        try:
            _, p_boot, _ = run_spl(
                groups, assignment, cfg.deployment, min_toa_gap=np.inf
            )
            _, p_full, _ = run_spl(
                groups, assignment, cfg.deployment,
                min_toa_gap=cfg.resolvability_margin / cfg.bandwidth_hz,
            )
        except Exception:
            continue
        errs_boot.append(np.linalg.norm(p_boot - ue))
        errs_full.append(np.linalg.norm(p_full - ue))
    assert np.median(errs_full) <= np.median(errs_boot) * 1.05


def test_timing_benchmark_smoke(tmp_path):
    rows, exponent = timing_benchmark(DESK, sizes=(64, 128, 256))
    stages = {stage for stage, _, _ in rows}
    assert stages == {"spectrum_fft"}
    assert all(seconds > 0 for _, _, seconds in rows)
    path = tmp_path / "timing.csv"
    write_timing_csv(rows, path)
    assert path.read_text().startswith("stage,size,seconds")
    assert np.isfinite(exponent)


# (error_proposed, error_baseline) of the first seed-1 trials with descents
# run until an accepted move is shorter than 1e-11 m; the 10 nm step test
# agrees with them to 1e-6 m, and a step test that stops early does not
SEED_1_ERRORS = {
    "desk": [
        (1.125496503446333, 1.5860830762945775),
        (0.021935060371923634, 2.1556403804551163),
        (0.16972599066655875, 2.024727226874202),
        (1.132992223938977, 8.355513770375373),
        (1.5782980763415386, 2.890339891149738),
        (0.04839421632544929, 2.833382898926378),
        (0.5456405148681295, 7.747479705575467),
        (0.3184673852364991, 8.950211792160207),
        (0.3009668825746856, 3.9172450062523656),
        (0.7572541714799623, 3.3994384693056703),
    ],
    "full": [
        (0.05027754470340537, 1.5860830762945775),
        (0.046360421077903446, 4.740510942376408),
        (0.011629225366905785, 2.024727226874202),
        (0.06784860149785026, 8.375792419402513),
        (0.10316660169682414, 3.668766511442268),
    ],
}


@pytest.mark.parametrize("name", ["desk", "full"])
def test_seed_1_fixes_agree_with_the_longer_descents(name):
    expected = np.array(SEED_1_ERRORS[name])
    cfg = replace(DESK, seed=1) if name == "desk" else ExperimentConfig(seed=1)
    results = run_trials(replace(cfg, trials=len(expected)))
    assert not any(r.censored_proposed or r.censored_baseline for r in results)
    errors = np.array([(r.error_proposed, r.error_baseline) for r in results])
    np.testing.assert_allclose(errors, expected, rtol=0, atol=1e-6)


@pytest.mark.parametrize("name", ["desk", "full"])
def test_fixes_of_one_snr_do_not_depend_on_the_gain_scale(name):
    # scaling the cascade by alpha and the noise power by alpha**2 keeps every
    # SNR, label and bound, and the solve weighs each arrival relative to the
    # reference arrival, so the fixes agree; the tolerance leaves room for the
    # descent's 10 nm step test and the flat direction of desk's anchors
    base = replace(DESK, seed=1) if name == "desk" else ExperimentConfig(seed=1)
    base = replace(base, trials=20)

    def at_scale(alpha):
        return run_trials(check_config(replace(
            base, gain_reference=base.gain_reference * alpha,
            noise_dbm=base.noise_dbm + 20.0 * np.log10(alpha),
        )))

    fields = ("censored_proposed", "censored_baseline",
              "label_acc_proposed", "label_acc_baseline")
    unit = at_scale(1.0)
    for alpha in (1e-6, 1e30):
        scaled = at_scale(alpha)
        for r, u in zip(scaled, unit):
            assert [getattr(r, f) for f in fields] == [getattr(u, f) for f in fields]
        np.testing.assert_allclose(
            [(r.error_proposed, r.error_baseline) for r in scaled],
            [(u.error_proposed, u.error_baseline) for u in unit], rtol=0, atol=1e-5,
        )
