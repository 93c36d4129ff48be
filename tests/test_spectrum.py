from dataclasses import replace

import numpy as np
import pytest

from ris_nfloc import kernels
from ris_nfloc.psp import assign
from ris_nfloc.spectrum import (
    SpectrumMap,
    ToaGroups,
    extract_toas,
    quadratic_refine,
    spectrum_2d,
)
from ris_nfloc.waveform import FrameMatrix, WaveformConfig, frames_from_paths


def small_cfg(n=64, l=8, noise=0.0, spacing=1e6):
    return WaveformConfig(
        n_subcarriers=n,
        spacing=spacing,
        carrier=1e9,
        tx_power=0.2,
        noise_psd=noise,
        l_frames=l,
    )


def grid_path(cfg, q, u_star, v_star, amp=1.0):
    """Single path exactly on the oversampled grid."""
    n_bar = q * cfg.n_subcarriers
    tau = u_star / (n_bar * cfg.spacing)
    beta = v_star / cfg.l_frames
    return tau, beta, frames_from_paths([tau], [beta], [amp], cfg)


def test_on_grid_peak_location_and_value():
    cfg = small_cfg()
    q = 4
    tau, beta, frames = grid_path(cfg, q, 40, 3)
    spec = spectrum_2d(frames, q)
    mag = np.abs(spec.grid)
    u, v = np.unravel_index(np.argmax(mag), mag.shape)
    assert (u, v) == (40, 3)
    # geometric series collapses to N*L in-phase terms of height P/N
    expected = cfg.tx_power / cfg.n_subcarriers * cfg.n_subcarriers * cfg.l_frames
    assert mag[u, v] == pytest.approx(expected, rel=1e-12)


def test_zero_frames_zero_map():
    cfg = small_cfg()
    frames = FrameMatrix(s=np.zeros((64, 8), dtype=complex), config=cfg)
    spec = spectrum_2d(frames, 4)
    assert np.all(spec.grid == 0)


def test_fft_matches_dense_sum():
    rng = np.random.default_rng(0)
    cfg = small_cfg(n=48, l=8)
    s = rng.standard_normal((48, 8)) + 1j * rng.standard_normal((48, 8))
    frames = FrameMatrix(s=s, config=cfg)
    for q in (1, 2, 4):
        fast = spectrum_2d(frames, q)
        dense = kernels.idft2_dense(s, fast.n_bar)
        rel = np.max(np.abs(fast.grid - dense)) / np.max(np.abs(dense))
        assert rel < 1e-9


def test_samples_are_frame_axis_dft():
    rng = np.random.default_rng(1)
    cfg = small_cfg(n=48, l=6)
    s = rng.standard_normal((48, 6)) + 1j * rng.standard_normal((48, 6))
    frames = FrameMatrix(s=s, config=cfg)
    expected = np.zeros((48, 6), dtype=complex)
    for v in range(6):
        for ell in range(1, 7):  # 1-based frame index
            expected[:, v] += s[:, ell - 1] * np.exp(-2j * np.pi * ell * v / 6)
    spec = spectrum_2d(frames, 2)
    rel = np.max(np.abs(spec.samples - expected)) / np.max(np.abs(expected))
    assert rel < 1e-12
    with pytest.raises(ValueError):
        replace(spec, samples=spec.samples[:-1])


def test_parseval_with_zero_padding():
    rng = np.random.default_rng(3)
    cfg = small_cfg(n=32, l=8)
    s = rng.standard_normal((32, 8)) + 1j * rng.standard_normal((32, 8))
    frames = FrameMatrix(s=s, config=cfg)
    spec = spectrum_2d(frames, 4)
    lhs = np.sum(np.abs(spec.grid) ** 2)
    rhs = spec.n_bar * cfg.l_frames * np.sum(np.abs(s) ** 2)
    assert abs(lhs - rhs) / rhs < 1e-9


def test_two_separated_paths_two_maxima():
    cfg = small_cfg()
    q = 4
    n_bar = q * 64
    # same slope, delays two resolution cells apart
    u1, u2, v = 60, 60 + 2 * q, 2
    taus = np.array([u1, u2]) / (n_bar * cfg.spacing)
    frames = frames_from_paths(taus, [v / 8, v / 8], [1.0, 0.8], cfg)
    spec = spectrum_2d(frames, q)
    col = np.abs(spec.grid[:, v])
    peaks = [
        u
        for u in range(n_bar)
        if col[u] > col[u - 1] and col[u] >= col[(u + 1) % n_bar]
        and col[u] > 0.4 * col.max()
    ]
    assert len(peaks) >= 2
    found = sorted(peaks, key=lambda u: -col[u])[:2]
    assert {min(found), max(found)} == {u1, u2}


def test_extract_exact_on_grid():
    cfg = small_cfg()
    q = 4
    assignment = assign(3, 8, 3)
    n_bar = q * 64
    u_stars = {i: 30 + 10 * i for i in assignment.groups}
    taus, betas = [], []
    for i, tiles in sorted(assignment.groups.items()):
        taus.append(u_stars[i] / (n_bar * cfg.spacing))
        betas.append(i / 8)
    frames = frames_from_paths(taus, betas, np.ones(3), cfg)
    spec = spectrum_2d(frames, q)
    groups = extract_toas(spec, assignment)
    for i in assignment.groups:
        assert groups.toas[i][0] == pytest.approx(
            u_stars[i] / (n_bar * cfg.spacing), abs=1e-18
        )


def test_extract_off_grid_within_half_bin():
    cfg = small_cfg()
    q = 4
    assignment = assign(3, 8, 3)
    rng = np.random.default_rng(7)
    n_bar = q * 64
    bin_s = 1.0 / (n_bar * cfg.spacing)
    for _ in range(10):
        taus = []
        betas = []
        for i in sorted(assignment.groups):
            taus.append((rng.uniform(20, 120)) * bin_s)  # within half a period
            betas.append(i / 8)
        frames = frames_from_paths(taus, betas, np.ones(3), cfg)
        spec = spectrum_2d(frames, q)
        groups = extract_toas(spec, assignment)
        for idx, i in enumerate(sorted(assignment.groups)):
            assert abs(groups.toas[i][0] - taus[idx]) <= bin_s / 2 + 1e-15


def test_under_detection_flag():
    cfg = small_cfg(l=3)
    q = 4
    # two tiles share one slope but their delays nearly coincide
    assignment = assign(4, 3, 2)
    shared = [i for i, t in assignment.groups.items() if len(t) == 2][0]
    n_bar = q * 64
    bin_s = 1.0 / (n_bar * cfg.spacing)
    taus, betas = [], []
    for i, tiles in sorted(assignment.groups.items()):
        for j, _ in enumerate(tiles):
            base = 100 * bin_s if i == shared else (140 + 30 * i) * bin_s
            taus.append(base + j * 0.4 / cfg.bandwidth)
            betas.append(i / 3)
    frames = frames_from_paths(taus, betas, np.ones(len(taus)), cfg)
    spec = spectrum_2d(frames, q)
    groups = extract_toas(spec, assignment, threshold_factor=30.0)
    assert shared in groups.under_detected
    assert shared not in groups.toas


def _wrapped_shared_case(cfg, q, shared_bins, other_bins):
    """Frames with the shared group and the exclusive tiles at given bins."""
    assignment = assign(4, 3, 2)
    shared = [i for i, t in assignment.groups.items() if len(t) == 2][0]
    bin_s = 1.0 / (q * cfg.n_subcarriers * cfg.spacing)
    period = 1.0 / cfg.spacing
    others = iter(other_bins)
    taus, betas = [], []
    for i, tiles in sorted(assignment.groups.items()):
        bins = shared_bins if i == shared else [next(others)]
        taus += [np.mod(b * bin_s, period) for b in bins]
        betas += [i / 3] * len(tiles)
    frames = frames_from_paths(taus, betas, np.ones(4), cfg)
    by_group = np.round(3 * np.array(betas)).astype(int)
    return assignment, shared, np.array(taus), by_group, spectrum_2d(frames, q)


def _assert_same_groups(got, want):
    assert got.under_detected == want.under_detected
    assert got.toas.keys() == want.toas.keys()
    for i in want.toas:
        assert np.array_equal(got.toas[i], want.toas[i])
        assert np.array_equal(got.magnitudes[i], want.magnitudes[i])


def test_pencil_resolves_shared_group_across_period_wrap():
    cfg = small_cfg(l=3)
    q = 4
    n_bar = q * 64
    bin_s = 1.0 / (n_bar * cfg.spacing)
    period = 1.0 / cfg.spacing
    # 1.3/B apart, straddling the wrap: one mainlobe hump for a peak picker
    start = n_bar - 2.3
    assignment, shared, taus, by_group, spec = _wrapped_shared_case(
        cfg, q, [start, start + 1.3 * q], [n_bar - 5.3, 7.1]
    )
    groups = extract_toas(spec, assignment)
    assert shared not in groups.under_detected
    unwrapped = np.where(taus < period / 2, taus + period, taus)
    for i in assignment.groups:
        truth = np.sort(unwrapped[by_group == i])
        got = np.sort(groups.toas[i])
        tol = 1e-6 if i == shared else 0.05  # pencil vs parabola
        assert np.max(np.abs(got - truth)) < tol * bin_s
    # 0.6/B apart across the wrap: the circular gap is below 1/B, so the
    # group keeps the peak-picker result
    assignment, _, _, _, spec = _wrapped_shared_case(
        cfg, q, [start, start + 0.6 * q], [n_bar - 5.3, 7.1]
    )
    _assert_same_groups(
        extract_toas(spec, assignment),
        extract_toas(replace(spec, samples=None), assignment),
    )


def test_pencil_resolves_group_the_peak_picker_under_detects():
    cfg = small_cfg(l=3)
    q = 4
    assignment = assign(4, 3, 2)
    shared = [i for i, t in assignment.groups.items() if len(t) == 2][0]
    bin_s = 1.0 / (q * 64 * cfg.spacing)
    taus, betas, amps = [], [], []
    for i, tiles in sorted(assignment.groups.items()):
        for j, _ in enumerate(tiles):
            u = 100 + 1.1 * q * j if i == shared else 40 + 60 * i
            taus.append(u * bin_s)
            betas.append(i / 3)
            # 1.1/B apart in quadrature: one hump, no second admissible peak
            amps.append(-1j if i == shared and j == 1 else 1.0)
    spec = spectrum_2d(frames_from_paths(taus, betas, amps, cfg), q)
    picked = extract_toas(
        replace(spec, samples=None), assignment, threshold_factor=30.0
    )
    assert shared in picked.under_detected
    groups = extract_toas(spec, assignment, threshold_factor=30.0)
    assert shared not in groups.under_detected
    truth = np.sort([t for t, b in zip(taus, betas) if b == shared / 3])
    assert np.max(np.abs(np.sort(groups.toas[shared]) - truth)) < 1e-6 * bin_s
    # isolated-peak height of a unit path: L frames of P/N over N subcarriers
    assert groups.magnitudes[shared] == pytest.approx(
        [cfg.l_frames * cfg.tx_power] * 2, rel=1e-9
    )


def test_pencil_group_below_floor_keeps_peak_picker_result():
    cfg = small_cfg(l=3, noise=0.002)
    q = 4
    assignment = assign(4, 3, 2)
    shared = [i for i, t in assignment.groups.items() if len(t) == 2][0]
    bin_s = 1.0 / (q * 64 * cfg.spacing)
    taus, betas, amps = [], [], []
    for i, tiles in sorted(assignment.groups.items()):
        for j, _ in enumerate(tiles):
            u = 100 + 12 * q * j if i == shared else 40 + 60 * i
            taus.append((u + 0.3) * bin_s)
            betas.append(i / 3)
            amps.append(0.25 if i == shared and j == 1 else 1.0)
    frames = frames_from_paths(taus, betas, amps, cfg, np.random.default_rng(0))
    spec = spectrum_2d(frames, q)
    # the weak tile's fitted height sits below 6x the column median
    _assert_same_groups(
        extract_toas(spec, assignment),
        extract_toas(replace(spec, samples=None), assignment),
    )
    # under a lower floor the same fit is taken
    low = extract_toas(spec, assignment, threshold_factor=1.0)
    truth = np.sort([t for t, b in zip(taus, betas) if b == shared / 3])
    assert np.max(np.abs(np.sort(low.toas[shared]) - truth)) < bin_s


def test_noise_floor_median_matches_numpy_median(monkeypatch):
    # full-scale grid: a resolvable 4-tile group, an under-detected 3-tile
    # group whose delays lie within 0.4/B, two exclusive tiles; noisy frames
    cfg = small_cfg(n=3200, l=4, noise=2e-2)
    q = 4
    assignment = assign(9, 4, 2)
    bin_s = 1.0 / (q * cfg.n_subcarriers * cfg.spacing)
    taus, betas = [], []
    for i, tiles in sorted(assignment.groups.items()):
        for j, _ in enumerate(tiles):
            spread = {1: 9.0 * q, 2: 0.2 * q}.get(i, 0.0)
            taus.append((1000 + 2000 * i + spread * j + 0.37) * bin_s)
            betas.append(i / 4)
    rng = np.random.default_rng(4)
    for _ in range(3):
        frames = frames_from_paths(taus, betas, np.ones(len(taus)), cfg, rng)
        spec = spectrum_2d(frames, q)
        got = extract_toas(spec, assignment)
        with monkeypatch.context() as m:
            m.setattr(kernels, "median", lambda mag: float(np.median(mag)))
            want = extract_toas(spec, assignment)
        assert got.under_detected == {2}
        assert len(got.toas[1]) == 4
        _assert_same_groups(got, want)


def test_toas_sorted_descending_with_magnitudes():
    cfg = small_cfg(l=3)
    q = 4
    assignment = assign(4, 3, 2)
    shared = [i for i, t in assignment.groups.items() if len(t) == 2][0]
    n_bar = q * 64
    taus, betas, amps = [], [], []
    for i, tiles in sorted(assignment.groups.items()):
        for j, _ in enumerate(tiles):
            taus.append((60 + 40 * i + j * 16 * q) / (n_bar * cfg.spacing))
            betas.append(i / 3)
            amps.append(1.0 - 0.3 * j)
    frames = frames_from_paths(taus, betas, amps, cfg)
    spec = spectrum_2d(frames, q)
    groups = extract_toas(spec, assignment)
    arr = groups.toas[shared]
    assert len(arr) == 2 and arr[0] > arr[1]
    assert len(groups.magnitudes[shared]) == 2


def test_exact_groups_from_delays():
    assignment = assign(16, 8, 4)
    delays = np.random.default_rng(3).uniform(1e-8, 5e-8, 16)
    groups = ToaGroups.from_delays(delays, assignment)
    assert sorted(groups.toas) == sorted(assignment.groups)
    assert not groups.under_detected
    for i, tiles in assignment.groups.items():
        want = sorted((delays[k - 1] for k in tiles), reverse=True)
        np.testing.assert_array_equal(groups.toas[i], want)
        np.testing.assert_array_equal(groups.magnitudes[i], np.ones(len(tiles)))


def test_unwrap_recovers_differences_across_period():
    cfg = small_cfg(n=64, l=8, spacing=1.5625e6)  # period 640 ns
    q = 4
    assignment = assign(3, 8, 3)
    period = 1.0 / cfg.spacing
    # common clock offset pushes the set across the wrap boundary
    geo = np.array([40e-9, 52e-9, 64e-9])
    taus = np.mod(geo + 0.59e-6, period)
    assert taus.max() - taus.min() > period / 2  # the set straddles zero
    betas = [i / 8 for i in sorted(assignment.groups)]
    frames = frames_from_paths(taus, betas, np.ones(3), cfg)
    spec = spectrum_2d(frames, q)
    groups = extract_toas(spec, assignment)
    got = np.sort([groups.toas[i][0] for i in assignment.groups])
    diffs = np.diff(got)
    expected = np.diff(np.sort(geo))
    assert np.allclose(diffs, expected, atol=1.0 / (2 * q * cfg.bandwidth))


def test_quadratic_refine_symmetric_and_clamped():
    cfg = small_cfg(n=16, l=2)
    grid = np.zeros((64, 2))
    grid[10, 0] = 2.0
    grid[9, 0] = grid[11, 0] = 1.0
    spec = SpectrumMap(
        grid=grid.astype(complex), oversampling=4, n_bar=64, cfg=cfg
    )
    bin_s = spec.bin_seconds
    assert quadratic_refine(spec, 10, 0) == pytest.approx(10 * bin_s)
    # monotone neighborhood clamps to half a bin
    grid2 = np.zeros((64, 2), dtype=complex)
    grid2[9:12, 1] = [1.0, 2.0, 2.9]
    spec2 = SpectrumMap(grid=grid2, oversampling=4, n_bar=64, cfg=cfg)
    assert quadratic_refine(spec2, 10, 1) == pytest.approx((10 + 0.5) * bin_s)
    # flat neighborhood falls back to the bin center
    grid3 = np.ones((64, 2), dtype=complex)
    spec3 = SpectrumMap(grid=grid3, oversampling=4, n_bar=64, cfg=cfg)
    assert quadratic_refine(spec3, 20, 0) == pytest.approx(20 * bin_s)
    # edge bins are returned unrefined
    assert quadratic_refine(spec, 0, 0) == 0.0


def _refine_one(spec, u, v):
    # per-bin reference: the scalar parabola with its edge and flat fallbacks
    bin_s = spec.bin_seconds
    if not 1 <= u <= spec.n_bar - 2:
        return u * bin_s
    a, b, c = np.abs(spec.grid[u - 1 : u + 2, v])
    denom = a - 2.0 * b + c
    if abs(denom) < 1e-300:
        return u * bin_s
    return (u + float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))) * bin_s


def test_quadratic_refine_array_equals_per_bin_loop():
    cfg = small_cfg(n=16, l=2)
    rng = np.random.default_rng(12)
    grid = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    grid[20:24, 1] = 1.0  # a flat run
    spec = SpectrumMap(grid=grid, oversampling=4, n_bar=64, cfg=cfg)
    for v in (0, 1):
        bins = np.array([0, 1, 21, 22, 40, 62, 63, 5])
        got = quadratic_refine(spec, bins, v)
        ref = [_refine_one(spec, int(u), v) for u in bins]
        assert got.tolist() == ref  # bit for bit


def test_quadratic_refine_off_grid_accuracy():
    cfg = small_cfg()
    q = 4
    n_bar = q * 64
    bin_s = 1.0 / (n_bar * cfg.spacing)
    rng = np.random.default_rng(11)
    for _ in range(12):
        tau = rng.uniform(30, 220) * bin_s
        frames = frames_from_paths([tau], [0.25], [1.0], cfg)
        spec = spectrum_2d(frames, q)
        col = np.abs(spec.grid[:, 2])
        u = int(np.argmax(col))
        refined = quadratic_refine(spec, u, 2)
        assert abs(refined - tau) < 0.05 * bin_s
