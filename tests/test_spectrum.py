import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ris_nfloc import kernels, spectrum
from ris_nfloc.psp import assign
from ris_nfloc.spectrum import (
    SpectrumMap,
    ToaGroups,
    _pencil_groups,
    _unwrap_inplace,
    extract_toas,
    quadratic_refine,
    spectrum_2d,
)
from ris_nfloc.waveform import FrameMatrix, WaveformConfig, frames_from_paths


def small_cfg(n=64, l=8, noise=0.0, spacing=1e6):
    # ``noise`` is the noise power N0 against a transmit power P of 0.2: in
    # units of P the noise ratio is N0/P
    return WaveformConfig(
        n_subcarriers=n,
        spacing=spacing,
        carrier=1e9,
        noise_ratio=noise / 0.2,
        l_frames=l,
    )


def grid_map(grid, cfg, q=4):
    """A map of the magnitudes ``grid`` alone: its slope columns are zero,
    which only the pencil of a shared group reads."""
    samples = np.zeros((cfg.n_subcarriers, cfg.l_frames), dtype=complex)
    return SpectrumMap(grid=grid, oversampling=q, cfg=cfg, samples=samples)


def peak_picked(spec, assignment, threshold_factor=6.0):
    """extract_toas with the pencil accepting no group: every group keeps
    the peak-picker result."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectrum, "_pencil_groups", lambda spec, candidates: {})
        return extract_toas(spec, assignment, threshold_factor)


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
    mag = spec.grid
    u, v = np.unravel_index(np.argmax(mag), mag.shape)
    assert (u, v) == (40, 3)
    # geometric series collapses to N*L in-phase terms of height 1/N
    expected = 1.0 / cfg.n_subcarriers * cfg.n_subcarriers * cfg.l_frames
    assert mag[u, v] == pytest.approx(expected, rel=1e-12)


def test_zero_frames_zero_map():
    cfg = small_cfg()
    frames = FrameMatrix(s=np.zeros((64, 8), dtype=complex), config=cfg)
    spec = spectrum_2d(frames, 4)
    assert np.all(spec.grid == 0)


def block_transform(frames, q):
    """The complex (n_bar, L) transform whose magnitudes spectrum_2d keeps,
    assembled from its column blocks."""
    n, l = frames.s.shape
    out = np.empty((q * n, l), dtype=complex)
    for first, block in spectrum._column_blocks(frames.s, q):
        out[:, first : first + len(block)] = block.T
    return out


def one_shot_transform(frames, q):
    """One zero-padded FFT over all slope columns at once, subcarrier n at
    row n mod n_bar, as (L, n_bar)."""
    n, l = frames.s.shape
    padded = np.zeros((l, q * n), dtype=complex)
    padded[:, np.arange(1, n + 1) % (q * n)] = frames.s.T
    return np.fft.fft(padded, axis=1)


def test_fft_matches_dense_sum():
    rng = np.random.default_rng(0)
    cfg = small_cfg(n=48, l=8)
    s = rng.standard_normal((48, 8)) + 1j * rng.standard_normal((48, 8))
    frames = FrameMatrix.from_symbols(s, cfg)
    for q in (1, 2, 4):
        fast = block_transform(frames, q)
        dense = kernels.idft2_dense(s, q * 48)
        rel = np.max(np.abs(fast - dense)) / np.max(np.abs(dense))
        assert rel < 1e-9
        assert np.array_equal(spectrum_2d(frames, q).grid, np.abs(fast))


@pytest.mark.parametrize("q", [4, 1])  # at q = 1 subcarrier N wraps to row 0
def test_column_blocks_equal_one_shot_transform(q, monkeypatch):
    rng = np.random.default_rng(2)
    cfg = small_cfg(n=48, l=10)
    s = rng.standard_normal((48, 10)) + 1j * rng.standard_normal((48, 10))
    frames = FrameMatrix.from_symbols(s, cfg)
    # a budget of one 4-column group: 4 + 4 + 2, so L is not a multiple of
    # a block
    monkeypatch.setattr(spectrum, "_BLOCK_BYTES", 4 * 16 * q * 48)
    assert [len(b) for _, b in spectrum._column_blocks(frames.s, q)] == [4, 4, 2]
    whole = one_shot_transform(frames, q)
    assert block_transform(frames, q).T.tobytes() == whole.tobytes()
    assert spectrum_2d(frames, q).grid.T.tobytes() == np.abs(whole).tobytes()


def block_sizes(n, l, q=4):
    samples = np.zeros((n, l), dtype=complex)
    return [len(b) for _, b in spectrum._column_blocks(samples, q)]


def test_column_blocks_come_in_whole_groups_of_four():
    # full scale (n_bar = 12800): every FFT call transforms 4 columns
    for l in (16, 32, 64):
        assert block_sizes(3200, l) == [4] * (l // 4)
    # desk (n_bar = 1024, L = 8): one block of all columns
    assert block_sizes(256, 8) == [8]
    # bench's sizes at L = 16
    assert block_sizes(256, 16) == [16]
    assert block_sizes(1024, 16) == [16]
    assert block_sizes(2048, 16) == [12, 4]
    assert block_sizes(4096, 16) == [4, 4, 4, 4]


def test_spectrum_2d_holds_the_map_and_one_4_column_block():
    # full scale at L = 16: the float map and a 4-column complex block,
    # 8 * n_bar * L + 64 * n_bar = 2.46 MB; a 7-column block takes 3.07 MB
    cfg = small_cfg(n=3200, l=16)
    frames = FrameMatrix(s=np.ones((3200, 16), dtype=complex), config=cfg)
    tracemalloc.start()
    try:
        spec = spectrum_2d(frames, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * spec.n_bar * 16 + 64 * spec.n_bar + (64 << 10)


def test_spectrum_2d_never_holds_the_complex_grid():
    # full-scale columns at L = 64: the complex n_bar x L grid takes
    # 16 * n_bar * L = 13.1 MB, the float map half of that
    cfg = small_cfg(n=3200, l=64)
    frames = FrameMatrix(s=np.ones((3200, 64), dtype=complex), config=cfg)
    tracemalloc.start()
    try:
        spec = spectrum_2d(frames, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.grid.nbytes == 8 * spec.n_bar * 64
    assert peak < 16 * spec.n_bar * 64


def test_map_of_a_complex_grid_raises():
    cfg = small_cfg(n=16, l=2)
    with pytest.raises(ValueError, match="float64 magnitudes"):
        grid_map(np.ones((64, 2), dtype=complex), cfg)
    with pytest.raises(ValueError, match="float64 magnitudes"):
        grid_map(np.ones((64, 2), dtype=np.float32), cfg)


def test_samples_are_frame_axis_dft():
    rng = np.random.default_rng(1)
    cfg = small_cfg(n=48, l=6)
    s = rng.standard_normal((48, 6)) + 1j * rng.standard_normal((48, 6))
    frames = FrameMatrix.from_symbols(s, cfg)
    expected = np.zeros((48, 6), dtype=complex)
    for v in range(6):
        for ell in range(1, 7):  # 1-based frame index
            expected[:, v] += s[:, ell - 1] * np.exp(-2j * np.pi * ell * v / 6)
    spec = spectrum_2d(frames, 2)
    assert spec.samples is frames.s
    rel = np.max(np.abs(spec.samples - expected)) / np.max(np.abs(expected))
    assert rel < 1e-12
    with pytest.raises(ValueError):
        replace(spec, samples=spec.samples[:-1])


def test_parseval_with_zero_padding():
    rng = np.random.default_rng(3)
    cfg = small_cfg(n=32, l=8)
    s = rng.standard_normal((32, 8)) + 1j * rng.standard_normal((32, 8))
    frames = FrameMatrix.from_symbols(s, cfg)
    spec = spectrum_2d(frames, 4)
    lhs = np.sum(spec.grid**2)
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
    col = spec.grid[:, v]
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
    groups = extract_toas(spec, assignment, 6.0)
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
        groups = extract_toas(spec, assignment, 6.0)
        for idx, i in enumerate(sorted(assignment.groups)):
            assert abs(groups.toas[i][0] - taus[idx]) <= bin_s / 2 + 1e-15


def test_non_finite_column_raises_instead_of_under_detecting():
    # a NaN in a column makes its median NaN: no peak can be told from that
    # floor, so extraction fails rather than marking the group under-detected
    cfg = small_cfg()
    _, _, frames = grid_path(cfg, 4, 40, 3)
    spec = spectrum_2d(frames, 4)
    spec.grid[7, 3] = np.nan
    with pytest.raises(ValueError, match="slope column 3"):
        extract_toas(spec, assign(8, 8, 8), 6.0)


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
    groups = extract_toas(spec, assignment, 6.0)
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
        extract_toas(spec, assignment, 6.0),
        peak_picked(spec, assignment),
    )


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 12: the pencil aliases delays beyond ±16/B"
)
def test_pencil_returns_shared_pair_farther_apart_than_its_circle_half():
    # N = 64 gives D = 2 subcarriers per block, so the decimated poles tell
    # delays apart only on a circle of n_bar/D bins, 32/B: a partner 20/B from
    # the strongest peak comes back a whole circle off
    cfg = small_cfg(n=64, l=3)
    q = 4
    inv_b = 1.0 / (cfg.n_subcarriers * cfg.spacing)
    period = 1.0 / cfg.spacing
    assignment, shared, taus, by_group, spec = _wrapped_shared_case(
        cfg, q, [20.3, 20.3 + 20 * q], [50.7, 110.2]
    )
    groups = extract_toas(spec, assignment, 6.0)
    assert shared not in groups.under_detected
    got = groups.toas[shared]
    for truth in taus[by_group == shared]:
        folded = np.abs((got - truth + period / 2) % period - period / 2)
        assert folded.min() < 0.5 * inv_b


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
    picked = peak_picked(spec, assignment, threshold_factor=30.0)
    assert shared in picked.under_detected
    groups = extract_toas(spec, assignment, threshold_factor=30.0)
    assert shared not in groups.under_detected
    truth = np.sort([t for t, b in zip(taus, betas) if b == shared / 3])
    assert np.max(np.abs(np.sort(groups.toas[shared]) - truth)) < 1e-6 * bin_s
    # isolated-peak height of a unit path: L frames of 1/N over N subcarriers
    assert groups.magnitudes[shared] == pytest.approx([cfg.l_frames] * 2, rel=1e-9)


def test_pencil_adds_groups_in_ascending_size_order():
    cfg = small_cfg(l=4)
    q = 4
    assignment = assign(7, 4, 2)
    assert assignment.groups[1] == (2, 4, 6) and assignment.groups[2] == (3, 5)
    bin_s = 1.0 / (q * 64 * cfg.spacing)
    start = {1: 30, 2: 60, 3: 10, 4: 90}  # all within half a period: no unwrap
    taus, betas, amps = [], [], []
    for i, tiles in sorted(assignment.groups.items()):
        for j, _ in enumerate(tiles):
            # 1.1/B apart with phases a quarter turn apart: one hump per group
            taus.append((start[i] + 1.1 * q * j) * bin_s)
            betas.append(i / 4)
            amps.append((-1j) ** j)
    spec = spectrum_2d(frames_from_paths(taus, betas, amps, cfg), q)
    assert peak_picked(spec, assignment, threshold_factor=30.0).under_detected == {1, 2}
    groups = extract_toas(spec, assignment, threshold_factor=30.0)
    assert groups.under_detected == frozenset()
    # the peak picker's groups in group order, then the pencil's: the group of
    # two tiles before the group of three
    assert list(groups.toas) == list(groups.magnitudes) == [3, 4, 2, 1]
    for i in (1, 2):
        truth = np.sort([t for t, b in zip(taus, betas) if b == i / 4])
        assert np.max(np.abs(np.sort(groups.toas[i]) - truth)) < 1e-6 * bin_s


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
        extract_toas(spec, assignment, 6.0),
        peak_picked(spec, assignment),
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
        got = extract_toas(spec, assignment, 6.0)
        with monkeypatch.context() as m:
            m.setattr(kernels, "median", lambda mag: float(np.median(mag)))
            want = extract_toas(spec, assignment, 6.0)
        assert got.under_detected == {2}
        assert len(got.toas[1]) == 4
        _assert_same_groups(got, want)



def _extract_per_column(spec, assignment, threshold_factor=6.0):
    """extract_toas with every column decided by its median and peak scan,
    every peak refined on its own, and the unwrap and sort done per arrival:
    the reference for the one-tile shortcut and the batched steps."""
    l = assignment.l_frames
    toas, mags, under, shared = {}, {}, set(), []
    for i in sorted(assignment.groups):
        tiles = assignment.groups[i]
        v = i % l
        column = spec.grid[:, v]
        floor = kernels.median(column)
        if not np.isfinite(floor):
            raise ValueError(f"slope column {v} has a non-finite median magnitude")
        threshold = threshold_factor * floor
        peak_bins = np.nonzero(kernels.column_peak_mask(column, threshold))[0]
        order = np.lexsort((peak_bins, -column[peak_bins]))
        if len(tiles) >= 2 and len(peak_bins):
            shared.append((i, v, len(tiles), int(peak_bins[order[0]]), threshold))
        if len(peak_bins) < len(tiles):
            under.add(i)
            continue
        chosen = peak_bins[order[: len(tiles)]]
        toas[i] = np.array([quadratic_refine(spec, u, v) for u in chosen])
        mags[i] = column[chosen]
    for i, (tau, heights) in _pencil_groups(spec, shared).items():
        toas[i] = tau
        mags[i] = heights
        under.discard(i)
    # the joint unwrap and the descending sort written out on their own:
    # the spread of a list of every arrival, and an argsort of every group
    period = 1.0 / spec.cfg.spacing
    values = [t for arr in toas.values() for t in arr]
    if values and max(values) - min(values) > period / 2.0:
        for i, arr in toas.items():
            toas[i] = np.where(arr < period / 2.0, arr + period, arr)
    for i in toas:
        desc = np.argsort(-toas[i], kind="stable")
        toas[i] = toas[i][desc]
        mags[i] = mags[i][desc]
    return ToaGroups(toas=toas, magnitudes=mags, under_detected=frozenset(under))


def _assert_identical_groups(got, want):
    # bit for bit, dict order included
    assert got.under_detected == want.under_detected
    for field in ("toas", "magnitudes"):
        a, b = getattr(got, field), getattr(want, field)
        assert list(a) == list(b)
        for i in b:
            assert a[i].dtype == b[i].dtype
            assert a[i].tobytes() == b[i].tobytes()


@pytest.fixture
def shortcut_log(monkeypatch):
    """Decisions of kernels.strongest_peak during a test: True for each
    column it left to the median, False for each it decided."""
    log = []
    decide = kernels.strongest_peak

    def logged(mag, factor):
        peak = decide(mag, factor)
        log.append(peak is None)
        return peak

    monkeypatch.setattr(kernels, "strongest_peak", logged)
    return log


@pytest.mark.parametrize(
    "n, l, k, q, noise",
    [
        (256, 8, 16, 4, 3e-3),  # desk-like
        (3200, 16, 64, 4, 1e-2),  # full-like, five tiles per shared group
        (256, 16, 16, 4, 3e-3),  # L = K: every group holds one tile
        (256, 32, 16, 4, 3e-3),  # L > K
        (256, 8, 16, 1, 3e-3),  # oversampling 1
        (255, 8, 16, 3, 3e-3),  # odd n_bar = 765
        (256, 9, 16, 4, 3e-3),  # shared groups of 2 and of 3 tiles
    ],
)
def test_extract_toas_equals_per_column_reference(n, l, k, q, noise, shortcut_log):
    cfg = small_cfg(n=n, l=l, noise=noise)
    assignment = assign(k, l, 4)
    period = 1.0 / cfg.spacing
    for seed in range(4):
        rng = np.random.default_rng(seed)
        taus = rng.uniform(0.0, period, k)
        # strong to near the noise floor: some one-tile columns are decided
        # by their strongest bin, others need the median
        amps = np.exp(2j * np.pi * rng.uniform(size=k)) * rng.uniform(0.05, 1.0, k)
        frames = frames_from_paths(taus, assignment.beta, amps, cfg, rng)
        spec = spectrum_2d(frames, q)
        _assert_identical_groups(
            extract_toas(spec, assignment, 6.0), _extract_per_column(spec, assignment)
        )
    assert 0 < sum(shortcut_log) < len(shortcut_log)


def _one_tile_spectrum(column, l=4):
    """A map whose column 1 is ``column`` over quiet noise, with the
    assignment of one tile per slope."""
    cfg = small_cfg(n=len(column) // 4, l=l)
    rng = np.random.default_rng(21)
    grid = 0.01 * (rng.standard_normal((len(column), l)) + 1j)
    grid[:, 1] = column
    return grid_map(np.abs(grid), cfg), assign(l, l, l)


def test_plateau_across_the_wrap_falls_back(shortcut_log):
    # bins 0 and n_bar - 1 share the maximum: bin 0 does not beat its left
    # neighbor, so the peak is the last bin and the median decides
    column = 0.1 + 0.01 * np.random.default_rng(22).random(64)
    column[[0, -1]] = 5.0
    spec, assignment = _one_tile_spectrum(column)
    got = extract_toas(spec, assignment, 6.0)
    _assert_identical_groups(got, _extract_per_column(spec, assignment))
    assert shortcut_log[0] is True
    assert got.magnitudes[1].tolist() == [5.0]


def test_maximum_at_exactly_the_admissibility_floor(shortcut_log):
    rng = np.random.default_rng(23)
    # a four-bin plateau in the middle makes the median an order statistic
    parts = [rng.uniform(0.1, 0.6, 30), np.full(4, 0.646), rng.uniform(0.7, 1.0, 30)]
    column = rng.permutation(np.concatenate(parts))
    floor = kernels.median(column)
    assert floor == 0.646
    # a peak at exactly 6x the median is admissible and taken from its bin
    column[np.argmax(column)] = 6.0 * floor
    spec, assignment = _one_tile_spectrum(column)
    got = extract_toas(spec, assignment, 6.0)
    _assert_identical_groups(got, _extract_per_column(spec, assignment))
    assert shortcut_log[0] is False
    assert got.magnitudes[1].tolist() == [6.0 * floor]
    # one step below, no bin is admissible: the group is under-detected,
    # though the quotient of this peak by 6 rounds back up to the median
    below = np.nextafter(6.0 * floor, 0.0)
    assert below / 6.0 == floor
    column[np.argmax(column)] = below
    spec, assignment = _one_tile_spectrum(column)
    shortcut_log.clear()
    got = extract_toas(spec, assignment, 6.0)
    _assert_identical_groups(got, _extract_per_column(spec, assignment))
    assert shortcut_log[0] is True
    assert 1 in got.under_detected


def test_one_tile_column_with_an_inf_bin_matches_reference():
    # a single inf leaves the median finite: the inf bin is the peak
    column = np.random.default_rng(24).uniform(0.1, 1.0, 64)
    column[9] = np.inf
    spec, assignment = _one_tile_spectrum(column)
    _assert_identical_groups(
        extract_toas(spec, assignment, 6.0), _extract_per_column(spec, assignment)
    )


@pytest.mark.parametrize("fill", ["nan", "inf", "huge"])
def test_one_tile_column_without_finite_median_raises(fill):
    column = np.random.default_rng(25).uniform(0.1, 1.0, 64)
    if fill == "nan":
        column[30] = np.nan
    elif fill == "inf":
        column[:40] = np.inf
    else:
        # every bin beyond half the largest float: the sum of the two middle
        # values overflows, so the median is inf
        column = np.full(64, 1.6e308)
        column[5] = 1.7e308
    spec, assignment = _one_tile_spectrum(column)
    for extract in (extract_toas, _extract_per_column):
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="slope column 1 has a non-finite"):
                extract(spec, assignment, threshold_factor=1.0)


@pytest.mark.parametrize("factor", [0.0, -1.0, np.inf])
def test_factor_that_is_not_finite_and_positive_takes_the_median_path(
    factor, shortcut_log
):
    # the suite turns warnings into errors: no division by the factor runs
    cfg = small_cfg(noise=3e-3)
    assignment = assign(8, 8, 8)
    rng = np.random.default_rng(26)
    taus = rng.uniform(0.0, 1.0 / cfg.spacing, 8)
    frames = frames_from_paths(taus, assignment.beta, np.ones(8), cfg, rng)
    spec = spectrum_2d(frames, 4)
    _assert_identical_groups(
        extract_toas(spec, assignment, threshold_factor=factor),
        _extract_per_column(spec, assignment, threshold_factor=factor),
    )
    assert shortcut_log == [True] * 8


def test_all_zero_frames_leave_every_group_under_detected():
    # a zero map has no strict local maximum: no column yields a peak, the
    # one-tile shortcut declines (bin 0 ties its left neighbor), and no group
    # reaches the pencil
    cfg = small_cfg(n=256, l=8)
    frames = FrameMatrix(s=np.zeros((256, 8), dtype=complex), config=cfg)
    assignment = assign(16, 8, 4)
    groups = extract_toas(spectrum_2d(frames, 4), assignment, 6.0)
    assert groups.under_detected == frozenset(assignment.groups)
    assert groups.toas == {}
    assert groups.magnitudes == {}


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
    groups = extract_toas(spec, assignment, 6.0)
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
    groups = extract_toas(spec, assignment, 6.0)
    got = np.sort([groups.toas[i][0] for i in assignment.groups])
    diffs = np.diff(got)
    expected = np.diff(np.sort(geo))
    assert np.allclose(diffs, expected, atol=1.0 / (2 * q * cfg.bandwidth))


def test_quadratic_refine_symmetric_and_clamped():
    cfg = small_cfg(n=16, l=2)
    grid = np.zeros((64, 2))
    grid[10, 0] = 2.0
    grid[9, 0] = grid[11, 0] = 1.0
    spec = grid_map(grid, cfg)
    bin_s = spec.bin_seconds
    assert quadratic_refine(spec, 10, 0) == pytest.approx(10 * bin_s)
    # monotone neighborhood clamps to half a bin
    grid2 = np.zeros((64, 2))
    grid2[9:12, 1] = [1.0, 2.0, 2.9]
    spec2 = grid_map(grid2, cfg)
    assert quadratic_refine(spec2, 10, 1) == pytest.approx((10 + 0.5) * bin_s)
    # flat neighborhood falls back to the bin center
    grid3 = np.ones((64, 2))
    spec3 = grid_map(grid3, cfg)
    assert quadratic_refine(spec3, 20, 0) == pytest.approx(20 * bin_s)
    # the delay axis is periodic: an edge bin's neighbors wrap around
    grid4 = np.zeros((64, 2))
    grid4[[63, 0, 1], 0] = [1.0, 2.0, 1.5]
    grid4[[62, 63, 0], 1] = [1.5, 2.0, 1.0]
    spec4 = grid_map(grid4, cfg)
    assert quadratic_refine(spec4, 0, 0) == pytest.approx(bin_s / 6)
    assert quadratic_refine(spec4, 63, 1) == pytest.approx((63 - 1 / 6) * bin_s)


def _refine_one(spec, u, v):
    # per-bin reference: the scalar parabola on the periodic delay axis with
    # its flat fallback
    bin_s = spec.bin_seconds
    a, b, c = spec.grid[[(u - 1) % spec.n_bar, u, (u + 1) % spec.n_bar], v]
    denom = a - 2.0 * b + c
    if abs(denom) < 1e-300:
        return u * bin_s
    return (u + float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))) * bin_s


def test_quadratic_refine_array_equals_per_bin_loop():
    cfg = small_cfg(n=16, l=2)
    rng = np.random.default_rng(12)
    grid = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    grid[20:24, 1] = 1.0  # a flat run
    spec = grid_map(np.abs(grid), cfg)
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
        col = spec.grid[:, 2]
        u = int(np.argmax(col))
        refined = quadratic_refine(spec, u, 2)
        assert abs(refined - tau) < 0.05 * bin_s


@pytest.mark.parametrize("past", [0.3, -0.3])
def test_quadratic_refine_across_the_wrap(past):
    # a path 0.3 bins past the period boundary (or short of it) peaks on an
    # edge bin; its parabola takes the neighbor across the wrap
    cfg = small_cfg()
    q = 4
    n_bar = q * 64
    bin_s = 1.0 / (n_bar * cfg.spacing)
    tau = np.mod(past * bin_s, 1.0 / cfg.spacing)
    spec = spectrum_2d(frames_from_paths([tau], [0.25], [1.0], cfg), q)
    u = int(np.argmax(spec.grid[:, 2]))
    assert u in (0, n_bar - 1)
    refined = quadratic_refine(spec, u, 2)
    assert abs(refined - past * bin_s) < 0.05 * bin_s


def test_unwrap_keeps_a_refined_time_below_zero_beside_the_period_end():
    # one exclusive tile refines to just below 0, another sits just below
    # the period end; the set straddles zero, so the first moves up a period
    cfg = small_cfg()
    q = 4
    n_bar = q * 64
    bin_s = 1.0 / (n_bar * cfg.spacing)
    period = 1.0 / cfg.spacing
    assignment = assign(3, 8, 3)
    bins = {6: n_bar - 0.3, 7: n_bar - 20.4, 8: n_bar - 40.2}
    taus = [bins[i] * bin_s for i in sorted(assignment.groups)]
    betas = [i / 8 for i in sorted(assignment.groups)]
    spec = spectrum_2d(frames_from_paths(taus, betas, np.ones(3), cfg), q)
    raw = quadratic_refine(spec, 0, 6)
    assert -0.5 * bin_s < raw < 0.0
    groups = extract_toas(spec, assignment, 6.0)
    for i, tau in zip(sorted(assignment.groups), taus):
        assert groups.toas[i][0] == pytest.approx(tau, abs=0.05 * bin_s)
        assert groups.toas[i][0] < period
