import numpy as np
import pytest

from ris_nfloc.geometry import RisLayout, build_scene, toa_vector
from ris_nfloc.psp import assign
from ris_nfloc.waveform import (
    FrameMatrix,
    WaveformConfig,
    frames_from_paths,
    synthesize_frames,
)


def small_cfg(noise=0.0, n=64, l=8):
    return WaveformConfig(
        n_subcarriers=n,
        spacing=1e6,
        carrier=1e9,
        noise_ratio=noise,
        l_frames=l,
    )


def test_single_path_closed_form():
    # slope 2/8: the L frame ramps add up in slope column 2 alone
    cfg = small_cfg()
    tau, beta = 150e-9, 0.25
    frames = frames_from_paths([tau], [beta], [1.0], cfg)
    freqs = cfg.subcarrier_frequencies()
    n = 10
    expected = cfg.l_frames / cfg.n_subcarriers * np.exp(2j * np.pi * freqs[n - 1] * tau)
    assert frames.s[n - 1, 2] == pytest.approx(expected, rel=1e-12)
    assert not np.any(np.delete(frames.s, 2, axis=1))


def test_closed_form_matches_quadrature_demodulation():
    # a tile of cascade gain c re-radiates each subcarrier
    # x_m(t) = sqrt(1/N) exp(j2*pi*f_m*t) (unit transmit power) delayed by
    # tau and, in frame l,
    # ramped by exp(-j2*pi*beta*l); the conjugate demodulator averages
    # conj(rx)*x_n over one frame of 1/spacing.  Left-rule quadrature is exact
    # for that band-limited product, and the closed form takes conj(c)
    cfg = WaveformConfig(
        n_subcarriers=4, spacing=1e6, carrier=1e7, noise_ratio=0.0,
        l_frames=2,
    )
    tau, beta, cascade = 123e-9, 0.5, 0.8 + 0.2j
    t = np.arange(64) / 64 / cfg.spacing
    freqs = cfg.subcarrier_frequencies()
    x = np.sqrt(1.0 / cfg.n_subcarriers) * np.exp(
        2j * np.pi * np.outer(freqs, t)
    )  # (N, samples)
    demods = np.empty((cfg.n_subcarriers, cfg.l_frames), dtype=complex)
    for ell in range(1, cfg.l_frames + 1):
        gain = cascade * np.exp(-2j * np.pi * beta * ell)
        rx = gain * (np.exp(-2j * np.pi * freqs * tau) @ x)
        demods[:, ell - 1] = np.mean(np.conj(rx) * x, axis=1)
    quadrature = FrameMatrix.from_symbols(demods, cfg).s
    closed_form = frames_from_paths([tau], [beta], [np.conj(cascade)], cfg).s
    assert np.max(np.abs(quadrature - closed_form)) <= 1e-9


def test_unmodulated_profile_frame_independent():
    # slope 1 is a constant ramp: frame-independent paths fill column 0 only
    cfg = small_cfg()
    frames = frames_from_paths([100e-9, 210e-9], [1.0, 1.0], [0.7, 0.2 - 0.4j], cfg)
    assert np.any(frames.s[:, 0])
    assert not np.any(frames.s[:, 1:])


def test_noise_variance_statistical():
    # zero signal: sample variance of the cells approaches L*nu/N, the
    # frame-domain variance nu/N summed over L frames
    cfg = small_cfg(noise=3e-3, n=100, l=10)
    rng = np.random.default_rng(0)
    draws = []
    for _ in range(100):  # 100 * 1000 cells
        frames = frames_from_paths([0.0], [0.5], [0.0], cfg, rng)
        draws.append(frames.s.ravel())
    cells = np.concatenate(draws)
    var = np.mean(np.abs(cells) ** 2)
    expected = cfg.l_frames * cfg.noise_ratio / cfg.n_subcarriers
    assert var == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize("k", [0, 1, 5])
def test_noise_equals_two_separate_draws(k):
    # the noise equals the slope columns of the drawn real block plus j times
    # the drawn imaginary block, scaled, added to the noiseless columns, bit
    # for bit
    cfg = small_cfg(noise=3e-3, n=67, l=5)
    paths = np.random.default_rng(k)
    taus = paths.uniform(0.0, 500e-9, k)
    betas = paths.integers(1, cfg.l_frames + 1, k) / cfg.l_frames
    amps = paths.standard_normal(k) + 1j * paths.standard_normal(k)
    clean = frames_from_paths(taus, betas, amps, cfg).s
    rng = np.random.default_rng(11)
    sigma = np.sqrt(cfg.noise_ratio / cfg.n_subcarriers / 2.0)
    symbols = np.empty(clean.shape, dtype=complex)
    symbols.real = sigma * rng.standard_normal(clean.shape)
    symbols.imag = sigma * rng.standard_normal(clean.shape)
    want = clean + FrameMatrix.from_symbols(symbols, cfg).s
    got = frames_from_paths(taus, betas, amps, cfg, np.random.default_rng(11)).s
    for part in ("real", "imag"):
        a, b = getattr(got, part), getattr(want, part)
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_linearity_in_cascade():
    cfg = small_cfg()
    taus = np.array([100e-9, 170e-9])
    betas = np.array([0.25, 0.75])
    a = frames_from_paths(taus, betas, [1.0, 0.0], cfg)
    b = frames_from_paths(taus, betas, [0.0, 0.5j], cfg)
    both = frames_from_paths(taus, betas, [1.0, 0.5j], cfg)
    assert np.allclose(both.s, a.s + b.s, rtol=1e-12)


def test_amplitude_bound():
    cfg = small_cfg()
    amps = np.array([0.5, 0.25 - 0.3j, 0.1j])
    frames = frames_from_paths(
        [100e-9, 140e-9, 300e-9], [0.25, 0.5, 0.75], amps, cfg
    )
    bound = cfg.l_frames / cfg.n_subcarriers * np.sum(np.abs(amps))
    assert np.max(np.abs(frames.s)) <= bound + 1e-15


def test_synthesize_frames_uses_scene_delays():
    layout = RisLayout(tile_count=3, tile_spacing=0.3, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0], t0=1e-7)
    assignment = assign(3, 4, 3)
    cfg = small_cfg(l=4)
    cascade = np.array([1.0, 0.5 - 0.2j, 0.3j])
    frames = synthesize_frames(toa_vector(scene), cascade, assignment, cfg, noise_seed=0)
    expected = frames_from_paths(
        toa_vector(scene), assignment.beta, np.conj(cascade), cfg
    )
    assert np.allclose(frames.s, expected.s, rtol=1e-12)


def test_synthesize_frames_validation():
    layout = RisLayout(tile_count=3, tile_spacing=0.3, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    assignment = assign(3, 4, 3)
    with pytest.raises(ValueError):
        synthesize_frames(toa_vector(scene), np.ones(3), assignment, small_cfg(l=8), 0)
    with pytest.raises(ValueError):
        synthesize_frames(toa_vector(scene), np.ones(2), assignment, small_cfg(l=4), 0)


def test_noise_reproducible_by_seed():
    cfg = small_cfg(noise=1e-3)
    layout = RisLayout(tile_count=3, tile_spacing=0.3, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    assignment = assign(3, 8, 3)
    a = synthesize_frames(toa_vector(scene), np.ones(3), assignment, cfg, noise_seed=5)
    b = synthesize_frames(toa_vector(scene), np.ones(3), assignment, cfg, noise_seed=5)
    c = synthesize_frames(toa_vector(scene), np.ones(3), assignment, cfg, noise_seed=6)
    assert np.array_equal(a.s, b.s)
    assert not np.array_equal(a.s, c.s)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_few_subcarriers_shape(n):
    cfg = small_cfg(n=n, l=3)
    frames = frames_from_paths([100e-9, 140e-9], [1 / 3, 2 / 3], [1.0, 0.3j], cfg)
    assert frames.s.shape == (n, 3)
    assert frames.s.strides[0] == frames.s.itemsize  # each column contiguous
    expected = frames_from_paths([100e-9], [1 / 3], [1.0], cfg).s + frames_from_paths(
        [140e-9], [2 / 3], [0.3j], cfg
    ).s
    assert np.allclose(frames.s, expected, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_no_paths_give_zero_frames(n):
    cfg = small_cfg(n=n, l=4)
    frames = frames_from_paths([], [], [], cfg)
    assert frames.s.shape == (n, 4)
    assert frames.s.strides[0] == frames.s.itemsize  # each column contiguous
    assert not np.any(frames.s)


def test_off_grid_slope_raises():
    cfg = small_cfg(l=8)
    with pytest.raises(ValueError, match="multiple of 1/L"):
        frames_from_paths([100e-9, 140e-9], [0.25, 0.3], [1.0, 0.5], cfg)
    with pytest.raises(ValueError, match="multiple of 1/L"):
        frames_from_paths([100e-9], [1.0 + 1e-6], [1.0], cfg)


def test_path_arrays_must_have_equal_length():
    with pytest.raises(ValueError):
        frames_from_paths([100e-9, 140e-9], [0.25], [1.0, 0.5], small_cfg())
    with pytest.raises(ValueError):
        frames_from_paths([100e-9, 140e-9], [0.25, 0.5], [1.0], small_cfg())


_DIRECT_CASES = {
    "16": (16, np.random.default_rng(16).integers(1, 17, 64)),
    "64": (64, np.random.default_rng(64).integers(1, 65, 64)),
    # K > L: groups of 1 to 9 tiles, and no tile on slope 5/16
    "uneven": (16, np.repeat(np.r_[1:5, 6:17], [9, 1, 5, 5] + [4] * 10 + [5])),
    # K = L = 64: every tile alone on its slope, as psp.assign gives them
    "singletons": (64, np.random.default_rng(3).permutation(np.arange(1, 65))),
    "K=0": (16, np.array([], dtype=int)),
}


@pytest.mark.parametrize("case", list(_DIRECT_CASES))
def test_block_product_matches_direct_exponential(case):
    # full-scale grid: N=3200 at 120 kHz around 28 GHz, paths near 1 us
    l_frames, slots = _DIRECT_CASES[case]
    cfg = WaveformConfig(
        n_subcarriers=3200,
        spacing=120e3,
        carrier=28e9,
        noise_ratio=0.0,
        l_frames=l_frames,
    )
    k = len(slots)
    rng = np.random.default_rng(l_frames + k)
    taus = rng.uniform(1e-6, 1.06e-6, k)
    betas = slots / l_frames
    amps = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    scale = 1.0 / cfg.n_subcarriers
    freqs = cfg.subcarrier_frequencies()
    ramp = np.exp(2j * np.pi * betas[:, None] * np.arange(1, l_frames + 1)[None, :])
    direct = scale * (np.exp(2j * np.pi * freqs[:, None] * taus[None, :]) * amps) @ ramp
    got = frames_from_paths(taus, betas, amps, cfg).s
    # the direct exponential is itself rounded at ~1e-11 for ~1.8e5 rad
    # arguments; a path's amplitude in its slope column is L times its frame
    # amplitude, so the bound is 1e-10 of the summed path amplitude in both
    bound = 1e-10 * scale * np.sum(np.abs(amps))
    want = FrameMatrix.from_symbols(direct, cfg).s
    assert np.max(np.abs(got - want)) <= l_frames * bound
    frames = np.roll(np.fft.ifft(got, axis=1), -1, axis=1)
    assert np.max(np.abs(frames - direct)) <= bound
    assert not np.any(got[:, np.setdiff1d(np.arange(l_frames), slots % l_frames)])
