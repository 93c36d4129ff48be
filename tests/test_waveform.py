import numpy as np
import pytest

from ris_nfloc.geometry import RisLayout, build_scene, toa_vector
from ris_nfloc.psp import assign
from ris_nfloc.waveform import (
    WaveformConfig,
    frames_from_paths,
    synthesize_frames,
)


def small_cfg(noise=0.0, n=64, l=8):
    return WaveformConfig(
        n_subcarriers=n,
        spacing=1e6,
        carrier=1e9,
        tx_power=0.2,
        noise_psd=noise,
        l_frames=l,
    )


def test_single_path_closed_form():
    cfg = small_cfg()
    tau, beta = 150e-9, 0.25
    frames = frames_from_paths([tau], [beta], [1.0], cfg)
    freqs = cfg.subcarrier_frequencies()
    n, ell = 10, 3
    expected = (
        cfg.tx_power
        / cfg.n_subcarriers
        * np.exp(2j * np.pi * freqs[n - 1] * tau)
        * np.exp(2j * np.pi * beta * ell)
    )
    assert frames.s[n - 1, ell - 1] == pytest.approx(expected, rel=1e-12)


def test_unmodulated_profile_frame_independent():
    cfg = small_cfg()
    frames = frames_from_paths([100e-9, 210e-9], [1.0, 1.0], [0.7, 0.2 - 0.4j], cfg)
    for ell in range(1, cfg.l_frames):
        assert np.allclose(frames.s[:, ell], frames.s[:, 0], rtol=1e-12)


def test_noise_variance_statistical():
    # zero signal: sample variance of the cells approaches P*N0/N
    cfg = small_cfg(noise=3e-3, n=100, l=10)
    rng = np.random.default_rng(0)
    draws = []
    for _ in range(100):  # 100 * 1000 cells
        frames = frames_from_paths([0.0], [0.5], [0.0], cfg, rng)
        draws.append(frames.s.ravel())
    cells = np.concatenate(draws)
    var = np.mean(np.abs(cells) ** 2)
    expected = cfg.tx_power * cfg.noise_psd / cfg.n_subcarriers
    assert var == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize("k", [0, 1, 5])
def test_noise_equals_two_separate_draws(k):
    # the in-place noise equals the drawn real block plus j times the drawn
    # imaginary block, scaled and added to the noiseless frames, bit for bit
    cfg = small_cfg(noise=3e-3, n=67, l=5)
    paths = np.random.default_rng(k)
    taus = paths.uniform(0.0, 500e-9, k)
    betas = paths.integers(1, cfg.l_frames + 1, k) / cfg.l_frames
    amps = paths.standard_normal(k) + 1j * paths.standard_normal(k)
    clean = frames_from_paths(taus, betas, amps, cfg).s
    rng = np.random.default_rng(11)
    var = cfg.tx_power * cfg.noise_psd / cfg.n_subcarriers
    sh = clean.shape
    want = clean + np.sqrt(var / 2.0) * (
        rng.standard_normal(sh) + 1j * rng.standard_normal(sh)
    )
    got = frames_from_paths(taus, betas, amps, cfg, np.random.default_rng(11)).s
    assert np.array_equal(got.view(float), want.view(float))
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


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
    bound = cfg.tx_power / cfg.n_subcarriers * np.sum(np.abs(amps))
    assert np.max(np.abs(frames.s)) <= bound + 1e-15


def test_synthesize_frames_uses_scene_delays():
    layout = RisLayout(tile_count=3, tile_spacing=0.3, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0], t0=1e-7)
    assignment = assign(3, 4, 3)
    cfg = small_cfg(l=4)
    cascade = np.array([1.0, 0.5 - 0.2j, 0.3j])
    frames = synthesize_frames(scene, cascade, assignment, cfg, noise_seed=None)
    expected = frames_from_paths(
        toa_vector(scene), assignment.beta, np.conj(cascade), cfg
    )
    assert np.allclose(frames.s, expected.s, rtol=1e-12)


def test_synthesize_frames_validation():
    layout = RisLayout(tile_count=3, tile_spacing=0.3, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    assignment = assign(3, 4, 3)
    with pytest.raises(ValueError):
        synthesize_frames(scene, np.ones(3), assignment, small_cfg(l=8))
    with pytest.raises(ValueError):
        synthesize_frames(scene, np.ones(2), assignment, small_cfg(l=4))


def test_noise_reproducible_by_seed():
    cfg = small_cfg(noise=1e-3)
    layout = RisLayout(tile_count=3, tile_spacing=0.3, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    assignment = assign(3, 8, 3)
    a = synthesize_frames(scene, np.ones(3), assignment, cfg, noise_seed=5)
    b = synthesize_frames(scene, np.ones(3), assignment, cfg, noise_seed=5)
    c = synthesize_frames(scene, np.ones(3), assignment, cfg, noise_seed=6)
    assert np.array_equal(a.s, b.s)
    assert not np.array_equal(a.s, c.s)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_few_subcarriers_shape(n):
    cfg = small_cfg(n=n, l=3)
    frames = frames_from_paths([100e-9, 140e-9], [0.25, 0.5], [1.0, 0.3j], cfg)
    assert frames.s.shape == (n, 3)
    assert frames.s.flags.c_contiguous
    expected = frames_from_paths([100e-9], [0.25], [1.0], cfg).s + frames_from_paths(
        [140e-9], [0.5], [0.3j], cfg
    ).s
    assert np.allclose(frames.s, expected, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_no_paths_give_zero_frames(n):
    cfg = small_cfg(n=n, l=4)
    frames = frames_from_paths([], [], [], cfg)
    assert frames.s.shape == (n, 4)
    assert frames.s.flags.c_contiguous
    assert not np.any(frames.s)


def test_path_arrays_must_have_equal_length():
    with pytest.raises(ValueError):
        frames_from_paths([100e-9, 140e-9], [0.25], [1.0, 0.5], small_cfg())
    with pytest.raises(ValueError):
        frames_from_paths([100e-9, 140e-9], [0.25, 0.5], [1.0], small_cfg())


@pytest.mark.parametrize("l_frames", [16, 64])
def test_block_product_matches_direct_exponential(l_frames):
    # full-scale grid: N=3200 at 120 kHz around 28 GHz, 64 paths near 1 us
    cfg = WaveformConfig(
        n_subcarriers=3200,
        spacing=120e3,
        carrier=28e9,
        tx_power=0.1,
        noise_psd=0.0,
        l_frames=l_frames,
    )
    rng = np.random.default_rng(l_frames)
    taus = rng.uniform(1e-6, 1.06e-6, 64)
    betas = rng.integers(1, l_frames + 1, 64) / l_frames
    amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    scale = cfg.tx_power / cfg.n_subcarriers
    freqs = cfg.subcarrier_frequencies()
    ramp = np.exp(2j * np.pi * betas[:, None] * np.arange(1, l_frames + 1)[None, :])
    direct = scale * (np.exp(2j * np.pi * freqs[:, None] * taus[None, :]) * amps) @ ramp
    frames = frames_from_paths(taus, betas, amps, cfg)
    # the direct exponential is itself rounded at ~1e-11 for ~1.8e5 rad arguments
    assert np.max(np.abs(frames.s - direct)) <= 1e-10 * scale * np.sum(np.abs(amps))
