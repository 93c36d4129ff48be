import numpy as np
import pytest

from ris_nfloc.bounds import cascade_snrs, fim, tdoa_gradients, toa_variance
from ris_nfloc.constants import SPEED_OF_LIGHT
from ris_nfloc.geometry import RisLayout, build_scene
from ris_nfloc.waveform import WaveformConfig


def general_scene(rng=None, n_tiles=8):
    # anchors off the common line so all three axes stay observable
    rng = rng or np.random.default_rng(0)
    layout = RisLayout(
        tile_count=n_tiles, tile_spacing=0.4, center=[5, 10, 2], axis=[1, 0, 0]
    )
    ue = np.array([rng.uniform(1, 9), rng.uniform(1, 8), 0.0])
    return build_scene(layout, [0, 5, 2], ue)


def test_toa_variance_harmonic_combination():
    s = 250.0
    assert toa_variance(1e8, s, s) == pytest.approx(
        1.0 / (8 * np.pi**2 * 1e16 * s / 2), rel=1e-12
    )


def test_toa_variance_bandwidth_law():
    v1 = toa_variance(1e8, 100, 100)
    v2 = toa_variance(2e8, 100, 100)
    assert v1 / v2 == pytest.approx(4.0, rel=1e-12)


def test_toa_variance_plugin_value():
    # B = 400 MHz, combined SNR 20 dB
    value = toa_variance(4e8, 200.0, 200.0)
    assert value == pytest.approx(1.0 / (8 * np.pi**2 * (4e8) ** 2 * 100.0), rel=1e-12)
    assert value == pytest.approx(7.92e-22, rel=1e-2)


def test_toa_variance_dead_path_infinite():
    assert toa_variance(1e8, 0.0, 100.0) == np.inf
    with pytest.raises(ValueError):
        toa_variance(0.0, 10.0, 10.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(5):
        scene = general_scene(rng)
        k_ref = 1
        grads = tdoa_gradients(scene, k_ref)
        step = 1e-4
        for tile in (2, 4, 8):
            for axis in range(3):
                hi = scene.p_ue.copy()
                hi[axis] += step
                lo = scene.p_ue.copy()
                lo[axis] -= step

                def mu(pos):
                    d = np.linalg.norm(pos - scene.tile_centers, axis=1)
                    return (d[tile - 1] - d[k_ref - 1]) / SPEED_OF_LIGHT

                numeric = (mu(hi) - mu(lo)) / (2 * step)
                assert abs(numeric - grads[tile - 1, axis]) < 1e-6 * max(
                    abs(numeric), 1e-9
                )


def test_single_tdoa_cannot_localize():
    layout = RisLayout(tile_count=2, tile_spacing=0.5, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    result = fim(scene, np.array([100.0, 100.0]), 4e8, 1)
    assert result.rank == 1
    assert result.peb == np.inf
    assert np.isfinite(result.peb_observable)


def test_gradient_mirror_antisymmetry():
    # UE on the mid-perpendicular: swapping tile and reference mirrors the
    # x-component of the delay gradient
    layout = RisLayout(tile_count=2, tile_spacing=2.0, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [5, 0, 2], [5, 5, 0])
    g12 = tdoa_gradients(scene, 2)[0]
    g21 = tdoa_gradients(scene, 1)[1]
    assert g12[0] == pytest.approx(-g21[0], rel=1e-9)


def test_fim_scales_linearly_with_snr():
    scene = general_scene()
    snrs = np.full(scene.n_tiles, 200.0)
    r1 = fim(scene, snrs, 4e8, 1)
    r2 = fim(scene, 2 * snrs, 4e8, 1)
    assert np.allclose(r2.fim, 2 * r1.fim, rtol=1e-9)
    assert r1.peb_observable / r2.peb_observable == pytest.approx(
        np.sqrt(2.0), rel=1e-6
    )


def test_peb_times_bandwidth_invariant_under_fixed_zeta():
    scene = general_scene()
    snrs = np.full(scene.n_tiles, 150.0)
    values = []
    for bandwidth in (5e7, 1e8, 4e8):
        r = fim(scene, snrs, bandwidth, 1)
        values.append(r.peb_observable * bandwidth)
    assert np.ptp(values) / values[0] < 1e-9


def test_fim_symmetric_psd():
    scene = general_scene()
    r = fim(scene, np.full(scene.n_tiles, 80.0), 4e8, 3)
    assert np.allclose(r.fim, r.fim.T)
    assert np.all(np.linalg.eigvalsh(r.fim) >= -1e-6)


def test_cascade_snr_convention():
    cfg = WaveformConfig(
        n_subcarriers=100, spacing=1e6, carrier=1e9, noise_ratio=2e-3,
        l_frames=8,
    )
    cascade = np.array([1.0, 2.0])
    snrs = cascade_snrs(cascade, cfg)
    # per-cell SNR times the frame-coherent gain
    cell = np.abs(cascade) ** 2 / (100 * 2e-3)
    assert np.allclose(snrs, cell * 8)


def test_linear_ris_rank_two_and_diagnostics():
    layout = RisLayout(tile_count=64, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [5, 5, 0])
    snrs = np.full(64, 1e4)
    r = fim(scene, snrs, 4e8, 33)
    # tiles differ only along x, so one axis is structurally unobservable
    assert r.rank == 2
    assert r.peb == np.inf
    assert np.isfinite(r.peb_observable)
    assert r.condition_number > 1e12


def _loop_fim_matrix(scene, snrs, bandwidth, k_ref):
    """The information matrix as a per-tile loop of scalar variances and outer
    products."""
    grads = tdoa_gradients(scene, k_ref)
    j = np.zeros((3, 3))
    for tile in range(1, scene.n_tiles + 1):
        snr_k, snr_ref = snrs[tile - 1], snrs[k_ref - 1]
        if tile == k_ref or snr_k <= 0 or snr_ref <= 0:
            continue
        zeta = 1.0 / (1.0 / snr_k + 1.0 / snr_ref)
        var = 1.0 / (8.0 * np.pi**2 * bandwidth**2 * zeta)
        j += np.outer(grads[tile - 1], grads[tile - 1]) / var
    return j


def test_fim_equals_per_tile_loop_bit_for_bit():
    rng = np.random.default_rng(4)
    scene = general_scene(rng)
    snrs = rng.uniform(20.0, 2e4, scene.n_tiles)
    snrs[5] = 0.0  # a dead tile
    for k_ref in range(1, scene.n_tiles + 1):
        got = fim(scene, snrs, 4e8, k_ref).fim
        assert np.array_equal(got, _loop_fim_matrix(scene, snrs, 4e8, k_ref))


def test_toa_variance_array_equals_scalar_calls():
    snrs = np.array([0.0, -3.0, 1e-3, 5.0, 250.0, 7e5])
    for snr_ref in (0.0, 40.0, 1e4):
        got = toa_variance(4e8, snrs, snr_ref)
        assert got.shape == snrs.shape
        expected = [toa_variance(4e8, s, snr_ref) for s in snrs]
        assert all(isinstance(v, float) for v in expected)
        assert np.array_equal(got, expected)
    assert np.isinf(toa_variance(4e8, snrs, 0.0)).all()
    with pytest.raises(ValueError):
        toa_variance(0.0, snrs, 40.0)
