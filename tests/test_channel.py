import numpy as np
import pytest

from ris_nfloc.channel import (
    MultipathConfig,
    backward_direct,
    forward_direct,
    realize_channel,
)
from ris_nfloc.geometry import RisLayout, build_scene

WAVELENGTH = 3e8 / 28e9


def make_scene(tile_count=4, phi0=0.0, ue=(3, 4, 0)):
    layout = RisLayout(
        tile_count=tile_count, tile_spacing=0.2, center=[5, 10, 2], axis=[1, 0, 0]
    )
    return build_scene(layout, [0, 5, 2], ue, phi0=phi0, wavelength=WAVELENGTH)


def test_forward_direct_magnitude_and_phase():
    scene = make_scene()
    for k in (1, 3):
        d_center = np.linalg.norm(scene.p_bs - scene.tiles[k - 1].center)
        mags = [
            abs(forward_direct(scene, WAVELENGTH, k, m))
            for m in range(1, scene.tiles[k - 1].n_elements + 1)
        ]
        # attenuation uses the tile center, identical for every element
        assert np.allclose(mags, WAVELENGTH / (4 * np.pi * d_center))


def test_forward_phase_wraps_at_full_wavelength():
    # contrived single-element geometry with element distance = wavelength
    scene = make_scene(tile_count=1)
    coeff = forward_direct(scene, WAVELENGTH, 1, 1)
    d_elem = np.linalg.norm(scene.p_bs - scene.tiles[0].element_positions[0])
    expected_phase = -2 * np.pi / WAVELENGTH * d_elem
    assert np.angle(coeff) == pytest.approx(
        np.angle(np.exp(1j * expected_phase)), abs=1e-9
    )


def test_doubling_distance_halves_magnitude():
    near = build_scene(
        RisLayout(tile_count=1, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0]),
        [5, 5, 2],
        [5, 5, 0],
        wavelength=WAVELENGTH,
    )
    far = build_scene(
        RisLayout(tile_count=1, tile_spacing=0.1, center=[5, 15, 2], axis=[1, 0, 0]),
        [5, 5, 2],
        [5, 5, 0],
        wavelength=WAVELENGTH,
    )
    assert abs(forward_direct(far, WAVELENGTH, 1, 1)) == pytest.approx(
        abs(forward_direct(near, WAVELENGTH, 1, 1)) / 2, rel=1e-12
    )


def test_backward_phase_offset():
    flat = make_scene(phi0=0.0)
    half = make_scene(phi0=np.pi)
    v0 = backward_direct(flat, WAVELENGTH, 2, 5)
    v1 = backward_direct(half, WAVELENGTH, 2, 5)
    assert v1 == pytest.approx(-v0, rel=1e-12)
    assert abs(v1) == pytest.approx(abs(v0), rel=1e-12)


def test_realize_channel_no_multipath_matches_directs():
    scene = make_scene()
    ch = realize_channel(scene, WAVELENGTH, MultipathConfig(j_paths=0))
    assert ch.forward[1, 4] == pytest.approx(
        forward_direct(scene, WAVELENGTH, 2, 5), rel=1e-12
    )
    assert ch.backward[1, 4] == pytest.approx(
        backward_direct(scene, WAVELENGTH, 2, 5), rel=1e-12
    )
    expected = np.einsum("km,km->k", ch.backward, ch.forward)
    assert np.allclose(ch.cascade, expected, rtol=1e-12)


def test_realize_channel_deterministic_per_seed():
    scene = make_scene()
    mp = MultipathConfig(j_paths=3, seed=42)
    a = realize_channel(scene, WAVELENGTH, mp)
    b = realize_channel(scene, WAVELENGTH, mp)
    assert np.array_equal(a.cascade, b.cascade)
    other = realize_channel(scene, WAVELENGTH, MultipathConfig(j_paths=3, seed=43))
    assert not np.array_equal(a.cascade, other.cascade)


def test_zero_amplitude_multipath_equals_direct():
    scene = make_scene()
    direct = realize_channel(scene, WAVELENGTH, MultipathConfig(j_paths=0))
    silent = realize_channel(
        scene, WAVELENGTH, MultipathConfig(j_paths=3, power_rel_db=-400.0, seed=1)
    )
    assert np.allclose(silent.cascade, direct.cascade, rtol=1e-9)


def test_cascade_closed_form_single_element():
    # with one element per tile, |c| = lambda^2 / (16 pi^2 d_bs d_ue)
    layout = RisLayout(
        tile_count=2,
        tile_spacing=0.5,
        center=[5, 10, 2],
        axis=[1, 0, 0],
        elements_x=1,
        elements_z=1,
    )
    scene = build_scene(layout, [0, 5, 2], [3, 4, 0], wavelength=WAVELENGTH)
    ch = realize_channel(scene, WAVELENGTH, MultipathConfig(j_paths=0))
    for k in (1, 2):
        d_bs = np.linalg.norm(scene.p_bs - scene.tiles[k - 1].center)
        d_ue = np.linalg.norm(scene.p_ue - scene.tiles[k - 1].center)
        expected = WAVELENGTH**2 / (16 * np.pi**2 * d_bs * d_ue)
        assert abs(ch.cascade[k - 1]) == pytest.approx(expected, rel=1e-12)


def test_wavelength_scaling_of_direct_magnitudes():
    scene = make_scene()
    ratio = abs(forward_direct(scene, 2 * WAVELENGTH, 1, 1)) / abs(
        forward_direct(scene, WAVELENGTH, 1, 1)
    )
    assert ratio == pytest.approx(2.0, rel=1e-12)


def test_coincident_endpoint_rejected():
    layout = RisLayout(tile_count=1, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [5, 10, 2], [3, 4, 0], wavelength=WAVELENGTH)
    with pytest.raises(ValueError):
        forward_direct(scene, WAVELENGTH, 1, 1)
    with pytest.raises(ValueError):
        realize_channel(scene, WAVELENGTH)
