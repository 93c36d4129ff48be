import numpy as np
import pytest

from ris_nfloc.constants import SPEED_OF_LIGHT
from ris_nfloc.geometry import RisLayout, Scene, build_scene, toa_vector


def default_layout(**kw):
    base = dict(tile_count=64, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    base.update(kw)
    return RisLayout(**base)


def test_tile_centers_span_symmetrically():
    # centers span (K-1)*0.1 = 6.3 m symmetric about x=5
    scene = build_scene(default_layout(), [0, 5, 2], [5, 5, 0])
    assert np.allclose(scene.tile_centers[0], [1.85, 10, 2])
    assert np.allclose(scene.tile_centers[63], [8.15, 10, 2])
    centers = scene.tile_centers
    assert np.allclose(np.diff(centers[:, 0]), 0.1)
    assert np.allclose(centers[:, 1:], [10, 2])


def test_single_tile_sits_at_layout_center():
    scene = build_scene(default_layout(tile_count=1), [0, 5, 2], [5, 5, 0])
    assert np.allclose(scene.tile_centers[0], [5, 10, 2])


def test_reference_configuration_dimensions():
    layout = default_layout(elements_x=4, elements_z=10)
    scene = build_scene(layout, [0, 5, 2], [5, 5, 0])
    assert scene.n_tiles == 64
    assert scene.elements.shape[1] == 40
    assert scene.elements[0].shape == (40, 3)


def test_element_grid_half_wavelength():
    wavelength = SPEED_OF_LIGHT / 28e9
    layout = default_layout()
    scene = build_scene(layout, [0, 5, 2], [5, 5, 0], wavelength=wavelength)
    elements, center = scene.elements[3], scene.tile_centers[3]
    d = np.linalg.norm(elements[:, None] - elements[None, :], axis=-1)
    bound = wavelength / 2 * np.sqrt(
        (layout.elements_x - 1) ** 2 + (layout.elements_z - 1) ** 2
    )
    assert d.max() <= bound + 1e-12
    # grid centered on the tile center
    assert np.allclose(elements.mean(axis=0), center)
    # wall-mounted: grid lies in the x-z plane for an x-aligned RIS
    assert np.allclose(elements[:, 1], center[1])


def test_toa_hand_value():
    scene = build_scene(
        default_layout(tile_count=1), [0, 5, 2], [5, 5, 0], t0=0.0
    )
    expected = (np.sqrt(50.0) + np.sqrt(29.0)) / SPEED_OF_LIGHT
    assert toa_vector(scene)[0] == pytest.approx(expected, abs=1e-20)
    assert expected == pytest.approx(4.1521e-8, rel=1e-4)


def test_toa_clock_offset_is_additive():
    base = build_scene(default_layout(tile_count=1), [0, 5, 2], [5, 5, 0], t0=0.0)
    shifted = build_scene(default_layout(tile_count=1), [0, 5, 2], [5, 5, 0], t0=1e-6)
    assert toa_vector(shifted)[0] == toa_vector(base)[0] + 1e-6


def test_toa_symmetric_tiles_equal():
    # UE on the mid-perpendicular, BS equidistant from both tiles
    scene = build_scene(
        default_layout(tile_count=2, tile_spacing=2.0, center=[5, 10, 2]),
        [5, 0, 2],
        [5, 5, 0],
    )
    taus = toa_vector(scene)
    assert taus[0] == pytest.approx(taus[1], abs=1e-18)


def test_toa_rigid_motion_invariant():
    rng = np.random.default_rng(4)
    layout = default_layout(tile_count=8)
    scene = build_scene(layout, [0, 5, 2], [3, 4, 0], t0=2e-7)
    ref = toa_vector(scene)
    # rotation about z keeps the UE on the ground plane
    ang = rng.uniform(0, 2 * np.pi)
    rot = np.array(
        [
            [np.cos(ang), -np.sin(ang), 0],
            [np.sin(ang), np.cos(ang), 0],
            [0, 0, 1],
        ]
    )
    shift = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0])
    moved = Scene(
        p_bs=rot @ scene.p_bs + shift,
        p_ue=rot @ scene.p_ue + shift,
        tile_centers=scene.tile_centers @ rot.T + shift,
        elements=scene.elements @ rot.T + shift,
        t0=scene.t0,
    )
    assert np.allclose(toa_vector(moved), ref, atol=1e-15)


def test_toa_increases_with_ue_distance():
    layout = default_layout(tile_count=1)
    prev = 0.0
    for y in (9.0, 7.0, 5.0, 2.0):
        scene = build_scene(layout, [0, 5, 2], [5, y, 0])
        val = toa_vector(scene)[0]
        assert val > prev
        prev = val


def test_build_scene_validation():
    with pytest.raises(ValueError):
        RisLayout(tile_count=0, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    with pytest.raises(ValueError):
        RisLayout(tile_count=4, tile_spacing=0.1, center=[5, 10, 2], axis=[2, 0, 0])
    with pytest.raises(ValueError, match="distinct"):
        default_layout(tile_count=2, tile_spacing=1e-13)  # coincident centers
    default_layout(tile_count=1, tile_spacing=1e-13)  # one tile cannot coincide
    with pytest.raises(ValueError):
        build_scene(default_layout(), [0, 5, 2], [5, 5, 0], wavelength=0.0)
    with pytest.raises(ValueError):
        build_scene(default_layout(), [0, 5, 2], [5, 5, 1.0])  # UE off the ground


def test_build_scene_elements_are_center_plus_grid():
    wavelength = SPEED_OF_LIGHT / 28e9
    half = wavelength / 2
    layout = default_layout(tile_count=5, elements_x=3, elements_z=2)
    scene = build_scene(layout, [0, 5, 2], [5, 5, 0], wavelength=wavelength)
    assert scene.elements.shape == (5, 6, 3)
    # an x-aligned tile spans x and z; the x index runs fastest
    grid = np.array(
        [
            [(ix + 1 - 2.0) * half, 0.0, (iz + 1 - 1.5) * half]
            for iz in range(2)
            for ix in range(3)
        ]
    )
    for k in range(5):
        assert np.array_equal(scene.elements[k], scene.tile_centers[k] + grid)


def test_scene_rejects_mismatched_element_array():
    scene = build_scene(default_layout(tile_count=4), [0, 5, 2], [5, 5, 0])
    with pytest.raises(ValueError, match="elements"):
        Scene(
            p_bs=scene.p_bs,
            p_ue=scene.p_ue,
            tile_centers=scene.tile_centers,
            elements=scene.elements[:3],
        )
