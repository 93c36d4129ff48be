import numpy as np
import pytest

from ris_nfloc.channel import (
    MultipathConfig,
    _link_matrix,
    backward_direct,
    direct_link,
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


def bs_link(scene):
    """The BS link's direct part, computed as a deployment computes it."""
    return direct_link(scene.p_bs, scene.elements, scene.tile_centers, WAVELENGTH)


def realize(scene, mp, seed=0):
    """The scene's (K,) cascade gains."""
    return realize_channel(scene, WAVELENGTH, mp, bs_link(scene), seed)


def links(scene, mp, seed=0):
    """The (K, M) forward and backward link matrices that :func:`realize`
    draws for ``seed``, in its order: forward first, then backward."""
    rng = np.random.default_rng(seed)
    forward = _link_matrix(bs_link(scene), WAVELENGTH, mp, rng)
    ue_link = direct_link(
        scene.p_ue, scene.elements, scene.tile_centers, WAVELENGTH, scene.phi0
    )
    return forward, _link_matrix(ue_link, WAVELENGTH, mp, rng)


def test_forward_direct_magnitude_and_phase():
    scene = make_scene()
    for k in (1, 3):
        d_center = np.linalg.norm(scene.p_bs - scene.tile_centers[k - 1])
        mags = [
            abs(forward_direct(scene, WAVELENGTH, k, m))
            for m in range(1, scene.elements.shape[1] + 1)
        ]
        # attenuation uses the tile center, identical for every element
        assert np.allclose(mags, WAVELENGTH / (4 * np.pi * d_center))


def test_forward_phase_wraps_at_full_wavelength():
    # contrived single-element geometry with element distance = wavelength
    scene = make_scene(tile_count=1)
    coeff = forward_direct(scene, WAVELENGTH, 1, 1)
    d_elem = np.linalg.norm(scene.p_bs - scene.elements[0, 0])
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
    mp = MultipathConfig(j_paths=0)
    forward, backward = links(scene, mp)
    assert forward[1, 4] == pytest.approx(
        forward_direct(scene, WAVELENGTH, 2, 5), rel=1e-12
    )
    assert backward[1, 4] == pytest.approx(
        backward_direct(scene, WAVELENGTH, 2, 5), rel=1e-12
    )
    expected = np.einsum("km,km->k", backward, forward)
    assert np.allclose(realize(scene, mp), expected, rtol=1e-12)


def test_realize_channel_deterministic_per_seed():
    scene = make_scene()
    mp = MultipathConfig(j_paths=3)
    a = realize(scene, mp, 42)
    b = realize(scene, mp, 42)
    assert np.array_equal(a, b)
    other = realize(scene, mp, 43)
    assert not np.array_equal(a, other)


def test_zero_amplitude_multipath_equals_direct():
    scene = make_scene()
    direct = realize(scene, MultipathConfig(j_paths=0))
    silent = realize(scene, MultipathConfig(j_paths=3, power_rel_db=-400.0), 1)
    assert np.allclose(silent, direct, rtol=1e-9)


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
    cascade = realize(scene, MultipathConfig(j_paths=0))
    for k in (1, 2):
        d_bs = np.linalg.norm(scene.p_bs - scene.tile_centers[k - 1])
        d_ue = np.linalg.norm(scene.p_ue - scene.tile_centers[k - 1])
        expected = WAVELENGTH**2 / (16 * np.pi**2 * d_bs * d_ue)
        assert abs(cascade[k - 1]) == pytest.approx(expected, rel=1e-12)


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
        realize(scene, MultipathConfig(j_paths=0))


def _old_link_matrix(endpoint, elements, centers, mp, rng, extra_phase=0.0):
    """The per-element, per-path sum: a (K, M, J) phase tensor, one exponential
    per element and path."""
    d_elem = np.linalg.norm(endpoint[None, None, :] - elements, axis=-1)
    mag = WAVELENGTH / (4.0 * np.pi * np.linalg.norm(endpoint - centers, axis=-1))
    out = mag[:, None] * np.exp(-2j * np.pi / WAVELENGTH * d_elem + 1j * extra_phase)
    if mp.j_paths == 0:
        return out
    k = elements.shape[0]
    sigma = mag * 10.0 ** (mp.power_rel_db / 20.0)
    eps = (
        rng.standard_normal((k, mp.j_paths)) + 1j * rng.standard_normal((k, mp.j_paths))
    ) / np.sqrt(2.0)
    eps *= sigma[:, None]
    excess = rng.uniform(mp.excess_min_m, mp.excess_max_m, size=(k, mp.j_paths))
    phase = -2j * np.pi / WAVELENGTH * (d_elem[:, :, None] + excess[:, None, :])
    out += np.sum(eps[:, None, :] * np.exp(phase + 1j * extra_phase), axis=-1)
    return out


def _old_realization(scene, mp, seed):
    rng = np.random.default_rng(seed)
    elements, centers = scene.elements, scene.tile_centers
    forward = _old_link_matrix(scene.p_bs, elements, centers, mp, rng)
    backward = _old_link_matrix(scene.p_ue, elements, centers, mp, rng, scene.phi0)
    return forward, backward, np.einsum("km,km->k", backward, forward)


@pytest.mark.parametrize("seed", [5, 77])
def test_multipath_gain_per_tile_matches_per_path_sum(seed):
    # off-axis UE, nonzero phase offset: every element sees its own phase
    scene = make_scene(tile_count=6, phi0=1.3, ue=(2.3, 6.1, 0))
    mp = MultipathConfig(j_paths=3)
    forward, backward, cascade = _old_realization(scene, mp, seed)
    for got, ref in zip(links(scene, mp, seed), (forward, backward)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the element sum cancels to about 1% of its terms, so the cascade is
    # compared on the scale of its terms, sum_m |b_km f_km|
    scale = np.einsum("km,km->k", np.abs(backward), np.abs(forward))
    assert np.max(np.abs(realize(scene, mp, seed) - cascade) / scale) <= 1e-12


def test_no_multipath_equals_per_path_sum_bit_for_bit():
    scene = make_scene(tile_count=6, phi0=1.3, ue=(2.3, 6.1, 0))
    mp = MultipathConfig(j_paths=0)
    got_all = (*links(scene, mp, 5), realize(scene, mp, 5))
    for got, ref in zip(got_all, _old_realization(scene, mp, 5)):
        assert np.array_equal(got, ref)
