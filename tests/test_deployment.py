"""The deployment: what a config fixes, built once and shared by its trials."""

from dataclasses import replace

import numpy as np
import pytest

from ris_nfloc import psp
from ris_nfloc.channel import MultipathConfig, _link_matrix, direct_link, realize_channel
from ris_nfloc.config import ExperimentConfig, apply_sweep_value
from ris_nfloc.constants import SPEED_OF_LIGHT
from ris_nfloc.geometry import build_scene, toa_vector
from ris_nfloc.harness import normalized_cascade, run_trial
from ris_nfloc.tdoa import _lattice_seed, build_system, seed_lattice, solve_position

DESK = ExperimentConfig(
    tile_count=16, subcarriers=256, spacing_hz=1.5625e6, frames=8, trials=4, seed=5
)
FULL = ExperimentConfig(trials=2, seed=5)


def _fields_equal(a, b) -> bool:
    """Bit-for-bit equality of two trial results, NaN equal to NaN."""
    return all(
        x == y or (x != x and y != y) for x, y in zip(vars(a).values(), vars(b).values())
    )


def test_run_trial_on_a_replaced_copy_is_bit_identical():
    copy = replace(DESK)
    assert copy.deployment is not DESK.deployment
    for seed in range(4):
        assert _fields_equal(run_trial(DESK, seed), run_trial(copy, seed))


def test_sweep_point_builds_its_own_deployment():
    sub = apply_sweep_value(DESK, "K", 32)
    dep = sub.deployment
    assert dep.tile_centers.shape == (32, 3)
    assert dep.elements.shape == (32, DESK.elements_x * DESK.elements_z, 3)
    assert dep.lattice.distances.shape == (361, 32)
    assert DESK.deployment.lattice.distances.shape == (361, 16)
    # the config is frozen, so a built deployment is reused
    assert sub.deployment is dep


def _bs_link(scene, cfg):
    """The BS link's direct part computed from a scene, not a deployment."""
    return direct_link(scene.p_bs, scene.elements, scene.tile_centers, cfg.wavelength_m)


def test_deployment_arrays_equal_the_per_scene_arithmetic():
    dep = FULL.deployment
    scene = build_scene(
        FULL.layout(), FULL.bs_position_m, [3.0, 4.0, 0.0], wavelength=FULL.wavelength_m
    )
    assert np.array_equal(dep.tile_centers, scene.tile_centers)
    assert np.array_equal(dep.elements, scene.elements)
    assert np.array_equal(dep.bs_legs, np.linalg.norm(scene.p_bs - scene.tile_centers, axis=1))
    mp = MultipathConfig(j_paths=3)
    wl = FULL.wavelength_m
    ue_link = direct_link(scene.p_ue, scene.elements, scene.tile_centers, wl, scene.phi0)
    draws = []  # (forward, backward, cascade) with the cached and the fresh BS link
    for bs_link in (dep.forward, _bs_link(scene, FULL)):
        rng = np.random.default_rng(9)
        forward = _link_matrix(bs_link, wl, mp, rng)
        backward = _link_matrix(ue_link, wl, mp, rng)
        draws.append((forward, backward, realize_channel(scene, wl, mp, bs_link, 9)))
    for cached, fresh in zip(*draws):
        assert np.array_equal(cached, fresh)


def test_trial_scene_and_cascade_equal_a_bare_build():
    ue = np.array([3.0, 4.0, 0.0])
    scene, cascade = normalized_cascade(DESK, ue, 2e-7, 1.1, 17)
    bare = build_scene(
        DESK.layout(), DESK.bs_position_m, ue, t0=2e-7, phi0=1.1,
        wavelength=DESK.wavelength_m,
    )
    gains = realize_channel(
        bare, DESK.wavelength_m, DESK.multipath(), _bs_link(bare, DESK), 17
    )
    expected = gains / np.mean(np.abs(gains))
    assert np.array_equal(cascade, expected)
    assert np.array_equal(toa_vector(scene), toa_vector(bare))


def _old_lattice_distances(points, system):
    """The per-solve distances the seed lattice was once built with."""
    tiles = system.positions
    diff = points[:, None, :] - tiles[:, :2]
    return np.sqrt(np.einsum("pai,pai->pa", diff, diff) + tiles[:, 2] ** 2)


def _noisy_system(cfg, tiles, ue, rng):
    centers = cfg.deployment.tile_centers
    taus = (
        np.linalg.norm(cfg.deployment.p_bs - centers, axis=1)
        + np.linalg.norm(ue - centers, axis=1)
    ) / SPEED_OF_LIGHT + rng.normal(0.0, 1e-10, len(centers))
    entries = [(float(taus[k - 1]), k) for k in tiles]
    return build_system(entries, np.ones(len(tiles)), centers, cfg.bs_position_m)


@pytest.mark.parametrize("cfg, tiles", [
    (DESK, (16, 1, 6, 11)),  # the anchors, listed out of order
    (DESK, tuple(range(1, 17))),
    (FULL, tuple(range(1, 65))),  # a baseline solve labels every tile: 64 rows
])
def test_deployment_table_rows_give_the_per_solve_distances_and_seeds(cfg, tiles):
    rng = np.random.default_rng(3)
    lattice = cfg.deployment.lattice
    assert lattice.room == cfg.room
    built = seed_lattice(cfg.room, cfg.deployment.tile_centers)
    for ue in ([2.0, 7.5, 0.0], [8.8, 1.2, 0.0], [5.0, 5.0, 0.0]):
        system = _noisy_system(cfg, tiles, np.array(ue), rng)
        rows = len(system.ranges)
        assert rows == len(tiles)
        assert [k - 1 for k in tiles] == list(system.rows)
        d_old = _old_lattice_distances(lattice.points, system)
        assert np.array_equal(lattice.distances[:, system.rows], d_old)

        # the seed is the lowest point of the cost on the old distances
        # weighted as build_system weighs peak heights 1/sigmas
        heights = 1.0 / rng.uniform(0.5, 2.0, rows)
        system = replace(system, w=(heights / heights.max()) ** 2)
        e = system.ranges - d_old
        e -= (e @ system.w / np.sum(system.w))[:, None]
        cost = (e * e) @ system.w
        seed = _lattice_seed(system, lattice)
        assert np.array_equal(seed, lattice.points[np.argmin(cost)])
        # a lattice the caller builds for the same room and tiles, as the
        # solver's tests do, gives the trial's fix bit for bit
        assert np.array_equal(
            solve_position(system, lattice), solve_position(system, built)
        )


def test_building_a_deployment_calls_no_slope_assignment(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("psp.assign called")

    monkeypatch.setattr(psp, "assign", refuse)
    monkeypatch.setattr("ris_nfloc.config.assign", refuse)
    dep = replace(DESK).deployment
    assert dep.lattice.distances.shape == (361, 16)
