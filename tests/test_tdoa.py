import math
from dataclasses import replace

import numpy as np
import pytest

from ris_nfloc import tdoa
from ris_nfloc.config import ExperimentConfig
from ris_nfloc.constants import SPEED_OF_LIGHT
from ris_nfloc.geometry import RisLayout, build_scene, toa_vector
from ris_nfloc.harness import label_baseline_dft, observe
from ris_nfloc.tdoa import (
    PositionEstimationError,
    TdoaSystem,
    _gn_descend,
    build_system,
    seed_lattice,
    solve_position,
)

ROOM = ((0.0, 0.0, 0.0), (10.0, 10.0, 3.0))


def unit_system(entries, tiles, p_bs):
    """The system of ``entries`` with every arrival at one peak height."""
    return build_system(entries, np.ones(len(entries)), tiles, p_bs)


def gls_weights(sigmas, sigma_ref):
    """``dinv`` and ``k`` as :func:`build_system` forms them for arrivals at
    peak heights ``1/sigmas`` and a reference at ``1/sigma_ref``: the GLS fit
    with those range-error scales, its cost scaled by ``sigma_ref**2``."""
    dinv = 1.0 / np.maximum((1.0 / sigma_ref) / (1.0 / np.asarray(sigmas)), 1e-30) ** 2
    return {"dinv": dinv, "k": 1.0 / (1.0 + float(np.sum(dinv)))}


def exact_entries(anchors, p_bs, ue, t0=0.0):
    taus = (
        np.linalg.norm(p_bs - anchors, axis=1) + np.linalg.norm(ue - anchors, axis=1)
    ) / SPEED_OF_LIGHT + t0
    return [(float(taus[i]), i + 1) for i in range(len(anchors))]


def random_general_anchors(rng, n=8):
    # anchors spread over the full room volume: full-rank geometry
    return np.column_stack(
        [
            rng.uniform(0, 10, n),
            rng.uniform(0, 10, n),
            rng.uniform(0.2, 3.0, n),
        ]
    )


def test_clock_offset_cancels_in_gammas():
    rng = np.random.default_rng(0)
    anchors = random_general_anchors(rng)
    p_bs = np.array([-2.0, 4.0, 1.5])
    ue = np.array([3.0, 6.0, 0.0])
    s0 = unit_system(exact_entries(anchors, p_bs, ue, t0=0.0), anchors, p_bs)
    s1 = unit_system(exact_entries(anchors, p_bs, ue, t0=1e-6), anchors, p_bs)
    assert np.allclose(s0.gammas, s1.gammas, atol=1e-9)


def test_symmetric_tiles_equal_gammas():
    anchors = np.array([[4.0, 10.0, 2.0], [6.0, 10.0, 2.0], [5.0, 8.0, 1.0]])
    p_bs = np.array([5.0, 0.0, 2.0])  # equidistant from tiles 1 and 2
    ue = np.array([5.0, 5.0, 0.0])  # likewise
    entries = exact_entries(anchors, p_bs, ue)
    system = unit_system(entries, anchors, p_bs)
    tiles = [k for _, k in entries if k != system.ref_tile]
    g1 = system.gammas[tiles.index(1)]
    g2 = system.gammas[tiles.index(2)]
    assert g1 == pytest.approx(g2, abs=1e-12)


@pytest.mark.parametrize(
    "axis",
    [(1, 0, 0), (0.6, 0.8, 0), (0, 1, 0), (0.6, 0, 0.8), (0, 0, 1)],
    ids=["x", "xy", "y", "xz", "vertical"],
)
def test_linear_ris_anchors_are_collinear(axis):
    # every scene the simulator builds has collinear anchors, which is why the
    # ground-plane fit is the only solve path
    if axis == (0, 0, 1):
        # a vertical RIS stands over one floor point: its delays fix only the
        # UE's distance from that point, so no layout takes that axis
        with pytest.raises(ValueError, match="vertical"):
            RisLayout(tile_count=16, tile_spacing=0.1, center=[5, 10, 2], axis=axis)
        return
    layout = RisLayout(tile_count=16, tile_spacing=0.1, center=[5, 10, 2], axis=axis)
    ue = np.array([3.0, 4.0, 0.0])
    scene = build_scene(layout, [0, 5, 2], ue, t0=2e-7)
    taus = toa_vector(scene)
    system = unit_system(
        [(taus[i], i + 1) for i in range(16)], scene.tile_centers, scene.p_bs
    )
    offsets = system.anchor_positions - system.ref_pos
    assert np.linalg.matrix_rank(offsets, tol=1e-9) == 1
    lattice = seed_lattice(ROOM, scene.tile_centers)
    assert np.linalg.norm(solve_position(system, lattice) - ue) < 1e-4


def test_build_system_validation():
    anchors = np.array([[1.0, 2, 1], [3.0, 4, 1]])
    p_bs = np.zeros(3)
    with pytest.raises(ValueError):
        build_system([(1e-8, 1), (2e-8, 2)], np.ones(2), anchors, p_bs)
    with pytest.raises(ValueError):
        build_system([(1e-8, 1), (2e-8, 1), (3e-8, 2)], np.ones(3), anchors, p_bs)


def test_build_system_owns_the_three_arrival_rule():
    anchors = np.array([[1.0, 2, 1], [3.0, 4, 1]])
    with pytest.raises(tdoa.BootstrapError, match="at least 3 labeled arrivals"):
        build_system([(1e-8, 1), (2e-8, 2)], np.ones(2), anchors, np.zeros(3))


def test_build_system_matches_loop_reference():
    rng = np.random.default_rng(2)
    tiles_xyz = random_general_anchors(rng, n=12)
    p_bs = np.array([-2.0, 4.0, 1.5])
    taus = rng.uniform(1e-8, 2e-8, 12)
    taus[[4, 9]] = taus.min() - 1e-9  # smallest ToA tied: tile 5 is the reference
    order = rng.permutation(12)
    entries = [(float(taus[i]), int(i) + 1) for i in order]
    system = unit_system(entries, tiles_xyz, p_bs)

    ref_tau, ref_tile = min((tau, k) for tau, k in entries)
    ref_pos = tiles_xyz[ref_tile - 1]
    d_ref = np.linalg.norm(p_bs - ref_pos)
    rows, gammas = [], []
    for tau, k in entries:
        if k == ref_tile:
            continue
        pos = tiles_xyz[k - 1]
        gamma = (tau - ref_tau) * SPEED_OF_LIGHT - (np.linalg.norm(p_bs - pos) - d_ref)
        rows.append(pos)
        gammas.append(gamma)
    assert system.ref_tile == ref_tile == 5
    np.testing.assert_array_equal(system.ref_pos, ref_pos)
    np.testing.assert_array_equal(system.anchor_positions, rows)
    np.testing.assert_allclose(system.gammas, gammas, rtol=0, atol=1e-12)


def test_exact_inversion_general_anchors():
    rng = np.random.default_rng(1)
    for _ in range(20):
        anchors = random_general_anchors(rng)
        p_bs = np.array([rng.uniform(-5, 0), rng.uniform(0, 10), rng.uniform(1, 3)])
        ue = np.array([rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5), 0.0])
        entries = exact_entries(anchors, p_bs, ue, t0=rng.uniform(0, 1e-6))
        system = unit_system(entries, anchors, p_bs)
        p = solve_position(system, seed_lattice(ROOM, anchors))
        assert np.linalg.norm(p - ue) < 1e-6


def test_exact_inversion_collinear_fallback():
    layout = RisLayout(tile_count=64, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [5, 5, 0], t0=3e-7)
    taus = toa_vector(scene)
    system = unit_system(
        [(taus[i], i + 1) for i in range(64)], scene.tile_centers, scene.p_bs
    )
    p = solve_position(system, seed_lattice(ROOM, scene.tile_centers))
    assert np.linalg.norm(p - scene.p_ue) < 1e-4


def test_under_determined_rejected():
    anchors = np.array([[1.0, 2, 1], [3.0, 4, 1]])
    with pytest.raises(ValueError):
        build_system([(1e-8, 1), (2e-8, 2)], np.ones(2), anchors, np.zeros(3))


def test_clock_invariance_of_solution():
    rng = np.random.default_rng(5)
    anchors = random_general_anchors(rng)
    p_bs = np.array([-1.0, 5.0, 2.0])
    ue = np.array([4.0, 3.0, 0.0])
    lattice = seed_lattice(ROOM, anchors)
    p0 = solve_position(
        unit_system(exact_entries(anchors, p_bs, ue, 0.0), anchors, p_bs), lattice
    )
    p1 = solve_position(
        unit_system(exact_entries(anchors, p_bs, ue, 7e-7), anchors, p_bs), lattice
    )
    assert np.linalg.norm(p0 - p1) < 1e-9


def test_translation_equivariance():
    rng = np.random.default_rng(6)
    anchors = random_general_anchors(rng)
    p_bs = np.array([-1.0, 5.0, 2.0])
    ue = np.array([4.0, 3.0, 0.0])
    shift = np.array([1.5, -2.0, 0.0])
    shifted_room = tuple(tuple(np.add(c, shift)) for c in ROOM)
    p0 = solve_position(
        unit_system(exact_entries(anchors, p_bs, ue), anchors, p_bs),
        seed_lattice(ROOM, anchors),
    )
    p1 = solve_position(
        unit_system(
            exact_entries(anchors + shift, p_bs + shift, ue + shift),
            anchors + shift,
            p_bs + shift,
        ),
        seed_lattice(shifted_room, anchors + shift),
    )
    assert np.linalg.norm((p1 - shift) - p0) < 1e-7


def test_residual_zero_at_truth():
    rng = np.random.default_rng(7)
    anchors = random_general_anchors(rng)
    p_bs = np.array([0.0, 5.0, 2.0])
    ue = np.array([6.0, 2.0, 0.0])
    system = unit_system(exact_entries(anchors, p_bs, ue), anchors, p_bs)
    d_ref = np.linalg.norm(ue - system.ref_pos)
    d = np.linalg.norm(ue - system.anchor_positions, axis=1)
    assert np.sum(np.abs(system.gammas - (d - d_ref))) < 1e-9


def test_extra_anchor_never_hurts_noiseless():
    rng = np.random.default_rng(8)
    anchors = random_general_anchors(rng, n=10)
    p_bs = np.array([-2.0, 6.0, 1.0])
    ue = np.array([2.5, 7.5, 0.0])
    entries = exact_entries(anchors, p_bs, ue)
    lattice = seed_lattice(ROOM, anchors)
    for n in (4, 6, 8, 10):
        system = unit_system(entries[:n], anchors, p_bs)
        p = solve_position(system, lattice)
        assert np.linalg.norm(p - ue) < 1e-6


def test_weighted_solve_matches_unweighted_on_exact_data():
    rng = np.random.default_rng(9)
    anchors = random_general_anchors(rng)
    p_bs = np.array([-1.0, 4.0, 2.0])
    ue = np.array([7.0, 2.0, 0.0])
    entries = exact_entries(anchors, p_bs, ue)
    system = unit_system(entries, anchors, p_bs)
    lattice = seed_lattice(ROOM, anchors)
    p_plain = solve_position(system, lattice)
    sigmas = rng.uniform(0.5, 2.0, len(system.gammas))
    p_weighted = solve_position(replace(system, **gls_weights(sigmas, 0.7)), lattice)
    assert np.linalg.norm(p_plain - ue) < 1e-6
    assert np.linalg.norm(p_weighted - ue) < 1e-6


def test_weighted_solve_downweights_corrupt_anchor():
    rng = np.random.default_rng(10)
    layout = RisLayout(tile_count=8, tile_spacing=0.8, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    taus = toa_vector(scene)
    lattice = seed_lattice(ROOM, scene.tile_centers)
    errs = {"plain": [], "weighted": []}
    for _ in range(30):
        noisy = taus.copy()
        noisy[5] += rng.normal(0, 3e-9)  # one anchor much noisier
        noisy += rng.normal(0, 1e-11, 8)
        entries = [(float(noisy[i]), i + 1) for i in range(8)]
        system = unit_system(entries, scene.tile_centers, scene.p_bs)
        heights = np.ones(8)
        heights[5] = 1.0 / 300.0  # tile 6: 300 times the others' error scale
        weighted = build_system(entries, heights, scene.tile_centers, scene.p_bs)
        assert weighted.ref_tile != 6
        errs["plain"].append(
            np.linalg.norm(solve_position(system, lattice) - scene.p_ue)
        )
        errs["weighted"].append(
            np.linalg.norm(solve_position(weighted, lattice) - scene.p_ue)
        )
    assert np.median(errs["weighted"]) < np.median(errs["plain"])


def test_the_system_owns_the_height_weights_and_no_scale_moves_them():
    # a desk trial's baseline entries: every detected arrival, with its height
    cfg = ExperimentConfig(
        tile_count=16, subcarriers=256, spacing_hz=1.5625e6, frames=8, seed=5
    )
    obs = observe(cfg, np.array([3.0, 6.0, 0.0]), np.random.default_rng(5))
    entries, mags = label_baseline_dft(obs.toa_groups, obs.assignment)
    assert len(entries) > 3 and len(set(mags)) == len(mags)
    dep = cfg.deployment
    system = build_system(entries, mags, dep.tile_centers, dep.p_bs)

    # the scales the labeled solve once formed and whitened: height_ref /
    # height per row, 1 for the reference, diagonal plus rank one
    by_tile = {k: m for (_, k), m in zip(entries, mags)}
    ref_height = by_tile[system.ref_tile]
    sigmas = np.array(
        [ref_height / by_tile[k] for _, k in entries if k != system.ref_tile]
    )
    dinv = 1.0 / np.maximum(sigmas, 1e-30) ** 2
    s2_ref = float(1.0) ** 2
    k = s2_ref / (1.0 + s2_ref * float(np.sum(dinv)))
    assert np.array_equal(system.dinv, dinv) and system.k == k

    fix = solve_position(system, dep.lattice)
    for j in (-900, 0, 900):
        heights = [m * 2.0**j for m in mags]
        scaled = build_system(entries, heights, dep.tile_centers, dep.p_bs)
        assert np.array_equal(scaled.dinv, system.dinv) and scaled.k == system.k
        assert np.array_equal(solve_position(scaled, dep.lattice), fix)


# the tile centers of the linear RIS below, and their seed lattice in ROOM
LINEAR_TILES = build_scene(
    RisLayout(tile_count=8, tile_spacing=0.8, center=[5, 10, 2], axis=[1, 0, 0]),
    [0, 5, 2],
    [4, 4, 0],
).tile_centers
LINEAR_LATTICE = seed_lattice(ROOM, LINEAR_TILES)


def noisy_linear_system(seed, sigma_ref):
    # a linear RIS: collinear anchors, as in every simulated trial; the
    # system is weighted as the GLS fit with scales ``sigmas`` and ``sigma_ref``
    rng = np.random.default_rng(seed)
    layout = RisLayout(tile_count=8, tile_spacing=0.8, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    taus = toa_vector(scene) + rng.normal(0, 2e-10, 8)
    entries = [(float(taus[i]), i + 1) for i in range(8)]
    system = unit_system(entries, scene.tile_centers, scene.p_bs)
    sigmas = rng.uniform(0.02, 0.2, len(system.gammas))
    return replace(system, **gls_weights(sigmas, sigma_ref)), sigmas


def dense_gls_gradient(system, p, sigmas, sigma_ref, h=1e-5):
    """Central-difference floor gradient of the dense GLS cost at ``p``."""
    n = len(sigmas)
    cov_inv = np.linalg.inv(np.diag(sigmas**2) + sigma_ref**2 * np.ones((n, n)))

    def cost(xy):
        q = np.array([xy[0], xy[1], 0.0])
        d = np.linalg.norm(q - system.anchor_positions, axis=1)
        r = system.gammas - (d - np.linalg.norm(q - system.ref_pos))
        return r @ cov_inv @ r

    return np.array(
        [(cost(p[:2] + e) - cost(p[:2] - e)) / (2 * h) for e in np.eye(2) * h]
    )


def test_weighted_fallback_is_stationary_for_dense_gls_cost():
    sigma_ref = 0.05
    system, sigmas = noisy_linear_system(11, sigma_ref)
    p = solve_position(system, LINEAR_LATTICE)
    assert np.all((p[:2] > 0.5) & (p[:2] < 9.5))  # an interior minimum
    assert np.linalg.norm(dense_gls_gradient(system, p, sigmas, sigma_ref)) < 1e-6
    # the common-mode term matters: without it the fix is off the minimum
    assert np.linalg.norm(dense_gls_gradient(system, p, sigmas, 0.0)) > 1e-3


def test_fallback_out_of_iterations_raises_with_estimate_in_room(monkeypatch):
    system, sigmas = noisy_linear_system(12, 0.05)
    monkeypatch.setattr(tdoa, "_MAX_ITER", 1)
    unit = replace(system, **gls_weights(np.ones(len(sigmas)), 1.0))
    for weighted in (unit, system):
        with pytest.raises(PositionEstimationError) as excinfo:
            solve_position(weighted, LINEAR_LATTICE)
        p = excinfo.value.best_estimate
        assert p is not None and p[2] == 0.0
        assert np.all(p >= np.array(ROOM[0])) and np.all(p <= np.array(ROOM[1]))


def test_a_nan_arrival_raises_a_plain_value_error_before_any_descent():
    # every lattice cost is NaN, so no point can seed a descent: a config
    # no trial can run, not a censored fit
    rng = np.random.default_rng(4)
    anchors = random_general_anchors(rng)
    p_bs = np.array([-2.0, 4.0, 1.5])
    entries = exact_entries(anchors, p_bs, np.array([3.0, 6.0, 0.0]))
    entries[3] = (float("nan"), entries[3][1])
    system = unit_system(entries, anchors, p_bs)
    match = "no finite local minimum of the cost"
    with pytest.raises(ValueError, match=match) as excinfo:
        solve_position(system, seed_lattice(ROOM, anchors))
    assert not isinstance(excinfo.value, PositionEstimationError)


def _system_beyond_walls(ue):
    # a linear RIS, as in every simulated trial, and a UE outside the room:
    # the unconstrained minimum of the noiseless cost lies at ``ue``; weighted
    # as the GLS fit with scales ``sigmas`` and 0.05
    layout = RisLayout(tile_count=8, tile_spacing=0.8, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    system = unit_system(
        exact_entries(scene.tile_centers, scene.p_bs, np.asarray(ue)),
        scene.tile_centers,
        scene.p_bs,
    )
    sigmas = np.random.default_rng(13).uniform(0.02, 0.2, len(system.gammas))
    return replace(system, **gls_weights(sigmas, 0.05)), sigmas


def test_minimum_beyond_a_wall_converges_on_the_wall():
    system, sigmas = _system_beyond_walls([-1.5, 4.0, 0.0])
    p = solve_position(system, LINEAR_LATTICE)
    assert p[0] == 0.0 and 0.0 < p[1] < 10.0
    g_x, g_y = dense_gls_gradient(system, p, sigmas, 0.05)
    assert abs(g_y) < 1e-6  # stationary along the wall
    assert g_x > 1e-3  # the descent direction -g points out through x = 0


def test_minimum_beyond_a_corner_converges_on_the_corner():
    system, sigmas = _system_beyond_walls([14.0, -8.0, 0.0])
    p = solve_position(system, LINEAR_LATTICE)
    assert p[0] == 10.0 and p[1] == 0.0
    g_x, g_y = dense_gls_gradient(system, p, sigmas, 0.05)
    # -g points out of the room through both walls: x = 10 and y = 0
    assert g_x < -1e-3 and g_y > 1e-3


def _desk_wall_system():
    # the weighted bootstrap solve of a desk trial (seed 1, trial solve 292)
    return TdoaSystem(
        ref_tile=1,
        ref_pos=np.array([4.25, 10.0, 2.0]),
        anchor_positions=np.array(
            [[4.75, 10.0, 2.0], [5.25, 10.0, 2.0], [5.75, 10.0, 2.0]]
        ),
        gammas=np.array(
            [0.23627843146434357, 0.49129712021605254, 0.7645646330304745]
        ),
        anchor_rows=np.array([1, 2, 3]),
        **gls_weights(
            np.array([0.4139880890734635, 0.6606798533108409, 0.9469221785393026]),
            0.7085783888743424,
        ),
    )


def test_wall_descent_from_a_desk_trial_converges_quickly():
    # from the room center, the clamped 2-D step crawled along the x = 0 wall
    # and used all 100 iterations without converging
    system = _desk_wall_system()
    p, _, done = _gn_descend(system, np.array([5.0, 5.0]), ROOM, 20)
    assert done
    assert p[0] == 0.0 and p[1] == pytest.approx(1.824, abs=1e-3)


def test_descent_stops_on_a_short_step_without_evaluating_it(monkeypatch):
    # the desk system above, from (1, 2): the descent stops before it
    # evaluates a step shorter than 10 nm, which a cost comparison cannot
    # resolve, and makes 15 cost evaluations
    system = _desk_wall_system()
    evaluations = []

    class CountingMath:
        # each cost evaluation takes one scalar square root: the distance
        # to the reference anchor
        def sqrt(self, value):
            evaluations.append(value)
            return math.sqrt(value)

        def __getattr__(self, name):
            return getattr(math, name)

    monkeypatch.setattr(tdoa, "math", CountingMath())
    p, _, done = _gn_descend(system, np.array([1.0, 2.0]), ROOM, 100)
    assert done
    assert p[0] == 0.0 and p[1] == pytest.approx(1.824, abs=1e-3)
    assert len(evaluations) <= 22


def _mirror_plane_system():
    # the weighted bootstrap solve of a desk trial with the RIS at (5, 5, 2)
    # (seed 1, trial 14); the anchors' mirror plane is y = 5
    sigmas = np.array([0.9027465275675126, 0.3426618025046, 0.7998067985317598])
    sigma_ref = 2.7026985222616036
    system = TdoaSystem(
        ref_tile=1,
        ref_pos=np.array([4.25, 5.0, 2.0]),
        anchor_positions=np.array(
            [[4.75, 5.0, 2.0], [5.25, 5.0, 2.0], [5.75, 5.0, 2.0]]
        ),
        gammas=np.array(
            [-0.21121928337357104, -0.3486304976696608, -0.37277577429165]
        ),
        anchor_rows=np.array([1, 2, 3]),
        **gls_weights(sigmas, sigma_ref),
    )
    return system, sigmas, sigma_ref


def _whitened_costs(system, points, sigmas, sigma_ref):
    # r^T C^-1 r at each floor point, with the covariance written out
    cov = np.diag(sigmas**2) + sigma_ref**2
    inv = np.linalg.inv(cov)
    costs = []
    for x, y in points:
        p = np.array([x, y, 0.0])
        d = np.linalg.norm(system.anchor_positions - p, axis=1)
        r = system.gammas - (d - np.linalg.norm(system.ref_pos - p))
        costs.append(r @ inv @ r)
    return np.array(costs)


def test_the_seed_is_the_lowest_finite_cost_with_ties_in_lattice_order():
    mirror, sigmas, sigma_ref = _mirror_plane_system()
    lattice = seed_lattice(ROOM, np.vstack([mirror.ref_pos, mirror.anchor_positions]))
    cost = _whitened_costs(mirror, lattice.points, sigmas, sigma_ref)
    low = np.argmin(cost)
    assert lattice.points[low][1] == 5.0  # on the anchors' mirror plane
    assert np.array_equal(tdoa._lattice_seed(mirror, lattice),
                          lattice.points[low])

    # non-finite costs are skipped.  With a NaN distance at the lowest point
    # the next lowest cost ties exactly between y = 5 - a and y = 5 + a, which
    # have equal distances; the lower y comes first in lattice order
    rest = cost.copy()
    rest[low] = np.inf
    twins = np.flatnonzero(rest == rest.min())
    assert len(twins) == 2 and lattice.points[twins[0]][1] < 5.0
    distances = lattice.distances.copy()
    distances[low, 1] = np.nan
    holed = tdoa.SeedLattice(room=ROOM, points=lattice.points, distances=distances)
    assert np.array_equal(tdoa._lattice_seed(mirror, holed),
                          lattice.points[twins[0]])
    # an inf distance at the first twin leaves the second
    distances[twins[0], 2] = np.inf
    with np.errstate(invalid="ignore"):  # inf - inf in the holed lattice
        seed = tdoa._lattice_seed(mirror, holed)
    assert np.array_equal(seed, lattice.points[twins[1]])

    # no finite cost at all: a NaN range difference
    nan_gamma = replace(mirror, gammas=np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="no finite local minimum"):
        tdoa._lattice_seed(nan_gamma, lattice)


def test_a_lattice_for_a_smaller_room_bounds_the_fit_to_its_floor():
    # the lattice carries its room: a solve on it never leaves that floor,
    # even where the exact minimum (the UE) lies outside it
    ue = np.array([7.0, 6.0, 0.0])
    p_bs = np.array([0.0, 5.0, 2.0])
    system = unit_system(exact_entries(LINEAR_TILES, p_bs, ue), LINEAR_TILES, p_bs)
    small = ((1.0, 0.5, 0.0), (5.0, 4.0, 3.0))
    p = solve_position(system, seed_lattice(small, LINEAR_TILES))
    assert np.all(p[:2] >= small[0][:2]) and np.all(p[:2] <= small[1][:2])
    assert p[2] == 0.0
    assert np.linalg.norm(solve_position(system, LINEAR_LATTICE) - ue) < 1e-6


def test_slow_approach_to_the_ris_wall_resumes_and_converges():
    # the weighted bootstrap solve of a desk trial (seed 11, trial 337): the
    # lattice has one local minimum, and its descent approaches the minimum
    # on the RIS wall y = 10 so slowly that 100 iterations do not converge
    sigmas = np.array([2.0440967304442035, 1.401282405339956, 0.2337682381923353])
    sigma_ref = 0.3188841507180317
    system = TdoaSystem(
        ref_tile=1,
        ref_pos=np.array([4.25, 10.0, 2.0]),
        anchor_positions=np.array(
            [[4.75, 10.0, 2.0], [5.25, 10.0, 2.0], [5.75, 10.0, 2.0]]
        ),
        gammas=np.array(
            [0.39637915646020394, 0.8338318616062865, 1.2707583727074359]
        ),
        anchor_rows=np.array([1, 2, 3]),
        **gls_weights(sigmas, sigma_ref),
    )
    _, _, done = _gn_descend(system, np.array([1.0, 8.5]), ROOM, 100)
    assert not done
    tiles = np.vstack([system.ref_pos, system.anchor_positions])  # rows 0..3
    p = solve_position(system, seed_lattice(ROOM, tiles))
    assert p[1] == 10.0
    assert abs(dense_gls_gradient(system, p, sigmas, sigma_ref)[0]) < 1e-6


def test_noiseless_floor_points_recovered_near_walls():
    # 5 cm from every wall, the RIS wall included: a seed on that wall would
    # stay there, since the gradient across the anchors' mirror plane vanishes
    layout = RisLayout(tile_count=8, tile_spacing=0.8, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    lattice = seed_lattice(ROOM, scene.tile_centers)
    for x in np.linspace(0.05, 9.95, 5):
        for y in np.linspace(0.05, 9.95, 5):
            ue = np.array([x, y, 0.0])
            entries = exact_entries(scene.tile_centers, scene.p_bs, ue)
            system = unit_system(entries, scene.tile_centers, scene.p_bs)
            assert np.linalg.norm(solve_position(system, lattice) - ue) < 1e-6
