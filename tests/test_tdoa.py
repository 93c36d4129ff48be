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


def gls_weights(sigmas):
    """``w`` as :func:`build_system` forms it for arrivals at peak heights
    ``1/sigmas``: the GLS fit with those range-error scales, its cost scaled
    by ``min(sigmas)**2``."""
    heights = 1.0 / np.asarray(sigmas)
    return {"w": (heights / heights.max()) ** 2}


def exact_entries(anchors, p_bs, ue, t0=0.0):
    taus = (
        np.linalg.norm(p_bs - anchors, axis=1) + np.linalg.norm(ue - anchors, axis=1)
    ) / SPEED_OF_LIGHT + t0
    return [(float(taus[i]), i + 1) for i in range(len(anchors))]


def earliest_first(entries):
    """``entries`` with the earliest arrival moved to the front."""
    entries = list(entries)
    entries.insert(0, entries.pop(entries.index(min(entries))))
    return entries


def random_general_anchors(rng, n=8):
    # anchors spread over the full room volume: full-rank geometry
    return np.column_stack(
        [
            rng.uniform(0, 10, n),
            rng.uniform(0, 10, n),
            rng.uniform(0.2, 3.0, n),
        ]
    )


def test_a_common_clock_offset_leaves_the_ranges_unchanged():
    rng = np.random.default_rng(0)
    anchors = random_general_anchors(rng)
    p_bs = np.array([-2.0, 4.0, 1.5])
    ue = np.array([3.0, 6.0, 0.0])
    s0 = unit_system(exact_entries(anchors, p_bs, ue, t0=0.0), anchors, p_bs)
    s1 = unit_system(exact_entries(anchors, p_bs, ue, t0=1e-6), anchors, p_bs)
    assert np.allclose(s0.ranges, s1.ranges, atol=1e-9)


def test_symmetric_tiles_equal_ranges():
    anchors = np.array([[4.0, 10.0, 2.0], [6.0, 10.0, 2.0], [5.0, 8.0, 1.0]])
    p_bs = np.array([5.0, 0.0, 2.0])  # equidistant from tiles 1 and 2
    ue = np.array([5.0, 5.0, 0.0])  # likewise
    entries = exact_entries(anchors, p_bs, ue)
    system = unit_system(entries, anchors, p_bs)
    tiles = [k for _, k in entries]
    g1 = system.ranges[tiles.index(1)]
    g2 = system.ranges[tiles.index(2)]
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
    offsets = system.positions - system.positions[0]
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
    taus[[4, 9]] = taus.min() - 1e-9  # smallest ToA tied: tiles 5 and 10
    order = rng.permutation(12)
    entries = [(float(taus[i]), int(i) + 1) for i in order]
    system = unit_system(entries, tiles_xyz, p_bs)

    first_tau = min(tau for tau, _ in entries)
    rows, positions, ranges = [], [], []
    for tau, k in entries:
        pos = tiles_xyz[k - 1]
        rows.append(k - 1)
        positions.append(pos)
        ranges.append((tau - first_tau) * SPEED_OF_LIGHT - np.linalg.norm(p_bs - pos))
    tied = [rows.index(4), rows.index(9)]
    assert np.array_equal(
        system.ranges[tied], -np.linalg.norm(p_bs - tiles_xyz[[4, 9]], axis=1)
    )
    np.testing.assert_array_equal(system.rows, rows)
    np.testing.assert_array_equal(system.positions, positions)
    np.testing.assert_allclose(system.ranges, ranges, rtol=0, atol=1e-12)


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
    e = system.ranges - np.linalg.norm(ue - system.positions, axis=1)
    assert np.sum(np.abs(e - e[0])) < 1e-9  # one common offset


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
    sigmas = rng.uniform(0.5, 2.0, len(system.ranges))
    p_weighted = solve_position(replace(system, **gls_weights(sigmas)), lattice)
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
        assert weighted.w[5] == (1.0 / 300.0) ** 2
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

    # the weights of the labeled solve: each arrival's height over the
    # largest, squared, one per arrival in entry order
    top = max(mags)
    w = np.array([(m / top) ** 2 for m in mags])
    assert np.array_equal(system.w, w)

    fix = solve_position(system, dep.lattice)
    for j in (-900, 0, 900):
        heights = [m * 2.0**j for m in mags]
        scaled = build_system(entries, heights, dep.tile_centers, dep.p_bs)
        assert np.array_equal(scaled.w, system.w)
        assert np.array_equal(solve_position(scaled, dep.lattice), fix)


def reference_differenced_cost(entries, heights, tile_positions, p_bs, points):
    """The solve's cost as it was once formed, at floor ``points`` (P, 2):
    range differences against the earliest arrival (ties to the lower tile),
    whose error is common to every residual, weighted by the Sherman-Morrison
    inverse ``D - k (D 1)(D 1)^T`` of their covariance, ``D = diag(dinv)``."""
    toas = np.array([t for t, _ in entries])
    tiles = np.array([k for _, k in entries])
    heights = np.asarray(heights, dtype=float)
    ref = int(np.lexsort((tiles, toas))[0])
    rest = np.arange(len(entries)) != ref
    pos = np.asarray(tile_positions)[tiles - 1]
    d_bs = np.linalg.norm(np.asarray(p_bs) - pos, axis=1)
    gammas = (toas[rest] - toas[ref]) * SPEED_OF_LIGHT - (d_bs[rest] - d_bs[ref])
    dinv = (heights[rest] / heights[ref]) ** 2
    k = 1.0 / (1.0 + float(np.sum(dinv)))
    floor = np.column_stack([points, np.zeros(len(points))])
    d = np.linalg.norm(floor[:, None, :] - pos, axis=2)
    r = gammas - (d[:, rest] - d[:, [ref]])
    q_sum = r @ dinv
    return (r * r) @ dinv - k * q_sum * q_sum, (heights[ref] / heights.max()) ** 2


@pytest.mark.parametrize("full", [False, True], ids=["desk", "full"])
def test_the_offset_free_cost_is_the_reference_differenced_cost(full):
    # concentrating the common offset out of one range per arrival gives the
    # reference-differenced weighted cost, scaled by the earliest arrival's
    # weight; a trial's baseline entries: every detected arrival, each height
    cfg = ExperimentConfig(seed=5) if full else ExperimentConfig(
        tile_count=16, subcarriers=256, spacing_hz=1.5625e6, frames=8, seed=5
    )
    rng = np.random.default_rng(5)
    obs = observe(cfg, np.array([3.0, 6.0, 0.0]), rng)
    entries, mags = label_baseline_dft(obs.toa_groups, obs.assignment)
    dep = cfg.deployment
    system = build_system(entries, mags, dep.tile_centers, dep.p_bs)
    room = dep.lattice.room

    points = rng.uniform(room[0][:2], room[1][:2], (20, 2))
    expected, scale = reference_differenced_cost(
        entries, mags, dep.tile_centers, dep.p_bs, points
    )
    costs = [_gn_descend(system, xy, room, 0)[1] for xy in points]
    np.testing.assert_allclose(costs, expected * scale, rtol=1e-9)

    on_lattice, _ = reference_differenced_cost(
        entries, mags, dep.tile_centers, dep.p_bs, dep.lattice.points
    )
    assert np.array_equal(
        tdoa._lattice_seed(system, dep.lattice),
        dep.lattice.points[np.argmin(on_lattice)],
    )


# the tile centers of the linear RIS below, and their seed lattice in ROOM
LINEAR_TILES = build_scene(
    RisLayout(tile_count=8, tile_spacing=0.8, center=[5, 10, 2], axis=[1, 0, 0]),
    [0, 5, 2],
    [4, 4, 0],
).tile_centers
LINEAR_LATTICE = seed_lattice(ROOM, LINEAR_TILES)


def noisy_linear_system(seed, sigma_ref):
    # a linear RIS: collinear anchors, as in every simulated trial; the
    # system is weighted as the GLS fit with scales ``sigma_ref`` for the
    # earliest arrival, its first, and ``sigmas`` for the rest
    rng = np.random.default_rng(seed)
    layout = RisLayout(tile_count=8, tile_spacing=0.8, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    taus = toa_vector(scene) + rng.normal(0, 2e-10, 8)
    entries = earliest_first((float(taus[i]), i + 1) for i in range(8))
    system = unit_system(entries, scene.tile_centers, scene.p_bs)
    sigmas = rng.uniform(0.02, 0.2, len(system.ranges) - 1)
    return replace(system, **gls_weights(np.r_[sigma_ref, sigmas])), sigmas


def differenced_residuals(system, q):
    """Range residuals at floor point ``q`` differenced against the first
    arrival: the common offset cancels."""
    floor = np.array([q[0], q[1], 0.0])
    e = system.ranges - np.linalg.norm(floor - system.positions, axis=1)
    return e[1:] - e[0]


def dense_gls_gradient(system, p, sigmas, sigma_ref, h=1e-5):
    """Central-difference floor gradient of the dense GLS cost at ``p``: the
    residuals differenced against the first arrival, of scale ``sigma_ref``,
    whose error is common to all of them."""
    n = len(sigmas)
    cov_inv = np.linalg.inv(np.diag(sigmas**2) + sigma_ref**2 * np.ones((n, n)))

    def cost(xy):
        r = differenced_residuals(system, xy)
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
    unit = replace(system, **gls_weights(np.ones(len(system.ranges))))
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
    # as the GLS fit with scales 0.05 for the earliest arrival, its first, and
    # ``sigmas`` for the rest
    layout = RisLayout(tile_count=8, tile_spacing=0.8, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    system = unit_system(
        earliest_first(exact_entries(scene.tile_centers, scene.p_bs, np.asarray(ue))),
        scene.tile_centers,
        scene.p_bs,
    )
    sigmas = np.random.default_rng(13).uniform(0.02, 0.2, len(system.ranges) - 1)
    return replace(system, **gls_weights(np.r_[0.05, sigmas])), sigmas


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
    # the weighted bootstrap solve of a desk trial (seed 1, trial solve 292),
    # its ranges taken relative to the earliest arrival's
    return TdoaSystem(
        rows=np.array([0, 1, 2, 3]),
        positions=np.array(
            [[4.25, 10.0, 2.0], [4.75, 10.0, 2.0], [5.25, 10.0, 2.0], [5.75, 10.0, 2.0]]
        ),
        ranges=np.array(
            [0.0, 0.23627843146434357, 0.49129712021605254, 0.7645646330304745]
        ),
        **gls_weights(
            np.array(
                [0.7085783888743424, 0.4139880890734635, 0.6606798533108409,
                 0.9469221785393026]
            )
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
    # resolve, and makes 16 cost evaluations
    system = _desk_wall_system()
    evaluations = []

    class CountingNumpy:
        # each cost evaluation takes one square root: the distances to the
        # tiles
        def sqrt(self, value):
            evaluations.append(value)
            return np.sqrt(value)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(tdoa, "np", CountingNumpy())
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
        rows=np.array([0, 1, 2, 3]),
        positions=np.array(
            [[4.25, 5.0, 2.0], [4.75, 5.0, 2.0], [5.25, 5.0, 2.0], [5.75, 5.0, 2.0]]
        ),
        ranges=np.array(
            [0.0, -0.21121928337357104, -0.3486304976696608, -0.37277577429165]
        ),
        **gls_weights(np.r_[sigma_ref, sigmas]),
    )
    return system, sigmas, sigma_ref


def _whitened_costs(system, points, sigmas, sigma_ref):
    # r^T C^-1 r at each floor point, with the covariance written out
    cov = np.diag(sigmas**2) + sigma_ref**2
    inv = np.linalg.inv(cov)
    costs = []
    for xy in points:
        r = differenced_residuals(system, xy)
        costs.append(r @ inv @ r)
    return np.array(costs)


def test_the_seed_is_the_lowest_finite_cost_with_ties_in_lattice_order():
    mirror, sigmas, sigma_ref = _mirror_plane_system()
    lattice = seed_lattice(ROOM, mirror.positions)
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

    # no finite cost at all: a NaN range
    nan_range = replace(mirror, ranges=np.array([0.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="no finite local minimum"):
        tdoa._lattice_seed(nan_range, lattice)


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


def slow_approach_system():
    """The weighted bootstrap solve of a desk trial (seed 11, trial 337): the
    lattice has one local minimum, and its descent approaches the minimum on
    the RIS wall y = 10 so slowly that 100 iterations do not converge."""
    sigmas = np.array([2.0440967304442035, 1.401282405339956, 0.2337682381923353])
    sigma_ref = 0.3188841507180317
    system = TdoaSystem(
        rows=np.array([0, 1, 2, 3]),
        positions=np.array(
            [[4.25, 10.0, 2.0], [4.75, 10.0, 2.0], [5.25, 10.0, 2.0], [5.75, 10.0, 2.0]]
        ),
        ranges=np.array(
            [0.0, 0.39637915646020394, 0.8338318616062865, 1.2707583727074359]
        ),
        **gls_weights(np.r_[sigma_ref, sigmas]),
    )
    return system, sigmas, sigma_ref


def test_slow_approach_to_the_ris_wall_converges_within_the_budget():
    system, sigmas, sigma_ref = slow_approach_system()
    _, _, done = _gn_descend(system, np.array([1.0, 8.5]), ROOM, 100)
    assert not done
    p = solve_position(system, seed_lattice(ROOM, system.positions))
    assert p[1] == 10.0
    assert abs(dense_gls_gradient(system, p, sigmas, sigma_ref)[0]) < 1e-6


def test_a_solve_is_one_descent_of_200_iterations(monkeypatch):
    # the slow approach needs more than 100 iterations, and still takes one
    # descent from the lattice seed: the solve never restarts it
    system, _, _ = slow_approach_system()
    lattice = seed_lattice(ROOM, system.positions)
    calls = []

    def spy(system, start_xy, room, max_iter):
        calls.append((tuple(start_xy), max_iter))
        return _gn_descend(system, start_xy, room, max_iter)

    monkeypatch.setattr(tdoa, "_gn_descend", spy)
    solve_position(system, lattice)
    seed = tuple(tdoa._lattice_seed(system, lattice))
    assert calls == [(seed, 200)]


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
