import numpy as np
import pytest

from ris_nfloc.constants import SPEED_OF_LIGHT
from ris_nfloc.geometry import RisLayout, build_scene, toa_vector
from ris_nfloc.tdoa import (
    PositionEstimationError,
    TdoaSystem,
    _gn_descend,
    _ResidualWhitener,
    build_system,
    solve_position,
)

ROOM = ((0.0, 0.0, 0.0), (10.0, 10.0, 3.0))


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
    s0 = build_system(exact_entries(anchors, p_bs, ue, t0=0.0), anchors, p_bs)
    s1 = build_system(exact_entries(anchors, p_bs, ue, t0=1e-6), anchors, p_bs)
    assert np.allclose(s0.gammas, s1.gammas, atol=1e-9)


def test_symmetric_tiles_equal_gammas():
    anchors = np.array([[4.0, 10.0, 2.0], [6.0, 10.0, 2.0], [5.0, 8.0, 1.0]])
    p_bs = np.array([5.0, 0.0, 2.0])  # equidistant from tiles 1 and 2
    ue = np.array([5.0, 5.0, 0.0])  # likewise
    entries = exact_entries(anchors, p_bs, ue)
    system = build_system(entries, anchors, p_bs)
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
    layout = RisLayout(tile_count=16, tile_spacing=0.1, center=[5, 10, 2], axis=axis)
    ue = np.array([3.0, 4.0, 0.0])
    scene = build_scene(layout, [0, 5, 2], ue, t0=2e-7)
    taus = toa_vector(scene)
    system = build_system(
        [(taus[i], i + 1) for i in range(16)], scene.tile_centers, scene.p_bs
    )
    offsets = system.anchor_positions - system.ref_pos
    assert np.linalg.matrix_rank(offsets, tol=1e-9) == 1
    if axis != (0, 0, 1):
        # a vertical RIS stands over one floor point: its delays fix only the
        # UE's distance from that point
        assert np.linalg.norm(solve_position(system, room=ROOM) - ue) < 1e-4


def test_build_system_validation():
    anchors = np.array([[1.0, 2, 1], [3.0, 4, 1]])
    p_bs = np.zeros(3)
    with pytest.raises(ValueError):
        build_system([(1e-8, 1), (2e-8, 2)], anchors, p_bs)
    with pytest.raises(ValueError):
        build_system([(1e-8, 1), (2e-8, 1), (3e-8, 2)], anchors, p_bs)


def test_build_system_matches_loop_reference():
    rng = np.random.default_rng(2)
    tiles_xyz = random_general_anchors(rng, n=12)
    p_bs = np.array([-2.0, 4.0, 1.5])
    taus = rng.uniform(1e-8, 2e-8, 12)
    taus[[4, 9]] = taus.min() - 1e-9  # smallest ToA tied: tile 5 is the reference
    order = rng.permutation(12)
    entries = [(float(taus[i]), int(i) + 1) for i in order]
    system = build_system(entries, tiles_xyz, p_bs)

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
        system = build_system(entries, anchors, p_bs)
        p = solve_position(system, room=ROOM)
        assert np.linalg.norm(p - ue) < 1e-6


def test_exact_inversion_collinear_fallback():
    layout = RisLayout(tile_count=64, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [5, 5, 0], t0=3e-7)
    taus = toa_vector(scene)
    system = build_system(
        [(taus[i], i + 1) for i in range(64)], scene.tile_centers, scene.p_bs
    )
    p = solve_position(system, room=ROOM)
    assert np.linalg.norm(p - scene.p_ue) < 1e-4


def test_under_determined_rejected():
    anchors = np.array([[1.0, 2, 1], [3.0, 4, 1]])
    with pytest.raises(ValueError):
        build_system([(1e-8, 1), (2e-8, 2)], anchors, np.zeros(3))


def test_clock_invariance_of_solution():
    rng = np.random.default_rng(5)
    anchors = random_general_anchors(rng)
    p_bs = np.array([-1.0, 5.0, 2.0])
    ue = np.array([4.0, 3.0, 0.0])
    p0 = solve_position(
        build_system(exact_entries(anchors, p_bs, ue, 0.0), anchors, p_bs), room=ROOM
    )
    p1 = solve_position(
        build_system(exact_entries(anchors, p_bs, ue, 7e-7), anchors, p_bs), room=ROOM
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
        build_system(exact_entries(anchors, p_bs, ue), anchors, p_bs), room=ROOM
    )
    p1 = solve_position(
        build_system(
            exact_entries(anchors + shift, p_bs + shift, ue + shift),
            anchors + shift,
            p_bs + shift,
        ),
        room=shifted_room,
    )
    assert np.linalg.norm((p1 - shift) - p0) < 1e-7


def test_residual_zero_at_truth():
    rng = np.random.default_rng(7)
    anchors = random_general_anchors(rng)
    p_bs = np.array([0.0, 5.0, 2.0])
    ue = np.array([6.0, 2.0, 0.0])
    system = build_system(exact_entries(anchors, p_bs, ue), anchors, p_bs)
    d_ref = np.linalg.norm(ue - system.ref_pos)
    d = np.linalg.norm(ue - system.anchor_positions, axis=1)
    assert np.sum(np.abs(system.gammas - (d - d_ref))) < 1e-9


def test_extra_anchor_never_hurts_noiseless():
    rng = np.random.default_rng(8)
    anchors = random_general_anchors(rng, n=10)
    p_bs = np.array([-2.0, 6.0, 1.0])
    ue = np.array([2.5, 7.5, 0.0])
    entries = exact_entries(anchors, p_bs, ue)
    for n in (4, 6, 8, 10):
        system = build_system(entries[:n], anchors, p_bs)
        p = solve_position(system, room=ROOM)
        assert np.linalg.norm(p - ue) < 1e-6


def test_weighted_solve_matches_unweighted_on_exact_data():
    rng = np.random.default_rng(9)
    anchors = random_general_anchors(rng)
    p_bs = np.array([-1.0, 4.0, 2.0])
    ue = np.array([7.0, 2.0, 0.0])
    entries = exact_entries(anchors, p_bs, ue)
    system = build_system(entries, anchors, p_bs)
    p_plain = solve_position(system, room=ROOM)
    sigmas = rng.uniform(0.5, 2.0, len(system.gammas))
    p_weighted = solve_position(
        system, room=ROOM, sigmas=sigmas, sigma_ref=0.7
    )
    assert np.linalg.norm(p_plain - ue) < 1e-6
    assert np.linalg.norm(p_weighted - ue) < 1e-6


def _noisy_general_system(seed):
    rng = np.random.default_rng(seed)
    anchors = random_general_anchors(rng)
    p_bs = np.array([-1.0, 4.0, 2.0])
    entries = exact_entries(anchors, p_bs, np.array([7.0, 2.0, 0.0]))
    entries = [(t + rng.normal(0, 2e-10), k) for t, k in entries]
    return build_system(entries, anchors, p_bs)


@pytest.mark.parametrize("room", [ROOM], ids=["room"])
@pytest.mark.parametrize(
    "make_system",
    [lambda: noisy_linear_system(4)[0], lambda: _noisy_general_system(4)],
    ids=["collinear", "general"],
)
def test_unit_weights_give_the_unweighted_fix_bit_for_bit(make_system, room):
    system = make_system()
    n = len(system.gammas)
    plain = solve_position(system, room=room)
    unit = solve_position(system, room=room, sigmas=np.ones(n), sigma_ref=0.0)
    assert np.array_equal(plain, unit)


def test_weighted_solve_downweights_corrupt_anchor():
    rng = np.random.default_rng(10)
    layout = RisLayout(tile_count=8, tile_spacing=0.8, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    taus = toa_vector(scene)
    errs = {"plain": [], "weighted": []}
    for _ in range(30):
        noisy = taus.copy()
        noisy[5] += rng.normal(0, 3e-9)  # one anchor much noisier
        noisy += rng.normal(0, 1e-11, 8)
        entries = [(float(noisy[i]), i + 1) for i in range(8)]
        system = build_system(entries, scene.tile_centers, scene.p_bs)
        sig = np.full(len(system.gammas), 1.0)
        tiles = [t for _, t in entries if t != system.ref_tile]
        sig[tiles.index(6)] = 300.0
        errs["plain"].append(
            np.linalg.norm(solve_position(system, room=ROOM) - scene.p_ue)
        )
        errs["weighted"].append(
            np.linalg.norm(
                solve_position(system, room=ROOM, sigmas=sig, sigma_ref=1.0)
                - scene.p_ue
            )
        )
    assert np.median(errs["weighted"]) < np.median(errs["plain"])


def noisy_linear_system(seed):
    # a linear RIS: collinear anchors, as in every simulated trial
    rng = np.random.default_rng(seed)
    layout = RisLayout(tile_count=8, tile_spacing=0.8, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    taus = toa_vector(scene) + rng.normal(0, 2e-10, 8)
    entries = [(float(taus[i]), i + 1) for i in range(8)]
    system = build_system(entries, scene.tile_centers, scene.p_bs)
    sigmas = rng.uniform(0.02, 0.2, len(system.gammas))
    return system, sigmas


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
    system, sigmas = noisy_linear_system(11)
    sigma_ref = 0.05

    def gradient(p):
        return dense_gls_gradient(system, p, sigmas, sigma_ref)

    p = solve_position(system, room=ROOM, sigmas=sigmas, sigma_ref=sigma_ref)
    assert np.all((p[:2] > 0.5) & (p[:2] < 9.5))  # an interior minimum
    assert np.linalg.norm(gradient(p)) < 1e-6
    # the common-mode term matters: dropping it moves the fit off the minimum
    p_diag = solve_position(system, room=ROOM, sigmas=sigmas, sigma_ref=0.0)
    assert np.linalg.norm(gradient(p_diag)) > 1e-3


def test_fallback_out_of_iterations_raises_with_estimate_in_room():
    system, sigmas = noisy_linear_system(12)
    for kwargs in ({}, {"sigmas": sigmas, "sigma_ref": 0.05}):
        with pytest.raises(PositionEstimationError) as excinfo:
            solve_position(system, room=ROOM, max_iter=1, **kwargs)
        p = excinfo.value.best_estimate
        assert p is not None and p[2] == 0.0
        assert np.all(p >= np.array(ROOM[0])) and np.all(p <= np.array(ROOM[1]))


def _system_beyond_walls(ue):
    # a linear RIS, as in every simulated trial, and a UE outside the room:
    # the unconstrained minimum of the noiseless cost lies at ``ue``
    layout = RisLayout(tile_count=8, tile_spacing=0.8, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    system = build_system(
        exact_entries(scene.tile_centers, scene.p_bs, np.asarray(ue)),
        scene.tile_centers,
        scene.p_bs,
    )
    sigmas = np.random.default_rng(13).uniform(0.02, 0.2, len(system.gammas))
    return system, sigmas


def test_minimum_beyond_a_wall_converges_on_the_wall():
    system, sigmas = _system_beyond_walls([-1.5, 4.0, 0.0])
    p = solve_position(system, room=ROOM, sigmas=sigmas, sigma_ref=0.05)
    assert p[0] == 0.0 and 0.0 < p[1] < 10.0
    g_x, g_y = dense_gls_gradient(system, p, sigmas, 0.05)
    assert abs(g_y) < 1e-6  # stationary along the wall
    assert g_x > 1e-3  # the descent direction -g points out through x = 0


def test_minimum_beyond_a_corner_converges_on_the_corner():
    system, sigmas = _system_beyond_walls([14.0, -8.0, 0.0])
    p = solve_position(system, room=ROOM, sigmas=sigmas, sigma_ref=0.05)
    assert p[0] == 10.0 and p[1] == 0.0
    g_x, g_y = dense_gls_gradient(system, p, sigmas, 0.05)
    # -g points out of the room through both walls: x = 10 and y = 0
    assert g_x < -1e-3 and g_y > 1e-3


def test_wall_descent_from_a_desk_trial_converges_quickly():
    # the weighted bootstrap solve of a desk trial (seed 1, trial solve 292);
    # from the room center, the clamped 2-D step crawled along the x = 0 wall
    # and used all 100 iterations without converging
    system = TdoaSystem(
        ref_tile=1,
        ref_pos=np.array([4.25, 10.0, 2.0]),
        anchor_positions=np.array(
            [[4.75, 10.0, 2.0], [5.25, 10.0, 2.0], [5.75, 10.0, 2.0]]
        ),
        gammas=np.array(
            [0.23627843146434357, 0.49129712021605254, 0.7645646330304745]
        ),
    )
    whitener = _ResidualWhitener(
        np.array([0.4139880890734635, 0.6606798533108409, 0.9469221785393026]),
        0.7085783888743424,
        3,
    )
    p, _, done = _gn_descend(system, np.array([5.0, 5.0]), ROOM, 20, whitener)
    assert done
    assert p[0] == 0.0 and p[1] == pytest.approx(1.824, abs=1e-3)


def test_slow_approach_to_the_ris_wall_resumes_and_converges():
    # the weighted bootstrap solve of a desk trial (seed 11, trial 337): the
    # lattice has one local minimum, and its descent approaches the minimum
    # on the RIS wall y = 10 so slowly that 100 iterations do not converge
    system = TdoaSystem(
        ref_tile=1,
        ref_pos=np.array([4.25, 10.0, 2.0]),
        anchor_positions=np.array(
            [[4.75, 10.0, 2.0], [5.25, 10.0, 2.0], [5.75, 10.0, 2.0]]
        ),
        gammas=np.array(
            [0.39637915646020394, 0.8338318616062865, 1.2707583727074359]
        ),
    )
    sigmas = np.array([2.0440967304442035, 1.401282405339956, 0.2337682381923353])
    sigma_ref = 0.3188841507180317
    whitener = _ResidualWhitener(sigmas, sigma_ref, 3)
    _, _, done = _gn_descend(system, np.array([1.0, 8.5]), ROOM, 100, whitener)
    assert not done
    p = solve_position(system, room=ROOM, sigmas=sigmas, sigma_ref=sigma_ref)
    assert p[1] == 10.0
    assert abs(dense_gls_gradient(system, p, sigmas, sigma_ref)[0]) < 1e-6


def test_noiseless_floor_points_recovered_near_walls():
    # 5 cm from every wall, the RIS wall included: a seed on that wall would
    # stay there, since the gradient across the anchors' mirror plane vanishes
    layout = RisLayout(tile_count=8, tile_spacing=0.8, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 4, 0])
    for x in np.linspace(0.05, 9.95, 5):
        for y in np.linspace(0.05, 9.95, 5):
            ue = np.array([x, y, 0.0])
            entries = exact_entries(scene.tile_centers, scene.p_bs, ue)
            system = build_system(entries, scene.tile_centers, scene.p_bs)
            assert np.linalg.norm(solve_position(system, room=ROOM) - ue) < 1e-6
