import numpy as np
import pytest

from ris_nfloc.constants import SPEED_OF_LIGHT
from ris_nfloc.geometry import RisLayout, build_scene, toa_vector
from ris_nfloc.tdoa import PositionEstimationError, build_system, solve_position

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
    p0 = solve_position(
        build_system(exact_entries(anchors, p_bs, ue), anchors, p_bs)
    )
    p1 = solve_position(
        build_system(
            exact_entries(anchors + shift, p_bs + shift, ue + shift),
            anchors + shift,
            p_bs + shift,
        )
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


def test_weighted_fallback_is_stationary_for_dense_gls_cost():
    system, sigmas = noisy_linear_system(11)
    sigma_ref = 0.05
    n = len(sigmas)
    cov_inv = np.linalg.inv(np.diag(sigmas**2) + sigma_ref**2 * np.ones((n, n)))

    def gradient(p, h=1e-5):
        def cost(xy):
            q = np.array([xy[0], xy[1], 0.0])
            d = np.linalg.norm(q - system.anchor_positions, axis=1)
            r = system.gammas - (d - np.linalg.norm(q - system.ref_pos))
            return r @ cov_inv @ r

        return np.array(
            [(cost(p[:2] + e) - cost(p[:2] - e)) / (2 * h) for e in np.eye(2) * h]
        )

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
