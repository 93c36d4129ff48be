import numpy as np
import pytest

from ris_nfloc.config import ExperimentConfig
from ris_nfloc.geometry import RisLayout, build_scene, toa_vector
from ris_nfloc.harness import observe
from ris_nfloc.labeling import (
    bootstrap_position,
    in_region,
    in_region_quadric,
    run_spl,
    spl_sort,
)
from ris_nfloc.psp import assign
from ris_nfloc.spectrum import ToaGroups

ROOM = ((0.0, 0.0, 0.0), (10.0, 10.0, 3.0))


def pair_scene(ue=(5, 5, 0), bs=(0, 5, 2)):
    layout = RisLayout(tile_count=2, tile_spacing=2.0, center=[5, 10, 2], axis=[1, 0, 0])
    return build_scene(layout, bs, ue)


def exact_groups(scene, assignment):
    return ToaGroups.from_delays(toa_vector(scene), assignment)


def test_in_region_hand_case():
    p_bs = np.array([0.0, 5.0, 2.0])
    k1 = np.array([4.0, 10.0, 2.0])
    k2 = np.array([6.0, 10.0, 2.0])
    # equidistant point: lhs 0, rhs sqrt(61)-sqrt(41) > 0
    assert not in_region([5, 2, 0], p_bs, k1, k2)
    # boundary convention: membership includes equality
    assert in_region([5, 2, 0], np.array([5.0, 0.0, 2.0]), k1, k2)


def test_in_region_matches_true_toa_order():
    rng = np.random.default_rng(2)
    for _ in range(300):
        scene = pair_scene(
            ue=(rng.uniform(0, 10), rng.uniform(0, 9), 0),
            bs=(rng.uniform(-5, 10), rng.uniform(-5, 9), rng.uniform(0, 3)),
        )
        t = toa_vector(scene)
        member = in_region(
            scene.p_ue, scene.p_bs, scene.tiles[0].center, scene.tiles[1].center
        )
        assert member == (t[0] >= t[1])


def test_quadric_equivalence_random():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(3000):
        p_bs = rng.uniform(-10, 10, 3)
        p1 = rng.uniform(-10, 10, 3)
        p2 = rng.uniform(-10, 10, 3)
        p = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10), 0.0])
        ux = 0.5 * (np.linalg.norm(p_bs - p1) - np.linalg.norm(p_bs - p2))
        b_sq = 0.25 * np.dot(p1 - p2, p1 - p2) - ux**2
        if abs(ux) < 1e-6 or b_sq < 1e-6:
            continue
        checked += 1
        assert in_region(p, p_bs, p1, p2) == in_region_quadric(p, p_bs, p1, p2)
    assert checked > 2000


def test_label_pair_cases():
    scene = pair_scene()
    t = toa_vector(scene)
    # at the true position the labels must match the true delay order
    expected = (1, 2) if t[0] >= t[1] else (2, 1)
    assert spl_sort((1, 2), scene.p_ue, scene) == expected
    # tile order argument is normalized internally
    assert spl_sort((2, 1), scene.p_ue, scene) == expected


def test_label_pair_deep_right_estimate():
    # UE far to the right of the pair, BS far left: the left tile's total
    # path is the longer one despite the BS leg favoring it
    scene = pair_scene(ue=(8, 9.5, 0))
    t = toa_vector(scene)
    assert t[0] > t[1]  # left tile path longer (direct ToA oracle)
    assert spl_sort((1, 2), scene.p_ue, scene) == (1, 2)


def test_bootstrap_position_exact():
    assignment = assign(16, 8, 4)
    layout = RisLayout(tile_count=16, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [3.5, 4.5, 0], t0=2e-7)
    groups = exact_groups(scene, assignment)
    p = bootstrap_position(groups, assignment, scene, room=ROOM)
    assert np.linalg.norm(p - scene.p_ue) < 1e-6


def test_bootstrap_is_the_first_fix_of_run_spl():
    # with an infinite gap every shared group is skipped, so run_spl returns
    # the fix it starts from: the weighted exclusive-slope fix
    cfg = ExperimentConfig(
        tile_count=16, subcarriers=256, spacing_hz=1.5625e6, frames=8, seed=5
    )
    rng = np.random.default_rng(5)
    for _ in range(20):
        ue = np.array([rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.0), 0.0])
        obs = observe(cfg, ue, rng)
        args = (obs.toa_groups, obs.assignment, obs.scene, cfg.room)
        _, p_spl, trace = run_spl(*args, min_toa_gap=np.inf)
        assert {row.method for row in trace} == {"exclusive", "skipped"}
        assert np.array_equal(p_spl, bootstrap_position(*args))


def test_bootstrap_missing_singletons_raises():
    assignment = assign(16, 8, 4)
    layout = RisLayout(tile_count=16, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [3.5, 4.5, 0])
    groups = exact_groups(scene, assignment)
    # drop two singleton groups: fewer than 3 anchors remain
    singles = [i for i, t in assignment.groups.items() if len(t) == 1]
    toas = {i: v for i, v in groups.toas.items() if i not in singles[:2]}
    mags = {i: v for i, v in groups.magnitudes.items() if i not in singles[:2]}
    broken = ToaGroups(toas=toas, magnitudes=mags, under_detected=frozenset(singles[:2]))
    with pytest.raises(ValueError):
        bootstrap_position(broken, assignment, scene, room=ROOM)


def test_bootstrap_quantized_toas_stay_in_room_scale():
    # full-width RIS: the anchor spread matches the reference room setup
    rng = np.random.default_rng(4)
    assignment = assign(64, 16, 4)
    layout = RisLayout(tile_count=64, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    bin_s = 1.0 / (4 * 400e6)  # oversampled bin at 400 MHz
    errs = []
    for _ in range(20):
        ue = np.array([rng.uniform(1, 9), rng.uniform(1, 9), 0.0])
        scene = build_scene(layout, [0, 5, 2], ue)
        true_toas = toa_vector(scene)
        toas, mags = {}, {}
        for i, tiles in assignment.groups.items():
            vals = np.array(
                sorted(
                    (np.round(true_toas[k - 1] / bin_s) * bin_s for k in tiles),
                    reverse=True,
                )
            )
            toas[i] = vals
            mags[i] = np.ones(len(tiles))
        groups = ToaGroups(toas=toas, magnitudes=mags)
        p = bootstrap_position(groups, assignment, scene, room=ROOM)
        errs.append(np.linalg.norm(p - ue))
    assert np.median(errs) < 1.0


def test_spl_sort_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    layout = RisLayout(tile_count=3, tile_spacing=1.5, center=[5, 10, 2], axis=[1, 0, 0])
    for _ in range(50):
        ue = np.array([rng.uniform(0, 10), rng.uniform(0, 9), 0.0])
        scene = build_scene(layout, [0, 5, 2], ue)
        t = toa_vector(scene)
        # oracle: the permutation whose predicted delay order matches
        oracle = tuple(sorted((1, 2, 3), key=lambda k: -t[k - 1]))
        assert spl_sort((1, 2, 3), scene.p_ue, scene) == oracle


def test_spl_sort_consistent_hypothesis_fixed_point():
    scene = build_scene(
        RisLayout(tile_count=3, tile_spacing=1.5, center=[5, 10, 2], axis=[1, 0, 0]),
        [0, 5, 2],
        [8.5, 2, 0],
    )
    seq = spl_sort((1, 2, 3), scene.p_ue, scene)
    # re-sorting the solved order, or any other order of the same tiles,
    # gives the same labels
    assert spl_sort(seq, scene.p_ue, scene) == seq
    assert spl_sort(seq[::-1], scene.p_ue, scene) == seq


def test_spl_sort_passes_every_pairwise_discriminant():
    # the paper sorts by adjacent pairwise discriminants; the sort must pass
    # the discriminant of every ordered pair, adjacent or not, at an
    # estimate off the truth
    rng = np.random.default_rng(9)
    for _ in range(200):
        layout = RisLayout(
            tile_count=12,
            tile_spacing=float(rng.uniform(0.1, 0.8)),
            center=[5, 10, 2],
            axis=[1, 0, 0],
        )
        bs = (rng.uniform(0, 10), rng.uniform(0, 9), rng.uniform(0, 3))
        scene = build_scene(layout, bs, [rng.uniform(0, 10), rng.uniform(0, 9), 0])
        angle = rng.uniform(0, 2 * np.pi)
        offset = rng.uniform(0.1, 1.0) * np.array([np.cos(angle), np.sin(angle), 0])
        p_est = scene.p_ue + offset
        group = tuple(int(k) for k in rng.choice(np.arange(1, 13), rng.integers(2, 7),
                                                 replace=False))
        seq = spl_sort(group, p_est, scene)
        assert sorted(seq) == sorted(group)
        for a in range(len(seq)):
            for b in range(a + 1, len(seq)):
                assert in_region(
                    p_est,
                    scene.p_bs,
                    scene.tiles[seq[a] - 1].center,
                    scene.tiles[seq[b] - 1].center,
                )


def test_run_spl_exact_toas_perfect_labels():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k_tiles = int(rng.integers(8, 20))
        l_frames = int(rng.integers(6, 11))
        if l_frames >= k_tiles:
            continue
        if (k_tiles - 4) / (l_frames - 4) > 4:
            continue
        layout = RisLayout(
            tile_count=k_tiles,
            tile_spacing=float(rng.uniform(0.1, 0.5)),
            center=[5, 10, 2],
            axis=[1, 0, 0],
        )
        scene = build_scene(
            layout,
            [0, 5, 2],
            [rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.0), 0.0],
            t0=rng.uniform(0, 1e-6),
        )
        assignment = assign(k_tiles, l_frames, 4)
        groups = exact_groups(scene, assignment)
        label_map, p_hat, trace = run_spl(groups, assignment, scene, room=ROOM)
        assert len(label_map.entries) == scene.n_tiles
        true_toas = toa_vector(scene)
        lookup = {k: t for t, k in label_map.entries}
        for i, tiles in assignment.groups.items():
            truth = tuple(sorted(tiles, key=lambda k: -true_toas[k - 1]))
            got = tuple(sorted(tiles, key=lambda k: -lookup[k]))
            assert got == truth
        assert np.linalg.norm(p_hat - scene.p_ue) < 1e-4


def test_run_spl_sufficient_budget_matches_plain_tdoa():
    layout = RisLayout(tile_count=8, tile_spacing=0.2, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 6, 0], t0=1e-7)
    assignment = assign(8, 8)
    groups = exact_groups(scene, assignment)
    label_map, p_hat, trace = run_spl(groups, assignment, scene, room=ROOM)
    assert len(label_map.entries) == scene.n_tiles
    assert all(row.dod == 1 for row in trace)
    assert np.linalg.norm(p_hat - scene.p_ue) < 1e-4


def test_run_spl_skips_unresolvable_group():
    # construct a violating group: two tiles with near-tied delays
    layout = RisLayout(tile_count=6, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [5, 5, 0])
    assignment = assign(6, 5, 3)
    groups = exact_groups(scene, assignment)
    bandwidth = 400e6
    label_map, p_hat, trace = run_spl(
        groups, assignment, scene, room=ROOM, min_toa_gap=1.0 / bandwidth
    )
    skipped = [row for row in trace if row.method == "skipped"]
    assert skipped  # tiles 0.1 m apart cannot clear 0.75 m of path gap
    assert len(label_map.entries) < scene.n_tiles
    assert np.linalg.norm(p_hat - scene.p_ue) < 1e-4
