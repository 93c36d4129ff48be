import numpy as np
import pytest

from ris_nfloc import labeling
from ris_nfloc.config import ExperimentConfig
from ris_nfloc.constants import SPEED_OF_LIGHT
from ris_nfloc.geometry import RisLayout, build_scene, toa_vector
from ris_nfloc.harness import _draw_ue, observe
from ris_nfloc.labeling import (
    _group_resolvable,
    _path_lengths,
    in_region,
    in_region_quadric,
    run_spl,
    solve_labeled,
    spl_sort,
)
from ris_nfloc.psp import assign
from ris_nfloc.spectrum import ToaGroups


def pair_scene(ue=(5, 5, 0), bs=(0, 5, 2)):
    layout = RisLayout(tile_count=2, tile_spacing=2.0, center=[5, 10, 2], axis=[1, 0, 0])
    return build_scene(layout, bs, ue)


def exact_groups(scene, assignment):
    return ToaGroups.from_delays(toa_vector(scene), assignment)


def deployment(tile_count, tile_spacing, bs=(0, 5, 2)):
    """The deployment of the tests' RIS layout with the BS at ``bs``."""
    return ExperimentConfig(
        tile_count=tile_count, tile_spacing_m=tile_spacing, bs_position_m=tuple(bs)
    ).deployment


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
            scene.p_ue, scene.p_bs, scene.tile_centers[0], scene.tile_centers[1]
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


@pytest.mark.parametrize("bs_x", [0.0, 9.0])
@pytest.mark.parametrize("order", [(4.0, 6.0), (6.0, 4.0)])
def test_quadric_equivalence_with_the_bs_on_the_tile_line(bs_x, order):
    # the BS on the tile line outside the pair: the hyperboloid collapses to
    # a ray, or the region is all of space
    p_bs = np.array([bs_x, 10.0, 2.0])
    p1, p2 = (np.array([x, 10.0, 2.0]) for x in order)
    rng = np.random.default_rng(5)
    for xy in rng.uniform(0.0, 10.0, (2000, 2)):
        p = np.array([xy[0], xy[1], 0.0])
        assert in_region(p, p_bs, p1, p2) == in_region_quadric(p, p_bs, p1, p2)


def test_label_pair_cases():
    scene = pair_scene()
    t = toa_vector(scene)
    # at the true position the labels must match the true delay order
    expected = (1, 2) if t[0] >= t[1] else (2, 1)
    dep = deployment(2, 2.0)
    assert spl_sort((1, 2), scene.p_ue, dep) == expected
    # tile order argument is normalized internally
    assert spl_sort((2, 1), scene.p_ue, dep) == expected


def test_label_pair_deep_right_estimate():
    # UE far to the right of the pair, BS far left: the left tile's total
    # path is the longer one despite the BS leg favoring it
    scene = pair_scene(ue=(8, 9.5, 0))
    t = toa_vector(scene)
    assert t[0] > t[1]  # left tile path longer (direct ToA oracle)
    assert spl_sort((1, 2), scene.p_ue, deployment(2, 2.0)) == (1, 2)


def test_bootstrap_position_exact():
    assignment = assign(16, 8, 4)
    layout = RisLayout(tile_count=16, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [3.5, 4.5, 0], t0=2e-7)
    groups = exact_groups(scene, assignment)
    _, p, _ = run_spl(groups, assignment, deployment(16, 0.1), min_toa_gap=np.inf)
    assert np.linalg.norm(p - scene.p_ue) < 1e-6


def test_bootstrap_is_the_first_fix_of_run_spl():
    # with an infinite gap every shared group is skipped, so run_spl returns
    # the fix it starts from: the weighted fix of the exclusive-slope arrivals
    cfg = ExperimentConfig(
        tile_count=16, subcarriers=256, spacing_hz=1.5625e6, frames=8, seed=5
    )
    rng = np.random.default_rng(5)
    for _ in range(20):
        ue = np.array([rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.0), 0.0])
        obs = observe(cfg, ue, rng)
        args = (obs.toa_groups, obs.assignment, cfg.deployment)
        entries, p_spl, trace = run_spl(*args, min_toa_gap=np.inf)
        assert {row.method for row in trace} == {"exclusive", "skipped"}
        singles = [i for i in sorted(obs.assignment.groups)
                   if len(obs.assignment.groups[i]) == 1 and i in obs.toa_groups.toas]
        anchors = [(float(obs.toa_groups.toas[i][0]), obs.assignment.groups[i][0])
                   for i in singles]
        heights = [float(obs.toa_groups.magnitudes[i][0]) for i in singles]
        assert entries == anchors
        assert np.array_equal(p_spl, solve_labeled(anchors, heights, cfg.deployment))


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
        run_spl(broken, assignment, deployment(16, 0.1), min_toa_gap=np.inf)


def test_bootstrap_quantized_toas_stay_in_room_scale():
    # full-width RIS: the anchor spread matches the reference room setup
    rng = np.random.default_rng(4)
    assignment = assign(64, 16, 4)
    layout = RisLayout(tile_count=64, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    bin_s = 1.0 / (4 * 400e6)  # oversampled bin at 400 MHz
    dep = deployment(64, 0.1)
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
        _, p, _ = run_spl(groups, assignment, dep, min_toa_gap=np.inf)
        errs.append(np.linalg.norm(p - ue))
    assert np.median(errs) < 1.0


def test_spl_sort_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    layout = RisLayout(tile_count=3, tile_spacing=1.5, center=[5, 10, 2], axis=[1, 0, 0])
    dep = deployment(3, 1.5)
    for _ in range(50):
        ue = np.array([rng.uniform(0, 10), rng.uniform(0, 9), 0.0])
        scene = build_scene(layout, [0, 5, 2], ue)
        t = toa_vector(scene)
        # oracle: the permutation whose predicted delay order matches
        oracle = tuple(sorted((1, 2, 3), key=lambda k: -t[k - 1]))
        assert spl_sort((1, 2, 3), scene.p_ue, dep) == oracle


def test_spl_sort_breaks_ties_in_ris_axis_order():
    # BS and UE on the mid-perpendicular of two mirror-symmetric tiles: both
    # predicted paths have the same length, so the axis order decides
    scene = build_scene(
        RisLayout(tile_count=2, tile_spacing=2.0, center=[5, 10, 2], axis=[1, 0, 0]),
        [5, 0, 2],
        [5, 5, 0],
    )
    t = toa_vector(scene)
    assert t[0] == t[1]
    dep = deployment(2, 2.0, bs=(5, 0, 2))
    assert spl_sort((2, 1), scene.p_ue, dep) == (1, 2)
    assert spl_sort((1, 2), scene.p_ue, dep) == (1, 2)


def test_spl_sort_consistent_hypothesis_fixed_point():
    scene = build_scene(
        RisLayout(tile_count=3, tile_spacing=1.5, center=[5, 10, 2], axis=[1, 0, 0]),
        [0, 5, 2],
        [8.5, 2, 0],
    )
    dep = deployment(3, 1.5)
    seq = spl_sort((1, 2, 3), scene.p_ue, dep)
    # re-sorting the solved order, or any other order of the same tiles,
    # gives the same labels
    assert spl_sort(seq, scene.p_ue, dep) == seq
    assert spl_sort(seq[::-1], scene.p_ue, dep) == seq


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
        seq = spl_sort(group, p_est, deployment(12, layout.tile_spacing, bs))
        assert sorted(seq) == sorted(group)
        for a in range(len(seq)):
            for b in range(a + 1, len(seq)):
                assert in_region(
                    p_est,
                    scene.p_bs,
                    scene.tile_centers[seq[a] - 1],
                    scene.tile_centers[seq[b] - 1],
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
        dep = deployment(k_tiles, layout.tile_spacing)
        entries, p_hat, trace = run_spl(groups, assignment, dep, min_toa_gap=0.0)
        assert len(entries) == scene.n_tiles
        true_toas = toa_vector(scene)
        lookup = {k: t for t, k in entries}
        for i, tiles in assignment.groups.items():
            truth = tuple(sorted(tiles, key=lambda k: -true_toas[k - 1]))
            got = tuple(sorted(tiles, key=lambda k: -lookup[k]))
            assert got == truth
        assert np.linalg.norm(p_hat - scene.p_ue) < 1e-4


@pytest.mark.parametrize("gap, solves", [(0.0, 2), (np.inf, 1)])
def test_run_spl_solves_the_anchors_then_the_labeled_set_once(monkeypatch, gap, solves):
    # one solve of the exclusive-slope arrivals, and one more of every label
    # only if a shared group was labeled: never one per labeled group
    sizes = []
    solve = labeling.solve_labeled

    def counted(entries, mags, dep):
        sizes.append(len(entries))
        return solve(entries, mags, dep)

    monkeypatch.setattr(labeling, "solve_labeled", counted)
    assignment = assign(16, 8, 4)
    layout = RisLayout(tile_count=16, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [3.5, 4.5, 0], t0=2e-7)
    entries, _, trace = run_spl(
        exact_groups(scene, assignment), assignment, deployment(16, 0.1), min_toa_gap=gap
    )
    labeled = [row for row in trace if row.method in ("pair", "sort")]
    assert len(labeled) == (4 if gap == 0.0 else 0)
    assert sizes == [4, 16][:solves]
    assert len(entries) == sizes[-1]


def test_run_spl_decides_every_shared_group_at_the_anchors_only_fix():
    # desk seed-1 trial 8 at margin 0: deciding each group at a fix re-solved
    # after the group before it orders a shared group otherwise than the
    # anchors-only fix does
    cfg = ExperimentConfig(
        tile_count=16, subcarriers=256, spacing_hz=1.5625e6, frames=8,
        resolvability_margin=0.0,
    )
    dep = cfg.deployment
    rng = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(0, 8)))
    obs = observe(cfg, _draw_ue(cfg, rng), rng)
    args = (obs.toa_groups, obs.assignment, dep)
    _, fix, _ = run_spl(*args, min_toa_gap=np.inf)
    entries, _, trace = run_spl(*args, min_toa_gap=0.0)
    toa_of = {k: toa for toa, k in entries}
    labeled = [row.group_id for row in trace if row.method in ("pair", "sort")]
    assert labeled
    for i in labeled:
        tiles, toas = obs.assignment.groups[i], obs.toa_groups.toas[i]
        assert _group_resolvable(tiles, toas, fix, dep, 0.0)
        assert tuple(sorted(tiles, key=lambda k: -toa_of[k])) == spl_sort(tiles, fix, dep)


def test_run_spl_sufficient_budget_matches_plain_tdoa():
    layout = RisLayout(tile_count=8, tile_spacing=0.2, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [4, 6, 0], t0=1e-7)
    assignment = assign(8, 8)
    groups = exact_groups(scene, assignment)
    entries, p_hat, trace = run_spl(
        groups, assignment, deployment(8, 0.2), min_toa_gap=0.0
    )
    assert len(entries) == scene.n_tiles
    assert all(row.dod == 1 for row in trace)
    assert np.linalg.norm(p_hat - scene.p_ue) < 1e-4


def test_run_spl_skips_unresolvable_group():
    # construct a violating group: two tiles with near-tied delays
    layout = RisLayout(tile_count=6, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [5, 5, 0])
    assignment = assign(6, 5, 3)
    groups = exact_groups(scene, assignment)
    bandwidth = 400e6
    entries, p_hat, trace = run_spl(
        groups, assignment, deployment(6, 0.1), min_toa_gap=1.0 / bandwidth
    )
    skipped = [row for row in trace if row.method == "skipped"]
    assert skipped  # tiles 0.1 m apart cannot clear 0.75 m of path gap
    assert len(entries) < scene.n_tiles
    assert np.linalg.norm(p_hat - scene.p_ue) < 1e-4


def test_no_desk_shared_group_passes_the_guard():
    # desk (K = 16, L = 8, 400 MHz): the members of a shared group sit 5 tiles
    # (0.5 m) apart, so their predicted path lengths differ by less than the
    # 2c/B = 1.5 m the guard asks for, wherever the fix lies; on desk the
    # proposed arm is the anchors-only fix
    cfg = ExperimentConfig(tile_count=16, subcarriers=256, spacing_hz=1.5625e6, frames=8)
    dep = cfg.deployment
    min_gap = cfg.resolvability_margin / cfg.bandwidth_hz
    shared = [t for t in cfg.assignment().groups.values() if len(t) > 1]
    assert len(shared) == 4
    widest = 0.0
    for x, y in dep.lattice.points:
        fix = np.array([x, y, 0.0])
        for tiles in shared:
            # extracted arrivals far apart: only the predicted gaps decide
            toas = 10.0 * min_gap * np.arange(len(tiles))[::-1]
            assert not _group_resolvable(tiles, toas, fix, dep, min_gap)
            lengths = np.sort(_path_lengths(tiles, fix, dep))
            widest = max(widest, float(np.min(np.diff(lengths))))
    assert SPEED_OF_LIGHT * min_gap == pytest.approx(1.5, rel=1e-3)
    assert widest < 0.81  # the widest smallest gap over the lattice: 0.80 m
