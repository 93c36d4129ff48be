import numpy as np
import pytest

from ris_nfloc.psp import assign, psp_list


def test_psp_list_values():
    assert np.allclose(psp_list(4), [0.25, 0.5, 0.75, 1.0])
    assert np.allclose(psp_list(1), [1.0])
    for l in (2, 5, 16, 33):
        assert np.allclose(np.diff(psp_list(l)), 1.0 / l)
    with pytest.raises(ValueError):
        psp_list(0)


def test_assign_hand_walk_k6_l4():
    # small validation case below the config's three-anchor gate
    a = assign(6, 4, 2)
    assert a.k0_set == (1, 6)
    assert a.beta[0] == 0.75 and a.beta[5] == 1.0
    assert np.allclose(a.beta[1:5], [0.25, 0.5, 0.25, 0.5])
    assert a.groups[1] == (2, 4)
    assert a.groups[2] == (3, 5)
    assert a.groups[3] == (1,)
    assert a.groups[4] == (6,)


def test_assign_sufficient_budget_all_exclusive():
    a = assign(4, 8)
    assert len(set(a.beta)) == 4
    assert all(len(g) == 1 for g in a.groups.values())
    assert a.max_dod == 1


def test_assign_max_duplication_counting():
    a = assign(64, 16, 4)
    assert a.max_dod == int(np.ceil((64 - 4) / (16 - 4))) == 5


def test_assign_partition_and_uniqueness():
    for k_tiles, l_frames, k0 in ((16, 8, 4), (64, 16, 4), (20, 12, 5), (9, 9, 4)):
        a = assign(k_tiles, l_frames, k0)
        seen = sorted(k for tiles in a.groups.values() for k in tiles)
        assert seen == list(range(1, k_tiles + 1))
        # exclusive slopes unique across the whole assignment
        for k in a.k0_set:
            assert np.sum(np.isclose(a.beta, a.beta[k - 1])) == 1
        # every slope is on the i/L grid
        assert all(
            any(np.isclose(b, i / l_frames) for i in range(1, l_frames + 1))
            for b in a.beta
        )
        # shared-group sizes differ by at most one
        shared = [len(g) for i, g in a.groups.items() if len(g) > 1]
        if shared:
            assert max(shared) - min(shared) <= 1


def test_assign_group_slopes_separated():
    a = assign(16, 8, 4)
    for i, tiles in a.groups.items():
        slopes = {a.beta[k - 1] for k in tiles}
        assert len(slopes) == 1
    betas = sorted(set(a.beta))
    assert min(np.diff(betas)) >= 1.0 / 8 - 1e-12


def test_assign_validation():
    with pytest.raises(ValueError):
        assign(16, 8, 1)  # one anchor: no spread to place it by
    with pytest.raises(ValueError):
        assign(16, 4, 4)  # no slopes left for shared tiles
    a = assign(16, 8, 4)
    assert a.k0_set == (1, 6, 11, 16)

