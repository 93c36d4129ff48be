"""The numpy reference kernels against their definitions."""

import numpy as np

from ris_nfloc import kernels


def _idft2_loop(s, n_bar):
    """The double sum of the transform with 1-based (subcarrier, frame) indices."""
    n, l = s.shape
    out = np.zeros((n_bar, l), dtype=complex)
    for u in range(n_bar):
        for v in range(l):
            acc = 0j
            for nn in range(1, n + 1):
                for ll in range(1, l + 1):
                    acc += s[nn - 1, ll - 1] * np.exp(
                        -2j * np.pi * (u * nn / n_bar + ll * v / l)
                    )
            out[u, v] = acc
    return out


def test_dense_transform_matches_double_sum():
    rng = np.random.default_rng(0)
    for n, l, q in ((16, 4, 2), (48, 8, 4), (33, 5, 3)):
        s = rng.standard_normal((n, l)) + 1j * rng.standard_normal((n, l))
        ref = _idft2_loop(s, q * n)
        got = kernels.idft2_dense(s, q * n)
        assert got.shape == (q * n, l)
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-12


def test_peak_mask_matches_neighbour_loop():
    rng = np.random.default_rng(1)
    for trial in range(40):
        mag = np.abs(rng.standard_normal(rng.integers(8, 300)))
        if trial >= 20:
            # NaN and infinite magnitudes, at the wrap and inside
            spots = rng.choice(len(mag), 6, replace=False)
            spots[:2] = (0, len(mag) - 1)
            mag[spots] = rng.choice([np.nan, np.inf, -np.inf], 6)
        thr = float(rng.uniform(0, 1.5))
        n = len(mag)
        ref = [
            mag[u] > mag[u - 1] and mag[u] >= mag[(u + 1) % n] and mag[u] >= thr
            for u in range(n)
        ]
        assert list(kernels.column_peak_mask(mag, thr)) == ref


def test_peak_mask_plateau_resolves_left():
    mag = np.array([0.0, 1.0, 1.0, 0.0, 2.0, 0.5])
    mask = kernels.column_peak_mask(mag, 0.0)
    assert list(np.nonzero(mask)[0]) == [1, 4]


def test_peak_mask_cyclic_boundary():
    mag = np.array([3.0, 1.0, 0.5, 1.0])  # peak at index 0 via wraparound
    mask = kernels.column_peak_mask(mag, 0.0)
    assert list(np.nonzero(mask)[0]) == [0]


def _assert_median_bits(mag):
    before = mag.copy()
    got = kernels.median(mag)
    assert np.float64(got).tobytes() == np.median(mag).tobytes()
    assert np.array_equal(mag, before)  # the input is left unpartitioned


def test_median_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(2)
    for n in (*range(1, 10), 1024, 1025, 12800):
        for _ in range(5):
            _assert_median_bits(np.hypot(*rng.standard_normal((2, n))))
            # plateaus and ties: a handful of distinct values
            _assert_median_bits(0.7 * rng.integers(0, 4, n).astype(float))
        _assert_median_bits(np.full(n, 0.3))


def test_median_of_a_column_with_nan_is_nan():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 1024, 1025):
        for at in {0, n // 2, n - 1}:
            mag = np.abs(rng.standard_normal(n))
            mag[at] = np.nan
            assert np.isnan(kernels.median(mag))


def test_strongest_peak_is_the_median_paths_pick_when_it_decides():
    rng = np.random.default_rng(4)
    decided = 0
    for _ in range(400):
        n = int(rng.integers(2, 80))
        mag = np.abs(rng.standard_normal(n))
        if rng.random() < 0.5:
            mag = np.round(mag, 1)  # plateaus, ties and zeros
        mag[rng.integers(n)] *= rng.uniform(1.0, 40.0)
        factor = float(rng.uniform(0.5, 12.0))
        peak = kernels.strongest_peak(mag, factor)
        if peak is None:
            continue
        bins = np.nonzero(kernels.column_peak_mask(mag, factor * kernels.median(mag)))[0]
        assert peak == bins[np.lexsort((bins, -mag[bins]))[0]]
        decided += 1
    assert 100 < decided < 400
