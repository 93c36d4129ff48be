"""Each direct ufunc, reduction or array-method call that replaced a numpy
Python-level wrapper on the trial path, against that wrapper, bit for bit.

The trial path relies on these identities to keep its outputs byte-identical;
if a numpy release changes how one of its wrappers computes, the test of that
replacement fails and names it.  Inputs mix ordinary values with 0, -0, NaN,
+-inf and subnormals.
"""

import numpy as np
import pytest

from ris_nfloc.geometry import distances
from ris_nfloc.spectrum import _sinc

_SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e-300])


def _floats(shape, seed):
    """Normal draws at mixed scales with special values spread over them."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    flat = x.reshape(-1)
    count = min(flat.size // 2, 3 * len(_SPECIALS))
    at = rng.choice(flat.size, size=count, replace=False)
    flat[at] = rng.choice(_SPECIALS, size=count)
    return x


def _complex(shape, seed):
    return _floats(shape, seed) + 1j * _floats(shape, seed + 1000)


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


SEEDS = range(8)


@pytest.fixture(autouse=True)
def _quiet():
    # both sides run with floating-point warnings off: inf and NaN inputs
    # raise invalid-value warnings, which the suite turns into errors
    with np.errstate(all="ignore"):
        yield


@pytest.mark.parametrize("seed", SEEDS)
def test_distances_match_linalg_norm(seed):
    for shape in ((16, 3), (64, 3), (1, 3), (5, 7, 3)):
        x = _floats(shape, seed)
        _same(distances(x), np.linalg.norm(x, axis=-1))
    x = _floats((16, 3), seed)
    _same(distances(x), np.linalg.norm(x, axis=1))


@pytest.mark.parametrize("seed", SEEDS)
def test_sqrt_of_dot_matches_vector_norm(seed):
    d = _floats(3, seed)
    _same(np.sqrt(d.dot(d)), np.linalg.norm(d))


@pytest.mark.parametrize("seed", SEEDS)
def test_sinc_matches_numpy_sinc(seed):
    x = _floats((4, 3), seed)
    x[0, 0] = 0.0  # an exact zero takes the eps branch
    _same(_sinc(x), np.sinc(x))
    _same(_sinc(x / 16.0), np.sinc(x / 16.0))
    _same(_sinc(np.zeros(2)), np.sinc(np.zeros(2)))


@pytest.mark.parametrize("seed", SEEDS)
def test_arctan2_of_parts_matches_angle(seed):
    z = _complex((5, 4), seed)
    _same(np.arctan2(z.imag, z.real), np.angle(z))


@pytest.mark.parametrize("seed", SEEDS)
def test_slice_differences_match_diff(seed):
    x = _floats(17, seed)
    _same(x[1:] - x[:-1], np.diff(x))
    ring = _floats((6, 4), seed)
    closed = np.concatenate([ring, ring[:, :1] + 128.0], axis=1)
    _same(closed[:, 1:] - closed[:, :-1], np.diff(closed))
    # descending arrivals: the gaps toas[:-1] - toas[1:] are -np.diff(toas)
    # up to the sign of a zero gap, so their minimum compares the same
    toas = np.sort(x)[::-1]
    gaps = toas[:-1] - toas[1:]
    assert np.array_equal(gaps, -np.diff(toas), equal_nan=True)
    for gap in (0.0, 1e-9, np.inf):
        assert (np.minimum.reduce(gaps) < gap) == (np.min(-np.diff(toas)) < gap)


@pytest.mark.parametrize("seed", SEEDS)
def test_broadcast_product_matches_outer(seed):
    step = _complex(5, seed)
    _same(np.arange(4)[:, None] * step, np.outer(np.arange(4), step))
    _same(step[:, None] * (4 * np.arange(32)), np.outer(step, 4 * np.arange(32)))


@pytest.mark.parametrize("seed", SEEDS)
def test_copy_then_partition_matches_partition(seed):
    for n in (1024, 1023, 12800):
        mag = np.abs(_floats(n, seed))
        h = n // 2
        part = mag.copy()
        part.partition(h)
        _same(part, np.partition(mag, h))
        _same(np.maximum.reduce(part[h:]), part[h:].max())
        if h:
            _same(np.maximum.reduce(part[:h]), part[:h].max())


@pytest.mark.parametrize("seed", SEEDS)
def test_reductions_match_sum_min_mean(seed):
    x = _floats((16, 3, 3), seed)
    _same(np.add.reduce(x, axis=0), np.sum(x, axis=0))
    _same(np.add.reduce(x, axis=(1, 2)), np.sum(x, axis=(1, 2)))
    z = _complex((16, 3), seed)
    _same(np.add.reduce(z, axis=1), np.sum(z, axis=1))
    v = x.reshape(-1)
    _same(np.add.reduce(v), np.sum(v))
    _same(np.minimum.reduce(v), np.min(v))
    _same(np.add.reduce(np.abs(v)) / len(v), np.mean(np.abs(v)))
    mask = v > 0.0
    _same(np.logical_and.reduce(mask), np.all(mask))
    _same(np.logical_or.reduce(mask), np.any(mask))
    rows = x[:, :, 0] > 0.0
    _same(np.logical_and.reduce(rows, axis=1), np.all(rows, axis=1))


@pytest.mark.parametrize("seed", SEEDS)
def test_array_methods_match_index_functions(seed):
    x = _floats(40, seed)
    _same(x.argmin(), np.argmin(x))
    _same(x.argmax(), np.argmax(x))
    _same((-x).argsort(kind="stable"), np.argsort(-x, kind="stable"))
    (bins,) = (x > 0.0).nonzero()
    _same(bins, np.nonzero(x > 0.0)[0])
    ring = _floats((6, 4), seed)
    sorted_ring = ring.copy()
    sorted_ring.sort(axis=1)
    _same(sorted_ring, np.sort(ring, axis=1))
    counts = np.random.default_rng(seed).integers(0, 5, size=9)
    _same(counts.cumsum(), np.cumsum(counts))
    _same(np.array((3, 1, 2)).repeat([2, 0, 3]), np.repeat((3, 1, 2), [2, 0, 3]))
    a = _complex((3, 4, 2), seed)
    _same(a.swapaxes(1, 2), np.swapaxes(a, 1, 2))
    tiles = (7, 2, 5)
    ordered = np.array(tiles)
    ordered.sort()
    _same(ordered, np.sort(tiles))


@pytest.mark.parametrize("value", [0.5, [0.5], [0.5, 1.5], np.arange(3.0), (1, 2)])
def test_array_ndmin_matches_atleast_1d(value):
    _same(
        np.array(value, dtype=complex, copy=None, ndmin=1),
        np.atleast_1d(np.asarray(value, dtype=complex)),
    )
    _same(
        np.array(value, dtype=float, copy=None, ndmin=1),
        np.atleast_1d(np.asarray(value, dtype=float)),
    )
