"""Built-in property suite: quick invariant checks runnable without pytest."""

from __future__ import annotations

import numpy as np

from . import kernels
from .bounds import tdoa_gradients
from .config import ExperimentConfig
from .constants import SPEED_OF_LIGHT
from .geometry import RisLayout, build_scene, toa_vector
from .labeling import in_region, in_region_quadric, run_spl
from .psp import assign
from .spectrum import ToaGroups, spectrum_2d
from .tdoa import build_system, seed_lattice, solve_position
from .waveform import FrameMatrix, WaveformConfig, frames_from_paths

_ROOM = ((0, 0, 0), (10, 10, 3))


def _check_scene_arithmetic():
    layout = RisLayout(tile_count=64, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [5, 5, 0])
    ok = np.allclose(scene.tile_centers[0], [1.85, 10, 2])
    ok &= np.allclose(scene.tile_centers[63], [8.15, 10, 2])
    single = build_scene(
        RisLayout(tile_count=1, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0]),
        [0, 5, 2],
        [5, 5, 0],
    )
    expected = (np.sqrt(50) + np.sqrt(29)) / SPEED_OF_LIGHT
    ok &= abs(toa_vector(single)[0] - expected) < 1e-18
    return ok, "scene arithmetic (tile span, path delay)"


def _check_psp_partition():
    a = assign(64, 16, 4)
    seen = sorted(k for tiles in a.groups.values() for k in tiles)
    ok = seen == list(range(1, 65))
    ok &= a.max_dod == 5
    ok &= len(set(a.beta[k - 1] for k in a.k0_set)) == 4
    return ok, "slope assignment partitions tiles, max duplication 5"


def _check_transform_equivalence():
    rng = np.random.default_rng(11)
    cfg = WaveformConfig(
        n_subcarriers=48, spacing=1e6, carrier=1e9, tx_power=0.5, noise_psd=0.0,
        l_frames=8,
    )
    s = rng.standard_normal((48, 8)) + 1j * rng.standard_normal((48, 8))
    fast = spectrum_2d(FrameMatrix.from_symbols(s, cfg), 4)
    dense = kernels.idft2_dense(s, fast.n_bar)
    rel = np.max(np.abs(fast.grid - dense)) / np.max(np.abs(dense))
    parseval = abs(
        np.sum(np.abs(fast.grid) ** 2) - fast.n_bar * 8 * np.sum(np.abs(s) ** 2)
    ) / (fast.n_bar * 8 * np.sum(np.abs(s) ** 2))
    return rel < 1e-9 and parseval < 1e-9, "fast transform matches dense sum, Parseval"


def _check_discriminant_equivalence(n: int = 2000):
    rng = np.random.default_rng(5)
    for _ in range(n):
        p_bs = rng.uniform(-10, 10, 3)
        p1 = rng.uniform(-10, 10, 3)
        p2 = rng.uniform(-10, 10, 3)
        p = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10), 0.0])
        ux = 0.5 * (np.linalg.norm(p_bs - p1) - np.linalg.norm(p_bs - p2))
        b_sq = 0.25 * np.dot(p1 - p2, p1 - p2) - ux * ux
        if abs(ux) < 1e-6 or b_sq < 1e-6:
            continue
        if in_region(p, p_bs, p1, p2) != in_region_quadric(p, p_bs, p1, p2):
            return False, "hyperbola region test disagrees with distance form"
    return True, "hyperbola region matches distance-difference form"


def _check_exact_inversion():
    rng = np.random.default_rng(3)
    for _ in range(5):
        anchors = rng.uniform(0, 10, (8, 3))
        p_bs = rng.uniform(-5, 0, 3)
        ue = np.array([rng.uniform(1, 9), rng.uniform(1, 9), 0.0])
        t0 = rng.uniform(0, 1e-6)
        taus = (
            np.linalg.norm(p_bs - anchors, axis=1)
            + np.linalg.norm(ue - anchors, axis=1)
        ) / SPEED_OF_LIGHT + t0
        system = build_system(
            [(taus[i], i + 1) for i in range(8)], anchors, p_bs
        )
        lattice = seed_lattice(_ROOM, anchors)
        # unit sigmas (7 non-reference rows), no reference term: plain least squares
        p = solve_position(system, lattice, sigmas=np.ones(7), sigma_ref=0.0)
        if np.linalg.norm(p - ue) > 1e-6:
            return False, "exact inversion above 1e-6 (general anchors)"
    layout = RisLayout(tile_count=16, tile_spacing=0.1, center=[5, 10, 2], axis=[1, 0, 0])
    scene = build_scene(layout, [0, 5, 2], [5, 5, 0], t0=1e-7)
    taus = toa_vector(scene)
    system = build_system(
        [(taus[i], i + 1) for i in range(16)], scene.tile_centers, scene.p_bs
    )
    lattice = seed_lattice(_ROOM, scene.tile_centers)
    p = solve_position(system, lattice, sigmas=np.ones(15), sigma_ref=0.0)
    ok = np.linalg.norm(p - scene.p_ue) < 1e-4
    return ok, "exact inversion (general anchors 1e-6, collinear 1e-4)"


def _check_gradients():
    rng = np.random.default_rng(9)
    for _ in range(3):
        layout = RisLayout(
            tile_count=8, tile_spacing=0.2, center=[5, 10, 2], axis=[1, 0, 0]
        )
        ue = np.array([rng.uniform(1, 9), rng.uniform(1, 8), 0.0])
        scene = build_scene(layout, [0, 5, 2], ue)
        grads = tdoa_gradients(scene, 1)
        step = 1e-4
        for k in (2, 5, 8):
            for axis in range(3):
                shifted_hi = ue.copy()
                shifted_hi[axis] += step
                shifted_lo = ue.copy()
                shifted_lo[axis] -= step

                def mu(pos):
                    d = np.linalg.norm(pos - scene.tile_centers, axis=1)
                    return (d[k - 1] - d[0]) / SPEED_OF_LIGHT

                numeric = (mu(shifted_hi) - mu(shifted_lo)) / (2 * step)
                if abs(numeric - grads[k - 1, axis]) > 1e-6 * max(
                    abs(numeric), 1e-12
                ):
                    return False, "analytic delay gradient mismatch"
    return True, "delay-difference gradients match finite differences"


def _check_exact_toa_labeling():
    rng = np.random.default_rng(21)
    for _ in range(20):
        k_tiles = int(rng.integers(8, 20))
        l_frames = int(rng.integers(6, 10))
        k0 = 4
        if l_frames >= k_tiles or (k_tiles - k0) / (l_frames - k0) > 4:
            continue
        cfg = ExperimentConfig(
            tile_count=k_tiles,
            tile_spacing_m=rng.uniform(0.1, 0.4),
            frames=l_frames,
            exclusive_tiles=k0,
        )
        ue = np.array([rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.0), 0.0])
        scene = cfg.deployment.scene(ue, t0=rng.uniform(0, 1e-6))
        assignment = cfg.assignment()
        true_toas = toa_vector(scene)
        groups = ToaGroups.from_delays(true_toas, assignment)
        entries, _, _ = run_spl(groups, assignment, cfg.deployment)
        lookup = {k: t for t, k in entries}
        for i, tiles in assignment.groups.items():
            truth = sorted(tiles, key=lambda k: -true_toas[k - 1])
            got = sorted(tiles, key=lambda k: -lookup[k])
            if tuple(truth) != tuple(got):
                return False, "exact-delay labeling missed the ground truth"
    return True, "exact-delay labeling recovers ground truth"


def _check_demod_identity():
    # left-rule quadrature is exact for the band-limited conjugate product
    cfg = WaveformConfig(
        n_subcarriers=4, spacing=1e6, carrier=1e7, tx_power=0.3, noise_psd=0.0,
        l_frames=2,
    )
    tau, beta, amp = 123e-9, 0.5, 0.8 - 0.2j
    frames = frames_from_paths([tau], [beta], [amp], cfg)
    demods = np.zeros((cfg.n_subcarriers, cfg.l_frames), dtype=complex)
    t = np.arange(64) / 64 * cfg.frame_duration
    freqs = cfg.subcarrier_frequencies()
    cascade = np.conj(amp)
    for ell in (1, 2):
        gain = cascade * np.exp(-2j * np.pi * beta * ell)
        rx = np.zeros_like(t, dtype=complex)
        for m in range(cfg.n_subcarriers):
            x_m = np.sqrt(cfg.tx_power / cfg.n_subcarriers) * np.exp(
                2j * np.pi * freqs[m] * t
            )
            rx += gain * np.exp(-2j * np.pi * freqs[m] * tau) * x_m
        for n in range(cfg.n_subcarriers):
            x_n = np.sqrt(cfg.tx_power / cfg.n_subcarriers) * np.exp(
                2j * np.pi * freqs[n] * t
            )
            demods[n, ell - 1] = np.mean(np.conj(rx) * x_n)
    quadrature = FrameMatrix.from_symbols(demods, cfg).s
    ok = np.max(np.abs(quadrature - frames.s)) <= 1e-9
    return ok, "closed-form slope columns match quadrature demodulation"


CHECKS = [
    _check_scene_arithmetic,
    _check_psp_partition,
    _check_transform_equivalence,
    _check_discriminant_equivalence,
    _check_exact_inversion,
    _check_gradients,
    _check_exact_toa_labeling,
    _check_demod_identity,
]


def run_selftest(out=print) -> bool:
    """Run every check; returns True when all pass."""
    all_ok = True
    for check in CHECKS:
        ok, label = check()
        out(f"{'PASS' if ok else 'FAIL'}  {label}")
        all_ok &= ok
    return all_ok
