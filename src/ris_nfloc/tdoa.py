"""Position estimation from labeled arrival times.

Differencing every labeled arrival against the smallest one cancels the
unknown clock offset and leaves range differences to the anchor tiles.  The
UE lies on the floor (z = 0), so the position is fitted over the ground plane
by a clamped, damped Gauss-Newton descent with deterministic restarts.  This
one fit serves every anchor set the simulator builds: a linear RIS gives
collinear anchors, which leave the classic linear two-step TDoA system rank
deficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT


class PositionEstimationError(RuntimeError):
    """Raised when no Gauss-Newton descent converges within its iteration
    budget; ``best_estimate`` holds the lowest-cost endpoint."""

    def __init__(self, message: str, best_estimate: np.ndarray | None = None):
        super().__init__(message)
        self.best_estimate = best_estimate


@dataclass(frozen=True)
class TdoaSystem:
    """Range differences of the labeled anchors relative to the reference."""

    ref_tile: int
    ref_pos: np.ndarray
    anchor_positions: np.ndarray  # (rows, 3) non-reference anchors
    gammas: np.ndarray  # (rows,) range differences of non-reference anchors


def build_system(labels, tile_positions: np.ndarray, p_bs) -> TdoaSystem:
    """Form the range differences of labeled arrivals.

    ``labels`` is an iterable of ``(toa_seconds, tile_index)`` pairs;
    ``tile_positions`` holds all tile centers with tile index k (1-based) at
    row k-1.  The reference is the
    labeled tile with the smallest arrival time.  Range differences are formed
    as ``c*(toa_k - toa_ref) - (d_bs_k - d_bs_ref)`` so the clock offset and
    the known BS legs both cancel.
    """
    entries = list(labels)
    if len(entries) < 3:
        raise ValueError("need at least 3 labeled arrivals")
    tile_list = [int(t) for _, t in entries]
    if len(set(tile_list)) != len(tile_list):
        raise ValueError("duplicate tile labels")
    tiles = np.array(tile_list)
    toas = np.array([t for t, _ in entries], dtype=float)
    positions = np.asarray(tile_positions, dtype=float)[tiles - 1]
    to_bs = np.asarray(p_bs, dtype=float) - positions
    d_bs = np.sqrt(np.einsum("ij,ij->i", to_bs, to_bs))

    ref_i = int(np.lexsort((tiles, toas))[0])  # smallest ToA, then tile index
    ref_tile = int(tiles[ref_i])
    ref_pos = positions[ref_i]
    rest = np.arange(len(entries)) != ref_i
    gammas = (toas[rest] - toas[ref_i]) * SPEED_OF_LIGHT - (d_bs[rest] - d_bs[ref_i])
    return TdoaSystem(
        ref_tile=ref_tile,
        ref_pos=ref_pos,
        anchor_positions=positions[rest],
        gammas=gammas,
    )


class _ResidualWhitener:
    """Inverse covariance of the range-difference residuals.

    The reference anchor's range error is common to every residual, so the
    covariance is ``diag(sigmas**2) + sigma_ref**2 * 1 1^T``; by the
    Sherman-Morrison identity its inverse is ``D - k * (D 1)(D 1)^T`` with
    ``D = diag(dinv)`` and ``k = sigma_ref**2 / (1 + sigma_ref**2 * sum(dinv))``.
    With no sigmas the fit takes unit sigmas and no reference term, so
    ``dinv`` is all ones and ``k`` is zero: plain least squares, bit for bit.
    """

    def __init__(self, sigmas: np.ndarray | None, sigma_ref: float, n: int):
        if sigmas is None:
            sigmas, sigma_ref = np.ones(n), 0.0
        sigmas = np.asarray(sigmas, dtype=float)
        if sigmas.shape != (n,):
            raise ValueError("sigmas must have one entry per non-reference anchor")
        self.dinv = 1.0 / np.maximum(sigmas, 1e-30) ** 2
        s2_ref = float(sigma_ref) ** 2
        self.k = s2_ref / (1.0 + s2_ref * float(np.sum(self.dinv)))


def _anchor_line_mirror(system: TdoaSystem, xy: np.ndarray) -> np.ndarray | None:
    """Reflect a floor point about the anchor line's floor projection.

    TDoA costs around a near-collinear anchor array are mirror symmetric
    about the array line, so the reflection of a spurious fit often sits in
    the true solution's basin.  Returns None when the anchors' floor
    footprint has no dominant direction.
    """
    points = np.vstack([system.anchor_positions, system.ref_pos[None, :]])[:, :2]
    centroid = points.mean(axis=0)
    centered = points - centroid
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if svals[0] < 1e-9:
        return None
    e = vt[0]
    delta = xy - centroid
    return centroid + 2.0 * np.dot(delta, e) * e - delta


def _gn_descend(
    system: TdoaSystem,
    start_xy: np.ndarray,
    room,
    max_iter: int,
    whitener: _ResidualWhitener,
) -> tuple[np.ndarray, float, bool]:
    """Clamped, damped Gauss-Newton from one start; returns (p, cost, done).

    The arrays are tiny (one row per anchor), so the step is written to keep
    numpy calls few: distances and residuals of the accepted point are reused
    for the next Jacobian, the rank-one whitening is folded into the 2x2
    normal equations, and the damped system is solved in closed form.
    """
    anchors = system.anchor_positions
    anchor_xy = anchors[:, :2]
    dz2 = anchors[:, 2] ** 2  # the UE is on the floor, z = 0
    ref_x, ref_y, ref_z = system.ref_pos.tolist()
    ref_dz2 = ref_z ** 2
    gammas = system.gammas
    dinv = whitener.dinv
    k = whitener.k
    dinv_col = dinv[:, None]

    def evaluate(x, y):
        """Offsets, distances, residuals, whitened residual sum and cost."""
        diff = np.array((x, y)) - anchor_xy
        sq = diff * diff
        d = np.sqrt(sq[:, 0] + sq[:, 1] + dz2)
        d_ref = math.sqrt((x - ref_x) ** 2 + (y - ref_y) ** 2 + ref_dz2)
        r = gammas - (d - d_ref)
        q_sum = float(dinv @ r)
        return diff, d, d_ref, r, q_sum, float((dinv * r) @ r) - k * q_sum * q_sum

    x, y = float(start_xy[0]), float(start_xy[1])
    if room is not None:
        lo_x, lo_y = float(room[0][0]), float(room[0][1])
        hi_x, hi_y = float(room[1][0]), float(room[1][1])
        x = min(max(x, lo_x), hi_x)
        y = min(max(y, lo_y), hi_y)

    lam = 1e-3
    diff, d, d_ref, r, q_sum, cost = evaluate(x, y)
    for _ in range(max_iter):
        # d(residual)/d(p) = -(unit_k - unit_ref), restricted to x, y
        d_ref = max(d_ref, 1e-12)
        unit_ref = np.array(((x - ref_x) / d_ref, (y - ref_y) / d_ref))
        jac = unit_ref - diff / np.maximum(d, 1e-12)[:, None]
        w = dinv_col * jac
        (h_xx, h_xy), (_, h_yy) = (w.T @ jac).tolist()
        g_x, g_y = (r @ w).tolist()
        s_x, s_y = (dinv @ jac).tolist()
        h_xx -= k * s_x * s_x
        h_xy -= k * s_x * s_y
        h_yy -= k * s_y * s_y
        g_x -= k * s_x * q_sum
        g_y -= k * s_y * q_sum
        accepted = False
        while lam < 1e14:
            a = h_xx + lam
            c = h_yy + lam
            det = a * c - h_xy * h_xy
            if det == 0.0:
                lam *= 10.0
                continue
            tx = x - (c * g_x - h_xy * g_y) / det
            ty = y - (a * g_y - h_xy * g_x) / det
            if room is not None:
                tx = min(max(tx, lo_x), hi_x)
                ty = min(max(ty, lo_y), hi_y)
            trial = evaluate(tx, ty)
            cost_trial = trial[-1]
            if cost_trial <= cost:
                moved = math.hypot(tx - x, ty - y)
                x, y = tx, ty
                diff, d, d_ref, r, q_sum, cost = trial
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if moved < 1e-11:
                    return np.array([x, y, 0.0]), cost, True
                break
            lam *= 10.0
        if not accepted:
            # damping exhausted: gradient numerically stationary
            return np.array([x, y, 0.0]), cost, True
    return np.array([x, y, 0.0]), cost, False


def _gauss_newton_ground(
    system: TdoaSystem,
    room,
    max_iter: int,
    whitener: _ResidualWhitener,
) -> tuple[np.ndarray, bool]:
    """Ground-plane nonlinear fit: center start plus deterministic restarts.

    The primary descent starts at the room center; its endpoint reflected
    about the anchor line and the four room quadrant midpoints seed further
    descents.  The lowest-cost endpoint wins, which resolves the mirror
    ambiguity of near-collinear anchor geometries that traps a single
    clamped descent on the room boundary.
    """
    if room is not None:
        lo, hi = np.asarray(room[0], dtype=float), np.asarray(room[1], dtype=float)
        center = 0.5 * (lo[:2] + hi[:2])
    else:
        center = np.mean(system.anchor_positions[:, :2], axis=0)
    best_p, best_cost, done = _gn_descend(system, center, room, max_iter, whitener)
    any_done = done

    starts = []
    mirrored = _anchor_line_mirror(system, best_p[:2])
    if mirrored is not None:
        starts.append(mirrored)
    if room is not None:
        qx = (0.75 * lo[0] + 0.25 * hi[0], 0.25 * lo[0] + 0.75 * hi[0])
        qy = (0.75 * lo[1] + 0.25 * hi[1], 0.25 * lo[1] + 0.75 * hi[1])
        starts.extend(np.array([x, y]) for x in qx for y in qy)
    for start in starts:
        p, cost, done = _gn_descend(
            system, np.asarray(start, dtype=float), room, max_iter, whitener
        )
        any_done = any_done or done
        if cost < best_cost:
            best_p, best_cost = p, cost
    return best_p, any_done


def solve_position(
    system: TdoaSystem,
    room=None,
    *,
    sigmas: np.ndarray | None = None,
    sigma_ref: float = 0.0,
    max_iter: int = 100,
) -> np.ndarray:
    """Estimate the UE's floor position from a built system.

    Runs the ground-plane Gauss-Newton fit: a descent from the room center
    (without ``room``, the floor centroid of the non-reference anchors),
    then restarts from that endpoint's mirror about the anchor line and,
    with ``room``, from the four room quadrant midpoints, every iterate
    clamped to the room.  The lowest-cost endpoint is returned with z = 0.
    Raises :class:`PositionEstimationError` with that endpoint if no descent
    converges within ``max_iter`` iterations.

    With ``sigmas`` (per non-reference anchor, ordered like the system rows)
    and ``sigma_ref`` the fit becomes a generalized least squares: the
    reference anchor's range error is common mode across residuals, so the
    covariance is diagonal plus rank one.  Without them the fit is the plain
    unweighted sum of squares.
    """
    whitener = _ResidualWhitener(sigmas, sigma_ref, len(system.gammas))
    p, converged = _gauss_newton_ground(system, room, max_iter, whitener)
    if not converged:
        raise PositionEstimationError(
            "position fit did not converge", best_estimate=p
        )
    return p
