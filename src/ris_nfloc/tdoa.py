"""Position estimation from labeled arrival times.

Differencing every labeled arrival against the smallest one cancels the
unknown clock offset and leaves range differences to the anchor tiles.  The
UE lies on the floor (z = 0) of a known room, so the position is fitted over
the room's floor by damped Gauss-Newton descents that start at the two lowest
local minima of the cost on a floor lattice; each step is an active-set
Newton step that holds a coordinate on a wall the gradient pushes against.
This one fit serves every anchor set the simulator builds: a linear RIS gives
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

    ``start_xy`` must lie in the room's floor rectangle, and every trial
    point is clamped to it.  The step is an active-set (projected) Newton
    step, after Bertsekas (SIAM J. Control Optim. 20(2), 1982): a coordinate
    that sits on a wall while the gradient pushes it out of the room is held,
    and the step is the damped 1-D Newton step in the other coordinate, so a
    descent slides along a wall instead of crawling there by clamped 2-D
    steps.  A corner that holds both coordinates meets the KKT conditions and
    is returned as converged.
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
    lo_x, lo_y = float(room[0][0]), float(room[0][1])
    hi_x, hi_y = float(room[1][0]), float(room[1][1])

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
        # the step -g points out of the room across a wall it sits on
        hold_x = (x <= lo_x and g_x > 0.0) or (x >= hi_x and g_x < 0.0)
        hold_y = (y <= lo_y and g_y > 0.0) or (y >= hi_y and g_y < 0.0)
        if hold_x and hold_y:
            return np.array([x, y, 0.0]), cost, True
        accepted = False
        while lam < 1e14:
            a = h_xx + lam
            c = h_yy + lam
            if hold_x:
                det, num_x, num_y = c, 0.0, g_y
            elif hold_y:
                det, num_x, num_y = a, g_x, 0.0
            else:
                det = a * c - h_xy * h_xy
                num_x, num_y = c * g_x - h_xy * g_y, a * g_y - h_xy * g_x
            if det == 0.0:
                lam *= 10.0
                continue
            tx = min(max(x - num_x / det, lo_x), hi_x)
            ty = min(max(y - num_y / det, lo_y), hi_y)
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


_SEED_SPACINGS = 20  # lattice spacings per floor axis: 0.5 m on a 10 m room
_SEED_COUNT = 2  # descents per solve


def _grid_seeds(
    system: TdoaSystem, room, whitener: _ResidualWhitener
) -> np.ndarray:
    """Floor points of the lowest local minima of the cost on a lattice.

    The whitened cost of :func:`_gn_descend` is evaluated in one pass on the
    interior points of a fixed lattice over the room floor, one spacing off
    every wall.  No point lies on a wall: a linear RIS on a wall puts the
    anchors' mirror plane there, where the gradient across the wall
    vanishes, so a descent started on it could never leave it.  A lattice
    point is a local minimum when its cost is at most that of each of its 8
    neighbours (points off the lattice count as +inf); the ``_SEED_COUNT``
    lowest minima are returned, lowest first, ties in lattice order.
    """
    n = _SEED_SPACINGS - 1
    axes = [np.linspace(room[0][i], room[1][i], n + 2)[1:-1] for i in (0, 1)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    anchors = system.anchor_positions
    diff = points[:, None, :] - anchors[:, :2]
    d = np.sqrt(np.einsum("pai,pai->pa", diff, diff) + anchors[:, 2] ** 2)
    ref_diff = points - system.ref_pos[:2]
    d_ref = np.sqrt(np.einsum("pi,pi->p", ref_diff, ref_diff) + system.ref_pos[2] ** 2)
    r = system.gammas - (d - d_ref[:, None])
    q_sum = r @ whitener.dinv
    cost = ((r * r) @ whitener.dinv - whitener.k * q_sum * q_sum).reshape(n, n)

    padded = np.full((n + 2, n + 2), np.inf)
    padded[1:-1, 1:-1] = cost
    is_min = np.ones((n, n), dtype=bool)
    for i in range(3):
        for j in range(3):
            if (i, j) != (1, 1):
                is_min &= cost <= padded[i : i + n, j : j + n]
    minima = np.flatnonzero(is_min)
    order = np.argsort(cost.ravel()[minima], kind="stable")
    return points[minima[order[:_SEED_COUNT]]]


def _gauss_newton_ground(
    system: TdoaSystem,
    room,
    max_iter: int,
    whitener: _ResidualWhitener,
) -> tuple[np.ndarray, bool]:
    """The fit of :func:`solve_position`: its lowest-cost endpoint, and
    whether any descent converged."""
    ends = [
        _gn_descend(system, s, room, max_iter, whitener)
        for s in _grid_seeds(system, room, whitener)
    ]
    if not any(done for _, _, done in ends):
        # the budget ran out on a slow approach, such as toward a minimum on
        # the wall that carries the anchors' mirror plane: resume once
        p = min(ends, key=lambda end: end[1])[0]
        ends.append(_gn_descend(system, p[:2], room, max_iter, whitener))
    best_p = min(ends, key=lambda end: end[1])[0]
    return best_p, any(done for _, _, done in ends)


def solve_position(
    system: TdoaSystem,
    room,
    *,
    sigmas: np.ndarray | None = None,
    sigma_ref: float = 0.0,
    max_iter: int = 100,
) -> np.ndarray:
    """Estimate the UE's floor position in ``room`` from a built system.

    ``room`` is the ``(min_xyz, max_xyz)`` box whose floor rectangle bounds
    the fit.  Two Gauss-Newton descents start from the lowest local minima
    of the cost on a 19 x 19 lattice of interior floor points (20 spacings
    per axis), which puts a start in the true basin and in the mirror basin
    that near-collinear anchors leave.  Every iterate stays in the room, and
    a coordinate on a wall that the gradient pushes against is held (an
    active-set step).  If no descent converges within ``max_iter``
    iterations, the lowest-cost endpoint is resumed once.  The lowest-cost
    endpoint is returned with z = 0.  Raises :class:`PositionEstimationError`
    with that endpoint if no descent converges.

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
