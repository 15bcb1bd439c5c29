"""Global searches over the parameter domain: the parabolic locus Delta = 0
and the inflection points (Delta = 0 and kappa = 0).

The tracer is plain marching squares on the sampled Delta field; every edge
crossing is refined by a batched Illinois (safeguarded regula-falsi)
iteration on the exact Delta along the edge, and saddle cells are
disambiguated by the sign of Delta at the cell centre.  A vertex is named by
the integer id of its edge; an edge borders at most two cells and pairs
with one other edge in each, so the cells' segments link each id to at most
two others, and the polylines are walks through them.  Isolated zeros of
Delta (imaginary inflections) produce no sign change, hence no polylines:
they are reported only by the inflection finder.

Inflections are the singular points of Delta = 0, where grad Delta vanishes
too.  The finder runs one batch of Newton walkers on grad Delta = 0 and
kappa = 0 with the exact Hessian of Delta, which converge quadratically
where Newton on (Delta, kappa) converges only linearly.  The walkers, their
seed test and the Hessian of Delta in the reports take their derivatives
from one route, :func:`~monge4.localgeom.scaled_jets`, on M scaled by a
power of two; the reports' det_hessian_delta is that Hessian scaled back,
so it underflows on a small enough surface, where the search does not.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .classify import REL, class_labels_grid, hessian_of_delta
from .errors import SeedCapWarning
from .jets import Jet, eval_jet
from .localgeom import (SurfaceSpec, below_floor, coeff_norm, grid_axes,
                        grid_tiles, local_invariants, scaled_jets,
                        second_order_grid, unit_scaled)

__all__ = ["Polyline", "PolylineSet", "InflectionReport",
           "trace_parabolic", "find_inflections"]

MIN_RESOLUTION = 16
# The refinement of an edge stops after REFINE_PASSES passes, when its
# bracket is at most EDGE_WIDTH of the edge wide, or when |Delta| <=
# EDGE_ZERO * ||M||^4 at the new point.  Forty bisection rounds end at the
# midpoint of a 2^-40 bracket, within 2^-41 of the root; a vertex here is a
# bracket end, so a 2^-42 bracket keeps it within half of that.  Delta sums
# products of four coefficients, each at most ||M||, so one rounding in it
# is already about 2.2e-16 ||M||^4: below EDGE_ZERO a further pass only
# trades one rounding error for another.  It sits well under that level (at
# 1e-17, one surface of the random test corpus kept a larger worst residual
# than forty bisection rounds leave), more than 1e8 below the 1e-9 ||M||^4
# that vertex residuals are held to, and more than 1e9 below the 1e-8 band
# of the classifier.
REFINE_PASSES = 40
EDGE_WIDTH = 2.0 ** -42
EDGE_ZERO = 3e-18
NEWTON_ITERATIONS = 25
NEWTON_ACCEPT = 1e-12
# A walker stops once its step is at most NEWTON_STEP of a grid cell: the
# iteration converges quadratically, so the iterate is then as close to its
# limit as a trace vertex is to its edge root.  Its least-squares system is
# singular where the sum of its squared 2x2 minors, on rows of unit scale,
# is at most SINGULAR: one rounding unit.
NEWTON_STEP = EDGE_WIDTH
SINGULAR = 2.0 ** -52
SEED_BAND = 1e-3
MAX_SEEDS = 512


@dataclass(frozen=True, eq=False)
class Polyline:
    points: np.ndarray      # (n, 2) parameter points
    residuals: np.ndarray   # (n,) |Delta| at each vertex
    closed: bool


@dataclass(frozen=True, eq=False)
class PolylineSet:
    polylines: list[Polyline]
    degenerate_cells: np.ndarray  # (n, 2) cells (i, j) with |Delta| ~ 0 throughout


@dataclass(frozen=True)
class InflectionReport:
    x: float
    y: float
    kind: str              # real | flat | imaginary
    K: float
    det_hessian_delta: float
    residual: float        # scaled residual max(|Delta|/||M||^4, |kappa|/||M||^2)


def _checked_axes(surface: SurfaceSpec, resolution: int):
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"grid resolution must be >= {MIN_RESOLUTION}")
    return grid_axes(surface, resolution)


def _residual_field(fields):
    """|Delta|/||M||^4 + |kappa|/||M||^2 on the grid of ``fields``, 0 where
    M = 0 (Delta and kappa vanish there too).

    A ratio of values scaled by the same power of two, so it is taken on
    the unscaled fields where ||M||^4 is above the floor of
    :func:`~monge4.localgeom.below_floor`, above which every term of Delta
    that matters to rounding is a normal float, and on M scaled by the
    power of two of :func:`unit_scaled` below it, where Delta underflows."""
    def scaled(at):
        m = unit_scaled(*map(at, (fields.a, fields.b, fields.c, fields.e,
                                  fields.f, fields.g)))
        msq = np.where(m.msq > 0.0, m.msq, 1.0)
        return np.abs(m.Delta) / (msq * msq) + np.abs(m.kappa) / msq,

    msq = coeff_norm(fields) ** 2
    norm4 = msq * msq
    with np.errstate(invalid="ignore", divide="ignore"):
        field = np.abs(fields.Delta) / norm4 + np.abs(fields.kappa) / msq
    return below_floor(norm4, (field,), scaled)[0]


def _refine_edges(surface: SurfaceSpec, ax, ay, bx, by, da, db):
    """The root of Delta on each crossing edge, by batched Illinois iteration.

    Edge k runs along one axis from grid node (ax, ay) to grid node (bx, by);
    da and db are the grid's Delta at those nodes, of strictly opposite
    signs, so the starting bracket costs no evaluation.  Each pass evaluates
    Delta at the regula-falsi point of every edge still live, and the point
    replaces the bracket end of its own sign; an end kept twice in a row has
    its stored Delta halved (the Illinois rule: Dowell & Jarratt, BIT 11,
    1971).  An edge stops on the first of:

    1. the regula-falsi point is not strictly inside the bracket: an end is
       the root to rounding;
    2. the bracket is at most EDGE_WIDTH of the edge wide;
    3. |Delta| <= EDGE_ZERO * ||M||^4 at the new point (Delta = 0 included);
    4. REFINE_PASSES passes.

    The vertex is the bracket end with the smaller |Delta|: the last point
    evaluated, unless the other end is nearer zero, and a grid node keeps
    its own coordinates and grid Delta.  Returns the vertices' x, y and
    |Delta| there, which is the printed residual; no pass is spent on it.
    """
    along_x = ax != bx
    # bracket [lo, hi] in the coordinate that varies along the edge
    lo = np.where(along_x, ax, ay)
    hi = np.where(along_x, bx, by)
    fixed = np.where(along_x, ay, ax)
    min_width = EDGE_WIDTH * (hi - lo)
    d_lo, d_hi = da.copy(), db.copy()   # Delta at the bracket ends
    w_lo, w_hi = da.copy(), db.copy()   # the same, halved by the Illinois rule
    kept = np.zeros(len(lo), dtype=np.int8)  # end kept last pass: -1 lo, 1 hi
    live = np.arange(len(lo))
    for _ in range(REFINE_PASSES):
        l, h, wl, wh = lo[live], hi[live], w_lo[live], w_hi[live]
        # the step is taken from the end with the smaller |Delta|, so that a
        # root within rounding of an end lands on it; wl - wh can overflow,
        # and the point is then an end
        with np.errstate(over="ignore"):
            u = np.where(np.abs(wl) <= np.abs(wh), l + (h - l) * (wl / (wl - wh)),
                         h - (h - l) * (wh / (wh - wl)))
        inside = (l < u) & (u < h)
        live, u = live[inside], u[inside]
        if not live.size:
            break
        on_x = along_x[live]
        fl = second_order_grid(surface, np.where(on_x, u, fixed[live]),
                               np.where(on_x, fixed[live], u))
        d = fl.Delta
        to_lo = (d > 0.0) == (d_lo[live] > 0.0)
        new_lo, new_hi = live[to_lo], live[~to_lo]
        lo[new_lo] = u[to_lo]
        d_lo[new_lo] = w_lo[new_lo] = d[to_lo]
        hi[new_hi] = u[~to_lo]
        d_hi[new_hi] = w_hi[new_hi] = d[~to_lo]
        w_hi[new_lo[kept[new_lo] == 1]] *= 0.5
        w_lo[new_hi[kept[new_hi] == -1]] *= 0.5
        kept[new_lo] = 1
        kept[new_hi] = -1
        done = (np.abs(d) <= EDGE_ZERO * coeff_norm(fl) ** 4) \
            | (hi[live] - lo[live] <= min_width[live])
        live = live[~done]
    take_lo = np.abs(d_lo) <= np.abs(d_hi)
    vert = np.where(take_lo, lo, hi)
    res = np.abs(np.where(take_lo, d_lo, d_hi))
    return np.where(along_x, vert, fixed), np.where(along_x, fixed, vert), res


def trace_parabolic(surface: SurfaceSpec, resolution: int = 256,
                    rel: float = REL) -> PolylineSet:
    """Marching-squares extraction of the parabolic locus Delta = 0.

    Edge crossings (strict sign changes between grid nodes) of the cells
    that give segments are refined by :func:`_refine_edges` on the exact
    Delta along the edge and linked into polylines by
    :func:`_link_segments`; a vertex's residual is |Delta| at the vertex
    itself.  Cells whose entire sampled field is flat-zero are flagged
    degenerate and excluded.

    A vertex is named by the id of its edge: the edge from node (i, j) to
    (i+1, j) by i*ny + j, the one from (i, j) to (i, j+1) by
    nh + i*(ny-1) + j, with nh = (nx-1)*ny, so ids sort the edges along x
    first, each kind in row-major order.
    """
    xs, ys = _checked_axes(surface, resolution)
    # all the tracer keeps of the grid: Delta and its flat test, tile by tile
    delta = np.empty((resolution, resolution))
    flat = np.empty((resolution, resolution), dtype=bool)
    for rows, where in grid_tiles(surface, resolution):
        fields = second_order_grid(surface, *where)
        delta[rows] = fields.Delta
        flat[rows] = np.abs(fields.Delta) <= rel * coeff_norm(fields) ** 4
    nx, ny = delta.shape
    nh = (nx - 1) * ny

    cell_flat = flat[:-1, :-1] & flat[1:, :-1] & flat[1:, 1:] & flat[:-1, 1:]
    degenerate_cells = np.argwhere(cell_flat)

    # strict sign-change edges ("h": along x between (i,j)-(i+1,j);
    # "v": along y between (i,j)-(i,j+1))
    pos = delta > 0.0
    neg = delta < 0.0
    h_cross = (pos[:-1, :] & neg[1:, :]) | (neg[:-1, :] & pos[1:, :])
    v_cross = (pos[:, :-1] & neg[:, 1:]) | (neg[:, :-1] & pos[:, 1:])

    # a cell's crossing edges in the order south, east, north, west; only
    # cells that are not flat and have 2 or 4 of them give segments.  Those
    # cells in row-major order, and the ids of their edges in that order.
    south = h_cross[:, :-1]
    east = v_cross[1:, :]
    north = h_cross[:, 1:]
    west = v_cross[:-1, :]
    count = south.astype(np.int8) + east + north + west
    ci, cj = np.nonzero(~cell_flat & ((count == 2) | (count == 4)))
    h = ci * ny + cj
    v = nh + ci * (ny - 1) + cj
    edges = np.stack((h, v + ny - 1, h + 1, v), axis=1)
    crossed = np.stack((south[ci, cj], east[ci, cj], north[ci, cj],
                        west[ci, cj]), axis=1)

    # refine those cells' crossing edges in one batch, in id order; edge k
    # runs from grid node (i, j) to grid node (bi, bj).  Not np.unique: its
    # first call adds about 1.7 MB to the process's resident memory.
    ids = np.array(sorted(set(edges[crossed].tolist())), dtype=int)
    along_x = ids < nh
    i, j = np.where(along_x, np.divmod(ids, ny), np.divmod(ids - nh, ny - 1))
    bi, bj = i + along_x, j + ~along_x
    mx, my, res = _refine_edges(surface, xs[i], ys[j], xs[bi], ys[bj],
                                delta[i, j], delta[bi, bj])
    crossings = dict(zip(ids.tolist(),
                         zip(mx.tolist(), my.tolist(), res.tolist())))

    # a saddle cell pairs its edges around the corners of the sign of Delta
    # at its centre: south with east where that is the sign at corner
    # (i, j), else south with west; the centres in one evaluation
    saddle = np.nonzero(crossed.all(axis=1))[0]
    if saddle.size:
        si, sj = ci[saddle], cj[saddle]
        centre = second_order_grid(surface, 0.5 * (xs[si] + xs[si + 1]),
                                   0.5 * (ys[sj] + ys[sj + 1])).Delta
        flip = saddle[(centre > 0.0) != pos[si, sj]]
        edges[flip] = edges[flip][:, [0, 3, 2, 1]]

    # every cell has two or four crossing edges, so its segments are
    # consecutive pairs of them, in cell order
    segments = edges[crossed].reshape(-1, 2)
    return PolylineSet(polylines=_link_segments(segments.tolist(), crossings),
                       degenerate_cells=degenerate_cells)


def _link_segments(segments, crossings) -> list[Polyline]:
    """The polylines through ``segments``, pairs of vertex keys, where
    ``crossings[key]`` is the vertex (x, y, residual).

    A key is in at most two segments, as an edge borders at most two cells
    and pairs with one other edge in each, so each step takes the partner
    that it did not come from.  Open polylines come first, each walked from
    its end with the least key, then closed ones, each from its least key
    toward its partner in the earlier segment.
    """
    partners = {}
    for a, b in segments:
        partners.setdefault(a, []).append(b)
        partners.setdefault(b, []).append(a)
    seen = set()
    out = []
    for start in sorted(partners, key=lambda k: (len(partners[k]) > 1, k)):
        if start in seen:
            continue
        chain = [start]
        prev, key = start, partners[start][0]
        while key != start:
            chain.append(key)
            ends = partners[key]
            if len(ends) == 1:
                break
            prev, key = key, ends[1] if ends[0] == prev else ends[0]
        seen.update(chain)
        vertices = np.array([crossings[k] for k in chain])
        out.append(Polyline(points=vertices[:, :2], residuals=vertices[:, 2],
                            closed=key == start))
    return out


def _newton_steps(delta: Jet, kappa: Jet):
    """The step of each walker, from Delta and kappa as order-2 jets, and
    whether it has one.

    At an inflection Delta = 0 is singular: grad Delta vanishes with Delta,
    so the Jacobian of (Delta, kappa) is singular at the root and Newton on
    (Delta, kappa) converges only linearly.  The root is regular for the
    system grad Delta = 0, kappa = 0 (Griewank, SIAM Review 27, 1985): its
    Jacobian, the exact Hessian H of Delta above grad kappa, has rank 2
    where H is regular (real and imaginary inflections) and also where H
    has rank 1 but grad kappa is not in its row space (flat inflections).
    The step solves H s = grad Delta and grad kappa . s = kappa in the
    least-squares sense, on H scaled by its largest entry and the kappa row
    by the length of grad kappa; it is the average of the solutions of the
    three 2x2 subsystems weighted by their squared determinants m^2, whose
    sum is the determinant of the normal equations (Cauchy-Binet).

    Where that sum is at most SINGULAR, the step solves the (Delta, kappa)
    system instead.  That system has no step where a gradient is zero or
    not finite, where its rows scaled to unit length have a determinant of
    at most 1e-300, or where elimination with partial pivoting meets a zero
    pivot."""
    with np.errstate(all="ignore"):
        big = np.maximum(np.maximum(np.abs(delta.fxx), np.abs(delta.fxy)),
                         np.abs(delta.fyy))
        nk = np.hypot(kappa.fx, kappa.fy)
        rows = ((delta.fxx / big, delta.fxy / big, delta.fx / big),
                (delta.fxy / big, delta.fyy / big, delta.fy / big),
                (kappa.fx / nk, kappa.fy / nk, kappa.f / nk))
        sx = sy = det = 0.0
        for (p, q, b), (r, t, c) in ((rows[0], rows[1]), (rows[0], rows[2]),
                                     (rows[1], rows[2])):
            m = p * t - q * r
            sx = sx + m * (b * t - q * c)
            sy = sy + m * (p * c - b * r)
            det = det + m * m
        regular = det > SINGULAR
        sx, sy = sx / det, sy / det

        d0, d1, k0, k1 = delta.fx, delta.fy, kappa.fx, kappa.fy
        nd = np.hypot(d0, d1)
        p, q, b = d0 / nd, d1 / nd, delta.f / nd
        r, t, c = k0 / nk, k1 / nk, kappa.f / nk
        solvable = (0.0 < nd) & (nd < np.inf) & (0.0 < nk) & (nk < np.inf) \
            & (np.abs(p * t - q * r) > 1e-300)
        swap = np.abs(r) > np.abs(p)
        p, r = np.where(swap, r, p), np.where(swap, p, r)
        q, t = np.where(swap, t, q), np.where(swap, q, t)
        b, c = np.where(swap, c, b), np.where(swap, b, c)
        ell = r / p
        u = t - ell * q
        solvable &= (p != 0.0) & (u != 0.0)
        ky = (c - ell * b) / u
        kx = (b - q * ky) / p
    return np.where(regular, sx, kx), np.where(regular, sy, ky), \
        regular | solvable


def _newton_walkers(surface: SurfaceSpec, px, py, cellx: float, celly: float):
    """The roots (x, y, residual) of the Newton walkers started at the seeds
    (px[i], py[i]), in seed order, for the walkers with a root inside the
    domain.

    The walkers run as one batch: each pass evaluates Delta and kappa as
    order-2 jets of :func:`~monge4.localgeom.scaled_jets` at the live
    walkers and takes the steps of :func:`_newton_steps`.  A walker's root
    is its best iterate with residual max(|Delta|/||M||^4, |kappa|/||M||^2)
    at most NEWTON_ACCEPT, on the scaled fields.  A walker
    stops where ||M|| is 0 or not finite, where it has no step, where a step
    leaves the domain by more than a cell, and after NEWTON_ITERATIONS
    passes.  It also stops once its step is at most NEWTON_STEP of a cell:
    the iteration converges quadratically, so the iterate is then that
    close to its limit, which is the walker's root where it is accepted
    and otherwise a point where grad Delta = 0 and kappa = 0 have no common
    solution.
    """
    xmin, xmax, ymin, ymax = surface.domain
    step_stop = NEWTON_STEP * float(np.hypot(cellx, celly))
    n = len(px)
    best = np.full(n, np.inf)
    best_x = np.zeros(n)
    best_y = np.zeros(n)
    live = np.arange(n)
    x = np.array(px, dtype=float)
    y = np.array(py, dtype=float)
    for _ in range(NEWTON_ITERATIONS):
        if not live.size:
            break
        fl, m = scaled_jets(eval_jet(surface.phi, x, y, 4),
                            eval_jet(surface.psi, x, y, 4), 2)
        delta, kappa, msq = fl.Delta, fl.kappa, m.msq
        with np.errstate(all="ignore"):
            resid = np.maximum(np.abs(delta.f) / (msq * msq),
                               np.abs(kappa.f) / msq)
        usable = (0.0 < msq) & (msq < np.inf)
        better = usable & (resid <= NEWTON_ACCEPT) & (resid < best[live])
        best[live[better]] = resid[better]
        best_x[live[better]] = x[better]
        best_y[live[better]] = y[better]
        sx, sy, stepped = _newton_steps(delta, kappa)
        with np.errstate(invalid="ignore"):
            x, y = x - sx, y - sy
            go = usable & stepped & (np.hypot(sx, sy) > step_stop) \
                & (xmin - cellx <= x) & (x <= xmax + cellx) \
                & (ymin - celly <= y) & (y <= ymax + celly)
        live, x, y = live[go], x[go], y[go]
    found = (best <= NEWTON_ACCEPT) & (xmin <= best_x) & (best_x <= xmax) \
        & (ymin <= best_y) & (best_y <= ymax)
    return list(zip(best_x[found].tolist(), best_y[found].tolist(),
                    best[found].tolist()))


def _tile_minima(resid, above):
    """Where each node of the tile ``resid`` is at most each of its eight
    neighbours, with ``above`` the x-row before the tile and inf beyond the
    grid.  The x-row after the tile is not compared: the test of the tile's
    last row is finished against it by :func:`_at_most_row`."""
    padded = np.full((resid.shape[0] + 2, resid.shape[1] + 2), np.inf)
    padded[0, 1:-1] = above
    padded[1:-1, 1:-1] = resid
    is_min = np.ones(resid.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            neighbor = padded[1 + di:padded.shape[0] - 1 + di,
                              1 + dj:padded.shape[1] - 1 + dj]
            is_min &= resid <= neighbor
    return is_min


def _at_most_row(values, j, row):
    """Whether values[k] is at most row[j[k] - 1], row[j[k]] and
    row[j[k] + 1], with inf beyond the ends of ``row``."""
    padded = np.concatenate(([np.inf], row, [np.inf]))
    return (values <= padded[j]) & (values <= padded[j + 1]) \
        & (values <= padded[j + 2])


def _seed_tiles(surface: SurfaceSpec, resolution: int, rho: float):
    """The seeds of :func:`find_inflections` as (flat node index, scaled
    residual), one batch per tile of x-rows, in row-major order.

    Only local minima of the scaled residual |Delta|/||M||^4 + |kappa|/||M||^2
    over the 3x3 neighbourhood seed: one walker per candidate basin instead
    of one per in-band node.  A minimum seeds when Delta and kappa are
    inside the coarse band, or when their exact gradients say they can
    vanish within ``rho`` of it (a fixed band alone can fall between grid
    nodes); all of it is taken at the minima only, from
    :func:`~monge4.localgeom.scaled_jets` of order 1, so that nothing
    underflows on a small surface.  The tiles are evaluated at order 2, by
    :func:`~monge4.localgeom.second_order_grid`; the third derivatives the
    gradients need are evaluated at the minima alone, which gives the
    coefficients of a grid evaluation bit for bit.  So where they overflow,
    the failing point is the first minimum in row-major order at which the
    jet of phi, then that of psi, overflows.

    Of a tile's fields, only the residuals of its last x-row and that row's
    seeds are kept past the tile, and the minimum test of that row is
    finished against the next tile's first row.  The fields themselves are
    dropped once the next tile's are formed: the loop holds the previous
    tile while it evaluates the next.
    """
    xs, ys = grid_axes(surface, resolution)
    above = np.full(resolution, np.inf)
    last_j = np.empty(0, dtype=np.intp)  # the last row's seeds so far
    last_resid = np.empty(0)
    last_i = 0
    for rows, where in grid_tiles(surface, resolution):
        fields = second_order_grid(surface, *where)
        resid = _residual_field(fields)
        kept = _at_most_row(last_resid, last_j, resid[0])
        yield last_i * resolution + last_j[kept], last_resid[kept]

        at_min = np.nonzero(_tile_minima(resid, above))
        px, py = xs[at_min[0] + rows.start], ys[at_min[1]]
        grads, m = scaled_jets(eval_jet(surface.phi, px, py, 3),
                               eval_jet(surface.psi, px, py, 3), 1)
        gd = np.hypot(grads.Delta.fx, grads.Delta.fy)
        gk = np.hypot(grads.kappa.fx, grads.kappa.fy)
        seed = (np.abs(m.Delta) <= np.maximum(SEED_BAND * m.msq ** 2, gd * rho)) \
            & (np.abs(m.kappa) <= np.maximum(SEED_BAND * m.msq, gk * rho))
        i, j = at_min[0][seed] + rows.start, at_min[1][seed]
        r = resid[at_min][seed]
        last = i == rows.stop - 1
        yield i[~last] * resolution + j[~last], r[~last]
        last_i, last_j, last_resid = rows.stop - 1, j[last], r[last]
        above = resid[-1]
    yield last_i * resolution + last_j, last_resid


def find_inflections(surface: SurfaceSpec, resolution: int = 256,
                     rel: float = REL) -> list[InflectionReport]:
    """Locate and type the inflection points inside the domain.

    The local minima of the scaled residual |Delta|/||M||^4 + |kappa|/||M||^2
    on the grid where Delta and kappa are inside a coarse band, or can
    vanish within 1.5 cells by their exact gradients, seed the walkers of
    :func:`_newton_walkers`: one batch, each pass a Gauss-Newton step on
    grad Delta = 0, kappa = 0 with the exact Hessian of Delta (a Newton step
    on (Delta, kappa) where that system is singular).  The residuals are
    taken on M scaled by the power of two of :func:`unit_scaled`, so the
    search does not depend on the scale of the surface.  Accepted roots are
    deduplicated within a cell, re-verified (the rank of the coefficient
    matrix must drop) and typed by the sign of K.  Where more than
    MAX_SEEDS minima seed, only the MAX_SEEDS with the smallest residuals
    run, and a :class:`~monge4.errors.SeedCapWarning` gives both counts.
    """
    xs, ys = _checked_axes(surface, resolution)
    xmin, xmax, ymin, ymax = surface.domain
    cellx = (xmax - xmin) / (resolution - 1)
    celly = (ymax - ymin) / (resolution - 1)
    cell = float(np.hypot(cellx, celly))
    # the seeds in row-major order, or the MAX_SEEDS with the smallest
    # residuals, ties in row-major order; capped tile by tile, so that a
    # surface where every node seeds keeps no more than that
    seeds = np.empty(0, dtype=np.intp)
    seed_resid = np.empty(0)
    found = 0
    for idx, resid in _seed_tiles(surface, resolution, 1.5 * cell):
        found += len(idx)
        seeds = np.concatenate((seeds, idx))
        seed_resid = np.concatenate((seed_resid, resid))
        if len(seeds) > MAX_SEEDS:
            order = np.argsort(seed_resid, kind="stable")[:MAX_SEEDS]
            seeds, seed_resid = seeds[order], seed_resid[order]
    if found > MAX_SEEDS:
        warnings.warn(SeedCapWarning(
            f"inflection seeds capped: kept {MAX_SEEDS} of {found} found, "
            f"those with the smallest residuals; an inflection may be "
            f"missing"), stacklevel=2)

    accepted = _newton_walkers(surface, xs[seeds // resolution],
                               ys[seeds % resolution], cellx, celly)

    # deduplicate within one grid cell, keeping the best residual
    accepted.sort(key=lambda r: r[2])
    unique = []
    for r in accepted:
        if all(np.hypot(r[0] - u[0], r[1] - u[1]) > cell for u in unique):
            unique.append(r)

    reports = []
    for px, py, resid in unique:
        inv = local_invariants(surface, px, py)
        label = class_labels_grid(inv, rel)
        if label.rank > 1:
            continue
        hd = hessian_of_delta(surface, px, py)
        with np.errstate(invalid="ignore"):  # a non-finite Hessian gives nan
            det_hd = float(np.linalg.det(hd))
        reports.append(InflectionReport(
            x=px, y=py, kind=label.k_type, K=inv.K,
            det_hessian_delta=det_hd,
            residual=resid))
    reports.sort(key=lambda r: (r.x, r.y))
    return reports
