"""Global searches over the parameter domain: the parabolic locus Delta = 0
and the inflection points (Delta = 0 and kappa = 0).

The tracer is plain marching squares on the sampled Delta field; every edge
crossing is refined by a batched Illinois (safeguarded regula-falsi)
iteration on the exact Delta along the edge, and saddle cells are
disambiguated by the sign of Delta at the cell centre.  Isolated zeros of
Delta (imaginary inflections) produce no sign change, hence no polylines:
they are reported only by the Newton-based inflection finder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import REL, class_labels_grid, hessian_of_delta
from .jets import Jet
from .localgeom import (SurfaceSpec, coeff_norm, gradient_fields,
                        invariant_grid, invariant_gradients, local_invariants)

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
    degenerate_cells: list[tuple[int, int]]  # cells with |Delta| ~ 0 throughout


@dataclass(frozen=True)
class InflectionReport:
    x: float
    y: float
    kind: str              # real | flat | imaginary
    K: float
    det_hessian_delta: float
    residual: float        # scaled Newton residual max(|Delta|/s^4, |kappa|/s^2)


def _grid_fields(surface: SurfaceSpec, resolution: int, order: int):
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"grid resolution must be >= {MIN_RESOLUTION}")
    xmin, xmax, ymin, ymax = surface.domain
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    fields = invariant_grid(surface, xs[:, None], ys[None, :], order=order)
    return xs, ys, fields


def _delta_on(surface: SurfaceSpec, x, y):
    return invariant_grid(surface, x, y).Delta


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
        fl = invariant_grid(surface, np.where(on_x, u, fixed[live]),
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
    Delta along the edge and linked into polylines; a vertex's residual is
    |Delta| at the vertex itself.  Cells whose entire sampled field is
    flat-zero are flagged degenerate and excluded.
    """
    xs, ys, fields = _grid_fields(surface, resolution, 2)
    delta = np.asarray(fields.Delta)
    tau_flat = rel * coeff_norm(fields) ** 4
    flat = np.abs(delta) <= tau_flat
    nx, ny = delta.shape

    degenerate_cells = []
    live = np.ones((nx - 1, ny - 1), dtype=bool)
    cell_flat = flat[:-1, :-1] & flat[1:, :-1] & flat[1:, 1:] & flat[:-1, 1:]
    for i, j in zip(*np.nonzero(cell_flat)):
        degenerate_cells.append((int(i), int(j)))
        live[i, j] = False

    # strict sign-change edges ("h": along x between (i,j)-(i+1,j);
    # "v": along y between (i,j)-(i,j+1))
    pos = delta > 0.0
    neg = delta < 0.0
    h_cross = (pos[:-1, :] & neg[1:, :]) | (neg[:-1, :] & pos[1:, :])
    v_cross = (pos[:, :-1] & neg[:, 1:]) | (neg[:, :-1] & pos[:, 1:])

    # a cell's crossing edges in the order south, east, north, west; only
    # live cells with 2 or 4 of them give segments
    south = h_cross[:, :-1]
    east = v_cross[1:, :]
    north = h_cross[:, 1:]
    west = v_cross[:-1, :]
    count = south.astype(np.int8) + east + north + west
    used = live & ((count == 2) | (count == 4))

    # refine the crossing edges of those cells, h and v together, in one
    # batch; edge k runs from grid node (ax, ay) to grid node (bx, by)
    h_used = np.zeros_like(h_cross)
    h_used[:, :-1] |= used
    h_used[:, 1:] |= used
    v_used = np.zeros_like(v_cross)
    v_used[:-1, :] |= used
    v_used[1:, :] |= used
    hi_idx = np.nonzero(h_cross & h_used)
    vi_idx = np.nonzero(v_cross & v_used)
    crossings = {}
    if hi_idx[0].size or vi_idx[0].size:
        ax = np.concatenate([xs[hi_idx[0]], xs[vi_idx[0]]])
        bx = np.concatenate([xs[hi_idx[0] + 1], xs[vi_idx[0]]])
        ay = np.concatenate([ys[hi_idx[1]], ys[vi_idx[1]]])
        by = np.concatenate([ys[hi_idx[1]], ys[vi_idx[1] + 1]])
        da = np.concatenate([delta[hi_idx], delta[vi_idx]])
        db = np.concatenate([delta[hi_idx[0] + 1, hi_idx[1]],
                             delta[vi_idx[0], vi_idx[1] + 1]])
        mx, my, res = _refine_edges(surface, ax, ay, bx, by, da, db)
        keys = [("h", i, j) for i, j in zip(*(a.tolist() for a in hi_idx))] \
            + [("v", i, j) for i, j in zip(*(a.tolist() for a in vi_idx))]
        crossings = dict(zip(keys, zip(mx.tolist(), my.tolist(), res.tolist())))

    # per-cell segments joining crossing edges
    segments = []
    for i, j in zip(*(a.tolist() for a in np.nonzero(used))):
        edges = [edge for edge, crossed in (
            (("h", i, j), south[i, j]), (("v", i + 1, j), east[i, j]),
            (("h", i, j + 1), north[i, j]), (("v", i, j), west[i, j]))
            if crossed]
        if len(edges) == 2:
            segments.append((edges[0], edges[1]))
        else:
            # saddle cell: pair edges around the corner regions matching
            # the centre sign
            s_edge, e_edge, n_edge, w_edge = edges
            cx = 0.5 * (xs[i] + xs[i + 1])
            cy = 0.5 * (ys[j] + ys[j + 1])
            if (float(_delta_on(surface, cx, cy)) > 0.0) == bool(pos[i, j]):
                segments.append((s_edge, e_edge))
                segments.append((n_edge, w_edge))
            else:
                segments.append((s_edge, w_edge))
                segments.append((n_edge, e_edge))

    return PolylineSet(polylines=_link_segments(segments, crossings),
                       degenerate_cells=degenerate_cells)


def _link_segments(segments, crossings) -> list[Polyline]:
    adjacency = {}
    for a, b in segments:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)

    visited = set()
    polylines = []

    def _walk(start, first):
        chain = [start, first]
        visited.add((start, first))
        visited.add((first, start))
        while True:
            nxt = [k for k in adjacency[chain[-1]]
                   if (chain[-1], k) not in visited]
            if not nxt:
                return chain, False
            k = nxt[0]
            visited.add((chain[-1], k))
            visited.add((k, chain[-1]))
            if k == chain[0]:
                return chain, True
            chain.append(k)

    # open chains first (endpoints have a single neighbour)
    keys = sorted(adjacency.keys())
    for key in keys:
        if len(adjacency[key]) == 1:
            nb = adjacency[key][0]
            if (key, nb) in visited:
                continue
            chain, closed = _walk(key, nb)
            polylines.append((chain, closed))
    for key in keys:
        for nb in adjacency[key]:
            if (key, nb) in visited:
                continue
            chain, closed = _walk(key, nb)
            polylines.append((chain, closed))

    out = []
    for chain, closed in polylines:
        pts = np.array([[crossings[k][0], crossings[k][1]] for k in chain])
        res = np.array([crossings[k][2] for k in chain])
        out.append(Polyline(points=pts, residuals=res, closed=closed))
    return out


def find_inflections(surface: SurfaceSpec, resolution: int = 256,
                     rel: float = REL) -> list[InflectionReport]:
    """Locate and type the inflection points inside the domain.

    Grid nodes where both |Delta| and |kappa| fall under a coarse band seed a
    2-D Newton iteration on (Delta, kappa) with the exact Jacobian; accepted
    roots are deduplicated, re-verified (rank of the coefficient matrix must
    drop) and typed by the sign of K.
    """
    # order 3: the seed test below takes gradients from these jets
    xs, ys, fields = _grid_fields(surface, resolution, 3)
    delta = np.asarray(fields.Delta)
    kappa = np.asarray(fields.kappa)
    cn = np.asarray(coeff_norm(fields))
    msq = cn ** 2
    # only local minima of the scaled residual field can seed: one walker per
    # candidate basin instead of one per in-band node
    floor4 = np.maximum(msq ** 2, 1e-300)
    floor2 = np.maximum(msq, 1e-300)
    resid_field = np.abs(delta) / floor4 + np.abs(kappa) / floor2
    padded = np.full((resid_field.shape[0] + 2, resid_field.shape[1] + 2), np.inf)
    padded[1:-1, 1:-1] = resid_field
    is_min = np.ones_like(resid_field, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            neighbor = padded[1 + di:padded.shape[0] - 1 + di,
                              1 + dj:padded.shape[1] - 1 + dj]
            is_min &= resid_field <= neighbor
    # a minimum seeds when Delta and kappa are inside the coarse band, or when
    # the exact gradients say the fields can vanish within ~1.5 cells of it
    # (a fixed band alone can fall between grid nodes); the gradients are
    # taken at the minima only
    at_min = np.nonzero(is_min)
    gfl = gradient_fields(*(Jet(tuple(c[at_min] for c in jet.coeffs))
                            for jet in (fields.jet_phi, fields.jet_psi)))
    xmin, xmax, ymin, ymax = surface.domain
    cellx = (xmax - xmin) / (len(xs) - 1)
    celly = (ymax - ymin) / (len(ys) - 1)
    cell = float(np.hypot(cellx, celly))
    rho = 1.5 * cell
    gd = np.hypot(np.asarray(gfl.Delta.fx), np.asarray(gfl.Delta.fy))
    gk = np.hypot(np.asarray(gfl.kappa.fx), np.asarray(gfl.kappa.fy))
    msq_min = msq[at_min]
    seed_mask = np.zeros_like(is_min)
    seed_mask[at_min] = \
        (np.abs(delta[at_min]) <= np.maximum(SEED_BAND * msq_min ** 2, gd * rho)) \
        & (np.abs(kappa[at_min]) <= np.maximum(SEED_BAND * msq_min, gk * rho))
    seeds = np.argwhere(seed_mask)
    if len(seeds) > MAX_SEEDS:
        order = np.argsort(resid_field[seed_mask], kind="stable")
        seeds = seeds[order[:MAX_SEEDS]]

    accepted = []
    for si, sj in seeds:
        px, py = float(xs[si]), float(ys[sj])
        root = None
        # inflections are singular points of Delta = 0, so the Jacobian of
        # (Delta, kappa) degenerates at the root and the iteration converges
        # only linearly along the curve; run the full budget and keep the
        # best iterate rather than stopping at first acceptance
        for _ in range(NEWTON_ITERATIONS):
            g = invariant_gradients(surface, px, py)
            s = g.coeff_scale
            if s ** 4 == 0.0:  # the scaled residual cannot be formed
                break
            resid = max(abs(g.delta) / s ** 4, abs(g.kappa) / s ** 2)
            if resid <= NEWTON_ACCEPT and (root is None or resid < root[2]):
                root = (px, py, resid)
            # singular Jacobian: decided on its rows scaled to unit length,
            # since the raw determinant (degree 6 in the coefficients)
            # underflows on tiny surfaces whose gradients are not parallel
            (d0, d1), (k0, k1) = g.grad_delta, g.grad_kappa
            nd, nk = math.hypot(d0, d1), math.hypot(k0, k1)
            if not (0.0 < nd < math.inf and 0.0 < nk < math.inf):
                break
            if abs((d0 / nd) * (k1 / nk) - (d1 / nd) * (k0 / nk)) <= 1e-300:
                break
            # rows parallel to rounding pass the test above, and LAPACK can
            # still find an exactly zero pivot
            try:
                step = np.linalg.solve(np.array([g.grad_delta, g.grad_kappa]),
                                       np.array([g.delta, g.kappa]))
            except np.linalg.LinAlgError:
                break
            px -= float(step[0])
            py -= float(step[1])
            if not (xmin - cellx <= px <= xmax + cellx
                    and ymin - celly <= py <= ymax + celly):
                break
        if root is not None and xmin <= root[0] <= xmax and ymin <= root[1] <= ymax:
            accepted.append(root)

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
