"""Global searches over the parameter domain: the parabolic locus Delta = 0
and the inflection points (Delta = 0 and kappa = 0).

The tracer is plain marching squares on the sampled Delta field with
bisection refinement of every edge crossing; saddle cells are disambiguated
by the sign of Delta at the cell centre.  Isolated zeros of Delta (imaginary
inflections) produce no sign change, hence no polylines: they are reported
only by the Newton-based inflection finder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import (DEFAULT_TOL, ToleranceSet, classify_point,
                       hessian_of_delta)
from .jets import Jet3
from .localgeom import (SurfaceSpec, coeff_norm, gradient_fields,
                        invariant_grid, invariant_gradients, local_invariants)

__all__ = ["Polyline", "PolylineSet", "InflectionReport",
           "trace_parabolic", "find_inflections"]

MIN_RESOLUTION = 16
BISECT_ITERATIONS = 40
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


def _grid_fields(surface: SurfaceSpec, resolution: int):
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"grid resolution must be >= {MIN_RESOLUTION}")
    xmin, xmax, ymin, ymax = surface.domain
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    fields = invariant_grid(surface, xs[:, None], ys[None, :],
                            cross_check=False)
    return xs, ys, fields


def _delta_on(surface: SurfaceSpec, x, y):
    fl = invariant_grid(surface, x, y, cross_check=False)
    return fl.Delta


def trace_parabolic(surface: SurfaceSpec, resolution: int = 256,
                    tol: ToleranceSet = DEFAULT_TOL) -> PolylineSet:
    """Marching-squares extraction of the parabolic locus Delta = 0.

    Edge crossings (strict sign changes between grid nodes) are refined by
    bisection on the exact Delta along the edge and linked into polylines.
    Cells whose entire sampled field is flat-zero are flagged degenerate and
    excluded.
    """
    xs, ys, fields = _grid_fields(surface, resolution)
    delta = np.asarray(fields.Delta)
    tau_flat = tol.rel * coeff_norm(fields) ** 4
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

    # refine every crossing edge, h and v together, by one batch of bisection
    # on the exact field; edge k runs from (ax, ay) at 0 to (bx, by) at 1
    hi_idx = np.nonzero(h_cross)
    vi_idx = np.nonzero(v_cross)
    crossings = {}
    if h_cross.any() or v_cross.any():
        ax = np.concatenate([xs[hi_idx[0]], xs[vi_idx[0]]])
        bx = np.concatenate([xs[hi_idx[0] + 1], xs[vi_idx[0]]])
        ay = np.concatenate([ys[hi_idx[1]], ys[vi_idx[1]]])
        by = np.concatenate([ys[hi_idx[1]], ys[vi_idx[1] + 1]])
        sa = np.sign(np.concatenate([delta[hi_idx], delta[vi_idx]]))
        lo = np.zeros(len(ax))
        hi = np.ones(len(ax))
        for _ in range(BISECT_ITERATIONS):
            mid = 0.5 * (lo + hi)
            mx = ax + (bx - ax) * mid
            my = ay + (by - ay) * mid
            dm = np.asarray(_delta_on(surface, mx, my))
            same = np.sign(dm) == sa
            lo = np.where(same, mid, lo)
            hi = np.where(same, hi, mid)
        mid = 0.5 * (lo + hi)
        mx = ax + (bx - ax) * mid
        my = ay + (by - ay) * mid
        res = np.abs(np.asarray(_delta_on(surface, mx, my)))
        keys = [("h", i, j) for i, j in zip(*(a.tolist() for a in hi_idx))] \
            + [("v", i, j) for i, j in zip(*(a.tolist() for a in vi_idx))]
        crossings = dict(zip(keys, zip(mx.tolist(), my.tolist(), res.tolist())))

    # per-cell segments joining crossing edges; a cell's edges in the order
    # south, east, north, west
    south = h_cross[:, :-1]
    east = v_cross[1:, :]
    north = h_cross[:, 1:]
    west = v_cross[:-1, :]
    count = south.astype(np.int8) + east + north + west
    segments = []
    cells = np.nonzero(live & ((count == 2) | (count == 4)))
    for i, j in zip(*(a.tolist() for a in cells)):
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
                     tol: ToleranceSet = DEFAULT_TOL) -> list[InflectionReport]:
    """Locate and type the inflection points inside the domain.

    Grid nodes where both |Delta| and |kappa| fall under a coarse band seed a
    2-D Newton iteration on (Delta, kappa) with the exact Jacobian; accepted
    roots are deduplicated, re-verified (rank of the coefficient matrix must
    drop) and typed by the sign of K.
    """
    xs, ys, fields = _grid_fields(surface, resolution)
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
    gfl = gradient_fields(*(Jet3(*(c[at_min] for c in jet.coeffs()))
                            for jet in (fields.jet_phi, fields.jet_psi)))
    cellx = (xs[-1] - xs[0]) / (len(xs) - 1)
    celly = (ys[-1] - ys[0]) / (len(ys) - 1)
    rho = 1.5 * float(np.hypot(cellx, celly))
    gd = np.hypot(np.asarray(gfl.Delta.dx), np.asarray(gfl.Delta.dy))
    gk = np.hypot(np.asarray(gfl.kappa.dx), np.asarray(gfl.kappa.dy))
    msq_min = msq[at_min]
    seed_mask = np.zeros_like(is_min)
    seed_mask[at_min] = \
        (np.abs(delta[at_min]) <= np.maximum(SEED_BAND * msq_min ** 2, gd * rho)) \
        & (np.abs(kappa[at_min]) <= np.maximum(SEED_BAND * msq_min, gk * rho))
    seeds = np.argwhere(seed_mask)
    if len(seeds) > MAX_SEEDS:
        order = np.argsort(resid_field[seed_mask], kind="stable")
        seeds = seeds[order[:MAX_SEEDS]]

    xmin, xmax, ymin, ymax = surface.domain
    pad_x = (xmax - xmin) / (len(xs) - 1)
    pad_y = (ymax - ymin) / (len(ys) - 1)
    cell = float(np.hypot(pad_x, pad_y))

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
            step = np.linalg.solve(np.array([g.grad_delta, g.grad_kappa]),
                                   np.array([g.delta, g.kappa]))
            px -= float(step[0])
            py -= float(step[1])
            if not (xmin - pad_x <= px <= xmax + pad_x
                    and ymin - pad_y <= py <= ymax + pad_y):
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
        cls = classify_point(inv, tol)
        if cls.rank_m > 1:
            continue
        hd = hessian_of_delta(surface, px, py)
        with np.errstate(invalid="ignore"):  # a non-finite Hessian gives nan
            det_hd = float(np.linalg.det(hd))
        tau_k = tol.rel * inv.coeff_norm ** 2
        if inv.K < -tau_k:
            kind = "real"
        elif inv.K > tau_k:
            kind = "imaginary"
        else:
            kind = "flat"
        reports.append(InflectionReport(
            x=px, y=py, kind=kind, K=inv.K,
            det_hessian_delta=det_hd,
            residual=resid))
    reports.sort(key=lambda r: (r.x, r.y))
    return reports
