"""Parabolic-locus tracing and inflection finding."""

import numpy as np
import pytest

from monge4 import classify, localgeom, locus
from monge4.errors import EvaluationError, SeedCapWarning
from monge4.jets import Jet, eval_jet
from monge4.localgeom import (coeff_norm, grid_axes, invariant_grid,
                              local_invariants, scaled_jets,
                              surface_from_strings)
from monge4.locus import find_inflections, trace_parabolic

from conftest import (benchmark_surfaces, gallery_surfaces, make_surface,
                      make_trig_surface, random_surfaces)
from oracles import (bisect_edges_reference, link_segments_reference,
                     newton_walkers_reference)

HALF_BOX = (-0.5, 0.5, -0.5, 0.5)
GALLERY = gallery_surfaces()


def test_resolution_validation(surfaces):
    with pytest.raises(ValueError):
        trace_parabolic(surfaces["B"], 8)
    with pytest.raises(ValueError):
        find_inflections(surfaces["B"], 8)


def test_trace_elliptic_neighborhood_empty():
    ps = trace_parabolic(make_surface("B", HALF_BOX), 64)
    assert ps.polylines == []
    assert ps.degenerate_cells.tolist() == []


def test_trace_isolated_zero_produces_no_curve():
    # Delta <= 0 only at the single inflection point: no sign change
    ps = trace_parabolic(make_surface("C", HALF_BOX), 64)
    assert ps.polylines == []


def test_trace_flat_plane_flagged_degenerate():
    ps = trace_parabolic(make_surface("flat", HALF_BOX), 32)
    assert ps.polylines == []
    assert len(ps.degenerate_cells) == 31 * 31


def test_trace_fold_fixture_line():
    """The parabolic set of the fold fixture is the line y = 0."""
    surface = make_surface("E", HALF_BOX)
    ps = trace_parabolic(surface, 64)
    assert len(ps.polylines) == 1
    pl = ps.polylines[0]
    assert not pl.closed
    assert np.max(np.abs(pl.points[:, 1])) < 1e-10
    assert pl.points[:, 0].min() < -0.45 and pl.points[:, 0].max() > 0.45


def test_trace_two_open_curves():
    # Delta = 16 - 36 x^2 + higher order: two curves near x = +-2/3
    surface = surface_from_strings("x^2 - y^2", "2*x*y - x^3")
    ps = trace_parabolic(surface, 64)
    assert len(ps.polylines) == 2
    means = sorted(float(pl.points[:, 0].mean()) for pl in ps.polylines)
    assert means[0] == pytest.approx(-2.0 / 3.0, abs=1e-6)
    assert means[1] == pytest.approx(2.0 / 3.0, abs=1e-6)
    for pl in ps.polylines:
        assert pl.points[:, 1].min() < -0.95 and pl.points[:, 1].max() > 0.95


def test_trace_closed_loop():
    surface = surface_from_strings("x^2 - y^2 - x^4 - 2*x^2*y^2 - y^4",
                                   "2*x*y")
    ps = trace_parabolic(surface, 96)
    closed = [pl for pl in ps.polylines if pl.closed]
    assert len(closed) == 1
    pts = closed[0].points
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert radii.min() > 0.3 and radii.max() < 1.0


def test_trace_vertices_are_parabolic():
    """Every refined vertex satisfies the residual bound and classifies as
    parabolic under the trace tolerances."""
    for surface, res in ((make_surface("E", HALF_BOX), 48),
                         (surface_from_strings("x^2 - y^2", "2*x*y - x^3"), 48)):
        ps = trace_parabolic(surface, res)
        assert ps.polylines
        for pl in ps.polylines:
            for (x, y), resid in zip(pl.points, pl.residuals):
                inv = local_invariants(surface, float(x), float(y))
                msq = inv.coeff_norm ** 2
                assert resid <= 1e-9 * msq * msq
                cls = classify.classify_point(inv, classify.REL)
                assert cls.label.kind in ("parabolic", "inflection")


def test_trace_vertex_residual_invariant():
    surface = surface_from_strings("x^2 - y^2", "2*x*y - x^3")
    ps = trace_parabolic(surface, 48)
    xs = np.concatenate([pl.points[:, 0] for pl in ps.polylines])
    ys = np.concatenate([pl.points[:, 1] for pl in ps.polylines])
    fl = invariant_grid(surface, xs, ys)
    msq = np.asarray(coeff_norm(fl)) ** 2
    assert np.all(np.abs(fl.Delta) <= 1e-9 * msq * msq)


def test_find_inflections_imaginary():
    reports = find_inflections(make_surface("C", HALF_BOX), 256)
    assert len(reports) == 1
    rep = reports[0]
    assert (rep.x, rep.y) == pytest.approx((0.0, 0.0), abs=1e-6)
    assert rep.kind == "imaginary"
    assert rep.K == pytest.approx(12.0, rel=1e-6)
    assert rep.det_hessian_delta == pytest.approx(3072.0, rel=1e-12)
    assert rep.residual <= 1e-12


def test_find_inflections_real():
    reports = find_inflections(make_surface("H", HALF_BOX), 256)
    assert len(reports) == 1
    rep = reports[0]
    assert (rep.x, rep.y) == pytest.approx((0.0, 0.0), abs=1e-6)
    assert rep.kind == "real"
    assert rep.K == pytest.approx(-4.0, rel=1e-6)
    assert rep.det_hessian_delta == pytest.approx(-1024.0, rel=1e-12)


@pytest.mark.parametrize("scale", ["1", "1e-20", "1e-40", "1e-60", "1e-80"])
def test_find_inflections_scale_free(scale):
    """The real inflection of s * H is found however small s is, also where
    Delta (degree 4 in s) is subnormal: the residuals are taken on M scaled
    by a power of two."""
    surface = surface_from_strings(f"{scale}*(x^2 - y^2)",
                                   f"{scale}*(x^3/3 + x*y^2)", HALF_BOX)
    reports = find_inflections(surface, 64)
    assert [r.kind for r in reports] == ["real"]
    assert (reports[0].x, reports[0].y) == pytest.approx((0.0, 0.0), abs=1e-6)


def test_scaled_hessian_of_delta_keeps_its_sign():
    """At the real inflection of s * H the Hessian of Delta from scaled_jets
    is the same bits, diag(-0.125, 0.125), for every s = 2^j with j = 0 ...
    -266, so its determinant stays negative far below the 1e-80 of
    test_find_inflections_scale_free.  There the report's
    det_hessian_delta, scaled back to the unscaled Delta, reads -0.0."""
    for j in range(0, -267, -1):
        s = repr(2.0 ** j)
        surface = surface_from_strings(f"{s}*(x^2 - y^2)",
                                       f"{s}*(x^3/3 + x*y^2)", HALF_BOX)
        fl, _ = scaled_jets(eval_jet(surface.phi, 0.0, 0.0, 4),
                            eval_jet(surface.psi, 0.0, 0.0, 4), 2)
        hd = np.array([[fl.Delta.fxx, fl.Delta.fxy],
                       [fl.Delta.fxy, fl.Delta.fyy]])
        assert hd.tobytes() == np.diag([-0.125, 0.125]).tobytes()
        assert np.linalg.det(hd) < 0.0
    surface = surface_from_strings("1e-80*(x^2 - y^2)",
                                   "1e-80*(x^3/3 + x*y^2)", HALF_BOX)
    det_hd = find_inflections(surface, 64)[0].det_hessian_delta
    assert np.signbit(det_hd) and det_hd == 0.0


@pytest.mark.parametrize("scale", ["1", "1e-60"])
def test_find_inflections_flat(scale):
    """At the origin of phi = x^2, psi = x*y^2, M = [[2, 0, 0], [0, 0, 0]]
    has rank 1 and K = 0: a flat inflection, inside the classifier's K
    band at any scale."""
    surface = surface_from_strings(f"{scale}*x^2", f"{scale}*x*y^2", HALF_BOX)
    reports = find_inflections(surface, 64)
    assert [r.kind for r in reports] == ["flat"]
    assert (reports[0].x, reports[0].y) == pytest.approx((0.0, 0.0), abs=1e-6)
    cls = classify.classify_point(
        local_invariants(surface, reports[0].x, reports[0].y))
    assert cls.label.k_type == "flat"


def test_find_inflections_empty_cases():
    """No inflection on either; on the plane, where M = 0 and every node
    seeds, the search warns that it ran only MAX_SEEDS of them."""
    assert find_inflections(make_surface("B", HALF_BOX), 64) == []
    with pytest.warns(SeedCapWarning, match="kept 512 of 1024 found"):
        assert find_inflections(make_surface("flat", HALF_BOX), 32) == []


def test_inflection_rank_condition_verified_independently():
    for name in ("C", "H"):
        reports = find_inflections(make_surface(name, HALF_BOX), 256)
        assert len(reports) == 1
        inv = local_invariants(make_surface(name, HALF_BOX),
                               reports[0].x, reports[0].y)
        sv = np.linalg.svd(inv.coeff_matrix, compute_uv=False)
        assert sv[1] <= 1e-8 * sv[0]


def test_find_inflections_multiple_points():
    """Both graph components have vanishing 2-jets at (+-1/2, 0), giving two
    constructed imaginary inflections; the surface happens to carry a
    symmetric pair of real ones as well.  At (+-1/2, 0) the 3-jet of the
    second component is 3(u^3/3 + (1/6) u y^2) in centred coordinates, so the
    Hessian-determinant closed form for the cubic normal form, scaled by
    3^4 for the cubic's prefactor, gives
    16 (1/6)^2 (6 - 2/6)^2 * 12 * 81 = 13872."""
    surface = surface_from_strings(
        "(x^2 - 0.25)^2 + 3*y^2",
        "(x^2 - 0.25)^3 + 0.5*(x^2 - 0.25)*y^2")
    reports = locus_reports = find_inflections(surface, 256)
    assert len(reports) == 4
    xs = [r.x for r in reports]
    assert xs == sorted(xs)
    # constructed imaginary pair at +-1/2
    outer = [reports[0], reports[3]]
    for rep, want_x in zip(outer, (-0.5, 0.5)):
        assert rep.x == pytest.approx(want_x, abs=1e-6)
        assert rep.y == pytest.approx(0.0, abs=1e-9)
        assert rep.kind == "imaginary"
        assert rep.K == pytest.approx(12.0, rel=1e-6)
        # exact at +-1/2; the report sits ~4e-10 off, which moves it ~2e-8
        assert rep.det_hessian_delta == pytest.approx(13872.0, rel=1e-6)
        assert np.linalg.det(classify.hessian_of_delta(surface, want_x, 0.0)) \
            == pytest.approx(13872.0, rel=1e-12)
    # symmetric real pair in between
    inner = [reports[1], reports[2]]
    assert inner[0].x == pytest.approx(-inner[1].x, rel=1e-9)
    for rep in inner:
        assert rep.kind == "real"
        assert rep.K < 0
        assert rep.det_hessian_delta < 0
    # every report satisfies the rank-drop condition independently
    for rep in locus_reports:
        inv = local_invariants(surface, rep.x, rep.y)
        sv = np.linalg.svd(inv.coeff_matrix, compute_uv=False)
        assert sv[1] <= 1e-8 * sv[0]


def test_locus_machinery_on_random_corpus():
    """No crashes, and the basic contracts hold, across a seeded corpus."""
    from conftest import random_surfaces
    for surface in random_surfaces(seed=2718, count=6):
        ps = trace_parabolic(surface, 48)
        for pl in ps.polylines:
            assert len(pl.points) >= 2
            assert pl.points.shape[1] == 2
            assert np.all(np.isfinite(pl.points))
            assert np.all(pl.residuals >= 0.0)
        reports = find_inflections(surface, 64)
        for rep in reports:
            inv = local_invariants(surface, rep.x, rep.y)
            sv = np.linalg.svd(inv.coeff_matrix, compute_uv=False)
            assert sv[1] <= 1e-8 * sv[0]
            assert rep.residual <= 1e-12


def test_real_inflection_sits_on_branch_crossing():
    """A real-type inflection is a self-intersection of the parabolic set:
    several branches pass within two grid cells.  An imaginary one is an
    isolated point: no polyline comes near."""
    surface = make_surface("H", HALF_BOX)
    res = 64
    cell = 2.0 * 1.0 / (res - 1)
    reports = find_inflections(surface, 256)
    ps = trace_parabolic(surface, res)
    near = 0
    for pl in ps.polylines:
        d = np.hypot(pl.points[:, 0] - reports[0].x,
                     pl.points[:, 1] - reports[0].y)
        if float(d.min()) <= 2.0 * cell:
            near += 1
    assert near >= 2

    surface_c = make_surface("C", HALF_BOX)
    reports_c = find_inflections(surface_c, 256)
    ps_c = trace_parabolic(surface_c, res)
    for pl in ps_c.polylines:
        d = np.hypot(pl.points[:, 0] - reports_c[0].x,
                     pl.points[:, 1] - reports_c[0].y)
        assert float(d.min()) > 2.0 * cell


# -- edge refinement ----------------------------------------------------------

def _assert_matches_bisection(surface, res, monkeypatch):
    """Same polylines and vertex ids as the 40-round bisection, each vertex
    at the same root, its residual |Delta| at the vertex itself, and the
    largest residual no worse.

    Where a root is ill-conditioned the two may stop more than 1e-12 apart,
    but then Delta at their midpoint is still within 1e-12 ||M||^4 of zero.
    Otherwise they found different roots of one edge (Delta changes sign
    three times along it), which happens on at most one edge of a surface."""
    new = trace_parabolic(surface, res)
    with monkeypatch.context() as m:
        m.setattr(locus, "_refine_edges", bisect_edges_reference)
        ref = trace_parabolic(surface, res)
    assert len(new.polylines) == len(ref.polylines)
    assert new.degenerate_cells.tolist() == ref.degenerate_cells.tolist()
    if not new.polylines:
        return
    for pn, pr in zip(new.polylines, ref.polylines):
        assert pn.closed == pr.closed
        assert pn.points.shape == pr.points.shape
    pts = np.concatenate([pl.points for pl in new.polylines])
    ref_pts = np.concatenate([pl.points for pl in ref.polylines])
    moved = np.hypot(*(pts - ref_pts).T) > 1e-12
    mid = invariant_grid(surface, *(0.5 * (pts[moved] + ref_pts[moved])).T)
    other_root = np.abs(mid.Delta) > 1e-12 * coeff_norm(mid) ** 4
    assert other_root.sum() <= 1
    xmin, xmax, ymin, ymax = surface.domain
    cell = max(xmax - xmin, ymax - ymin) / (res - 1)
    for p, q in zip(pts[moved][other_root], ref_pts[moved][other_root]):
        assert (p[0] == q[0] or p[1] == q[1]) and np.hypot(*(p - q)) < cell
    residuals = np.concatenate([pl.residuals for pl in new.polylines])
    fl = invariant_grid(surface, pts[:, 0], pts[:, 1])
    assert np.array_equal(residuals, np.abs(fl.Delta))
    assert residuals.max() <= max(pl.residuals.max() for pl in ref.polylines)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_refinement_matches_bisection_on_gallery(name, monkeypatch):
    _assert_matches_bisection(GALLERY[name], 256, monkeypatch)


def test_refinement_matches_bisection_on_random_corpus(monkeypatch):
    for surface in random_surfaces():
        _assert_matches_bisection(surface, 64, monkeypatch)


# second_order_grid calls of one trace at res 256 after the grid's tiles:
# the refinement passes and one for the centres of all saddle cells,
# measured (the bisection took 41 passes)
TRACE_CALLS = {"segment": 0, "umbilic": 0, "inflection_imaginary": 0,
               "hyperbolic": 0, "fold": 3, "inflection_real": 2,
               "parabolic_loop": 8, "saddle": 9,
               # Delta vanishes identically: its rounding noise crosses
               # edges, but every cell is degenerate, so none is refined
               "parabolic": 0}


def _count_trace_calls(surface, res, monkeypatch):
    """The trace, and its evaluations after the grid's tiles."""
    calls = []
    evaluate = locus.second_order_grid

    def counting(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(locus, "second_order_grid", counting)
    ps = trace_parabolic(surface, res)
    monkeypatch.undo()
    tiles = len(range(0, res, max(1, localgeom.TILE_POINTS // res)))
    return ps, calls[tiles:]


@pytest.mark.parametrize("name", sorted(TRACE_CALLS))
def test_refinement_pass_count(name, monkeypatch):
    _, calls = _count_trace_calls(GALLERY[name], 256, monkeypatch)
    assert len(calls) <= TRACE_CALLS[name]


def test_inflection_real_vertices_on_grid_nodes(monkeypatch):
    """Delta vanishes on the diagonals x = +-y, which pass through grid
    nodes, so a node at one end of each crossing edge holds only rounding
    noise, where plain Illinois would creep for dozens of passes.  Either
    the regula-falsi point rounds onto the node, and the vertex is the node
    itself with its grid Delta, or it lies a few rounding units off it; the
    trace takes two passes."""
    res = 256
    surface = GALLERY["inflection_real"]
    ps, calls = _count_trace_calls(surface, res, monkeypatch)
    assert len(calls) == 2  # two passes; no saddle cell
    xs, ys = grid_axes(surface, res)
    fields = invariant_grid(surface, xs[:, None], ys[None, :])
    pts = np.concatenate([pl.points for pl in ps.polylines])
    residuals = np.concatenate([pl.residuals for pl in ps.polylines])
    i = np.searchsorted(xs, pts[:, 0])
    j = np.searchsorted(ys, pts[:, 1])
    on_node = (i < res) & (j < res)
    on_node[on_node] = (xs[i[on_node]] == pts[on_node, 0]) \
        & (ys[j[on_node]] == pts[on_node, 1])
    assert on_node.sum() >= len(pts) // 2
    assert np.array_equal(residuals[on_node],
                          np.abs(fields.Delta[i[on_node], j[on_node]]))
    # the others sit a few rounding units off a node
    ni = np.abs(pts[:, 0, None] - xs[None, :]).min(axis=1)
    nj = np.abs(pts[:, 1, None] - ys[None, :]).min(axis=1)
    assert np.all(np.hypot(ni, nj) <= 4 * np.spacing(0.5))


def _vertices(keys):
    """crossings for integer keys: vertex k at (k, -k), residual k / 8."""
    return {k: (float(k), -float(k), k / 8.0) for k in keys}


# hand-built segments with integer keys, and the expected polylines as
# (closed, vertex keys): open chains first, each from its least end, then
# closed ones, each from its least key toward its partner in the earlier
# segment
LINKS = {
    "open chain out of order": ([(5, 9), (1, 3), (3, 5)],
                                [(False, [1, 3, 5, 9])]),
    "closed loop": ([(7, 4), (2, 7), (4, 9), (9, 2)],
                    [(True, [2, 7, 4, 9])]),
    # the south-east and north-west segments of the saddle cell (0, 0) of
    # a 3 x 3 grid: south 0, east 8, north 1, west 6
    "saddle cell": ([(0, 8), (1, 6)], [(False, [0, 8]), (False, [1, 6])]),
    "two components": ([(0, 1), (1, 2), (2, 3), (3, 0), (12, 11), (10, 11)],
                       [(False, [10, 11, 12]), (True, [0, 1, 2, 3])]),
}


@pytest.mark.parametrize("name", sorted(LINKS))
def test_link_segments(name):
    segments, expected = LINKS[name]
    crossings = _vertices({k for seg in segments for k in seg})
    new = locus._link_segments(segments, crossings)
    ref = link_segments_reference(segments, crossings)
    assert [(p.closed, p.points[:, 0].astype(int).tolist()) for p in new] \
        == expected
    assert len(new) == len(ref)
    for p, q in zip(new, ref):
        assert p.closed == q.closed
        assert np.array_equal(p.points, q.points)
        assert np.array_equal(p.residuals, q.residuals)


@pytest.mark.parametrize("surface", [GALLERY["inflection_real"],
                                     make_trig_surface()],
                         ids=["inflection_real", "trig"])
def test_refined_edges_are_the_segment_endpoints(surface, monkeypatch):
    """The trace refines, in one batch, exactly the edges that its segments
    join, each once, in id order: from node (i, j) to (i+1, j) for id
    i*ny + j < nh, from (i, j) to (i, j+1) for nh + i*(ny-1) + j."""
    res = 64
    batches, linked = [], []
    refine, link = locus._refine_edges, locus._link_segments

    def refining(surface, ax, ay, bx, by, da, db):
        batches.append((ax, ay, bx, by))
        return refine(surface, ax, ay, bx, by, da, db)

    def linking(segments, crossings):
        linked.append(segments)
        return link(segments, crossings)

    monkeypatch.setattr(locus, "_refine_edges", refining)
    monkeypatch.setattr(locus, "_link_segments", linking)
    trace_parabolic(surface, res)
    assert len(batches) == len(linked) == 1
    xs, ys = grid_axes(surface, res)
    if surface is GALLERY["inflection_real"]:  # Delta = 0 at some nodes
        assert np.any(invariant_grid(surface, xs[:, None], ys[None, :]).Delta
                      == 0.0)
    ids = sorted({k for seg in linked[0] for k in seg})
    assert ids
    nh = (res - 1) * res
    edges = [((xs[k // res], ys[k % res]), (xs[k // res + 1], ys[k % res]))
             if k < nh else
             ((xs[(k - nh) // (res - 1)], ys[(k - nh) % (res - 1)]),
              (xs[(k - nh) // (res - 1)], ys[(k - nh) % (res - 1) + 1]))
             for k in ids]
    ax, ay, bx, by = batches[0]
    assert list(zip(zip(ax.tolist(), ay.tolist()),
                    zip(bx.tolist(), by.tolist()))) == edges


# -- inflection walkers ------------------------------------------------------

def test_newton_steps_fall_back_where_the_system_is_singular():
    """Three walkers, by the coefficients (f, fx, fy, fxx, fxy, fyy) of
    Delta and kappa: a regular Hessian takes the consistent Gauss-Newton
    step (1, 0); a zero Hessian the (Delta, kappa) Newton step (0.5, 2);
    a zero Hessian with grad kappa parallel to grad Delta no step."""
    def jet(*columns):
        return Jet(tuple(np.array(c, dtype=float) for c in zip(*columns)))

    delta = jet((0.5, 1.0, 0.0, 1.0, 0.0, 1.0), (0.5, 1.0, 0.0, 0.0, 0.0, 0.0),
                (0.5, 1.0, 0.0, 0.0, 0.0, 0.0))
    kappa = jet((1.0, 1.0, 0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 1.0, 0.0, 0.0, 0.0),
                (1.0, 2.0, 0.0, 0.0, 0.0, 0.0))
    sx, sy, stepped = locus._newton_steps(delta, kappa)
    assert stepped.tolist() == [True, True, False]
    assert (sx[:2].tolist(), sy[:2].tolist()) == ([1.0, 0.5], [0.0, 2.0])


def _walker_reports(surface, res, monkeypatch):
    """The reports of find_inflections, and those of the same search with
    the per-seed walkers of the reference in place of the batch."""
    new = find_inflections(surface, res)
    with monkeypatch.context() as m:
        m.setattr(locus, "_newton_walkers", newton_walkers_reference)
        ref = find_inflections(surface, res)
    return new, ref


def _s2_over_s1(surface, rep):
    sv = np.linalg.svd(local_invariants(surface, rep.x, rep.y).coeff_matrix,
                       compute_uv=False)
    return sv[1] / sv[0]


def _unmatched(reports, others):
    """The reports with no report of the same kind within 1e-6 in others."""
    return [r for r in reports
            if not any(o.kind == r.kind and np.hypot(o.x - r.x, o.y - r.y) <= 1e-6
                       for o in others)]


def _assert_same_reports(surface, res, monkeypatch):
    """The same reports as the per-seed reference, each within 1e-6 of its
    counterpart and of the same type, with the acceptance bounds kept."""
    new, ref = _walker_reports(surface, res, monkeypatch)
    assert len(new) == len(ref)
    assert _unmatched(new, ref) == [] and _unmatched(ref, new) == []
    for rep in new:
        assert rep.residual <= locus.NEWTON_ACCEPT
        assert _s2_over_s1(surface, rep) <= 1e-8


WALKER_SURFACES = dict(
    {name: (surface, 256) for name, surface in GALLERY.items()},
    C=(make_surface("C", HALF_BOX), 256), H=(make_surface("H", HALF_BOX), 256),
    four_points=(surface_from_strings(
        "(x^2 - 0.25)^2 + 3*y^2", "(x^2 - 0.25)^3 + 0.5*(x^2 - 0.25)*y^2"), 256),
    **{f"locus{seed}": (benchmark_surfaces("locus-search", seed)["trig"], 256)
       for seed in range(12)},
    **{f"points{seed}_{name}_{res}": (surface, res)
       for seed in range(4)
       for name, surface in benchmark_surfaces("point-queries", seed).items()
       for res in (64, 128, 256)
       # below: the batch finds one inflection more there
       if (seed, name, res) != (1, "poly1", 256)})


@pytest.mark.parametrize("name", sorted(WALKER_SURFACES))
def test_walkers_match_reference(name, monkeypatch):
    _assert_same_reports(*WALKER_SURFACES[name], monkeypatch)


def _assert_differences(surface, res, monkeypatch, gained, lost):
    """The reports that only the batch finds are ``gained`` and those that
    only the reference finds are ``lost``, as (x, y, kind); each gained one
    is a rank drop of M to rounding."""
    new, ref = _walker_reports(surface, res, monkeypatch)
    for reports, want in ((_unmatched(new, ref), gained),
                          (_unmatched(ref, new), lost)):
        assert [(r.x, r.y, r.kind) for r in reports] \
            == [(pytest.approx(x, abs=1e-6), pytest.approx(y, abs=1e-6), kind)
                for x, y, kind in want]
    for rep in _unmatched(new, ref):
        assert _s2_over_s1(surface, rep) <= 1e-12


def test_walkers_find_an_inflection_the_reference_misses(monkeypatch):
    """On point-queries seed 1 poly1 at res 256 the per-seed walkers miss
    the imaginary inflection near (-0.0947, 0.4945) that both find at res
    64 and 128."""
    surface = benchmark_surfaces("point-queries", 1)["poly1"]
    _assert_differences(surface, 256, monkeypatch,
                        [(-0.09466539, 0.49445400, "imaginary")], [])


# the reports of the random corpus that only one of the two finds, as
# (gained, lost); the lost one sits at s2/s1 = 9.6e-9 of M, at the edge of
# the 1e-8 rank band, and the walkers that found it started 0.18 to 0.4 away
RANDOM_DIFFERENCES = {
    1: ([(-0.00048287, 0.13125816, "real"), (-0.00048287, -0.13125816, "real"),
         (0.0, 0.0, "flat")],
        [(0.08811446, 0.0, "imaginary")]),
    3: ([(0.0, 0.0, "flat")], []),
}


@pytest.mark.parametrize("index", range(6))
def test_walkers_on_random_corpus(index, monkeypatch):
    surface = random_surfaces(seed=2718, count=6)[index]
    gained, lost = RANDOM_DIFFERENCES.get(index, ([], []))
    _assert_differences(surface, 64, monkeypatch, gained, lost)


def test_flat_inflections_kept_on_random_corpus():
    """Surfaces 1 to 4 of the corpus have M of rank 1 and K = kappa = 0 at
    the origin: a flat inflection, reported on each."""
    corpus = random_surfaces(seed=2718, count=6)
    for index in (1, 2, 3, 4):
        flats = [r for r in find_inflections(corpus[index], 64)
                 if r.kind == "flat"]
        assert [(r.x, r.y) for r in flats] \
            == [pytest.approx((0.0, 0.0), abs=1e-12)]


@pytest.mark.parametrize("res", [64, 128, 256])
def test_poly0_inflection_off_the_rank_band_edge(res):
    """The real inflection of point-queries seed 2 poly0 near (0.85500,
    0.02699) was reported at s2/s1 = 9.3e-9 of M at res 64, against the
    1e-8 rank band; the quadratic iteration puts it at rounding."""
    surface = benchmark_surfaces("point-queries", 2)["poly0"]
    reports = [r for r in find_inflections(surface, res)
               if np.hypot(r.x - 0.85500, r.y - 0.02699) <= 1e-4]
    assert [r.kind for r in reports] == ["real"]
    assert _s2_over_s1(surface, reports[0]) <= 1e-12


# array passes of the walkers of one find_inflections at res 256, measured:
# 3 or 4 passes where the per-seed walkers spent their whole budget of 25
INFLECTION_PASSES = {"parabolic_loop": 0, "inflection_real": 3, "C": 4, "H": 3}


@pytest.mark.parametrize("name", sorted(INFLECTION_PASSES))
def test_walker_pass_count(name, monkeypatch):
    surface = GALLERY.get(name) or make_surface(name, HALF_BOX)
    calls = []

    def counting(jphi, jpsi, order):
        # a walker pass is the one call of order 2; the seed test's are of
        # order 1
        if order == 2:
            calls.append(1)
        return scaled_jets(jphi, jpsi, order)

    monkeypatch.setattr(locus, "scaled_jets", counting)
    reports = find_inflections(surface, 256)
    assert len(calls) <= INFLECTION_PASSES[name]
    assert len(reports) == (name != "parabolic_loop")


def test_walker_past_a_singularity_raises():
    """psi has a log singularity at x = -0.52, left of the domain, and the
    real inflection of the H-like part sits beyond it at x = -0.56.  A
    walker that steps past the singularity ends the whole batch in the
    EvaluationError of the per-seed walkers, naming a point beyond it; a
    second walker, which alone raises nothing, does not hide it."""
    surface = surface_from_strings(
        "(x + 0.56)^2 - y^2",
        "(x + 0.56)^3/3 + (x + 0.56)*y^2 + 1e-9*log(x + 0.52)", HALF_BOX)
    px, py = np.array([-0.5, 0.3]), np.array([0.0, 0.1])
    for walkers in (locus._newton_walkers, newton_walkers_reference):
        with pytest.raises(EvaluationError) as err:
            walkers(surface, px, py, 0.1, 0.1)
        assert err.value.point[0] < -0.52
    # the second seed alone walks to no root and raises nothing
    assert locus._newton_walkers(surface, px[1:], py[1:], 0.1, 0.1) == []
