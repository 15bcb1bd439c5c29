"""Parabolic-locus tracing and inflection finding."""

import numpy as np
import pytest

from monge4 import classify, locus
from monge4.localgeom import (coeff_norm, invariant_grid, local_invariants,
                              surface_from_strings)
from monge4.locus import find_inflections, trace_parabolic

from conftest import gallery_surfaces, make_surface, random_surfaces
from oracles import bisect_edges_reference

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
    assert ps.degenerate_cells == []


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


@pytest.mark.parametrize("scale", ["1", "1e-20", "1e-40", "1e-60"])
def test_find_inflections_scale_free(scale):
    """The real inflection of s * H is found however small s is, as long as
    s^4 is a normal float."""
    surface = surface_from_strings(f"{scale}*(x^2 - y^2)",
                                   f"{scale}*(x^3/3 + x*y^2)", HALF_BOX)
    reports = find_inflections(surface, 64)
    assert [r.kind for r in reports] == ["real"]
    assert (reports[0].x, reports[0].y) == pytest.approx((0.0, 0.0), abs=1e-6)


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
    assert find_inflections(make_surface("B", HALF_BOX), 64) == []
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
    assert new.degenerate_cells == ref.degenerate_cells
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


# invariant_grid calls of one trace at res 256: the grid, the refinement
# passes and one per saddle cell, measured (the bisection took 41 passes)
TRACE_CALLS = {"segment": 1, "umbilic": 1, "inflection_imaginary": 1,
               "hyperbolic": 1, "fold": 4, "inflection_real": 3,
               "parabolic_loop": 9, "saddle": 10,
               # Delta vanishes identically: its rounding noise crosses
               # edges, but every cell is degenerate, so none is refined
               "parabolic": 1}


def _count_trace_calls(surface, res, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return invariant_grid(*args, **kwargs)

    monkeypatch.setattr(locus, "invariant_grid", counting)
    ps = trace_parabolic(surface, res)
    monkeypatch.undo()
    return ps, calls


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
    assert len(calls) == 3  # the grid and two passes; no saddle cell
    xs, ys, fields = locus._grid_fields(surface, res, 2)
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
