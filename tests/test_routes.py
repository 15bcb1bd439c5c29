"""Where the cross-checks' second routes are formed: the closed forms of K
and kappa and the minors of M are computed by the passes that check or
print them, and never by the locus searches.  Nor do the locus searches
hold the metric or the jets of a tile, or evaluate third derivatives on
one.  A point query forms the scaled M of its point once."""

import sys
from collections import Counter

import numpy as np
import pytest

from monge4 import cli, jets, localgeom, locus
from monge4.classify import REL, degenerate_normals, hessian_of_delta
from monge4.cli import analyze_record, grid_rows, selfcheck_report
from monge4.heightfn import classify_height
from monge4.jets import Jet
from monge4.localgeom import (grid_axes, invariant_grid, local_invariants,
                              scaled_jets, second_order_grid)

from conftest import (TRIG_SURFACE, benchmark_surfaces, make_trig_surface,
                      random_surfaces)

ROUTE_HELPERS = ("K_closed", "kappa_closed", "minors")


def _counted(monkeypatch, names):
    """The number of calls of each localgeom function of ``names`` so far,
    counted in every monge4 module that holds it."""
    calls = dict.fromkeys(names, 0)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and n.startswith("monge4")]
    for name in names:
        orig = getattr(localgeom, name)

        def counting(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)

        for module in modules:
            if getattr(module, name, None) is orig:
                monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def route_calls(monkeypatch):
    """The number of calls of each helper of :data:`ROUTE_HELPERS` so far."""
    return _counted(monkeypatch, ROUTE_HELPERS)


LOCUS_SURFACES = benchmark_surfaces("locus-search", 0)


@pytest.mark.parametrize("name", sorted(LOCUS_SURFACES))
def test_trace_forms_no_second_route(route_calls, name):
    """The grid, the edge refinement and the saddle centres of trace."""
    polylines = locus.trace_parabolic(LOCUS_SURFACES[name], 64).polylines
    assert polylines
    assert route_calls == dict.fromkeys(ROUTE_HELPERS, 0)


@pytest.mark.parametrize("name", sorted(LOCUS_SURFACES))
def test_inflection_search_forms_no_second_route(route_calls, monkeypatch,
                                                 name):
    """The seed grid and every walker pass of find_inflections form none;
    only the check of each report, by local_invariants, does.  Nor does
    the Hessian of Delta of a report."""
    walkers = locus._newton_walkers
    at_walkers_end = []

    def recording(*args):
        roots = walkers(*args)
        at_walkers_end.append(dict(route_calls))
        return roots

    monkeypatch.setattr(locus, "_newton_walkers", recording)
    locus.find_inflections(LOCUS_SURFACES[name], 64)
    assert at_walkers_end == [dict.fromkeys(ROUTE_HELPERS, 0)]
    before = dict(route_calls)
    hessian_of_delta(LOCUS_SURFACES[name], 0.1, -0.2)
    assert route_calls == before


def test_grid_and_selfcheck_form_each_route_once_per_tile(route_calls,
                                                          monkeypatch):
    """In 4 tiles of 8 x-rows: grid forms each closed form once per tile and
    the minors twice, for the Delta check and for the classifier's rank;
    selfcheck forms each once per tile."""
    monkeypatch.setattr(localgeom, "TILE_POINTS", 32 * 8)
    surface = make_trig_surface()
    grid_rows(surface, 32, REL)
    assert route_calls == {"K_closed": 4, "kappa_closed": 4, "minors": 8}
    route_calls.update(dict.fromkeys(ROUTE_HELPERS, 0))
    ok, _ = selfcheck_report(surface, 32)
    assert ok
    assert route_calls == {"K_closed": 4, "kappa_closed": 4, "minors": 4}


def test_local_invariants_forms_each_route_once(route_calls):
    """Each closed form once for its check, and the minors once for the
    Delta check and once for the record's nq0..nq2."""
    inv = local_invariants(make_trig_surface(), 0.3, -0.2)
    assert route_calls == {"K_closed": 1, "kappa_closed": 1, "minors": 2}
    assert (inv.nq0, inv.nq1, inv.nq2) == localgeom.minors(
        inv.a, inv.b, inv.c, inv.e, inv.f, inv.g)


def test_frame_fields_hold_no_second_route():
    """The fields of a tile: the metric, a..g, K, kappa and Delta, and the
    jets they came from."""
    fl = localgeom.invariant_grid(make_trig_surface(), np.zeros(3), np.ones(3))
    assert sorted(vars(fl)) == sorted(
        ["E", "F", "G", "W", "Eh", "Fh", "Gh", "a", "b", "c", "e", "f", "g",
         "K", "kappa", "Delta", "jet_phi", "jet_psi"])


def test_second_order_grid_holds_only_second_order_fields():
    """The fields of a locus tile: a..g, K, kappa and Delta, the same bits
    as those of invariant_grid."""
    surface = make_trig_surface()
    fl = second_order_grid(surface, np.zeros(3), np.ones(3))
    assert sorted(vars(fl)) == sorted(
        ["a", "b", "c", "e", "f", "g", "K", "kappa", "Delta"])
    full = invariant_grid(surface, np.zeros(3), np.ones(3))
    for name, value in vars(fl).items():
        assert np.array_equal(value, getattr(full, name)), name


# an elliptic point of the trig surface, and a hyperbolic one, where
# binormals pairs two degenerate normals with two asymptotic directions
TRIG_POINTS = ((0.3, 0.2), (-0.3, 0.2))


@pytest.mark.parametrize("x, y", TRIG_POINTS)
def test_point_queries_form_one_scaled_m(monkeypatch, tmp_path, x, y):
    """One unit_scaled per analyze record, per plot and per height query,
    read by every consumer of the point through LocalInvariants.scaled."""
    calls = _counted(monkeypatch, ("unit_scaled",))
    surface = make_trig_surface()
    analyze_record(surface, x, y, REL)
    assert calls == {"unit_scaled": 1}

    path = tmp_path / "trig.surf"
    path.write_text("phi = {}\npsi = {}\ndomain = -1 1 -1 1\n".format(
        *TRIG_SURFACE), encoding="utf-8")
    calls["unit_scaled"] = 0
    assert cli.run(["plot", "--surface", str(path), f"--at={x!r},{y!r}",
                    "--out", str(tmp_path / "plot.svg")]) == 0
    assert calls == {"unit_scaled": 1}

    normals = degenerate_normals(local_invariants(surface, x, y)) \
        or [np.array([1.0, 0.0])]
    for n in normals:
        calls["unit_scaled"] = 0
        classify_height(surface, x, y, n)
        assert calls == {"unit_scaled": 1}


@pytest.fixture
def jet_calls(monkeypatch):
    """(order, points) of each eval_jet call so far, in order, counted in
    every monge4 module that holds it."""
    calls = []
    orig = jets.eval_jet

    def counting(expression, x0, y0, order):
        calls.append((order, int(np.broadcast(x0, y0).size)))
        return orig(expression, x0, y0, order)

    for module in [m for n, m in list(sys.modules.items())
                   if m is not None and n.startswith("monge4")]:
        if getattr(module, "eval_jet", None) is orig:
            monkeypatch.setattr(module, "eval_jet", counting)
    return calls


# res and x-rows per tile of the tests below: 8 tiles of 512 nodes
JET_RES, TILE_ROWS = 64, 8


@pytest.mark.parametrize("name", sorted(LOCUS_SURFACES))
def test_trace_evaluates_second_order_only(jet_calls, monkeypatch, name):
    """Every jet of trace is of order 2: the tiles, the edge refinement and
    the saddle centres."""
    monkeypatch.setattr(localgeom, "TILE_POINTS", JET_RES * TILE_ROWS)
    locus.trace_parabolic(LOCUS_SURFACES[name], JET_RES)
    assert {order for order, _ in jet_calls} == {2}
    tiles = JET_RES // TILE_ROWS
    assert jet_calls[:2 * tiles] == [(2, JET_RES * TILE_ROWS)] * (2 * tiles)


@pytest.mark.parametrize("name", sorted(LOCUS_SURFACES))
def test_seed_pass_evaluates_third_order_at_minima_only(jet_calls,
                                                        monkeypatch, name):
    """Before the walkers, each tile of the seed pass evaluates phi and psi
    at order 2 on its nodes, then at order 3 on the 3x3 minima alone of the
    rows whose next row is known: the previous tile's last row and its own
    rows but the last; the grid's last row follows the last tile.  The
    walkers evaluate at order 4, and each report at one point."""
    monkeypatch.setattr(localgeom, "TILE_POINTS", JET_RES * TILE_ROWS)
    surface = LOCUS_SURFACES[name]
    walkers = locus._newton_walkers
    before_walkers = []

    def recording(*args):
        before_walkers.extend(jet_calls)
        return walkers(*args)

    monkeypatch.setattr(locus, "_newton_walkers", recording)
    reports = locus.find_inflections(surface, JET_RES)
    calls = list(jet_calls)

    xs, ys = grid_axes(surface, JET_RES)
    fl = invariant_grid(surface, xs[:, None], ys[None, :])
    resid = locus._residual_field(fl)
    padded = np.full((JET_RES + 2, JET_RES + 2), np.inf)
    padded[1:-1, 1:-1] = resid
    is_min = np.ones(resid.shape, dtype=bool)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            is_min &= resid <= padded[di:di + JET_RES, dj:dj + JET_RES]
    # a tile's batch: the minima of the previous tile's last row and of
    # its own rows but the last
    per_row = is_min.sum(axis=1)
    expected = []
    for start in range(0, JET_RES, TILE_ROWS):
        minima = int(per_row[max(start - 1, 0):start + TILE_ROWS - 1].sum())
        assert minima < TILE_ROWS * JET_RES // 4
        expected += [(2, TILE_ROWS * JET_RES)] * 2 + [(3, minima)] * 2
    expected += [(3, int(per_row[-1]))] * 2
    assert before_walkers == expected
    after = Counter(calls[len(expected):])
    # walker passes at order 4; local_invariants (order 3) and
    # hessian_of_delta (order 4) at each report
    assert {order for order, points in after if points > 1} <= {4}
    assert after[3, 1] >= 2 * len(reports)


def _seed_gradients(jphi, jpsi):
    """What the seed test reads of the order-3 jets of phi and psi."""
    grads, m = scaled_jets(jphi, jpsi, 1)
    return [*grads.Delta.coeffs, *grads.kappa.coeffs, m.Delta, m.kappa,
            m.msq, m.k]


SEED_GRADIENT_SURFACES = {
    **{f"locus-search {seed} {name}": (surface, 256)
       for seed in range(4)
       for name, surface in benchmark_surfaces("locus-search", seed).items()},
    **{f"random {n}": (surface, 64)
       for n, surface in enumerate(random_surfaces())},
}


@pytest.mark.parametrize("key", sorted(SEED_GRADIENT_SURFACES))
def test_point_jets_give_the_tile_seed_gradients(key):
    """The seed test's order-3 jets of phi and psi, evaluated at the nodes
    as points, give the same bits at every node as a tile of order 3 on
    the axes: the jets and the scaled gradients of Delta and kappa."""
    surface, res = SEED_GRADIENT_SURFACES[key]
    xs, ys = grid_axes(surface, res)
    tile = invariant_grid(surface, xs[:, None], ys[None, :], order=3)
    gx, gy = (w.ravel() for w in np.meshgrid(xs, ys, indexing="ij"))
    points = [jets.eval_jet(e, gx, gy, 3) for e in (surface.phi, surface.psi)]
    nodes = [Jet(tuple(c.ravel() for c in jet.coeffs))
             for jet in (tile.jet_phi, tile.jet_psi)]
    for u, v in zip(points, nodes):
        for p, q in zip(u.coeffs, v.coeffs):
            assert np.array_equal(p, q)
    for p, q in zip(_seed_gradients(*points), _seed_gradients(*nodes)):
        assert np.array_equal(p, q, equal_nan=True)
