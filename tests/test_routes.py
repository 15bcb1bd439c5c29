"""Where the cross-checks' second routes are formed: the closed forms of K
and kappa and the minors of M are computed by the passes that check or
print them, and never by the locus searches."""

import sys

import numpy as np
import pytest

from monge4 import localgeom, locus
from monge4.classify import REL, hessian_of_delta
from monge4.cli import grid_rows, selfcheck_report
from monge4.localgeom import local_invariants

from conftest import benchmark_surfaces, make_trig_surface

ROUTE_HELPERS = ("K_closed", "kappa_closed", "minors")


@pytest.fixture
def route_calls(monkeypatch):
    """The number of calls of each helper of :data:`ROUTE_HELPERS` so far,
    counted in every monge4 module that holds it."""
    calls = dict.fromkeys(ROUTE_HELPERS, 0)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and n.startswith("monge4")]
    for name in ROUTE_HELPERS:
        orig = getattr(localgeom, name)

        def counting(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)

        for module in modules:
            if getattr(module, name, None) is orig:
                monkeypatch.setattr(module, name, counting)
    return calls


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
