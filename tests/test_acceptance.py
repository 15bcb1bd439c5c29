"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from monge4 import classify, conics, heightfn
from monge4.cli import grid_rows, selfcheck_report
from monge4.classify import REL, asymptotic_directions, binormals
from monge4.localgeom import (K_closed, _raw_derivatives, brioschi_field,
                              coeff_norm, delta_resultant, invariant_grid,
                              kappa_closed, local_invariants)
from monge4.locus import find_inflections

from conftest import (make_surface, make_trig_surface, random_points,
                      random_surfaces)
from oracles import polygon_signed_area

HALF_BOX = (-0.5, 0.5, -0.5, 0.5)


def _report(n, label):
    print(f"\nACCEPTANCE {n} [{label}]: PASS")


def test_acceptance_1_fixture_values(surfaces):
    tol = 1e-9
    inv_b = local_invariants(surfaces["B"], 0.0, 0.0)
    assert abs(inv_b.K - (-8.0)) <= tol
    assert abs(inv_b.kappa - 8.0) <= tol
    assert abs(inv_b.Delta - 16.0) <= tol
    assert abs(inv_b.H[0]) <= tol and abs(inv_b.H[1]) <= tol
    cls_b = classify.classify_point(inv_b)
    assert cls_b.label.kind == "elliptic" and cls_b.is_umbilic

    inv_a = local_invariants(surfaces["A"], 0.0, 0.0)
    assert abs(inv_a.Delta - (-4.0)) <= tol
    asym_a = asymptotic_directions(inv_a)
    bins_a = binormals(inv_a)
    assert len(asym_a) == 2
    assert np.allclose(asym_a[0], [1.0, 0.0], atol=tol)   # e1
    assert np.allclose(bins_a[0], [0.0, 1.0], atol=tol)   # paired with e4
    assert np.allclose(asym_a[1], [0.0, 1.0], atol=tol)   # e2
    assert np.allclose(bins_a[1], [1.0, 0.0], atol=tol)   # paired with e3

    inv_d = local_invariants(surfaces["D"], 0.0, 0.0)
    assert abs(inv_d.Delta) <= tol
    assert abs(inv_d.kappa - 4.0) <= tol
    asym_d = asymptotic_directions(inv_d)
    bins_d = binormals(inv_d)
    assert len(asym_d) == 1 and len(bins_d) == 1
    assert np.allclose(asym_d[0], [0.0, 1.0], atol=tol)   # e2
    assert np.allclose(bins_d[0], [1.0, 0.0], atol=tol)   # e3
    _report(1, "fixture values")


def test_acceptance_2_cross_formula_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240305)
    surfaces = random_surfaces(seed=20240305, count=20)
    total = 0
    for surface in surfaces:
        pts = random_points(rng, 500)
        fl = invariant_grid(surface, pts[:, 0], pts[:, 1], order=3)
        msq = np.asarray(coeff_norm(fl)) ** 2

        def bound(u, v, rel, scale):
            return rel * np.maximum(np.maximum(np.abs(u), np.abs(v)), scale)

        k_closed = K_closed(fl, *_raw_derivatives(fl))
        assert np.all(np.abs(fl.K - k_closed)
                      <= bound(fl.K, k_closed, 1e-8, msq))
        kg = brioschi_field(fl.jet_phi, fl.jet_psi)
        assert np.all(np.abs(kg - fl.K) <= bound(kg, fl.K, 1e-8, msq))
        kappa_c = kappa_closed(fl, *_raw_derivatives(fl))
        assert np.all(np.abs(fl.kappa - kappa_c)
                      <= bound(fl.kappa, kappa_c, 1e-9, msq))
        det = delta_resultant(fl.a, fl.b, fl.c, fl.e, fl.f, fl.g)
        assert np.all(np.abs(fl.Delta - det)
                      <= bound(fl.Delta, det, 1e-9, msq * msq))
        gram = fl.Eh * fl.Gh - fl.Fh ** 2
        assert np.all(np.abs(gram - fl.W) <= 1e-10 * np.abs(fl.W))
        total += len(pts)
    elapsed = time.perf_counter() - t0
    assert total >= 10_000
    assert elapsed <= 10.0
    _report(2, f"cross-formula suite, {total} points in {elapsed:.2f}s")


def test_acceptance_3_area_law():
    rng = np.random.default_rng(3)
    checked = 0
    for surface in random_surfaces(seed=303, count=12):
        for x, y in random_points(rng, 8):
            inv = local_invariants(surface, float(x), float(y))
            if abs(inv.kappa) <= 1e-3:
                continue
            area = polygon_signed_area(conics.sample_indicatrix(inv, 4096))
            want = 0.5 * math.pi * inv.kappa
            assert abs(area - want) <= 1e-3 * abs(want)
            checked += 1
    assert checked >= 50
    _report(3, f"oriented area law on {checked} samples")


def test_acceptance_4_wintgen(surfaces):
    gap_b = conics.wintgen_gap(local_invariants(surfaces["B"], 0.0, 0.0))
    assert gap_b >= -1e-10
    assert gap_b < 1e-9  # circle point
    rng = np.random.default_rng(4)
    for surface in random_surfaces(seed=404, count=12):
        for x, y in random_points(rng, 60):
            inv = local_invariants(surface, float(x), float(y))
            gap = conics.wintgen_gap(inv)
            assert gap >= -1e-10
            if gap < 1e-9:
                ind = conics.indicatrix(inv)
                if ind.semi_axis_major > 1e-14:
                    ratio = ind.semi_axis_minor / ind.semi_axis_major
                    assert 1 - 1e-6 <= ratio <= 1 + 1e-6
    _report(4, "Wintgen inequality and circle-point criterion")


def test_acceptance_5_kommerell(surfaces):
    # the characteristic conic of the umbilic fixture is the radius-1/2 circle
    inv_b = local_invariants(surfaces["B"], 0.0, 0.0)
    for theta in np.linspace(0.0, math.pi, 64, endpoint=False):
        n = conics.evolvent_point(inv_b, float(theta))
        assert abs(float(np.hypot(*n)) - 0.5) <= 1e-9

    rng = np.random.default_rng(5)
    kinds_checked = 0
    for surface in random_surfaces(seed=505, count=20):
        for x, y in random_points(rng, 60):
            inv = local_invariants(surface, float(x), float(y))
            ind = conics.indicatrix(inv)
            msq = inv.coeff_norm ** 2
            if ind.degenerate or abs(inv.Delta) <= 1e-6 * msq * msq:
                continue
            ch = conics.characteristic_conic(ind)
            assert ch.kind == ("ellipse" if inv.Delta > 0 else "hyperbola")
            kinds_checked += 1
            cm = ch.matrix
            fro = float(np.linalg.norm(cm))
            for theta in (0.1, 1.0, 2.4):
                try:
                    n = conics.evolvent_point(inv, theta)
                except Exception:
                    continue
                v = np.array([n[0], n[1], 1.0])
                assert abs(v @ cm @ v) / (fro * (v @ v)) <= 1e-8
    assert kinds_checked >= 1000
    _report(5, f"Kommerell kinds on {kinds_checked} samples, evolvent residuals")


def test_acceptance_6_asymptote_binormal_duality(surfaces):
    inv = local_invariants(surfaces["G"], 0.0, 0.0)
    ch = conics.characteristic_conic(conics.indicatrix(inv))
    assert ch.kind == "hyperbola"
    asymptotes = conics.conic_asymptote_directions(ch)
    bins = binormals(inv)
    assert len(asymptotes) == 2 and len(bins) == 2
    for direction in asymptotes:
        cross = min(abs(direction[0] * b[1] - direction[1] * b[0])
                    for b in bins)
        assert cross <= 1e-7
    _report(6, "characteristic asymptotes parallel to binormals")


def test_acceptance_7_inflection_suite():
    reports_c = find_inflections(make_surface("C", HALF_BOX), 256)
    assert len(reports_c) == 1
    rep = reports_c[0]
    assert (rep.x, rep.y) == pytest.approx((0.0, 0.0), abs=1e-6)
    assert rep.kind == "imaginary"
    assert rep.det_hessian_delta == pytest.approx(3072.0, rel=1e-12)

    reports_h = find_inflections(make_surface("H", HALF_BOX), 256)
    assert len(reports_h) == 1
    rep = reports_h[0]
    assert (rep.x, rep.y) == pytest.approx((0.0, 0.0), abs=1e-6)
    assert rep.kind == "real"
    assert rep.det_hessian_delta == pytest.approx(-1024.0, rel=1e-12)

    for name, reports in (("C", reports_c), ("H", reports_h)):
        inv = local_invariants(make_surface(name, HALF_BOX),
                               reports[0].x, reports[0].y)
        sv = np.linalg.svd(inv.coeff_matrix, compute_uv=False)
        assert sv[1] <= 1e-8 * sv[0]
    _report(7, "inflection suite with Hessian closed forms")


def test_acceptance_8_height_function_suite(surfaces):
    fixtures = {
        "A": 2, "B": 0, "D": 1, "G": 2, "E": 1,
    }
    for name, count in fixtures.items():
        inv = local_invariants(surfaces[name], 0.0, 0.0)
        normals = heightfn.degenerate_normals(inv)
        assert len(normals) == count, name
        if count == 0:
            continue
        asym = asymptotic_directions(inv)
        bins = binormals(inv)
        for n in normals:
            sing = heightfn.classify_height(surfaces[name], 0.0, 0.0, n)
            assert sing.kernel_direction is not None
            angles = [abs(sing.kernel_direction[0] * u[1]
                          - sing.kernel_direction[1] * u[0]) for u in asym]
            idx = int(np.argmin(angles))
            assert angles[idx] <= 1e-8
            assert abs(n[0] * bins[idx][1] - n[1] * bins[idx][0]) <= 1e-8

    assert heightfn.classify_height(
        surfaces["E"], 0.0, 0.0, (1.0, 0.0)).kind == heightfn.FOLD
    assert heightfn.classify_height(
        surfaces["D"], 0.0, 0.0, (1.0, 0.0)).kind == heightfn.CUSP_OR_HIGHER
    assert heightfn.classify_height(
        surfaces["C"], 0.0, 0.0, (0.0, 1.0)).kind == heightfn.UMBILIC_OR_HIGHER
    _report(8, "height-function suite")


def test_acceptance_9_performance():
    trig = make_trig_surface()
    t0 = time.perf_counter()
    text = "".join(grid_rows(trig, 200, REL))
    grid_elapsed = time.perf_counter() - t0
    assert text.count("\n") == 200 * 200
    assert grid_elapsed <= 2.0

    t0 = time.perf_counter()
    ok, _ = selfcheck_report(trig, 128)
    selfcheck_elapsed = time.perf_counter() - t0
    assert ok
    assert selfcheck_elapsed <= 5.0
    _report(9, f"grid 200x200 in {grid_elapsed:.2f}s, "
               f"selfcheck 128x128 in {selfcheck_elapsed:.2f}s")


def test_acceptance_10_determinism(tmp_path):
    surf = tmp_path / "g.surf"
    surf.write_text("phi = 1.5*x^2 + 0.5*y^2\npsi = 2*x*y + 0.3*y^3\n"
                    "domain = -1 1 -1 1\n", encoding="utf-8")

    def run(args):
        r = subprocess.run([sys.executable, "-m", "monge4.cli", *args],
                           capture_output=True, check=False)
        assert r.returncode == 0, r.stderr
        return r

    outputs = {}
    for tag in ("1", "2"):
        grid = tmp_path / f"grid{tag}.csv"
        trace = tmp_path / f"trace{tag}.csv"
        svg = tmp_path / f"plot{tag}.svg"
        run(["grid", "--surface", str(surf), "--res", "32", "--out", str(grid)])
        run(["trace", "--surface", str(surf), "--res", "32", "--out", str(trace)])
        run(["plot", "--surface", str(surf), "--at", "0.3,0.1",
             "--out", str(svg)])
        outputs[tag] = (grid.read_bytes(), trace.read_bytes(), svg.read_bytes())
    assert outputs["1"] == outputs["2"]
    _report(10, "byte-identical CSV and SVG outputs")
