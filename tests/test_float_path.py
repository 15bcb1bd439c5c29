"""A point on Python floats runs the same checks as a grid on arrays.

At a point, :func:`~monge4.localgeom.local_invariants` evaluates the jets,
the fields and the live cross-checks with ``math`` and builtins; a grid
runs the same formulas on arrays.  At every point of the corpus both pass,
or both raise the same class with the same message, also with the bound
of any one row of ``CROSS_CHECKS`` at 0, where a check fails wherever its
routes differ in the last bit.  ``unit_scaled`` gives the same bits on
floats as on 0-d arrays, and the formulas of M the same bits on floats as
on arrays."""

import math
import struct

import numpy as np
import pytest

from monge4 import localgeom, surface_from_strings
from monge4.errors import Monge4Error
from monge4.localgeom import (check_invariants, coeff_norm, delta_resultant,
                              invariant_grid, local_invariants, second_order,
                              unit_scaled)

from conftest import TRIG_SURFACE, gallery_surfaces, random_surfaces

# the pinned examples of test_cli.test_hostile_surfaces_exit_cleanly:
# (phi, psi, domain, u, v) at the point (xmin + u (xmax - xmin), ...)
_TINY = "-1e-120 1e-120 -1e-120 1e-120"
HOSTILE = [
    ("((x * -(2.5)^0.5))^40", "2.5", "-1e-8 1e-8 -1e-8 1e-8", 0.5, 0.5),
    ("(exp(tan((1e300)^3)) / x)", "y", "-1 1 -1 1", 0.5, 0.5),
    ("1e160*x^2", "1e-300*y^2", "-1 1 -1 1", 0.5, 0.5),
    ("1e160*x^2", "1e-300*y^2", _TINY, 0.5, 0.5),
    ("1e76*x^2", "1e-300*y^2", _TINY, 0.5, 0.5),
    ("x", "(x * y)", "0 1 -1 0", 1.1125369292536007e-308, 0.0),
    ("(x)^-1", "x*(1e76)^2", "-1 1 -1 1", 0.5, 0.5),
]


def _corpus():
    """(surface, x, y) of every point compared."""
    rng = np.random.default_rng(2605)
    points = []
    for surface in random_surfaces() + list(gallery_surfaces().values()):
        xmin, xmax, ymin, ymax = surface.domain
        for _ in range(4):
            points.append((surface, float(rng.uniform(xmin, xmax)),
                           float(rng.uniform(ymin, ymax))))
    phi, psi = TRIG_SURFACE
    for j in range(-1000, 301):
        s = repr(math.ldexp(1.0, j))
        surface = surface_from_strings(f"{s}*({phi})", f"{s}*({psi})")
        points.append((surface, 0.3, -0.2))
    for phi, psi, domain, u, v in HOSTILE:
        xmin, xmax, ymin, ymax = map(float, domain.split())
        points.append((surface_from_strings(phi, psi, (xmin, xmax, ymin, ymax)),
                       min(xmin + u * (xmax - xmin), xmax),
                       min(ymin + v * (ymax - ymin), ymax)))
    return points


CORPUS = _corpus()


def _outcome(evaluate):
    """None when ``evaluate`` passes, else the class and message raised."""
    try:
        evaluate()
    except Monge4Error as err:
        return type(err), str(err)
    return None


def _on_floats(surface, x, y):
    return _outcome(lambda: local_invariants(surface, x, y))


def _on_arrays(surface, x, y):
    where = (np.array([x]), np.array([y]))
    return _outcome(lambda: check_invariants(
        invariant_grid(surface, *where, order=3), where))


def _agree(floats, arrays):
    """Whether two outcomes agree.  A constant subexpression that fails
    fails at no point of a grid, so its message names none there."""
    if floats and arrays and " at point " not in arrays[1]:
        return floats[0] is arrays[0] \
            and floats[1].startswith(arrays[1] + " at point ")
    return floats == arrays


def test_floats_and_arrays_agree(monkeypatch):
    """As they are, and with the bound of one live row at 0, where its
    check fails wherever its two routes differ at all, and the message
    prints both: so their bits agree too.  The other rows run in no
    evaluation.  One point at a time, so that its kernels are compiled
    once.  The corpus reaches the scaled route of the Delta check, the
    raised one of the K and kappa checks, and a failure."""
    rows = [None] + [n for n, check in enumerate(localgeom.CROSS_CHECKS)
                     if check.live]
    differences, msq, failed = [], [], 0
    for surface, x, y in CORPUS:
        for row in rows:
            checks = list(localgeom.CROSS_CHECKS)
            if row is not None:
                checks[row] = checks[row]._replace(rel=0.0)
            with monkeypatch.context() as patch:
                patch.setattr(localgeom, "CROSS_CHECKS", tuple(checks))
                floats = _on_floats(surface, x, y)
                arrays = _on_arrays(surface, x, y)
            if not _agree(floats, arrays):
                differences.append((row, surface.phi, x, y, floats, arrays))
            if row is None and floats:
                failed += 1
            elif row is None:
                msq.append(local_invariants(surface, x, y).coeff_norm ** 2)
    assert differences == []
    msq = np.array(msq)
    assert np.any(msq < localgeom.RESIDUAL_FLOOR)
    assert np.any((msq >= localgeom.RESIDUAL_FLOOR)
                  & (msq * msq < localgeom.RESIDUAL_FLOOR))
    assert failed


def _bits(m):
    return [struct.pack("<d", float(getattr(m, name)))
            for name in ("a", "b", "c", "e", "f", "g", "K", "kappa", "Delta",
                         "msq", "H3", "H4")] + [m.k]


TINY = math.ldexp(1.0, -1074)
MATRICES = [
    (0.0,) * 6,
    (-0.0, 0.0, -0.0, 0.0, 0.0, -0.0),
    (0.3, -1.2, 2.5, 1e-3, -7.0, 0.25),
    (1e300, -3e299, 2e-300, 1.0, 1e308, -1e308),
    (TINY, -TINY, 3 * TINY, 0.0, 2.5e-310, -1e-315),
    (1e-310, 0.5, -2e-320, 0.0, 0.0, 1e-308),
    (math.inf, 1.0, 0.0, -2.0, 0.5, 0.0),
    (1.0, -math.inf, math.inf, 0.0, 0.0, 0.0),
] + [tuple(math.nan if i == n else v for i, v in enumerate(
    (0.3, -1.2, 2.5e-310, 1e-3, -7.0, 0.25))) for n in range(6)] \
  + [tuple(math.nan if i == n else v for i, v in enumerate((1e-320,) * 6))
     for n in range(6)]


@pytest.mark.parametrize("entries", MATRICES, ids=repr)
def test_unit_scaled_floats_match_0d_arrays(entries):
    """Bit for bit, nan payloads included, also where an entry is a nan
    in any place, which np.maximum propagates from there."""
    with np.errstate(all="ignore"):
        on_arrays = unit_scaled(*map(np.array, entries))
    assert _bits(unit_scaled(*entries)) == _bits(on_arrays)


def test_squares_are_products_on_both_paths():
    """A square is a product on Python floats as on arrays: x ** 2 of a
    Python float is libm's pow, which rounds 0.687611213910762 ** 2
    otherwise than x * x, and numpy's square of an array does not."""
    a = 0.687611213910762
    assert a ** 2 != a * a
    entries = (a, 0.0, 0.0, 0.0, 0.0, 1.0)
    on_arrays = [np.array([v]) for v in entries]
    m, m1 = second_order(*entries), second_order(*on_arrays)
    s, s1 = unit_scaled(*entries), unit_scaled(*on_arrays)
    pairs = [(m.Delta, m1.Delta), (coeff_norm(m), coeff_norm(m1)),
             (delta_resultant(*entries), delta_resultant(*on_arrays))]
    pairs += [(getattr(s, name), getattr(s1, name))
              for name in ("Delta", "kappa", "K", "msq", "H3", "H4")]
    for u, v in pairs:
        assert type(u) is float
        assert struct.pack("<d", u) == struct.pack("<d", float(v[0]))
