"""Singularities of the family of height functions f_b(p) = p . b.

A height function has a critical point exactly where b is normal.  For
b = n1 e3 + n2 e4 its Hessian on the orthonormal tangent frame is the S_n of
:func:`~monge4.classify.shape_operator`; det S_n is the height quadratic
hq0..hq2 of :func:`~monge4.localgeom.height_quadratic`, of discriminant
-4 Delta, whose zeros are the :func:`~monge4.classify.degenerate_normals`,
the binormals.  Its bands are the classifier's, on the point's scaled M
(:attr:`~monge4.localgeom.LocalInvariants.scaled`): rank <= 1 within the
Delta band of those normals, rank 0 where S vanishes within rel ||M||.
For rank 1 the kernel is an asymptotic direction, b the paired binormal,
and the cubic term of f_b along it, against the largest third derivative
of f_b, decides fold or cusp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import (REL, canonical_direction, degenerate_normals,
                       shape_operator)
from .errors import CrossCheckError
from .localgeom import (REL_HEIGHT, LocalInvariants, SurfaceSpec,
                        height_quadratic, local_invariants)

__all__ = [
    "HeightSingularity", "height_hessian", "degenerate_normals",
    "classify_height", "NONDEGENERATE", "FOLD", "CUSP_OR_HIGHER",
    "UMBILIC_OR_HIGHER",
]

NONDEGENERATE = "nondegenerate"
FOLD = "fold"
CUSP_OR_HIGHER = "cusp_or_higher"
UMBILIC_OR_HIGHER = "umbilic_or_higher"


@dataclass(frozen=True, eq=False)
class HeightSingularity:
    normal: np.ndarray                    # unit (n1, n2) in the (e3, e4) frame
    kind: str
    kernel_direction: np.ndarray | None   # unit (e1, e2) coords, rank-1 case
    # cubic Taylor coefficient of f_b along kernel_direction, signed by it
    third_order_coefficient: float | None


def _height_jet(inv: LocalInvariants, n1: float, n2: float):
    """The jet of b3 phi + b4 psi, whose derivatives of order 2 and up are
    those of f_b, for b = n1 e3 + n2 e4 with ambient 3rd/4th components
    (b3, b4)."""
    s_eh, s_w = math.sqrt(inv.Ehat), math.sqrt(inv.W)
    return (n1 - n2 * inv.Fhat / s_w) / s_eh * inv.jet_phi \
        + n2 * s_eh / s_w * inv.jet_psi


def _checked(inv: LocalInvariants, n1: float, n2: float):
    """h of :func:`_height_jet`, the scaled M ``inv.scaled``, its
    :func:`~monge4.localgeom.height_quadratic` and the determinant of
    Hess h, checked against W times the height quadratic at n with every
    term times 2^(2k - 2j), for the 2^k of that M and 2^2j
    near W, so that none underflows or overflows."""
    h = _height_jet(inv, n1, n2)
    m = inv.scaled
    j = math.frexp(inv.W)[1] // 2
    hess = np.ldexp([[h.fxx, h.fxy], [h.fxy, h.fyy]], m.k - j)
    # LU on a zero or subnormal pivot sets a flag numpy reports as a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        det = float(np.linalg.det(hess))
    hq0, hq1, hq2 = height_quadratic(m.a, m.b, m.c, m.e, m.f, m.g)
    w_quad = math.ldexp(inv.W, -2 * j) * (hq0 * n1 * n1 + hq1 * n1 * n2
                                          + hq2 * n2 * n2)
    scale = max(abs(det), abs(w_quad), math.ldexp(m.msq, -2 * j))
    if not abs(det - w_quad) <= REL_HEIGHT * scale:   # a nan fails too
        raise CrossCheckError(f"height hessian determinant mismatch: {det!r} "
                              f"vs W*quadratic {w_quad!r}, times 2^{2 * (m.k - j)}")
    return h, m, (hq0, hq1, hq2), math.ldexp(det, 2 * (j - m.k))


def height_hessian(inv: LocalInvariants, n) -> tuple[np.ndarray, float]:
    """Parameter-coordinate Hessian of the height function for the unit
    normal n and its determinant, checked against W times the quadratic."""
    h, _, _, det = _checked(inv, float(n[0]), float(n[1]))
    return np.array([[h.fxx, h.fxy], [h.fxy, h.fyy]]), det


def _in_band(m, quadratic, n1, n2) -> bool:
    """Whether the height quadratic (A, B, C) = ``quadratic`` of the M of
    ``m`` vanishes at the unit normal n within the Delta band of
    :func:`degenerate_normals`: whether the Delta at which n would be a
    root, moving the coefficient of the smaller of A and C, lies within
    the band of the point's Delta.  With lead and slope t as in
    :func:`~monge4.conics.homogeneous_quadratic_roots`, that is
    |Delta + (lead t + B/2)^2| = |quad(n) lead (1 + t^2)|, which is Delta
    itself at the double root of a Delta in the band and 0 at either root
    below it.  Where A = C = 0 (so Delta = -B^2/4) it is 2 |n1 n2 Delta|,
    0 at the roots (1, 0) and (0, 1)."""
    qa, qb, qc = quadratic
    tau = REL * m.msq * m.msq
    lead, top, bottom = (qa, n1, n2) if abs(qa) >= abs(qc) else (qc, n2, n1)
    if lead == 0.0:
        return abs(qb * n1 * n2) * 0.5 * abs(qb) <= tau
    slope = lead * top / bottom + 0.5 * qb if bottom else math.inf
    return abs(m.Delta + slope * slope) <= tau


def classify_height(surface: SurfaceSpec, x: float, y: float,
                    n) -> HeightSingularity:
    """Singularity type of the height function for unit normal direction n
    (given in the (e3, e4) frame) at the surface point (x, y).

    Kinds: nondegenerate Hessian; rank-1 Hessian with nonzero cubic term
    along the kernel (fold) or vanishing cubic (cusp or higher); vanishing
    Hessian (umbilic or higher, exactly the inflection points).
    """
    n = np.asarray(n, dtype=float) / float(np.hypot(n[0], n[1]))
    inv = local_invariants(surface, x, y)
    n1, n2 = float(n[0]), float(n[1])
    h, m, quadratic, _ = _checked(inv, n1, n2)
    if not _in_band(m, quadratic, n1, n2):
        return HeightSingularity(n, NONDEGENERATE, None, None)
    s11, s12, s22 = shape_operator(m, n1, n2)
    if max(abs(s11), abs(s12), abs(s22)) <= REL * math.sqrt(m.msq):
        return HeightSingularity(n, UMBILIC_OR_HIGHER, None, None)
    # the kernel of S is normal to its larger row
    u = canonical_direction((-s12, s11) if abs(s11) >= abs(s22) else (-s22, s12))
    # u in parameter coordinates: u1 e1 + u2 e2 with e1 = T1/sqrt(E) and
    # e2 = (sqrt(E) T2 - F/sqrt(E) T1)/sqrt(W)
    se, sw = math.sqrt(inv.E), math.sqrt(inv.W)
    kx, ky = (u[0] - u[1] * inv.F / sw) / se, u[1] * se / sw
    size = math.hypot(kx, ky)   # at most 1: the metric is I + J^T J
    hx, hy = kx / size, ky / size
    t0, t1, t2, t3 = h.coeffs[6:10]
    cubic = hx * hx * (t0 * hx + 3.0 * t1 * hy) + hy * hy * (3.0 * t2 * hx + t3 * hy)
    kind = FOLD if abs(cubic) > REL * max(abs(t0), abs(t1), abs(t2), abs(t3)) \
        else CUSP_OR_HIGHER
    return HeightSingularity(n, kind, u, cubic * size ** 3 / 6.0)
