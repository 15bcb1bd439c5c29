"""Singularities of the family of height functions f_b(p) = p . b.

A height function has a critical point on the surface exactly when b is
normal there.  The Hessian of f_b in parameter coordinates is
b3 Hess(phi) + b4 Hess(psi) with (b3, b4) the ambient normal components; its
degeneracy is governed by the quadratic

    (ac - b^2) n1^2 + (ag + ce - 2bf) n1 n2 + (eg - f^2) n2^2

in the orthonormal normal coordinates (n1, n2), whose discriminant is
-4 Delta.  For a rank-1 Hessian the kernel is an asymptotic direction, b the
paired binormal, and the fold/cusp dichotomy is decided by the cubic term of
f_b along the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import REL, band_directions, canonical_direction
from .errors import CrossCheckError
from .localgeom import (REL_HEIGHT, LocalInvariants, SurfaceSpec,
                        local_invariants, unit_scaled)

__all__ = [
    "HeightSingularity", "height_hessian", "degenerate_normals",
    "classify_height", "NONDEGENERATE", "FOLD", "CUSP_OR_HIGHER",
    "UMBILIC_OR_HIGHER",
]

NONDEGENERATE = "nondegenerate"
FOLD = "fold"
CUSP_OR_HIGHER = "cusp_or_higher"
UMBILIC_OR_HIGHER = "umbilic_or_higher"

# fold threshold on the cubic coefficient, relative to (second-derivative
# scale)^3 so the decision is invariant under rescaling the surface
TAU_CUBIC_REL = 1e-8


@dataclass(frozen=True, eq=False)
class HeightSingularity:
    normal: np.ndarray                    # unit (n1, n2) in the (e3, e4) frame
    kind: str
    kernel_direction: np.ndarray | None   # unit (e1, e2) coords, rank-1 case
    third_order_coefficient: float | None


def _ambient_normal(inv: LocalInvariants, n) -> tuple[float, float]:
    """Ambient 3rd/4th components of n1 e3 + n2 e4."""
    n1, n2 = float(n[0]), float(n[1])
    s_eh = math.sqrt(inv.Ehat)
    s_ehw = math.sqrt(inv.Ehat * inv.W)
    b3 = n1 / s_eh - n2 * inv.Fhat / s_ehw
    b4 = n2 * inv.Ehat / s_ehw
    return b3, b4


def height_hessian(inv: LocalInvariants, n) -> tuple[np.ndarray, float]:
    """Parameter-coordinate Hessian of the height function for the unit
    normal direction n, and its determinant.

    The determinant equals W times the normal-coordinate quadratic
    (ac-b^2) n1^2 + (ag+ce-2bf) n1 n2 + (eg-f^2) n2^2; the two routes are
    reconciled before returning.
    """
    b3, b4 = _ambient_normal(inv, n)
    p, q = inv.jet_phi, inv.jet_psi
    hess = np.array([
        [b3 * p.fxx + b4 * q.fxx, b3 * p.fxy + b4 * q.fxy],
        [b3 * p.fxy + b4 * q.fxy, b3 * p.fyy + b4 * q.fyy],
    ])
    # LU on a subnormal pivot sets a floating-point flag that numpy would
    # report as a warning; the determinant is still 0 or tiny
    with np.errstate(divide="ignore", invalid="ignore"):
        det = float(np.linalg.det(hess))
    n1, n2 = float(n[0]), float(n[1])
    quad = ((inv.a * inv.c - inv.b ** 2) * n1 * n1
            + (inv.a * inv.g + inv.c * inv.e - 2.0 * inv.b * inv.f) * n1 * n2
            + (inv.e * inv.g - inv.f ** 2) * n2 * n2)
    scale = inv.coeff_norm ** 2 + 1e-300
    if abs(det - inv.W * quad) > REL_HEIGHT * max(abs(det), abs(inv.W * quad),
                                                  scale):
        raise CrossCheckError(
            f"height hessian determinant mismatch: {det!r} vs W*quadratic "
            f"{inv.W * quad!r}")
    return hess, det


def degenerate_normals(inv: LocalInvariants,
                       rel: float = REL) -> list[np.ndarray]:
    """Unit normal directions whose height function has a degenerate critical
    point: 2, 1 or 0 of them as Delta < 0, = 0, > 0 (band-relative).

    Raises :class:`InflectionPointError` when the quadratic vanishes
    identically (inflection point: every normal is degenerate).
    """
    m = unit_scaled(inv.a, inv.b, inv.c, inv.e, inv.f, inv.g)
    return band_directions((m.a * m.c - m.b ** 2,
                            m.a * m.g + m.c * m.e - 2.0 * m.b * m.f,
                            m.e * m.g - m.f ** 2), m, rel,
                           "height-hessian quadratic")


def classify_height(surface: SurfaceSpec, x: float, y: float,
                    n) -> HeightSingularity:
    """Singularity type of the height function for unit normal direction n
    (given in the (e3, e4) frame) at the surface point (x, y).

    Kinds: nondegenerate Hessian; rank-1 Hessian with nonzero cubic term
    along the kernel (fold) or vanishing cubic (cusp or higher); vanishing
    Hessian (umbilic or higher, exactly the inflection points).
    """
    n = np.asarray(n, dtype=float)
    n = n / float(np.hypot(n[0], n[1]))
    inv = local_invariants(surface, x, y)
    hess, _ = height_hessian(inv, n)
    p, q = inv.jet_phi, inv.jet_psi
    js = max(abs(p.fxx), abs(p.fxy), abs(p.fyy),
             abs(q.fxx), abs(q.fxy), abs(q.fyy))

    evals, evecs = np.linalg.eigh(hess)
    tau_rank = 1e-10 * max(js, float(np.max(np.abs(evals))), 1e-300)
    rank = int(np.sum(np.abs(evals) > tau_rank))
    if rank == 2:
        return HeightSingularity(n, NONDEGENERATE, None, None)
    if rank == 0:
        return HeightSingularity(n, UMBILIC_OR_HIGHER, None, None)

    kernel = evecs[:, int(np.argmin(np.abs(evals)))]
    # unit length as a tangent vector of the surface
    knorm = math.sqrt(inv.E * kernel[0] ** 2 + 2.0 * inv.F * kernel[0] * kernel[1]
                      + inv.G * kernel[1] ** 2)
    kx, ky = kernel[0] / knorm, kernel[1] / knorm
    b3, b4 = _ambient_normal(inv, n)
    d3 = (b3 * (p.fxxx * kx ** 3 + 3.0 * p.fxxy * kx * kx * ky
                + 3.0 * p.fxyy * kx * ky * ky + p.fyyy * ky ** 3)
          + b4 * (q.fxxx * kx ** 3 + 3.0 * q.fxxy * kx * kx * ky
                  + 3.0 * q.fxyy * kx * ky * ky + q.fyyy * ky ** 3))
    t = d3 / 6.0
    tau3 = TAU_CUBIC_REL * js ** 3
    kind = FOLD if abs(t) > tau3 else CUSP_OR_HIGHER
    # kernel direction in the orthonormal tangent frame
    u = canonical_direction(np.array([
        math.sqrt(inv.E) * kx + inv.F / math.sqrt(inv.E) * ky,
        math.sqrt(inv.W / inv.E) * ky,
    ]))
    return HeightSingularity(n, kind, u, float(t))
