"""Seeded inputs for the three benchmark workloads.

Every surface is a sum of separable terms ``c * X(x) * Y(y)`` whose factors
are powers, sines, cosines or exponentials.  The same term list renders the
surface file the program parses and drives the closed-form oracle in
``checks.py``, so the oracle never reads the program's own parse.

This module imports nothing beyond the standard library: the set-up
measurement imports it before ``monge4`` and must not pay for numpy here.
"""

from __future__ import annotations

import random

GRID_RES = 512
LOCUS_RES = 256
POINT_SURFACES = 3
POINTS_PER_SURFACE = 8

WORKLOADS = ("grid-dense", "locus-search", "point-queries")

# Surfaces from scripts/fixture_gallery.py whose loci are known in closed
# form: parabolic_loop has one closed parabolic curve around the origin and
# no inflection; inflection_real has exactly one real inflection at (0, 0).
GALLERY = {
    "parabolic_loop": {
        "phi": "x^2 - y^2 - x^4 - 2*x^2*y^2 - y^4",
        "psi": "2*x*y",
        "domain": (-1.0, 1.0, -1.0, 1.0),
        "phi_terms": [(1.0, ("pow", 2), ("pow", 0)),
                      (-1.0, ("pow", 0), ("pow", 2)),
                      (-1.0, ("pow", 4), ("pow", 0)),
                      (-2.0, ("pow", 2), ("pow", 2)),
                      (-1.0, ("pow", 0), ("pow", 4))],
        "psi_terms": [(2.0, ("pow", 1), ("pow", 1))],
    },
    "inflection_real": {
        "phi": "x^2 - y^2",
        "psi": "x^3/3 + x*y^2",
        "domain": (-0.5, 0.5, -0.5, 0.5),
        "phi_terms": [(1.0, ("pow", 2), ("pow", 0)),
                      (-1.0, ("pow", 0), ("pow", 2))],
        "psi_terms": [(1.0 / 3.0, ("pow", 3), ("pow", 0)),
                      (1.0, ("pow", 1), ("pow", 2))],
    },
}


def _factor_text(factor, var):
    kind, k = factor
    if kind == "pow":
        return "" if k == 0 else (var if k == 1 else f"{var}^{k}")
    return f"{kind}({k!r}*{var})"


def render(terms) -> str:
    """Expression text of a term list, in the program's surface syntax."""
    out = ""
    for coef, fx, fy in terms:
        body = "*".join(t for t in (_factor_text(fx, "x"), _factor_text(fy, "y")) if t)
        mag = abs(coef)
        text = f"{mag!r}*{body}" if body else f"{mag!r}"
        if not out:
            out = text if coef >= 0 else f"-{text}"
        else:
            out += f" - {text}" if coef < 0 else f" + {text}"
    return out


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 3)


def trig_surface(rng):
    """The trig family A sin(w1 x) cos(w2 y) + B x^2 y and
    C exp(l x) sin(w3 y) - D x y^2 on [-1, 1]^2, every coefficient drawn
    within 10% of sin(x)*cos(y) + 0.6*x^2*y, exp(0.5*x)*sin(y) - 0.2*x*y^2.

    The cost of ``inflections`` follows the number of Newton seeds, which
    changes with the shape of the surface, and a metric taken over seeds
    must not measure that.  Near B = 0.3 two inflections annihilate, and
    the Newton calls varied from 130 to 780 between seeds; within 10% of
    B = 0.6 they stay between 150 and 275."""
    def near(base):
        return _u(rng, 0.9 * base, 1.1 * base)

    phi = [(near(1.0), ("sin", near(1.0)), ("cos", near(1.0))),
           (near(0.6), ("pow", 2), ("pow", 1))]
    psi = [(near(1.0), ("exp", near(0.5)), ("sin", near(1.0))),
           (-near(0.2), ("pow", 1), ("pow", 2))]
    return {"phi_terms": phi, "psi_terms": psi, "domain": (-1.0, 1.0, -1.0, 1.0)}


def poly_trig_surface(rng):
    """Random quadratic-to-cubic polynomials plus one trigonometric term per
    component on [-1, 1]^2."""
    def poly():
        terms = [(_u(rng, 0.5, 1.5) * rng.choice((-1, 1)), ("pow", i), ("pow", j))
                 for i, j in ((2, 0), (1, 1), (0, 2))]
        for _ in range(2):
            i = rng.randint(0, 3)
            terms.append((_u(rng, -0.8, 0.8), ("pow", i), ("pow", 3 - i)))
        return terms

    phi = poly() + [(_u(rng, 0.2, 0.6), ("sin", _u(rng, 0.5, 2.0)),
                     ("cos", _u(rng, 0.5, 2.0)))]
    psi = poly() + [(_u(rng, 0.2, 0.6), ("cos", _u(rng, 0.5, 2.0)),
                     ("sin", _u(rng, 0.5, 2.0)))]
    return {"phi_terms": phi, "psi_terms": psi, "domain": (-1.0, 1.0, -1.0, 1.0)}


def _with_text(surface):
    if "phi" not in surface:
        surface = dict(surface, phi=render(surface["phi_terms"]),
                       psi=render(surface["psi_terms"]))
    return surface


def surface_file_text(surface) -> str:
    dom = " ".join(repr(v) for v in surface["domain"])
    return f"phi = {surface['phi']}\npsi = {surface['psi']}\ndomain = {dom}\n"


def make_spec(workload: str, seed: int) -> dict:
    """Surfaces and the job list of one round of ``workload`` for ``seed``.

    A job is ``{"kind", "surface", ...}``; kinds are the CLI subcommands plus
    ``height`` (degenerate normals, then the height-function type of each).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    surfaces, jobs = {}, []
    if workload == "grid-dense":
        surfaces["trig"] = trig_surface(rng)
        jobs = [{"kind": "grid", "surface": "trig", "res": GRID_RES},
                {"kind": "selfcheck", "surface": "trig", "res": GRID_RES}]
    elif workload == "locus-search":
        surfaces.update(GALLERY)
        surfaces["trig"] = trig_surface(rng)
        for name in surfaces:
            jobs += [{"kind": "trace", "surface": name, "res": LOCUS_RES},
                     {"kind": "inflections", "surface": name, "res": LOCUS_RES}]
    else:
        for k in range(POINT_SURFACES):
            name = f"poly{k}"
            surfaces[name] = poly_trig_surface(rng)
            for _ in range(POINTS_PER_SURFACE):
                at = (_u(rng, -0.9, 0.9), _u(rng, -0.9, 0.9))
                for kind in ("analyze", "plot", "height"):
                    jobs.append({"kind": kind, "surface": name, "at": at})
    return {"workload": workload, "seed": seed,
            "surfaces": {k: _with_text(v) for k, v in surfaces.items()},
            "jobs": jobs}
