"""Local second-order geometry of surfaces (x, y, phi(x,y), psi(x,y)) in R^4.

Curvature invariants, the curvature ellipse and characteristic conic with
their projective duality, point classification with asymptotic directions
and binormals, the parabolic locus and inflection points, and singularities
of the height functions.
"""

from .classify import (PointClassification, asymptotic_directions, binormals,
                       classify_point, hessian_of_delta)
from .conics import (CanonicalCoefficients, Conic, Indicatrix,
                     canonical_coefficients, characteristic_conic,
                     conjugate_radii, eta, evolvent_point, indicatrix,
                     indicatrix_conic, pole, polar, wintgen_gap)
from .expr import parse_expression, pretty
from .heightfn import (HeightSingularity, classify_height, degenerate_normals,
                       height_hessian)
from .jets import Jet, eval_jet
from .localgeom import (LocalInvariants, SurfaceSpec, brioschi_curvature,
                        delta_resultant, local_invariants, surface_from_strings)
from .locus import (InflectionReport, Polyline, PolylineSet, find_inflections,
                    trace_parabolic)
from .surfacefile import parse_surface_file, parse_surface_text

__version__ = "0.1.0"

__all__ = [
    "PointClassification", "asymptotic_directions", "binormals",
    "classify_point", "hessian_of_delta",
    "CanonicalCoefficients", "Conic", "Indicatrix", "canonical_coefficients",
    "characteristic_conic", "conjugate_radii", "eta", "evolvent_point",
    "indicatrix", "indicatrix_conic", "pole", "polar", "wintgen_gap",
    "parse_expression", "pretty",
    "HeightSingularity", "classify_height", "degenerate_normals",
    "height_hessian",
    "Jet", "eval_jet",
    "LocalInvariants", "SurfaceSpec", "brioschi_curvature", "delta_resultant",
    "local_invariants", "surface_from_strings",
    "InflectionReport", "Polyline", "PolylineSet", "find_inflections",
    "trace_parabolic",
    "parse_surface_file", "parse_surface_text",
]
