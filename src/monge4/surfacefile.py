"""Line-based surface description files.

Format (UTF-8, '#' starts a comment, each key required exactly once)::

    phi = x^2 - y^2
    psi = 2*x*y
    domain = -1 1 -1 1
"""

from __future__ import annotations

import functools

from . import expr as ex
from .errors import ExpressionSyntaxError, SurfaceFileError
from .localgeom import SurfaceSpec

__all__ = ["parse_surface_file", "parse_surface_text"]


@functools.lru_cache(maxsize=32)
def parse_surface_text(text: str) -> SurfaceSpec:
    """Memoised on the text: specs are frozen, so sharing them is safe, and
    errors are not kept, so each failing call raises with its line number."""
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SurfaceFileError(f"expected 'key = value', got {raw!r}", lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in ("phi", "psi", "domain"):
            raise SurfaceFileError(f"unknown key {key!r}", lineno)
        if key in entries:
            raise SurfaceFileError(f"duplicate key {key!r}", lineno)
        entries[key] = (lineno, value.strip())

    for key in ("phi", "psi", "domain"):
        if key not in entries:
            raise SurfaceFileError(f"missing key {key!r}")

    exprs = {}
    for key in ("phi", "psi"):
        lineno, text_value = entries[key]
        try:
            exprs[key] = ex.parse_expression(text_value)
        except ExpressionSyntaxError as err:
            raise SurfaceFileError(f"in {key!r}: {err}", lineno) from None

    lineno, dom_text = entries["domain"]
    parts = dom_text.split()
    if len(parts) != 4:
        raise SurfaceFileError(
            f"domain needs 4 numbers (xmin xmax ymin ymax), got {len(parts)}",
            lineno)
    try:
        xmin, xmax, ymin, ymax = (float(p) for p in parts)
    except ValueError:
        raise SurfaceFileError(f"malformed domain {dom_text!r}", lineno) from None
    if not (xmin < xmax and ymin < ymax):
        raise SurfaceFileError(
            f"empty domain interval in {dom_text!r}", lineno)
    return SurfaceSpec(exprs["phi"], exprs["psi"], (xmin, xmax, ymin, ymax))


def parse_surface_file(path) -> SurfaceSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_surface_text(fh.read())
