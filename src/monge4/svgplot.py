"""Static SVG rendering of the normal-plane picture at a point.

The drawing shows the curvature ellipse (256 samples), the characteristic
conic where it exists (evolvent sweep, split at points at infinity), the
binormal directions as arrows from the origin, and the origin itself.  The
(e3, e4) normal plane is mapped into a fixed 800 x 800 viewBox, autoscaled to
the bounding box of indicatrix and origin with a 10% margin; output is
deterministic byte for byte.
"""

from __future__ import annotations

import numpy as np

VIEW = 800.0
MARGIN = 0.10


def _fmt(v: float) -> str:
    return f"{v:.4f}"


class _Mapper:
    def __init__(self, bbox):
        xmin, xmax, ymin, ymax = bbox
        w = xmax - xmin
        h = ymax - ymin
        side = max(w, h, 1e-9)
        pad = MARGIN * side
        side = side + 2.0 * pad
        self.scale = VIEW / side
        self.x0 = 0.5 * (xmin + xmax) - 0.5 * side
        self.y0 = 0.5 * (ymin + ymax) - 0.5 * side

    def map(self, p):
        sx = (p[0] - self.x0) * self.scale
        sy = VIEW - (p[1] - self.y0) * self.scale
        return sx, sy

    def polyline(self, pts, closed=False):
        # map whole columns, then format all vertices in one % operation
        p = np.asarray(pts, dtype=float).reshape(-1, 2)
        xy = np.column_stack(self.map(p.T))
        coords = " ".join(["%.4f,%.4f"] * len(xy)) % tuple(xy.ravel().tolist())
        return coords, ("polygon" if closed else "polyline")


def render_normal_plane(indicatrix_points: np.ndarray,
                        characteristic_polylines,
                        binormals,
                        title: str = "") -> str:
    """Build the SVG document; all inputs are in (e3, e4) coordinates.

    ``characteristic_polylines`` is a list of (points, closed) pairs (may be
    empty when the indicatrix is degenerate); ``binormals`` a list of unit
    2-vectors.
    """
    pts = np.vstack([indicatrix_points, np.zeros((1, 2))])
    bbox = (float(pts[:, 0].min()), float(pts[:, 0].max()),
            float(pts[:, 1].min()), float(pts[:, 1].max()))
    m = _Mapper(bbox)
    arrow_len = 0.35 * max(bbox[1] - bbox[0], bbox[3] - bbox[2], 1e-9)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {int(VIEW)} {int(VIEW)}">',
    ]
    if title:
        parts.append(f"<title>{title}</title>")
    parts.append(f'<rect width="{int(VIEW)}" height="{int(VIEW)}" fill="white"/>')

    # normal-frame axes through the origin
    ox, oy = m.map((0.0, 0.0))
    parts.append(f'<line x1="0" y1="{_fmt(oy)}" x2="{int(VIEW)}" y2="{_fmt(oy)}" '
                 f'stroke="#cccccc" stroke-width="1"/>')
    parts.append(f'<line x1="{_fmt(ox)}" y1="0" x2="{_fmt(ox)}" y2="{int(VIEW)}" '
                 f'stroke="#cccccc" stroke-width="1"/>')

    coords, tag = m.polyline(indicatrix_points, closed=True)
    parts.append(f'<{tag} points="{coords}" fill="none" stroke="#1f77b4" '
                 f'stroke-width="2" class="indicatrix"/>')

    for pts_c, closed in characteristic_polylines:
        if len(pts_c) < 2:
            continue
        coords, tag = m.polyline(pts_c, closed=closed)
        parts.append(f'<{tag} points="{coords}" fill="none" stroke="#d62728" '
                     f'stroke-width="2" class="characteristic"/>')

    for b in binormals:
        tip = (arrow_len * b[0], arrow_len * b[1])
        tx, ty = m.map(tip)
        parts.append(f'<line x1="{_fmt(ox)}" y1="{_fmt(oy)}" x2="{_fmt(tx)}" '
                     f'y2="{_fmt(ty)}" stroke="#2ca02c" stroke-width="2" '
                     f'class="binormal"/>')
        # arrow head: two short strokes back from the tip
        d = np.array([tx - ox, ty - oy])
        n = float(np.hypot(d[0], d[1]))
        if n > 0:
            d = d / n
            left = (-d[0] + d[1], -d[1] - d[0])
            right = (-d[0] - d[1], -d[1] + d[0])
            for wing in (left, right):
                parts.append(
                    f'<line x1="{_fmt(tx)}" y1="{_fmt(ty)}" '
                    f'x2="{_fmt(tx + 8.0 * wing[0])}" y2="{_fmt(ty + 8.0 * wing[1])}" '
                    f'stroke="#2ca02c" stroke-width="2" class="binormal"/>')

    parts.append(f'<circle cx="{_fmt(ox)}" cy="{_fmt(oy)}" r="4" fill="black" '
                 f'class="origin"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
