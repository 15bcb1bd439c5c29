"""Output checks for every benchmark job, and the closed-form oracle they use.

A checker takes one job's output (text) and returns a list of problems; an
empty list means the output is correct.  The oracle evaluates the surfaces
of ``workloads.py`` from their term lists, with closed-form derivatives, and
classifies points with the package's documented default tolerances.  It
shares no code with the package.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import xml.etree.ElementTree as ET

import numpy as np

REL = 1e-8          # ToleranceSet().rel
RANK_RATIO = 1e-8   # ToleranceSet().rank_ratio
VALUE_TOL = 1e-9    # oracle vs program, relative to the value's scale
NEAR_BAND = 1e-6    # |Delta| / ||M||^4 below this: label may differ by rounding
RESIDUAL_BOUND = 1e-9   # trace vertices: |Delta| <= 1e-9 ||M||^4 (tests/test_locus.py)
NEWTON_ACCEPT = 1e-12   # inflection reports: scaled residual (tests/test_locus.py)

CLASSES = ("elliptic", "hyperbolic", "parabolic", "inflection_real",
           "inflection_flat", "inflection_imaginary")
HEIGHT_KINDS = ("nondegenerate", "fold", "cusp_or_higher", "umbilic_or_higher")

ANALYZE_KEYS = (
    "x", "y", "E", "F", "G", "W", "Ehat", "Fhat", "Ghat",
    "a", "b", "c", "e", "f", "g", "K", "kappa", "H3", "H4",
    "Delta", "nq0", "nq1", "nq2",
    "class", "inflection_type", "rank_m", "circle", "minimal", "umbilic",
    "wintgen_gap", "semi_axis_major", "semi_axis_minor",
    "indicatrix_degenerate", "asymptotic_count",
    "asym0_u1", "asym0_u2", "asym1_u1", "asym1_u2",
    "binormal0_n1", "binormal0_n2", "binormal1_n1", "binormal1_n2",
    "indicatrix_conic_defined",
    "ind_q11", "ind_q12", "ind_q13", "ind_q22", "ind_q23", "ind_q33",
    "characteristic_kind",
    "char_q11", "char_q12", "char_q13", "char_q22", "char_q23", "char_q33",
)

GRID_HEADER = "x,y,K,kappa,Delta,class"
TRACE_HEADER = "polyline_id,vertex_id,x,y,delta_residual"

_DIGESTS = pathlib.Path(__file__).with_name("label_digests.json")


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _factor(factor, t):
    kind, k = factor
    if kind == "pow":
        d1 = k * t ** (k - 1) if k >= 1 else np.zeros_like(t)
        d2 = k * (k - 1) * t ** (k - 2) if k >= 2 else np.zeros_like(t)
        return t ** k, d1, d2
    s, c = np.sin(k * t), np.cos(k * t)
    if kind == "sin":
        return s, k * c, -k * k * s
    if kind == "cos":
        return c, -k * s, -k * k * c
    v = np.exp(k * t)
    return v, k * v, k * k * v


def _derivatives(terms, x, y):
    """(fx, fy, fxx, fxy, fyy) of a sum of separable terms."""
    out = [np.zeros(np.broadcast(x, y).shape) for _ in range(5)]
    for coef, fx, fy in terms:
        u0, u1, u2 = _factor(fx, x)
        v0, v1, v2 = _factor(fy, y)
        for slot, val in enumerate((u1 * v0, u0 * v1, u2 * v0, u1 * v1, u0 * v2)):
            out[slot] = out[slot] + coef * val
    return out


def oracle(surface, x, y):
    """K, kappa, Delta, ||M||^2 and the class labels at the points (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    px, py, pxx, pxy, pyy = _derivatives(surface["phi_terms"], x, y)
    qx, qy, qxx, qxy, qyy = _derivatives(surface["psi_terms"], x, y)
    E = 1.0 + px * px + qx * qx
    F = px * py + qx * qy
    G = 1.0 + py * py + qy * qy
    W = E * G - F * F
    Eh = 1.0 + px * px + py * py
    Fh = px * qx + py * qy
    # second fundamental form along the Gram-Schmidt normal frame
    s1 = np.sqrt(Eh)
    sW = np.sqrt(W)
    a = pxx / (E * s1)
    b = (E * pxy - F * pxx) / (E * sW * s1)
    c = (E * E * pyy - 2 * E * F * pxy + F * F * pxx) / (E * W * s1)
    P, Q, R = (Eh * qxx - Fh * pxx, Eh * qxy - Fh * pxy, Eh * qyy - Fh * pyy)
    e = P / (E * s1 * sW)
    f = (E * Q - F * P) / (E * W * s1)
    g = (E * E * R - 2 * E * F * Q + F * F * P) / (E * W * sW * s1)
    K = a * c - b * b + e * g - f * f
    kappa = (a - c) * f - (e - g) * b
    delta = (a * c - b * b) * (e * g - f * f) - 0.25 * (a * g + c * e - 2 * b * f) ** 2
    msq = a * a + b * b + c * c + e * e + f * f + g * g
    # singular values of [[a, b, c], [e, f, g]]: their squares are the roots
    # of s^2 - msq s + det(M M^T), and det(M M^T) = |row1 x row2|^2 has no
    # cancellation, so the small one stays accurate near a rank drop
    gram = (b * g - c * f) ** 2 + (c * e - a * g) ** 2 + (a * f - b * e) ** 2
    disc = np.sqrt(np.maximum(msq * msq - 4 * gram, 0.0))
    s_hi = np.sqrt(0.5 * (msq + disc))
    s_lo = np.sqrt(gram) / np.maximum(s_hi, 1e-300)
    rank_low = (s_hi <= 1e-14) | (s_lo <= RANK_RATIO * s_hi)
    tau4, tau2 = REL * msq * msq, REL * msq
    labels = np.full(np.shape(delta), "parabolic", dtype=object)
    labels[delta > tau4] = "elliptic"
    labels[delta < -tau4] = "hyperbolic"
    infl = (np.abs(delta) <= tau4) & (np.abs(kappa) <= tau2) & rank_low
    labels[infl & (K < -tau2)] = "inflection_real"
    labels[infl & (K > tau2)] = "inflection_imaginary"
    labels[infl & (np.abs(K) <= tau2)] = "inflection_flat"
    return {"K": K, "kappa": kappa, "Delta": delta, "msq": msq,
            "rank_ratio": s_lo / np.maximum(s_hi, 1e-300),
            "near_band": np.abs(delta) <= NEAR_BAND * msq * msq, "labels": labels}


def _value_problems(name, got, want, scale):
    bad = np.abs(got - want) > VALUE_TOL * np.maximum(np.abs(want), scale)
    if np.any(bad):
        i = int(np.argmax(bad.ravel()))
        return [f"{name} differs from the oracle at {int(bad.sum())} points "
                f"(first: {got.ravel()[i]!r} vs {want.ravel()[i]!r})"]
    return []


def _label_problems(got, orc):
    bad = (np.asarray(got, dtype=object) != orc["labels"]) & ~orc["near_band"]
    if np.any(bad):
        i = int(np.argmax(bad.ravel()))
        return [f"class label differs from the oracle at {int(bad.sum())} points "
                f"(first: {np.asarray(got).ravel()[i]} vs {orc['labels'].ravel()[i]})"]
    return []


# ---------------------------------------------------------------------------
# grid and selfcheck
# ---------------------------------------------------------------------------

def label_digest(labels) -> str:
    return hashlib.sha256("\n".join(labels).encode()).hexdigest()


def reference_digest(seed: int, res: int):
    """Class-column digest of the seed commit for this seed, if recorded."""
    table = json.loads(_DIGESTS.read_text())
    if table["res"] != res:
        return None
    return table["digests"].get(str(seed))


def parse_grid(text: str):
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    header, rows = lines[0], lines[1:]
    if any(ln.count(",") != 5 for ln in rows):
        return header, None
    cut = [ln.rfind(",") for ln in rows]
    nums = ",".join([ln[:c] for ln, c in zip(rows, cut)]).split(",") if rows else []
    nums = np.array(list(map(float, nums))).reshape(-1, 5).T
    return header, {"x": nums[0], "y": nums[1], "K": nums[2], "kappa": nums[3],
                    "Delta": nums[4], "labels": [ln[c + 1:] for ln, c in zip(rows, cut)]}


def check_grid(parsed, surface, res, seed):
    header, g = parsed
    if header != GRID_HEADER:
        return [f"grid header {header!r}"]
    if g is None:
        return ["grid row without 6 fields"]
    if len(g["labels"]) != res * res:
        return [f"grid has {len(g['labels'])} rows, expected {res * res}"]
    xmin, xmax, ymin, ymax = surface["domain"]
    xs, ys = np.linspace(xmin, xmax, res), np.linspace(ymin, ymax, res)
    gx, gy = np.tile(xs, res), np.repeat(ys, res)   # y outer, x inner
    problems = []
    if not (np.array_equal(g["x"], gx) and np.array_equal(g["y"], gy)):
        problems.append("grid x/y columns are not the row-major axis values")
    orc = oracle(surface, gx, gy)
    problems += _value_problems("K", g["K"], orc["K"], orc["msq"])
    problems += _value_problems("kappa", g["kappa"], orc["kappa"], orc["msq"])
    problems += _value_problems("Delta", g["Delta"], orc["Delta"], orc["msq"] ** 2)
    problems += _label_problems(g["labels"], orc)
    want = reference_digest(seed, res)
    if want is not None and label_digest(g["labels"]) != want:
        problems.append("class-label digest differs from the seed commit's")
    return problems


def check_selfcheck(text: str, rc: int):
    lines = text.splitlines()
    problems = [] if rc == 0 else [f"selfcheck exit code {rc}"]
    if len(lines) != 6 or not all(ln.startswith("PASS ") for ln in lines):
        problems.append("selfcheck did not print six PASS lines")
    return problems


# ---------------------------------------------------------------------------
# trace and inflections
# ---------------------------------------------------------------------------

def check_trace(text: str, name: str, surface):
    lines = text.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        return ["trace header missing"]
    rows = [ln.split(",") for ln in lines[1:]]
    if not rows:
        return ["trace found no parabolic locus"]
    if any(len(r) != 5 for r in rows):
        return ["trace row without 5 fields"]
    pid = np.array([int(r[0]) for r in rows])
    vid = np.array([int(r[1]) for r in rows])
    pts = np.array([[float(r[2]), float(r[3]), float(r[4])] for r in rows])
    problems = []
    starts = np.r_[True, pid[1:] != pid[:-1]]
    expect_vid = np.arange(len(vid)) - np.maximum.accumulate(np.where(starts, np.arange(len(vid)), 0))
    if not (pid[0] == 0 and np.all(np.diff(pid) >= 0) and np.all(np.diff(pid) <= 1)
            and np.array_equal(vid, expect_vid)):
        problems.append("trace polyline/vertex ids are not consecutive")
    orc = oracle(surface, pts[:, 0], pts[:, 1])
    bound = RESIDUAL_BOUND * orc["msq"] ** 2
    if np.any(np.abs(orc["Delta"]) > bound) or np.any(pts[:, 2] > bound) \
            or np.any(pts[:, 2] < 0):
        problems.append("trace vertex residual above |Delta| <= 1e-9 ||M||^4")
    if name == "parabolic_loop":
        closed = [pts[pid == p, :2] for p in np.unique(pid)
                  if np.allclose(pts[pid == p][0, :2], pts[pid == p][-1, :2], atol=0.1)]
        radii = [np.hypot(c[:, 0], c[:, 1]) for c in closed]
        if len(np.unique(pid)) != 1 or not radii or not (
                radii[0].min() > 0.3 and radii[0].max() < 1.0):
            problems.append("parabolic_loop: expected one closed curve with radius in (0.3, 1)")
    return problems


def check_inflections(text: str, name: str, surface):
    reports = [ln.split(" ") for ln in text.splitlines()]
    if any(len(r) != 6 for r in reports):
        return ["inflections line without 6 fields"]
    problems = []
    for x, y, kind, k, det, resid in reports:
        x, y, k, resid = float(x), float(y), float(k), float(resid)
        orc = oracle(surface, x, y)
        want_kind = "real" if orc["K"] < 0 else "imaginary"
        if not (0 <= resid <= NEWTON_ACCEPT) or orc["rank_ratio"] > 1e-6 \
                or kind not in ("real", "flat", "imaginary") \
                or (kind != "flat" and kind != want_kind):
            problems.append(f"inflection at ({x}, {y}) fails the oracle")
    if name == "inflection_real":
        ok = (len(reports) == 1 and reports[0][2] == "real"
              and abs(float(reports[0][0])) <= 1e-6 and abs(float(reports[0][1])) <= 1e-6)
        if not ok:
            problems.append("inflection_real: expected exactly one real point at (0, 0)")
    if name == "parabolic_loop" and reports:
        problems.append("parabolic_loop: expected no inflection")
    return problems


# ---------------------------------------------------------------------------
# point queries
# ---------------------------------------------------------------------------

def _point_oracle(surface, at):
    orc = oracle(surface, np.array([at[0]]), np.array([at[1]]))
    return {k: v[0] for k, v in orc.items()}


def _expected_count(orc):
    """Asymptotic directions / degenerate normals: 2, 0 or unknown (None)."""
    if orc["near_band"]:
        return None
    return 2 if orc["Delta"] < 0 else 0


def check_analyze(text: str, surface, at):
    pairs = [ln.split("=", 1) for ln in text.splitlines()]
    keys = tuple(p[0] for p in pairs)
    if keys != ANALYZE_KEYS or any(len(p) != 2 for p in pairs):
        return ["analyze did not print the 56 record keys in order"]
    rec = dict(pairs)
    orc = _point_oracle(surface, at)
    problems = []
    if (float(rec["x"]), float(rec["y"])) != tuple(at):
        problems.append("analyze x/y differ from the query point")
    for key, scale in (("K", orc["msq"]), ("kappa", orc["msq"]),
                       ("Delta", orc["msq"] ** 2)):
        problems += _value_problems(key, np.array([float(rec[key])]),
                                    np.array([orc[key]]), scale)
    if rec["class"] not in CLASSES or (not orc["near_band"] and rec["class"] != orc["labels"]):
        problems.append(f"analyze class {rec['class']} vs oracle {orc['labels']}")
    want = _expected_count(orc)
    if want is not None and rec["asymptotic_count"] != str(want):
        problems.append(f"analyze asymptotic_count {rec['asymptotic_count']}, expected {want}")
    return problems


def check_plot(text: str, surface, at):
    try:
        root = ET.fromstring(text.encode())
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    problems = []
    if root.tag != ns + "svg" or root.get("viewBox") != "0 0 800 800":
        problems.append("SVG root is not an 800x800 svg element")
    if not [el for el in root.iter() if el.get("class") == "indicatrix"]:
        problems.append("SVG has no indicatrix")
    arrows = sum(1 for el in root.iter(ns + "line") if el.get("class") == "binormal")
    want = _expected_count(_point_oracle(surface, at))
    if want is not None and arrows != 3 * want:
        problems.append(f"SVG draws {arrows // 3} binormals, expected {want}")
    return problems


def check_height(text: str, surface, at):
    lines = text.splitlines()
    if lines == ["inflection"]:
        return [] if _point_oracle(surface, at)["near_band"] else \
            ["height: inflection reported away from Delta = 0"]
    problems = []
    for ln in lines:
        parts = ln.split(" ")
        if len(parts) != 3 or parts[2] not in HEIGHT_KINDS:
            return [f"height line {ln!r}"]
        n = np.array([float(parts[0]), float(parts[1])])
        if abs(np.hypot(*n) - 1.0) > 1e-12:
            problems.append("height normal is not a unit vector")
        if parts[2] not in ("fold", "cusp_or_higher"):
            problems.append(f"height type {parts[2]} at a degenerate normal")
    want = _expected_count(_point_oracle(surface, at))
    if want is not None and len(lines) != want:
        problems.append(f"height: {len(lines)} degenerate normals, expected {want}")
    return problems


def check_job(job, text, rc, surface, seed):
    """Problems with one job's output; ``text`` is its file or stdout."""
    kind = job["kind"]
    if rc != 0 and kind != "selfcheck":
        return [f"{kind} exit code {rc}"]
    if kind == "grid":
        return check_grid(parse_grid(text), surface, job["res"], seed)
    if kind == "selfcheck":
        return check_selfcheck(text, rc)
    if kind == "trace":
        return check_trace(text, job["surface"], surface)
    if kind == "inflections":
        return check_inflections(text, job["surface"], surface)
    if kind == "analyze":
        return check_analyze(text, surface, job["at"])
    if kind == "plot":
        return check_plot(text, surface, job["at"])
    return check_height(text, surface, job["at"])


def corrupt(job, text):
    """One deliberately wrong version of a correct output, for the self-test
    that the checker flags it."""
    kind = job["kind"]
    if kind == "grid":
        lines = text.split("\n")
        row = lines[1 + len(lines) // 2].rsplit(",", 1)
        row[1] = "elliptic" if row[1] == "hyperbolic" else "hyperbolic"
        lines[1 + len(lines) // 2] = ",".join(row)
        return "\n".join(lines)
    if kind == "selfcheck":
        return text.replace("PASS", "FAIL", 1)
    if kind == "trace":
        lines = text.splitlines()
        row = lines[-1].split(",")
        row[2] = repr(float(row[2]) + 1e-3)
        return "\n".join(lines[:-1] + [",".join(row)]) + "\n"
    if kind == "inflections":
        return text.replace(" real ", " flat ", 1) if " real " in text else \
            "0.0 0.0 real -1.0 1.0 0.0\n" + text
    if kind == "analyze":
        lines = text.splitlines()
        return "\n".join(lines[:20] + lines[21:]) + "\n"
    if kind == "plot":
        return text[: len(text) // 2]
    return "0.6 0.8 nondegenerate\n" + text
