"""Command-line front end.

Subcommands::

    analyze     --surface F --at X,Y          pointwise record, key=value lines
    grid        --surface F --res N --out F   CSV of K, kappa, Delta, class
    trace       --surface F --res N --out F   parabolic-locus polylines as CSV
    inflections --surface F --res N           inflection reports, one per line
    plot        --surface F --at X,Y --out F  SVG of the normal plane
    selfcheck   --surface F --res N           cross-formula invariant suite

Exit codes: 0 success, 1 selfcheck failure, 2 usage error (including an
unwritable output path), 3 surface file parse error, 4 numerical failure
(including overflow, linear-algebra failures and running out of memory).
Reals are printed in shortest round-trip form (at most 17 significant
digits); CSV uses comma separators, '.' decimal points, LF line endings and
a header row.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import classify as cls
from . import conics, locus
from .errors import (CrossCheckError, DegenerateIndicatrixError,
                     DegenerateMetricError, EvaluationError,
                     InflectionPointError, Monge4Error, SurfaceFileError)
from .localgeom import (SurfaceSpec, brioschi_field, coeff_norm,
                        delta_resultant, invariant_grid, local_invariants)
from .surfacefile import parse_surface_file
from .svgplot import render_normal_plane

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_USAGE = 2
EXIT_SURFACE_FILE = 3
EXIT_NUMERICAL = 4

RES_MIN, RES_MAX = 16, 4096


@dataclass(frozen=True)
class RunConfig:
    surface_path: str
    command: str
    resolution: int | None = None
    at: str | None = None          # raw "X,Y"; validated against the domain
    out_path: str | None = None
    tolerances: cls.ToleranceSet = cls.DEFAULT_TOL


def _fmt(v) -> str:
    return repr(float(v) + 0.0)  # normalizes -0.0


def _fmt_bool(v) -> str:
    return "true" if v else "false"


class _UsageError(Exception):
    pass


def _parse_point(text: str, surface: SurfaceSpec):
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"--at expects 'X,Y', got {text!r}")
    try:
        x, y = float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"--at expects numbers, got {text!r}") from None
    if not surface.contains(x, y):
        raise _UsageError(
            f"point ({x}, {y}) outside declared domain {surface.domain}")
    return x, y


def _check_res(res: int) -> int:
    if not (RES_MIN <= res <= RES_MAX):
        raise _UsageError(f"resolution must be in [{RES_MIN}, {RES_MAX}]")
    return res


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

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


def analyze_record(surface: SurfaceSpec, x: float, y: float,
                   tol: cls.ToleranceSet) -> list[tuple[str, str]]:
    """The analyze subcommand's record as ordered (key, value) pairs."""
    inv = local_invariants(surface, x, y)
    c = cls.classify_point(inv, tol)
    ind = conics.indicatrix(inv)
    rec = {
        "x": _fmt(inv.x), "y": _fmt(inv.y),
        "E": _fmt(inv.E), "F": _fmt(inv.F), "G": _fmt(inv.G), "W": _fmt(inv.W),
        "Ehat": _fmt(inv.Ehat), "Fhat": _fmt(inv.Fhat), "Ghat": _fmt(inv.Ghat),
        "a": _fmt(inv.a), "b": _fmt(inv.b), "c": _fmt(inv.c),
        "e": _fmt(inv.e), "f": _fmt(inv.f), "g": _fmt(inv.g),
        "K": _fmt(inv.K), "kappa": _fmt(inv.kappa),
        "H3": _fmt(inv.H[0]), "H4": _fmt(inv.H[1]),
        "Delta": _fmt(inv.Delta),
        "nq0": _fmt(inv.nq0), "nq1": _fmt(inv.nq1), "nq2": _fmt(inv.nq2),
        "class": cls.class_label(c),
        "inflection_type": c.inflection_type or "none",
        "rank_m": str(c.rank_m),
        "circle": _fmt_bool(c.is_circle),
        "minimal": _fmt_bool(c.is_minimal),
        "umbilic": _fmt_bool(c.is_umbilic),
        "wintgen_gap": _fmt(conics.wintgen_gap(inv)),
        "semi_axis_major": _fmt(ind.semi_axis_major),
        "semi_axis_minor": _fmt(ind.semi_axis_minor),
        "indicatrix_degenerate": _fmt_bool(ind.degenerate),
    }
    try:
        asym = cls.asymptotic_directions(inv, tol)
        bins = cls.binormals(inv, tol)
        rec["asymptotic_count"] = str(len(asym))
    except InflectionPointError:
        asym, bins = [], []
        rec["asymptotic_count"] = "all"
    for i in range(2):
        u = asym[i] if i < len(asym) else (float("nan"), float("nan"))
        b = bins[i] if i < len(bins) else (float("nan"), float("nan"))
        rec[f"asym{i}_u1"] = _fmt(u[0])
        rec[f"asym{i}_u2"] = _fmt(u[1])
        rec[f"binormal{i}_n1"] = _fmt(b[0])
        rec[f"binormal{i}_n2"] = _fmt(b[1])
    if ind.degenerate:
        rec["indicatrix_conic_defined"] = "false"
        for key in ("ind_q11", "ind_q12", "ind_q13", "ind_q22", "ind_q23",
                    "ind_q33", "char_q11", "char_q12", "char_q13", "char_q22",
                    "char_q23", "char_q33"):
            rec[key] = "nan"
        rec["characteristic_kind"] = "none"
    else:
        qi = conics.indicatrix_conic(ind).matrix
        ch = conics.characteristic_conic(ind)
        qc = ch.matrix
        rec["indicatrix_conic_defined"] = "true"
        rec["characteristic_kind"] = ch.kind
        for tag, m in (("ind", qi), ("char", qc)):
            rec[f"{tag}_q11"] = _fmt(m[0, 0])
            rec[f"{tag}_q12"] = _fmt(m[0, 1])
            rec[f"{tag}_q13"] = _fmt(m[0, 2])
            rec[f"{tag}_q22"] = _fmt(m[1, 1])
            rec[f"{tag}_q23"] = _fmt(m[1, 2])
            rec[f"{tag}_q33"] = _fmt(m[2, 2])
    return [(k, rec[k]) for k in ANALYZE_KEYS]


def _cmd_analyze(surface, cfg, out):
    x, y = _parse_point(cfg.at, surface)
    for key, value in analyze_record(surface, x, y, cfg.tolerances):
        out.write(f"{key}={value}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def _grid_axes(surface, res):
    xmin, xmax, ymin, ymax = surface.domain
    return np.linspace(xmin, xmax, res), np.linspace(ymin, ymax, res)


def _fmt_column(values: np.ndarray) -> list[str]:
    """:func:`_fmt` over a float array, in one pass."""
    return list(map(repr, (values + 0.0).tolist()))


def grid_rows(surface: SurfaceSpec, res: int, tol: cls.ToleranceSet) -> list[str]:
    """Lines of the grid CSV after the header, row-major from (xmin, ymin):
    y varies in the outer loop, x in the inner one."""
    xs, ys = _grid_axes(surface, res)
    fields = invariant_grid(surface, xs[:, None], ys[None, :])
    labels = cls.class_labels_grid(fields, tol)
    x_text = _fmt_column(xs)
    lines = []
    for j, y in enumerate(_fmt_column(ys)):
        lines += [f"{x},{y},{k},{kap},{delta},{label}\n"
                  for x, k, kap, delta, label in zip(
                      x_text, _fmt_column(fields.K[:, j]),
                      _fmt_column(fields.kappa[:, j]),
                      _fmt_column(fields.Delta[:, j]), labels[:, j].tolist())]
    return lines


def _open_output(path):
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _UsageError(f"cannot write output: {exc}") from None


def _cmd_grid(surface, cfg, out):
    res = _check_res(cfg.resolution)
    lines = grid_rows(surface, res, cfg.tolerances)
    with _open_output(cfg.out_path) as fh:
        fh.write("x,y,K,kappa,Delta,class\n")
        fh.writelines(lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# trace / inflections
# ---------------------------------------------------------------------------

def _cmd_trace(surface, cfg, out):
    res = _check_res(cfg.resolution)
    result = locus.trace_parabolic(surface, res, cfg.tolerances)
    with _open_output(cfg.out_path) as fh:
        fh.write("polyline_id,vertex_id,x,y,delta_residual\n")
        for pid, pl in enumerate(result.polylines):
            for vid in range(len(pl.points)):
                fh.write(f"{pid},{vid},{_fmt(pl.points[vid, 0])},"
                         f"{_fmt(pl.points[vid, 1])},{_fmt(pl.residuals[vid])}\n")
    return EXIT_OK


def _cmd_inflections(surface, cfg, out):
    res = _check_res(cfg.resolution)
    for rep in locus.find_inflections(surface, res, cfg.tolerances):
        out.write(f"{_fmt(rep.x)} {_fmt(rep.y)} {rep.kind} {_fmt(rep.K)} "
                  f"{_fmt(rep.det_hessian_delta)} {_fmt(rep.residual)}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def _cmd_plot(surface, cfg, out):
    x, y = _parse_point(cfg.at, surface)
    inv = local_invariants(surface, x, y)
    ind = conics.indicatrix(inv)
    ind_pts = conics.sample_indicatrix(inv, 256)
    char_polys = []
    if not ind.degenerate:
        clip = 50.0 * max(1e-9, float(np.max(np.abs(ind_pts))))
        char_polys = conics.sample_characteristic(inv, 512, clip)
    try:
        bins = cls.binormals(inv, cfg.tolerances)
    except InflectionPointError:
        bins = []
    svg = render_normal_plane(ind_pts, char_polys, bins,
                              title=f"normal plane at ({x}, {y})")
    with _open_output(cfg.out_path) as fh:
        fh.write(svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def selfcheck_report(surface: SurfaceSpec, res: int):
    """Cross-formula invariant suite over the grid.

    Returns (all_passed, list of (name, passed, worst) lines).
    """
    xs, ys = _grid_axes(surface, res)
    fields = invariant_grid(surface, xs[:, None], ys[None, :],
                            cross_check=False)
    msq = np.asarray(coeff_norm(fields)) ** 2
    checks = []

    def add(name, diff, bound):
        worst = float(np.max(diff - bound))
        checks.append((name, bool(np.all(diff <= bound)), worst))

    def rel_bound(u, v, rel, scale):
        return rel * np.maximum(np.maximum(np.abs(u), np.abs(v)), scale)

    add("K coefficient vs closed form",
        np.abs(fields.K - fields.K_closed),
        rel_bound(fields.K, fields.K_closed, 1e-9, msq))
    add("kappa coefficient vs closed form",
        np.abs(fields.kappa - fields.kappa_closed),
        rel_bound(fields.kappa, fields.kappa_closed, 1e-9, msq))
    delta_det = delta_resultant(fields.a, fields.b, fields.c,
                                fields.e, fields.f, fields.g)
    add("Delta expansion vs resultant determinant",
        np.abs(fields.Delta - delta_det),
        rel_bound(fields.Delta, delta_det, 1e-9, msq * msq))
    gram = fields.Eh * fields.Gh - fields.Fh ** 2
    add("normal-frame Gram identity",
        np.abs(gram - fields.W), 1e-10 * np.abs(fields.W))
    kg = brioschi_field(fields.jet_phi, fields.jet_psi)
    add("Brioschi vs coefficient curvature",
        np.abs(kg - fields.K), rel_bound(kg, fields.K, 1e-8, msq))
    h1 = 0.5 * (fields.a + fields.c)
    h2 = 0.5 * (fields.e + fields.g)
    gap = h1 ** 2 + h2 ** 2 - fields.K - np.abs(fields.kappa)
    add("Wintgen inequality",
        -gap, 1e-10 * np.maximum(1.0, msq))
    return all(p for _, p, _ in checks), checks


def _cmd_selfcheck(surface, cfg, out):
    res = _check_res(cfg.resolution)
    ok, checks = selfcheck_report(surface, res)
    for name, passed, worst in checks:
        out.write(f"{'PASS' if passed else 'FAIL'} {name} "
                  f"(worst margin {_fmt(worst)})\n")
    return EXIT_OK if ok else EXIT_SELFCHECK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="monge4",
        description="Local second-order geometry of surfaces (x, y, phi, psi) "
                    "in R^4.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, point=False, res=False, outfile=False):
        p.add_argument("--surface", required=True,
                       help="surface description file (phi/psi/domain)")
        p.add_argument("--tol", type=float, default=1e-8,
                       help="relative classification tolerance (default 1e-8)")
        if point:
            p.add_argument("--at", required=True, help="point 'X,Y'")
        if res:
            p.add_argument("--res", type=int, default=256,
                           help=f"grid resolution per axis "
                                f"[{RES_MIN}, {RES_MAX}] (default 256)")
        if outfile:
            p.add_argument("--out", required=True, help="output path")

    common(sub.add_parser("analyze", help="pointwise invariants and conics"),
           point=True)
    common(sub.add_parser("grid", help="classification grid as CSV"),
           res=True, outfile=True)
    common(sub.add_parser("trace", help="parabolic locus polylines as CSV"),
           res=True, outfile=True)
    common(sub.add_parser("inflections", help="locate inflection points"),
           res=True)
    common(sub.add_parser("plot", help="normal-plane SVG at a point"),
           point=True, outfile=True)
    common(sub.add_parser("selfcheck", help="cross-formula invariant suite"),
           res=True)
    return parser


_COMMANDS = {
    "analyze": _cmd_analyze,
    "grid": _cmd_grid,
    "trace": _cmd_trace,
    "inflections": _cmd_inflections,
    "plot": _cmd_plot,
    "selfcheck": _cmd_selfcheck,
}


def _attach_negative_points(argv):
    """Rewrite ``--at -0.5,0`` as ``--at=-0.5,0``: argparse takes a separate
    value that starts with '-' and is not a plain number for an option."""
    argv = list(argv)
    out = []
    while argv:
        arg = argv.pop(0)
        if arg == "--at" and argv and re.match(r"-[0-9.]", argv[0]):
            arg = f"--at={argv.pop(0)}"
        out.append(arg)
    return out


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _build_parser().parse_args(_attach_negative_points(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        surface = parse_surface_file(args.surface)
    except FileNotFoundError as exc:
        err.write(f"monge4: cannot read surface file: {exc}\n")
        return EXIT_SURFACE_FILE
    except SurfaceFileError as exc:
        err.write(f"monge4: surface file error: {exc}\n")
        return EXIT_SURFACE_FILE
    cfg = RunConfig(
        surface_path=args.surface,
        command=args.command,
        resolution=getattr(args, "res", None),
        at=getattr(args, "at", None),
        out_path=getattr(args, "out", None),
        tolerances=cls.ToleranceSet(rel=args.tol),
    )
    try:
        return _COMMANDS[cfg.command](surface, cfg, out)
    except _UsageError as exc:
        err.write(f"monge4: {exc}\n")
        return EXIT_USAGE
    except np.linalg.LinAlgError as exc:  # a ValueError, but not a usage error
        err.write(f"monge4: numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        err.write(f"monge4: {exc}\n")
        return EXIT_USAGE
    except (EvaluationError, DegenerateMetricError, CrossCheckError) as exc:
        err.write(f"monge4: numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except (DegenerateIndicatrixError, Monge4Error) as exc:
        err.write(f"monge4: {exc}\n")
        return EXIT_NUMERICAL
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        err.write(f"monge4: out of memory: {exc}\n")
        return EXIT_NUMERICAL
    except ArithmeticError as exc:  # Python float overflow or zero division
        err.write(f"monge4: numerical failure: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERICAL


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
