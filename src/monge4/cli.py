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
digits), the text of ``repr(float(v) + 0.0)``: by :func:`_fmt` one at a time
in the scalar records of analyze, inflections and selfcheck, and by
:mod:`monge4.floattext` a block of lines at a time in the grid and trace
CSVs.  CSV uses comma separators, '.' decimal points, LF line endings and a
header row.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys
import warnings

import numpy as np

from . import classify as cls
from . import conics, floattext, locus
from .errors import (CrossCheckError, EvaluationError, InflectionPointError,
                     Monge4Error, SeedCapWarning, SurfaceFileError)
from .localgeom import (CROSS_CHECKS, SurfaceSpec, check_invariants,
                        coeff_norm, grid_axes, grid_tiles, invariant_grid,
                        local_invariants)
from .surfacefile import parse_surface_file
from .svgplot import render_normal_plane

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_USAGE = 2
EXIT_SURFACE_FILE = 3
EXIT_NUMERICAL = 4

RES_MIN, RES_MAX = 16, 4096


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
                   rel: float) -> list[tuple[str, str]]:
    """The analyze subcommand's record as ordered (key, value) pairs."""
    inv = local_invariants(surface, x, y)
    c = cls.classify_point(inv, rel)
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
        "class": c.label,
        "inflection_type": (c.label.k_type if c.label.kind == "inflection"
                            else "none"),
        "rank_m": str(c.label.rank),
        "circle": _fmt_bool(c.is_circle),
        "minimal": _fmt_bool(c.is_minimal),
        "umbilic": _fmt_bool(c.is_umbilic),
        "wintgen_gap": _fmt(conics.wintgen_gap(inv)),
        "semi_axis_major": _fmt(ind.semi_axis_major),
        "semi_axis_minor": _fmt(ind.semi_axis_minor),
        "indicatrix_degenerate": _fmt_bool(ind.degenerate),
    }
    try:
        asym = cls.asymptotic_directions(inv, rel)
        rec["asymptotic_count"] = str(len(asym))
    except InflectionPointError:
        asym = []
        rec["asymptotic_count"] = "all"
    try:
        bins = cls.binormals(inv, rel)
    except InflectionPointError:   # an inflection, or every normal degenerate
        bins = []
    for i in range(2):
        u = asym[i] if i < len(asym) else (float("nan"), float("nan"))
        b = bins[i] if i < len(bins) else (float("nan"), float("nan"))
        rec[f"asym{i}_u1"] = _fmt(u[0])
        rec[f"asym{i}_u2"] = _fmt(u[1])
        rec[f"binormal{i}_n1"] = _fmt(b[0])
        rec[f"binormal{i}_n2"] = _fmt(b[1])
    rec["indicatrix_conic_defined"] = _fmt_bool(not ind.degenerate)
    rec["characteristic_kind"] = "none"
    qi = qc = np.full((3, 3), np.nan)
    if not ind.degenerate:
        qi = conics.indicatrix_conic(ind).matrix
        ch = conics.characteristic_conic(ind, rel)
        qc, rec["characteristic_kind"] = ch.matrix, ch.kind
    for tag, m in (("ind", qi), ("char", qc)):
        for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
            rec[f"{tag}_q{i + 1}{j + 1}"] = _fmt(m[i, j])
    return [(k, rec[k]) for k in ANALYZE_KEYS]


def _cmd_analyze(surface, args, out):
    x, y = _parse_point(args.at, surface)
    for key, value in analyze_record(surface, x, y, args.tol):
        out.write(f"{key}={value}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

# lines of grid CSV formatted at a time, in whole y-rows: large enough that
# numpy's per-call cost is small, small enough that a block's text and its
# temporaries stay far below the grid itself.  In process on a 2-vCPU Xeon,
# grid --res 512 on the benchmark's trig surface took 0.29, 0.27, 0.26,
# 0.33 and 0.38 s at 2^10 to 2^14 lines (least of 5 runs)
BLOCK_LINES = 2 ** 12

_LABEL_TEXT = floattext.text_table(cls.LABELS)


def grid_rows(surface: SurfaceSpec, res: int, rel: float):
    """The grid CSV after the header, as an iterator of its text in blocks
    of whole y-rows, about :data:`BLOCK_LINES` lines each: y varies in the
    outer loop, x in the inner one, from (xmin, ymin).

    Every node is evaluated, checked and classified before this returns;
    only K, kappa, Delta and the label code of each node are kept (25 bytes
    per node), and the lines are formatted as the iterator is read."""
    xs, ys = grid_axes(surface, res)
    K, kappa, delta = (np.empty((res, res)) for _ in range(3))
    codes = np.empty((res, res), dtype=np.uint8)
    for rows, where in grid_tiles(surface, res):
        fields = invariant_grid(surface, *where)
        check_invariants(fields, where)
        K[rows], kappa[rows], delta[rows] = fields.K, fields.kappa, fields.Delta
        codes[rows] = cls.class_codes_grid(fields, rel)
    return _grid_blocks(xs, ys, K, kappa, delta, codes)


def _grid_blocks(xs, ys, K, kappa, delta, codes):
    """The text of :func:`grid_rows`, formatted block by block."""
    res = len(xs)
    # the axes' text padded to its longest value, not to a whole slot
    x_text, y_text = (floattext.text_table(floattext.csv_lines(
        [floattext.float_slots(axis)]).splitlines()) for axis in (xs, ys))
    step = max(1, BLOCK_LINES // res)
    for j in range(0, res, step):
        cols = slice(j, j + step)
        # K, kappa and Delta of the block in one call, then a column each
        slots = floattext.float_slots(np.stack(
            [f[:, cols].T for f in (K, kappa, delta)], axis=-1))
        yield floattext.csv_lines(
            [x_text[None], y_text[cols, None],
             *slots.reshape(len(ys[cols]), res, 3, -1).transpose(2, 0, 1, 3),
             _LABEL_TEXT.take(codes[:, cols].T, axis=0)])


@contextlib.contextmanager
def _open_output(path):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise _UsageError(f"cannot write output: {exc}") from None


def _cmd_grid(surface, args, out):
    rows = grid_rows(surface, _check_res(args.res), args.tol)
    with _open_output(args.out) as fh:
        fh.write("x,y,K,kappa,Delta,class\n")
        fh.writelines(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# trace / inflections
# ---------------------------------------------------------------------------

def _cmd_trace(surface, args, out):
    polylines = locus.trace_parabolic(
        surface, _check_res(args.res), args.tol).polylines
    with _open_output(args.out) as fh:
        fh.write("polyline_id,vertex_id,x,y,delta_residual\n")
        if polylines:
            lengths = [len(pl.residuals) for pl in polylines]
            pid = np.repeat(np.arange(len(polylines)), lengths)
            starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
            x, y = np.concatenate([pl.points for pl in polylines]).T
            residuals = np.concatenate([pl.residuals for pl in polylines])
            fh.write(floattext.csv_lines(
                [floattext.int_slots(pid),
                 floattext.int_slots(np.arange(len(pid)) - starts),
                 *map(floattext.float_slots, (x, y, residuals))]))
    return EXIT_OK


def _cmd_inflections(surface, args, out):
    for rep in locus.find_inflections(surface, _check_res(args.res), args.tol):
        out.write(f"{_fmt(rep.x)} {_fmt(rep.y)} {rep.kind} {_fmt(rep.K)} "
                  f"{_fmt(rep.det_hessian_delta)} {_fmt(rep.residual)}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def _cmd_plot(surface, args, out):
    x, y = _parse_point(args.at, surface)
    inv = local_invariants(surface, x, y)
    ind = conics.indicatrix(inv)
    # everything times the 2^k of the scaled M, after clipping in true
    # units: the ellipse and the binormals are then the same for s phi,
    # s psi at every power of two s, but the characteristic curve, the
    # polar dual of the ellipse in the unit circle, scales like 1/s^2, and
    # the clip at 50 times the ellipse's extent keeps it only near s = 1
    ind_pts = conics.sample_indicatrix(ind.scaled, 256)
    char_polys = []
    if not ind.degenerate:
        clip = math.ldexp(50.0 * float(np.max(np.abs(ind_pts))), -ind.scaled.k)
        char_polys = [(np.ldexp(pts, ind.scaled.k), closed) for pts, closed
                      in conics.sample_characteristic(inv, 512, clip)]
    try:
        bins = cls.binormals(inv, args.tol)
    except InflectionPointError:
        bins = []
    svg = render_normal_plane(ind_pts, char_polys, bins,
                              title=f"normal plane at ({x}, {y})")
    with _open_output(args.out) as fh:
        fh.write(svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def selfcheck_report(surface: SurfaceSpec, res: int):
    """Every check of :data:`~monge4.localgeom.CROSS_CHECKS` over the grid.

    Returns (all_passed, list of (name, passed, worst) lines), where worst is
    the largest :meth:`~monge4.localgeom.CrossCheck.margin`, deviation minus
    bound, which passes where <= 0.  The grid is checked tile by tile
    (:func:`~monge4.localgeom.grid_tiles`); a check passes when it passes on
    every tile, and its worst margin is the largest of the tiles'.
    """
    passed = np.ones(len(CROSS_CHECKS), dtype=bool)
    worst = np.full(len(CROSS_CHECKS), -np.inf)
    for _, where in grid_tiles(surface, res):
        fields = invariant_grid(surface, *where, order=3)
        msq = coeff_norm(fields) ** 2
        for n, check in enumerate(CROSS_CHECKS):
            margin = check.margin(fields, msq, where)[0]
            passed[n] &= np.all(margin <= 0.0)
            worst[n] = np.maximum(worst[n], np.max(margin))
    checks = [(check.name, bool(p), float(w))
              for check, p, w in zip(CROSS_CHECKS, passed, worst)]
    return all(p for _, p, _ in checks), checks


def _cmd_selfcheck(surface, args, out):
    ok, checks = selfcheck_report(surface, _check_res(args.res))
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
        p.add_argument("--tol", type=float, default=cls.REL,
                       help=f"relative classification tolerance, finite and "
                            f">= 0 (default {cls.REL})")
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


def _run_command(surface, args, out, err):
    """The subcommand of ``args``, with each :class:`SeedCapWarning` it
    raises written to ``err`` as one line; any other warning is shown as
    it would be without this."""
    shown = warnings.showwarning

    def show(message, category, *where, **kwargs):
        if issubclass(category, SeedCapWarning):
            err.write(f"monge4: warning: {message}\n")
        else:
            shown(message, category, *where, **kwargs)

    with warnings.catch_warnings():
        warnings.simplefilter("always", SeedCapWarning)
        warnings.showwarning = show
        return _COMMANDS[args.command](surface, args, out)


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _build_parser().parse_args(_attach_negative_points(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    if not 0.0 <= args.tol < np.inf:  # nan, inf or < 0 would move every label
        err.write(f"monge4: --tol must be finite and >= 0, got {args.tol!r}\n")
        return EXIT_USAGE
    try:
        surface = parse_surface_file(args.surface)
    except (OSError, UnicodeDecodeError) as exc:
        err.write(f"monge4: cannot read surface file: {exc}\n")
        return EXIT_SURFACE_FILE
    except SurfaceFileError as exc:
        err.write(f"monge4: surface file error: {exc}\n")
        return EXIT_SURFACE_FILE
    try:
        return _run_command(surface, args, out, err)
    except _UsageError as exc:
        err.write(f"monge4: {exc}\n")
        return EXIT_USAGE
    except np.linalg.LinAlgError as exc:  # a ValueError, but not a usage error
        err.write(f"monge4: numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        err.write(f"monge4: {exc}\n")
        return EXIT_USAGE
    except (EvaluationError, CrossCheckError) as exc:
        err.write(f"monge4: numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except Monge4Error as exc:
        err.write(f"monge4: {exc}\n")
        return EXIT_NUMERICAL
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        detail = f": {exc}" if str(exc) else ""  # Python's own has no message
        err.write(f"monge4: out of memory{detail}\n")
        return EXIT_NUMERICAL
    except ArithmeticError as exc:  # Python float overflow or zero division
        err.write(f"monge4: numerical failure: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERICAL


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:  # on stdout; keep the flush at exit from retrying
        sys.stderr.write(f"monge4: cannot write output: {exc}\n")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
