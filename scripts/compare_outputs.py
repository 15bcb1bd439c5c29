#!/usr/bin/env python3
"""Compare the outputs of this tree's monge4 with those of another source
tree.

    python3 scripts/compare_outputs.py OTHER_SRC [--res N] [--at X,Y ...]
                                       [--surface FILE ...]
                                       [--point-queries SEED ...]
                                       [--locus-search SEED ...] [--peak]

Runs ``analyze``, ``plot`` and ``height`` at each ``--at`` point (default
0,0 and 0.25,-0.2) and ``grid``, ``selfcheck``, ``trace`` and ``inflections``
at ``--res`` (default 128) on the surfaces of ``fixture_gallery.py``, the
polynomial surface of the golden tests and two transcendental surfaces, or on
the given surface files instead.  ``height`` is no subcommand but the
benchmark's point-queries ``height`` job: the degenerate normals of the
point and the height singularity of each.  ``--point-queries SEED`` adds
the surfaces of one round of the benchmark's point-queries workload for
that seed, as ``perfbench/workloads.py`` draws them, with ``analyze``,
``plot`` and ``height`` at each of their 24 points, and ``--locus-search
SEED`` the three surfaces of one round of its locus-search workload, with
``trace`` and ``inflections`` at the workload's resolution (256).  Every
command runs twice, in one subprocess with this tree's ``src`` on the
import path and in one with OTHER_SRC.
Prints, for each surface and subcommand, ``same`` or the first differing
line; the exit code and the error output count as lines too.  A failure
both trees share prints as ``same`` followed by its exit code, such as
``same (exit 4)``.  With ``--peak``, each line ends with the job's
tracemalloc peak in this tree and in OTHER_SRC, such as ``same, peak 6.58
vs 8.96 MB``: the peak of a second run of the job, after the compared one,
so that compiling the surface's jet kernels is not counted.  Exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the surface of GOLDEN_TEXT in tests/test_cli.py
GOLDEN = ("1.5*x^2 + 0.5*y^2", "2*x*y + 0.3*y^3", "-1 1 -1 1")
# products and compositions of functions of one coordinate each, a term in
# both (cos(2*x+y)), quotients, roots and non-integer powers; both trace a
# parabolic curve
TRANSCENDENTAL = {
    "trig": ("sin(3*x)*cos(2*y) + 0.6*x^2*y",
             "cos(2*x+y) + 0.3*x*y^2 - 0.2*y^3", "-1 1 -1 1"),
    "transcendental": ("exp(0.5*x)*sqrt(2 + y) + tan(0.3*x)/(1.5 + y)",
                       "log(2 + x)*(2 + y)^1.5 - 0.4*x*y^2", "-1 1 -1 1"),
}
WRITES_FILE = ("plot", "grid", "trace")


def _height(path, at):
    """Exit code and output of the benchmark's point-queries ``height`` job
    (``perfbench/worker.py``) at the point ``at``; exit 4 and the error on a
    package error."""
    import monge4
    from worker import _run_job
    x, y = (float(v) for v in at.split(","))
    try:
        return _run_job({"kind": "height", "surface": "s", "at": (x, y)},
                        {"surfaces": {"s": {"path": path}}},
                        {"s": monge4.parse_surface_file(path)}, None)
    except monge4.errors.Monge4Error as exc:
        return 4, f"{type(exc).__name__}: {exc}\n"


def _run_one(argv, out_path):
    """Exit code, output and error output of one job, as one text."""
    from monge4.cli import run
    if argv[0] == "height":
        code, text = _height(*argv[1:])
        return f"exit {code}\n{text}"
    out_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    writes = argv[0] in WRITES_FILE
    code = run(argv + (["--out", str(out_path)] if writes else []),
               out=out, err=err)
    text = out.getvalue()
    if writes and out_path.exists():
        text += out_path.read_text(encoding="utf-8")
    return f"exit {code}\n{text}{err.getvalue()}"


def _worker(peak):
    """Run the jobs read as JSON from stdin with the monge4 on the import
    path; print {"outputs": {key: the text of :func:`_run_one`}, "peaks":
    {key: tracemalloc peak in bytes}} as JSON, the peaks only with
    ``peak``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    outputs, peaks = {}, {}
    with tempfile.TemporaryDirectory() as work:
        out_path = pathlib.Path(work) / "out"
        for key, argv in json.load(sys.stdin):
            outputs[key] = _run_one(argv, out_path)
            if peak:
                tracemalloc.start()
                _run_one(argv, out_path)
                peaks[key] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
    json.dump({"outputs": outputs, "peaks": peaks}, sys.stdout)


def _run_jobs(src, jobs, peak=False):
    env = dict(os.environ, PYTHONPATH=str(src))
    r = subprocess.run([sys.executable, __file__, "--worker",
                        *(["--peak"] if peak else [])],
                       input=json.dumps(jobs), capture_output=True, text=True,
                       env=env, check=False)
    if r.returncode != 0:
        sys.exit(f"compare_outputs: the run under {src} failed:\n{r.stderr}")
    return json.loads(r.stdout)


def _surfaces(work):
    from fixture_gallery import SURFACES
    table = dict(SURFACES, golden=GOLDEN, **TRANSCENDENTAL)
    paths = {}
    for name, (phi, psi, domain) in table.items():
        path = pathlib.Path(work) / f"{name}.surf"
        path.write_text(f"phi = {phi}\npsi = {psi}\ndomain = {domain}\n",
                        encoding="utf-8")
        paths[name] = str(path)
    return paths


def _workload_jobs(work, workload, seed):
    """The jobs of one round of the benchmark's ``workload`` for ``seed``,
    on its surfaces written to ``work``: a job at a point is keyed by it,
    a grid job runs at its resolution."""
    from workloads import make_spec, surface_file_text
    spec = make_spec(workload, seed)
    paths = {}
    for name, surface in spec["surfaces"].items():
        paths[name] = pathlib.Path(work) / f"{workload}-{seed}-{name}.surf"
        paths[name].write_text(surface_file_text(surface), encoding="utf-8")
    jobs = []
    for job in spec["jobs"]:
        path, kind = str(paths[job["surface"]]), job["kind"]
        key = f"{workload} {seed} {job['surface']} {kind}"
        if "at" not in job:
            jobs.append((key, [kind, "--surface", path,
                               "--res", str(job["res"])]))
            continue
        at = "{!r},{!r}".format(*job["at"])
        jobs.append((f"{key} {at}", ["height", path, at] if kind == "height"
                     else [kind, "--surface", path, f"--at={at}"]))
    return jobs


def _first_difference(mine, theirs):
    a, b = mine.splitlines(), theirs.splitlines()
    for i in range(max(len(a), len(b))):
        u = a[i] if i < len(a) else "<end>"
        v = b[i] if i < len(b) else "<end>"
        if u != v:
            return f"line {i + 1}: {u!r} vs {v!r}"
    return None


def _verdict(mine, theirs):
    """``same``, with the exit code when it is not 0, or the first
    difference."""
    difference = _first_difference(mine, theirs)
    if difference is not None:
        return difference
    code = mine.split("\n", 1)[0]
    return "same" if code == "exit 0" else f"same ({code})"


def main(argv=None):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from monge4.cli import _attach_negative_points
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", type=pathlib.Path)
    parser.add_argument("--res", type=int, default=128)
    parser.add_argument("--at", action="append",
                        help="point X,Y of analyze, plot and height "
                             "(repeatable)")
    parser.add_argument("--surface", action="append",
                        help="surface file in place of the gallery (repeatable)")
    parser.add_argument("--point-queries", type=int, action="append",
                        default=[], metavar="SEED",
                        help="add the benchmark's point-queries surfaces and "
                             "points for SEED (repeatable)")
    parser.add_argument("--locus-search", type=int, action="append",
                        default=[], metavar="SEED",
                        help="add trace and inflections on the benchmark's "
                             "locus-search surfaces for SEED (repeatable)")
    parser.add_argument("--peak", action="store_true",
                        help="also print each job's tracemalloc peak in "
                             "both trees")
    # --at -0.7,0.45 as the CLI takes it
    args = parser.parse_args(_attach_negative_points(
        sys.argv[1:] if argv is None else argv))
    points = args.at or ["0,0", "0.25,-0.2"]
    with tempfile.TemporaryDirectory() as work:
        surfaces = ({path: path for path in args.surface} if args.surface
                    else _surfaces(work))
        jobs = []
        for name, path in surfaces.items():
            for command in ("analyze", "plot"):
                jobs += [(f"{name} {command} {at}",
                          [command, "--surface", path, f"--at={at}"])
                         for at in points]
            jobs += [(f"{name} height {at}", ["height", path, at])
                     for at in points]
            jobs += [(f"{name} {command}",
                      [command, "--surface", path, "--res", str(args.res)])
                     for command in ("grid", "selfcheck", "trace", "inflections")]
        for seed in args.point_queries:
            jobs += _workload_jobs(work, "point-queries", seed)
        for seed in args.locus_search:
            jobs += _workload_jobs(work, "locus-search", seed)
        mine = _run_jobs(ROOT / "src", jobs, args.peak)
        theirs = _run_jobs(args.other_src, jobs, args.peak)
    differ = 0
    for key, _ in jobs:
        verdict = _verdict(mine["outputs"][key], theirs["outputs"][key])
        differ += not verdict.startswith("same")
        if args.peak:
            verdict += ", peak {:.2f} vs {:.2f} MB".format(
                mine["peaks"][key] / 2 ** 20, theirs["peaks"][key] / 2 ** 20)
        print(f"{key}: {verdict}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(sys.argv[2:] == ["--peak"])
    else:
        sys.exit(main())
