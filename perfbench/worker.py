"""One workload in a fresh interpreter: the closed loop that ``run.py`` times.

    python3 perfbench/worker.py setup SPEC.json
        import monge4 and parse the workload's surface files; print the
        wall seconds and the host slowdown over them (see probe.py)
    python3 perfbench/worker.py loop SPEC.json RESULT.json SECONDS TRACE

``loop`` runs rounds of the workload's jobs, one at a time, until SECONDS
have passed (at least one round).  Round 0's outputs stay on disk for the
checks; later rounds record a digest of each output.  With TRACE 1, rounds
alternate untraced and traced, so the tracing overhead is measured on the
same jobs.  The result file holds per-job timings, digests, exit codes,
peak RSS and, when traced, per-round span totals.  Both modes run the host
speed probe of ``probe.py`` and record each timing's slowdown beside it.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import probe


def _setup(spec):
    probe.start()
    since = probe.mark()
    t0 = time.perf_counter()
    import monge4
    for s in spec["surfaces"].values():
        monge4.parse_surface_file(s["path"])
    wall = time.perf_counter() - t0
    probe.stop()
    print(json.dumps([wall, probe.slowdown(since)]))


def _run_job(job, spec, parsed, out_path):
    """Run one job; return (exit code, output text), or (exit code, None)
    when the output is the file at ``out_path``."""
    import io
    import monge4
    from monge4 import cli
    surface = spec["surfaces"][job["surface"]]
    kind = job["kind"]
    if kind == "height":
        x, y = job["at"]
        s = parsed[job["surface"]]
        inv = monge4.local_invariants(s, x, y)
        try:
            normals = monge4.degenerate_normals(inv)
        except monge4.errors.InflectionPointError:
            return 0, "inflection\n"
        lines = []
        for n in normals:
            h = monge4.classify_height(s, x, y, n)
            lines.append(f"{float(n[0])!r} {float(n[1])!r} {h.kind}\n")
        return 0, "".join(lines)
    argv = [kind, "--surface", surface["path"]]
    if "res" in job:
        argv += ["--res", str(job["res"])]
    if "at" in job:
        argv.append(f"--at={job['at'][0]!r},{job['at'][1]!r}")
    if kind in ("grid", "trace", "plot"):
        argv += ["--out", out_path]
    out, err = io.StringIO(), io.StringIO()
    rc = cli.run(argv, out=out, err=err)
    if rc != 0:
        return rc, out.getvalue() + err.getvalue()
    return rc, None if kind in ("grid", "trace", "plot") else out.getvalue()


def _loop(spec, result_path, seconds, trace):
    import hashlib
    import resource
    import monge4
    from tracing import Tracer

    work = pathlib.Path(spec["workdir"])
    parsed = {k: monge4.parse_surface_file(s["path"]) for k, s in spec["surfaces"].items()}
    tracer = Tracer() if trace else None
    ext = {"grid": "csv", "trace": "csv", "plot": "svg"}
    rounds, span_rounds, first_spans = [], [], None
    probe.start()
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline or (trace and len(span_rounds) == 0):
        traced = bool(trace) and r % 2 == 1
        if traced:
            tracer.install()
        jobs = []
        t_round = time.perf_counter()
        for i, job in enumerate(spec["jobs"]):
            out_path = str(work / f"job{i}.{ext.get(job['kind'], 'txt')}")
            since = probe.mark()
            t = time.perf_counter()
            try:
                if traced:
                    with tracer.job("bench.job"):
                        rc, text = _run_job(job, spec, parsed, out_path)
                else:
                    rc, text = _run_job(job, spec, parsed, out_path)
                error = None
            except Exception as exc:  # a failed job is counted, the loop goes on
                rc, text, error = None, "", f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t
            slowdown = probe.slowdown(since)
            data = pathlib.Path(out_path).read_bytes() if text is None else text.encode("utf-8")
            if r == 0:
                (work / f"job{i}.out").write_bytes(data)
            jobs.append({"wall_s": wall, "slowdown": slowdown, "rc": rc, "error": error,
                         "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()})
        round_wall = time.perf_counter() - t_round
        if traced:
            tracer.uninstall()
            totals, rows = tracer.take()
            totals["cli.output"] = {"bytes": sum(
                j["bytes"] for j, job in zip(jobs, spec["jobs"]) if job["kind"] != "height")}
            span_rounds.append(totals)
            if first_spans is None:
                first_spans = rows
        rounds.append({"traced": traced, "wall_s": round_wall, "jobs": jobs})
        r += 1
    probe.stop()
    result = {
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "span_rounds": span_rounds,
        "missing_targets": tracer.missing if tracer else [],
    }
    if first_spans is not None:
        spans_path = pathlib.Path(spec["spans_path"])
        with open(spans_path, "w", encoding="utf-8") as fh:
            for row in first_spans:
                fh.write(json.dumps(row) + "\n")
    pathlib.Path(result_path).write_text(json.dumps(result), encoding="utf-8")


def main(argv):
    mode, spec_path = argv[0], argv[1]
    spec = json.loads(pathlib.Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    if mode == "setup":
        _setup(spec)
    else:
        _loop(spec, argv[2], float(argv[3]), int(argv[4]))


if __name__ == "__main__":
    main(sys.argv[1:])
