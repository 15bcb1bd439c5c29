#!/usr/bin/env python3
"""The monge4 benchmark.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is grid-dense, locus-search, point-queries, or ``all`` for each in
turn.  The seed draws the surfaces and query points; the program sees only
the surface files and command lines.  Each workload runs in its own fresh
interpreter with BLAS pinned to one thread, as a closed loop of one client.
With ``--trace 0`` the last line is the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it is the per-layer metrics.  Lines above
it give every metric with its unit, the per-subcommand times, the output
checks and the environment.  See perfbench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170   # a run must end within 180 s

sys.path.insert(0, str(HERE))
from tracing import JET_BYTES_PER_POINT  # noqa: E402
from workloads import WORKLOADS, make_spec, surface_file_text  # noqa: E402

STAGE_UNITS = {"grid": "s", "selfcheck": "s", "trace": "s", "inflections": "s",
               "analyze": "ms", "plot": "ms", "height": "ms"}


def _median(values):
    return statistics.median(values) if values else 0.0


def _child(args, deadline):
    """Run worker.py in a fresh interpreter; return its stdout.  The child
    is killed, and waited for, if it is still running at ``deadline``."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{proc.stderr}")
    return proc.stdout


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine(), "git_commit": _git_commit(), "seed": seed}


def verify(spec, res, workdir):
    """Check round 0's outputs, and that later rounds reproduced them.

    Returns (attempted, failed, problems, selftest problems).
    """
    from checks import check_job, corrupt
    rounds = res["rounds"]
    problems, selftest, bad_jobs, tested_kinds = [], [], set(), set()
    for i, job in enumerate(spec["jobs"]):
        first = rounds[0]["jobs"][i]
        if first["error"]:
            found = [first["error"]]
        else:
            text = (workdir / f"job{i}.out").read_text(encoding="utf-8")
            surface = spec["surfaces"][job["surface"]]
            found = check_job(job, text, first["rc"], surface, spec["seed"])
            if not found and job["kind"] not in tested_kinds:
                tested_kinds.add(job["kind"])
                if not check_job(job, corrupt(job, text), first["rc"], surface, spec["seed"]):
                    selftest.append(f"checker missed a corrupted {job['kind']} output")
        if found:
            bad_jobs.add(i)
            problems += [f"job {i} ({job['kind']} {job['surface']}): {p}" for p in found]
    attempted = failed = 0
    for rnd in rounds:
        for i, run in enumerate(rnd["jobs"]):
            attempted += 1
            if i in bad_jobs or run["rc"] != 0 or run["sha256"] != rounds[0]["jobs"][i]["sha256"]:
                failed += 1
                if i not in bad_jobs:
                    problems.append(f"job {i} ({spec['jobs'][i]['kind']}) not reproduced")
    return attempted, failed, problems, selftest


def end_to_end(spec, res, setup):
    """The end-to-end metrics, and the per-subcommand figures printed beside
    them.  ``round_s`` and ``setup_s`` are adjusted for the host's speed
    (see probe.py); the other figures are plain wall time."""
    rounds = [r for r in res["rounds"] if not r["traced"]]
    stages, nodes, node_wall = {}, 0, 0.0
    for rnd in rounds:
        for job, run in zip(spec["jobs"], rnd["jobs"]):
            stages.setdefault(job["kind"], []).append(run["wall_s"])
            if "res" in job:
                nodes += job["res"] ** 2
                node_wall += run["wall_s"]
    timed = rounds[1:] or rounds   # round 0 also warms the caches
    jobs = [[r["jobs"][i] for r in timed] for i in range(len(spec["jobs"]))]
    metrics = {"round_s": sum(_median([j["wall_s"] / j["slowdown"] for j in runs])
                              for runs in jobs),
               "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
               "setup_s": _median([wall / slowdown for wall, slowdown in setup])}
    info = {"round_wall_s": (sum(_median([j["wall_s"] for j in runs]) for runs in jobs),
                             "s", len(timed)),
            "setup_wall_s": (_median([wall for wall, _ in setup]), "s", len(setup)),
            "host_slowdown": (_median([j["slowdown"] for runs in jobs for j in runs]),
                              "x", sum(map(len, jobs)))}
    for kind, walls in stages.items():
        scale = 1e3 if STAGE_UNITS[kind] == "ms" else 1.0
        info[f"{kind}_{STAGE_UNITS[kind]}"] = (_median(walls) * scale, STAGE_UNITS[kind],
                                               len(walls))
    query_walls = [w for k in ("analyze", "plot", "height") for w in stages.get(k, [])]
    if len(query_walls) >= 100:
        info["query_p90_ms"] = (statistics.quantiles(query_walls, n=10)[-1] * 1e3, "ms",
                                len(query_walls))
    if nodes:
        info["nodes_per_s"] = (nodes / node_wall, "1/s", len(rounds))
    return metrics, info


def per_layer(names, res):
    """Per-layer metrics named ``<module>.<function>.<measure>``.

    Counts come from the first traced round and must repeat in every other
    traced round; self times are medians over the traced rounds.
    """
    span_rounds = res["span_rounds"]
    first = span_rounds[0]

    def counts(totals):
        return {fn: {k: v for k, v in tot.items() if k != "self_ns"}
                for fn, tot in totals.items()}

    problems = []
    if any(counts(other) != counts(first) for other in span_rounds[1:]):
        problems.append("counts differ between traced rounds")
    untraced = [r["wall_s"] for r in res["rounds"] if not r["traced"]]
    untraced = untraced[1:] or untraced   # round 0 also warms the caches
    traced = [r["wall_s"] for r in res["rounds"] if r["traced"]]
    metrics = {}
    for name in names:
        if name == "bench.trace_overhead_s":
            metrics[name] = _median(traced) - _median(untraced)
            continue
        fn, measure = name.rsplit(".", 1)
        tot = first.get(fn, {})
        if measure == "self_s":
            metrics[name] = _median([r.get(fn, {}).get("self_ns", 0) / 1e9 for r in span_rounds])
        elif measure == "bytes_computed":
            metrics[name] = tot.get("points", 0) * JET_BYTES_PER_POINT
        elif measure == "gradient_calls_per_report":
            metrics[name] = tot.get("gradient_calls", 0) / max(tot.get("reports", 0), 1)
        else:
            metrics[name] = tot.get(measure, 0)
    job = first.get("bench.job", {})
    if job.get("self_sum_gap_ns", 0):
        problems.append("span self times do not sum to the job wall time")
    return metrics, problems


def run_workload(workload, seed, seconds, trace, bench):
    deadline = time.monotonic() + RUN_LIMIT_S
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        spec = make_spec(workload, seed)
        for name, surface in spec["surfaces"].items():
            path = workdir / f"{name}.surf"
            path.write_text(surface_file_text(surface), encoding="utf-8")
            surface["path"] = str(path)
        spec.update(workdir=str(workdir), src=str(SRC),
                    spans_path=str(results / f"{tag}-spans.jsonl"))
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")

        # the first set-up also writes the bytecode caches: not timed
        setup = [json.loads(_child(["setup", spec_path], deadline))
                 for _ in range(SETUP_SAMPLES + 1)][1:]
        result_path = workdir / "result.json"
        _child(["loop", spec_path, result_path, seconds, trace], deadline)
        res = json.loads(result_path.read_text(encoding="utf-8"))
        attempted, failed, problems, selftest = verify(spec, res, workdir)
        e2e, info = end_to_end(spec, res, setup)
        if trace:
            metrics, trace_problems = per_layer([m["name"] for m in bench["per_layer"]], res)
            problems += trace_problems
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        else:
            metrics = e2e
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        report = {
            "workload": workload, "seconds": seconds, "trace": trace,
            "environment": environment(seed),
            "correct": not problems and not selftest and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            "end_to_end": e2e,
            "subcommands": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in info.items()},
            "problems": problems[:50], "checker_selftest": selftest,
            "missing_trace_targets": res["missing_targets"],
            "setup_samples_s": setup,
            "round_walls_s": [r["wall_s"] for r in res["rounds"]],
        }
        (results / f"{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_report(report):
    w = report["workload"]
    print(f"perfbench {w} environment {json.dumps(report['environment'])}")
    for name, m in report["metrics"].items():
        print(f"perfbench {w} {name} {m['value']:.6g} {m['unit']}")
    if report["trace"]:
        print(f"perfbench {w} trace targets missing: {report['missing_trace_targets'] or 'none'}")
    else:
        for name, m in report["subcommands"].items():
            print(f"perfbench {w} {name} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    print(f"perfbench {w} fail_ratio {report['failed']}/{report['attempted']}")
    print(f"perfbench {w} output checks {'PASS' if not report['problems'] else 'FAIL'}"
          f" ({report['attempted']} jobs)")
    for p in report["problems"]:
        print(f"perfbench {w}   {p}")
    print(f"perfbench {w} checker self-test "
          f"{'PASS' if not report['checker_selftest'] else 'FAIL'}")
    for p in report["checker_selftest"]:
        print(f"perfbench {w}   {p}")
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "monge4" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'monge4'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        print_report(run_workload(workload, args.seed, args.seconds, args.trace, bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
