#!/usr/bin/env python3
"""Record the class-label column digests of grid-dense for seeds 0..N-1.

    python3 perfbench/make_label_digests.py [N]

The grid checker requires a run's ``class`` column to match the digest
recorded here for its seed.  The table was written at the commit that
introduced the benchmark; rerunning it on a later commit would only copy
that commit's labels, so rerun it only when grid-dense's surfaces or
resolution change, and on the commit the table should pin.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from monge4 import cli  # noqa: E402
from checks import label_digest, parse_grid  # noqa: E402
from workloads import GRID_RES, make_spec, surface_file_text  # noqa: E402


def main(count):
    work = HERE.parent / ".perfbench" / "digests"
    work.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for seed in range(count):
            surface = make_spec("grid-dense", seed)["surfaces"]["trig"]
            path, out = work / "trig.surf", work / "grid.csv"
            path.write_text(surface_file_text(surface), encoding="utf-8")
            rc = cli.run(["grid", "--surface", str(path), "--res", str(GRID_RES),
                          "--out", str(out)])
            if rc != 0:
                raise SystemExit(f"grid failed for seed {seed}")
            _, grid = parse_grid(out.read_text(encoding="utf-8"))
            digests[str(seed)] = label_digest(grid["labels"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    table = {"res": GRID_RES, "digests": digests}
    (HERE / "label_digests.json").write_text(json.dumps(table, indent=1) + "\n",
                                             encoding="utf-8")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 64)
