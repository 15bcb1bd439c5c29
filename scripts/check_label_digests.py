#!/usr/bin/env python3
"""Check the grid class column against the pinned label digests.

    python3 scripts/check_label_digests.py [N]

Recomputes the ``class`` column digest of ``monge4 grid`` on the grid-dense
benchmark surface for seeds 0..N-1 (default: every seed in the table) and
compares each with ``perfbench/label_digests.json``.  The table is only
read, never written.  Exits 0 when every seed matches and 1 naming the
seeds that differ.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from monge4 import cli  # noqa: E402
from checks import label_digest  # noqa: E402
from workloads import make_spec, surface_file_text  # noqa: E402


def main(count=None):
    table = json.loads((ROOT / "perfbench" / "label_digests.json")
                       .read_text(encoding="utf-8"))
    seeds = sorted(int(k) for k in table["digests"])
    if count is not None:
        seeds = seeds[:count]
    differ = []
    with tempfile.TemporaryDirectory() as work:
        path = pathlib.Path(work) / "trig.surf"
        out = pathlib.Path(work) / "grid.csv"
        for seed in seeds:
            surface = make_spec("grid-dense", seed)["surfaces"]["trig"]
            path.write_text(surface_file_text(surface), encoding="utf-8")
            rc = cli.run(["grid", "--surface", str(path), "--res",
                          str(table["res"]), "--out", str(out)])
            if rc != 0:
                differ.append(seed)
                print(f"seed {seed}: grid exited {rc}")
                continue
            # the class column alone, line by line: the other columns and
            # the whole text of a res-512 grid are never held
            with out.open(encoding="utf-8") as rows:
                next(rows)  # the header
                labels = [ln[ln.rfind(",") + 1:].rstrip("\n") for ln in rows]
            if label_digest(labels) != table["digests"][str(seed)]:
                differ.append(seed)
                print(f"seed {seed}: class column differs")
    if differ:
        print(f"label digests differ for seeds {differ}")
        return 1
    print(f"label digests match for {len(seeds)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else None))
