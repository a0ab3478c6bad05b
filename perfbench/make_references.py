"""Regenerate ``references.json`` from the code in this checkout.

    python3 perfbench/make_references.py

Runs every anchor call of every workload once at ``REFERENCE_TOL`` and
stores its value columns, then runs each workload's first anchor traced at
its own tolerance and stores its exact quadrature counts.  The stored file
was made from the seed code; regenerate it only on purpose.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE_TOL = 1e-10


def _rows(call: dict, tmp: Path) -> list[dict]:
    import vdwpair.cli

    cfg = tmp / "config.json"
    out = tmp / "out.json"
    cfg.write_text(workloads.config_text(call["config"]))
    vdwpair.cli.main([call["command"], "--config", str(cfg),
                      "--output", str(out), "--format", "json"])
    rows = json.loads(out.read_text())["rows"]
    for row in rows:
        if row["error"]:
            raise RuntimeError(f"{call['name']}: {row['error']}")
    return rows


def main() -> int:
    refs = {"rel_tol": REFERENCE_TOL, "rows": {}, "counts": {}}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        for name, anchors in workloads.ANCHORS.items():
            for call in anchors:
                tight = copy.deepcopy(call)
                tight["config"]["rel_tol"] = REFERENCE_TOL
                cols = (checks.FREE_VALUES if call["command"] == "free-space"
                        else checks.HALF_VALUES + checks.FORCE_VALUES)
                refs["rows"][call["name"]] = [
                    {c: row[c] for c in cols if row[c] != ""}
                    for row in _rows(tight, tmp)]
                print(f"{call['name']}: {refs['rows'][call['name']]}")
            tracer = tracing.Tracer()
            tracer.install()
            try:
                _rows(anchors[0], tmp)
            finally:
                tracer.uninstall()
            refs["counts"][name] = tracing.quadrature_counts(tracer.spans,
                                                             "anchor")
            print(f"{name} counts: {refs['counts'][name]}")
    (HERE / "references.json").write_text(
        json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
