"""Self-test of the benchmark: generation, failure counting, trace counts.

    python3 -m pytest perfbench/test_perfbench.py

The trace-count tests pin the seed code's exact quadrature counts, so a
change that alters them shows here first.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFS = json.loads((HERE / "references.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(name):
    def texts(seed):
        return [workloads.config_text(c["config"])
                for c in workloads.generate(name, seed)]

    assert texts(7) == texts(7)
    assert texts(7) != texts(8)


def _workload(tmp_path, name="halfspace-oscillatory"):
    return run.Workload(name, 1, tmp_path)


def _check_rows(wl, call, rows):
    out = wl.out_dir / "fake.out.json"
    out.write_text(json.dumps({"rows": rows}))
    wl._check(call, out)


def _anchor_row(name):
    return dict(REFS["rows"][name][0], error="")


def test_reference_row_passes(tmp_path):
    wl = _workload(tmp_path)
    call = workloads.ANCHORS[wl.name][0]
    _check_rows(wl, call, [_anchor_row(call["name"])])
    assert (wl.attempted, wl.failed) == (1, 0)


def test_perturbed_reference_counts_as_failure(tmp_path):
    wl = _workload(tmp_path)
    call = workloads.ANCHORS[wl.name][0]
    row = _anchor_row(call["name"])
    row["U1"] *= 1.0 + 1e-5
    _check_rows(wl, call, [row])
    assert (wl.attempted, wl.failed) == (1, 1)
    assert "U1 misses its reference" in wl.failures[0]


def test_perturbed_force_reference_counts_as_failure(tmp_path):
    wl = _workload(tmp_path, "halfspace-forces")
    call = workloads.ANCHORS[wl.name][0]
    row = _anchor_row(call["name"])
    row["F_on_A_z"] += 1e-3 * abs(row["F_on_A_x"])
    _check_rows(wl, call, [row])
    assert wl.failed == 1


def test_error_marker_counts_as_failure(tmp_path):
    wl = _workload(tmp_path)
    call = workloads.generate(wl.name, 1)[0]
    call["config"]["sweep"]["points"] = 2
    good = _anchor_row(workloads.ANCHORS[wl.name][0]["name"])
    bad = dict.fromkeys(good, "")
    bad.update(l=0.1, error="ConvergenceError: did not converge")
    _check_rows(wl, call, [good, bad])
    assert (wl.attempted, wl.failed) == (2, 1)
    assert "error marker" in wl.failures[0]


def test_missing_rows_and_broken_invariants_count(tmp_path):
    wl = _workload(tmp_path, "halfspace-forces")
    call = copy.deepcopy(workloads.ANCHORS[wl.name][0])
    row = _anchor_row(call["name"])
    row["F_on_B_x"] = row["F_on_A_x"]       # breaks F_A,x = -F_B,x
    call["config"]["sweep"]["points"] = 2   # and one row never arrives
    _check_rows(wl, call, [row])
    assert (wl.attempted, wl.failed) == (2, 2)


def _traced(call, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = _workload(tmp_path)
        path = tmp_path / "call.json"
        path.write_text(workloads.config_text(call["config"]))
        wl.run_call(call, path)
    finally:
        tracer.uninstall()
    assert wl.failed == 0, wl.failures
    return tracer.spans


def test_anchor_counts_reproduce_the_seed(tmp_path):
    spans = _traced(workloads.ANCHORS["halfspace-oscillatory"][0], tmp_path)
    counts = tracing.quadrature_counts(spans, "anchor")
    assert counts == {"anchor.calls.q": 2990, "anchor.calls.u": 2,
                      "anchor.calls.x": 1, "anchor.evals.q": 11_776_046,
                      "anchor.evals.u": 1196, "anchor.evals.x": 598}
    assert counts == REFS["counts"]["halfspace-oscillatory"]


def test_sixteen_potential_calls_per_force_row(tmp_path):
    spans = _traced(workloads.ANCHORS["halfspace-forces"][0], tmp_path)
    metrics = tracing.layer_metrics(spans, sweep_s=1.0)
    assert metrics["forces.potential_calls"] == 16
    assert metrics["quadrature.evals.q"] == 0


def test_benchmark_json_matches_the_runner():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.LAYER_UNITS


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "image-and-free", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_speed_probe_samples_and_excludes_its_own_time():
    import speedprobe

    with speedprobe.SpeedProbe() as probe:
        mark = probe.mark()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        seconds, kernel_s = probe.since(mark)
    assert len(probe.samples) >= 3
    assert kernel_s > 0
    assert seconds == pytest.approx(0.5 - probe.overhead_s, abs=0.02)
