"""vdwpair benchmark: seeded CLI sweeps, checked row by row.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory.  The seed generates the workload's configs (see
``workloads.py``); the CLI runs in-process, one worker, writing JSON output
files under ``.perfbench_out/``.  Every run first runs the workload's fixed
anchor calls and checks them against ``references.json``, then repeats the
seeded sweep for ``--seconds`` seconds (at least once) and checks every row.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of fresh
interpreters importing ``vdwpair.cli`` and loading the configs),
``sweep_ref_s`` (median over passes of the wall time of one pass over the
seeded CLI calls, at the reference speed of ``speedprobe.py``),
``ok_frac`` (rows passing their checks over rows attempted) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of ``tracing.py``; the spans go to
``.perfbench_out/<run>/spans.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speedprobe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"setup_s": "s", "sweep_ref_s": "s", "ok_frac": "ratio",
             "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.self_s": "s", "cli.row_s_p50": "s", "cli.row_s_max": "s",
    "cli.rows": "count",
    "forces.halfspace_forces_s": "s", "forces.potential_calls": "count",
    "potentials.u0_s": "s", "potentials.u1_s": "s", "potentials.u2_s": "s",
    "potentials.u_nodes": "count", "potentials.u1_kernel_ns": "ns",
    "greens.scattering_calls": "count", "greens.scattering_s": "s",
    "greens.kernel_ns": "ns", "greens.reflection_ns": "ns",
    "quadrature.calls.q": "count", "quadrature.calls.u": "count",
    "quadrature.calls.x": "count", "quadrature.evals.q": "count",
    "quadrature.evals.u": "count", "quadrature.evals.x": "count",
    "quadrature.self_s": "s", "quadrature.soft_accepts": "count",
    "trace.overhead_frac": "ratio",
    "anchor.calls.q": "count", "anchor.calls.u": "count",
    "anchor.calls.x": "count", "anchor.evals.q": "count",
    "anchor.evals.u": "count", "anchor.evals.x": "count",
}
SETUP_REPEATS = 5
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import vdwpair.cli
for path in sys.argv[2:]:
    vdwpair.cli.load_config(path)
print(time.monotonic())
"""


class Workload:
    """The configs of one run, its checks and its row tallies."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        self.name = name
        self.out_dir = out_dir
        refs = json.loads((HERE / "references.json").read_text())
        self.references = refs["rows"]
        self.seed_counts = refs["counts"][name]
        self.anchors = self._write(workloads.ANCHORS[name], "anchor")
        self.seeded = self._write(workloads.generate(name, seed), "seeded")
        self.pass_times: list[float] = []
        self.pass_ratios: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def _write(self, calls, prefix):
        out = []
        for i, call in enumerate(calls):
            path = self.out_dir / f"{prefix}-{i:02d}-{call['name']}.json"
            path.write_text(workloads.config_text(call["config"]))
            out.append((call, path))
        return out

    def config_paths(self) -> list[str]:
        return [str(p) for _, p in self.anchors + self.seeded]

    def run_call(self, call, cfg_path: Path) -> float:
        """Run one CLI call, check its rows, return its wall time."""
        import vdwpair.cli

        out_path = cfg_path.with_suffix(".out.json")
        out_path.unlink(missing_ok=True)
        argv = [call["command"], "--config", str(cfg_path),
                "--output", str(out_path), "--format", "json"]
        t0 = time.perf_counter()
        vdwpair.cli.main(argv)
        seconds = time.perf_counter() - t0
        self._check(call, out_path)
        return seconds

    def _check(self, call, out_path: Path) -> None:
        config = call["config"]
        expected = config["sweep"]["points"]
        self.attempted += expected
        try:
            rows = json.loads(out_path.read_text())["rows"]
        except (OSError, ValueError, KeyError) as exc:
            rows = []
            self.failures.append(f"{call['name']}: no output ({exc})")
        refs = self.references.get(call["name"])
        for i, row in enumerate(rows[:expected]):
            ref = refs[i] if refs is not None else None
            for reason in checks.row_failures(call["command"], config, row,
                                              ref):
                self.failures.append(f"{call['name']} row {i}: {reason}")
                break
        missing = expected - min(len(rows), expected)
        self.failures += [f"{call['name']}: row missing"] * missing

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run_pass(self, probe: speedprobe.SpeedProbe | None = None) -> float:
        """Run every seeded call once; return their summed wall time.
        Under ``probe``, also record the pass time and the mean kernel
        time sampled during it."""
        mark = probe.mark() if probe else None
        total = sum(self.run_call(call, path) for call, path in self.seeded)
        if probe:
            seconds, kernel_s = probe.since(mark)
            self.pass_times.append(seconds)
            if kernel_s:
                self.pass_ratios.append(seconds / kernel_s)
        return total

    def sweep_ref_s(self) -> float:
        """Median pass time at the reference speed (``speedprobe``)."""
        return speedprobe.REF_KERNEL_S * statistics.median(self.pass_ratios)


def measure_setup(paths: list[str]) -> float:
    """Median time from starting a fresh interpreter to having imported
    ``vdwpair.cli`` and loaded the workload's configs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), *paths],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def _repeat_until(window: float, step) -> None:
    """Call ``step`` at least once, and again while another call of the
    median duration fits the window."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) \
                > window:
            return


def run_untraced(wl: Workload, seconds: float) -> dict[str, float]:
    setup_s = measure_setup(wl.config_paths())
    for call, path in wl.anchors:
        wl.run_call(call, path)
    with speedprobe.SpeedProbe() as probe:
        _repeat_until(seconds, lambda: wl.run_pass(probe))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "sweep_ref_s": wl.sweep_ref_s(),
        "ok_frac": 1.0 - wl.failed / wl.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def run_traced(wl: Workload, seconds: float) -> dict[str, float]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        first, path = wl.anchors[0]
        wl.run_call(first, path)
        anchor = tracing.quadrature_counts(tracer.spans, "anchor")
        for call, path in wl.anchors[1:]:
            wl.run_call(call, path)
    finally:
        tracer.uninstall()

    plain, traced, layers = [], [], []

    def pair() -> None:
        plain.append(wl.run_pass())
        tracer.install()
        try:
            mark = len(tracer.spans)
            traced.append(wl.run_pass())
        finally:
            tracer.uninstall()
        layers.append(tracing.layer_metrics(tracer.spans[mark:], traced[-1]))

    _repeat_until(seconds, pair)
    tracer.dump(wl.out_dir / "spans.json")

    metrics = {name: statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics["greens.reflection_ns"] = tracing.reflection_ns()
    base = statistics.median(plain)
    metrics["trace.overhead_frac"] = (statistics.median(traced) - base) / base
    metrics.update(anchor)
    if anchor != wl.seed_counts:
        print(f"note: anchor counts {anchor} differ from the seed's "
              f"{wl.seed_counts}")
    return metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vdwpair" / "cli.py").is_file():
        print(f"error: no vdwpair sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vdwpair.cli  # noqa: F401  (compiles the package before timing)

    out_dir = (ROOT / ".perfbench_out"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wl = Workload(args.workload, args.seed, out_dir)
    if args.trace:
        metrics, units = run_traced(wl, args.seconds), LAYER_UNITS
    else:
        metrics, units = run_untraced(wl, args.seconds), E2E_UNITS

    for reason in wl.failures:
        print(f"FAIL {reason}")
    print(f"{args.workload} seed {args.seed}: {wl.attempted} rows attempted, "
          f"{wl.failed} failed (fail_frac {wl.failed / wl.attempted:.4g})")
    for name, unit in units.items():
        value = metrics[name]
        shown = f"{value:,}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} = {shown} {unit}")
    if wl.pass_times:
        print(f"  (raw pass wall time: median "
              f"{statistics.median(wl.pass_times):.6g} s)")
    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
