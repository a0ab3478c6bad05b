"""Span recorder for the traced run.

The recorder rebinds the public names that the calling modules imported
(``vdwpair.cli.u_total``, ``vdwpair.potentials.halfspace_scattering``,
``vdwpair.greens.integrate_semiinf``, ...) to wrappers that record a span
per call, and restores the originals on ``uninstall``.  Nothing in the
package itself changes.

A span holds its name, start, end, parent span and row id.
``integrate_semiinf`` spans also wrap the integrand they are given, so they
carry the axis, the evaluation count, the time spent inside the integrand
callback and the number of points it was called on; quadrature self time
and kernel time per point follow from those.  Spans stay in memory until
``dump``.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy as np

_perf = time.perf_counter

# (module, attribute, span name): every binding a workload reaches.
_LAYER_BINDINGS = [
    ("vdwpair.cli", "u_total", "cli:u_total"),
    ("vdwpair.cli", "halfspace_forces", "cli:halfspace_forces"),
    ("vdwpair.cli", "u0_ee", "cli:u0_ee"),
    ("vdwpair.cli", "u0_em", "cli:u0_em"),
    ("vdwpair.cli", "free_space_force", "cli:free_space_force"),
    ("vdwpair.cli", "asymptotic_coefficients", "cli:asymptotic_coefficients"),
    ("vdwpair.forces", "u_total", "forces:u_total"),
    ("vdwpair.potentials", "u0_ee", "potentials:u0_ee"),
    ("vdwpair.potentials", "u1_halfspace", "potentials:u1_halfspace"),
    ("vdwpair.potentials", "u2_halfspace", "potentials:u2_halfspace"),
    ("vdwpair.potentials", "halfspace_scattering",
     "greens:halfspace_scattering"),
    # u1_trace_integrand imports this name from vdwpair.greens at call time.
    ("vdwpair.greens", "halfspace_scattering", "greens:halfspace_scattering"),
]
_QUAD_MODULES = ("vdwpair.greens", "vdwpair.potentials", "vdwpair.forces")
_ROW_BINDINGS = ("_half_space_row", "_free_space_row")

CLI_LIBRARY = tuple(name for mod, _, name in _LAYER_BINDINGS
                    if mod == "vdwpair.cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "row", "quad")

    def __init__(self, name, start, parent, row):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.row = row
        self.quad = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans at the layer boundaries while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._row = None
        self._next_row = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, _perf(), parent, self._row))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx].end = _perf()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _wrap_row(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._row = self._next_row
            self._next_row += 1
            idx = self._open("cli:row")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._row = None
        return wrapper

    def _wrap_quad(self, name, integrate):
        from vdwpair.quadrature import QuadSpec

        @functools.wraps(integrate)
        def wrapper(f, spec=None, breakpoints=None, axis="x"):
            idx = self._open(name)
            stats = {"axis": axis, "evals": 0, "points": 0, "callback_s": 0.0,
                     "soft": False}
            self.spans[idx].quad = stats

            def integrand(x):
                t0 = _perf()
                try:
                    return f(x)
                finally:
                    stats["callback_s"] += _perf() - t0
                    stats["points"] += np.size(x)

            try:
                res = integrate(integrand, spec, breakpoints=breakpoints,
                                axis=axis)
            finally:
                self._close(idx)
            used = spec or QuadSpec()
            stats["evals"] = res.evaluations
            stats["soft"] = res.abs_error_estimate > max(
                used.rel_tol * abs(res.value), used.abs_tol)
            return res
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        import importlib

        if self._saved:
            raise RuntimeError("tracer already installed")
        plan = [(mod, attr, self._wrap(name, getattr(
                    importlib.import_module(mod), attr)))
                for mod, attr, name in _LAYER_BINDINGS]
        for mod in _QUAD_MODULES:
            integrate = importlib.import_module(mod).integrate_semiinf
            plan.append((mod, "integrate_semiinf", self._wrap_quad(
                mod.split(".")[1] + ":integrate_semiinf", integrate)))
        for attr in _ROW_BINDINGS:
            fn = getattr(importlib.import_module("vdwpair.cli"), attr)
            plan.append(("vdwpair.cli", attr, self._wrap_row(fn)))
        for mod, attr, wrapper in plan:
            module = importlib.import_module(mod)
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent, row, quad]."""
        rows = [[s.name, s.start, s.end, s.parent, s.row, s.quad]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, separators=(",", ":"))
            fh.write("\n")


def _ns_per_point(spans) -> float:
    points = sum(s.quad["points"] for s in spans)
    if points == 0:
        return 0.0
    return 1e9 * sum(s.quad["callback_s"] for s in spans) / points


def layer_metrics(spans: list[Span], sweep_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (its spans and wall time)."""

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(*names):
        return sum(s.seconds for s in named(*names))

    quads = [s for s in spans if s.quad is not None]
    cli_calls = named(*CLI_LIBRARY)
    row_s: dict[int, float] = {}
    for s in cli_calls:
        row_s[s.row] = row_s.get(s.row, 0.0) + s.seconds
    rows = [row_s.get(s.row, 0.0) for s in named("cli:row")]
    force_rows = len(named("cli:halfspace_forces"))

    m = {
        "cli.self_s": sweep_s - sum(s.seconds for s in cli_calls),
        "cli.row_s_p50": statistics.median(rows) if rows else 0.0,
        "cli.row_s_max": max(rows, default=0.0),
        "cli.rows": len(rows),
        "forces.halfspace_forces_s": total("cli:halfspace_forces"),
        "forces.potential_calls": (len(named("forces:u_total")) / force_rows
                                   if force_rows else 0),
        "potentials.u0_s": total("cli:u0_ee", "cli:u0_em",
                                 "potentials:u0_ee"),
        "potentials.u1_s": total("potentials:u1_halfspace"),
        "potentials.u2_s": total("potentials:u2_halfspace"),
        "potentials.u_nodes": sum(s.quad["evals"] for s in quads
                                  if s.quad["axis"] == "u"),
        "potentials.u1_kernel_ns": _ns_per_point(
            [s for s in quads if s.name == "potentials:integrate_semiinf"
             and s.quad["axis"] == "q"]),
        "greens.scattering_calls": len(named("greens:halfspace_scattering")),
        "greens.scattering_s": total("greens:halfspace_scattering"),
        "greens.kernel_ns": _ns_per_point(
            [s for s in quads if s.name == "greens:integrate_semiinf"]),
    }
    m.update(quadrature_counts(spans, "quadrature"))
    m["quadrature.self_s"] = sum(s.seconds - s.quad["callback_s"]
                                 for s in quads)
    m["quadrature.soft_accepts"] = sum(s.quad["soft"] for s in quads)
    return m


def quadrature_counts(spans: list[Span], prefix: str) -> dict[str, int]:
    """Exact ``integrate_semiinf`` calls and evaluations by axis."""
    quads = [s for s in spans if s.quad is not None]
    m = {}
    for axis in ("q", "u", "x"):
        on_axis = [s for s in quads if s.quad["axis"] == axis]
        m[f"{prefix}.calls.{axis}"] = len(on_axis)
        m[f"{prefix}.evals.{axis}"] = sum(s.quad["evals"] for s in on_axis)
    return m


def reflection_ns(repeats: int = 200) -> float:
    """Standalone kernel: ns per point of ``reflection`` on 1e4 q at u = 1,
    default dielectric (median over ``repeats`` calls)."""
    from vdwpair.greens import HalfSpaceMedium, reflection
    from vdwpair.materials import LorentzMedium

    medium = HalfSpaceMedium.dielectric(
        LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3))
    q = np.linspace(0.0, 200.0, 10_000)
    times = []
    for _ in range(repeats):
        t0 = _perf()
        reflection(q, 1.0, medium)
        times.append(_perf() - t0)
    return 1e9 * statistics.median(times) / q.size
