"""Every name a vdwpair module exports in ``__all__`` resolves, and so does
every package name the benchmark's tracer rebinds."""

import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import vdwpair

MODULES = ["vdwpair"] + [f"vdwpair.{m.name}"
                         for m in pkgutil.iter_modules(vdwpair.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _load_tracing():
    """perfbench/tracing.py, executed from its source: nothing is installed
    and no bytecode is written next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    module = types.ModuleType("_perfbench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


def test_tracer_bindings_resolve():
    """Every package name the benchmark's tracer rebinds exists."""
    tracing = _load_tracing()
    names = [(mod, attr) for mod, attr, _ in tracing._LAYER_BINDINGS]
    names += [(mod, "integrate_semiinf") for mod in tracing._QUAD_MODULES]
    names += [("vdwpair.cli", attr) for attr in tracing._ROW_BINDINGS]
    missing = [f"{mod}.{attr}" for mod, attr in names
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_tracer_runs_around_a_finite_medium_potential():
    """The benchmark's tracer wraps every binding of a finite-medium
    ``u_total`` and still records its q-integrals."""
    from vdwpair import HalfSpaceMedium, LorentzMedium, PlanarGeometry, \
        ResonanceAtom, u_total
    from vdwpair.quadrature import QuadSpec

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        u_total(PlanarGeometry.parallel(0.1, 0.01), ResonanceAtom(),
                ResonanceAtom(), HalfSpaceMedium.dielectric(LorentzMedium(omegaP=3.0)),
                spec=QuadSpec(rel_tol=1e-4))
    finally:
        tracer.uninstall()
    counts = tracing.quadrature_counts(tracer.spans, "t")
    assert counts["t.evals.q"] > 0
    names = {s.name for s in tracer.spans}
    assert {"potentials:u1_halfspace", "potentials:u2_halfspace",
            "greens:halfspace_scattering"} <= names
