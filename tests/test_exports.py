"""Every name a vdwpair module exports in ``__all__`` resolves, and so does
every package name the benchmark's tracer rebinds."""

import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import pytest

import vdwpair
from vdwpair import cli

MODULES = ["vdwpair"] + [f"vdwpair.{m.name}"
                         for m in pkgutil.iter_modules(vdwpair.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _load_perfbench(stem):
    """perfbench/<stem>.py, executed from its source: nothing is installed
    and no bytecode is written next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{stem}.py"
    module = types.ModuleType(f"_perfbench_{stem}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


def _load_tracing():
    return _load_perfbench("tracing")


def test_tracer_bindings_resolve():
    """Every package name the benchmark's tracer rebinds exists."""
    tracing = _load_tracing()
    names = [(mod, attr) for mod, attr, _ in tracing._LAYER_BINDINGS]
    names += [(mod, "integrate_semiinf") for mod in tracing._QUAD_MODULES]
    names += [("vdwpair.cli", attr) for attr in tracing._ROW_BINDINGS]
    missing = [f"{mod}.{attr}" for mod, attr in names
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_tracer_forwards_every_integrate_semiinf_parameter():
    """The tracer's wrapper has a fixed signature and forwards it by name,
    so a parameter added to ``integrate_semiinf`` would be a TypeError
    in every traced run."""
    from vdwpair import quadrature

    tracing = _load_tracing()
    wrapper = tracing.Tracer()._wrap_quad("q", quadrature.integrate_semiinf)
    forwarded = inspect.signature(wrapper, follow_wrapped=False).parameters
    engine = inspect.signature(quadrature.integrate_semiinf).parameters
    assert [(p.name, p.default) for p in engine.values()] \
        == [(p.name, p.default) for p in forwarded.values()]


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


def test_tracer_runs_around_a_perfect_plate_force_row():
    """The benchmark's tracer sees a perfect-plate force row's G1 families
    through ``halfspace_scattering`` and its u-integrals."""
    from vdwpair import HalfSpaceMedium, PlanarGeometry, ResonanceAtom, \
        halfspace_forces
    from vdwpair.quadrature import QuadSpec

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        halfspace_forces(PlanarGeometry.parallel(3e-3, 0.01),
                         ResonanceAtom(), ResonanceAtom(),
                         HalfSpaceMedium.perfect_conductor(),
                         spec=QuadSpec(rel_tol=1e-8))
    finally:
        tracer.uninstall()
    counts = tracing.quadrature_counts(tracer.spans, "t")
    assert counts["t.evals.u"] > 0
    names = [s.name for s in tracer.spans]
    assert names.count("greens:halfspace_scattering") >= 1


def test_benchmark_configs_load(tmp_path):
    """Every config the benchmark runs, the anchors and seeds 1-40 of each
    workload, passes the config schema and its command's atom-pair check:
    a rejected one would read as failed operations in the benchmark."""
    workloads = _load_perfbench("workloads")
    path = tmp_path / "config.json"
    for name in workloads.WORKLOADS:
        calls = list(workloads.ANCHORS[name])
        for seed in range(1, 41):
            calls += workloads.generate(name, seed)
        for call in calls:
            path.write_text(workloads.config_text(call["config"]))
            cfg = cli.load_config(str(path))
            cli._check_atom_pair(cfg, call["command"])
