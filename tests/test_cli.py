"""Command-line front end: config handling, sweeps, output formats."""

import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from vdwpair import ResonanceAtom, cli, u0_ee
from vdwpair.cli import (
    ConfigError,
    DEFAULT_CONFIG,
    load_config,
    main,
)
from vdwpair.quadrature import ConvergenceError, QuadResult
from vdwpair.validate import CheckResult


def run(args):
    return main(args)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports this package."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   os.path.dirname(os.path.dirname(cli.__file__)),
                   os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg == DEFAULT_CONFIG

    def test_defaults_are_fresh_on_every_call(self):
        # every call returns dicts that share nothing with DEFAULT_CONFIG
        # or with another call's result
        pristine = json.loads(json.dumps(DEFAULT_CONFIG))
        cfg = load_config(None)
        cfg["atoms"][0]["omega10"] = 7.0
        cfg["sweep"]["points"] = 3
        cfg["medium"]["omegaP"] = 9.0
        assert DEFAULT_CONFIG == pristine
        assert load_config(None) == pristine

    def test_unknown_field_rejected(self, tmp_path):
        path = write_config(tmp_path, {"atom": []})
        with pytest.raises(ConfigError, match="unknown config field"):
            load_config(path)

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  'atoms': []\n}")
        with pytest.raises(ConfigError, match="line"):
            load_config(str(path))

    def test_flag_overrides_file(self, tmp_path):
        path = write_config(tmp_path, {"rel_tol": 1e-6})
        cfg = load_config(path, {"rel_tol": 1e-4, "sweep.points": 3})
        assert cfg["rel_tol"] == 1e-4
        assert cfg["sweep"]["points"] == 3

    @pytest.mark.parametrize("bad", [
        {"atoms": [{"omega10": 1.0, "alpha0": 1.0}]},
        {"sweep": {"variable": "l", "start": -1.0, "stop": 1.0,
                   "points": 2, "scale": "log"}},
        {"sweep": {"variable": "l", "start": 1.0, "stop": 2.0,
                   "points": 0, "scale": "log"}},
        {"geometry": {"family": "parallel", "z": -0.5}},
        {"geometry": {"family": "spherical", "z": 0.5}},
        {"medium": {"kind": "plasma"}},
        {"workers": 0},
        {"output": {"path": None, "format": "xml"}},
    ])
    def test_invalid_configs(self, tmp_path, bad):
        path = write_config(tmp_path, bad)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"workers": 0})
        assert run(["free-space", "--config", path]) == 1

    def test_top_level_field_named_without_dot(self, capsys):
        assert run(["half-space", "--rel-tol", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: field rel_tol must be positive\n"

    @pytest.mark.parametrize("bad,message", [
        ({"sweep": {"variable": "l", "start": 1.0, "stop": 2.0,
                    "points": True, "scale": "log"}},
         "sweep.points must be a positive integer"),
        ({"workers": True}, "field 'workers' must be a positive integer"),
        ({"rel_tol": 2}, "field rel_tol must be below 1"),
        ({"rel_tol": 1.0}, "field rel_tol must be below 1"),
        ({"output": {"path": 7, "format": "csv"}},
         "output.path 7 is not in an existing directory"),
        ({"output": {"path": ".", "format": "csv"}},
         "output.path '.' is a directory"),
        ({"output": {"path": "." + os.sep, "format": "csv"}},
         f"output.path {'.' + os.sep!r} is a directory"),
    ])
    def test_meaningless_values_rejected(self, tmp_path, capsys, bad,
                                         message):
        path = write_config(tmp_path, bad)
        assert run(["free-space", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    def test_rel_tol_flag_below_one(self, capsys):
        assert run(["half-space", "--rel-tol", "2"]) == 1
        assert capsys.readouterr().err == \
            "config error: field rel_tol must be below 1\n"

    @pytest.mark.parametrize("command,worker", [
        ("half-space", "_half_space_row"),
        ("free-space", "_free_space_row"),
    ])
    def test_missing_output_directory_rejected_before_rows(
            self, tmp_path, capsys, monkeypatch, command, worker):
        def no_rows(_args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cli, worker, no_rows)
        out = tmp_path / "missing" / "out.csv"
        assert run([command, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: output.path {str(out)!r} "
                                "is not in an existing directory\n")
        assert not out.parent.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_points_bounded_before_rows(self, tmp_path, capsys, monkeypatch,
                                        source):
        # a count numpy cannot allocate fails as a config error, not as a
        # MemoryError once the sweep grid is built
        def no_rows(_args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cli, "_free_space_row", no_rows)
        points = 10**15
        if source == "flag":
            args = ["free-space", "--points", str(points)]
        else:
            args = ["free-space", "--config", write_config(
                tmp_path, {"sweep": {"points": points}})]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "config error: sweep.points must be at most 100000\n"

    def test_points_at_the_bound_accepted(self):
        cfg = load_config(None, {"sweep.points": cli.MAX_POINTS})
        assert cfg["sweep"]["points"] == 100_000

    _LORENTZ = {"omegaP": 3.0, "omegaT": 1.0, "gamma": 0.001}

    @pytest.mark.parametrize("bad,field", [
        ({"geometry": {"family": "parallel", "z": 0.5, "z_a": 0.5}},
         "geometry.z_a"),
        ({"geometry": {"family": "vertical", "z_a": 0.5, "zb": 0.5}},
         "geometry.zb"),
        ({"geometry": {"family": "general", "x_a": 0.0, "z_a": 1.0,
                       "x_b": 1.0, "z_b": 1.0, "l": 1.0}}, "geometry.l"),
        ({"medium": {"kind": "free-space", "perfect": "conducting"}},
         "medium.perfect"),
        ({"medium": {"kind": "perfect", "perfect": "conducting",
                     "omegaP": 3.0}}, "medium.omegaP"),
        ({"medium": {"kind": "dielectric", **_LORENTZ, "omegap": 9.0}},
         "medium.omegap"),
        ({"medium": {"kind": "magnetic", **_LORENTZ, "eps": _LORENTZ}},
         "medium.eps"),
        ({"medium": {"kind": "magneto-electric", **_LORENTZ}},
         "medium.gamma"),
        ({"medium": {"kind": "magneto-electric",
                     "eps": {**_LORENTZ, "kind": "electric"}}},
         "medium.eps.kind"),
        ({"medium": {"kind": "magneto-electric", "eps": _LORENTZ,
                     "mu": {**_LORENTZ, "gama": 0.01}}}, "medium.mu.gama"),
        ({"atoms": [{"omega10": 1.0, "alpha0": 1.0},
                    {"omega10": 1.0, "alpha0": 1.0, "alpha": 2.0}]},
         "atoms[1].alpha"),
    ])
    def test_unknown_block_field_rejected_before_rows(
            self, tmp_path, capsys, monkeypatch, bad, field):
        def no_rows(_args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cli, "_free_space_row", no_rows)
        path = write_config(tmp_path, bad)
        assert run(["free-space", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"config error: unknown config field {field!r}\n"

    def test_atom_that_is_not_an_object_is_a_config_error(self, tmp_path,
                                                           capsys):
        path = write_config(tmp_path, {"atoms": [1.0, 1.0]})
        assert run(["free-space", "--config", path]) == 1
        assert capsys.readouterr().err == \
            "config error: atoms[0] must be an object\n"

    def test_output_in_current_directory_accepted(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = load_config(None, {"output.path": "out.csv"})
        assert cfg["output"]["path"] == "out.csv"

    @pytest.mark.parametrize("command,kinds", [
        ("free-space", ("magnetic", "magnetic")),
        ("free-space", ("magnetic", "electric")),
        ("half-space", ("electric", "magnetic")),
        ("half-space", ("magnetic", "electric")),
    ])
    def test_unsupported_atom_pair_rejected(self, tmp_path, capsys, command,
                                            kinds):
        path = write_config(tmp_path, {
            "atoms": [{"omega10": 1.0, "alpha0": 1.0, "kind": k}
                      for k in kinds],
            "sweep": {"variable": "l", "start": 0.5, "stop": 0.5,
                      "points": 1, "scale": "log"}})
        assert run([command, "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "atom kinds" in captured.err

    @pytest.mark.parametrize("forces", ["no", 0, 1, None])
    def test_forces_must_be_boolean(self, tmp_path, capsys, monkeypatch,
                                    forces):
        def no_rows(_args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cli, "_half_space_row", no_rows)
        path = write_config(tmp_path, {"forces": forces})
        assert run(["half-space", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "config error: field 'forces' must be true or false\n"

    @pytest.mark.parametrize("l", [-0.5, "abc"])
    def test_z_sweep_separation_validated(self, tmp_path, capsys, l):
        path = write_config(tmp_path, {
            "geometry": {"family": "parallel", "z": 0.01, "l": l},
            "sweep": {"variable": "z", "start": 0.1, "stop": 0.2,
                      "points": 2, "scale": "log"}})
        assert run(["half-space", "--config", path]) == 1
        assert "geometry.l" in capsys.readouterr().err

    def test_z_sweep_needs_no_height(self, tmp_path, capsys):
        # the sweep value is the height, so geometry.z is not required
        path = write_config(tmp_path, {
            "medium": {"kind": "perfect", "perfect": "conducting"},
            "geometry": {"family": "parallel", "l": 0.5},
            "sweep": {"variable": "z", "start": 0.1, "stop": 0.2,
                      "points": 2, "scale": "log"}})
        assert run(["half-space", "--config", path]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 2 and not any(r["error"] for r in rows)

    def test_z_sweep_uses_separation(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "medium": {"kind": "perfect", "perfect": "conducting"},
            "geometry": {"family": "parallel", "z": 0.01, "l": 0.5},
            "sweep": {"variable": "z", "start": 0.1, "stop": 0.2,
                      "points": 2, "scale": "log"}})
        assert run(["half-space", "--config", path]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        atom = ResonanceAtom()
        for r in rows:
            assert float(r["U0"]) == pytest.approx(u0_ee(0.5, atom, atom),
                                                   rel=1e-11)


class TestLimitsAndThresholds:
    def test_limits_table(self, capsys):
        assert run(["limits"]) == 0
        out = capsys.readouterr().out
        assert "retarded-conducting" in out
        assert f"{40.0 / 23.0:.10f}" in out
        assert f"{10.0 / 3.0:.10f}" in out
        assert "14.8203" in out

    def test_limits_single_case(self, capsys):
        assert run(["limits", "nonretarded-parallel-permeable"]) == 0
        out = capsys.readouterr().out
        assert "10/3" in out
        assert "retarded-conducting" not in out

    def test_limits_unknown_case(self, capsys):
        assert run(["limits", "sideways"]) == 1

    def test_thresholds(self, capsys):
        assert run(["thresholds"]) == 0
        out = capsys.readouterr().out
        assert "4.895489" in out
        assert "14.820340" in out

    def test_limits_print_exact_roots(self, capsys):
        assert run(["limits"]) == 0
        out = capsys.readouterr().out
        assert "4.8954893275" in out
        assert "14.8203397586" in out

    def test_limits_full_text(self, capsys):
        assert run(["limits"]) == 0
        assert capsys.readouterr().out == (
            "case                                                value  exact\n"
            "retarded-conducting                          1.7391304348  40/23\n"
            "retarded-permeable                           2.2608695652  52/23\n"
            "nonretarded-parallel-conducting              0.6666666667  2/3\n"
            "nonretarded-parallel-permeable               3.3333333333  10/3\n"
            "threshold-vertical-conducting                4.8954893275  root\n"
            "threshold-vertical-permeable                14.8203397586  root\n")

    def test_thresholds_full_text(self, capsys):
        assert run(["thresholds"]) == 0
        assert capsys.readouterr().out == (
            "case                                            z_B/z_A\n"
            "threshold-vertical-conducting                  4.895489\n"
            "threshold-vertical-permeable                  14.820340\n")

    @pytest.mark.parametrize("module", ["scipy.optimize", "fractions",
                                        "decimal", "scipy",
                                        "concurrent.futures",
                                        "multiprocessing",
                                        "numpy.polynomial"])
    def test_import_leaves_out(self, module):
        code = ("import sys, vdwpair.cli; "
                f"print({module!r} in sys.modules)")
        out = _fresh_python(code)
        assert out.stdout.strip() == "False"

    def test_deferred_imports_load_in_a_fresh_interpreter(self, tmp_path):
        # scipy.special and numpy.polynomial load inside the first
        # finite-medium row and the conducting threshold; no test module
        # has imported them in this interpreter.
        out = tmp_path / "row.json"
        code = ("from vdwpair.cli import main; "
                "print(main(['half-space', '--points', '1', '--rel-tol', "
                f"'1e-6', '--format', 'json', '--output', {str(out)!r}]), "
                "main(['thresholds']))")
        done = _fresh_python(code)
        assert done.stdout == (
            "case                                            z_B/z_A\n"
            "threshold-vertical-conducting                  4.895489\n"
            "threshold-vertical-permeable                  14.820340\n"
            "0 0\n")
        (row,) = json.loads(out.read_text())["rows"]
        assert row["error"] == ""
        assert all(np.isfinite(row[c]) for c in ("U0", "U1", "U2", "U"))


class TestFreeSpace:
    def test_slope_transition(self, tmp_path):
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, {
            "medium": {"kind": "free-space"},
            "sweep": {"variable": "l", "start": 1e-3, "stop": 1e3,
                      "points": 25, "scale": "log"},
        })
        assert run(["free-space", "--config", cfg, "--output",
                    str(out)]) == 0
        _, rows = parse_csv(out.read_text())
        ls = np.array([float(r["l"]) for r in rows])
        us = np.array([abs(float(r["U"])) for r in rows])
        slopes = -np.diff(np.log(us)) / np.diff(np.log(ls))
        assert slopes[0] == pytest.approx(6.0, abs=0.02)
        assert slopes[-1] == pytest.approx(7.0, abs=0.02)

    def test_em_pair_all_positive(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "atoms": [{"omega10": 1.0, "alpha0": 1.0, "kind": "electric"},
                      {"omega10": 1.0, "alpha0": 1.0, "kind": "magnetic"}],
            "medium": {"kind": "free-space"},
            "sweep": {"variable": "l", "start": 1e-2, "stop": 1e2,
                      "points": 9, "scale": "log"},
        })
        assert run(["free-space", "--config", cfg]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 9
        assert all(float(r["U"]) > 0.0 for r in rows)
        assert all(float(r["force"]) > 0.0 for r in rows)

    def test_json_is_one_line_of_the_computed_rows(self, tmp_path, capsys):
        # --format json writes the payload as one compact line whose rows
        # are the computed floats to the bit.
        path = write_config(tmp_path, {
            "atoms": [{"omega10": 1.0, "alpha0": 1.0, "kind": "electric"},
                      {"omega10": 0.5, "alpha0": 2.0, "kind": "magnetic"}],
            "sweep": {"variable": "l", "start": 1e-3, "stop": 1e2,
                      "points": 6, "scale": "log"},
            "output": {"path": None, "format": "json"}})
        assert run(["free-space", "--config", path]) == 0
        text = capsys.readouterr().out
        assert text.endswith("}\n") and text.count("\n") == 1
        cfg = load_config(path)
        rows = cli._compute_rows(cfg, cli._free_space_row)
        assert json.loads(text)["rows"] == [
            {c: r[c] for c in cli.FREE_COLUMNS} for r in rows]

    def test_single_point_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "sweep": {"variable": "l", "start": 0.5, "stop": 0.5,
                      "points": 1, "scale": "log"}})
        assert run(["free-space", "--config", cfg]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 1
        assert float(rows[0]["l"]) == 0.5

    def test_error_marker_and_exit_code(self, tmp_path, capsys,
                                        monkeypatch):
        # a numerical failure inside a row leaves a marker in that row
        def unconverged(*args, **kwargs):
            raise ConvergenceError("quadrature did not converge",
                                   best=QuadResult(0.0, 1.0, 15))

        monkeypatch.setattr(cli, "u0_ee", unconverged)
        cfg = write_config(tmp_path, {
            "medium": {"kind": "free-space"},
            "sweep": {"variable": "l", "start": 1.0, "stop": 2.0,
                      "points": 2, "scale": "linear"}})
        assert run(["free-space", "--config", cfg]) == 2
        _, rows = parse_csv(capsys.readouterr().out)
        assert all("ConvergenceError" in r["error"] for r in rows)

    @pytest.mark.parametrize("start, stop, points, exception", [
        (1e-320, 1e-300, 3, "ZeroDivisionError"),
        (1e300, 1e300, 1, "OverflowError")])
    def test_float_range_ends_mark_rows(self, tmp_path, capsys, start, stop,
                                        points, exception):
        # separations at the ends of the float range fail row by row
        cfg = write_config(tmp_path, {
            "medium": {"kind": "free-space"},
            "sweep": {"variable": "l", "start": start, "stop": stop,
                      "points": points, "scale": "log"}})
        assert run(["free-space", "--config", cfg, "--format", "json"]) == 2
        out, err = capsys.readouterr()
        rows = json.loads(out)["rows"]
        assert len(rows) == points
        assert all(r["error"].startswith(f"{exception}: ") for r in rows)
        assert "Traceback" not in err

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path, {
            "sweep": {"variable": "l", "start": 0.1, "stop": 1.0,
                      "points": 4, "scale": "log"}})
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["free-space", "--config", cfg, "--output",
                    str(out1)]) == 0
        assert run(["free-space", "--config", cfg, "--output",
                    str(out2)]) == 0
        # byte-identical apart from the echoed output path in the header
        def stable(path):
            return [ln for ln in path.read_text().splitlines()
                    if not ln.startswith("# effective config")]
        assert stable(out1) == stable(out2)

    def test_worker_pool_preserves_order(self, tmp_path):
        cfg = write_config(tmp_path, {
            "sweep": {"variable": "l", "start": 0.1, "stop": 1.0,
                      "points": 4, "scale": "log"}})
        serial, pooled = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run(["free-space", "--config", cfg, "--output",
                    str(serial)]) == 0
        assert run(["free-space", "--config", cfg, "--workers", "3",
                    "--output", str(pooled)]) == 0
        # identical rows, in input order, regardless of completion order
        s_lines = [l for l in serial.read_text().splitlines()
                   if not l.startswith("#")]
        p_lines = [l for l in pooled.read_text().splitlines()
                   if not l.startswith("#")]
        assert s_lines == p_lines

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        cfg = load_config(None, {"workers": 1000})
        cfg["sweep"]["points"] = 1000
        rows = cli._compute_rows(cfg, lambda task: task[1])
        assert started == [2]
        assert len(rows) == 1000

    @pytest.mark.parametrize("points", [1, 2, 6, 20])
    @pytest.mark.parametrize("start,stop", [
        (1e-3, 1.0), (0.5, 0.5), (1e-7, 1e3), (0.3, 0.9), (2.0, 3.0),
        (1e-3, 1e-2), (0.0123, 45.6)])
    @pytest.mark.parametrize("scale", ["log", "linear"])
    def test_sweep_values_are_numpy_spacing_to_the_bit(self, scale, start,
                                                       stop, points):
        space = np.geomspace if scale == "log" else np.linspace
        cfg = {"sweep": {"start": start, "stop": stop, "points": points,
                         "scale": scale}}
        values = cli._sweep_values(cfg)
        assert all(type(v) is float for v in values)
        assert np.array(values).tobytes() == \
            space(start, stop, points).tobytes()

    @pytest.mark.parametrize("points,workers", [(1, 1), (1, 4), (3, 1)])
    def test_in_process_sweep_asks_no_core_count(self, tmp_path, monkeypatch,
                                                 points, workers):
        # os.cpu_count is read only when a pool may start
        def no_probe():
            raise AssertionError("os.cpu_count was called")

        monkeypatch.setattr(cli.os, "cpu_count", no_probe)
        path = write_config(tmp_path, {
            "sweep": {"variable": "l", "start": 0.5, "stop": 1.0,
                      "points": points, "scale": "log"},
            "workers": workers})
        assert run(["free-space", "--config", path, "--output",
                    str(tmp_path / "out.csv")]) == 0

    def test_tightened_tolerance_consistent(self, tmp_path):
        cfg = write_config(tmp_path, {
            "sweep": {"variable": "l", "start": 0.3, "stop": 0.9,
                      "points": 3, "scale": "linear"}})
        vals = {}
        for tol in ("1e-6", "1e-10"):
            out = tmp_path / f"t{tol}.csv"
            assert run(["free-space", "--config", cfg, "--rel-tol", tol,
                        "--output", str(out)]) == 0
            _, rows = parse_csv(out.read_text())
            vals[tol] = [float(r["U"]) for r in rows]
        for a, b in zip(vals["1e-6"], vals["1e-10"]):
            assert a == pytest.approx(b, rel=1e-6)


class TestHalfSpace:
    def test_ratio_below_one_dielectric_parallel(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "rel_tol": 1e-6,
            "sweep": {"variable": "l", "start": 0.02, "stop": 0.1,
                      "points": 2, "scale": "log"}})
        assert run(["half-space", "--config", cfg]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header[:6] == ["l", "U0", "U1", "U2", "U", "ratio"]
        for r in rows:
            assert 0.0 < float(r["ratio"]) < 1.0
            total = float(r["U0"]) + float(r["U1"]) + float(r["U2"])
            assert total == pytest.approx(float(r["U"]), rel=1e-12)
            assert r["F_on_B_z"] == ""  # forces off by default

    def test_forces_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "rel_tol": 1e-6,
            "medium": {"kind": "perfect", "perfect": "conducting"},
            "geometry": {"family": "parallel", "z": 0.3},
            "sweep": {"variable": "l", "start": 0.5, "stop": 0.5,
                      "points": 1, "scale": "log"}})
        assert run(["half-space", "--config", cfg, "--forces"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        row = rows[0]
        assert float(row["F_on_A_x"]) == pytest.approx(
            -float(row["F_on_B_x"]), rel=0.2)
        assert float(row["F_on_A_z"]) != 0.0

    @pytest.mark.parametrize("medium", [
        {"kind": "perfect", "perfect": "permeable"},
        DEFAULT_CONFIG["medium"]], ids=["permeable", "dielectric"])
    def test_force_rows_print_the_potential_of_plain_rows(self, tmp_path,
                                                          medium):
        # the potential columns of a --forces row are those of the plain
        # row, byte for byte
        cfg = write_config(tmp_path, {
            "medium": medium,
            "sweep": {"variable": "l", "start": 0.01, "stop": 0.1,
                      "points": 2, "scale": "log"}})
        columns = {}
        for flags in ([], ["--forces"]):
            out = tmp_path / "out.csv"
            assert run(["half-space", "--config", cfg, "--rel-tol", "1e-6",
                        "--output", str(out), *flags]) == 0
            _, rows = parse_csv(out.read_text())
            columns[bool(flags)] = [[r[c] for c in ("U0", "U1", "U2", "U",
                                                     "ratio")]
                                    for r in rows]
        assert columns[True] == columns[False]
        assert len(columns[True]) == 2

    @pytest.mark.parametrize("plate", ["conducting", "permeable"])
    def test_force_rows_keep_symmetries_exactly(self, tmp_path, plate):
        # Parallel rows: F_A,x = -F_B,x; vertical rows: no x force.
        for family, key in (("parallel", "z"), ("vertical", "z_a")):
            cfg = write_config(tmp_path, {
                "medium": {"kind": "perfect", "perfect": plate},
                "geometry": {"family": family, key: 0.01},
                "sweep": {"variable": "l", "start": 1e-3, "stop": 0.1,
                          "points": 3, "scale": "log"},
                "output": {"path": None, "format": "json"}})
            out = tmp_path / f"{family}.json"
            assert run(["half-space", "--config", cfg, "--forces",
                        "--output", str(out)]) == 0
            for row in json.loads(out.read_text())["rows"]:
                if family == "parallel":
                    assert row["F_on_A_x"] == -row["F_on_B_x"] != 0.0
                else:
                    assert row["F_on_A_x"] == 0.0 == row["F_on_B_x"]

    def test_worker_pool_gives_the_in_process_rows(self, tmp_path):
        # the row tasks carry the sweep's atoms, medium and QuadSpec
        # through the pool
        cfg = write_config(tmp_path, {
            "medium": {"kind": "perfect", "perfect": "conducting"},
            "sweep": {"variable": "l", "start": 1e-3, "stop": 0.1,
                      "points": 3, "scale": "log"},
            "output": {"path": None, "format": "json"}})
        rows = {}
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.json"
            assert run(["half-space", "--config", cfg, "--forces",
                        "--workers", workers, "--output", str(out)]) == 0
            rows[workers] = json.loads(out.read_text())["rows"]
        assert len(rows["1"]) == 3
        assert rows["2"] == rows["1"]

    def test_sweep_builds_its_scenario_once(self, tmp_path, monkeypatch):
        # a 6-point sweep builds its two atoms and its QuadSpec once, and
        # its medium once for the rows and once for the config check
        built = {"atoms": 0, "medium": 0, "spec": 0}

        def counting(name, make):
            def build(*args, **kwargs):
                built[name] += 1
                return make(*args, **kwargs)
            monkeypatch.setattr(cli, make.__name__, build)

        counting("atoms", cli.ResonanceAtom)
        counting("medium", cli._build_medium)
        counting("spec", cli.QuadSpec)
        cfg = write_config(tmp_path, {
            "medium": {"kind": "perfect", "perfect": "conducting"},
            "sweep": {"variable": "l", "start": 1e-3, "stop": 0.1,
                      "points": 6, "scale": "log"}})
        assert run(["half-space", "--config", cfg, "--output",
                    str(tmp_path / "out.csv")]) == 0
        assert built == {"atoms": 2, "medium": 2, "spec": 1}

    def test_free_space_medium_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "medium": {"kind": "free-space"},
            "sweep": {"variable": "l", "start": 0.5, "stop": 0.5,
                      "points": 1, "scale": "log"}})
        assert run(["half-space", "--config", cfg]) == 1
        out, err = capsys.readouterr()
        assert "non-vacuum" in err
        assert out == ""

    def test_json_output_and_config_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, {
            "rel_tol": 1e-6,
            "medium": {"kind": "perfect", "perfect": "conducting"},
            "sweep": {"variable": "l", "start": 0.1, "stop": 0.2,
                      "points": 2, "scale": "log"},
            "output": {"path": None, "format": "json"}})
        out1 = tmp_path / "a.json"
        assert run(["half-space", "--config", cfg, "--output",
                    str(out1)]) == 0
        payload = json.loads(out1.read_text())
        assert payload["command"] == "half-space"
        assert len(payload["rows"]) == 2
        # re-running from the emitted effective config reproduces the rows
        eff = dict(payload["effective_config"])
        eff["output"] = {"path": None, "format": "json"}
        cfg2 = write_config(tmp_path, eff, name="effective.json")
        out2 = tmp_path / "b.json"
        assert run(["half-space", "--config", cfg2, "--output",
                    str(out2)]) == 0
        assert json.loads(out2.read_text())["rows"] == payload["rows"]


class TestValidateCommand:
    def _fake(self, monkeypatch, results):
        import vdwpair.validate as validate
        monkeypatch.setattr(validate, "run_all",
                            lambda verbose=True: results)

    def test_all_pass_exit_zero(self, monkeypatch, capsys):
        self._fake(monkeypatch, [CheckResult(1, "a", True)])
        assert run(["validate"]) == 0
        assert "1/1 checks passed" in capsys.readouterr().out

    def test_failure_exit_three(self, monkeypatch, capsys):
        self._fake(monkeypatch, [CheckResult(1, "a", True),
                                 CheckResult(2, "b", False)])
        assert run(["validate"]) == 3
        assert "1/2 checks passed" in capsys.readouterr().out


def test_repeated_calls_leave_no_cyclic_garbage(capsys):
    """Each call reuses one parser, so with the collector off repeated
    calls leave no objects behind (a parser per call leaves its cycles)."""
    main(["thresholds"])
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for _ in range(20):
            main(["thresholds"])
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    capsys.readouterr()
    assert grown < 20


class TestSchemaRejectsBeforeRows:
    """Values that once reached the rows and ran their quadratures to the
    panel budget, or failed inside a row, are config errors."""

    @pytest.fixture(autouse=True)
    def no_rows(self, monkeypatch):
        def no_rows(_args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cli, "_half_space_row", no_rows)
        monkeypatch.setattr(cli, "_free_space_row", no_rows)

    @pytest.mark.parametrize("command,bad,field", [
        ("half-space", {"rel_tol": float("nan")}, "rel_tol"),
        ("half-space", {"sweep": {"start": float("nan")}}, "sweep.start"),
        ("free-space", {"geometry": {"family": "parallel",
                                     "z": float("inf")}}, "geometry.z"),
        ("half-space", {"medium": {"kind": "dielectric",
                                   "omegaP": float("nan"), "omegaT": 1.0,
                                   "gamma": 0.001}}, "medium.omegaP"),
        ("free-space", {"atoms": [{"omega10": float("inf"), "alpha0": 1.0},
                                  {"omega10": 1.0, "alpha0": 1.0}]},
         "atoms[0].omega10"),
    ])
    def test_non_finite_number(self, tmp_path, capsys, command, bad, field):
        path = write_config(tmp_path, bad)  # json writes NaN and Infinity
        assert run([command, "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"config error: field {field} must be a finite number\n"

    def test_non_finite_flag(self, capsys):
        assert run(["half-space", "--rel-tol", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "config error: field rel_tol must be a finite number\n"

    @pytest.mark.parametrize("bad,field", [
        ({"geometry": {"family": ["parallel"], "z": 0.01}},
         "geometry.family"),
        ({"medium": {"kind": ["dielectric"]}}, "medium.kind"),
    ])
    def test_selector_must_be_a_string(self, tmp_path, capsys, bad, field):
        path = write_config(tmp_path, bad)
        assert run(["half-space", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {field} must be ")

    def test_general_atoms_must_not_coincide(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "geometry": {"family": "general", "x_a": 0.5, "z_a": 1.0,
                         "x_b": 0.5, "z_b": 1.0},
            "sweep": {"variable": "l", "start": 1.0, "stop": 1.0,
                      "points": 1, "scale": "log"}})
        assert run(["half-space", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "atom positions must not coincide" in captured.err
