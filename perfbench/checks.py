"""Correctness checks on CLI output rows.

A row fails on a non-empty ``error`` column, a non-finite value, a broken
physical invariant, or (anchor rows) a miss against the stored reference.
``row_failures`` returns the reasons, so a failing row is counted and
explained, never dropped.
"""

from __future__ import annotations

import math

HALF_VALUES = ("U0", "U1", "U2", "U", "ratio")
FORCE_VALUES = ("F_on_A_x", "F_on_A_z", "F_on_B_x", "F_on_B_z")
FREE_VALUES = ("U", "force")


def _value_columns(command: str, config: dict) -> tuple[str, ...]:
    if command == "free-space":
        return FREE_VALUES
    return HALF_VALUES + (FORCE_VALUES if config["forces"] else ())


def _invariants(command: str, config: dict, row: dict) -> list[str]:
    tol = config["rel_tol"]
    if command == "free-space":
        sign = 1.0 if config["atoms"][1]["kind"] == "magnetic" else -1.0
        return [f"{col} has the wrong sign" for col in FREE_VALUES
                if sign * row[col] <= 0]
    out = []
    if row["U0"] >= 0:
        out.append("U0 >= 0 for an electric pair")
    if row["U2"] >= 0:
        out.append("U2 >= 0")
    if config["forces"]:
        fmax = max(abs(row[c]) for c in FORCE_VALUES)
        slack = 10.0 * tol * fmax
        if config["geometry"]["family"] == "parallel":
            if abs(row["F_on_A_x"] + row["F_on_B_x"]) > slack:
                out.append("F_A,x != -F_B,x on a parallel row")
        elif max(abs(row["F_on_A_x"]), abs(row["F_on_B_x"])) > slack:
            out.append("F_x != 0 on a vertical row")
    return out


def _reference_misses(command: str, config: dict, row: dict,
                      ref: dict) -> list[str]:
    tol = config["rel_tol"]
    out = []
    if command == "free-space":
        for col in FREE_VALUES:
            if abs(row[col] - ref[col]) > 10.0 * tol * abs(ref[col]):
                out.append(f"{col} misses its reference")
        return out
    scale = 10.0 * tol * abs(ref["U0"])
    for col in ("U0", "U1", "U2", "U"):
        if abs(row[col] - ref[col]) > scale:
            out.append(f"{col} misses its reference")
    if config["forces"]:
        slack = 1e-4 * max(abs(ref[c]) for c in FORCE_VALUES)
        for col in FORCE_VALUES:
            if abs(row[col] - ref[col]) > slack:
                out.append(f"{col} misses its reference")
    return out


def row_failures(command: str, config: dict, row: dict,
                 ref: dict | None = None) -> list[str]:
    """Reasons the row fails; empty when it passes."""
    if row.get("error"):
        return [f"error marker: {row['error']}"]
    values = {}
    for col in _value_columns(command, config):
        val = row.get(col)
        if isinstance(val, bool) or not isinstance(val, (int, float)) \
                or not math.isfinite(val):
            return [f"{col} is not a finite number: {val!r}"]
        values[col] = float(val)
    out = _invariants(command, config, values)
    if ref is not None:
        out += _reference_misses(command, config, values, ref)
    return out
