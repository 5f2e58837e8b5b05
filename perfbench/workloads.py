"""Seeded inputs and correctness gates of the four benchmark workloads.

Each workload writes its configs (and CSV geometries) into a directory and
returns the CLI tasks of one pass.  The program sees only these files, never
a workload name.  Configs leave ``flow.dt`` and ``flow.scheme`` unset, so the
package defaults apply and a better stepping scheme can move ``wall_s``; the
gates below fix what counts as a solution.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from skewflow.flow import product_torus_ode_oracle
from skewflow.geometry import make_perturbed_circle, save_immersion_csv

ORDER_MIN = 1.9
TORUS_RADII_TOL = 1e-4
TORUS_AB_TOL = 1e-6
DRIFT_TOL = 1e-6
ISOMETRY_TOL = 1e-12
# the final curve may differ from the reference solution by at most 1% of the
# spatial error of the 512-node grid (1.3e-6, from 512 against 1024 nodes)
CURVE_TOL = 1e-8
# the Codazzi residual is a second-order discretization error: its max over
# h^2 lay in 0.0085-0.042 for 2000 seeds; zero or a first-order error falls outside
CODAZZI_BAND = (0.002, 0.2)

TORUS_FLOW_N = 176
TORUS_FLOW_T_END = 0.03
CURVE_NODES = 512
CURVE_T_END = 0.04
TORUS_VERIFY = {"a": 1.0, "b": 0.6, "eps": 0.05}
CONVERGE_SIZES = [32, 64, 128, 256]
CODAZZI_N = 256


@dataclass(frozen=True)
class Task:
    """One CLI operation: its arguments (without ``--out``) and its gate."""

    argv: tuple[str, ...]
    check: Callable[[Path], list[str]]


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(path)


def _read_rows(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _gate(problems: list[str], ok: bool, message: str):
    if not ok:
        problems.append(message)


def _check_diagnostics(path: Path, t_end: float, torus: bool) -> list[str]:
    """Drift gates on diagnostics.csv; torus rows are also checked against the ODE oracle."""
    problems: list[str] = []
    header, rows = _read_rows(path)
    expected = ["t", "volume", "min_sv"] + (["a_fit", "b_fit"] if torus else [])
    _gate(problems, header == expected, f"{path.name}: header {header}, expected {expected}")
    _gate(problems, len(rows) >= 2, f"{path.name}: {len(rows)} rows, expected at least two")
    if problems:
        return problems
    _gate(problems, all(math.isfinite(v) for row in rows for v in row), f"{path.name}: non-finite value")
    _gate(problems, abs(rows[-1][0] - t_end) <= 1e-12, f"{path.name}: last row at t={rows[-1][0]}, not {t_end}")
    vol0 = rows[0][1]
    drift = max(abs(row[1] - vol0) / vol0 for row in rows)
    _gate(problems, drift <= DRIFT_TOL, f"{path.name}: relative volume drift {drift:.3e} > {DRIFT_TOL}")
    if torus:
        for t, _, _, a_fit, b_fit in rows[1:]:
            _, a_ref, b_ref = product_torus_ode_oracle(1.0, 1.0, t, 1e-4)
            err = max(abs(a_fit - a_ref[-1]), abs(b_fit - b_ref[-1]))
            _gate(problems, err <= TORUS_RADII_TOL, f"t={t}: radii off the ODE oracle by {err:.3e}")
            _gate(problems, abs(a_fit * b_fit - 1.0) <= TORUS_AB_TOL, f"t={t}: |a*b - 1| = {abs(a_fit * b_fit - 1.0):.3e}")
    return problems


def _check_order(path: Path, need_monotone: bool) -> list[str]:
    table = _read_json(path)
    order = table.get("observed_order")
    problems: list[str] = []
    _gate(problems, order is not None and order >= ORDER_MIN, f"{path.name}: observed order {order} < {ORDER_MIN}")
    if need_monotone:
        _gate(problems, table.get("monotone") is True, f"{path.name}: residuals not monotone")
    return problems


def _check_residual(out: Path, n: int) -> list[str]:
    problems: list[str] = []
    header, rows = _read_rows(out / "residual.csv")
    _gate(problems, header == ["i", "j", "residual"], f"residual.csv: header {header}")
    _gate(problems, len(rows) == n * n, f"residual.csv: {len(rows)} rows, expected {n * n}")
    values = [row[-1] for row in rows]
    _gate(problems, all(math.isfinite(v) for v in values), "residual.csv: non-finite residual")
    reported = _read_json(out / "report.json")["norms"]["max"]
    _gate(problems, bool(values) and max(values) == reported,
          f"residual.csv: max {max(values, default=None)} differs from report.json norms.max {reported}")
    h2 = (2.0 * math.pi / n) ** 2
    low, high = CODAZZI_BAND[0] * h2, CODAZZI_BAND[1] * h2
    _gate(problems, low <= reported <= high, f"report.json: norms.max {reported:.3e} outside [{low:.3e}, {high:.3e}]")
    return problems


def torus_flow(seed: int, where: Path, tiny: bool):
    """The criterion-06 product torus a = b = 1.

    The CLI writes the fitted radii that the ODE-oracle gate reads only for
    its torus kinds, and a product torus has no seed, so the input is the same
    for every seed; the seed reaches only ``flow.seed``, which the flow does
    not read.
    """
    t_end = 0.002 if tiny else TORUS_FLOW_T_END
    n = TORUS_FLOW_N
    config = _write_json(where / "torus_flow.json", {
        "geometry": {"kind": "product_torus", "a": 1.0, "b": 1.0},
        "grid": {"sizes": [n, n]},
        "flow": {"t_end": t_end, "output_every": 50, "seed": seed},
    })
    task = Task(("simulate", "--config", config), lambda out: _check_diagnostics(out / "diagnostics.csv", t_end, True))
    return [task], {"grid": [n, n], "t_end": t_end}


def torus_verify(seed: int, where: Path, tiny: bool):
    sizes = [16, 32, 64] if tiny else CONVERGE_SIZES
    n = sizes[-1] if tiny else CODAZZI_N
    geometry = {"kind": "perturbed_torus", **TORUS_VERIFY, "seed": seed}
    converge = _write_json(where / "converge.json", {
        "verify_name": "theorem1", "resolutions": sizes, "geometry": geometry,
    })
    codazzi = _write_json(where / "codazzi.json", {
        "verify_name": "codazzi", "geometry": geometry, "grid": {"sizes": [n, n]},
    })
    tasks = [
        Task(("converge", "--config", converge), lambda out: _check_order(out / "convergence_table.json", True)),
        Task(("verify", "--config", codazzi), lambda out: _check_residual(out, n)),
    ]
    return tasks, {"converge_grids": sizes, "codazzi_grid": [n, n]}


def _binormal_velocity(F: np.ndarray, h: float) -> np.ndarray:
    """Skew flow of a curve in R^3 on centered differences: F' = F_u x F_uu / |F_u|^3."""
    up, down = np.roll(F, -1, axis=0), np.roll(F, 1, axis=0)
    d1 = (up - down) / (2.0 * h)
    d2 = (up - 2.0 * F + down) / (h * h)
    speed2 = np.einsum("ij,ij->i", d1, d1)
    return np.cross(d1, d2) / (speed2 * np.sqrt(speed2))[:, None]


def curve_reference(F: np.ndarray, t_end: float) -> np.ndarray:
    """The curve at t_end, integrated apart from the package by RK4 at half its default step 0.1 h^2."""
    h = 2.0 * math.pi / len(F)
    dt = 0.05 * h * h
    t = 0.0
    while t < t_end - 1e-12:
        d = min(dt, t_end - t)
        k1 = _binormal_velocity(F, h)
        k2 = _binormal_velocity(F + 0.5 * d * k1, h)
        k3 = _binormal_velocity(F + 0.5 * d * k2, h)
        k4 = _binormal_velocity(F + d * k3, h)
        F = F + (d / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += d
    return F


def _check_curve(out: Path, t_end: float, reference: np.ndarray) -> list[str]:
    """Length drift, and the last snapshot against the reference curve."""
    problems = _check_diagnostics(out / "diagnostics.csv", t_end, False)
    snapshots = sorted(out.glob("snapshot_*.csv"))
    _gate(problems, bool(snapshots), "no snapshot written")
    if snapshots:
        _, rows = _read_rows(snapshots[-1])
        F = np.array(rows)
        _gate(problems, F.shape == reference.shape, f"{snapshots[-1].name}: shape {F.shape}, expected {reference.shape}")
        if F.shape == reference.shape:
            err = float(np.max(np.abs(F - reference)))
            _gate(problems, err <= CURVE_TOL, f"{snapshots[-1].name}: off the reference curve by {err:.3e} > {CURVE_TOL}")
    return problems


def curve_flow(seed: int, where: Path, tiny: bool):
    """A seeded curve, passed as a file; its last snapshot is checked against ``curve_reference``."""
    t_end = 0.002 if tiny else CURVE_T_END
    imm = make_perturbed_circle(1.0, 0.2, seed, CURVE_NODES)
    save_immersion_csv(imm, where / "curve.csv")
    config = _write_json(where / "curve_flow.json", {
        "geometry": {"kind": "file", "path": str(where / "curve.csv")},
        "grid": {"sizes": [CURVE_NODES]},
        "flow": {"t_end": t_end, "output_every": 500},
        "snapshots": True,
    })
    reference = curve_reference(imm.F, t_end)
    task = Task(("simulate", "--config", config), lambda out: _check_curve(out, t_end, reference))
    return [task], {"grid": [CURVE_NODES], "t_end": t_end}


def _check_theorem2(out: Path) -> list[str]:
    path = out / "convergence_table.json"
    problems = _check_order(path, need_monotone=False)
    iso = _read_json(path)["params"]["isometry_max"]
    _gate(problems, iso <= ISOMETRY_TOL, f"isometry_max {iso:.3e} > {ISOMETRY_TOL}")
    return problems


def frame_algebra(seed: int, where: Path, tiny: bool):
    h_list = [1e-2, 1e-3, 1e-4]
    config = _write_json(where / "theorem2.json", {"verify_name": "theorem2", "h_list": h_list, "flow": {"seed": seed}})
    return [Task(("verify", "--config", config), _check_theorem2)], {"h_list": h_list}


# name -> make(seed, input_dir, tiny) -> (tasks of one pass, grid sizes for provenance);
# BENCHMARK.json records why each workload is in the set
WORKLOADS = {
    "torus-flow": torus_flow,
    "torus-verify": torus_verify,
    "curve-flow": curve_flow,
    "frame-algebra": frame_algebra,
}

# name -> the parts of hostspeed.reference_work whose kind of cost matches the
# workload's: whole-grid stencils for the torus workloads, and for the others
# many small calls as well
REFERENCE_PARTS = {
    "torus-flow": ("grid",),
    "torus-verify": ("grid",),
    "curve-flow": ("grid", "calls"),
    "frame-algebra": ("grid", "calls"),
}

_GENERATED_AT = re.compile(rb'^\s*"generated_at": "[^"]*",?\n', re.MULTILINE)


def same_outputs(out: Path, reference: Path) -> list[str]:
    """Byte comparison of two output directories, ignoring the generated_at line."""
    names, ref_names = sorted(p.name for p in out.iterdir()), sorted(p.name for p in reference.iterdir())
    if names != ref_names:
        return [f"{out.name}: files {names} differ from {ref_names}"]
    return [
        f"{name} differs from the first pass"
        for name in names
        if _GENERATED_AT.sub(b"", (out / name).read_bytes()) != _GENERATED_AT.sub(b"", (reference / name).read_bytes())
    ]
