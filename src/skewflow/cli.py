"""Batch front-end: configure a geometry and a flow, run, write CSV/JSON.

Subcommands
-----------
simulate   integrate the flow, write per-output diagnostics (and optional
           node snapshots)
verify     evaluate one named residual, write a report JSON plus the
           per-node residual CSV
converge   run a residual across several resolutions, write the
           convergence table JSON/CSV

Configuration is a JSON file (--config) with optional flag overrides; the
README documents the schema with one example per geometry kind.  Exit codes:
0 success, 1 invalid usage or configuration, 2 runtime degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .errors import DegenerateImmersionError, SkewflowError
from .flow import FlowConfig, explicit_step_bound, fitted_torus_radii, run, stable_dt
from .geometry import FAMILIES, Immersion, fundamental_forms, load_immersion_csv, save_immersion_csv, volume
from .verify import (
    PROBLEMS,
    Report,
    convergence_study,
    report_to_dict,
    residual_codazzi,
    residual_identify,
    residual_theorem1,
    save_json,
    save_residual_csv,
    save_table_csv,
    table_to_dict,
    theorem2_suite,
)

TASKS = ("simulate", "verify", "converge")
VERIFY_NAMES = ("theorem1", "theorem1_mcf", "codazzi", "identify", "theorem2", "conservation")
# the keys of the config root and of its grid and flow blocks (the README's schema)
CONFIG_KEYS = {
    None: ("geometry", "grid", "flow", "verify_name", "resolutions", "h_list", "snapshots", "output_dir"),
    "grid": ("sizes", "periods"),
    "flow": ("flow_kind", "dt", "t_end", "scheme", "output_every", "seed"),
}
# the root keys of the tasks that read only some of them
ROOT_KEYS = {
    "converge": ("geometry", "grid", "flow", "verify_name", "resolutions", "output_dir"),
    "verify theorem2": ("flow", "verify_name", "h_list", "output_dir"),
}


class ConfigError(SkewflowError):
    pass


def _require(config: dict, fields: list[str], where: str):
    missing = [f for f in fields if f not in config]
    if missing:
        raise ConfigError(f"{where}: missing fields {missing}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """A JSON integer; a float with no fractional part counts."""
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _number(section: dict, key: str, where: str, default=None) -> float:
    """section[key] (or default) as a float, or a ConfigError naming the field."""
    value = section.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where}.{key} is too large for a float") from None


def _integer(section: dict, key: str, where: str, default=None) -> int:
    """section[key] (or default) as an int, or a ConfigError naming the field."""
    value = section.get(key, default)
    if not _is_integer(value):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return int(value)


def _int_list(value, field: str) -> list[int]:
    """value as a list of integers, or a ConfigError that names the field."""
    if isinstance(value, list) and all(_is_integer(v) for v in value):
        return [int(v) for v in value]
    raise ConfigError(f"{field} must be a list of integers, got {value!r}")


def _check_keys(section: dict, keys, where: str | None, reader: str):
    """A ConfigError naming the first key not in ``keys`` of a config section (None: the root) or flag list."""
    for key in section:
        if key not in keys:
            raise ConfigError(f"{f'{where}.' if where else ''}{key} is not read by {reader}")


def _family_values(geometry: dict, keys) -> dict:
    """The values of the family keys that ``geometry`` sets, checked and in ``keys`` order."""
    return {key: (_integer if key == "seed" else _number)(geometry, key, "geometry") for key in keys if key in geometry}


def load_config(path: str, overrides: argparse.Namespace) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    for section in ("geometry", "grid", "flow"):
        if not isinstance(config.get(section, {}), dict):
            raise ConfigError(f"{section} must be a JSON object, got {config[section]!r}")
    for section, keys in CONFIG_KEYS.items():
        _check_keys(config.get(section, {}) if section else config, keys, section, "any task")
    # converge's problems step at stable_dt on the grids of its resolutions, and
    # verify theorem2 draws seeded frames: neither reads a step, a grid size or snapshots
    reader = "converge" if overrides.task == "converge" else None
    if overrides.task == "verify" and (overrides.verify_name or config.get("verify_name")) == "theorem2":
        reader = "verify theorem2"
    if reader is not None:
        flags = {"--dt": overrides.dt, "--t-end": overrides.t_end, "--n": overrides.n, "--snapshots": overrides.snapshots or None}
        _check_keys([flag for flag, value in flags.items() if value is not None], (), None, reader)
        _check_keys(config, ROOT_KEYS[reader], None, reader)
        _check_keys(config.get("flow", {}), ("seed",), "flow", reader)

    flow = config.setdefault("flow", {})
    if overrides.dt is not None:
        flow["dt"] = overrides.dt
    if overrides.t_end is not None:
        flow["t_end"] = overrides.t_end
    if overrides.verify_name:
        config["verify_name"] = overrides.verify_name
    # the family that the config builds: geometry.kind, or under converge without one, its problem's
    kind, name = config.get("geometry", {}).get("kind"), config.get("verify_name", "theorem1")
    if kind is None and overrides.task == "converge" and isinstance(name, str) and name in PROBLEMS:
        kind = PROBLEMS[name][0]
    _, keys, axes = FAMILIES[kind] if isinstance(kind, str) and kind in FAMILIES else (None, (), None)
    if overrides.seed is not None:
        flow["seed"] = overrides.seed
        if "seed" in keys:  # geometry.seed only where the geometry reads one
            config.setdefault("geometry", {})["seed"] = overrides.seed
    if overrides.n is not None:
        grid_cfg = config.setdefault("grid", {})
        dims = len(_int_list(grid_cfg.get("sizes", []), "grid.sizes")) or axes or 2
        grid_cfg["sizes"] = [overrides.n] * dims
    if overrides.out is not None:
        config["output_dir"] = overrides.out
    if not isinstance(config.get("output_dir", ""), str):
        raise ConfigError(f"output_dir must be a string, got {config['output_dir']!r}")
    if overrides.snapshots:
        config["snapshots"] = True
    if not isinstance(config.get("snapshots", False), bool):
        raise ConfigError(f"snapshots must be true or false, got {config['snapshots']!r}")
    return config


def build_immersion(config: dict) -> Immersion:
    _require(config, ["geometry", "grid"], "config")
    geometry = config["geometry"]
    grid_cfg = config["grid"]
    _require(geometry, ["kind"], "geometry")
    _require(grid_cfg, ["sizes"], "grid")
    kind = geometry["kind"]
    sizes = _int_list(grid_cfg["sizes"], "grid.sizes")
    kinds = (*FAMILIES, "file")
    if kind not in kinds:
        raise ConfigError(f"geometry: unknown kind {kind!r}, expected one of {kinds}")
    # a file geometry reads its one key, path, below
    builder, keys, axes = FAMILIES[kind] if kind in FAMILIES else (None, ("path",), None)
    _check_keys(geometry, ("kind", *keys), "geometry", f"a {kind} geometry")
    _require(geometry, list(keys), f"geometry({kind})")
    if builder is not None:
        if len(sizes) != axes:
            raise ConfigError(f"geometry: {kind} needs a {axes}-axis grid")
        return builder(*_family_values(geometry, keys).values(), *sizes)
    path, periods = geometry["path"], grid_cfg.get("periods")
    if not isinstance(path, str):
        raise ConfigError(f"geometry.path must be a string, got {path!r}")
    if len(sizes) not in (1, 2):
        raise ConfigError(f"grid.sizes of a file geometry needs 1 or 2 axes, got {sizes}")
    if periods is not None:
        if not (isinstance(periods, list) and all(_is_number(p) for p in periods)):
            raise ConfigError(f"grid.periods must be a list of numbers, got {periods!r}")
        try:
            periods = [float(p) for p in periods]
        except OverflowError:
            raise ConfigError("grid.periods holds a number too large for a float") from None
        if not all(0.0 < p < np.inf for p in periods):
            raise ConfigError(f"grid.periods must be finite and positive, got {periods}")
    return load_immersion_csv(path, sizes, periods)


def build_flow_config(config: dict, imm: Immersion) -> FlowConfig:
    """The flow settings of a config.  Unset, the scheme is IMEX on tori and
    RK4 on curves.  Unset, the step is 0.1 min(h) under IMEX, whose O(dt^2)
    time error then matches the O(h^2) stencils, half of
    ``explicit_step_bound`` under RK4 (and no more than ``stable_dt`` except
    for the skew flow of a curve).  An RK4 step set above the bound runs
    after a warning on stderr."""
    flow = dict(config.get("flow", {}))
    try:
        flow_config = FlowConfig(
            flow_kind=flow.get("flow_kind", "SMCF"),
            dt=_number(flow, "dt", "flow", 1.0),  # the default replaces it below
            t_end=_number(flow, "t_end", "flow", 0.1),
            scheme=flow.get("scheme", "IMEX" if imm.grid.m == 2 else "RK4"),
            output_every=_integer(flow, "output_every", "flow", 1),
        )
    except ValueError as exc:
        # FlowConfig's messages start with the field name
        raise ConfigError(f"flow.{exc}") from exc
    scheme = flow_config.scheme
    if "dt" not in flow:
        if scheme == "RK4":
            dt = 0.5 * explicit_step_bound(imm)
            if flow_config.flow_kind == "MCF" or imm.grid.m == 2:
                # the bound holds at t = 0; only the binormal flow of a curve
                # keeps the metric that sets it, so the others stay at or
                # below stable_dt
                dt = min(dt, stable_dt(imm))
        else:
            dt = 0.1 * min(imm.grid.spacings)
        return dataclasses.replace(flow_config, dt=dt)
    if scheme == "RK4" and flow_config.dt > (bound := explicit_step_bound(imm)):
        print(f"warning: flow.dt = {flow_config.dt!r} exceeds the RK4 stability bound {bound!r}", file=sys.stderr)
    return flow_config


def task_simulate(config: dict, out_dir: Path) -> int:
    imm = build_immersion(config)
    flow_config = build_flow_config(config, imm)
    traj = run(imm, flow_config)
    # the fitted radii of the tori that a family builds; a file has no radii to fit
    torus = config["geometry"]["kind"] in FAMILIES and imm.grid.m == 2
    diag_path = out_dir / "diagnostics.csv"
    with open(diag_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t", "volume", "min_sv"] + (["a_fit", "b_fit"] if torus else [])
        writer.writerow(header)
        for state in traj.states:
            geom = fundamental_forms(state.immersion)
            row = [
                repr(state.t),
                repr(float(np.sum(geom.sqrt_det_g) * state.immersion.grid.cell_measure())),
                repr(float(np.min(geom.min_sv))),
            ]
            if torus:
                a_fit, b_fit, _ = fitted_torus_radii(state.immersion)
                row += [repr(a_fit), repr(b_fit)]
            writer.writerow(row)
    if config.get("snapshots", False):
        for idx, state in enumerate(traj.states):
            save_immersion_csv(state.immersion, out_dir / f"snapshot_{idx:04d}.csv")
    print(f"simulate: wrote {diag_path} ({len(traj)} outputs)")
    return 0


def _conservation_report(config: dict) -> Report:
    imm = build_immersion(config)
    flow_config = build_flow_config(config, imm)
    traj = run(imm, flow_config)
    volumes = np.array([volume(s.immersion) for s in traj.states])
    drift = np.abs(volumes - volumes[0]) / volumes[0]
    return Report(
        name="conservation",
        field=drift,
        norms={"max": float(np.max(drift)), "l2": float(np.sqrt(np.mean(drift**2)))},
        grid_sizes=traj.grid.sizes,
        dt=flow_config.dt,
        metadata={"flow_kind": flow_config.flow_kind, "geometry": config["geometry"]["kind"]},
    )


def task_verify(config: dict, out_dir: Path) -> int:
    name = config.get("verify_name")
    if name not in VERIFY_NAMES:
        raise ConfigError(f"verify_name must be one of {VERIFY_NAMES}, got {name!r}")
    seed = _integer(config.get("flow", {}), "seed", "flow", 0)
    if name == "theorem2":
        h_list = config.get("h_list", [1e-2, 1e-3, 1e-4])
        if not (isinstance(h_list, list) and all(_is_number(h) for h in h_list)):
            raise ConfigError(f"h_list must be a list of numbers, got {h_list!r}")
        table = theorem2_suite(seed, h_list)
        save_json(table_to_dict(table), out_dir / "convergence_table.json")
        save_table_csv(table, out_dir / "convergence_table.csv")
        print(f"verify theorem2: order={table.observed_order}, isometry_max={table.metadata['isometry_max']:.3e}")
        return 0
    if name == "conservation":
        report = _conservation_report(config)
    else:
        imm = build_immersion(config)
        meta = {"geometry": config["geometry"]["kind"], "seed": seed}
        if name in ("theorem1", "theorem1_mcf"):
            flow_config = build_flow_config(config, imm)
            if flow_config.t_end < 2 * flow_config.dt:
                raise ConfigError(
                    f"flow.t_end = {flow_config.t_end!r} is below 2 * flow.dt = {2 * flow_config.dt!r}: "
                    f"verify {name} needs a centered time difference"
                )
            # the time derivative needs consecutive states, so record every step
            traj = run(imm, dataclasses.replace(flow_config, output_every=1))
            # a centered difference over two full steps: when the shortened
            # last step follows the middle state, take the state before it
            mid = len(traj) // 2
            if traj[mid + 1].t - traj[mid].t < (1.0 - 1e-9) * flow_config.dt:
                mid -= 1
            report = residual_theorem1(traj, mid, use_jtilde=(name == "theorem1"), metadata=meta)
        elif name == "codazzi":
            report = residual_codazzi(fundamental_forms(imm), metadata=meta)
        else:
            report = residual_identify(fundamental_forms(imm), metadata=meta)
    save_json(report_to_dict(report), out_dir / "report.json")
    save_residual_csv(report, out_dir / "residual.csv")
    print(f"verify {name}: max={report.norms['max']:.6e} l2={report.norms['l2']:.6e}")
    return 0


def task_converge(config: dict, out_dir: Path) -> int:
    name = config.get("verify_name", "theorem1")
    if not isinstance(name, str) or name not in PROBLEMS:
        raise ConfigError(f"converge supports {sorted(PROBLEMS)}, got {name!r}")
    resolutions = _int_list(config.get("resolutions"), "converge: resolutions")
    if len(resolutions) < 2:
        raise ConfigError("converge: need 'resolutions' with at least two entries")
    geometry = config.get("geometry", {})
    family = PROBLEMS[name][0]
    kind = geometry.get("kind", family)
    if kind != family:
        builds = f"a {family}" if family else "no configurable geometry"
        raise ConfigError(f"geometry.kind is {kind!r}, but converge {name} builds {builds}")
    keys = FAMILIES[family][1] if family else ()
    _check_keys(geometry, ("kind", *keys), "geometry", f"converge {name}")
    table = convergence_study(name, resolutions, **_family_values(geometry, keys))
    save_json(table_to_dict(table), out_dir / "convergence_table.json")
    save_table_csv(table, out_dir / "convergence_table.csv")
    print(f"converge {name}: observed_order={table.observed_order}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skewflow", description=__doc__)
    sub = parser.add_subparsers(dest="task")
    for task in TASKS:
        p = sub.add_parser(task)
        p.add_argument("--config", required=True, help="path to a JSON configuration file")
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--t-end", dest="t_end", type=float, default=None)
        p.add_argument("--n", type=int, default=None, help="override grid size (all axes)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--verify-name", dest="verify_name", default=None)
        p.add_argument("--snapshots", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.task not in TASKS:
        parser.print_usage(sys.stderr)
        print(f"error: task must be one of {TASKS}", file=sys.stderr)
        return 1
    try:
        config = load_config(args.config, args)
        out_dir = Path(config.get("output_dir", "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.task == "simulate":
            return task_simulate(config, out_dir)
        if args.task == "verify":
            return task_verify(config, out_dir)
        return task_converge(config, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateImmersionError as exc:
        print(f"degenerate immersion: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
