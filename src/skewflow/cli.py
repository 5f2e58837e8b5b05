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
    THEOREM1_FLOWS,
    Report,
    convergence_study,
    report_to_dict,
    save_json,
    save_residual_csv,
    save_table_csv,
    table_to_dict,
    theorem2_suite,
)

_RUN = ("flow_kind", "dt", "t_end", "scheme", "output_every")  # the flow keys of a run
# task (under verify, per verify_name) -> (the root keys, the flow keys) that it reads; every
# task also reads output_dir and flow.seed, and a task that reads grid reads GRID_KEYS of it,
# periods only with a file geometry
READS = {
    "simulate": (("geometry", "grid", "snapshots"), _RUN),
    "verify theorem1": (("geometry", "grid", "verify_name"), ("dt", "t_end", "scheme")),
    "verify theorem1_mcf": (("geometry", "grid", "verify_name"), ("dt", "t_end", "scheme")),
    "verify codazzi": (("geometry", "grid", "verify_name"), ()),
    "verify identify": (("geometry", "grid", "verify_name"), ()),
    "verify theorem2": (("verify_name", "h_list"), ()),
    "verify conservation": (("geometry", "grid", "verify_name"), _RUN),
    "converge": (("geometry", "verify_name", "resolutions"), ()),
}
GRID_KEYS = ("sizes", "periods")
# each flag: the key that it sets, and its argparse options
FLAGS = {
    "--dt": ("flow.dt", {"type": float}),
    "--t-end": ("flow.t_end", {"type": float}),
    "--n": ("grid", {"type": int, "help": "override grid size (all axes)"}),
    "--seed": ("flow.seed", {"type": int}),
    "--out": ("output_dir", {"help": "output directory"}),
    "--verify-name": ("verify_name", {}),
    "--snapshots": ("snapshots", {"action": "store_true"}),
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
    """section[key] (or default) as a finite float, or a ConfigError naming the field."""
    value = section.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{where}.{key} is too large for a float") from None
    if not np.isfinite(number):  # json.load reads NaN and Infinity
        raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
    return number


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
    """A ConfigError naming the first key not in ``keys`` of a config section (None: the root)."""
    for key in section:
        if key not in keys:
            raise ConfigError(f"{f'{where}.' if where else ''}{key} is not read by {reader}")


def _family(config: dict, task: str | None = None) -> tuple:
    """The kind of geometry that ``config`` builds, its builder, keys and axes, and the checked numbers
    of the family keys it sets: geometry.kind's family, or under converge, its problem's; a file reads
    its path.  An unknown kind, or a geometry or grid key the kind does not read, raises."""
    geometry, kinds = config.get("geometry", {}), (*FAMILIES, "file")
    kind = geometry.get("kind")
    reader = f"a {kind} geometry"
    if task == "converge":
        name = config.get("verify_name", "theorem1")
        family, reader = PROBLEMS[name][0], f"converge {name}"
        if kind not in (None, family):
            raise ConfigError(f"geometry.kind is {kind!r}, but converge {name} builds a {family}")
        kind = family
    elif kind is None:  # no kind to check the keys against: build_immersion names it missing
        return None, None, (), None, {}
    elif kind not in kinds:
        raise ConfigError(f"geometry: unknown kind {kind!r}, expected one of {kinds}")
    builder, keys, axes = {**FAMILIES, "file": (None, ("path",), None)}[kind]
    _check_keys(geometry, ("kind", *keys), "geometry", reader)
    _check_keys(config.get("grid", {}), ("sizes",) if builder else GRID_KEYS, "grid", reader)  # a family's period is 2 pi
    checks = {k: _integer if k == "seed" else _number for k in keys if builder and k in geometry}
    return kind, builder, keys, axes, {k: check(geometry, k, "geometry") for k, check in checks.items()}


def _reader(config: dict, overrides: argparse.Namespace) -> str:
    """The row of ``READS`` for a run: its task, and under verify its verify_name."""
    name = config.get("verify_name", "theorem1" if overrides.task == "converge" else None)
    name = name if overrides.verify_name is None else overrides.verify_name
    if overrides.task == "converge" and not (isinstance(name, str) and name in PROBLEMS):
        raise ConfigError(f"converge supports {sorted(PROBLEMS)}, got {name!r}")
    task = f"verify {name}" if overrides.task == "verify" else overrides.task
    if task not in READS:
        names = tuple(row.split()[1] for row in READS if row.startswith("verify "))
        raise ConfigError(f"verify_name must be one of {names}, got {name!r}")
    return task


def load_config(path: str, overrides: argparse.Namespace) -> dict:
    """The config at ``path`` with the flags applied.  A key or a flag that the
    task does not read (``READS``) is a ConfigError naming it."""
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
    task = _reader(config, overrides)
    roots, flow_keys = READS[task]
    reads = {None: (*roots, "flow", "output_dir"), "grid": GRID_KEYS, "flow": (*flow_keys, "seed")}
    for flag, (key, _) in FLAGS.items():
        section, _, leaf = key.rpartition(".")
        value = getattr(overrides, flag[2:].replace("-", "_"))
        if value is not None and leaf not in reads[section or None]:
            raise ConfigError(f"{flag} sets {key}, which {task} does not read")
        if value is not None and flag != "--n":  # --n sets grid.sizes on the geometry's axes, below
            (config.setdefault(section, {}) if section else config)[leaf] = value
    for section, keys in reads.items():
        _check_keys(config.get(section, {}) if section else config, keys, section, task)
    _, _, keys, axes, _ = _family(config, overrides.task)
    if overrides.seed is not None and "seed" in keys:  # geometry.seed only where the geometry reads one
        config.setdefault("geometry", {})["seed"] = overrides.seed
    if overrides.n is not None:
        grid_cfg = config.setdefault("grid", {})
        dims = len(_int_list(grid_cfg.get("sizes", []), "grid.sizes")) or axes or 2
        grid_cfg["sizes"] = [overrides.n] * dims
    if not isinstance(config.get("output_dir", ""), str):
        raise ConfigError(f"output_dir must be a string, got {config['output_dir']!r}")
    if not isinstance(config.get("snapshots", False), bool):
        raise ConfigError(f"snapshots must be true or false, got {config['snapshots']!r}")
    return config


def build_immersion(config: dict) -> Immersion:
    _require(config, ["geometry", "grid"], "config")
    geometry = config["geometry"]
    grid_cfg = config["grid"]
    _require(geometry, ["kind"], "geometry")
    _require(grid_cfg, ["sizes"], "grid")
    kind, builder, keys, axes, values = _family(config)
    sizes = _int_list(grid_cfg["sizes"], "grid.sizes")
    _require(geometry, list(keys), f"geometry({kind})")
    if builder is not None:
        if len(sizes) != axes:
            raise ConfigError(f"geometry: {kind} needs a {axes}-axis grid")
        return builder(*values.values(), *sizes)
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


def build_flow_config(config: dict, imm: Immersion, flow_kind: str | None = None) -> FlowConfig:
    """The flow settings of a config; ``flow_kind``, where given, takes the
    place of flow.flow_kind.  Unset, the scheme is IMEX on tori and
    RK4 on curves.  Unset, the step is 0.1 min(h) under IMEX, whose O(dt^2)
    time error then matches the O(h^2) stencils, half of
    ``explicit_step_bound`` under RK4 (and no more than ``stable_dt`` except
    for the skew flow of a curve).  An RK4 step set above the bound runs
    after a warning on stderr."""
    flow = dict(config.get("flow", {}))
    try:
        flow_config = FlowConfig(
            flow_kind=flow_kind or flow.get("flow_kind", "SMCF"),
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
            geom = fundamental_forms(state.immersion, state.t)
            row = [repr(state.t), repr(geom.volume), repr(float(np.min(geom.min_sv)))]
            del geom  # one geometry at a time: the next state's is built without this one
            if torus:
                a_fit, b_fit, _ = fitted_torus_radii(state.immersion)
                row += [repr(a_fit), repr(b_fit)]
            writer.writerow(row)
    if config.get("snapshots", False):
        for idx, state in enumerate(traj.states):
            save_immersion_csv(state.immersion, out_dir / f"snapshot_{idx:04d}.csv")
    print(f"simulate: wrote {diag_path} ({len(traj)} outputs)")
    return 0


def _conservation_report(config: dict, imm: Immersion) -> Report:
    flow_config = build_flow_config(config, imm)
    traj = run(imm, flow_config)
    volumes = np.array([volume(s.immersion, s.t) for s in traj.states])
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
    name = config["verify_name"]
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
    imm = build_immersion(config)
    meta = {"geometry": config["geometry"]["kind"], "seed": seed}
    if name == "conservation":
        report = _conservation_report(config, imm)
    else:
        flow = build_flow_config(config, imm, THEOREM1_FLOWS[name]) if name in THEOREM1_FLOWS else None
        report = PROBLEMS[name][1](imm, flow, meta)
    save_json(report_to_dict(report), out_dir / "report.json")
    save_residual_csv(report, out_dir / "residual.csv")
    print(f"verify {name}: max={report.norms['max']:.6e} l2={report.norms['l2']:.6e}")
    return 0


def task_converge(config: dict, out_dir: Path) -> int:
    name = config.get("verify_name", "theorem1")
    resolutions = _int_list(config.get("resolutions"), "converge: resolutions")
    table = convergence_study(name, resolutions, **_family(config, "converge")[-1])
    save_json(table_to_dict(table), out_dir / "convergence_table.json")
    save_table_csv(table, out_dir / "convergence_table.csv")
    print(f"converge {name}: observed_order={table.observed_order}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skewflow", description=__doc__)
    sub = parser.add_subparsers(dest="task", required=True)
    for task in ("simulate", "verify", "converge"):
        p = sub.add_parser(task)
        p.add_argument("--config", required=True, help="path to a JSON configuration file")
        for flag, (_, options) in FLAGS.items():
            p.add_argument(flag, default=None, **options)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        config = load_config(args.config, args)
        out_dir = Path(config.get("output_dir", "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.task == "simulate":
            return task_simulate(config, out_dir)
        if args.task == "verify":
            return task_verify(config, out_dir)
        return task_converge(config, out_dir)
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateImmersionError as exc:
        print(f"degenerate immersion: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
