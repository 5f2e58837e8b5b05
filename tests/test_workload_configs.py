"""The benchmark writes its configs itself; every one must pass the CLI's checks."""

import importlib.util
import sys
from pathlib import Path

from skewflow import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_every_workload_config_passes_load_config_and_build_immersion(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks its module up there
    spec.loader.exec_module(workloads)
    ran = []
    for name, make in workloads.WORKLOADS.items():
        where = tmp_path / name
        where.mkdir()
        tasks, _ = make(1, where, True)
        for task in tasks:
            args = cli.build_parser().parse_args([*task.argv, "--out", str(tmp_path / "out")])
            config = cli.load_config(args.config, args)
            if "grid" in config:  # as the benchmark's set-up probe does
                cli.build_immersion(config)
            ran.append((name, task.argv[0]))
    # torus-flow sends flow.seed to simulate, and curve-flow snapshots with a file geometry
    assert ran == [
        ("torus-flow", "simulate"),
        ("torus-verify", "converge"),
        ("torus-verify", "verify"),
        ("curve-flow", "simulate"),
        ("frame-algebra", "verify"),
    ]
