"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from hostspeed import REFERENCE_S, run_scale  # noqa: E402
from tracer import Tracer  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    spec = _spec()
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert sorted(line["workload"] for line in lines) == sorted(w["name"] for w in spec["workloads"])
    for line in lines:
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
        assert line["unlisted"] == [], line["workload"]
        for metric in spec["end_to_end"] + spec["per_layer"]:
            printed = line["metrics"].get(metric["name"])
            assert printed is not None, (line["workload"], metric["name"])
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))


def _namespaces():
    return {name: mod for name, mod in sys.modules.items() if name == "skewflow" or name.startswith("skewflow.")}


def test_trace_wrappers_are_removed():
    from skewflow import geometry, make_circle

    before = {(name, attr): value for name, mod in _namespaces().items() for attr, value in vars(mod).items()}
    tracer = Tracer()
    tracer.install()
    try:
        assert sys.modules["skewflow.flow"].tangent_data is not before[("skewflow.geometry", "tangent_data")]
        geometry.volume(make_circle(1.0, 16))
    finally:
        tracer.remove()
    assert tracer.stats["geometry.tangent_data"][0] == 1
    assert tracer.stats["geometry.diff1"][0] == 1  # called inside tangent_data, counted as a child
    _, self_s, inclusive_s, _ = tracer.stats["geometry.tangent_data"]
    assert 0.0 <= self_s <= inclusive_s
    after = {(name, attr): value for name, mod in _namespaces().items() for attr, value in vars(mod).items()}
    assert all(after.get(key) is value for key, value in before.items())


def _corrupt_isometry(out: Path):
    path = out / "convergence_table.json"
    table = json.loads(path.read_text())
    table["params"]["isometry_max"] = 1.0
    path.write_text(json.dumps(table))


def test_corrupted_output_counts_as_failed_operation():
    res = run.run_workload("frame-algebra", seed=1, seconds=0, trace=False, tiny=True, after_op=_corrupt_isometry)
    assert (res["attempted"], res["failed"], res["correct"]) == (1, 1, False)
    assert any("isometry_max" in p for p in res["summary"]["problems"])


def test_output_differing_from_first_pass_counts_as_failed_operation():
    def corrupt_later_passes(out: Path):
        if out.parent.name != "pass0":
            path = out / "convergence_table.csv"
            path.write_text(path.read_text() + "0,0,0\n")

    res = run.run_workload("frame-algebra", seed=1, seconds=0, trace=True, tiny=True, after_op=corrupt_later_passes)
    assert (res["attempted"], res["failed"], res["correct"]) == (2, 1, False)
    assert any("differs from the first pass" in p for p in res["summary"]["problems"])


def test_curve_that_did_not_move_counts_as_failed_operation():
    def restore_initial_curve(out: Path):
        last = sorted(out.glob("snapshot_*.csv"))[-1]
        last.write_text((out / "snapshot_0000.csv").read_text())

    res = run.run_workload("curve-flow", seed=1, seconds=0, trace=False, tiny=True, after_op=restore_initial_curve)
    assert (res["attempted"], res["failed"], res["correct"]) == (1, 1, False)
    assert any("off the reference curve" in p for p in res["summary"]["problems"])


def test_zero_codazzi_residual_counts_as_failed_operation():
    def zero_residual(out: Path):
        if (out / "residual.csv").exists():
            lines = (out / "residual.csv").read_text().splitlines()
            rows = [",".join(line.split(",")[:2] + ["0.0"]) for line in lines[1:]]
            (out / "residual.csv").write_text("\n".join(lines[:1] + rows) + "\n")
            report = json.loads((out / "report.json").read_text())
            report["norms"]["max"] = 0.0
            (out / "report.json").write_text(json.dumps(report))

    res = run.run_workload("torus-verify", seed=1, seconds=0, trace=False, tiny=True, after_op=zero_residual)
    assert (res["attempted"], res["failed"], res["correct"]) == (2, 1, False)
    assert any("norms.max 0.000e+00 outside" in p for p in res["summary"]["problems"])


def test_every_workload_has_a_fixed_pass_count_and_reference_parts():
    from workloads import REFERENCE_PARTS

    assert run.pass_count("frame-algebra", 0, trace=True) == 2
    names = sorted(w["name"] for w in _spec()["workloads"])
    assert sorted(run.NOMINAL_PASS_S) == names
    assert sorted(REFERENCE_PARTS) == names
    assert all(parts and set(parts) <= set(REFERENCE_S) for parts in REFERENCE_PARTS.values())


def test_times_are_scaled_by_the_host_speed_of_their_run():
    at_reference = dict(REFERENCE_S)
    half_speed = {part: 2 * t for part, t in REFERENCE_S.items()}
    assert run_scale([at_reference] * 3, ("grid",)) == 1.0
    assert run_scale([half_speed] * 3, ("grid", "calls")) == 0.5  # a host at half speed halves the raw times
    # the median over the run: one slow sample does not move the scale
    assert run_scale([at_reference, at_reference, half_speed], ("grid", "calls")) == 1.0

