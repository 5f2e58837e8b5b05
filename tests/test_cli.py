import csv
import json

import numpy as np
import pytest

from skewflow.cli import main


def write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def circle_config(tmp_path, out, dt=1e-4, t_end=1e-3):
    return write_config(
        tmp_path / "circle.json",
        {
            "geometry": {"kind": "circle", "r": 1.0},
            "grid": {"sizes": [64]},
            "flow": {"flow_kind": "SMCF", "dt": dt, "t_end": t_end, "output_every": 2},
            "output_dir": str(out),
        },
    )


def torus_config(tmp_path, out, **extra):
    payload = {
        "geometry": {"kind": "perturbed_torus", "a": 1.0, "b": 0.6, "eps": 0.05, "seed": 7},
        "grid": {"sizes": [16, 16]},
        "flow": {"seed": 7},
        "output_dir": str(out),
    }
    payload.update(extra)
    return write_config(tmp_path / "torus.json", payload)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_simulate_circle_diagnostics(tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", "--config", circle_config(tmp_path, out)])
    assert code == 0
    with open(out / "diagnostics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "volume", "min_sv"]
    assert all(len(r) == 3 for r in rows[1:])
    volumes = np.array([float(r[1]) for r in rows[1:]])
    assert np.max(np.abs(volumes - volumes[0]) / volumes[0]) < 1e-6
    times = [float(r[0]) for r in rows[1:]]
    assert times[0] == 0.0 and times[-1] == pytest.approx(1e-3)


def test_simulate_torus_has_fitted_radii_and_snapshots(tmp_path):
    out = tmp_path / "out"
    cfg = torus_config(
        tmp_path, out,
        geometry={"kind": "product_torus", "a": 1.0, "b": 0.6},
        flow={"dt": 1e-4, "t_end": 5e-4, "output_every": 5},
        snapshots=True,
    )
    assert main(["simulate", "--config", cfg]) == 0
    with open(out / "diagnostics.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "volume", "min_sv", "a_fit", "b_fit"]
    assert (out / "snapshot_0000.csv").exists()


def test_simulate_file_geometry_round_trip(tmp_path):
    from skewflow import make_product_torus, save_immersion_csv

    imm = make_product_torus(1.0, 0.5, 16)
    csv_path = tmp_path / "nodes.csv"
    save_immersion_csv(imm, csv_path)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "file.json",
        {
            "geometry": {"kind": "file", "path": str(csv_path)},
            "grid": {"sizes": [16, 16]},
            "flow": {"dt": 1e-4, "t_end": 2e-4},
            "output_dir": str(out),
        },
    )
    assert main(["simulate", "--config", cfg]) == 0


def test_verify_theorem1_report(tmp_path):
    out = tmp_path / "out"
    cfg = torus_config(tmp_path, out, flow={"t_end_steps": None, "seed": 7})
    code = main(["verify", "--config", cfg, "--verify-name", "theorem1", "--dt", "1e-3", "--t-end", "2e-3"])
    assert code == 0
    doc = read_json(out / "report.json")
    assert doc["name"] == "theorem1"
    assert np.isfinite(doc["norms"]["max"])
    lines = (out / "residual.csv").read_text().splitlines()
    assert lines[0] == "i,j,residual"
    assert len(lines) == 1 + 16 * 16


def test_verify_theorem1_mcf_with_sparse_output_cadence(tmp_path):
    # verify must densify the trajectory recording even when the config asks
    # for sparse simulate-style outputs
    out = tmp_path / "out"
    cfg = torus_config(tmp_path, out, flow={"output_every": 4, "seed": 7})
    code = main(["verify", "--config", cfg, "--verify-name", "theorem1_mcf",
                 "--dt", "2e-3", "--t-end", "4e-3"])
    assert code == 0
    assert read_json(out / "report.json")["name"] == "theorem1_mcf"


def test_verify_codazzi_and_identify(tmp_path):
    for name in ("codazzi", "identify"):
        out = tmp_path / name
        cfg = torus_config(tmp_path, out)
        assert main(["verify", "--config", cfg, "--verify-name", name]) == 0
        assert read_json(out / "report.json")["name"] == name


def test_verify_theorem2_and_conservation(tmp_path):
    out = tmp_path / "t2"
    cfg = torus_config(tmp_path, out)
    assert main(["verify", "--config", cfg, "--verify-name", "theorem2"]) == 0
    doc = read_json(out / "convergence_table.json")
    assert doc["observed_order"] >= 0.9
    assert doc["params"]["isometry_max"] <= 1e-12

    out2 = tmp_path / "cons"
    cfg = torus_config(
        tmp_path, out2,
        geometry={"kind": "product_torus", "a": 1.0, "b": 1.0},
        flow={"dt": 2e-4, "t_end": 2e-3, "output_every": 2},
    )
    assert main(["verify", "--config", cfg, "--verify-name", "conservation"]) == 0
    doc = read_json(out2 / "report.json")
    assert doc["norms"]["max"] < 1e-8


@pytest.mark.parametrize("h_list", [[1e-2], [1e-2, 1e-2], [1e-2, 0.0], [1e-2, -1e-3]])
def test_verify_theorem2_bad_h_list_exit_one(tmp_path, h_list):
    out = tmp_path / "t2"
    cfg = torus_config(tmp_path, out, h_list=h_list)
    assert main(["verify", "--config", cfg, "--verify-name", "theorem2"]) == 1
    assert not (out / "convergence_table.json").exists()


def test_converge_writes_table(tmp_path):
    out = tmp_path / "out"
    cfg = torus_config(tmp_path, out, resolutions=[16, 32, 64], verify_name="theorem1")
    assert main(["converge", "--config", cfg]) == 0
    doc = read_json(out / "convergence_table.json")
    assert doc["observed_order"] >= 1.9
    assert len(doc["rows"]) == 3
    header = (out / "convergence_table.csv").read_text().splitlines()[0]
    assert header == "resolution,h,norm"


def test_converge_threaded_matches_serial(tmp_path, monkeypatch):
    serial_out = tmp_path / "serial"
    cfg = torus_config(tmp_path, serial_out, resolutions=[16, 32], verify_name="codazzi")
    assert main(["converge", "--config", cfg]) == 0
    threaded_out = tmp_path / "threaded"
    cfg2 = torus_config(tmp_path, threaded_out, resolutions=[16, 32], verify_name="codazzi")
    monkeypatch.setenv("SKEWFLOW_THREADS", "2")
    assert main(["converge", "--config", cfg2]) == 0
    a = read_json(serial_out / "convergence_table.json")
    b = read_json(threaded_out / "convergence_table.json")
    assert a["rows"] == b["rows"]
    assert a["observed_order"] == b["observed_order"]


def test_rerun_is_byte_identical_modulo_timestamp(tmp_path):
    docs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        cfg = torus_config(tmp_path, out)
        assert main(["verify", "--config", cfg, "--verify-name", "codazzi", "--seed", "7"]) == 0
        text = (out / "report.json").read_text()
        doc = json.loads(text)
        doc.pop("generated_at")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_unknown_task_or_geometry_exit_one(tmp_path, capsys):
    assert main(["explode", "--config", "nope.json"]) == 1
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "bad.json",
        {"geometry": {"kind": "klein_bottle"}, "grid": {"sizes": [16, 16]}, "output_dir": str(out)},
    )
    assert main(["simulate", "--config", cfg]) == 1
    assert "klein_bottle" in capsys.readouterr().err
    # a torus runs the IMEX scheme, so asking for it is no error
    cfg = torus_config(tmp_path, out, flow={"scheme": "IMEX", "dt": 1e-3, "t_end": 1e-2})
    assert main(["simulate", "--config", cfg]) == 0
    capsys.readouterr()
    cfg = circle_config(tmp_path, out, dt=float("nan"))
    assert main(["simulate", "--config", cfg]) == 1
    assert "dt must be finite" in capsys.readouterr().err
    cfg = torus_config(tmp_path, out, resolutions=[16, 16], verify_name="codazzi")
    assert main(["converge", "--config", cfg]) == 1
    assert "distinct" in capsys.readouterr().err
    cfg = torus_config(tmp_path, out, resolutions=32, verify_name="codazzi")
    assert main(["converge", "--config", cfg]) == 1
    assert "resolutions" in capsys.readouterr().err
    for task in ("verify", "simulate"):
        cfg = torus_config(tmp_path, out, grid={"sizes": 64}, verify_name="codazzi")
        assert main([task, "--config", cfg]) == 1
        assert "grid.sizes" in capsys.readouterr().err
    # values of the wrong JSON type name their field before any work starts
    circle = read_json(circle_config(tmp_path, out))
    torus = read_json(torus_config(tmp_path, out, resolutions=[16, 32], verify_name="codazzi"))
    wrong_types = [
        ("simulate", {**torus, "geometry": 5}, "geometry"),
        ("simulate", {**torus, "flow": [1, 2]}, "flow"),
        ("simulate", {**circle, "geometry": {"kind": "circle", "r": None}}, "geometry.r"),
        ("simulate", {**circle, "flow": {**circle["flow"], "dt": True}}, "flow.dt"),
        ("simulate", {**circle, "flow": {**circle["flow"], "output_every": 2.7}}, "flow.output_every"),
        ("converge", {**torus, "geometry": {**torus["geometry"], "seed": "7"}}, "geometry.seed"),
        ("converge", {**torus, "geometry": {**torus["geometry"], "a": "1"}}, "geometry.a"),
        ("converge", {**torus, "geometry": [1]}, "geometry"),
    ]
    for task, payload, field in wrong_types:
        assert main([task, "--config", write_config(tmp_path / "typed.json", payload)]) == 1, field
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err, (field, err)


def test_malformed_config_lists_fields(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", {"geometry": {"kind": "circle"}})
    assert main(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "grid" in err
    assert main(["verify", "--config", cfg, "--verify-name", "bogus"]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 1


def test_runtime_degeneracy_exit_two(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = circle_config(tmp_path, out, dt=5e-2, t_end=5.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", "--config", cfg]) == 2
    assert "degenerate" in capsys.readouterr().err.lower()


def test_torus_defaults_to_imex_at_a_tenth_of_h():
    from skewflow import make_circle, make_product_torus
    from skewflow.cli import build_flow_config

    torus = make_product_torus(1.0, 0.6, 32, 16)
    h = 2 * np.pi / 32
    cfg = build_flow_config({"flow": {}}, torus)
    assert (cfg.scheme, cfg.dt) == ("IMEX", 0.1 * h)
    assert build_flow_config({"flow": {"scheme": "RK4"}}, torus).dt == 0.1 * h**2
    assert build_flow_config({"flow": {"dt": 1e-3}}, torus).dt == 1e-3
    circle = build_flow_config({}, make_circle(1.0, 64))
    assert (circle.scheme, circle.dt) == ("RK4", 0.1 * (2 * np.pi / 64) ** 2)
