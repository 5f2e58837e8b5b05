import contextlib
import csv
import dataclasses
import io
import json
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewflow import (
    cli,
    fundamental_forms,
    geometry,
    make_circle,
    make_perturbed_torus,
    residual_theorem1,
    save_immersion_csv,
    verify,
)
from skewflow.cli import main
from skewflow.flow import FlowConfig, run

from conftest import traced_peak


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
    cfg = torus_config(tmp_path, out, flow={"seed": 7})
    code = main(["verify", "--config", cfg, "--verify-name", "theorem1", "--dt", "1e-3", "--t-end", "2e-3"])
    assert code == 0
    doc = read_json(out / "report.json")
    assert doc["name"] == "theorem1"
    assert np.isfinite(doc["norms"]["max"])
    lines = (out / "residual.csv").read_text().splitlines()
    assert lines[0] == "i,j,residual"
    assert len(lines) == 1 + 16 * 16


def test_verify_theorem1_mcf_runs_mean_curvature_flow_without_flow_kind(tmp_path):
    # this used to run the skew flow, the unset flow_kind's default, and label it MCF:
    # max = 7.26e-2 where the MCF run below gives 8.31e-4
    out = tmp_path / "out"
    cfg = torus_config(tmp_path, out, grid={"sizes": [32, 32]}, flow={"scheme": "RK4", "dt": 1e-3, "t_end": 2e-3})
    assert main(["verify", "--config", cfg, "--verify-name", "theorem1_mcf"]) == 0
    doc = read_json(out / "report.json")
    traj = run(make_perturbed_torus(1.0, 0.6, 0.05, 7, 32), FlowConfig(flow_kind="MCF", dt=1e-3, t_end=2e-3))
    assert doc["params"]["flow_kind"] == "MCF"
    assert doc["norms"] == residual_theorem1(traj, 1, use_jtilde=False).norms


def test_verify_codazzi_and_identify(tmp_path):
    for name in ("codazzi", "identify"):
        out = tmp_path / name
        cfg = torus_config(tmp_path, out)
        assert main(["verify", "--config", cfg, "--verify-name", name]) == 0
        assert read_json(out / "report.json")["name"] == name


def theorem2_config(tmp_path, out, **extra):
    """The keys that verify theorem2 reads, as the frame-algebra benchmark passes them."""
    return write_config(tmp_path / "t2.json", {"verify_name": "theorem2", "flow": {"seed": 7}, "output_dir": str(out), **extra})


def test_verify_theorem2_and_conservation(tmp_path):
    out = tmp_path / "t2"
    cfg = theorem2_config(tmp_path, out, h_list=[1e-2, 1e-3, 1e-4])
    assert main(["verify", "--config", cfg, "--seed", "7"]) == 0
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


@pytest.mark.parametrize(
    "h_list", [[1e-2], [1e-2, 1e-2], [1e-2, 0.0], [1e-2, -1e-3], [10**400, 1e-3], ["0.01", 1e-3], [1e-2, True]]
)
def test_verify_theorem2_bad_h_list_exit_one(tmp_path, capsys, h_list):
    out = tmp_path / "t2"
    cfg = theorem2_config(tmp_path, out, h_list=h_list)
    assert main(["verify", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "h_list" in err, err
    assert not (out / "convergence_table.json").exists()


# the functions with which the tasks start their work: the flow, the
# fundamental forms, the frame suite and the convergence study
WORK = [(cli, "run"), (verify, "run"), (cli, "fundamental_forms"), (cli, "theorem2_suite"), (cli, "convergence_study")]


def assert_exits_one_before_any_work(tmp_path, capsys, argv, payload, field):
    """``main`` on ``argv`` and a config of ``payload`` exits 1 naming ``field``,
    and neither calls a function of ``WORK`` nor writes a file."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {**payload, "output_dir": str(out)})
    with contextlib.ExitStack() as stack:
        work = [stack.enter_context(mock.patch.object(module, name)) for module, name in WORK]
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
    for function in work:
        function.assert_not_called()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err, err
    assert list(out.glob("*")) == []


TORUS = {"geometry": {"kind": "perturbed_torus", "a": 1.0, "b": 0.6, "eps": 0.05, "seed": 7}, "grid": {"sizes": [16, 16]}}


@pytest.mark.parametrize(
    "argv, fragment, field",
    [
        # each of these used to run, reading none of it
        (["simulate"], {"verify_name": "codazzi"}, "verify_name"),
        (["simulate"], {"resolutions": [16, 32]}, "resolutions"),
        (["simulate"], {"h_list": [5]}, "h_list"),
        (["simulate", "--verify-name", "codazzi"], {}, "--verify-name"),
        (["verify", "--verify-name", "codazzi"], {"flow": {"seed": 7, "dt": 5}}, "flow.dt"),
        (["verify", "--verify-name", "identify"], {"flow": {"t_end": -1}}, "flow.t_end"),
        (["verify", "--verify-name", "codazzi"], {"flow": {"scheme": "RK4"}}, "flow.scheme"),
        (["verify", "--verify-name", "identify"], {"snapshots": True}, "snapshots"),
        (["verify", "--verify-name", "codazzi"], {"resolutions": [3]}, "resolutions"),
        (["verify", "--verify-name", "identify"], {"h_list": [5]}, "h_list"),
        (["verify", "--verify-name", "codazzi", "--t-end", "1"], {}, "--t-end"),
        (["verify", "--verify-name", "identify", "--snapshots"], {}, "--snapshots"),
        # the name fixes the flow kind, and the residual needs every step recorded
        (["verify", "--verify-name", "theorem1"], {"flow": {"flow_kind": "MCF"}}, "flow.flow_kind"),
        (["verify", "--verify-name", "theorem1"], {"flow": {"output_every": 4}}, "flow.output_every"),
        (["verify", "--verify-name", "theorem1_mcf", "--dt", "2e-3", "--t-end", "4e-3"],
         {"flow": {"output_every": 4, "seed": 7}}, "flow.output_every"),
    ],
)
def test_a_key_or_flag_its_task_does_not_read_exits_one(tmp_path, capsys, argv, fragment, field):
    assert_exits_one_before_any_work(tmp_path, capsys, argv, {**TORUS, **fragment}, field)


# a value for each flag whose key some task leaves out (every task reads those of --seed and --out)
FLAG_VALUES = {"--dt": ["1"], "--t-end": ["1"], "--n": ["16"], "--verify-name": ["codazzi"], "--snapshots": []}


def _named(row):
    """The keys of a row of ``cli.READS``, flow keys as flow.<key>, with those every task reads."""
    roots, flow_keys = row
    return {*roots, "flow", "output_dir", "flow.seed", *(f"flow.{key}" for key in flow_keys)}


@pytest.mark.parametrize("task", cli.READS)
def test_every_key_and_flag_the_table_leaves_out_is_refused_by_name(tmp_path, task):
    command, _, name = task.partition(" ")
    read = _named(cli.READS[task])
    left_out = set().union(*map(_named, cli.READS.values())) - read
    cases = [([], {"flow": {key[5:]: 1}} if key.startswith("flow.") else {key: 1}, key) for key in sorted(left_out)]
    cases += [([flag, *FLAG_VALUES[flag]], {}, flag) for flag, (key, _) in cli.FLAGS.items() if key not in read]
    assert cases
    for flags, fragment, field in cases:
        cfg = write_config(tmp_path / "c.json", {**({"verify_name": name} if name else {}), **fragment})
        args = cli.build_parser().parse_args([command, "--config", cfg, *flags])
        with pytest.raises(cli.ConfigError, match=f"^{field} "):
            cli.load_config(cfg, args)


@pytest.mark.parametrize(
    "flags, extra, field",
    [
        # each of these used to run, reading none of it
        (["--n", "3", "--dt", "5"], {"geometry": {"kind": "nope"}, "grid": {"sizes": [3]}}, "--dt"),
        ([], {"geometry": {"kind": "nope"}, "grid": {"sizes": [3]}}, "geometry"),
        ([], {"grid": {"sizes": [16, 16]}}, "grid"),
        ([], {"resolutions": [16, 32]}, "resolutions"),
        ([], {"snapshots": True}, "snapshots"),
        ([], {"flow": {"seed": 7, "t_end": 1.0}}, "flow.t_end"),
        (["--t-end", "1"], {}, "--t-end"),
        (["--snapshots"], {}, "--snapshots"),
    ],
)
def test_verify_theorem2_rejects_a_key_or_flag_it_does_not_read(tmp_path, capsys, flags, extra, field):
    assert_exits_one_before_any_work(tmp_path, capsys, ["verify", *flags], {"verify_name": "theorem2", **extra}, field)


def test_converge_writes_table(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {
        "geometry": TORUS["geometry"], "flow": {"seed": 7}, "resolutions": [16, 32, 64], "verify_name": "theorem1",
        "output_dir": str(out),
    })
    assert main(["converge", "--config", cfg]) == 0
    doc = read_json(out / "convergence_table.json")
    assert doc["observed_order"] >= 1.9
    assert len(doc["rows"]) == 3
    header = (out / "convergence_table.csv").read_text().splitlines()[0]
    assert header == "resolution,h,norm"


@pytest.mark.parametrize(
    "name, geometry, field",
    [
        # each of these used to run some other geometry, or record parameters it never read
        ("codazzi", {"kind": "circle", "r": 1.0}, "geometry.kind"),
        ("identify", {"kind": "perturbed_torus", "a": 1.0, "b": 0.6, "eps": 0.3, "seed": 3}, "geometry.kind"),
        ("identify", {"kind": "product_torus", "a": 1.0, "b": 0.6, "eps": 0.3}, "geometry.eps"),
        ("identify", {"a": 1.0, "seed": 3}, "geometry.seed"),
        ("theorem1", {"kind": "perturbed_torus", "a": 1.0, "r": 1.0}, "geometry.r"),
        ("theorem1_mcf", {"kind": "product_torus"}, "geometry.kind"),
        ("codazzi", {"path": "nodes.csv"}, "geometry.path"),
    ],
)
def test_converge_rejects_a_geometry_its_problem_does_not_build(tmp_path, capsys, name, geometry, field):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {
        "verify_name": name, "resolutions": [16, 32], "geometry": geometry, "output_dir": str(out),
    })
    with mock.patch.object(cli, "convergence_study") as study:
        assert main(["converge", "--config", cfg]) == 1
    study.assert_not_called()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err, err
    assert list(out.glob("*")) == []


@pytest.mark.parametrize(
    "flags, flow, field",
    [
        # each of these used to run and write the table of the values converge takes itself
        (["--dt", "5"], {}, "--dt"),
        (["--t-end", "-1"], {}, "--t-end"),
        (["--n", "3"], {}, "--n"),
        (["--n", "0"], {}, "--n"),
        (["--snapshots"], {}, "--snapshots"),
        ([], {"dt": 5}, "flow.dt"),
        ([], {"t_end": -1}, "flow.t_end"),
        ([], {"flow_kind": "MCF"}, "flow.flow_kind"),
        ([], {"scheme": "RK4"}, "flow.scheme"),
        ([], {"output_every": 2}, "flow.output_every"),
    ],
)
def test_converge_rejects_a_flag_or_flow_key_it_does_not_read(tmp_path, capsys, flags, flow, field):
    payload = {"verify_name": "identify", "resolutions": [16, 32], "flow": {"seed": 3, **flow}}
    assert_exits_one_before_any_work(tmp_path, capsys, ["converge", "--seed", "3", *flags], payload, field)


@pytest.mark.parametrize(
    "extra, field",
    [({"snapshots": True, "h_list": [5]}, "snapshots"), ({"h_list": [5]}, "h_list"), ({"grid": {"sizes": [16]}}, "grid")],
)
def test_converge_rejects_a_root_key_it_does_not_read(tmp_path, capsys, extra, field):
    payload = {"verify_name": "identify", "resolutions": [16, 32], **extra}
    assert_exits_one_before_any_work(tmp_path, capsys, ["converge"], payload, field)


@pytest.mark.parametrize("name", sorted(verify.PROBLEMS))
def test_verify_and_converge_run_a_name_through_its_problems_row(tmp_path, monkeypatch, name):
    family, _ = verify.PROBLEMS[name]
    assert family in geometry.FAMILIES
    calls = []

    def spy(imm, flow=None, metadata=None):
        calls.append((imm.grid.sizes, flow, metadata))
        value = 1.0 / imm.grid.sizes[0] ** 2
        return verify.Report(name, np.full(imm.grid.sizes, value), {"max": value, "l2": value}, imm.grid.sizes)

    monkeypatch.setitem(verify.PROBLEMS, name, (family, spy))
    _, keys, axes = geometry.FAMILIES[family]
    values = {"kind": family, **{key: verify.FAMILY_DEFAULTS[key] for key in keys}}
    out = tmp_path / "out"
    payload = {"geometry": values, "grid": {"sizes": [16] * axes}, "verify_name": name, "output_dir": str(out)}
    assert main(["verify", "--config", write_config(tmp_path / "v.json", payload)]) == 0
    ((sizes, flow, metadata),) = calls
    assert sizes == (16,) * axes and metadata == {"geometry": family, "seed": 0}
    assert getattr(flow, "flow_kind", None) == verify.THEOREM1_FLOWS.get(name)  # codazzi and identify read no flow
    assert read_json(out / "report.json")["norms"]["max"] == 1.0 / 256
    calls.clear()
    payload = {"verify_name": name, "resolutions": [16, 32], "output_dir": str(out)}
    assert main(["converge", "--config", write_config(tmp_path / "c.json", payload)]) == 0
    assert calls == [((16,) * axes, None, None), ((32,) * axes, None, None)]
    assert read_json(out / "convergence_table.json")["observed_order"] == pytest.approx(2.0)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_a_file_with_a_non_finite_position_exits_one_naming_its_row(tmp_path, capsys, value):
    # this used to exit 2 as a degenerate immersion, with inf only after the first RK4 stage
    path = tmp_path / "nodes.csv"
    save_immersion_csv(make_circle(1.0, 16), path)
    lines = path.read_text().splitlines()
    lines[6] = f"{value},0.0,0.0"  # node 5, the CSV's row 7 after the header
    path.write_text("\n".join(lines) + "\n")
    payload = {"geometry": {"kind": "file", "path": str(path)}, "grid": {"sizes": [16]}, "flow": {"scheme": "RK4"}}
    assert_exits_one_before_any_work(tmp_path, capsys, ["simulate"], payload, "row 7 holds a non-finite coordinate")


@pytest.mark.parametrize(
    "row, message",
    [("1.0,0.0", "row 7 holds 2 values, expected 3"), ("1.0,0.0,0.0,0.0", "row 7 holds 4 values, expected 3"),
     ("abc,0.0,0.0", "row 7 is not numeric")],
)
def test_a_file_with_a_short_or_non_numeric_row_exits_one_naming_it(tmp_path, capsys, row, message):
    # these used to exit 1 with numpy's "inhomogeneous shape" error or float()'s
    # "could not convert string to float", naming no row
    path = tmp_path / "nodes.csv"
    save_immersion_csv(make_circle(1.0, 16), path)
    lines = path.read_text().splitlines()
    lines[6] = row  # node 5, the CSV's row 7 after the header
    path.write_text("\n".join(lines) + "\n")
    payload = {"geometry": {"kind": "file", "path": str(path)}, "grid": {"sizes": [16]}, "flow": {"scheme": "RK4"}}
    assert_exits_one_before_any_work(tmp_path, capsys, ["simulate"], payload, f"CSV {path} {message}")


def test_converge_checks_every_resolution_before_the_first_residual(tmp_path, capsys):
    # this used to compute the 16^2 and 32^2 residuals before the 7 stopped it
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {"verify_name": "codazzi", "resolutions": [16, 32, 7], "output_dir": str(out)})
    residual = mock.MagicMock()
    with mock.patch.dict(verify.PROBLEMS, codazzi=(verify.PROBLEMS["codazzi"][0], residual)):
        assert main(["converge", "--config", cfg]) == 1
    residual.assert_not_called()
    err = capsys.readouterr().err
    assert err.startswith("error: grid sizes") and "got 7" in err, err
    assert list(out.glob("*")) == []


@pytest.mark.parametrize(
    "task, geometry, sizes, field",
    [
        # each of these used to run the geometry of its kind without the key
        ("simulate", {"kind": "product_torus", "a": 1.0, "b": 0.6, "eps": 0.3, "seed": 3}, [16, 16], "geometry.eps"),
        ("verify", {"kind": "product_torus", "a": 1.0, "b": 0.6, "seed": 3}, [16, 16], "geometry.seed"),
        ("simulate", {"kind": "circle", "r": 1.0, "a": 1.0}, [16], "geometry.a"),
        ("verify", {"kind": "file", "path": "nodes.csv", "r": 1.0}, [16], "geometry.r"),
    ],
)
def test_a_geometry_key_its_kind_does_not_read_exits_one(tmp_path, capsys, task, geometry, sizes, field):
    argv = [task, "--verify-name", "codazzi"] if task == "verify" else [task]
    assert_exits_one_before_any_work(tmp_path, capsys, argv, {"geometry": geometry, "grid": {"sizes": sizes}}, field)


@pytest.mark.parametrize(
    "argv, payload, seeded",
    [
        (["converge"], {"resolutions": [16, 32]}, True),  # the perturbed torus of theorem1
        (["verify", "--verify-name", "codazzi"], {"geometry": {"kind": "perturbed_torus"}}, True),
        (["converge", "--verify-name", "identify"], {"geometry": {"kind": "product_torus"}}, False),
        (["converge", "--verify-name", "identify"], {}, False),  # the product torus of identify
        (["simulate"], {"geometry": {"kind": "circle"}}, False),
    ],
)
def test_seed_flag_seeds_only_a_geometry_that_reads_a_seed(tmp_path, argv, payload, seeded):
    cfg = write_config(tmp_path / "c.json", payload)
    args = cli.build_parser().parse_args([argv[0], "--config", cfg, "--seed", "3", *argv[1:]])
    config = cli.load_config(cfg, args)
    assert config["flow"]["seed"] == 3
    assert config.get("geometry", {}).get("seed") == (3 if seeded else None)


@pytest.mark.parametrize(
    "argv, payload",
    [
        # --seed is also the flow seed, so these runs are valid
        (["converge", "--verify-name", "identify"], {"geometry": {"kind": "product_torus", "a": 1.0, "b": 0.6},
                                                     "resolutions": [16, 32]}),
        (["simulate"], {"geometry": {"kind": "circle", "r": 1.0}, "grid": {"sizes": [16]}, "flow": {"t_end": 1e-3}}),
        (["simulate"], {"geometry": {"kind": "product_torus", "a": 1.0, "b": 0.6}, "grid": {"sizes": [16, 16]},
                        "flow": {"t_end": 1e-2}}),
    ],
)
def test_seed_flag_runs_a_geometry_without_a_seed(tmp_path, argv, payload):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {**payload, "output_dir": str(out)})
    assert main([argv[0], "--config", cfg, "--seed", "3", *argv[1:]]) == 0


def test_a_new_family_needs_no_cli_edit(tmp_path, monkeypatch):
    from skewflow import geometry

    built = []

    def ellipse(p, q, seed, size):
        built.append((p, q, seed, size))
        imm = make_circle(1.0, size)
        return dataclasses.replace(imm, F=imm.F * [p, q, 1.0])

    monkeypatch.setitem(geometry.FAMILIES, "ellipse", (ellipse, ("p", "q", "seed"), 1))
    monkeypatch.setitem(geometry.FAMILIES, "square_torus", (geometry.make_product_torus, ("a", "b"), 2))
    block = {"kind": "ellipse", "p": 2.0, "q": 1, "seed": 3.0}
    imm = cli.build_immersion({"geometry": block, "grid": {"sizes": [16]}})
    assert built == [(2.0, 1.0, 3, 16)] and [type(v) for v in built[0]] == [float, float, int, int]
    assert np.max(imm.F[:, 0]) == 2.0
    for geometry_block, sizes, field in [
        (block, [16, 16], "1-axis grid"),
        ({**block, "r": 1.0}, [16], "geometry.r"),
        ({**block, "seed": 0.5}, [16], "geometry.seed"),
        ({"kind": "ellipse", "p": 2.0}, [16], "'q', 'seed'"),
    ]:
        with pytest.raises(cli.ConfigError, match=field):
            cli.build_immersion({"geometry": geometry_block, "grid": {"sizes": sizes}})
    # --seed reaches geometry.seed exactly when the family reads one; --n takes its axes
    for kind, seed, axes in (("ellipse", 5, 1), ("square_torus", None, 2)):
        cfg = write_config(tmp_path / "c.json", {"geometry": {"kind": kind}})
        args = cli.build_parser().parse_args(["simulate", "--config", cfg, "--seed", "5", "--n", "8"])
        config = cli.load_config(cfg, args)
        assert (config["geometry"].get("seed"), config["grid"]["sizes"]) == (seed, [8] * axes)


def test_verify_theorem1_centers_on_two_full_steps(tmp_path):
    # at the 16^2 defaults, dt = 0.1 h and t_end = 0.1 take two full steps and a
    # shortened third; the middle state sits between two full steps
    out = tmp_path / "out"
    cfg = torus_config(tmp_path, out)
    assert main(["verify", "--config", cfg, "--verify-name", "theorem1"]) == 0
    config = read_json(cfg)
    dt = cli.build_flow_config(config, cli.build_immersion(config)).dt
    params = read_json(out / "report.json")["params"]
    assert params["dt"] == dt
    assert params["t"] == dt


@pytest.mark.parametrize("t_end", [5e-3, 1e-2, 1.5e-2])
def test_verify_theorem1_too_short_exits_one_before_the_run(tmp_path, capsys, t_end):
    out = tmp_path / "out"
    cfg = torus_config(tmp_path, out, flow={"dt": 1e-2, "t_end": t_end})
    with mock.patch.object(verify, "run") as run_mock:
        assert main(["verify", "--config", cfg, "--verify-name", "theorem1"]) == 1
    run_mock.assert_not_called()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "flow.t_end" in err, err
    assert list(out.glob("*")) == []


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
    torus = read_json(torus_config(tmp_path, out))
    converge = {"geometry": torus["geometry"], "verify_name": "codazzi", "output_dir": str(out)}
    cfg = write_config(tmp_path / "c.json", {**converge, "resolutions": [16, 16]})
    assert main(["converge", "--config", cfg]) == 1
    assert "distinct" in capsys.readouterr().err
    cfg = write_config(tmp_path / "c.json", {**converge, "resolutions": 32})
    assert main(["converge", "--config", cfg]) == 1
    assert "resolutions" in capsys.readouterr().err
    for argv in (["verify", "--verify-name", "codazzi"], ["simulate"]):
        cfg = torus_config(tmp_path, out, grid={"sizes": 64})
        assert main([*argv, "--config", cfg]) == 1
        assert "grid.sizes" in capsys.readouterr().err
    # values of the wrong JSON type name their field before any work starts
    circle = read_json(circle_config(tmp_path, out))
    converge["resolutions"] = [16, 32]
    save_immersion_csv(make_circle(1.0, 16), tmp_path / "circle.csv")
    from_file = {**circle, "geometry": {"kind": "file", "path": str(tmp_path / "circle.csv")}}
    wrong_types = [
        ("simulate", {**torus, "geometry": 5}, "geometry"),
        ("simulate", {**torus, "flow": [1, 2]}, "flow"),
        ("simulate", {**circle, "geometry": {"kind": "circle", "r": None}}, "geometry.r"),
        ("simulate", {**circle, "geometry": {"kind": "circle", "r": float("nan")}}, "geometry.r"),  # json reads NaN
        ("simulate", {**circle, "flow": {**circle["flow"], "dt": True}}, "flow.dt"),
        ("simulate", {**circle, "flow": {**circle["flow"], "output_every": 2.7}}, "flow.output_every"),
        ("converge", {**converge, "geometry": {**torus["geometry"], "seed": "7"}}, "geometry.seed"),
        ("converge", {**converge, "geometry": {**torus["geometry"], "a": "1"}}, "geometry.a"),
        ("converge", {**converge, "geometry": {**torus["geometry"], "a": float("inf")}}, "geometry.a"),  # and Infinity
        ("converge", {**converge, "geometry": [1]}, "geometry"),
        ("simulate", {**circle, "flow": {**circle["flow"], "scheme": "Euler"}}, "flow.scheme"),
        ("simulate", {**from_file, "grid": {"sizes": [16], "periods": [10**400]}}, "grid.periods"),
        ("simulate", {**from_file, "grid": {"sizes": [16], "periods": [float("inf")]}}, "grid.periods"),
        ("simulate", {**from_file, "grid": {"sizes": [16], "periods": [float("nan")]}}, "grid.periods"),
        ("simulate", {**from_file, "grid": {"sizes": []}}, "grid.sizes"),
        ("simulate", {**from_file, "grid": {"sizes": [4, 4, 1]}}, "grid.sizes"),
        ("simulate", {**circle, "snapshots": "no"}, "snapshots"),
        # a key that no reader knows: these used to run the defaults in its place
        ("simulate", {**circle, "flow": {**circle["flow"], "sheme": "IMEX"}}, "flow.sheme"),
        ("simulate", {**circle, "snapshot": True}, "snapshot"),
        ("simulate", {**circle, "grid": {"sizes": [64], "size": 32}}, "grid.size"),
        ("verify", {**torus, "verify_name": "codazzi", "flow": {"seed": 7, "t_end_steps": 2}}, "flow.t_end_steps"),
        ("converge", {**converge, "resolution": [16, 32]}, "resolution"),
    ]
    typed_out = tmp_path / "typed"
    for task, payload, field in wrong_types:
        payload = {**payload, "output_dir": str(typed_out)}
        assert main([task, "--config", write_config(tmp_path / "typed.json", payload)]) == 1, field
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err, (field, err)
        assert list(typed_out.glob("*")) == [], field


def test_grid_periods_is_read_with_a_file_geometry_only(tmp_path, capsys):
    # a family's data is periodic on 2 pi only; a 16-node circle given periods [3.0] used to
    # exit 0 and write the 2 pi grid's length
    out = tmp_path / "out"
    circle = {
        "geometry": {"kind": "circle", "r": 1.0},
        "grid": {"sizes": [16], "periods": [3.0]},
        "flow": {"dt": 1e-4, "t_end": 2e-4},
        "output_dir": str(out),
    }
    torus = read_json(torus_config(tmp_path, out, grid={"sizes": [16, 16], "periods": [6.0, 6.0]}))
    for argv, payload in [(["simulate"], circle), (["verify", "--verify-name", "codazzi"], torus)]:
        with mock.patch.object(cli, "build_immersion", wraps=cli.build_immersion) as build:
            assert main([*argv, "--config", write_config(tmp_path / "p.json", payload)]) == 1
        build.assert_not_called()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "grid.periods" in err, err
        assert not out.exists()
    # a file geometry reads the key into its grid, and runs
    save_immersion_csv(make_circle(1.0, 16), tmp_path / "circle.csv")
    from_file = {**circle, "geometry": {"kind": "file", "path": str(tmp_path / "circle.csv")}}
    assert cli.build_immersion(from_file).grid.periods == (3.0,)
    assert main(["simulate", "--config", write_config(tmp_path / "p.json", from_file)]) == 0
    assert (out / "diagnostics.csv").exists()


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


@pytest.mark.parametrize("argv", [["simulate"], ["verify", "--verify-name", "conservation"]], ids=["simulate", "conservation"])
def test_runtime_degeneracy_names_the_node_and_the_time(tmp_path, capsys, argv):
    # RK4 at 24 times its step bound: the state at t = 0.05 is degenerate, and the
    # rank check that run takes of the state it ends on names its node and time
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "unstable.json", {
        "geometry": {"kind": "perturbed_torus", "a": 1.0, "b": 0.6, "eps": 0.05, "seed": 7},
        "grid": {"sizes": [128, 128]},
        "flow": {"scheme": "RK4", "dt": 0.01, "t_end": 0.05},
        "output_dir": str(out),
    })
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([*argv, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "degenerate immersion: tangent map is degenerate at node (34, 14) at t = 0.05 " in err, err


def test_simulate_diagnostics_hold_one_geometry_at_a_time(tmp_path, monkeypatch):
    # 256^2 peaks in grid fields, with tracemalloc: one GeometryCache and its sqrt_det_g
    # peak at 24.3; the diagnostics of four recorded states peaked at 43.7 with each
    # state's geometry alive while the next one was built, and at 24.6 with one at a time
    size = 256
    imm = make_perturbed_torus(1.0, 0.6, 0.05, 7, size)
    traj = run(imm, FlowConfig(dt=1e-3, t_end=3e-3, scheme="IMEX"))
    monkeypatch.setattr(cli, "build_immersion", lambda config: imm)
    monkeypatch.setattr(cli, "run", lambda imm, config: traj)  # the diagnostics alone are traced
    config = {
        "geometry": {"kind": "perturbed_torus", "a": 1.0, "b": 0.6, "eps": 0.05, "seed": 7},
        "grid": {"sizes": [size, size]},
        "flow": {"scheme": "IMEX"},
    }
    assert cli.task_simulate(config, tmp_path) == 0 and len(_rows(tmp_path / "diagnostics.csv")) == 4
    one = traced_peak(lambda: fundamental_forms(imm).sqrt_det_g) / (8 * size * size)
    fields = traced_peak(lambda: cli.task_simulate(config, tmp_path)) / (8 * size * size)
    assert fields < one + 2, (fields, one)


def test_torus_defaults_to_imex_at_a_tenth_of_h():
    from skewflow import explicit_step_bound, make_circle, make_product_torus
    from skewflow.cli import build_flow_config

    torus = make_product_torus(1.0, 0.6, 32, 16)
    h = 2 * np.pi / 32
    cfg = build_flow_config({"flow": {}}, torus)
    assert (cfg.scheme, cfg.dt) == ("IMEX", 0.1 * h)
    # the skew flow of a torus moves its metric: half the bound, at most 0.1 h^2
    rk4 = build_flow_config({"flow": {"scheme": "RK4"}}, torus).dt
    assert rk4 == min(0.5 * explicit_step_bound(torus), 0.1 * h**2)
    assert build_flow_config({"flow": {"dt": 1e-3}}, torus).dt == 1e-3
    # RK4 on curves at half the bound 2.78 / lambda_max, lambda_max = 4 / (h^2 g_00),
    # with g_00 = (r sin(h) / h)^2 from the centered first difference
    r, h = 0.5, 2 * np.pi / 64
    circle = build_flow_config({}, make_circle(r, 64))
    assert circle.scheme == "RK4"
    assert circle.dt == pytest.approx(0.5 * 2.78 * (r * np.sin(h)) ** 2 / 4, rel=1e-12)
    # mean curvature flow shrinks the metric that sets the bound: no more than 0.1 h^2
    unit = make_circle(1.0, 64)
    assert build_flow_config({"flow": {"flow_kind": "MCF"}}, unit).dt == 0.1 * h**2
    assert build_flow_config({"flow": {"flow_kind": "MCF"}}, make_circle(r, 64)).dt == circle.dt


def _rows(path):
    with open(path, newline="") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


# a run stops up to 1e-12 short of t_end: at steps of 1e-13, simulate exited 0 having
# taken none, and verify theorem1 failed with an IndexError that named no cause
def test_simulate_takes_steps_below_the_end_tolerance(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", circle_config(tmp_path, out, dt=1e-13, t_end=5e-13)]) == 0
    times = [row[0] for row in _rows(out / "diagnostics.csv")]
    assert times == pytest.approx([0.0, 2e-13, 4e-13, 5e-13], rel=1e-9, abs=0)


def test_verify_theorem1_takes_steps_below_the_end_tolerance(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "tiny.json", {
        "geometry": {"kind": "circle", "r": 1.0}, "grid": {"sizes": [64]},
        "flow": {"dt": 1e-13, "t_end": 5e-13}, "output_dir": str(out),
    })
    assert main(["verify", "--config", cfg, "--verify-name", "theorem1"]) == 0, capsys.readouterr().err
    assert np.isfinite(read_json(out / "report.json")["norms"]["max"])


def test_small_circle_at_the_default_step_stays_bounded(tmp_path, capsys):
    # at 0.1 h^2, a step that ignored the metric, this circle reached length 1.4e62 and exited 0
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "small.json", {
        "geometry": {"kind": "circle", "r": 0.1},
        "grid": {"sizes": [64]},
        "flow": {"t_end": 0.03, "output_every": 100},
        "output_dir": str(out),
    })
    assert main(["simulate", "--config", cfg]) == 0
    assert "warning" not in capsys.readouterr().err
    rows = _rows(out / "diagnostics.csv")
    assert len(rows) >= 2 and rows[-1][0] == pytest.approx(0.03)
    assert np.all(np.isfinite(rows))
    lengths = np.array([row[1] for row in rows])
    assert np.max(np.abs(lengths - lengths[0])) / lengths[0] <= 1e-6


def test_shrinking_circle_under_mcf_stays_finite_at_the_default_step(tmp_path):
    # r^2 = 1 - 2t: half the bound taken at t = 0 loses stability once r^2 < 1/2,
    # and at that step this run ended at length 5.5e57 with exit 0
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "mcf.json", {
        "geometry": {"kind": "circle", "r": 1.0},
        "grid": {"sizes": [64]},
        "flow": {"flow_kind": "MCF", "t_end": 0.4, "output_every": 20},
        "output_dir": str(out),
    })
    assert main(["simulate", "--config", cfg]) == 0
    rows = _rows(out / "diagnostics.csv")
    assert rows[-1][0] == pytest.approx(0.4)
    assert np.all(np.isfinite(rows))
    assert rows[-1][1] == pytest.approx(2 * np.pi * np.sqrt(1 - 2 * 0.4), rel=2e-2)


def test_rk4_step_above_the_bound_warns_and_runs(tmp_path, capsys):
    from skewflow import explicit_step_bound, make_circle

    bound = explicit_step_bound(make_circle(1.0, 64))
    out = tmp_path / "out"
    assert main(["simulate", "--config", circle_config(tmp_path, out, dt=1.5 * bound, t_end=3 * bound)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert "flow.dt" in warnings[0] and repr(bound) in warnings[0]
    assert len(_rows(out / "diagnostics.csv")) == 2
    # below the bound, and under IMEX at any step, nothing is printed
    assert main(["simulate", "--config", circle_config(tmp_path, out, dt=0.9 * bound, t_end=3 * bound)]) == 0
    cfg = write_config(tmp_path / "imex.json", {
        "geometry": {"kind": "circle", "r": 1.0}, "grid": {"sizes": [64]},
        "flow": {"dt": 100 * bound, "t_end": 100 * bound, "scheme": "IMEX"}, "output_dir": str(out),
    })
    assert main(["simulate", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""


def test_integer_too_large_for_a_float_names_the_field(tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"geometry": {"kind": "circle", "r": 1' + "0" * 400 + '}, "grid": {"sizes": [16]}}')
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "geometry.r" in err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.integers(min_value=2**1024, max_value=10**500) | st.integers(min_value=-(10**500), max_value=-(2**1024)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
_NUMERIC_FIELDS = (("geometry", "r"), ("flow", "dt"), ("flow", "t_end"), ("flow", "output_every"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(_NUMERIC_FIELDS), value=_JSON_VALUES)
def test_any_json_value_in_a_numeric_circle_field_runs_or_names_the_field(field, value):
    """Any value either runs (exit 0, or exit 2 where the circle it gives is
    degenerate) or stops with exit 1 and one error line naming the field;
    ``main`` never raises.  The run is cut after two steps so that any dt and
    t_end finish at once; parsing and validation are the CLI's own."""

    def two_steps(imm, config):
        return run(imm, dataclasses.replace(config, t_end=min(config.t_end, 2 * config.dt)))

    section, key = field
    payload = {"geometry": {"kind": "circle", "r": 1.0}, "grid": {"sizes": [16]}, "flow": {"t_end": 1e-3}}
    payload[section][key] = value
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "run", two_steps), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), np.errstate(all="ignore"):
        payload["output_dir"] = tmp
        code = main(["simulate", "--config", write_config(f"{tmp}/c.json", payload)])
    lines = stderr.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 1:
        assert lines[-1].startswith("error:") and f"{section}.{key}" in lines[-1]
    if code == 2:
        assert lines[-1].startswith("degenerate immersion:")
    assert all(line.startswith(("warning:", "error:", "degenerate immersion:")) for line in lines)
