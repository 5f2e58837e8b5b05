"""The residuals of ``verify.PROBLEMS`` and the flow operator, evaluated slab by
slab (``verify._by_slabs`` and ``flow._by_slabs``).

Every per-node residual is computed on slab-sized geometries of a few rows of
the first grid axis and assembled, and so is every stage velocity of RK4 and
every freeze and apply of the IMEX operator; both take the one cut of
``geometry._slab_bounds``, set by the node budget ``geometry.SLAB_NODES``.
These tests pin down that the two cut every grid the same way, that the result
is the whole grid's bit for bit, that the rank check names what the whole
grid's check names, that every slab is a valid grid at its parent's spacings,
and that the memory of the residuals and of an RK4 run no longer grows with a
whole-grid workspace.
"""

import json
import math

import numpy as np
import pytest

from skewflow import (
    DegenerateImmersionError,
    FlowState,
    GeometryCache,
    Immersion,
    PeriodicGrid,
    Trajectory,
    dt_rho_analytic,
    dt_rho_numeric,
    flow,
    fundamental_forms,
    geometry,
    make_perturbed_circle,
    make_perturbed_torus,
    make_product_torus,
    residual_codazzi,
    residual_identify,
    residual_theorem1,
    run,
    save_immersion_csv,
    stable_dt,
    tension,
    velocity,
    verify,
)
from skewflow.cli import main
from skewflow.flow import FlowConfig, explicit_step_bound
from skewflow.grassmann import jtilde_coeffs

from conftest import traced_peak

ONE_SLAB = 10**6  # a slab height, and a node budget, above every grid here: the one-slab evaluation
GEOMETRIES = {
    "torus": make_perturbed_torus(1.0, 0.6, 0.05, 7, 64),
    "product": make_product_torus(1.0, 0.6, 64),
    "torus-96x64": make_perturbed_torus(1.0, 0.7, 0.3, 3, 96, 64),
    "circle-256": make_perturbed_circle(1.0, 0.2, 3, 256),
}
# 16 and 32 divide every first axis here; 24 and 40 leave a remainder on some
HEIGHTS = (16, 24, 32, 40)


def _cut(monkeypatch, grid, slab_rows):
    """Set the node budget to ``slab_rows`` rows of ``grid``, which cuts a grid of its width
    into slabs of at most that many rows."""
    monkeypatch.setattr(geometry, "SLAB_NODES", slab_rows * math.prod(grid.sizes[1:]))


def _bits(name, imm, monkeypatch, slab_rows, halo=verify.HALO):
    """The field bytes and the hex norms of the PROBLEMS row ``name`` at a slab height and halo."""
    _cut(monkeypatch, imm.grid, slab_rows)
    monkeypatch.setattr(verify, "HALO", halo)
    report = verify.PROBLEMS[name][1](imm)
    return report.field.tobytes(), {key: float(value).hex() for key, value in report.norms.items()}


@pytest.mark.parametrize("name", sorted(verify.PROBLEMS))
@pytest.mark.parametrize("kind", sorted(GEOMETRIES))
def test_every_slab_height_gives_the_one_slab_bits(monkeypatch, kind, name):
    imm = GEOMETRIES[kind]
    whole = _bits(name, imm, monkeypatch, ONE_SLAB)
    for height in HEIGHTS:
        assert _bits(name, imm, monkeypatch, height) == whole, height
    # the negative control: a halo one row thinner reads past a slab's ghost rows; conservation
    # builds no _by_slabs geometry, so HALO does not reach it: its volumes read first differences
    # alone, on whole grids, and its run cuts slabs with the flow operator's own ghost row
    if name != "conservation":
        assert _bits(name, imm, monkeypatch, 16, verify.HALO - 1)[0] != whole[0]


@pytest.mark.parametrize("name", sorted(verify.PROBLEMS))
def test_a_128_grid_at_slab_height_40_gives_the_one_slab_bits(monkeypatch, name):
    imm = make_perturbed_torus(1.0, 0.6, 0.05, 7, 128)
    assert _bits(name, imm, monkeypatch, 40) == _bits(name, imm, monkeypatch, ONE_SLAB)


def test_slabbed_residuals_are_the_whole_grid_stages_bit_for_bit(monkeypatch):
    """Against the stages on whole-grid geometries, as the residuals ran them before slabs."""
    imm = GEOMETRIES["torus-96x64"]
    _cut(monkeypatch, imm.grid, 32)
    assert len(geometry._slab_bounds(imm.grid)) == 3
    cache = fundamental_forms(imm)
    frobenius = lambda c: np.sqrt(np.sum(c**2, axis=(0, 1)))
    codazzi = frobenius(tension(cache) - dt_rho_analytic(cache, apply_rotation=False))
    assert residual_codazzi(imm).field.tobytes() == codazzi.tobytes()
    dt = stable_dt(imm)
    traj = run(imm, FlowConfig(dt=dt, t_end=2 * dt, output_every=1))
    mid = fundamental_forms(traj[1].immersion)
    theorem1 = frobenius(dt_rho_numeric(traj, 1) - jtilde_coeffs(tension(mid)))
    report = residual_theorem1(traj, 1)
    assert report.field.tobytes() == theorem1.tobytes()
    l2 = float(np.sqrt(np.sum(theorem1**2 * mid.sqrt_det_g) * imm.grid.cell_measure()))
    assert report.norms["l2"] == l2


# ---------------------------------------------------------------------------
# slab grids


def test_a_slab_grid_carries_its_grids_spacings_bit_for_bit():
    imm = make_product_torus(1.0, 0.6, 256)
    h = 2.0 * np.pi / 256
    assert 2.0 * np.pi * 22 / 256 / 22 != h  # a slab's own period over its rows rounds to another spacing
    for rows in (8, 22, 38, 250):
        slab = GeometryCache(imm, rows=range(-3, rows - 3)).grid
        assert slab.sizes == (rows, 256) and slab.spacings == imm.grid.spacings
        assert slab.cell_measure() == imm.grid.cell_measure()


@pytest.mark.parametrize("kind", ["circle-256", "torus-96x64"])
def test_a_pad_holds_the_whole_grids_rows_and_its_periodic_ghost_cells(kind):
    imm = GEOMETRIES[kind]
    f, (size, *_) = np.moveaxis(imm.F, -1, 0), imm.grid.sizes
    padded = np.pad(f, [(0, 0), (size, size)] + [(1, 1)] * (imm.grid.m - 1), mode="wrap")
    # starts that wrap below 0, sit inside the grid, wrap past N, end at N, and the whole grid
    for start, height in ((-3, 16), (0, 16), (40, 16), (size - 10, 16), (size - 16, 16), (0, size)):
        ws = geometry._Stencils(geometry._slab_grid(imm.grid, height))
        ws.pad.fill(np.nan)  # a cell left unwritten fails the comparison
        geometry._fill_pad(f, ws, start)
        assert np.array_equal(ws.pad, padded[:, size + start - 1 : size + start + height + 1]), start


@pytest.mark.parametrize("slab_rows", [12, 16, 24, 32, 40, 64])
def test_every_slab_is_a_grid_of_at_most_slab_rows(monkeypatch, slab_rows):
    most = max(slab_rows, 16)  # a budget below 16 rows cuts at the 16-row floor
    for rows in range(8, 402, 2):
        grid = PeriodicGrid((rows, 8))
        _cut(monkeypatch, grid, slab_rows)
        bounds = geometry._slab_bounds(grid)
        assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
        assert bounds[-1][1] == rows
        halo = verify.HALO if rows > most else 0
        assert bool(halo) == (len(bounds) > 1)
        for start, stop in bounds:
            assert stop - start <= most
            PeriodicGrid((stop - start + 2 * halo, 8))  # raises on an odd or short slab


# ---------------------------------------------------------------------------
# the rank check


def _pinched(imm, row, col=5, value=None):
    """imm with the first-axis tangent at node (row, col) made zero, or with a position set to value."""
    F = imm.F.copy()
    if value is None:
        F[(row + 1) % len(F), col] = F[row - 1, col]
    else:
        F[row, col] = value
    return Immersion(imm.grid, F)


BASE = make_perturbed_torus(1.0, 0.6, 0.05, 7, 64)
# (earlier, middle, later) states; slabs of 16 rows start at 0, 16, 32 and 48
PINCHES = {
    "halo-row": (BASE, _pinched(BASE, 16), BASE),
    "slab-boundary": (BASE, _pinched(BASE, 15), BASE),
    "wrapped-halo": (BASE, _pinched(BASE, 63), BASE),
    "middle-before-later": (BASE, _pinched(BASE, 40), _pinched(BASE, 16)),
    "later-before-earlier": (_pinched(BASE, 0), BASE, _pinched(BASE, 50)),
    "non-finite-first": (BASE, _pinched(_pinched(BASE, 10), 50, value=np.nan), BASE),
}


# theorem1 reads all three states; the codazzi and identify rows read a degenerate middle one alone
DEGENERATE = [pytest.param("theorem1", case, id=case) for case in sorted(PINCHES)] + [
    pytest.param(name, case, id=f"{name}-{case}")
    for name in ("codazzi", "identify")
    for case in sorted(PINCHES)
    if PINCHES[case][1] is not BASE
]


@pytest.mark.parametrize("name, case", DEGENERATE)
def test_a_degenerate_state_is_named_as_the_whole_grids_check_names_it(monkeypatch, name, case):
    earlier, middle, later = PINCHES[case]
    with pytest.raises(DegenerateImmersionError) as expected:
        for imm in (middle, later, earlier):  # the whole grid's checks, in the order the residual takes them
            fundamental_forms(imm)
    _cut(monkeypatch, middle.grid, 16)
    traj = Trajectory([FlowState(t, imm) for t, imm in zip((0.0, 1e-3, 2e-3), (earlier, middle, later))])
    with pytest.raises(DegenerateImmersionError) as got:
        if name == "theorem1":
            residual_theorem1(traj, 1)
        else:
            verify.PROBLEMS[name][1](middle)
    assert (got.value.node, got.value.time, str(got.value)) == (expected.value.node, expected.value.time, str(expected.value))


def test_a_doubly_wound_torus_file_passes_verify_codazzi(tmp_path, monkeypatch, capsys):
    # rows k and k + 16 coincide: a slab of rows -1..16 that wrapped onto itself
    # would take a zero chord between rows 0 and 16 for the tangent at row -1
    grid = PeriodicGrid((32, 16))
    _cut(monkeypatch, grid, 16)
    u, v = grid.meshgrid()
    F = np.stack([np.cos(2 * u), np.sin(2 * u), 0.6 * np.cos(v), 0.6 * np.sin(v)], axis=-1)
    assert geometry._slab_bounds(grid) == [(0, 16), (16, 32)] and np.allclose(F[0], F[16], atol=1e-15)
    save_immersion_csv(Immersion(grid, F), tmp_path / "nodes.csv")
    config = tmp_path / "wound.json"
    config.write_text(json.dumps({
        "geometry": {"kind": "file", "path": str(tmp_path / "nodes.csv")},
        "grid": {"sizes": [32, 16]},
        "verify_name": "codazzi",
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["verify", "--config", str(config)]) == 0, capsys.readouterr().err


# ---------------------------------------------------------------------------
# the CLI


CLI_RUNS = {
    "verify-codazzi": ("verify", {"verify_name": "codazzi", "grid": {"sizes": [48, 16]}}),
    "verify-identify": ("verify", {"verify_name": "identify", "grid": {"sizes": [48, 16]}}),
    "verify-theorem1": ("verify", {"verify_name": "theorem1", "grid": {"sizes": [48, 16]}}),
    "converge-theorem1": ("converge", {"verify_name": "theorem1", "resolutions": [16, 32, 48]}),
}


def _outputs(out):
    """Every file that a run wrote, its JSON without ``generated_at``."""
    files = {}
    for path in sorted(out.iterdir()):
        text = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(text)
            doc.pop("generated_at")
            text = json.dumps(doc, sort_keys=True)
        files[path.name] = text
    return files


@pytest.mark.parametrize("run_id", sorted(CLI_RUNS))
def test_the_cli_writes_the_one_slab_bytes(tmp_path, monkeypatch, run_id):
    task, payload = CLI_RUNS[run_id]
    geometry_keys = {"kind": "perturbed_torus", "a": 1.0, "b": 0.6, "eps": 0.05, "seed": 7}
    written = []
    for slab_rows in (16, ONE_SLAB):  # 16 rows of the narrowest grid here, the floor of the others
        _cut(monkeypatch, PeriodicGrid((16, 16)), slab_rows)
        out = tmp_path / str(slab_rows)
        config = tmp_path / f"{slab_rows}.json"
        config.write_text(json.dumps({"geometry": geometry_keys, "output_dir": str(out), **payload}))
        assert main([task, "--config", str(config)]) == 0
        written.append(_outputs(out))
    assert written[0] == written[1] and written[0]


# ---------------------------------------------------------------------------
# the flow operator


# geometry -> node budgets (geometry.SLAB_NODES) that cut it into slabs: 4, 3 of two
# heights and 2 slabs of the 64^2 torus; 6, 4 and 3 of 96 x 256; 14 and 3 of
# 330 x 64; 6 and 2 of the curve, whose default budget splits it in four
FLOW_SLABS = {
    "torus-64": (make_perturbed_torus(1.0, 0.6, 0.05, 7, 64), (1, 1536, 2048)),
    "product-96x256": (make_product_torus(1.0, 0.6, 96, 256), (1536, 6144, 8192)),
    "product-330x64": (make_product_torus(1.0, 0.6, 330, 64), (1536, 8192)),
    "curve-16384": (make_perturbed_circle(1.0, 0.2, 3, 16384), (3000, 8192)),
}


def _flow_bits(imm, monkeypatch, slab_nodes):
    """The bytes of two-step RK4 runs, of three-step IMEX runs (a predictor step and two
    extrapolated ones) and of the velocity of either flow, and the hex RK4 step bound, at a
    node budget; with the number of slabs it cuts."""
    monkeypatch.setattr(geometry, "SLAB_NODES", slab_nodes)
    bits = [explicit_step_bound(imm).hex()]
    for kind in flow.FLOW_KINDS:
        dt = stable_dt(imm)
        for scheme, steps in (("RK4", 2), ("IMEX", 3)):
            traj = run(imm, FlowConfig(flow_kind=kind, dt=dt, t_end=steps * dt, scheme=scheme, output_every=1))
            bits += [state.immersion.F.tobytes() for state in traj.states]
        bits += [velocity(imm, kind).tobytes()]
    return bits, len(flow._Slabs(imm.grid, "SMCF").slabs)


@pytest.mark.parametrize("kind", sorted(FLOW_SLABS))
def test_every_node_budget_gives_the_one_slab_flow_bits(monkeypatch, kind):
    imm, budgets = FLOW_SLABS[kind]
    whole, count = _flow_bits(imm, monkeypatch, ONE_SLAB)
    assert count == 1
    for budget in budgets:
        bits, count = _flow_bits(imm, monkeypatch, budget)
        assert count > 1 and bits == whole, budget


def _raised(call):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateImmersionError) as err:
            call()
    return err.value.node, err.value.time, str(err.value)


# the middle states of PINCHES whose degenerate node sits at a slab's edge or in
# its ghost rows when slabs are 16 rows tall, and their base torus, which RK4
# at 20 times its step bound makes degenerate at a middle stage some steps in
FLOW_PINCHES = {case: PINCHES[case][1] for case in ("halo-row", "slab-boundary", "wrapped-halo", "non-finite-first")}
FLOW_PINCHES["unstable"] = BASE


@pytest.mark.parametrize("case", sorted(FLOW_PINCHES))
def test_a_degenerate_stage_is_named_as_the_whole_grids_check_names_it(monkeypatch, case):
    imm = FLOW_PINCHES[case]
    dt = 20 * explicit_step_bound(imm) if case == "unstable" else 1e-4
    calls = [
        lambda: run(imm, FlowConfig(dt=dt, t_end=1000 * dt)),
        lambda: run(imm, FlowConfig(flow_kind="MCF", dt=dt, t_end=1000 * dt)),
        # a pinched torus fails IMEX's first freeze, at t = 0
        lambda: run(imm, FlowConfig(dt=dt, t_end=1000 * dt, scheme="IMEX")),
        lambda: run(imm, FlowConfig(flow_kind="MCF", dt=dt, t_end=1000 * dt, scheme="IMEX")),
        lambda: velocity(imm),
        lambda: explicit_step_bound(imm),
    ]
    monkeypatch.setattr(geometry, "SLAB_NODES", ONE_SLAB)
    expected = [_raised(call) for call in calls[: 2 if case == "unstable" else 6]]
    monkeypatch.setattr(geometry, "SLAB_NODES", 16 * 64)
    assert len(flow._Slabs(imm.grid, "SMCF").slabs) == 4
    assert [_raised(call) for call in calls[: len(expected)]] == expected
    if case == "unstable":  # at t = 6.5 dt (SMCF) and 4.5 dt (MCF)
        assert [round(time / dt % 1, 6) for _, time, _ in expected] == [0.5, 0.5]
    else:
        assert [time for _, time, _ in expected[2:4]] == [0.0, 0.0]


# ---------------------------------------------------------------------------
# one cut


# geometry -> the number of slabs that the default node budget cuts it into
SAME_CUT = {
    "torus-64": (make_product_torus(1.0, 0.6, 64), 1),
    "torus-128": (make_product_torus(1.0, 0.6, 128), 4),
    "torus-256": (make_product_torus(1.0, 0.6, 256), 16),
    "torus-96x256": (make_product_torus(1.0, 0.6, 96, 256), 6),
    "torus-330x64": (make_product_torus(1.0, 0.6, 330, 64), 6),
    "curve-512": (make_perturbed_circle(1.0, 0.2, 3, 512), 1),
    "curve-16384": (make_perturbed_circle(1.0, 0.2, 3, 16384), 4),
}


@pytest.mark.parametrize("kind", sorted(SAME_CUT))
def test_the_flow_operator_and_the_residuals_cut_a_grid_the_same_way(kind):
    imm, count = SAME_CUT[kind]
    flow_rows = [(rows.start, rows.stop) for rows, _ in flow._Slabs(imm.grid, "SMCF").slabs]
    seen = []  # the rows of each slab geometry that the residuals build, halo included
    verify._by_slabs(imm, lambda cache: seen.append(cache.rows) or (cache.det_g,))
    assert [(rows.start + verify.HALO, rows.stop - verify.HALO) for rows in seen] == flow_rows
    assert len(flow_rows) == count


# ---------------------------------------------------------------------------
# memory


# 256^2 peaks in grid fields, with tracemalloc: theorem1 on a prebuilt trajectory
# 89.1, the codazzi row 85.1 and the identify row 120.1 on whole-grid geometries;
# 16.5, 30.6 and 35.2 slab by slab with a whole-grid GeometryCache built for the
# two rows; 16.5, 13.7 and 18.3 with every geometry built slab by slab (_by_slabs)
# in 8 slabs; 8.7, 8.1 and 10.6 in 16 slabs, with theorem1's two further maxima
# taken slab by slab; 8.4, 7.8 and 10.6 with A unprojected and H projected once.  Each bound lies between its residual's current peak and
# the last one above it; the ids name the residual alone, so a tighter bound keeps them
@pytest.mark.parametrize("name, bound", [pytest.param(*case, id=case[0]) for case in [("theorem1", 12), ("codazzi", 11), ("identify", 14)]])
def test_residual_memory_does_not_grow_with_the_grid(name, bound):
    size = 256
    family, residual = verify.PROBLEMS[name]
    builder, keys, axes = geometry.FAMILIES[family]
    imm = builder(*[verify.FAMILY_DEFAULTS[key] for key in keys], *[size] * axes)
    if name == "theorem1":
        dt = stable_dt(imm)
        traj = run(imm, FlowConfig(dt=dt, t_end=2 * dt, output_every=1))
        residual = lambda imm: residual_theorem1(traj, 1)
    residual(imm)  # the wedge tables are cached on first use
    fields = traced_peak(lambda: residual(imm)) / (8 * size * size)
    assert fields < bound, (name, fields)


def test_rk4_run_memory_holds_no_whole_grid_operator_workspace():
    # 256^2 peaks in grid fields over the input, with tracemalloc: 54.1 with one
    # whole-grid operator workspace (about 30 fields) beside f, k, stage, acc and
    # the recorded states, 27.8 with the operator slab by slab (8 slabs), 18.2
    # with RK4 writing out of place into the buffers that the states then hold
    # (the two states, k and stage, 16 fields) and 16 slabs
    size = 256
    imm = make_perturbed_torus(*[verify.FAMILY_DEFAULTS[key] for key in ("a", "b", "eps", "seed")], size)
    dt = stable_dt(imm)
    config = FlowConfig(dt=dt, t_end=2 * dt, output_every=1)
    run(imm, config)  # the wedge tables are cached on first use
    fields = traced_peak(lambda: run(imm, config)) / (8 * size * size)
    assert fields < 23, fields


def test_theorem1_residual_memory_is_its_run_and_no_more():
    # the 256^2 row of converge theorem1, its run and the residual after it, peaks
    # at its run's peak: in grid fields with tracemalloc, 27.8 with RK4 in place in
    # 8 slabs, 18.2 out of place in 16
    size = 256
    imm = make_perturbed_torus(*[verify.FAMILY_DEFAULTS[key] for key in ("a", "b", "eps", "seed")], size)
    verify.theorem1_residual(imm)  # the wedge tables are cached on first use
    fields = traced_peak(lambda: verify.theorem1_residual(imm)) / (8 * size * size)
    assert fields < 23, fields


def test_a_slab_geometry_reads_its_rows_alone_of_a_recorded_state():
    # run records Immersion.F as a node-last view of component-first memory; a slab's
    # GeometryCache gathers its rows of that view, not a C-contiguous copy of all of F
    size = 256
    imm = make_perturbed_torus(1.0, 0.6, 0.05, 7, size)
    recorded = Immersion(imm.grid, np.moveaxis(np.moveaxis(imm.F, -1, 0).copy(), 0, -1))
    contiguous = Immersion(imm.grid, np.ascontiguousarray(recorded.F))
    assert not recorded.F.flags.c_contiguous and contiguous.F.flags.c_contiguous
    for rows in (range(-1, 17), range(120, 138), range(239, 257)):  # wrapping at either end, and within
        got, want = GeometryCache(recorded, rows=rows), GeometryCache(contiguous, rows=rows)
        for name in ("f", "t", "g", "det_g", "min_sv", "rho", "H"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (rows, name)
    # one position array of 256^2 is 4 grid fields
    fields = traced_peak(lambda: GeometryCache(recorded, rows=range(120, 138))) / (8 * size * size)
    assert fields < 4, fields
