"""One field layout: component-first fields whose one-node slices are the pointwise API."""

import ast
import json
import re
from pathlib import Path

import numpy as np

from skewflow import (
    FlowConfig,
    FlowState,
    cli,
    flow,
    fundamental_forms,
    geometry,
    make_perturbed_circle,
    make_perturbed_torus,
    run,
    step,
    velocity,
    verify,
)
from skewflow.geometry import _metric_block
from skewflow.grassmann import project_field, rho_field

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "skewflow"
GEOMETRIES = (make_perturbed_circle(1.0, 0.2, 3, 32), make_perturbed_torus(1.0, 0.7, 0.05, 3, 16))


def test_geometry_cache_metric_block_is_the_flow_kernels(monkeypatch):
    seen = {}

    def recording(f, grid, time, ws, start=0):
        _metric_block(f, grid, time, ws, start)
        seen.update(t=ws.t.copy(), g=ws.g.copy(), det_g=ws.det_g.copy(), min_sv=ws.min_sv.copy())

    monkeypatch.setattr(flow, "_metric_block", recording)
    for imm in GEOMETRIES:
        velocity(imm)
        cache = fundamental_forms(imm)
        for name, kernel_value in seen.items():
            assert getattr(cache, name).shape == kernel_value.shape
            assert np.array_equal(getattr(cache, name), kernel_value), name
        # one inverse metric: the cache's g^{ij} against LAPACK, and the flow
        # operator's frozen c_ij, which are g^{ij} doubled off the diagonal
        reference = np.moveaxis(np.linalg.inv(np.moveaxis(cache.g, (0, 1), (-2, -1))), (-2, -1), (0, 1))
        assert np.max(np.abs(cache.g_inv - reference)) <= 1e-13 * np.max(np.abs(reference))
        ws = flow._Operator(imm.grid, "SMCF")
        flow._coefficients(np.moveaxis(imm.F, -1, 0), None, ws)
        assert sorted((i, j) for i, j, _ in ws.terms) == [(i, j) for i in range(imm.grid.m) for j in range(i, imm.grid.m)]
        for i, j, c in ws.terms:
            assert np.array_equal(c, cache.g_inv[i, j] * (1.0 if i == j else 2.0)), (i, j)


def test_velocity_and_fundamental_forms_share_one_second_difference_kernel(monkeypatch):
    kernel, calls = geometry._second_difference, []

    def recording(ws, h, i, j, out):
        calls.append((i, j))
        return kernel(ws, h, i, j, out)

    for module in (geometry, flow):
        monkeypatch.setattr(module, "_second_difference", recording)
    for imm in GEOMETRIES:
        pairs = [(0, 0)] if imm.grid.m == 1 else [(0, 0), (0, 1), (1, 1)]
        for call in (lambda: velocity(imm), lambda: fundamental_forms(imm).A):
            calls.clear()
            call()
            assert sorted(calls) == pairs


def test_frozen_xi_is_unit_and_the_gauss_field_on_curves():
    for imm in GEOMETRIES:
        ws = flow._Operator(imm.grid, "SMCF")
        flow._coefficients(np.moveaxis(imm.F, -1, 0), None, ws)
        assert np.max(np.abs(np.sqrt(np.sum(ws.xi * ws.xi, axis=0)) - 1.0)) <= 1e-15
        if imm.grid.m == 1:
            assert np.array_equal(ws.xi, fundamental_forms(imm).rho)


def test_velocity_explicit_and_imex_steps_share_one_operator(monkeypatch):
    from skewflow import imex

    # the IMEX solver holds the flow module's own driver and operator, not copies
    assert (imex._by_slabs, imex._Slabs, imex._apply) == (flow._by_slabs, flow._Slabs, flow._apply)
    coefficients, apply, calls = flow._coefficients, flow._apply, []

    def recording_coefficients(f, time, ws, start=0):
        calls.append("coefficients")
        coefficients(f, time, ws, start)

    def recording_apply(ws, out):
        calls.append("apply")
        return apply(ws, out)

    monkeypatch.setattr(flow, "_coefficients", recording_coefficients)
    for module in (flow, imex):
        monkeypatch.setattr(module, "_apply", recording_apply)
    # both schemes run the operator slab by slab: 16 rows a slab cut the last torus into 4
    monkeypatch.setattr(geometry, "SLAB_NODES", 16 * 64)
    for imm in GEOMETRIES + (make_perturbed_torus(1.0, 0.7, 0.05, 3, 64),):
        state, slabs = FlowState(0.0, imm), len(flow._Slabs(imm.grid, "SMCF").slabs)
        assert slabs == (4 if imm.grid.sizes == (64, 64) else 1)
        cases = [
            (lambda: velocity(imm, "MCF"), slabs, slabs),
            (lambda: flow.explicit_step_bound(imm), slabs, 0),
            (lambda: step(state, FlowConfig(dt=1e-6)), 4 * slabs, 4 * slabs),
        ]
        for call, frozen, applied in cases:
            calls.clear()
            call()
            assert (calls.count("coefficients"), calls.count("apply")) == (frozen, applied)
        # IMEX: one freeze per solve, at least one apply per Krylov vector, each on
        # every slab.  step and a run's first step solve twice (predictor,
        # corrector), each later step once
        calls.clear()
        step(state, FlowConfig(dt=1e-3, scheme="IMEX"))
        assert calls.count("coefficients") == 2 * slabs and calls.count("apply") >= 4 * slabs
        assert calls.count("apply") % slabs == 0
        calls.clear()
        run(imm, FlowConfig(dt=1e-3, t_end=4.5e-3, scheme="IMEX"))
        assert calls.count("coefficients") == (5 + 1) * slabs


def test_the_flow_operator_is_built_only_by_its_slabs():
    # a whole-grid operator workspace, in either scheme, is what slab-by-slab evaluation removed
    built, subclasses = [], []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and "_Operator" in (getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                built.append((path.name, scope))
            if isinstance(child, ast.ClassDef):
                subclasses.extend(child.name for base in child.bases if getattr(base, "id", None) == "_Operator")
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "")
    assert built == [("flow.py", "_Slabs.__init__")]
    assert subclasses == []


def test_field_forms_on_one_frame_are_the_node_slice_of_the_field_call():
    rng = np.random.default_rng(41)
    for imm in GEOMETRIES:
        cache = fundamental_forms(imm)
        w = rng.standard_normal(cache.rho.shape)
        rho, coeffs = rho_field(cache.e), project_field(cache.e, cache.nu, w)
        for node in [(0,) * imm.grid.m, (7,) * imm.grid.m]:
            at = (..., *node)
            assert np.array_equal(rho_field(cache.e[at]), rho[at])
            assert np.array_equal(project_field(cache.e[at], cache.nu[at], w[at]), coeffs[at])


def test_no_einsum_subscript_is_node_first():
    # grid axes trail: an operand term like "...in" would put them before the
    # structural axes; a bare "..." (one value per node) has none to order
    node_first = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum":
                spec = node.args[0].value
                terms = spec.replace("->", ",").split(",")
                node_first += [f"{path.name}:{node.lineno} {spec}" for t in terms if t.startswith("...") and t != "..."]
    assert node_first == []


# imports that stay unused on purpose, with the reason: the benchmark tracer
# wraps these names in geometry's namespace, so they go when it stops tracing them
UNUSED_IMPORT_ALLOWED = {
    ("geometry.py", "project_field"): "traced as geometry.project_field",
    ("geometry.py", "tangent_basis_field"): "traced as geometry.tangent_basis_field",
}


def test_no_module_level_import_is_unused():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public API
            continue
        tree = ast.parse(path.read_text())
        imported = []
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in imported if name not in used]
    assert sorted(set(unused) - set(UNUSED_IMPORT_ALLOWED)) == []
    # an allowed name that is used again no longer needs its place on the list
    assert sorted(set(UNUSED_IMPORT_ALLOWED) - set(unused)) == []


# the one-node wrappers of grassmann and exterior; verify works on fields only
POINTWISE_NAMES = {"psi", "psi_inv", "project_to_tangent", "tangent_basis", "MultiVector", "inner"}


def _imported(module: str) -> set:
    """The names that a module of the package imports, anywhere in it."""
    imported = set()
    for node in ast.walk(ast.parse((SRC / module).read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.name.split(".")[-1] for alias in node.names}
    return imported


def test_verify_imports_no_pointwise_name():
    assert sorted(_imported("verify.py") & POINTWISE_NAMES) == []


def test_verify_builds_geometry_only_in_the_slab_driver_and_the_time_difference():
    # a residual row that builds a whole-grid GeometryCache holds every field of it at once
    builders, allowed = {"GeometryCache", "fundamental_forms"}, {"_by_slabs", "dt_rho_numeric"}
    outside = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) in builders and scope not in allowed:
                outside.append((scope, child.func.id, child.lineno))
            visit(child, child.name if isinstance(child, ast.FunctionDef) and scope is None else scope)

    visit(ast.parse((SRC / "verify.py").read_text()), None)
    assert outside == []


def test_cli_runs_named_residuals_through_the_problems_table():
    assert sorted(_imported("cli.py") & {"theorem1_residual", "residual_codazzi", "residual_identify"}) == []
    # every verify name but the two without a geometry family is a row of the table
    names = {task.split()[1] for task in cli.READS if task.startswith("verify ")}
    assert names == set(verify.PROBLEMS) | {"theorem2", "conservation"}


# comparisons of the dimension that stay, with the reason; any other comparison
# of m, ``.m``, ``len(...)`` or ``.ndim`` in these modules is a fork to remove
DIMENSION_TEST_ALLOWED = {
    ("geometry.py", "PeriodicGrid.__post_init__"): "input domain: 1 or 2 grid axes, one period per axis",
    ("geometry.py", "_closed_forms"): "det g, min_sv and the cofactors of g in closed form, which hold for m <= 2",
    ("geometry.py", "rotate_normal_field"): "input domain: codimension two, n = m + 2, for any m",
    ("geometry.py", "load_immersion_csv"): "input domain: counts the values of each CSV row",
    ("flow.py", "Trajectory.__post_init__"): "counts the grids of a trajectory, not their axes",
    ("verify.py", "_neighbours"): "input domain: the index needs both neighbors in the trajectory",
    ("verify.py", "kahler_residual"): "input domain: one (m, k) coefficient matrix",
    ("verify.py", "theorem2_suite"): "input domain: counts the steps of h_list",
    ("verify.py", "convergence_study"): "input domain: counts the resolutions",
}
# per-axis sequences; a constant index >= 0 into one of them fixes an axis
AXIS_INDEXED = {"h", "spacings", "sizes", "periods", "plus", "minus", "corners", "first", "second", "g", "g_inv"}


def _dimension_forks(tree):
    """(qualified name of the enclosing definition, line) of every comparison
    that mentions the dimension and of every constant axis index, in a module."""
    forks, stack = [], [("", tree)]
    while stack:
        scope, node = stack.pop()
        if isinstance(node, ast.Compare) and any(
            (isinstance(n, ast.Name) and n.id == "m")
            or (isinstance(n, ast.Attribute) and n.attr in ("m", "ndim"))
            or (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "len")
            for n in ast.walk(node)
        ):
            forks.append((scope, node.lineno))
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", getattr(node.value, "attr", None)) in AXIS_INDEXED:
            index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            if any(isinstance(i, ast.Constant) and isinstance(i.value, int) and i.value >= 0 for i in index):
                forks.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            stack.append((f"{scope}.{child.name}".lstrip(".") if named else scope, child))
    return forks


def test_curves_and_tori_run_one_code_path():
    found = []
    for name in ("geometry.py", "flow.py", "imex.py", "verify.py"):
        for scope, line in _dimension_forks(ast.parse((SRC / name).read_text())):
            allowed = [key for key in DIMENSION_TEST_ALLOWED if key[0] == name and (scope + ".").startswith(key[1] + ".")]
            found.append((allowed[0] if allowed else (name, scope), line))
    assert sorted(f"{key[0]}:{line} in {key[1]}" for key, line in found if key not in DIMENSION_TEST_ALLOWED) == []
    # an allowed definition that no longer tests the dimension no longer needs its place on the list
    assert sorted(set(DIMENSION_TEST_ALLOWED) - {key for key, _ in found}) == []


def _readme_config_blocks():
    """The JSON of the README's config-schema block and of its geometry blocks, comments cut."""
    readme = (ROOT / "README.md").read_text()
    schema, kinds = re.findall(r"```jsonc\n(.*?)```", readme.split("### Config schema")[1], re.S)[:2]
    schema = json.loads(re.sub(r"//[^\n]*", "", schema).replace("{ ... }", "{}"))
    return schema, [json.loads(line) for line in kinds.splitlines()]


def test_readme_config_schema_lists_the_keys_the_cli_accepts():
    # the README's table renders cli.READS row by row, in order
    readme = (ROOT / "README.md").read_text().split("### Config schema")[1].split("\n## ")[0]
    rows = [line.strip("|").split("|") for line in readme.splitlines() if line.startswith("| `")]
    rendered = {task.strip(" `"): tuple(tuple(re.findall(r"`(\w+)`", cell)) for cell in cells) for task, *cells in rows}
    assert list(rendered.items()) == list(cli.READS.items())
    # the schema block lists every key that some task reads, and no other
    schema, _ = _readme_config_blocks()
    listed = {None: set(schema), **{section: set(schema[section]) for section in ("grid", "flow")}}
    assert listed == {
        None: {key for roots, _ in cli.READS.values() for key in roots} | {"flow", "output_dir"},
        "grid": set(cli.GRID_KEYS),
        "flow": {key for _, keys in cli.READS.values() for key in keys} | {"seed"},
    }
    # and the flags, each with the key it sets
    flags = dict(re.findall(r"`(--[a-z-]+)`: `([a-z_.]+)`", readme))
    assert flags == {flag: key for flag, (key, _) in cli.FLAGS.items()}


def test_readme_geometry_blocks_list_the_families_and_the_file_kind():
    _, blocks = _readme_config_blocks()
    listed = {block.pop("kind"): tuple(block) for block in blocks}
    families = {kind: keys for kind, (_, keys, _) in geometry.FAMILIES.items()}
    assert listed == {**families, "file": ("path",)}


# the attributes of a stencil pad's cells: geometry fills a pad, from the whole grid's
# positions, and takes its differences; a second module that wrote them would load slabs another way
PAD_ATTRIBUTES = {"pad", "core", "ghosts", "center", "plus", "minus", "corners"}


def test_only_geometry_touches_a_pads_cells():
    touched = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            attribute = getattr(node, "attr", None)
            name = attribute or getattr(node, "id", None) or getattr(node, "arg", None) or ""
            if attribute in PAD_ATTRIBUTES or name.startswith("ghost"):
                touched.append(f"{path.name}:{node.lineno} {name}")
    assert touched == []


def test_only_geometry_binds_a_slab_constant():
    # the flow operator and the residuals take one cut, from one node budget: a SLAB_*
    # name bound in a second module would be a second budget that a test could miss
    bound = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
                names = [leaf.id for target in targets if target for leaf in ast.walk(target) if isinstance(leaf, ast.Name)]
            bound += [(path.name, name) for name in names if name.startswith("SLAB_")]
    assert bound == [("geometry.py", "SLAB_NODES")]
