import csv
import dataclasses
import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest

from skewflow import (
    FlowConfig,
    FlowState,
    Immersion,
    PeriodicGrid,
    Trajectory,
    connection_residual,
    convergence_study,
    dt_rho_analytic,
    dt_rho_numeric,
    fundamental_forms,
    isometry_max_error,
    kahler_residual,
    make_circle,
    make_perturbed_torus,
    make_product_torus,
    residual_codazzi,
    residual_identify,
    residual_theorem1,
    run,
    stable_dt,
    tension,
    theorem2_suite,
    volume,
)
from skewflow import exterior, geometry
from skewflow.exterior import inner
from skewflow.grassmann import (
    check_frames,
    frame_curve,
    jtilde_coeffs,
    oriented_q,
    project_field,
    project_to_tangent,
    psi,
    random_adapted_frame,
    tangent_basis,
)
from skewflow.geometry import diff1, quarter_turn
from skewflow.verify import (
    FAMILY_DEFAULTS,
    PROBLEMS,
    Report,
    laplace_beltrami,
    fit_order,
    report_to_dict,
    save_json,
    save_residual_csv,
    save_table_csv,
    table_to_dict,
)

from conftest import REFERENCE_GEOMETRIES, REFERENCE_IDS, traced_peak


def short_trajectory(imm, flow_kind="SMCF", factor=0.1):
    dt = stable_dt(imm, factor)
    cfg = FlowConfig(flow_kind=flow_kind, dt=dt, t_end=2 * dt, output_every=1)
    return run(imm, cfg)


def test_tension_constant_field_is_exactly_zero():
    grid = PeriodicGrid((16, 16))
    x, y = grid.meshgrid()
    F = np.stack([x, y, 0 * x, 0 * x], axis=-1)
    cache = fundamental_forms(Immersion(grid=grid, F=F))
    # the plane field of the linear chart is constant away from the seam, and
    # differences of a constant vanish identically, so force a constant field
    # through the operator by overwriting rho via a constant-e cache
    coeffs = tension(cache)
    assert np.max(np.abs(coeffs[..., 3:-3, 3:-3])) < 1e-12


def test_tension_circle_vanishes():
    # the tangent field of the circle is a discrete eigenfunction whose
    # Laplacian is pointwise parallel to the field, so the projection kills it
    # outright; roundoff is far inside the O(h^2) budget
    for size in (64, 128):
        cache = fundamental_forms(make_circle(1.0, size))
        assert np.max(np.abs(tension(cache))) < 1e-10


def test_tension_product_torus_vanishes():
    for size in (32, 64):
        cache = fundamental_forms(make_product_torus(1.0, 0.6, size))
        assert np.max(np.abs(tension(cache))) < 1e-10


def test_dt_rho_analytic_zero_cases():
    for imm in (make_circle(1.0, 64), make_product_torus(1.0, 0.6, 32)):
        cache = fundamental_forms(imm)
        h = min(imm.grid.spacings)
        assert np.max(np.abs(dt_rho_analytic(cache))) < h * h
    grid = PeriodicGrid((16, 16))
    x, y = grid.meshgrid()
    flat = fundamental_forms(Immersion(grid=grid, F=np.stack([x, y, 0 * x, 0 * x], axis=-1)))
    assert np.max(np.abs(dt_rho_analytic(flat)[..., 3:-3, 3:-3])) < 1e-12


def test_dt_rho_numeric_frozen_trajectory_exact_zero():
    imm = make_product_torus(1.0, 0.6, 16)
    traj = Trajectory([FlowState(t, imm) for t in (0.0, 1e-3, 2e-3)])
    assert np.max(np.abs(dt_rho_numeric(traj, 1))) == 0.0


def test_dt_rho_numeric_boundary_index_rejected():
    imm = make_product_torus(1.0, 0.6, 16)
    traj = short_trajectory(imm)
    with pytest.raises(ValueError):
        dt_rho_numeric(traj, 0)
    with pytest.raises(ValueError):
        dt_rho_numeric(traj, len(traj) - 1)


def test_residual_theorem1_rejects_every_index_without_both_neighbours():
    # len(traj) used to index the trajectory first and raise a bare IndexError
    traj = short_trajectory(make_product_torus(1.0, 0.6, 16))
    for index in (0, -1, len(traj) - 1, len(traj)):
        with pytest.raises(ValueError, match=f"index {index} needs both neighbors"):
            residual_theorem1(traj, index)


def test_dt_rho_numeric_translating_circle_small():
    traj = short_trajectory(make_circle(1.0, 64))
    h = 2 * np.pi / 64
    assert np.max(np.abs(dt_rho_numeric(traj, 1))) < h * h


def test_dt_rho_numeric_product_torus_small():
    # the plane field depends only on the angles, not the evolving radii
    traj = short_trajectory(make_product_torus(1.0, 0.6, 32))
    h = 2 * np.pi / 32
    assert np.max(np.abs(dt_rho_numeric(traj, 1))) < h * h


def test_residual_theorem1_product_torus_small():
    traj = short_trajectory(make_product_torus(1.0, 0.6, 32))
    report = residual_theorem1(traj, 1)
    h = 2 * np.pi / 32
    assert report.norms["max"] < h * h
    assert report.norms["l2"] <= report.norms["max"] * math.sqrt(
        volume(traj[1].immersion)
    ) * (1 + 1e-12)


def test_residual_theorem1_perturbed_convergence_pair():
    norms = {}
    for size in (16, 32):
        traj = short_trajectory(make_perturbed_torus(1.0, 0.6, 0.05, 7, size))
        norms[size] = residual_theorem1(traj, 1).norms["max"]
    assert np.log2(norms[16] / norms[32]) >= 1.7


@pytest.mark.parametrize("kind", ["SMCF", "MCF"])
def test_residual_theorem1_converges_on_imex_trajectory(kind):
    # dt = 0.1 h: the O(dt^2) time error of IMEX and of the centered time
    # difference then falls at the spatial order
    def problem(size):
        imm = make_perturbed_torus(1.0, 0.6, 0.05, 7, size)
        dt = 0.1 * imm.grid.spacings[0]
        traj = run(imm, FlowConfig(flow_kind=kind, dt=dt, t_end=2 * dt, scheme="IMEX", output_every=1))
        return residual_theorem1(traj, 1, use_jtilde=(kind == "SMCF"))

    table = convergence_study(problem, [16, 32, 64])
    assert table.observed_order >= 1.9 and table.monotone, table.rows


def test_residual_theorem1_mcf_variant():
    norms = {}
    for size in (16, 32):
        traj = short_trajectory(make_perturbed_torus(1.0, 0.6, 0.05, 7, size), flow_kind="MCF")
        norms[size] = residual_theorem1(traj, 1, use_jtilde=False).norms["max"]
    assert np.log2(norms[16] / norms[32]) >= 1.7


def test_residual_theorem1_wrong_structure_does_not_converge():
    # feeding the skew trajectory into the heat-flow identity must leave an
    # order-one residual; this pins the sign and presence of the rotation
    norms = {}
    for size in (16, 32):
        traj = short_trajectory(make_perturbed_torus(1.0, 0.6, 0.05, 7, size))
        norms[size] = residual_theorem1(traj, 1, use_jtilde=False).norms["max"]
    assert np.log2(norms[16] / norms[32]) < 1.0
    assert norms[32] > 0.05


def test_curve_identity_convergence_pair():
    # the whole m=1 stack at once: binormal flow, sphere-valued plane field,
    # cross-product structure; closure of the identity at second order
    from skewflow import make_perturbed_circle

    norms, agree = {}, {}
    for size in (32, 64):
        traj = short_trajectory(make_perturbed_circle(1.0, 0.05, 3, size))
        report = residual_theorem1(traj, 1)
        norms[size] = report.norms["max"]
        agree[size] = report.norms["max_lhs_agreement"]
    assert np.log2(norms[32] / norms[64]) >= 1.9
    assert np.log2(agree[32] / agree[64]) >= 1.9


def test_tension_ellipse_sympy_oracle():
    # varying induced metric: the full (1/sqrt g) d(sqrt g g^11 d.) composition
    # against a symbolic tension of the sphere-valued tangent field
    sympy = pytest.importorskip("sympy")
    import numpy as np
    from skewflow.geometry import PeriodicGrid

    A, B = 1.0, 0.7
    x = sympy.symbols("x", real=True)
    gamma = sympy.Matrix([A * sympy.cos(x), B * sympy.sin(x), 0])
    speed = gamma.diff(x).norm()
    u = gamma.diff(x) / speed
    flux = speed * (1 / speed**2) * u.diff(x)  # sqrt(g) g^{11} du/dx
    lap = flux.diff(x) / speed
    tau = lap - u.dot(lap) * u  # tangential projection on the sphere
    tau_fn = sympy.lambdify(x, tau, "numpy")

    size = 96
    grid = PeriodicGrid((size,))
    xs = grid.axes()[0]
    F = np.stack([A * np.cos(xs), B * np.sin(xs), np.zeros_like(xs)], axis=-1)
    cache = fundamental_forms(Immersion(grid=grid, F=F))
    coeffs = tension(cache)
    h = grid.spacings[0]
    for node in (0, 7, 23, 48, 80):
        expected = np.asarray(tau_fn(xs[node])).ravel()
        got = coeffs[..., node] @ cache.nu[..., node]  # back to an ambient vector
        assert np.max(np.abs(got - expected)) < 5 * h * h


def test_residual_codazzi_zero_families():
    for imm, tol in [
        (make_product_torus(1.0, 0.6, 32), (2 * np.pi / 32) ** 2),
        (make_circle(1.0, 64), (2 * np.pi / 64) ** 2),
    ]:
        report = residual_codazzi(imm)
        assert report.norms["max"] < tol


def test_residual_codazzi_perturbed_convergence_pair():
    norms = {}
    for size in (16, 32):
        norms[size] = residual_codazzi(make_perturbed_torus(1.0, 0.6, 0.05, 7, size)).norms["max"]
    assert np.log2(norms[16] / norms[32]) >= 1.7


def test_residual_identify_flat_patch_zero():
    grid = PeriodicGrid((16, 16))
    x, y = grid.meshgrid()
    F = np.stack([x, y, 0 * x, 0 * x], axis=-1)
    report = residual_identify(Immersion(grid=grid, F=F))
    assert np.max(report.field[3:-3, 3:-3]) < 1e-12


def test_residual_identify_circle_matches_curvature():
    # the unit-speed differential of the tangent field has magnitude 1/r
    from skewflow.geometry import diff1, rho_field, tangent_basis_field

    r = 2.0
    imm = make_circle(r, 64)
    cache = fundamental_forms(imm)
    rho = rho_field(cache.e)
    d_unit = cache.R[0, 0] * diff1(rho, imm.grid, 0)
    coeffs = np.einsum("jac...,c...->ja...", tangent_basis_field(cache.e, cache.nu), d_unit)
    mag = np.linalg.norm(coeffs, axis=(0, 1))
    h = imm.grid.spacings[0]
    assert np.max(np.abs(mag - 1.0 / r)) < h * h
    report = residual_identify(imm)
    assert report.norms["max"] < h * h


def test_residual_identify_product_torus_analytic_A():
    imm = make_product_torus(1.0, 0.6, 32)
    report = residual_identify(imm)
    h = imm.grid.spacings[0]
    # mismatch is exactly the stencil factor (kappa - 1)/b ~ h^2/(4b)
    kappa = 2.0 / (1.0 + np.cos(h))
    expect = (kappa - 1.0) / 0.6
    assert report.norms["max"] == pytest.approx(expect, rel=1e-2)


def _rolled_laplace_beltrami(values, cache):
    """Laplace-Beltrami by np.roll, one fresh array per operation: the layout
    before the two scratch arrays."""
    grid = cache.grid
    m = grid.m
    w = cache.sqrt_det_g * cache.g_inv
    out = np.zeros_like(values)
    for i in range(m):
        h = grid.spacings[i]
        axis = values.ndim - m + i
        wi = w[i, i]
        w_plus = 0.5 * (wi + np.roll(wi, -1, axis=i))
        w_minus = 0.5 * (wi + np.roll(wi, 1, axis=i))
        out += (
            w_plus * (np.roll(values, -1, axis=axis) - values)
            - w_minus * (values - np.roll(values, 1, axis=axis))
        ) / (h * h)
        for j in range(m):
            if j != i:
                out += diff1(w[i, j] * diff1(values, grid, j), grid, i)
    return out / cache.sqrt_det_g


def _stacked_dt_rho_analytic(cache, apply_rotation=True):
    """dt_rho_analytic over all frame directions at once, rotated by np.stack."""
    w = np.einsum("il...,ln...->in...", cache.R, cache.grad_H_perp)
    if apply_rotation:
        w = np.stack([quarter_turn(wi, cache.rho) for wi in w])
    return np.einsum("in...,an...->ia...", w, cache.nu)


def _stacked_identify_field(cache):
    """residual_identify's field from the stacked differences and the full difference."""
    from skewflow.geometry import tangent_basis_field

    grid = cache.grid
    drho = np.stack([diff1(cache.rho, grid, l) for l in range(grid.m)])
    d_unit = np.einsum("il...,lc...->ic...", cache.R, drho)
    lhs = np.einsum("jac...,ic...->ija...", tangent_basis_field(cache.e, cache.nu), d_unit)
    rhs = np.einsum("il...,alp...,jp...->ija...", cache.R, cache.A, cache.R)
    return np.max(np.abs(lhs - rhs), axis=(0, 1, 2))


def _same_bits(got, expect):
    return got.shape == expect.shape and got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("imm", REFERENCE_GEOMETRIES, ids=REFERENCE_IDS)
def test_field_residual_stages_are_the_copying_layout_bit_for_bit(imm):
    cache = fundamental_forms(imm)
    for values in (cache.rho, cache.f):
        assert _same_bits(laplace_beltrami(values, cache), _rolled_laplace_beltrami(values, cache))
    for rotate in (True, False):
        assert _same_bits(dt_rho_analytic(cache, rotate), _stacked_dt_rho_analytic(cache, rotate))
    assert _same_bits(residual_identify(imm).field, _stacked_identify_field(cache))
    traj = short_trajectory(imm)
    mid = fundamental_forms(traj[1].immersion)
    chord = (fundamental_forms(traj[2].immersion).rho - fundamental_forms(traj[0].immersion).rho) / (traj[2].t - traj[0].t)
    assert _same_bits(dt_rho_numeric(traj, 1), project_field(mid.e, mid.nu, chord))


# 64^2 peaks of a PROBLEMS row in grid fields, with tracemalloc: theorem1 125.7,
# codazzi 113.6 and identify 146.5 while the residuals copied the legs of the
# tangent basis, mirrored the second derivatives and rolled into fresh arrays;
# 99.8, 87.6 and 120.5 without those copies.  Each bound lies between the two.
# The node budget (``geometry.SLAB_NODES``) keeps 64^2 in one slab, so these
# guard the one-slab rows, which read 100.0, 87.8 and 120.7 (64.1, 50.7 and 67.5
# when a row budget cut 64^2 in two slabs of 32); tests/test_slabs.py bounds the
# slabbed peaks at 256^2
@pytest.mark.parametrize("name, bound", [("theorem1", 112), ("codazzi", 100), ("identify", 133)])
def test_residual_rows_make_no_grid_sized_copy(name, bound):
    family, residual = PROBLEMS[name]
    builder, keys, axes = geometry.FAMILIES[family]
    imm = builder(*[FAMILY_DEFAULTS[key] for key in keys], *[64] * axes)
    residual(imm)  # the wedge tables are cached on first use
    fields = traced_peak(lambda: residual(imm)) / (8 * 64 * 64)
    assert fields < bound, (name, fields)


def test_theorem2_suite_isometry_and_connection():
    table = theorem2_suite(seed=11, h_list=[1e-2, 1e-3, 1e-4])
    assert table.metadata["isometry_max"] <= 1e-12
    assert table.observed_order >= 0.9
    assert table.monotone and not table.below_floor


@pytest.mark.parametrize(
    "h_list",
    [[1e-2], [1e-2, 1e-2], [1e-2, 0.0], [1e-2, -1e-3], [1e-2, math.nan], [1e-2, math.inf], 1e-2],
)
def test_theorem2_suite_rejects_bad_steps_before_work(h_list, monkeypatch):
    import skewflow.verify as verify

    def no_work(*args, **kwargs):
        raise AssertionError("theorem2_suite started work on a bad h_list")

    monkeypatch.setattr(verify, "frame_curve", no_work)
    monkeypatch.setattr(verify, "isometry_max_error", no_work)
    with pytest.raises(ValueError):
        theorem2_suite(seed=1, h_list=h_list)


def test_theorem2_constant_curve_residual_zero():
    from skewflow.grassmann import frame_curve

    base = frame_curve(9, 2, 4)(0.0)
    assert connection_residual(lambda t: base, 1e-3) == 0.0


def test_isometry_error_curve_grassmannian():
    assert isometry_max_error(seed=4, m=1, n=3, trials=500) <= 1e-12


def _pointwise_isometry_max_error(seed, m, n, trials):
    """The isometry check one frame at a time through the pointwise API."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        frame = random_adapted_frame(rng, m, n)
        c = rng.standard_normal((m, n - m))
        d = rng.standard_normal((m, n - m))
        lhs = inner(psi(frame, c), psi(frame, d))
        worst = max(worst, abs(lhs - float(np.sum(c * d))))
    return worst


@pytest.mark.parametrize("m, n", [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)])
def test_isometry_max_error_is_the_pointwise_loop_bit_for_bit(m, n):
    for seed in (0, 1, 7, 101):
        assert isometry_max_error(seed, m, n, 200).hex() == _pointwise_isometry_max_error(seed, m, n, 200).hex()


@pytest.mark.parametrize("m, n", [(1, 3), (2, 4), (3, 5)])
def test_stacked_oriented_q_is_the_pointwise_random_frame_bit_for_bit(m, n):
    trials = 50
    stacked = oriented_q(np.random.default_rng(5).standard_normal((trials, n, n)))
    check_frames(np.swapaxes(stacked, 1, 2))
    rng = np.random.default_rng(5)
    for q in stacked:
        frame = random_adapted_frame(rng, m, n)
        assert np.array_equal(q[:, :m].T, frame.e) and np.array_equal(q[:, m:].T, frame.nu)
    # and the QR, sign fix and flip one matrix at a time, written out
    for mat, q in zip(np.random.default_rng(5).standard_normal((trials, n, n)), stacked):
        q1, r1 = np.linalg.qr(mat)
        q1 = q1 * np.sign(np.diag(r1))
        if np.linalg.det(q1) < 0:
            q1[:, -1] = -q1[:, -1]
        assert np.array_equal(q1, q)


def test_isometry_max_error_is_one_field_computation(monkeypatch):
    import skewflow.grassmann as grassmann
    import skewflow.verify as verify

    basis = mock.Mock(wraps=grassmann.tangent_basis_field)
    for module in (grassmann, verify):
        monkeypatch.setattr(module, "tangent_basis_field", basis)
    pointwise = {}
    for module, name in [(grassmann, "psi"), (grassmann, "inner"), (exterior, "inner"),
                         (grassmann, "random_adapted_frame")]:
        pointwise[module.__name__, name] = mock.Mock(wraps=getattr(module, name))
        monkeypatch.setattr(module, name, pointwise[module.__name__, name])
    isometry_max_error(seed=3, m=2, n=4, trials=100)
    assert basis.call_count == 1
    assert {key: spy.call_count for key, spy in pointwise.items()} == dict.fromkeys(pointwise, 0)


def _pointwise_connection_residual(frame_fn, h):
    """The connection check one (i, alpha) leg pair at a time through the pointwise API."""
    f0 = frame_fn(0.0)
    fp, fm = frame_fn(h), frame_fn(-h)
    de = (fp.e - fm.e) / (2.0 * h)
    dnu = (fp.nu - fm.nu) / (2.0 * h)
    basis_p = tangent_basis(fp)
    basis_m = tangent_basis(fm)
    worst = 0.0
    for i in range(f0.m):
        for alpha in range(f0.k):
            lhs = np.zeros((f0.m, f0.k))
            for j in range(f0.m):
                lhs[j, alpha] += float(np.dot(de[i], f0.e[j]))
            for beta in range(f0.k):
                lhs[i, beta] += float(np.dot(dnu[alpha], f0.nu[beta]))
            d_basis = (basis_p[i][alpha] - basis_m[i][alpha]) / (2.0 * h)
            rhs = project_to_tangent(f0, d_basis)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _pointwise_kahler_residual(frame_fn, h, coeffs):
    """The Kahler check through psi and project_to_tangent, one multivector at a time."""
    f0 = frame_fn(0.0)
    fp, fm = frame_fn(h), frame_fn(-h)
    section_p, section_m = psi(fp, coeffs), psi(fm, coeffs)
    rotated = jtilde_coeffs(coeffs)
    rotated_p, rotated_m = psi(fp, rotated), psi(fm, rotated)
    lhs = project_to_tangent(f0, (rotated_p - rotated_m) / (2.0 * h))
    rhs = jtilde_coeffs(project_to_tangent(f0, (section_p - section_m) / (2.0 * h)))
    return float(np.max(np.abs(lhs - rhs)))


@pytest.mark.parametrize("m, n", [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)])
def test_connection_residual_is_the_pointwise_loop_bit_for_bit(m, n):
    for seed in (0, 5, 7, 23):
        curve = frame_curve(seed, m, n)
        for h in (1e-2, 1e-3, 1e-4):
            assert connection_residual(curve, h).hex() == _pointwise_connection_residual(curve, h).hex()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kahler_residual_is_the_pointwise_loop_bit_for_bit(m):
    for seed in (0, 5, 7, 25):
        curve = frame_curve(seed, m, m + 2)
        coeffs = np.random.default_rng(seed).standard_normal((m, 2))
        for h in (1e-2, 1e-3, 1e-4):
            assert kahler_residual(curve, h, coeffs).hex() == _pointwise_kahler_residual(curve, h, coeffs).hex()


def test_connection_and_kahler_residuals_make_no_pointwise_call(monkeypatch):
    import skewflow.grassmann as grassmann
    import skewflow.verify as verify

    pointwise = {}
    for name in ("psi", "project_to_tangent", "tangent_basis"):
        pointwise[name] = mock.Mock(wraps=getattr(grassmann, name))
        for module in (grassmann, verify):  # verify's own binding too, should it import the name again
            monkeypatch.setattr(module, name, pointwise[name], raising=False)
    curve = frame_curve(3, 2, 4)
    connection_residual(curve, 1e-3)
    kahler_residual(curve, 1e-3, np.ones((2, 2)))
    assert {name: spy.call_count for name, spy in pointwise.items()} == dict.fromkeys(pointwise, 0)


@pytest.mark.parametrize("shape", [(2,), (2, 3), (1, 2), (4,)])
def test_kahler_residual_names_the_coefficient_shape_it_expects(shape):
    with pytest.raises(ValueError, match=re.escape("expected coefficient shape (2, 2)")):
        kahler_residual(frame_curve(3, 2, 4), 1e-3, np.ones(shape))


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
def test_frame_bundle_residuals_name_a_step_that_is_not_finite_and_positive(h):
    # a step of 0 or NaN used to return nan after a RuntimeWarning
    frame_fn = mock.Mock(side_effect=AssertionError("a frame was built"))
    for check in (lambda: connection_residual(frame_fn, h), lambda: kahler_residual(frame_fn, h, np.ones((2, 2)))):
        with pytest.raises(ValueError, match=re.escape(f"step h must be finite and positive, got {h!r}")):
            check()


@pytest.mark.parametrize("trials", [0, -1])
def test_isometry_check_of_no_trials_raises_before_work(trials, monkeypatch):
    import skewflow.verify as verify

    with pytest.raises(ValueError, match="trial"):
        isometry_max_error(seed=1, m=2, n=4, trials=trials)
    monkeypatch.setattr(verify, "frame_curve", mock.Mock(side_effect=AssertionError("connection part ran")))
    with pytest.raises(ValueError, match="trial"):
        theorem2_suite(seed=1, h_list=[1e-2, 1e-3], trials=trials)


def diff1_error(size):
    """Trivial stencil benchmark: centered difference of sin on a circle grid."""
    grid = PeriodicGrid((size,))
    x = grid.axes()[0]
    err = np.abs(geometry.diff1(np.sin(x), grid, 0) - np.cos(x))
    return Report(name="diff1", field=err, norms={"max": float(np.max(err))}, grid_sizes=grid.sizes)


def test_convergence_study_diff1_second_order():
    table = convergence_study(diff1_error, [32, 64, 128])
    assert table.observed_order == pytest.approx(2.0, abs=0.1)
    assert table.monotone
    assert table.name == "diff1_error"


def test_convergence_study_zero_residual_flagged():
    def frozen(size):
        """Time variation of a trajectory that does not move: identically zero."""
        imm = make_product_torus(1.0, 0.6, size)
        err = np.max(np.abs(dt_rho_numeric(Trajectory([FlowState(t, imm) for t in (0.0, 1e-3, 2e-3)]), 1)))
        return Report(name="frozen", field=np.array([err]), norms={"max": float(err)}, grid_sizes=imm.grid.sizes)

    table = convergence_study(frozen, [16, 32])
    assert table.below_floor
    assert table.observed_order is None


def test_convergence_study_non_monotone_flagged():
    def noisy(size, **_):
        value = {16: 1e-3, 32: 2e-3, 64: 0.5e-3}[size]
        return Report(name="noisy", field=np.array([value]), norms={"max": value, "l2": value}, grid_sizes=(size,))

    table = convergence_study(noisy, [16, 32, 64])
    assert not table.monotone
    assert table.observed_order is not None


def test_convergence_study_needs_two_resolutions():
    with pytest.raises(ValueError):
        convergence_study("identify", [32])


@pytest.mark.parametrize(
    "name, kwargs, unread",
    [
        ("identify", {"eps": 0.3}, "eps"),
        ("identify", {"a": 1.0, "seed": 3}, "seed"),
        ("theorem1", {"r": 1.0}, "r"),
        ("codazzi", {"size": 16}, "size"),
        ("theorem1_mcf", {"path": "nodes.csv"}, "path"),
        pytest.param("identify", {"r": 1.0, "b": 0.6}, "r", id="only-the-unread-key-is-named"),
    ],
)
def test_convergence_study_rejects_a_keyword_its_family_does_not_read(monkeypatch, name, kwargs, unread):
    calls = []
    monkeypatch.setitem(PROBLEMS, name, (PROBLEMS[name][0], calls.append))
    for kind, (_, keys, axes) in list(geometry.FAMILIES.items()):
        monkeypatch.setitem(geometry.FAMILIES, kind, (lambda *args: calls.append(args), keys, axes))
    with pytest.raises(TypeError, match=f"{name}' does not read \\['{unread}'\\]"):
        convergence_study(name, [16, 32], **kwargs)
    assert calls == []  # rejected before any geometry is built or residual computed


def test_convergence_study_rejects_repeated_resolutions():
    calls = []

    def counted(size, **_):
        calls.append(size)
        return diff1_error(size)

    with pytest.raises(ValueError, match="distinct"):
        convergence_study(counted, [16, 16])
    assert calls == []  # rejected before any residual is computed


def test_convergence_study_rejects_a_resolution_that_is_not_whole():
    # int() truncated it: [16.7, 32] ran at 16 and recorded 16
    calls = []

    def counted(size, **_):
        calls.append(size)
        return diff1_error(size)

    for resolutions in ([16.7, 32], [16, 32.5], [16, True], [16, float("nan")]):
        with pytest.raises(ValueError, match="whole number"):
            convergence_study(counted, resolutions)
    assert calls == []  # rejected before any residual is computed
    assert [row["resolution"] for row in convergence_study(counted, [16.0, np.int64(32)]).rows] == [16, 32]


def test_fit_order_floor():
    order, monotone, below = fit_order([0.1, 0.05], [1e-20, 1e-21])
    assert below and order is None


def test_reports_are_deterministic():
    t1 = convergence_study("codazzi", [16, 32], seed=5)
    t2 = convergence_study("codazzi", [16, 32], seed=5)
    assert t1.observed_order == t2.observed_order
    assert [r["norm"] for r in t1.rows] == [r["norm"] for r in t2.rows]
    r1 = residual_theorem1(short_trajectory(make_perturbed_torus(1.0, 0.6, 0.05, 7, 16)), 1)
    r2 = residual_theorem1(short_trajectory(make_perturbed_torus(1.0, 0.6, 0.05, 7, 16)), 1)
    assert r1.norms == r2.norms


def test_json_and_csv_emission(tmp_path):
    traj = short_trajectory(make_product_torus(1.0, 0.6, 16))
    report = residual_theorem1(traj, 1)
    save_json(report_to_dict(report), tmp_path / "report.json")
    with open(tmp_path / "report.json") as fh:
        doc = json.load(fh)
    assert doc["name"] == "theorem1"
    assert set(doc["norms"]) >= {"max", "l2", "max_analytic", "max_lhs_agreement"}
    assert "generated_at" in doc
    save_residual_csv(report, tmp_path / "residual.csv")
    lines = (tmp_path / "residual.csv").read_text().splitlines()
    assert lines[0] == "i,j,residual"
    assert len(lines) == 1 + 16 * 16
    assert all(len(line.split(",")) == 3 for line in lines[1:])
    # the bytes are those of csv.writer, for any number of grid axes
    rng = np.random.default_rng(5)
    for shape in [(5,), (3, 4), (2, 3, 4)]:
        field = rng.standard_normal(shape)
        save_residual_csv(dataclasses.replace(report, field=field), tmp_path / "any.csv")
        expect = io.StringIO()
        csv.writer(expect).writerows([[*"ijk"[: len(shape)], "residual"]] + [[*i, repr(float(field[i]))] for i in np.ndindex(shape)])
        assert (tmp_path / "any.csv").read_bytes() == expect.getvalue().encode()

    table = theorem2_suite(seed=2, h_list=[1e-2, 1e-3])
    save_json(table_to_dict(table), tmp_path / "table.json", timestamp=False)
    doc = json.loads((tmp_path / "table.json").read_text())
    assert "generated_at" not in doc
    assert doc["rows"][0]["h"] == 1e-2
    save_table_csv(table, tmp_path / "table.csv")
    header = (tmp_path / "table.csv").read_text().splitlines()[0]
    assert header == "resolution,h,norm"
